"""Time-extension constructions.

When no exact joint unit-diagonal triangularization of K matrices exists,
it can still be done for the block-diagonal N-fold extensions, up to a
constant number of discarded coordinates: nearly_kgmd produces
rectangular orthonormal-column factors of width n*(N - (n^(K-1) - 1)).

The construction runs K rounds.  Round 1 applies a per-block geometric
mean decomposition of the first matrix; each later round l reorders the
coordinates so that the still-unequalized cells of user l line up in
contiguous n-groups whose product is one, applies a single local GMD to
all groups at once, and re-triangularizes everyone by QR.  Users already
equalized hold identity blocks at the touched positions, so the QR step
provably leaves them untouched (the positive-diagonal QR of c*I times a
unitary returns the unitary itself).  The reordering drops a fixed number
of edge coordinates per round, independent of N, which is why the
efficiency (kept / total) approaches one as N grows.

Every step keeps the structure it is given, so none needs a dense
(nN)^3 kernel.  The shared right factor of a round is blockdiag(w, ..., w)
for one n x n unitary w, so products with it are one n-column matmul per
block.  The reordering is an index permutation of rows and columns.  And
each QR input, t_k @ blockdiag(w, ...), is upper triangular in aligned
n x n blocks, so its Q is block diagonal (matcore.block_qr): one n x n QR
per diagonal block.  A round therefore costs O(n * (nN)^2) per user, and
the kept factors themselves are dense (nN)^2 arrays.

nearly_kjet, for K matrices of equal |det|, runs the same rounds with
joint.jet2 as the local step: K - 1 rounds, round l equalizing the active
blocks of users l and l + 1.  Users already equalized hold identical
blocks at the touched positions, so they stay in lockstep, and one round
fewer loses n^(K-2) - 1 channel uses instead of n^(K-1) - 1.  Both return
joint.JointFactors with ``n_ext`` set and ``kept_indices`` naming the
retained coordinates.
"""

import math
from fractions import Fraction

import numpy as np

from . import matcore
from .errors import (
    FormMismatchError,
    ShapeMismatchError,
    TooFewExtensionsError,
    UnachievableFractionError,
)
from .gtd import gmd
from .joint import (
    JointFactors,
    _check_square_set,
    _check_absdet,
    exists_2gmd,
    jet2,
)


def _reorder_indices(n, n_users, n_ext, round_l):
    """1-based index groups kept by the round-l reordering.

    Group q1 collects one coordinate from each of n hops of stride
    delta = n^(K-l+1) - 1 starting at coordinate n*q1; consecutive group
    starts are n apart.  Validated against the fully worked small cases;
    the group count shrinks with l, which is where the edge coordinates
    are discarded.
    """
    delta = n ** (n_users - round_l + 1) - 1
    q1_count = n_ext - n ** (n_users - 1) + n ** (n_users - round_l)
    return [
        [n + (q1 - 1) * n + (q2 - 1) * delta for q2 in range(1, n + 1)]
        for q1 in range(1, q1_count + 1)
    ]


def _times_blockdiag(x, blocks):
    """x @ blockdiag(blocks) without forming it: ``blocks`` is one n x n
    block repeated down the diagonal, or a (G, n, n) stack, one per block."""
    rows, cols = x.shape
    n = blocks.shape[-1]
    if blocks.ndim == 2:
        return (x.reshape(-1, n) @ blocks).reshape(rows, cols)
    stacked = x.reshape(rows, cols // n, n).transpose(1, 0, 2)
    return np.matmul(stacked, blocks).transpose(1, 0, 2).reshape(rows, cols)


def _retriangularize(t_mats, u_mats, v_total, w):
    """Apply the shared right factor blockdiag(w, ..., w) and restore
    triangularity by QR.

    Each t_k is upper triangular with zero strict block-lower n x n
    blocks, and multiplying by a block-diagonal factor keeps both, so the
    QR input is block upper triangular and its positive-diagonal Q is
    block diagonal: one n x n QR per diagonal block (matcore.block_qr).
    The zeros hold because round 1 leaves the t_k block diagonal and the
    reorderings never move a coupled coordinate pair below the blocks.
    For the first reordering this follows from the group layout: element
    q2 of group a sits at position n - q2 of original block
    a - 1 + (q2 - 1) * (delta + 1) / n.  A coupled pair in one block,
    row element q2 of group a and column element q2' of group b, has
    q2 >= q2' (row at or left of the column), hence
    a - b = (q2' - q2) * (delta + 1) / n <= 0: never below the blocks.
    Later rounds keep it on every case the tests run; block_qr checks it
    on each call and raises rather than drop a nonzero entry.  The cost
    is O(n * (nN)^2) per user instead of O((nN)^3).
    """
    n = w.shape[0]
    for k in range(len(t_mats)):
        q_blocks, t_mats[k] = matcore.block_qr(_times_blockdiag(t_mats[k], w), n)
        u_mats[k] = _times_blockdiag(u_mats[k], q_blocks)
    return _times_blockdiag(v_total, w)


def _rounds(matrices, n_ext, mode):
    """The rounds of both constructions: round l's local step is gmd of
    user l's active n x n block (mode "gmd", K rounds) or jet2 of those of
    users l and l + 1 (mode "jet", K - 1 rounds)."""
    mats, n = _check_square_set(matrices)
    k_users = len(mats)
    min_ext = discarded_uses(n, k_users, mode) + 1
    _check_absdet(mats, unit=mode == "gmd")
    n_ext = int(n_ext)
    if n_ext < min_ext:
        raise TooFewExtensionsError(
            "need at least %d extensions for %d users of size %d, got %d"
            % (min_ext, k_users, n, n_ext))
    rounds = k_users if mode == "gmd" else k_users - 1

    def local_v(blocks, k):     # k = l - 1 is the first active user of round l
        return (gmd(blocks[k]) if mode == "gmd" else jet2(blocks[k], blocks[k + 1])).v

    # round 1 on the matrices themselves, whose extensions are block
    # diagonal: one n x n QR per user aligns everyone
    w = local_v(mats, 0)
    facs = [matcore.qr(m @ w) for m in mats]
    v_total = matcore.time_extend(w, n_ext)
    u_mats = [matcore.time_extend(f.q, n_ext) for f in facs]
    t_mats = [matcore.time_extend(f.r, n_ext) for f in facs]
    coords = list(range(1, n * n_ext + 1))

    for round_l in range(2, rounds + 1):
        groups = _reorder_indices(n, rounds, n_ext, round_l)
        flat = [i for g in groups for i in g]
        pos = matcore.positions(t_mats[0].shape[0], flat)
        coords = [coords[i - 1] for i in flat]
        v_total = v_total[:, pos]
        for k in range(k_users):
            u_mats[k] = u_mats[k][:, pos]
            t_mats[k] = t_mats[k][np.ix_(pos, pos)]
        w = local_v([t[0:n, 0:n] for t in t_mats], round_l - 1)
        v_total = _retriangularize(t_mats, u_mats, v_total, w)

    return JointFactors(v=v_total, users=list(zip(u_mats, t_mats)),
                        diag=np.real(np.diag(t_mats[0])), n_ext=n_ext, kept_indices=coords)


def nearly_kgmd(matrices, n_ext):
    """Joint unit-diagonal triangularization of N-fold extended matrices.

    Input matrices must be square, equal size, unit |det| (normalize
    first), and n_ext >= n^(K-1).  Returns JointFactors whose v and u_k
    have n*n_ext rows and orthonormal columns; the triangular parts are
    n*(n_ext - (n^(K-1) - 1)) wide with all diagonal entries 1.
    """
    return _rounds(matrices, n_ext, "gmd")


def nearly_kjet(matrices, n_ext):
    """Equal-diagonal variant for K >= 2 matrices with equal |det| and
    n_ext >= n^(K-2): the triangular parts are n*(n_ext - (n^(K-2) - 1))
    wide and share one diagonal, whose product is |det|^(kept uses)."""
    return _rounds(matrices, n_ext, "jet")


def extension_futile_2x2(a1, a2):
    """True when no number of time extensions admits an exact joint
    unit-diagonal triangularization of the 2x2 pair: existence for the
    extended matrices is equivalent to existence for the originals, so
    the F1 test settles every N at once."""
    return not exists_2gmd(a1, a2, 1.0)


_REFLECTION_TOL = 1e-8


def _reflection_parts(m):
    """Split a 2x2 unitary of the reflection form
    [[a+bi, c+di], [c-di, -a+bi]] into (a, b, c, d)."""
    w = matcore.as_cmatrix(m)
    if w.shape != (2, 2):
        raise ShapeMismatchError("factors must be 2x2")
    if (abs(w[1, 0] - np.conj(w[0, 1])) > _REFLECTION_TOL
            or abs(w[1, 1] + np.conj(w[0, 0])) > _REFLECTION_TOL):
        raise FormMismatchError("factor is not in reflection form")
    return (float(w[0, 0].real), float(w[0, 0].imag),
            float(w[0, 1].real), float(w[0, 1].imag))


def rephase_to_reflection(u1, u2, v):
    """Rotate a 2x2 joint-triangularization triple by a common global
    phase so all three factors land in reflection form (determinant -1).

    Works whenever the three determinants agree, which holds for factors
    of real det(+1) matrix pairs; the triangular parts are unchanged.
    """
    dets = [np.linalg.det(np.asarray(m)) for m in (u1, u2, v)]
    if max(abs(dets[0] - d) for d in dets) > _REFLECTION_TOL:
        raise FormMismatchError("factor determinants disagree; cannot rephase jointly")
    phase = np.exp(0.5j * (np.pi - np.angle(dets[2])))
    return u1 * phase, u2 * phase, v * phase


def real_embedding_2gmd(a1, a2, u1, u2, v):
    """Real orthogonal 4x4 factors realizing the complex 2x2 joint
    triangularization of a real pair on the two-fold extended space.

    The complex factors must be in reflection form (see
    rephase_to_reflection); each maps to the fixed 4x4 sign pattern
      [[ a, -b,  c, -d],
       [ c,  d, -a, -b],
       [ b,  a,  d,  c],
       [-d,  c,  b, -a]]
    and the embedded triple triangularizes blkdiag(A_k, A_k) with unit
    diagonal using only real orthogonal matrices.
    """
    for m in (a1, a2):
        mm = matcore.as_cmatrix(m)
        if mm.shape != (2, 2):
            raise ShapeMismatchError("channel matrices must be 2x2")
        if np.max(np.abs(mm.imag)) > _REFLECTION_TOL:
            raise FormMismatchError("channel matrices must be real valued")
    out = []
    for m in (u1, u2, v):
        a, b, c, d = _reflection_parts(m)
        out.append(np.array([
            [a, -b, c, -d],
            [c, d, -a, -b],
            [b, a, d, c],
            [-d, c, b, -a],
        ]))
    return tuple(out)


def discarded_uses(n, k_users, mode="gmd"):
    """Channel uses lost to the time extension, n^E - 1 of the N (so
    n * (n^E - 1) discarded coordinates), whatever N is.

    mode "gmd": E = k_users - 1 (constant equal diagonals for k_users
    matrices).  mode "jet": E = k_users - 2 (equal diagonals only; one
    user is absorbed by the quotient reduction).  The smallest usable
    extension is n^E, one more than the loss.
    """
    if mode not in ("gmd", "jet"):
        raise ShapeMismatchError("mode must be 'gmd' or 'jet'")
    if k_users < 1 or (mode == "jet" and k_users < 2):
        raise ShapeMismatchError("too few users for mode %r" % mode)
    return n ** (k_users - 1 if mode == "gmd" else k_users - 2) - 1


def required_extensions(fraction, n, k_users, mode="gmd"):
    """Smallest number of jointly processed channel uses whose kept
    fraction (N - (n^E - 1)) / N reaches ``fraction``, with n^E - 1 from
    discarded_uses.  ``fraction`` may be an exact fractions.Fraction, or
    a float read as the decimal it prints as (0.9 means 9/10); a fraction
    of exactly 1 is achievable only when no coordinates are ever
    discarded (E = 0).
    """
    lost = discarded_uses(n, k_users, mode)
    try:
        frac = fraction if isinstance(fraction, Fraction) else Fraction(repr(float(fraction)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise UnachievableFractionError("fraction must be a finite number") from exc
    if not 0 < frac <= 1:
        raise UnachievableFractionError("fraction must lie in (0, 1]")
    if lost == 0:
        return 1
    if frac == 1:
        raise UnachievableFractionError(
            "fraction 1 needs unbounded extensions when coordinates are discarded")
    # (N - lost) / N >= fraction  <=>  N >= lost / (1 - fraction), in exact rationals
    return max(lost + 1, math.ceil(lost / (1 - frac)))
