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

The shared right factor of a round is blockdiag(w, ..., w) for one n x n
unitary w.  What the rounds build is block Toeplitz, the "equal diagonals
up to constant-length prefix and suffix" made exact: the column blocks of
v and of each u_k are one block of at most n^R rows shifted down by n,
and the block rows of t_k one block row of at most n^R columns shifted
right by n and cut at the matrix edge (R rounds, E = R - 1).  So the
rounds run on these generators alone, whatever N is: a round is one
gather that reorders them, the local step on the diagonal blocks, one
stacked n x n QR of the K users' diagonal blocks, and small matmuls.  The
factors are matcore.BlockToeplitz matrices on these generators
(toeplitz_factors); nearly_kgmd and nearly_kjet write them out as dense
arrays, by strided block copies.

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
from .errors import DimensionError, InfeasibleError, NumericalError
from .gtd import gmd
from .joint import (
    JointFactors,
    _check_absdet,
    jet2,
)


def _reorder(cols, t, s):
    """The generators after a round's reordering, which takes new
    coordinate n*a + i from old coordinate n*(a + i*s) + n - 1 - i
    (i = 0..n-1): ``cols`` (c, h, n) holds first column blocks and ``t``
    (K, n, w) first block rows.

    Column i of ``cols`` becomes its old column n - 1 - i moved down i*s
    blocks.  Row i of ``t`` becomes its old row n - 1 - i, whose column
    n - 1 - j of each block moves (i - j)*s blocks right, to column j.  A
    nonzero entry that would land left of the first block lands below the
    diagonal blocks of t_k; the QR step takes every such entry to be zero,
    so NumericalError.  In the first reordering none can, since (i - j)*s
    < 0 needs j > i, and old row n - 1 - i is zero left of column
    n - 1 - i; later rounds keep it on every case the tests run.
    """
    n = t.shape[-2]
    lane = np.arange(n)
    row_lane = lane[:, np.newaxis, np.newaxis]
    pad = (n - 1) * s
    # entry (b, r, n - 1 - i) of the (c, blocks, n, n) column blocks goes
    # to (b + i*s, r, i)
    blocks = cols.reshape(len(cols), -1, n, n)[..., ::-1]
    moved = np.zeros((len(cols), blocks.shape[1] + pad, n, n), dtype=np.complex128)
    moved[:, np.arange(blocks.shape[1])[:, np.newaxis, np.newaxis] + s * lane,
          lane[:, np.newaxis], lane] = blocks
    # entry (n - 1 - i, b, n - 1 - j) of the (K, n, blocks, n) block rows
    # goes to (i, b + (i - j)*s, j), held pad blocks right
    rows = t.reshape(len(t), n, -1, n)[:, ::-1, :, ::-1]
    shifted = np.zeros((len(t), n, rows.shape[2] + 2 * pad, n), dtype=np.complex128)
    shifted[:, row_lane, np.arange(rows.shape[2])[:, np.newaxis] + s * (row_lane - lane) + pad,
            lane] = rows
    if np.any(shifted[:, :, :pad]):
        raise NumericalError(
            "the reordering moves a nonzero entry below the %d x %d diagonal blocks" % (n, n))
    return moved.reshape(len(cols), -1, n), shifted[:, :, pad:].reshape(len(t), n, -1)


def _run_rounds(mats, mode):
    """The rounds on the generators of their block Toeplitz results: round
    l's local step is gmd of user l's diagonal block (mode "gmd", K rounds)
    or jet2 of those of users l and l + 1 (mode "jet", K - 1 rounds).  Each
    QR input is upper triangular in n x n blocks (_reorder keeps the rest
    zero), with one diagonal block per user repeated down the diagonal, so
    its Q is blockdiag(q_k, q_k, ...) for the QR factor q_k of that block.
    Returns the first column block of v, those of the stacked u_k, the
    first block rows of the stacked t_k, and the 1-based coordinates the
    first n columns keep."""
    rounds = len(mats) if mode == "gmd" else len(mats) - 1
    n = mats[0].shape[0]

    def local_v(blocks, k):     # k = l - 1 is the first active user of round l
        return (gmd(blocks[k]) if mode == "gmd" else jet2(blocks[k], blocks[k + 1])).v

    # round 1 on the matrices themselves, whose extensions are block
    # diagonal: one n x n QR per user aligns everyone
    w = local_v(mats, 0)
    fac = matcore.qr(np.stack(mats) @ w)
    cols, t, first = np.concatenate([w[np.newaxis], fac.q]), fac.r, np.arange(1, n + 1)
    for round_l in range(2, rounds + 1):
        s = n ** (rounds - round_l)
        cols, t = _reorder(cols, t, s)
        first = first[::-1] + n * s * np.arange(n)
        w = local_v(t[..., :n], round_l - 1)
        t = (t.reshape(-1, n) @ w).reshape(t.shape)
        fac = matcore.qr(t[..., :n])
        t = fac.q.conj().swapaxes(-1, -2) @ t
        t[..., :n] = fac.r
        cols = cols @ np.concatenate([w[np.newaxis], fac.q])
    return cols[0], cols[1:], t, first


def _trim(block):
    """The stack ``block`` (..., h, w) cut after the last row and the last
    column that hold a nonzero entry in any of its matrices."""
    nonzero = np.any(block.reshape(-1, *block.shape[-2:]), axis=0)
    rows, cols = (np.flatnonzero(nonzero.any(axis=axis))[-1] + 1 for axis in (1, 0))
    return block[..., :rows, :cols]


def toeplitz_factors(matrices, n_ext, mode):
    """The factors of :func:`nearly_kgmd` (mode "gmd") or
    :func:`nearly_kjet` (mode "jet") on the rounds' generators: JointFactors
    whose v, u_k and t_k are matcore.BlockToeplitz matrices, with ``diag``
    and ``kept_indices`` as there.  Past those two N-long lists, its cost
    and memory do not grow with N."""
    mats, n = matcore.check_square_set(matrices)
    k_users = len(mats)
    min_ext = discarded_uses(n, k_users, mode) + 1
    _check_absdet(mats, unit=mode == "gmd")
    # argparse hands the CLI's count over as an int; anything else, a bool
    # or a float with a fraction among them, is refused, not truncated
    if isinstance(n_ext, bool) or not isinstance(n_ext, (int, np.integer)):
        raise DimensionError("the extension count must be an integer, got %r" % (n_ext,))
    n_ext = int(n_ext)
    if n_ext < min_ext:
        raise InfeasibleError(
            "need at least %d extensions for %d users of size %d, got %d"
            % (min_ext, k_users, n, n_ext))
    v, u, t, first = _run_rounds(mats, mode)
    rows, kept = n * n_ext, n * (n_ext - min_ext + 1)
    # the generators of v and the u_k have at most n * min_ext rows, so
    # only t_k's is cut
    u, t = _trim(u), _trim(t[..., :kept])
    kept_indices = first + np.arange(0, kept, n)[:, np.newaxis]
    return JointFactors(v=matcore.BlockToeplitz(_trim(v), rows, kept, n, n),
                        users=[(matcore.BlockToeplitz(u_k, rows, kept, n, n),
                                matcore.BlockToeplitz(t_k, kept, kept, n, n))
                               for u_k, t_k in zip(u, t)],
                        diag=np.tile(np.real(np.diag(t[0, :, :n])), kept // n), n_ext=n_ext,
                        kept_indices=kept_indices.ravel().tolist())


def _dense(factors):
    """``factors`` with its BlockToeplitz factors as dense arrays, the
    users' u_k, and their t_k, written as one stack (their generators share
    a shape): one large array allocates much faster than K."""
    factors.v = factors.v.to_dense()
    u, t = (matcore.BlockToeplitz(np.array([m.block for m in ms]), *ms[0].shape, ms[0].row_step,
                                  ms[0].col_step).to_dense() for ms in zip(*factors.users))
    factors.users = list(zip(u, t))
    return factors


def nearly_kgmd(matrices, n_ext):
    """Joint unit-diagonal triangularization of N-fold extended matrices.

    Input matrices must be square, equal size, unit |det| (normalize
    first), and n_ext >= n^(K-1).  Returns JointFactors whose v and u_k
    have n*n_ext rows and orthonormal columns; the triangular parts are
    n*(n_ext - (n^(K-1) - 1)) wide with all diagonal entries 1.
    """
    return _dense(toeplitz_factors(matrices, n_ext, "gmd"))


def nearly_kjet(matrices, n_ext):
    """Equal-diagonal variant for K >= 2 matrices with equal |det| and
    n_ext >= n^(K-2): the triangular parts are n*(n_ext - (n^(K-2) - 1))
    wide and share one diagonal, whose product is |det|^(kept uses).

    On ill-conditioned families the users' "equal" diagonals drift apart:
    the n x n quotients jet2 takes have condition number up to c^2, and
    their GMD carries that error to every kept coordinate, up to 1.1e-5
    relative at c = 1e6 (2.6e-7 at 1e5).  The result does not report it.
    """
    return _dense(toeplitz_factors(matrices, n_ext, "jet"))


def discarded_uses(n, k_users, mode="gmd"):
    """Channel uses lost to the time extension, n^E - 1 of the N (so
    n * (n^E - 1) discarded coordinates), whatever N is.

    mode "gmd": E = k_users - 1 (constant equal diagonals for k_users
    matrices).  mode "jet": E = k_users - 2 (equal diagonals only; one
    user is absorbed by the quotient reduction).  The smallest usable
    extension is n^E, one more than the loss.
    """
    if mode not in ("gmd", "jet"):
        raise DimensionError("mode must be 'gmd' or 'jet'")
    if k_users < 1 or (mode == "jet" and k_users < 2):
        raise DimensionError("too few users for mode %r" % mode)
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
        raise InfeasibleError("fraction must be a finite number") from exc
    if not 0 < frac <= 1:
        raise InfeasibleError("fraction must lie in (0, 1]")
    if lost == 0:
        return 1
    if frac == 1:
        raise InfeasibleError(
            "fraction 1 needs unbounded extensions when coordinates are discarded")
    # (N - lost) / N >= fraction  <=>  N >= lost / (1 - fraction), in exact rationals
    return math.ceil(lost / (1 - frac))
