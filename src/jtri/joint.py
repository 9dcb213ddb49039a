"""Joint decompositions of matrix families sharing one right factor.

The workhorse is the reduction between the two joint forms: equi-diagonal
triangularization of K+1 matrices is equivalent to unit-diagonal
triangularization of the K quotients B_k = A_k A_{K+1}^{-1}
(kgmd_to_kjet / jet2).  For 2x2 pairs, exact unit-diagonal joint
triangularization exists exactly when the forms S_k = A_k^H A_k - I
share a unit null vector, and common_null_witness alone decides it
(exists_2gmd / construct_2gmd; exists_upper_lower / construct_upper_lower
on S_1 and adj S_2 for the mixed upper/lower orientation).  On the null
circle of one form the other reads A + B cos(phase), and
(c - a)^2 (B^2 - A^2) = F1(S1, S2) = det(S1 adj(S2) - S2 adj(S1)), so
the phase solves cos(phase) = -A / B.  F1 and F2 only name a refusal.
"""

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DimensionError, InfeasibleError, NotConstructibleError, NumericalError
from .gtd import gmd


@dataclass
class JointFactors:
    """Shared right factor plus per-user left/triangular pairs, for exact
    and for time-extension constructions alike.

    For every user k:  u_k^H ext(a_k) v = r_k, upper-triangular with the
    common real positive diagonal ``diag``, where ext(a_k) is the
    block-diagonal ``n_ext``-fold time extension of a_k (a_k itself for
    n_ext = 1).  Exact constructions (n_ext = 1, ``kept_indices`` None)
    have square unitary factors, so a_k = u_k @ r_k @ v^H.  The spacetime
    constructions return v and every u_k with n*n_ext rows and orthonormal
    columns, one per kept coordinate; ``kept_indices`` maps those back to
    1-based positions of the extended space.
    """
    v: np.ndarray
    users: list          # [(u_k, r_k), ...]
    diag: np.ndarray
    n_ext: int = 1
    kept_indices: list | None = None

    @property
    def n(self):
        """Size of one block: the rows of v per channel use."""
        return self.v.shape[0] // self.n_ext

    @property
    def kept_dim(self):
        return self.v.shape[1]


def _det2(m):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def normalize_equal_det(matrices):
    """Scale each matrix to unit |det|; returns (scaled, factors) with
    a_k = factors[k] * scaled[k]."""
    mats, n = matcore.check_square_set(matrices)
    scaled = []
    factors = []
    for m in mats:
        log_d = np.linalg.slogdet(m)[1]     # log|det|, -inf when singular
        if not np.isfinite(log_d):
            raise NumericalError("cannot normalize a singular matrix")
        f = float(np.exp(log_d / n))
        factors.append(f)
        scaled.append(m / f)
    return scaled, factors


def _check_absdet(mats, unit=False):
    """The |det| precondition of the joint constructions: equal |det|, or
    unit |det| when ``unit``.  Compared on log|det| with one bound,
    (10n + 1) * TOL_MAJOR, for both.  slogdet keeps it finite at any
    size; a singular matrix (log|det| = -inf) fails either."""
    logs = [float(np.linalg.slogdet(m)[1]) for m in mats]
    bound = (10 * mats[0].shape[0] + 1) * matcore.TOL_MAJOR
    off = max(abs(x) for x in logs) if unit else max(logs) - min(logs)
    if not off <= bound:
        raise DimensionError("matrices must have %s |det| (log|det| off by %.3g)"
                                  % ("unit" if unit else "equal", off))


def _hermitian_2x2_or_raise(s):
    if np.shape(s) != (2, 2):
        raise DimensionError("expected a 2x2 matrix")
    return matcore.hermitian_part(s)


def f1(s1, s2):
    """det(S1 adj(S2) - S2 adj(S1)) for Hermitian 2x2 S1, S2; real by
    construction (tiny imaginary residue is discarded).  Invariant under
    simultaneous unitary conjugation, and nonnegative exactly when the two
    quadratic forms share a unit-norm null vector."""
    h1 = _hermitian_2x2_or_raise(s1)
    h2 = _hermitian_2x2_or_raise(s2)
    m = h1 @ matcore.adjugate(h2) - h2 @ matcore.adjugate(h1)
    return float(_det2(m).real)


def f2(s1, s2):
    """det(S1 S2 - adj(S2) adj(S1)); decides the upper/lower variant.  As
    adj adj S = S for 2x2 matrices, it is F1(S1, adj S2)."""
    return f1(s1, matcore.adjugate(s2))


# --- the common null vector ---------------------------------------------------


def _eigen_gap(h):
    return np.hypot((h[0, 0] - h[1, 1]).real, 2.0 * abs(h[0, 1]))


def common_null_witness(*forms):
    """Unit vector v with v^H S v = 0 for each of two or more Hermitian
    2x2 forms S.

    The null vectors of an indefinite S = Q diag(a, c) Q^H, a <= 0 <= c,
    make up the circle Q (cos t, e^{ip} sin t) with cos^2 t = c / (c - a).
    On it a second form reads A + B cos(p + arg beta), where beta is its
    off-diagonal entry in Q's basis, A = (a2 c - c2 a) / (c - a) and
    B = 2 sqrt(-ac) |beta| / (c - a).  As (c - a)^2 (B^2 - A^2) = F1 of
    the pair, the two share a null vector exactly when F1 >= 0, at
    cos(p + arg beta) = -A / B (any p when B = 0; p = 0 is taken).

    The circle is that of the form with the widest eigenvalue gap, so a
    numerically zero form never defines it, and the second form is the one
    with the largest |beta|, so a form proportional to the first never
    leaves the phase free while another fixes it.  Both are computed on
    the forms scaled by their largest norm where that exceeds 1.  Of the
    two roots, the first with |v^H S v| <= TOL_ZERO on every unscaled form
    is returned: for S = A^H A - r^2 I that is the promised diagonal entry
    |A v|^2 = r^2.  Otherwise raises InfeasibleError, or NumericalError
    for a form that is not finite.
    """
    if len(forms) < 2:
        raise DimensionError("need at least two forms")
    if not all(np.isfinite(s).all() for s in forms):
        raise NumericalError("a form of the 2x2 existence test is not finite")
    hs = [_hermitian_2x2_or_raise(s) for s in forms]
    scale = max(1.0, max(np.linalg.norm(h) for h in hs))
    circle, *rest = sorted((h / scale for h in hs), key=_eigen_gap, reverse=True)
    (a, c), q = np.linalg.eigh(circle)
    t = max((q.conj().T @ g @ q for g in rest), key=lambda m: abs(m[0, 1]))
    # the widest gap is zero only when every form is a multiple of I
    gap = c - a
    cos_t, sin_t = np.sqrt(np.clip([c / gap, -a / gap], 0.0, 1.0)) if gap > 0 else (1.0, 0.0)
    big_a = t[0, 0].real * cos_t ** 2 + t[1, 1].real * sin_t ** 2
    big_b = 2.0 * cos_t * sin_t * abs(t[0, 1])
    # B = 0 leaves the phase free; phase 1 keeps a real pair's witness real
    x, turn = ((min(max(-big_a / big_b, -1.0), 1.0), np.conj(t[0, 1]) / abs(t[0, 1]))
               if big_b > 0 else (1.0, 1.0))
    y = np.sqrt(1.0 - x * x)
    for phase in ((x - 1j * y) * turn, (x + 1j * y) * turn):
        v = q @ np.array([cos_t, phase * sin_t])
        if all(abs(v.conj() @ h @ v) <= matcore.TOL_ZERO for h in hs):
            return v
    raise InfeasibleError("no common null vector of the %d forms" % len(hs))


# --- 2x2 joint decompositions -------------------------------------------------


def _check_unit_det_pair(a1, a2):
    m1 = matcore.as_cmatrix(a1)
    m2 = matcore.as_cmatrix(a2)
    if m1.shape != (2, 2) or m2.shape != (2, 2):
        raise DimensionError("expected 2x2 matrices")
    _check_absdet([m1, m2], unit=True)
    return m1, m2


def _forms(mats, r=1.0):
    """A^H A - r^2 I for each 2x2 matrix; an overflow stays inf, for the witness."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [m.conj().T @ m - r * r * np.eye(2) for m in mats]


def _witnessed(*forms):
    try:
        common_null_witness(*forms)
    except InfeasibleError:
        return False
    return True


def _refusal(what, name, value):
    """What a refusal says: the F1 or F2 value, and "< 0" only when it is."""
    if value < 0:
        return "%s does not exist: %s = %.6g < 0" % (what, name, value)
    return "%s: no unit vector gives unit diagonals within TOL_ZERO (%s = %.6g)" % (
        what, name, value)


def exists_2gmd(a1, a2, r=1.0):
    """Existence of joint unit-phase triangularization of a 2x2 pair with
    common diagonal (r, 1/r): common_null_witness finds a unit v with
    |A_k v| = r, a null vector of both forms A_k^H A_k - r^2 I."""
    return _witnessed(*_forms(_check_unit_det_pair(a1, a2), r))


def construct_2gmd(a1, a2):
    """Joint triangularization of a 2x2 unit-det pair with unit diagonals:
    kgmd_exact of the pair.  The common null vector of the forms
    A_k^H A_k - I decides; NotConstructibleError when there is none.
    """
    return _kgmd_exact_core(_check_unit_det_pair(a1, a2), 2)


def kgmd_exact(matrices):
    """Exact joint unit-diagonal triangularization, where available.

    K = 1 is the geometric mean decomposition, and so are identical
    matrices.  For 2x2 families of any K the factors exist exactly when
    the forms A_k^H A_k - I share a null vector: common_null_witness
    decides, its vector is completed to a unitary V, and every A_k V is
    triangularized in one QR call.  Anything else raises
    NotConstructibleError so callers can fall back to time extensions;
    when the witness finds no vector, the message names the F1 value of
    the first two matrices.
    """
    mats, n = matcore.check_square_set(matrices)
    _check_absdet(mats, unit=True)
    return _kgmd_exact_core(mats, n)


def _kgmd_exact_core(mats, n):
    """kgmd_exact on nonempty square matrices of size n that are taken to
    have unit |det|: kgmd_to_kjet's quotients have it by construction, up
    to a roundoff drift that grows with the condition number."""
    bound = matcore.TOL_ZERO * abs(mats[0]).max()
    if all(abs(m - mats[0]).max() <= bound for m in mats[1:]):
        fac = gmd(mats[0])
        return JointFactors(v=fac.v, users=[(fac.u, fac.r)] * len(mats), diag=fac.diag)
    if n == 2:
        forms = _forms(mats)
        try:
            v1 = common_null_witness(*forms)
        except InfeasibleError as exc:
            raise NotConstructibleError(_refusal(
                "exact joint unit-diagonal triangularization", "F1", f1(*forms[:2]))) from exc
        v = np.array([[v1[0], -np.conj(v1[1])], [v1[1], np.conj(v1[0])]])
        fac = matcore.qr(np.stack([m @ v for m in mats]))
        diag = np.mean(np.real(np.diagonal(fac.r, axis1=1, axis2=2)), axis=0)
        return JointFactors(v=v, users=list(zip(fac.q, fac.r)), diag=diag)
    raise NotConstructibleError(
        "no exact construction known for %d matrices of size %d" % (len(mats), n))


def kgmd_to_kjet(matrices):
    """Equi-diagonal triangularization of K+1 matrices via exact
    unit-diagonal triangularization (kgmd_exact) of the K quotients
    against the last matrix; NotConstructibleError from it propagates.
    The |det| condition is checked once, on the matrices: the quotients
    are not checked again.  A singular matrix (log|det| = -inf) fails
    that check, so the last matrix is invertible when it is inverted.
    """
    mats, n = matcore.check_square_set(matrices)
    if len(mats) < 2:
        raise DimensionError("need at least two matrices")
    _check_absdet(mats)
    last_inv = np.linalg.inv(mats[-1])
    core = _kgmd_exact_core([m @ last_inv for m in mats[:-1]], n)
    u_last = core.v
    fac = matcore.qr(last_inv @ u_last)
    r_hat_inv = np.linalg.inv(fac.r)
    users = [(u_k, t_k @ r_hat_inv) for (u_k, t_k) in core.users]
    users.append((u_last, r_hat_inv))
    diag = 1.0 / np.real(np.diag(fac.r))
    return JointFactors(v=fac.q, users=users, diag=diag)


def jet2(a1, a2):
    """Equi-diagonal triangularization of two equal-|det| matrices.
    Raises NumericalError when the quotient A1 A2^{-1} is singular to
    working precision, as it is on pairs U diag(sqrt(c), 1/sqrt(c)) W at
    c = 1e8 (ROADMAP item 3: a quotient-free construction)."""
    return kgmd_to_kjet([a1, a2])


def exists_upper_lower(a1, a2):
    """Existence of the mixed orientation: first matrix upper-triangular
    with unit diagonal, second lower-triangular with unit diagonal; the
    witness decides on S_1 and adj S_2."""
    s1, s2 = _forms(_check_unit_det_pair(a1, a2))
    return _witnessed(s1, matcore.adjugate(s2))


def construct_upper_lower(a1, a2):
    """Mixed-orientation joint triangularization with unit diagonals.

    Returns (v, u1, r1_upper, u2, r2_lower).  The first column of V is
    common_null_witness's vector for S_1 and adj S_2, so A1 v1 is
    unit-norm (upper route) and so is A2 v2 for its orthogonal partner
    v2, which is exactly the lower-triangular condition.  When the witness
    finds no vector, raises InfeasibleError naming the F2 value.
    """
    m1, m2 = _check_unit_det_pair(a1, a2)
    s1, s2 = _forms([m1, m2])
    try:
        v1 = common_null_witness(s1, matcore.adjugate(s2))
    except InfeasibleError as exc:
        raise InfeasibleError(_refusal(
            "mixed-orientation decomposition", "F2", f2(s1, s2))) from exc
    v2 = np.array([np.conj(v1[1]), -np.conj(v1[0])])
    v = np.column_stack([v1, v2])
    # lower-triangular factor: QR of A2 V with its columns reversed,
    # reversed back (A2 V P = Q R gives A2 V = (Q P)(P R P))
    fac = matcore.qr(np.stack([m1 @ v, (m2 @ v)[:, ::-1]]))
    return v, fac.q[0], fac.r[0], fac.q[1][:, ::-1], fac.r[1][::-1, ::-1]

