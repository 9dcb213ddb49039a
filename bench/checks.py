"""Independent correctness checks for the benchmark, written with numpy only.

Nothing here calls jtri: every property is recomputed from the inputs the
benchmark generated and the arrays the program returned (or wrote as JSON).
A ``Verdict`` collects one operation's residuals and the reasons it failed.

Factor residuals are relative and dimensionless:
  recon     ||U R V^H - A||_F / ||A||_F  (or ||T - U^H A V||_F / ||T||_F)
  orth      max |Q^H Q - I| over every factor with orthonormal columns
  subdiag   ||strictly lower part of R||_F / ||R||_F
  diag      max |d_i - target_i| / |target_i|
Each must stay within TOL, the package's own documented 1e-9 tolerance for
reconstruction, triangularity and unitarity checks.
"""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9
# A measured SNR may sit this many of its own standard errors from the
# prediction.  Over thousands of streams the largest observed |z| is about 4,
# so 6 never rejects a correct simulation, while a 10-SE shift always fails.
SNR_Z_LIMIT = 6.0


class Verdict:
    """Residuals and failure reasons of one operation."""

    def __init__(self):
        self.worst = 0.0          # worst factor residual (feeds accuracy_digits)
        self.reasons = []

    def factor(self, name, value):
        """Record a factor residual; it fails when above TOL or not finite."""
        value = float(value)
        self.worst = max(self.worst, value if math.isfinite(value) else math.inf)
        if not value <= TOL:
            self.reasons.append("%s %.2e > %.0e" % (name, value, TOL))

    def require(self, ok, reason):
        if not ok:
            self.reasons.append(reason)

    @property
    def ok(self):
        return not self.reasons


def _fro(x):
    return float(np.linalg.norm(x))


def recon(a, u, r, v):
    return _fro(u @ r @ v.conj().T - a) / max(_fro(a), 1e-300)


def orth(*qs):
    worst = 0.0
    for q in qs:
        g = q.conj().T @ q
        worst = max(worst, float(np.max(np.abs(g - np.eye(g.shape[0])))))
    return worst


def subdiag(r):
    return _fro(np.tril(r, -1)) / max(_fro(r), 1e-300)


def diag_err(d, target):
    d = np.asarray(d, dtype=float)
    t = np.broadcast_to(np.asarray(target, dtype=float), d.shape)
    if d.shape != t.shape or d.size == 0:
        return math.inf
    return float(np.max(np.abs(d - t) / np.abs(t)))


def real_diag(r):
    return np.real(np.diag(r))


def geometric_mean_sv(a):
    """exp(mean(log sigma)) with sigma from numpy's SVD."""
    s = np.linalg.svd(a, compute_uv=False)
    return float(np.exp(np.mean(np.log(s))))


def check_single(verdict, a, u, r, v, target):
    """a = u r v^H, unitary u and v, upper-triangular r with diag = target."""
    verdict.factor("recon", recon(a, u, r, v))
    verdict.factor("orth", orth(u, v))
    verdict.factor("subdiag", subdiag(r))
    verdict.factor("diag", diag_err(real_diag(r), target))


def check_joint(verdict, mats, v, users, target=None):
    """Shared v, per-user (u_k, r_k); diagonals agree across users and, when
    ``target`` is given, equal it."""
    first = real_diag(users[0][1])
    for a, (u, r) in zip(mats, users):
        verdict.factor("recon", recon(a, u, r, v))
        verdict.factor("orth", orth(u, v))
        verdict.factor("subdiag", subdiag(r))
        verdict.factor("diag", diag_err(real_diag(r), first if target is None else target))
    verdict.require(bool(np.all(first > 0)), "non-positive diagonal")


def extended_apply(a, v, n_ext):
    """(I_N kron A) v without forming the Kronecker product."""
    n = a.shape[0]
    blocks = v.reshape(n_ext, n, v.shape[1])
    return (a @ blocks).reshape(n_ext * n, v.shape[1])


def kept_dim(n, n_ext, exponent):
    """Width of the time-extension factors: n (N - n^E + 1)."""
    return n * (n_ext - n ** exponent + 1)


def check_spacetime(verdict, mats, n_ext, v, users, exponent, unit_diag):
    """Orthonormal-column factors with t_k = u_k^H (I_N kron A_k) v upper
    triangular; the diagonals are 1 (unit_diag) or agree across users."""
    n = mats[0].shape[0]
    width = kept_dim(n, n_ext, exponent)
    verdict.require(v.shape == (n * n_ext, width),
                    "v shape %s, expected %s" % (v.shape, (n * n_ext, width)))
    if not verdict.ok:
        return
    first = real_diag(users[0][1])
    for a, (u, t) in zip(mats, users):
        verdict.require(u.shape == v.shape and t.shape == (width, width),
                        "factor shapes %s %s" % (u.shape, t.shape))
        if not verdict.ok:
            return
        verdict.factor("recon", _fro(t - u.conj().T @ extended_apply(a, v, n_ext))
                       / max(_fro(t), 1e-300))
        verdict.factor("orth", orth(u, v))
        verdict.factor("subdiag", subdiag(t))
        verdict.factor("diag", diag_err(real_diag(t), 1.0 if unit_diag else first))


def log2_det_gram(h, cov):
    """Mutual information log2 det(I + H C H^H), by slogdet."""
    sign, logdet = np.linalg.slogdet(np.eye(h.shape[0]) + h @ cov @ h.conj().T)
    return float(logdet / np.log(2.0))


def check_snr(verdict, predicted, measured, std_error):
    z = abs(measured - predicted) / std_error
    verdict.require(z <= SNR_Z_LIMIT,
                    "measured SNR %.6g is %.1f standard errors from %.6g"
                    % (measured, z, predicted))


def check_close(verdict, name, got, want, tol=TOL):
    err = abs(got - want) / max(abs(want), 1e-300)
    verdict.require(err <= tol, "%s %.12g differs from %.12g" % (name, got, want))


def required_extensions(fraction, n, exponent):
    """ceil((n^E - 1) / (1 - f)), clamped to at least n^E, in exact arithmetic."""
    lost = n ** exponent - 1
    if lost == 0:
        return 1
    return max(n ** exponent, math.ceil(Fraction(lost) / (1 - Fraction(fraction))))


def matrix_from_json(obj):
    """Decode the interchange format {"rows", "cols", "data": [[re, im], ...]}."""
    data = np.asarray(obj["data"], dtype=float).reshape(-1, 2)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def _decode_matrices(obj):
    if obj.keys() >= {"rows", "cols", "data"}:
        return matrix_from_json(obj)
    return obj


def load_json(path):
    """Parse a jtri output file, turning each matrix object into a complex
    array as soon as it is read, so the parsed lists of one matrix at a time
    are alive and the check adds little to the process's peak memory."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_hook=_decode_matrices)


def matrix_to_json(a):
    a = np.asarray(a, dtype=complex)
    flat = a.reshape(-1)
    return {"rows": a.shape[0], "cols": a.shape[1],
            "data": np.stack([flat.real, flat.imag], axis=1).tolist()}


def nbytes(obj, seen=None):
    """Summed nbytes of every numpy array reachable from ``obj``."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(nbytes(x, seen) for x in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(nbytes(x, seen) for x in obj)
    if hasattr(obj, "__dict__"):
        return sum(nbytes(x, seen) for x in vars(obj).values())
    return 0


def digest(obj, h=None):
    """Hash of every array and scalar reachable from ``obj``: two results
    with the same digest are the same bits."""
    top = h is None
    if top:
        h = hashlib.blake2b(digest_size=16)
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(obj).data)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            h.update(repr(key).encode())
            digest(value, h)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for value in obj:
            digest(value, h)
    elif hasattr(obj, "__dict__"):
        digest(vars(obj), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def file_digest(path):
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
