"""Gaussian MIMO multicast layer.

Capacity quantities (log-det mutual information, worst-user rate),
canonical channel matrices, per-stream rate accounting, a deterministic
Monte-Carlo simulator of the successive-interference-cancellation
receiver, and generators for the worked channel families (rateless,
permuted parallel channels, degrees-of-freedom mismatch).

Conventions: noise is unit-variance circularly-symmetric complex
Gaussian per receive dimension, rates are bits per channel use, and the
reference input is white, cov = (P / n_t) I, unless a covariance is
given explicitly.
"""

import itertools
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import DimensionError, NumericalError


@dataclass
class MulticastProblem:
    """Per-user channel matrices, shared input covariance, power budget."""
    users: list            # H_k, each n_r_k x n_t
    cov: np.ndarray        # n_t x n_t Hermitian PSD
    power: float

    def __post_init__(self):
        self.users = [matcore.as_cmatrix(h) for h in self.users]
        self.cov = matcore.as_cmatrix(self.cov)
        n_t = self.cov.shape[0]
        if self.cov.shape != (n_t, n_t):
            raise DimensionError("covariance must be square")
        for h in self.users:
            if h.shape[1] != n_t:
                raise DimensionError(
                    "user channel has %d columns, covariance is %d-dim"
                    % (h.shape[1], n_t))
        if np.trace(self.cov).real > self.power + matcore.TOL_ZERO:
            raise DimensionError("trace of covariance exceeds the power budget")


@dataclass
class SchemeRates:
    per_stream_snr: np.ndarray
    per_stream_rate: np.ndarray
    total_rate: float


@dataclass
class SicReport:
    """Measured vs predicted post-cancellation SNR for one user."""
    measured_snr: np.ndarray
    predicted_snr: np.ndarray
    std_error: np.ndarray


def _check_psd(cov):
    c = matcore.hermitian_part(cov, "covariance")
    w = np.linalg.eigvalsh(c)
    if w[0] < -matcore.TOL_ZERO * (np.max(np.abs(c)) + 1.0):
        raise NumericalError("covariance has a negative eigenvalue %.3g" % w[0])
    return c


def mutual_info(h, cov):
    """log2 det(I + H C H^H) in bits per channel use."""
    hm = matcore.as_cmatrix(h)
    c = _check_psd(cov)
    if hm.shape[1] != c.shape[0]:
        raise DimensionError("channel/covariance size mismatch")
    gram = np.eye(hm.shape[0]) + hm @ c @ hm.conj().T
    sign, logdet = np.linalg.slogdet(gram)
    return float(max(logdet, 0.0) / np.log(2.0))


def multicast_rate(problem):
    """Worst-user mutual information at the problem's fixed covariance."""
    return min(mutual_info(h, problem.cov) for h in problem.users)


def cov_sqrt(cov):
    """Lower-triangular factor B with B B^H = cov (positive diagonal on
    the positive-definite part; zero columns where the covariance is
    singular)."""
    c = _check_psd(cov)
    n = c.shape[0]
    scale = np.max(np.abs(c))
    b = np.zeros((n, n), dtype=np.complex128)
    work = c.copy()
    for j in range(n):
        pivot = work[j, j].real
        if pivot < -matcore.TOL_ZERO * scale:
            raise NumericalError("negative pivot in Cholesky factorization")
        if pivot <= 1e-14 * scale:
            continue
        root = np.sqrt(pivot)
        b[j, j] = root
        if j + 1 < n:
            col = work[j + 1:, j] / root
            b[j + 1:, j] = col
            work[j + 1:, j + 1:] -= np.outer(col, col.conj())
    return b


def canonical_matrix(h, cov):
    """Upper-triangular factor G of the noise-augmented channel: stack
    H C^(1/2) on top of the identity and take the QR triangle.  Then
    det(G^H G) = 2^I(H, C), so 2 * sum(log2 diag(G)) is the mutual
    information."""
    return _augmented_qr(h, cov).r


def _augmented_qr(h, cov):
    hm = matcore.as_cmatrix(h)
    b = cov_sqrt(cov)
    if hm.shape[1] != b.shape[0]:
        raise DimensionError("channel/covariance size mismatch")
    return matcore.qr(np.vstack([hm @ b, np.eye(b.shape[0])]))


def scheme_rates(diag, n_ext=1):
    """Stream SNRs r_j^2 - 1 and rates log2(r_j^2); the total is
    normalized per channel use of the extension."""
    d = np.asarray(diag, dtype=float)
    if np.any(d < 1.0 - matcore.TOL_ZERO):
        raise DimensionError("scheme diagonal entries must be >= 1")
    d = np.maximum(d, 1.0)
    snr = d * d - 1.0
    rate = 2.0 * np.log2(d)
    return SchemeRates(per_stream_snr=snr, per_stream_rate=rate,
                       total_rate=float(np.sum(rate)) / int(n_ext))


def _complex_normal(rng, shape):
    """Unit-variance circularly-symmetric complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


# entries per array of a block of trials (4 MB complex): simulate_sic draws
# _BLOCK_ENTRIES // max(streams, noise rows) trials at a time
_BLOCK_ENTRIES = 1 << 18


def simulate_sic(problem, factors, trials, seed):
    """Monte-Carlo measurement of the per-stream SNR seen by the
    successive-cancellation receiver, one report per user.

    Unit-variance symbols enter through the shared precoder, each user
    filters with its own left factor, and already-decoded streams are
    removed exactly (genie-aided, as appropriate for capacity-achieving
    scalar codes).  With S = front q1 g v the effective matrix and
    front = u^H q1^H, the residual of stream j after cancelling streams
    j+1..m is sum_{i<j} S_ji x_i + front_j w: the interference of the
    streams still to come plus filtered noise w.  Its power is the
    denominator, |S_jj x_j|^2 the numerator, and the reported SNR is the
    ratio of their means, with a delta-method standard error.  Predicted
    SNRs are r_j^2 - 1 from the effective triangular matrix.  A stream
    that sees neither interference nor noise (one blind to the channel,
    whose row of front is zero) reports infinite SNR.

    Trials are drawn and reduced in blocks of about _BLOCK_ENTRIES
    complex entries, keeping four running sums per stream, so memory is
    bounded by the block whatever the number of trials.  Deterministic
    for a fixed (seed, trials): draws come from a counter-based generator
    in a fixed order (each block's symbols, then each user's noise), and
    the estimator uses numpy reductions only.

    ``factors`` is a joint.JointFactors with one (u, r) pair per user;
    with n_ext > 1 each channel is time-extended n_ext times.  For square
    (exact) factors the measured SNR converges to the prediction on every
    stream.  For rectangular time-extension factors the interior streams
    behave the same way, but the few streams adjacent to the discarded
    coordinates measure a higher SNR than r_j^2 - 1: there the
    prediction is conservative, and the measurement agrees with the
    closed form |S_jj|^2 / (sum_{i<j} |S_ji|^2 + ||front_j||^2).
    """
    if trials < 1:
        raise DimensionError("trials must be positive")
    if len(factors.users) != len(problem.users):
        raise DimensionError("one factor pair per user required")
    v = factors.v
    m_streams = v.shape[1]
    links, predicted = [], []
    for (h, (u, _r)) in zip(problem.users, factors.users):
        qfac = _augmented_qr(h, problem.cov)
        g = qfac.r
        q1 = qfac.q[:h.shape[0], :]
        if factors.n_ext > 1:
            q1 = matcore.time_extend(q1, factors.n_ext)
            g = matcore.time_extend(g, factors.n_ext)
        if u.shape[0] != g.shape[0] or v.shape[0] != g.shape[0]:
            raise DimensionError("factor height differs from extended n_t")
        front = u.conj().T @ q1.conj().T          # m x (n_r * n_ext)
        signal = front @ (q1 @ (g @ v))           # m x m effective matrix
        predicted.append(np.abs(np.diag(u.conj().T @ (g @ v))) ** 2 - 1.0)
        links.append((front, np.diag(signal)[:, None], np.tril(signal, -1)))
    block = max(1, _BLOCK_ENTRIES // max(m_streams, *(f.shape[1] for f, _, _ in links)))
    # per user and stream: sums of p_sig, p_sig^2, p_noise, p_noise^2
    sums = np.zeros((len(links), 4, m_streams))
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    for start in range(0, trials, block):
        count = min(block, trials - start)
        x_sym = _complex_normal(rng, (m_streams, count))
        for k, (front, diag, lower) in enumerate(links):
            resid = lower @ x_sym
            resid += front @ _complex_normal(rng, (front.shape[1], count))
            p_sig = np.abs(diag * x_sym) ** 2
            p_noise = np.abs(resid) ** 2
            sums[k] += (p_sig.sum(axis=1), (p_sig * p_sig).sum(axis=1),
                        p_noise.sum(axis=1), (p_noise * p_noise).sum(axis=1))
    reports = []
    for pred, (s_sig, s_sig2, s_noise, s_noise2) in zip(predicted, sums):
        ms, mn = s_sig / trials, s_noise / trials
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = ms / mn
            rel_var = ((s_sig2 / trials - ms * ms) / (ms * ms)
                       + (s_noise2 / trials - mn * mn) / (mn * mn)) / trials
        # a stream free of interference and noise has a denominator of pure
        # floating-point residue
        residue = mn <= 1e-20 * ms
        measured = np.where(residue, np.inf, ratio)
        stderr = np.where(residue, np.inf, ratio * np.sqrt(np.maximum(rel_var, 0.0)))
        reports.append(SicReport(measured_snr=measured, predicted_snr=pred,
                                 std_error=stderr))
    return reports


# --- worked channel families --------------------------------------------------


@contextmanager
def rate_in_range(rate):
    """A float overflow of 2^rate, or of a power of it, or a NumericalError
    of a construction at ``rate``, as NumericalError naming ``rate``: the
    condition numbers of the worked families grow with 2^rate."""
    try:
        yield
    except OverflowError as exc:
        raise NumericalError("rate %r is too large: 2^rate overflows a float" % rate) from exc
    except NumericalError as exc:
        raise NumericalError("rate %r is too large: %s" % (rate, exc)) from exc


def rateless_channels(k_rates, total_rate):
    """Channel family for incremental-redundancy coding: user k keeps the
    first k of K unit blocks with gain alpha_k = sqrt(2^(C/k) - 1), so
    every user's white-input mutual information equals C."""
    if k_rates < 1:
        raise DimensionError("k_rates must be >= 1")
    if not total_rate > 0:
        raise DimensionError("total rate must be positive")
    out = []
    for k in range(1, k_rates + 1):
        with rate_in_range(total_rate):
            alpha = np.sqrt(2.0 ** (total_rate / k) - 1.0)
        h = np.zeros((k, k_rates), dtype=np.complex128)
        h[:, :k] = alpha * np.eye(k)
        out.append(h)
    return out


def rateless3_reduce(total_rate):
    """Closed-form 2x2 residual pair of the three-rate problem after
    eliminating the common first precoder column; both outputs have unit
    determinant and the second is diag(b, 1/b) with b = 2^(C/12)."""
    if not total_rate > 0:
        raise DimensionError("total rate must be positive")
    with rate_in_range(total_rate):
        b = 2.0 ** (total_rate / 12.0)
        b2, b4, b6, b8 = b ** 2, b ** 4, b ** 6, b ** 8
    core = np.sqrt(1.0 - b2 + b8)
    a1 = np.array([
        [core / b2, (b6 - 1.0) / (b * np.sqrt((1.0 - b2 + b8) * (1.0 + b2 + b4)))],
        [0.0, b2 / core],
    ], dtype=np.complex128)
    a2 = np.diag([b, 1.0 / b]).astype(np.complex128)
    return a1, a2


def permuted_channels(gains):
    """All K! diagonal channels obtained by permuting the given gains."""
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise DimensionError("gains must be a nonempty vector")
    if np.any(g <= 0):
        raise DimensionError("gains must be positive")
    if g.size > 4:
        raise DimensionError("factorial enumeration capped at 4 gains")
    return [np.diag(np.asarray(p, dtype=np.complex128))
            for p in itertools.permutations(g)]


def dft_precoder(k):
    """The capacity-achieving precoder for permuted parallel channels:
    the scaled Hadamard matrix for two channels, the 3x3 DFT for three."""
    if k == 2:
        return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
    if k == 3:
        e = np.exp(2j * np.pi / 3.0)
        return np.array([
            [1.0, 1.0, 1.0],
            [1.0, e, 1.0 / e],
            [1.0, 1.0 / e, e],
        ]) / np.sqrt(3.0)
    raise DimensionError("closed-form precoder available for k in {2, 3} only")


@dataclass
class DofMismatchExample:
    """Degrees-of-freedom-mismatch worked example: the problem instance,
    the gains, the closed-form precoder, and (three-user variant) the
    mixed-orientation triangular targets."""
    problem: MulticastProblem
    gains: list
    precoder: np.ndarray
    t_matrices: list | None


def dof_mismatch_example(c_ptp, variant="two_user"):
    """Channel families in which users disagree on their antenna count but
    share the same white-input mutual information c_ptp (power fixed to 1,
    cov = I/2)."""
    if not c_ptp > 0:
        raise DimensionError("c_ptp must be positive")
    power = 1.0
    cov = np.eye(2, dtype=np.complex128) * (power / 2.0)
    with rate_in_range(c_ptp):
        alpha_full = np.sqrt(2.0 * (2.0 ** c_ptp - 1.0))    # one active antenna
        if np.isinf(alpha_full):     # a float product overflows without raising
            raise OverflowError
    alpha_wide = np.sqrt(2.0 * (2.0 ** (c_ptp / 2.0) - 1.0))  # both antennas
    root = 2.0 ** (c_ptp / 4.0)
    precoder = np.sqrt(1.0 / (2.0 ** (c_ptp / 2.0) + 1.0)) * np.array(
        [[1.0, root], [root, -1.0]], dtype=np.complex128)
    if variant == "two_user":
        users = [
            np.array([[alpha_full, 0.0]], dtype=np.complex128),
            alpha_wide * np.eye(2, dtype=np.complex128),
        ]
        problem = MulticastProblem(users=users, cov=cov, power=power)
        return DofMismatchExample(problem=problem, gains=[alpha_full, alpha_wide],
                                  precoder=precoder, t_matrices=None)
    if variant == "three_user":
        users = [
            alpha_wide * np.eye(2, dtype=np.complex128),
            np.array([[alpha_full, 0.0]], dtype=np.complex128),
            np.array([[0.0, alpha_full]], dtype=np.complex128),
        ]
        problem = MulticastProblem(users=users, cov=cov, power=power)
        off = (2.0 ** c_ptp - 1.0) / (2.0 ** (c_ptp / 2.0) + 1.0)
        t_matrices = [
            root * np.eye(2, dtype=np.complex128),
            np.array([[root, off], [0.0, root]], dtype=np.complex128),
            np.array([[root, 0.0], [-off, root]], dtype=np.complex128),
        ]
        return DofMismatchExample(problem=problem,
                                  gains=[alpha_wide, alpha_full, alpha_full],
                                  precoder=precoder, t_matrices=t_matrices)
    raise DimensionError("variant must be 'two_user' or 'three_user'")
