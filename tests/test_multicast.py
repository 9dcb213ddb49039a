import itertools
import tracemalloc

import numpy as np
import pytest

from jtri import gtd, joint, matcore, multicast, spacetime
from jtri.errors import DimensionError, NumericalError
from util import rand_complex, rand_unitary, sic_sinr


def white_problem(users, power=None):
    n_t = users[0].shape[1]
    power = float(n_t) if power is None else power
    cov = np.eye(n_t, dtype=complex) * (power / n_t)
    return multicast.MulticastProblem(users=users, cov=cov, power=power)


def test_mutual_info_zero_channel():
    assert multicast.mutual_info(np.zeros((2, 3)), np.eye(3)) == 0.0


def test_mutual_info_rejects_non_psd():
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        multicast.mutual_info(np.eye(2), np.diag([1.0, -0.5]))
    with pytest.raises(NumericalError, match="not Hermitian"):
        multicast.mutual_info(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_psd_check_boundary():
    # TOL_ZERO * (max|C| + 1) = 2e-9 here: -1e-7 is out, -1e-11 is roundoff
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        multicast.mutual_info(np.eye(2), np.diag([1.0, -1e-7]))
    assert abs(multicast.mutual_info(np.eye(2), np.diag([1.0, -1e-11])) - 1.0) < 1e-10


def test_mutual_info_dof_mismatch_matched_gains():
    # gains solving log(1 + a1^2 P) = 2 log(1 + a2^2 P / 2) give equal
    # mutual information when user 1 beams all power on its antenna and
    # user 2 splits it white
    c, p = 5.0, 2.5
    a1 = np.sqrt((2.0 ** c - 1.0) / p)
    a2 = np.sqrt(2.0 * (2.0 ** (c / 2.0) - 1.0) / p)
    h1 = np.array([[a1, 0.0]], dtype=complex)
    h2 = np.diag([a2, a2]).astype(complex)
    i1 = multicast.mutual_info(h1, np.diag([p, 0.0]))
    i2 = multicast.mutual_info(h2, np.eye(2) * (p / 2.0))
    assert abs(i1 - c) < 1e-9
    assert abs(i1 - i2) < 1e-9


def test_mutual_info_rateless_users():
    c = 6.0
    channels = multicast.rateless_channels(3, c)
    for k, h in enumerate(channels, start=1):
        got = multicast.mutual_info(h, np.eye(3))
        alpha_sq = 2.0 ** (c / k) - 1.0
        assert abs(got - k * np.log2(1.0 + alpha_sq)) < 1e-9
        assert abs(got - c) < 1e-9


def test_multicast_rate_single_user_and_permutations():
    rng = np.random.default_rng(0)
    h = rand_complex(rng, 2, 3)
    prob = white_problem([h])
    assert multicast.multicast_rate(prob) == multicast.mutual_info(h, prob.cov)
    gains = [0.7, 1.9, 3.1]
    perms = multicast.permuted_channels(gains)
    prob = white_problem(perms)
    rates = [multicast.mutual_info(hh, prob.cov) for hh in perms]
    expect = sum(np.log2(1.0 + g * g) for g in gains)
    assert np.ptp(rates) < 1e-12
    assert abs(multicast.multicast_rate(prob) - expect) < 1e-9


def test_canonical_matrix_zero_channel_is_identity():
    g = multicast.canonical_matrix(np.zeros((2, 2)), np.eye(2))
    assert np.allclose(g, np.eye(2))


def test_canonical_matrix_rateless3():
    c = 6.0
    channels = multicast.rateless_channels(3, c)
    cov = np.eye(3, dtype=complex)
    g1 = multicast.canonical_matrix(channels[0], cov)
    g2 = multicast.canonical_matrix(channels[1], cov)
    g3 = multicast.canonical_matrix(channels[2], cov)
    assert np.allclose(g1, np.diag([2.0 ** (c / 2.0), 1.0, 1.0]), atol=1e-9)
    assert np.allclose(g2, np.diag([2.0 ** (c / 4.0), 2.0 ** (c / 4.0), 1.0]), atol=1e-9)
    assert np.allclose(g3, 2.0 ** (c / 6.0) * np.eye(3), atol=1e-9)


def test_canonical_matrix_log_det_identity():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n_r = int(rng.integers(1, 4))
        n_t = int(rng.integers(1, 4))
        h = rand_complex(rng, n_r, n_t)
        b = rand_complex(rng, n_t)
        cov = b @ b.conj().T / n_t
        g = multicast.canonical_matrix(h, cov)
        lhs = 2.0 * np.sum(np.log2(np.real(np.diag(g))))
        assert abs(lhs - multicast.mutual_info(h, cov)) < 1e-8


def test_cov_sqrt_psd_handling():
    c = np.diag([4.0, 0.0]).astype(complex)
    b = multicast.cov_sqrt(c)
    assert np.allclose(b @ b.conj().T, c)
    with pytest.raises(NumericalError, match="negative eigenvalue"):
        multicast.cov_sqrt(np.diag([1.0, -1.0]))


def test_scheme_rates():
    z = multicast.scheme_rates([1.0, 1.0])
    assert z.total_rate == 0.0
    r = multicast.scheme_rates([2.0, 2.0], n_ext=1)
    assert np.allclose(r.per_stream_snr, [3.0, 3.0])
    assert abs(r.total_rate - 4.0) < 1e-12
    r = multicast.scheme_rates([2.0, 2.0], n_ext=2)
    assert abs(r.total_rate - 2.0) < 1e-12
    with pytest.raises(DimensionError, match="must be >= 1"):
        multicast.scheme_rates([0.5, 2.0])


def test_scheme_rates_diagonal_check_boundary():
    # entries may fall short of 1 by TOL_ZERO = 1e-9 and count as 1
    with pytest.raises(DimensionError, match="must be >= 1"):
        multicast.scheme_rates([1.5, 1.0 - 1e-7])
    r = multicast.scheme_rates([1.5, 1.0 - 1e-11])
    assert r.per_stream_snr.tolist() == [1.25, 0.0]


def test_scheme_rate_accounting_equals_worst_user_rate():
    # equalized determinants: the scheme rate equals the common mutual
    # information
    c = 5.0
    channels = multicast.rateless_channels(2, c)
    prob = white_problem(channels)
    gs = [multicast.canonical_matrix(h, prob.cov) for h in channels]
    jf = joint.jet2(gs[0], gs[1])
    rates = multicast.scheme_rates(jf.diag)
    assert abs(rates.total_rate - multicast.multicast_rate(prob)) < 1e-6


def test_simulate_sic_ucd_equal_and_consistent():
    rng = np.random.default_rng(2)
    h = rand_complex(rng, 3, 3)
    prob = white_problem([h], power=3.0)
    g = multicast.canonical_matrix(h, prob.cov)
    fac = gtd.gmd(g)
    jf = joint.JointFactors(v=fac.v, users=[(fac.u, fac.r)], diag=fac.diag)
    report = multicast.simulate_sic(prob, jf, trials=50000, seed=3)[0]
    for j in range(3):
        assert (abs(report.measured_snr[j] - report.predicted_snr[j])
                <= 3.0 * report.std_error[j])
    # equal-rate property: streams agree within joint statistical error
    for i, j in itertools.combinations(range(3), 2):
        band = 3.0 * np.hypot(report.std_error[i], report.std_error[j])
        assert abs(report.measured_snr[i] - report.measured_snr[j]) <= band


def test_simulate_sic_svd_factors_closed_form():
    rng = np.random.default_rng(4)
    h = rand_complex(rng, 3, 3)
    prob = white_problem([h], power=3.0)
    g = multicast.canonical_matrix(h, prob.cov)
    fac = matcore.svd(g)
    jf = joint.JointFactors(v=fac.v,
                            users=[(fac.u, np.diag(fac.sigma).astype(complex))],
                            diag=fac.sigma.copy())
    report = multicast.simulate_sic(prob, jf, trials=50000, seed=5)[0]
    assert np.allclose(report.predicted_snr, fac.sigma ** 2 - 1.0, atol=1e-9)
    for j in range(3):
        assert (abs(report.measured_snr[j] - report.predicted_snr[j])
                <= 3.0 * report.std_error[j])


def test_simulate_sic_deterministic():
    rng = np.random.default_rng(8)
    h = rand_complex(rng, 2, 2)
    prob = white_problem([h], power=2.0)
    g = multicast.canonical_matrix(h, prob.cov)
    fac = gtd.gmd(g)
    jf = joint.JointFactors(v=fac.v, users=[(fac.u, fac.r)], diag=fac.diag)
    r1 = multicast.simulate_sic(prob, jf, trials=4000, seed=9)[0]
    r2 = multicast.simulate_sic(prob, jf, trials=4000, seed=9)[0]
    assert np.array_equal(r1.measured_snr, r2.measured_snr)


@pytest.mark.parametrize("shape", [(4, 1000), (1, 7), (3, 1)])
def test_complex_normal_matches_the_expression_bit_for_bit(shape):
    want_rng = np.random.Generator(np.random.Philox(key=13))
    want = (want_rng.standard_normal(shape)
            + 1j * want_rng.standard_normal(shape)) / np.sqrt(2.0)
    rng = np.random.Generator(np.random.Philox(key=13))
    got = multicast._complex_normal(rng, shape)
    assert got.dtype == np.complex128 and got.shape == shape
    assert got.tobytes() == want.tobytes()
    # both consumed the same draws
    assert rng.standard_normal() == want_rng.standard_normal()


@pytest.mark.parametrize("n_ext", [4, 8])
def test_simulate_sic_time_extension_factors(n_ext):
    # three equal-rate users: rotations of one pair of singular values
    rng = np.random.default_rng(0)
    users = [rand_unitary(rng, 2) @ np.diag([3.0, 1.5]) @ rand_unitary(rng, 2).conj().T
             for _ in range(3)]
    prob = white_problem(users, power=2.0)
    gs = [multicast.canonical_matrix(h, prob.cov) for h in users]
    fac = spacetime.nearly_kjet(gs, n_ext)
    reports = multicast.simulate_sic(prob, fac, trials=20000, seed=11)
    assert len(reports) == 3
    for r in reports:
        assert len(r.predicted_snr) == fac.kept_dim
        assert np.allclose(r.predicted_snr, fac.diag ** 2 - 1.0, atol=1e-9)
        # the first n streams border the discarded coordinates and may deviate
        gap = np.abs(r.measured_snr - r.predicted_snr)[fac.n:]
        assert np.all(gap <= 4.0 * r.std_error[fac.n:])
    with pytest.raises(DimensionError, match="one factor pair per user"):
        multicast.simulate_sic(white_problem(users[:2], power=2.0), fac, trials=10, seed=0)


def _sinr_cases():
    """(problem, factors) pairs: gmd of one 4x4 user, jet2 of two 2x2
    users, and nearly_kjet of three 2x2 users at N = 4 and 8; the users
    of a family share their singular values, hence their rate."""
    rng = np.random.default_rng(3)
    h = rand_complex(rng, 4, 4)
    prob = white_problem([h], power=4.0)
    fac = gtd.gmd(multicast.canonical_matrix(h, prob.cov))
    yield prob, joint.JointFactors(v=fac.v, users=[(fac.u, fac.r)], diag=fac.diag)
    users = [rand_unitary(rng, 2) @ np.diag([2.5, 1.2]) @ rand_unitary(rng, 2).conj().T
             for _ in range(2)]
    prob = white_problem(users, power=2.0)
    yield prob, joint.jet2(*[multicast.canonical_matrix(h, prob.cov) for h in users])
    users = [rand_unitary(rng, 2) @ np.diag([3.0, 1.5]) @ rand_unitary(rng, 2).conj().T
             for _ in range(3)]
    prob = white_problem(users, power=2.0)
    gs = [multicast.canonical_matrix(h, prob.cov) for h in users]
    for n_ext in (4, 8):
        yield prob, spacetime.nearly_kjet(gs, n_ext)


@pytest.mark.parametrize("block_entries", [None, 64])
def test_simulate_sic_matches_the_closed_form_sinr(block_entries, monkeypatch):
    # every stream of every user, edge streams of the time extension
    # included; 64 entries per block runs many blocks and a ragged last one
    if block_entries is not None:
        monkeypatch.setattr(multicast, "_BLOCK_ENTRIES", block_entries)
    for prob, fac in _sinr_cases():
        reports = multicast.simulate_sic(prob, fac, trials=10001, seed=5)
        for r, exact in zip(reports, sic_sinr(prob, fac), strict=True):
            assert np.all(np.abs(r.measured_snr - exact) <= 4.0 * r.std_error)


def test_simulate_sic_memory_does_not_grow_with_trials():
    rng = np.random.default_rng(10)
    h = rand_complex(rng, 4, 4)
    prob = white_problem([h], power=4.0)
    fac = gtd.gmd(multicast.canonical_matrix(h, prob.cov))
    jf = joint.JointFactors(v=fac.v, users=[(fac.u, fac.r)], diag=fac.diag)
    peaks = []
    for trials in (200000, 800000):
        tracemalloc.start()
        try:
            multicast.simulate_sic(prob, jf, trials=trials, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_rateless_channels_shapes_and_gains():
    hs = multicast.rateless_channels(1, 3.0)
    assert hs[0].shape == (1, 1)
    assert abs(hs[0][0, 0] - np.sqrt(2.0 ** 3 - 1.0)) < 1e-12
    hs = multicast.rateless_channels(2, 4.0)
    assert abs(hs[0][0, 0] - np.sqrt(15.0)) < 1e-12
    assert abs(hs[1][0, 0] - np.sqrt(3.0)) < 1e-12
    assert np.max(np.abs(hs[0][:, 1:])) == 0.0


def test_rateless3_reduce_unit_determinants():
    for c in (1.0, 8.331, 12.0):
        a1, a2 = multicast.rateless3_reduce(c)
        assert abs(np.linalg.det(a1) - 1.0) < 1e-10
        assert abs(np.linalg.det(a2) - 1.0) < 1e-10
        b = 2.0 ** (c / 12.0)
        assert np.allclose(a2, np.diag([b, 1.0 / b]), atol=1e-12)


def test_rateless3_reduce_sign_change_at_critical_rate():
    critical = 6.0 * np.log2((3.0 + np.sqrt(5.0)) / 2.0)
    lo, hi = critical - 0.05, critical + 0.05

    def f1_at(c):
        a1, a2 = multicast.rateless3_reduce(c)
        s1 = a1.conj().T @ a1 - np.eye(2)
        s2 = a2.conj().T @ a2 - np.eye(2)
        return joint.f1(s1, s2)

    assert f1_at(lo) > 0.0
    assert f1_at(hi) < 0.0


def test_rateless3_reduction_path_matches_closed_form():
    # independent route: build the shared first precoder column from the
    # norm conditions, complete it with the orthogonal pair, QR both
    # products, and read off the trailing 2x2 blocks
    c = 5.0
    b = 2.0 ** (c / 12.0)
    a1_full = np.diag([b ** 4, b ** -2, b ** -2]).astype(complex)
    a2_full = np.diag([b, b, b ** -2]).astype(complex)
    d = b ** 8 + b ** 4 + 1.0
    col1 = np.array([1.0, b ** 3, 0.0]) / np.sqrt(d)
    col1[2] = b ** 2 / np.sqrt(b ** 4 + b ** 2 + 1.0)
    assert abs(np.linalg.norm(col1) - 1.0) < 1e-12
    assert abs(np.linalg.norm(a1_full @ col1) - 1.0) < 1e-12
    assert abs(np.linalg.norm(a2_full @ col1) - 1.0) < 1e-12
    col2 = np.array([b ** 3, -1.0, 0.0]) / np.sqrt(b ** 6 + 1.0)
    col3 = np.array([
        b ** 2 / np.sqrt((b ** 2 + 1.0) * d),
        b ** 5 / np.sqrt((b ** 2 + 1.0) * d),
        -np.sqrt(1.0 + b ** 6) / np.sqrt(d),
    ])
    v0 = np.column_stack([col1, col2, col3]).astype(complex)
    assert np.max(np.abs(v0.conj().T @ v0 - np.eye(3))) < 1e-12
    r1 = matcore.qr(a1_full @ v0).r
    r2 = matcore.qr(a2_full @ v0).r
    t1, t2 = multicast.rateless3_reduce(c)
    assert abs(r1[0, 0] - 1.0) < 1e-12 and abs(r2[0, 0] - 1.0) < 1e-12
    assert np.max(np.abs(r1[1:, 1:] - t1)) < 1e-9
    assert np.max(np.abs(r2[1:, 1:] - t2)) < 1e-9


def test_permuted_channels_enumeration():
    mats = multicast.permuted_channels([1.0, 2.0])
    assert len(mats) == 2
    assert np.allclose(mats[0], np.diag([1.0, 2.0]))
    assert np.allclose(mats[1], np.diag([2.0, 1.0]))
    assert len(multicast.permuted_channels([1.0, 2.0, 3.0])) == 6
    with pytest.raises(DimensionError, match="capped at 4 gains"):
        multicast.permuted_channels([1.0] * 5)
    with pytest.raises(DimensionError, match="gains must be positive"):
        multicast.permuted_channels([1.0, -2.0])


def test_dft_precoder_forms():
    v2 = multicast.dft_precoder(2)
    assert np.allclose(v2, np.array([[1, 1], [1, -1]]) / np.sqrt(2.0))
    v3 = multicast.dft_precoder(3)
    e = np.exp(2j * np.pi / 3.0)
    expect = np.array([[1, 1, 1], [1, e, e ** -1], [1, e ** -1, e]]) / np.sqrt(3.0)
    assert np.max(np.abs(v3 - expect)) < 1e-12
    assert np.max(np.abs(v3.conj().T @ v3 - np.eye(3))) < 1e-12
    with pytest.raises(DimensionError, match="k in [{]2, 3[}] only"):
        multicast.dft_precoder(4)


@pytest.mark.parametrize("k", [2, 3])
def test_dft_precoder_equalizes_permuted_diagonals(k):
    # with the DFT precoder, QR of every permuted canonical matrix yields
    # the same diagonal, which is what makes one codebook set serve all
    # permutations
    gains = [0.8, 1.7, 2.6][:k]
    perms = multicast.permuted_channels(gains)
    cov = np.eye(k, dtype=complex)
    v = multicast.dft_precoder(k)
    diags = []
    for h in perms:
        g = multicast.canonical_matrix(h, cov)
        r = matcore.qr(g @ v).r
        diags.append(np.real(np.diag(r)))
    for d in diags[1:]:
        assert np.max(np.abs(d - diags[0])) < 1e-9


def test_dof_mismatch_two_user():
    c = 4.0
    ex = multicast.dof_mismatch_example(c, "two_user")
    rates = [multicast.mutual_info(h, ex.problem.cov) for h in ex.problem.users]
    assert abs(rates[0] - rates[1]) < 1e-9
    assert abs(rates[0] - c) < 1e-9
    gs = [multicast.canonical_matrix(h, ex.problem.cov) for h in ex.problem.users]
    # same canonical pair as the two-rate rateless family
    assert np.allclose(gs[0], np.diag([2.0 ** (c / 2.0), 1.0]), atol=1e-9)
    assert np.allclose(gs[1], 2.0 ** (c / 4.0) * np.eye(2), atol=1e-9)
    assert ex.t_matrices is None


def test_dof_mismatch_three_user():
    c = 4.0
    ex = multicast.dof_mismatch_example(c, "three_user")
    rates = [multicast.mutual_info(h, ex.problem.cov) for h in ex.problem.users]
    assert np.ptp(rates) < 1e-9
    t2 = ex.t_matrices[1]
    assert abs(t2[0, 1].real - 3.0) < 1e-12   # (2^4 - 1) / (2^2 + 1)
    # the stated factors are realized by the mixed-orientation construction
    gs = [multicast.canonical_matrix(h, ex.problem.cov) for h in ex.problem.users]
    scale = 2.0 ** (c / 4.0)
    v, u1, r1, u2, r2 = joint.construct_upper_lower(gs[1] / scale, gs[2] / scale)
    assert np.max(np.abs(np.abs(scale * r1) - np.abs(ex.t_matrices[1]))) < 1e-9
    assert np.max(np.abs(np.abs(scale * r2) - np.abs(ex.t_matrices[2]))) < 1e-9
    ratios = v / ex.precoder
    assert np.max(np.abs(np.abs(ratios) - 1.0)) < 1e-9
    assert np.max(np.abs(ratios[0, :] - ratios[1, :])) < 1e-9


def test_problem_validation():
    with pytest.raises(DimensionError, match="exceeds the power budget"):
        multicast.MulticastProblem(users=[np.eye(2)], cov=np.eye(2), power=0.5)
    with pytest.raises(DimensionError, match="user channel has 3 columns"):
        multicast.MulticastProblem(users=[np.eye(3)], cov=np.eye(2), power=5.0)
