import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtri import gtd, matcore
from jtri.errors import (
    BlockConditionError,
    DimensionError,
    MajorizationError,
    NumericalError,
)
from util import (
    gtd_sweep_reference,
    joint_block_feasible,
    majorization_reference,
    rand_complex,
    rand_unit_det,
    rand_unitary,
    recon_error,
)


def feasible_target(rng, sigma, shuffle=True):
    """Random point of the majorization cone: geometric interpolation of
    log-sigma toward its mean."""
    logs = np.log(sigma)
    w = rng.random()
    t = np.exp((1.0 - w) * logs + w * np.mean(logs))
    if shuffle:
        rng.shuffle(t)
    return t


def test_gtd_svd_extremal_target_gives_diagonal_r():
    rng = np.random.default_rng(0)
    a = rand_complex(rng, 4)
    sig = matcore.svd(a).sigma
    fac = gtd.gtd(a, sig)
    assert np.max(np.abs(fac.r - np.diag(np.diag(fac.r)))) < 1e-9
    assert recon_error(fac.u, fac.r, fac.v, a) < 1e-10


def test_gtd_worked_2x2():
    a = np.diag([4.0, 1.0]).astype(complex)
    fac = gtd.gtd(a, [3.0, 4.0 / 3.0])
    assert np.allclose(fac.diag, [3.0, 4.0 / 3.0], atol=1e-10)
    assert recon_error(fac.u, fac.r, fac.v, a) < 1e-12
    with pytest.raises(MajorizationError) as err:
        gtd.gtd(a, [5.0, 4.0 / 5.0])
    assert err.value.failing_prefix == 1


def test_gtd_validation():
    with pytest.raises(NumericalError, match="singular to working precision"):
        gtd.gtd(np.zeros((2, 2)), [1.0, 1.0])
    with pytest.raises(DimensionError, match="target diagonal must be positive"):
        gtd.gtd(np.eye(2), [1.0, -1.0])


def test_gtd_random_unsorted_targets():
    rng = np.random.default_rng(1)
    for n in (2, 3, 5, 8):
        for _ in range(10):
            a = rand_complex(rng, n)
            t = feasible_target(rng, matcore.svd(a).sigma)
            fac = gtd.gtd(a, t)
            assert recon_error(fac.u, fac.r, fac.v, a) < 1e-9
            assert np.max(np.abs(fac.diag - t)) < 1e-8
            assert np.max(np.abs(np.tril(fac.r, -1))) < 1e-9


def test_gtd_feasibility_matches_majorizes():
    rng = np.random.default_rng(2)
    checked = 0
    for case in range(100):
        n = int(rng.integers(2, 7))
        a = rand_complex(rng, n)
        sig = matcore.svd(a).sigma
        if case % 2 == 0:
            t = feasible_target(rng, sig)
        else:
            t = np.exp(rng.standard_normal(n))
            t *= np.exp((np.sum(np.log(sig)) - np.sum(np.log(t))) / n)
        # skip the boundary band where either answer is defensible
        ls = np.cumsum(np.sort(np.log(sig))[::-1])
        lt = np.cumsum(np.sort(np.log(t))[::-1])
        margin = np.min(ls[:-1] - lt[:-1]) if n > 1 else np.inf
        if abs(margin) <= 1e-9:
            continue
        expected = matcore.majorizes(sig, t)
        try:
            fac = gtd.gtd(a, t)
            got = True
            assert np.max(np.abs(fac.diag - t)) < 1e-8
        except MajorizationError:
            got = False
        assert got == expected
        checked += 1
    assert checked >= 80


def test_gtd_repeated_sigma_and_near_duplicate_targets():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        base = np.exp(rng.standard_normal(max(1, n // 2)))
        sig = np.sort(np.resize(base, n))[::-1]
        u = matcore.qr(rand_complex(rng, n)).q
        v = matcore.qr(rand_complex(rng, n)).q
        a = u @ np.diag(sig) @ v.conj().T
        t = feasible_target(rng, sig, shuffle=False)
        t[1] = t[0] * (1.0 + 1e-13)
        rng.shuffle(t)
        fac = gtd.gtd(a, t)
        assert np.max(np.abs(fac.diag - t)) < 1e-8
        assert recon_error(fac.u, fac.r, fac.v, a) < 1e-9


def test_gtd_permuted_sigma_boundary_targets():
    # a permutation of the singular values is the extreme feasible target
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rand_complex(rng, n)
        t = matcore.svd(a).sigma.copy()
        rng.shuffle(t)
        fac = gtd.gtd(a, t)
        assert np.max(np.abs(fac.diag - t)) < 1e-8
        assert recon_error(fac.u, fac.r, fac.v, a) < 1e-9


def test_weyl_necessity_of_returned_factors():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rand_complex(rng, n)
        sig = matcore.svd(a).sigma
        fac = gtd.gtd(a, feasible_target(rng, sig))
        assert matcore.majorizes(sig, np.abs(fac.diag))


def test_gmd_unitary_input_gives_identity_triangle():
    rng = np.random.default_rng(4)
    u = rand_unitary(rng, 3)
    fac = gtd.gmd(u)
    assert np.max(np.abs(fac.r - np.eye(3))) < 1e-10


def test_gmd_det_one_diagonal():
    fac = gtd.gmd(np.diag([2.0, 0.5]).astype(complex))
    assert np.allclose(fac.diag, [1.0, 1.0], atol=1e-12)


def test_gmd_matches_explicit_gtd_target():
    rng = np.random.default_rng(5)
    u = rand_unitary(rng, 3)
    v = rand_unitary(rng, 3)
    a = u @ np.diag([3.0, 2.0, 1.0]) @ v.conj().T
    g = 6.0 ** (1.0 / 3.0)
    fac = gtd.gmd(a)
    ref = gtd.gtd(a, [g, g, g])
    assert np.max(np.abs(fac.diag - g)) < 1e-10
    assert np.max(np.abs(ref.diag - g)) < 1e-10
    assert recon_error(fac.u, fac.r, fac.v, a) < 1e-9


def test_gmd_diag_spread_and_product():
    rng = np.random.default_rng(6)
    for n in (2, 4, 7, 12):
        a = rand_complex(rng, n)
        fac = gtd.gmd(a)
        assert np.ptp(fac.diag) <= 1e-9
        sig = matcore.svd(a).sigma
        assert abs(np.prod(fac.diag) - np.prod(sig)) <= 1e-9 * np.prod(sig)


def test_multiplicity_conditions_gmd_case():
    rng = np.random.default_rng(7)
    sig = np.exp(rng.standard_normal(5))
    g = np.exp(np.mean(np.log(sig)))
    assert gtd.check_multiplicity_conditions(sig, [g], [5])


def test_multiplicity_conditions_hand_arithmetic():
    # prefix: 2^2 = 4 <= 4*1; total: 2^2 * 0.5^2 = 1 = 4*1*1*0.25
    assert gtd.check_multiplicity_conditions([4.0, 1.0, 1.0, 0.25], [2.0, 0.5], [2, 2])
    # prefix violated: 3^2 = 9 > 4*1
    vals = [3.0, 1.0 / 3.0]
    assert not gtd.check_multiplicity_conditions([4.0, 1.0, 1.0, 0.25], vals, [2, 2])


def test_multiplicity_conditions_validation():
    with pytest.raises(DimensionError, match="multiplicities sum to 1"):
        gtd.check_multiplicity_conditions([1.0, 1.0], [1.0], [1])
    with pytest.raises(DimensionError, match="strictly decreasing"):
        gtd.check_multiplicity_conditions([1.0, 1.0], [1.0, 2.0], [1, 1])


def test_multiplicity_conditions_equal_full_majorization():
    rng = np.random.default_rng(8)
    for _ in range(100):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
        vals = np.sort(np.exp(rng.standard_normal(m) * 1.5))[::-1]
        vals = np.unique(vals)[::-1]
        mults = np.ones(len(vals), dtype=int)
        for _ in range(n - len(vals)):
            mults[rng.integers(0, len(vals))] += 1
        sig = np.sort(np.exp(rng.standard_normal(n)))[::-1]
        if rng.random() < 0.5:
            sig *= np.exp((np.sum(mults * np.log(vals)) - np.sum(np.log(sig))) / n)
        full = np.repeat(vals, mults)
        assert (gtd.check_multiplicity_conditions(sig, vals, mults)
                == matcore.majorizes(sig, full))


def test_block_gtd_single_block():
    rng = np.random.default_rng(9)
    a = rand_complex(rng, 3)
    det = np.linalg.det(a)
    spec = gtd.BlockSpec(block_sizes=[3], block_dets=[det])
    fac = gtd.block_gtd(a, spec)
    assert fac.boundaries == [0]
    assert abs(abs(np.linalg.det(fac.r)) - abs(det)) < 1e-9 * abs(det)


def test_block_gtd_svd_boundary():
    rng = np.random.default_rng(10)
    a = rand_complex(rng, 2)
    sig = matcore.svd(a).sigma
    spec = gtd.BlockSpec(block_sizes=[1, 1], block_dets=[sig[0], sig[1]])
    fac = gtd.block_gtd(a, spec)
    assert np.allclose(np.abs(fac.diag), sig, atol=1e-9)


def test_block_gtd_worked_example():
    a = np.diag([4.0, 2.0, 1.0, 0.125]).astype(complex)
    det_a = abs(np.linalg.det(a))
    spec = gtd.BlockSpec(block_sizes=[2, 2], block_dets=[6.0, det_a / 6.0])
    # independent evaluation of the two prefix conditions
    sig = np.array([4.0, 2.0, 1.0, 0.125])
    d1 = np.sqrt(6.0)
    d2 = np.sqrt(det_a / 6.0)
    assert d1 >= d2
    assert 6.0 <= sig[0] * sig[1]
    fac = gtd.block_gtd(a, spec)
    b1 = fac.r[0:2, 0:2]
    b2 = fac.r[2:4, 2:4]
    assert abs(abs(np.linalg.det(b1)) - 6.0) < 1e-8 * 6.0
    assert abs(abs(np.linalg.det(b2)) - det_a / 6.0) < 1e-8
    assert np.max(np.abs(fac.r[2:4, 0:2])) < 1e-9
    # infeasible when the first block demands more than sigma allows
    bad = gtd.BlockSpec(block_sizes=[2, 2], block_dets=[9.0, det_a / 9.0])
    with pytest.raises(BlockConditionError) as err:
        gtd.block_gtd(a, bad)
    assert err.value.failing_q == 1


def test_block_gtd_randomized_boundary_agreement():
    rng = np.random.default_rng(11)
    agreements = 0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rand_unit_det(rng, n) * np.exp(rng.standard_normal() * 0.3)
        sig = matcore.svd(a).sigma
        m = int(rng.integers(1, min(n, 3) + 1))
        sizes = np.ones(m, dtype=int)
        for _ in range(n - m):
            sizes[rng.integers(0, m)] += 1
        # candidate dets: either from a feasible diagonal or random
        if rng.random() < 0.5:
            logs = np.log(sig)
            w = rng.random()
            t = np.exp((1.0 - w) * logs + w * np.mean(logs))
            rng.shuffle(t)
            pieces = np.split(t, np.cumsum(sizes)[:-1])
            dets = [np.prod(p) for p in pieces]
        else:
            dets = list(np.exp(rng.standard_normal(m)))
            dets[-1] = np.prod(sig) / np.prod(dets[:-1]) if m > 1 else np.prod(sig)
        d_roots = np.array([abs(dets[i]) ** (1.0 / sizes[i]) for i in range(m)])
        order = np.argsort(-d_roots)
        vals, mults = [], []
        for i in order:
            if vals and abs(np.log(d_roots[i] / vals[-1])) < 1e-12:
                mults[-1] += sizes[i]
            else:
                vals.append(d_roots[i])
                mults.append(int(sizes[i]))
        expected = gtd.check_multiplicity_conditions(sig, vals, mults)
        try:
            fac = gtd.block_gtd(a, gtd.BlockSpec(block_sizes=list(sizes),
                                                 block_dets=dets))
            got = True
            off = 0
            for i, s in enumerate(sizes):
                blk = fac.r[off:off + s, off:off + s]
                assert abs(abs(np.linalg.det(blk)) - abs(dets[i])) <= 1e-8 * abs(dets[i])
                if off > 0:
                    assert np.max(np.abs(fac.r[off:, :off])) < 1e-9
                off += s
        except BlockConditionError:
            got = False
        assert got == expected
        agreements += 1
    assert agreements == 100


# --- extreme scales, ill-conditioning, arbitrary target order ----------------

def _rel_recon(fac, a):
    scale = np.max(np.abs(a))
    return (np.linalg.norm((fac.u @ fac.r @ fac.v.conj().T - a) / scale)
            / np.linalg.norm(a / scale))


def _assert_factors(fac, a, target, tol=1e-12):
    assert all(np.all(np.isfinite(m)) for m in (fac.u, fac.r, fac.v))
    assert np.max(np.abs(fac.diag / target - 1.0)) <= tol
    assert _rel_recon(fac, a) <= tol
    assert np.max(np.abs(np.tril(fac.r, -1))) <= tol * np.max(np.abs(fac.r))


@pytest.mark.parametrize("scale", [1e155, 1e160, 1e-160, 1e-165, 1e-170])
def test_gmd_extreme_scales(scale):
    a = scale * rand_complex(np.random.default_rng(14), 4)
    fac = gtd.gmd(a)
    sig = matcore.svd(a).sigma
    _assert_factors(fac, a, np.exp(np.mean(np.log(sig))))


def _conditioned_input(rng, n, log_scale, log_cond):
    """scale * U diag(s) V^H with 1 = s_1 >= ... >= s_n = 1/cond."""
    s = np.sort(np.concatenate(([0.0, -log_cond], -log_cond * rng.random(n - 2))))[::-1]
    return 10.0 ** log_scale * (rand_unitary(rng, n) * 10.0 ** s) @ rand_unitary(rng, n).conj().T


def _scaled_target(sig, w):
    """Feasible target at weight w between sigma (w=0) and its geometric
    mean, taken relative to sigma[0] so exp never sees a log of size 300."""
    logs = np.log(sig / sig[0])
    return sig[0] * np.exp((1.0 - w) * logs + w * np.mean(logs))


_extremes = dict(n=st.integers(2, 12), log_scale=st.floats(-150.0, 150.0),
                 log_cond=st.floats(0.0, 11.0), seed=st.integers(0, 2 ** 32 - 1))
_settings = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_settings
@given(**_extremes)
def test_gmd_property_scale_and_conditioning(n, log_scale, log_cond, seed):
    a = _conditioned_input(np.random.default_rng(seed), n, log_scale, log_cond)
    sig = matcore.svd(a).sigma
    _assert_factors(gtd.gmd(a), a, _scaled_target(sig, 1.0))


@_settings
@given(w=st.floats(0.0, 1.0), **_extremes)
def test_gtd_property_scale_and_conditioning(n, log_scale, log_cond, seed, w):
    rng = np.random.default_rng(seed)
    a = _conditioned_input(rng, n, log_scale, log_cond)
    t = _scaled_target(matcore.svd(a).sigma, w)
    rng.shuffle(t)
    _assert_factors(gtd.gtd(a, t), a, t)


@_settings
@given(n=st.integers(3, 12), seed=st.integers(0, 2 ** 32 - 1), w=st.floats(0.0, 1.0),
       ties=st.integers(1, 4), near=st.sampled_from([0.0, 1e-15, 1e-13, 1e-9]))
def test_gtd_property_repeated_and_near_duplicate_targets(n, seed, w, ties, near):
    """Pairs of target entries are pulled to their geometric mean, then
    apart by a relative 'near' at most their old spread; both values stay
    between the old ones, which keeps the target feasible."""
    rng = np.random.default_rng(seed)
    a = rand_complex(rng, n)
    t = _scaled_target(matcore.svd(a).sigma, w)
    for _ in range(ties):
        i, j = rng.choice(n, size=2, replace=False)
        m = np.sqrt(t[i] * t[j])
        f = min(1.0 + near, np.sqrt(max(t[i], t[j]) / min(t[i], t[j])))
        t[i], t[j] = m * f, m / f
    rng.shuffle(t)
    _assert_factors(gtd.gtd(a, t), a, t)


def test_one_svd_per_decomposition(monkeypatch):
    calls = []
    svd = matcore.svd
    monkeypatch.setattr(matcore, "svd", lambda m: calls.append(1) or svd(m))
    rng = np.random.default_rng(15)
    a = rand_complex(rng, 16)
    sig = svd(a).sigma
    t = _scaled_target(sig, 0.5)
    rng.shuffle(t)
    spec = gtd.BlockSpec(block_sizes=[4, 8, 4],
                         block_dets=[np.prod(sig[:4]), np.prod(sig[4:12]), np.prod(sig[12:])])
    for run in (lambda: gtd.gmd(a), lambda: gtd.gtd(a, t), lambda: gtd.block_gtd(a, spec)):
        calls.clear()
        run()
        assert len(calls) == 1


# --- the majorization kernel against the plain-loop reference ----------------


def _group_case(rng, m, unit, kind):
    """sigma and shuffled (dets, sizes) groups: random roots, a feasible
    target grouped into runs of its sorted entries (w = 0 puts every
    condition on the boundary), the same with one group moved by up to
    three times TOL_MAJOR on the log scale, the constant GMD target, or
    two repeated roots.  Random and tied roots are scaled to the total of
    sigma half of the time, so every group position can fail first."""
    sizes = [1] * m if unit else [int(s) for s in rng.integers(1, 4, size=m)]
    n = sum(sizes)
    sigma = np.sort(np.exp(rng.normal(0.0, 1.5, n)))[::-1]
    sigma[:rng.integers(1, n + 1)] = sigma[0]  # a leading run of ties
    logs = np.log(sigma)
    if kind in ("feasible", "edge"):
        w = 0.0 if kind == "edge" else rng.choice([0.0, rng.random(), 1.0])
        t = (1.0 - w) * logs + w * np.mean(logs)
        ends = np.cumsum(sizes)
        log_dets = np.array([np.sum(t[e - s:e]) for s, e in zip(sizes, ends)])
        if kind == "edge":
            log_dets[rng.integers(m)] += rng.uniform(-3.0, 3.0) * matcore.TOL_MAJOR
    elif kind == "gmd":
        log_dets = np.mean(logs) * np.array(sizes)
    else:
        if kind == "ties":
            roots = rng.choice(rng.normal(0.0, 1.5, 2), size=m)
        else:
            roots = rng.normal(0.0, 1.5, m)
        log_dets = roots * np.array(sizes)
        if rng.random() < 0.5:
            log_dets += (np.sum(logs) - np.sum(log_dets)) * np.array(sizes) / n
    perm = rng.permutation(m)
    return sigma, np.exp(log_dets[perm]), [sizes[i] for i in perm]


@_settings
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6), unit=st.booleans(),
       kind=st.sampled_from(["random", "feasible", "edge", "gmd", "ties"]))
def test_first_failing_group_matches_reference(seed, m, unit, kind):
    sigma, dets, sizes = _group_case(np.random.default_rng(seed), m, unit, kind)
    want = majorization_reference(sigma, dets, sizes)
    assert matcore.first_failing_group(sigma, np.log(dets), sizes) == want
    a = np.diag(sigma).astype(complex)
    n = a.shape[0]
    assert joint_block_feasible(a, np.eye(n), sizes, dets) == (want is None)
    spec = gtd.BlockSpec(block_sizes=sizes, block_dets=list(dets))
    if want is None:
        gtd.block_gtd(a, spec)
    else:
        with pytest.raises(BlockConditionError) as err:
            gtd.block_gtd(a, spec)
        assert err.value.failing_q == want
    if unit:
        assert matcore.first_failing_group(sigma, np.log(dets)) == want
        assert matcore.majorizes(sigma, dets) == (want is None)
        if want is None:
            gtd.gtd(a, dets)
        else:
            with pytest.raises(MajorizationError) as err:
                gtd.gtd(a, dets)
            assert err.value.failing_prefix == want


# --- the planned sweep against the step-by-step reference --------------------


def _sweep_input(rng, n, shape):
    """An n x n input: complex Gaussian, repeated singular values, the
    identity, a scaled unitary, or condition number 1e10."""
    if shape == "repeated":
        sig = np.sort(np.resize(np.exp(rng.standard_normal(max(1, n // 3))), n))[::-1]
        return (rand_unitary(rng, n) * sig) @ rand_unitary(rng, n).conj().T
    if shape == "identity":
        return np.eye(n, dtype=complex)
    if shape == "unitary":
        return np.exp(rng.uniform(-5.0, 5.0)) * rand_unitary(rng, n)
    if shape == "illcond" and n > 1:
        return _conditioned_input(rng, n, 0.0, 10.0)
    return rand_complex(rng, n)


def _sweep_target(rng, sig, kind, w):
    """What gmd, gtd (shuffled) or block_gtd hands to the sweep."""
    if kind == "gmd":
        return np.full(sig.size, _scaled_target(sig, 1.0)[0])
    t = _scaled_target(sig, w)
    rng.shuffle(t)
    if kind == "block":
        # geometric means over runs of a feasible target stay feasible
        cuts = np.sort(rng.choice(np.arange(1, sig.size), size=min(3, sig.size - 1),
                                  replace=False)) if sig.size > 1 else []
        t = np.concatenate([np.full(len(p), np.exp(np.mean(np.log(p))))
                            for p in np.split(t, cuts)])
    return t


def _assert_matches_reference(fac, t):
    new = gtd._gtd_sweep(fac, t)
    ref = gtd_sweep_reference(fac, t)
    for name in ("u", "r", "v"):
        x, y = getattr(new, name), getattr(ref, name)
        assert np.max(np.abs(x - y)) <= 1e-13 * np.max(np.abs(y)), name
    assert not np.any(np.tril(new.r, -1))
    assert np.array_equal(new.diag, np.real(np.diag(new.r)))
    assert np.array_equal(new.diag, ref.diag)
    assert np.max(np.abs(new.diag / t - 1.0)) <= 1e-12


@_settings
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1), w=st.floats(0.0, 1.0),
       kind=st.sampled_from(["gmd", "gtd", "block"]),
       shape=st.sampled_from(["random", "repeated", "identity", "unitary", "illcond"]))
def test_sweep_matches_reference(n, seed, w, kind, shape):
    rng = np.random.default_rng(seed)
    fac = matcore.svd(_sweep_input(rng, n, shape))
    _assert_matches_reference(fac, _sweep_target(rng, fac.sigma, kind, w))


@pytest.mark.parametrize("kind", ["gmd", "gtd", "block"])
def test_sweep_matches_reference_n256(kind):
    rng = np.random.default_rng(16)
    fac = matcore.svd(rand_complex(rng, 256))
    _assert_matches_reference(fac, _sweep_target(rng, fac.sigma, kind, 0.5))


def test_sweep_leaves_the_svd_unchanged():
    rng = np.random.default_rng(17)
    fac = matcore.svd(rand_complex(rng, 32))
    before = [m.copy() for m in (fac.u, fac.v, fac.sigma)]
    gtd._gtd_sweep(fac, _scaled_target(fac.sigma, 0.5))
    for m, old in zip((fac.u, fac.v, fac.sigma), before):
        assert m.tobytes() == old.tobytes()
