import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtri import gtd, joint, matcore, multicast, spacetime
from jtri.errors import DimensionError, InfeasibleError, NotConstructibleError, NumericalError
from util import (
    gmd2_residual,
    joint_block_feasible,
    rand_complex,
    rand_unit_det,
    rand_unitary,
    recon_error,
    upper_lower_residual,
)


def rand_hermitian(rng, n=2):
    s = rand_complex(rng, n)
    return s + s.conj().T


def sample_pair(rng, feasible):
    """Rejection-sample a unit-det 2x2 pair on the requested side of the
    existence boundary."""
    while True:
        a1 = rand_unit_det(rng, 2)
        a2 = rand_unit_det(rng, 2)
        if joint.exists_2gmd(a1, a2) == feasible:
            return a1, a2


def test_normalize_equal_det():
    rng = np.random.default_rng(0)
    a = np.diag([2.0, 2.0]).astype(complex)
    scaled, factors = joint.normalize_equal_det([a])
    assert np.allclose(scaled[0], np.eye(2))
    assert factors == [2.0]
    mats = [rand_complex(rng, 3) for _ in range(2)]
    scaled, factors = joint.normalize_equal_det(mats)
    for s, f, m in zip(scaled, factors, mats):
        assert abs(abs(np.linalg.det(s)) - 1.0) < 1e-12
        assert np.allclose(f * s, m)
    unit = rand_unit_det(rng, 3)
    scaled, factors = joint.normalize_equal_det([unit])
    assert abs(factors[0] - 1.0) < 1e-12


def test_jet2_identical_matrices():
    rng = np.random.default_rng(1)
    a = rand_unit_det(rng, 3)
    jf = joint.jet2(a, a)
    (u1, r1), (u2, r2) = jf.users
    assert np.max(np.abs(r1 - r2)) < 1e-9
    assert recon_error(u1, r1, jf.v, a) < 1e-9


def test_jet2_rateless_closed_form_precoder():
    c = 4.0
    g1 = np.diag([2.0 ** (c / 2), 1.0]).astype(complex)
    g2 = np.diag([2.0 ** (c / 4), 2.0 ** (c / 4)]).astype(complex)
    jf = joint.jet2(g1, g2)
    expect = np.sqrt(1.0 / (2.0 ** (c / 2) + 1.0)) * np.array(
        [[1.0, 2.0 ** (c / 4)], [2.0 ** (c / 4), -1.0]])
    ratios = jf.v / expect
    assert np.max(np.abs(np.abs(ratios) - 1.0)) < 1e-9       # unit phases
    assert np.max(np.abs(ratios[0, :] - ratios[1, :])) < 1e-9  # per column
    for (u, r), g in zip(jf.users, (g1, g2)):
        assert recon_error(u, r, jf.v, g) < 1e-9


def test_jet2_diag_equality_200_random_pairs():
    rng = np.random.default_rng(2)
    worst = 0.0
    for n in (2, 3, 4, 6):
        for _ in range(50):
            a1 = rand_unit_det(rng, n)
            a2 = rand_unit_det(rng, n)
            jf = joint.jet2(a1, a2)
            d1 = np.real(np.diag(jf.users[0][1]))
            d2 = np.real(np.diag(jf.users[1][1]))
            worst = max(worst, float(np.max(np.abs(d1 - d2))))
            for (u, r), a in zip(jf.users, (a1, a2)):
                assert recon_error(u, r, jf.v, a) < 1e-9
                assert np.max(np.abs(np.tril(r, -1))) < 1e-9
    assert worst <= 1e-9


def test_jet2_det_precondition():
    with pytest.raises(DimensionError, match="equal [|]det[|]"):
        joint.jet2(np.diag([2.0, 2.0]), np.eye(2))


# --- the |det| precondition at large n ----------------------------------------
# A random complex 400x400 matrix has |det| far above the float range, so
# a check that forms det itself overflows.


def test_normalize_equal_det_large_n():
    rng = np.random.default_rng(40)
    a = rand_complex(rng, 400)
    scaled, factors = joint.normalize_equal_det([a])
    assert np.isfinite(factors[0]) and factors[0] > 0
    assert abs(np.exp(np.linalg.slogdet(scaled[0])[1]) - 1.0) < 1e-9
    assert np.allclose(factors[0] * scaled[0], a)


def test_jet2_large_n_names_equal_det():
    rng = np.random.default_rng(41)
    a = rand_complex(rng, 400)
    b = rand_complex(rng, 400)
    b *= np.exp((np.linalg.slogdet(a)[1] - np.linalg.slogdet(b)[1]) / 400)
    with pytest.raises(DimensionError, match="equal [|]det[|]"):
        joint.jet2(a, 3 * b)


def test_kgmd_exact_rejects_near_unit_det_in_one_check(monkeypatch):
    # |det| = 1 + 5e-7 is well inside the old absolute 1e-6 slack, but its
    # log (5e-7) exceeds the 2x2 bound 21 * TOL_MAJOR
    calls = []
    check = joint._check_absdet
    monkeypatch.setattr(joint, "_check_absdet",
                        lambda mats, unit=False: calls.append(unit) or check(mats, unit))
    c = np.sqrt(1.0 + 5e-7)
    a1 = c * np.array([[2, 1], [1, 1]], dtype=complex)
    a2 = c * np.array([[1, 1j], [0, 1]], dtype=complex)
    with pytest.raises(DimensionError, match="unit [|]det[|]"):
        joint.kgmd_exact([a1, a2])
    assert calls == [True]
    calls.clear()
    joint.kgmd_exact([a1 / c, a2 / c])
    assert calls == [True]


def test_singular_matrix_fails_the_det_check():
    with pytest.raises(DimensionError, match="unit [|]det[|]"):
        joint.kgmd_exact([np.zeros((3, 3))])
    with pytest.raises(DimensionError, match="equal [|]det[|]"):
        joint.jet2(np.zeros((2, 2)), np.zeros((2, 2)))
    # only the last matrix is singular
    with pytest.raises(DimensionError, match="equal [|]det[|]"):
        joint.kgmd_to_kjet([np.eye(3), np.diag([1.0, 1.0, 0.0])])


def test_empty_matrices_are_dimension_errors():
    e = np.zeros((0, 0))
    calls = [lambda: gtd.gmd(e), lambda: gtd.gtd(e, []),
             lambda: gtd.block_gtd(e, gtd.BlockSpec(block_sizes=[], block_dets=[])),
             lambda: joint.kgmd_exact([e, e]), lambda: joint.jet2(e, e),
             lambda: spacetime.nearly_kgmd([e, e], 2)]
    for call in calls:
        with pytest.raises(DimensionError, match="nonempty"):
            call()


def test_kgmd_exact_near_identical_matrices_are_not_identical():
    # 1e-8 of max|A| lies between the identical-matrix bound (1e-9) and 100x it
    for eps in (3.5e-6, 1e-8):
        rng = np.random.default_rng(42)
        a = rand_unit_det(rng, 3)
        b = a * (1.0 + eps * np.sign(rng.standard_normal((3, 3))))
        b /= abs(np.linalg.det(b)) ** (1.0 / 3.0)
        with pytest.raises(NotConstructibleError):
            joint.kgmd_exact([a, b])
    jf = joint.kgmd_exact([a, a.copy()])
    assert recon_error(*jf.users[1], jf.v, a) < 1e-9


def test_infeasible_2x2_errors_name_the_condition_value():
    with pytest.raises(NotConstructibleError, match="F1 = -[0-9.e+-]+ < 0"):
        joint.kgmd_exact([np.diag([8.0, 0.125]), np.diag([0.125, 8.0])])
    rng = np.random.default_rng(43)
    while True:
        a1 = rand_unit_det(rng, 2)
        a2 = rand_unit_det(rng, 2)
        if not joint.exists_upper_lower(a1, a2):
            break
    with pytest.raises(InfeasibleError, match="F2 = -[0-9.e+-]+ < 0"):
        joint.construct_upper_lower(a1, a2)


def test_f1_zero_first_argument():
    rng = np.random.default_rng(3)
    s2 = rand_hermitian(rng)
    assert joint.f1(np.zeros((2, 2)), s2) == 0.0


def test_f1_diagonal_closed_form():
    a1, c1, a2, c2 = 1.7, -0.4, 0.9, -2.3
    val = joint.f1(np.diag([a1, c1]), np.diag([a2, c2]))
    assert abs(val - (-((a2 * c1 - a1 * c2) ** 2))) < 1e-12


def test_f1_requires_hermitian():
    with pytest.raises(NumericalError, match="not Hermitian"):
        joint.f1(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))


def test_f1_unitary_invariance():
    rng = np.random.default_rng(4)
    for _ in range(200):
        s1 = rand_hermitian(rng)
        s2 = rand_hermitian(rng)
        u = rand_unitary(rng, 2)
        ref = joint.f1(s1, s2)
        rot = joint.f1(u.conj().T @ s1 @ u, u.conj().T @ s2 @ u)
        assert abs(rot - ref) <= 1e-8 * (1.0 + abs(ref))


def test_quadratic_coefficients_match_f1():
    # discriminant identity of the real quadratic in the paper's case 1:
    # b^2 - 4ac = 4 Delta^2 F1
    rng = np.random.default_rng(5)
    for _ in range(100):
        a1, c1 = sorted(rng.standard_normal(2))
        a2, c2, b2, beta2 = rng.standard_normal(4)
        s1 = np.diag([a1, c1]).astype(complex)
        s2 = np.array([[a2, b2 + 1j * beta2], [b2 - 1j * beta2, c2]])
        qa = -((a1 - c1) ** 2) * (b2 * b2 + beta2 * beta2)
        qb = 2.0 * beta2 * (a2 * c1 - a1 * c2) * (a1 - c1)
        qc = -4.0 * a1 * c1 * b2 * b2 - (a2 * c1 - a1 * c2) ** 2
        delta = b2 * (c1 - a1)
        lhs = qb * qb - 4.0 * qa * qc
        f1_val = joint.f1(s1, s2)
        rhs = 4.0 * delta * delta * f1_val
        assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs) + abs(rhs))
        # the null-circle form: on S1's null circle S2 reads A + B cos(.),
        # and (c - a)^2 (B^2 - A^2) = F1
        big_a = (a2 * c1 - c2 * a1) / (c1 - a1)
        big_b_sq = -4.0 * a1 * c1 * (b2 * b2 + beta2 * beta2) / (c1 - a1) ** 2
        circle = (c1 - a1) ** 2 * (big_b_sq - big_a * big_a)
        assert abs(circle - f1_val) <= 1e-12 * (1.0 + abs(circle) + abs(f1_val))


def test_exists_2gmd_identity_pair():
    assert joint.exists_2gmd(np.eye(2), np.eye(2))


def test_exists_2gmd_rateless_reduced_pair():
    from jtri.multicast import rateless3_reduce
    a1, a2 = rateless3_reduce(8.0)
    assert joint.exists_2gmd(a1, a2)
    a1, a2 = rateless3_reduce(9.0)
    assert not joint.exists_2gmd(a1, a2)


def test_exists_2gmd_general_r():
    rng = np.random.default_rng(6)
    a1 = rand_unit_det(rng, 2)
    a2 = rand_unit_det(rng, 2)
    # r above the largest singular value makes F1 of the shifted forms negative
    r_big = float(max(matcore.svd(a1).sigma[0], matcore.svd(a2).sigma[0])) * 1.5
    assert not joint.exists_2gmd(a1, a2, r=r_big)
    assert joint.exists_2gmd(np.eye(2), np.eye(2), r=1.0)
    # S = diag(4 - r^2, 0.25 - r^2) for both matrices, so F1 = 0 at every r
    # and only the indefiniteness of S decides: r must lie in [0.5, 2]
    a = np.diag([2.0, 0.5])
    for r, exists in ((1.5, True), (2.0, True), (3.0, False), (0.4, False)):
        s = a @ a - r * r * np.eye(2)
        assert joint.f1(s, s) == 0.0
        assert joint.exists_2gmd(a, a, r=r) == exists


def test_exists_2gmd_oracle_agreement_small():
    rng = np.random.default_rng(7)
    for _ in range(60):
        a1 = rand_unit_det(rng, 2)
        a2 = rand_unit_det(rng, 2)
        s1 = a1.conj().T @ a1 - np.eye(2)
        s2 = a2.conj().T @ a2 - np.eye(2)
        if abs(joint.f1(s1, s2)) <= 1e-8:
            continue
        assert joint.exists_2gmd(a1, a2) == (gmd2_residual(a1, a2) <= 1e-6)


def test_construct_2gmd_identical_diagonal_pair():
    a = np.diag([2.0, 0.5]).astype(complex)
    jf = joint.construct_2gmd(a, a)
    assert np.max(np.abs(jf.diag - 1.0)) < 1e-10
    for u, r in jf.users:
        assert recon_error(u, r, jf.v, a) < 1e-9


def test_construct_2gmd_case2_unitary_input():
    rng = np.random.default_rng(8)
    u = rand_unitary(rng, 2)
    u = u / np.linalg.det(u) ** 0.5      # det exactly 1
    a2 = rand_unit_det(rng, 2)
    if not joint.exists_2gmd(u, a2):
        a2 = np.eye(2, dtype=complex)
    # a unitary input's form is numerically zero, so it never defines the
    # null circle
    s1 = u.conj().T @ u - np.eye(2)
    s2 = a2.conj().T @ a2 - np.eye(2)
    v = joint.common_null_witness(s1, s2)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert abs(v.conj() @ s1 @ v) < 1e-12
    assert abs(v.conj() @ s2 @ v) < 1e-12
    jf = joint.construct_2gmd(u, a2)
    assert np.max(np.abs(jf.diag - 1.0)) < 1e-8


def test_construct_2gmd_case3_and_case4_paths():
    # S2's off-diagonal entry is purely imaginary in S1's eigenbasis
    s1 = np.diag([1.0, -1.0]).astype(complex)
    s2 = np.array([[0.5, 0.9j], [-0.9j, 0.5]])
    v = joint.common_null_witness(s1, s2)
    assert abs(v.conj() @ s1 @ v) < 1e-10
    assert abs(v.conj() @ s2 @ v) < 1e-10
    # both diagonal with proportional rows
    s2d = np.diag([2.0, -2.0]).astype(complex)
    v = joint.common_null_witness(s1, s2d)
    assert abs(v.conj() @ s1 @ v) < 1e-10
    assert abs(v.conj() @ s2d @ v) < 1e-10
    # diagonal but not proportional
    with pytest.raises(InfeasibleError, match="no common null vector"):
        joint.common_null_witness(s1, np.diag([2.0, -1.0]).astype(complex))


def test_construct_2gmd_random_feasible_invariants():
    rng = np.random.default_rng(9)
    for _ in range(100):
        a1, a2 = sample_pair(rng, feasible=True)
        jf = joint.construct_2gmd(a1, a2)
        v1 = jf.v[:, 0]
        s1 = a1.conj().T @ a1 - np.eye(2)
        s2 = a2.conj().T @ a2 - np.eye(2)
        assert abs(v1.conj() @ s1 @ v1) <= 1e-8
        assert abs(v1.conj() @ s2 @ v1) <= 1e-8
        assert abs(np.linalg.norm(v1) - 1.0) <= 1e-10
        assert np.max(np.abs(jf.diag - 1.0)) <= 1e-8
        for (u, r), a in zip(jf.users, (a1, a2)):
            assert recon_error(u, r, jf.v, a) <= 1e-8


def test_construct_2gmd_near_boundary():
    from jtri.multicast import rateless3_reduce
    critical = 6.0 * np.log2((3.0 + np.sqrt(5.0)) / 2.0)
    for eps in (1e-4, 1e-6, 1e-8):
        a1, a2 = rateless3_reduce(critical - eps)
        assert joint.exists_2gmd(a1, a2)
        jf = joint.construct_2gmd(a1, a2)
        v1 = jf.v[:, 0]
        for a in (a1, a2):
            s = a.conj().T @ a - np.eye(2)
            assert abs(v1.conj() @ s @ v1) < 1e-7
        assert np.max(np.abs(jf.diag - 1.0)) < 1e-8


def test_construct_2gmd_infeasible_raises():
    rng = np.random.default_rng(10)
    a1, a2 = sample_pair(rng, feasible=False)
    with pytest.raises(NotConstructibleError, match=r"F1 = -?[0-9.e+-]+ < 0"):
        joint.construct_2gmd(a1, a2)


def _random_pairs(n, seed):
    """n unit-|det| complex 2x2 pairs, drawn as rand_unit_det draws them."""
    z = np.random.default_rng(seed).standard_normal((n, 2, 2, 2, 2))
    a = z[:, :, 0] + 1j * z[:, :, 1]
    return a / np.sqrt(np.abs(np.linalg.det(a)))[..., None, None]


@pytest.mark.parametrize("construct", ["construct_2gmd", "construct_upper_lower"])
def test_2x2_constructions_hold_unit_diagonals_on_20000_random_pairs(construct):
    # a case split on the paper's real quadratic loses about 6 digits on
    # about 1 pair in 10^4 (2.9e-9 and 9.9e-9 here)
    worst, built = 0.0, 0
    for a1, a2 in _random_pairs(20000, seed=2):
        try:
            out = getattr(joint, construct)(a1, a2)
        except InfeasibleError:
            continue
        built += 1
        rs = [r for _, r in out.users] if construct == "construct_2gmd" else [out[2], out[4]]
        worst = max(worst, max(np.max(np.abs(np.real(np.diag(r)) - 1.0)) for r in rs))
    assert built > 13000
    assert worst <= 1e-12


def _near_f1_boundary_pairs():
    """Pairs (a1, m(t)) on both sides of F1 = 0: m(t) runs from a2 to b2,
    rescaled to unit |det|, and t is bisected to where F1 changes sign."""
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(300):
        a1, a2, b2 = (rand_unit_det(rng, 2) for _ in range(3))
        s1 = a1.conj().T @ a1 - np.eye(2)

        def m(t):
            x = (1 - t) * a2 + t * b2
            return x / np.sqrt(abs(np.linalg.det(x)))

        def sign(t):
            x = m(t)
            return np.sign(joint.f1(s1, x.conj().T @ x - np.eye(2)))

        lo, hi = 0.0, 1.0
        side = sign(lo)
        if sign(hi) == side:
            continue
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if sign(mid) == side else (lo, mid)
        pairs += [(a1, m(t)) for t in np.linspace(lo - 1e-9, hi + 1e-9, 7)]
    return pairs


def test_construct_2gmd_and_kgmd_exact_agree_near_the_f1_boundary():
    # the witness decides for exists_2gmd, construct_2gmd and kgmd_exact
    # alike, and accepts a vector only when |A_k v|^2 = 1 within TOL_ZERO,
    # so every built diagonal is within 1e-9 of 1; each refusal here is at
    # F1 < 0
    pairs = _near_f1_boundary_pairs()
    assert len(pairs) == 861
    built = passed_on = 0
    for a1, a2 in pairs:
        feasible = joint.exists_2gmd(a1, a2)
        try:
            pair = joint.construct_2gmd(a1, a2)
        except NotConstructibleError as exc:
            s1, s2 = (a.conj().T @ a - np.eye(2) for a in (a1, a2))
            # "< 0" is claimed only of a negative F1
            assert ("< 0" in str(exc)) == (joint.f1(s1, s2) < 0)
            passed_on += feasible
            with pytest.raises(NotConstructibleError):
                joint.kgmd_exact([a1, a2])
            continue
        assert feasible
        family = joint.kgmd_exact([a1, a2])
        built += 1
        assert np.array_equal(pair.v, family.v)
        for (u, r), (u_k, r_k) in zip(pair.users, family.users):
            assert np.array_equal(u, u_k) and np.array_equal(r, r_k)
            assert np.max(np.abs(np.real(np.diag(r)) - 1.0)) <= 1e-9
    assert (built, passed_on) == (668, 0)


def test_exists_2gmd_on_the_rateless3_family_is_the_critical_rate():
    # the reduced pair's forms grow like 2^(C/6), to 3e153 at C = 1530;
    # the witness checks them unscaled, so the answer holds up to there
    critical = 6.0 * np.log2((3.0 + np.sqrt(5.0)) / 2.0)
    for c in np.concatenate([np.linspace(0.5, 8.33, 20), np.linspace(8.34, 1530.0, 300)]):
        a1, a2 = multicast.rateless3_reduce(c)
        assert joint.exists_2gmd(a1, a2) == (c < critical)
        if c < critical:
            for _, r in joint.construct_2gmd(a1, a2).users:
                assert np.max(np.abs(np.real(np.diag(r)) - 1.0)) <= 1e-9
        else:
            with pytest.raises(NotConstructibleError, match=r"F1 = \S+ < 0"):
                joint.construct_2gmd(a1, a2)


def test_a_form_that_overflows_is_a_numerical_failure():
    a1 = np.diag([1e160, 1e-160])
    a2 = np.array([[2.0, 1.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (joint.exists_2gmd, joint.construct_2gmd,
                      joint.exists_upper_lower, joint.construct_upper_lower):
            with pytest.raises(NumericalError, match="not finite"):
                route(a1, a2)


def test_a_refusal_at_nonnegative_f1_does_not_claim_it_negative():
    # A_1 = U_1 [[1, x], [0, 1]] V^H and A_2 = U_2 [[1, 2ix], [0, 1]] V^H
    # (lower triangular for the mixed orientation) share V e1 exactly, so
    # F1 and F2 are positive; at x = 1e4 the forms reach 1e8, and roundoff
    # keeps |A_k v|^2 - 1 above TOL_ZERO for the computed vector: the
    # refusal says the factors cannot be built, not that they do not exist
    rng = np.random.default_rng(3)
    v = rand_unitary(rng, 2)
    a1 = rand_unitary(rng, 2) @ np.array([[1.0, 1e4], [0.0, 1.0]]) @ v.conj().T
    upper = rand_unitary(rng, 2) @ np.array([[1.0, 2e4j], [0.0, 1.0]]) @ v.conj().T
    lower = rand_unitary(rng, 2) @ np.array([[1.0, 0.0], [2e4j, 1.0]]) @ v.conj().T
    for route, a2, name in ((joint.construct_2gmd, upper, "F1"),
                            (joint.construct_upper_lower, lower, "F2")):
        with pytest.raises(InfeasibleError, match=r"within TOL_ZERO \(%s = \S+\)" % name) as exc:
            route(a1, a2)
        assert "< 0" not in str(exc.value)
    assert not joint.exists_2gmd(a1, upper) and not joint.exists_upper_lower(a1, lower)


def test_kgmd_exact_builds_triples_sharing_a_null_vector():
    # A_k = U_k [[1, x_k], [0, 1]] V^H: V e1 nulls every A_k^H A_k - I.  In
    # the last 50 triples the first two x_k are equal, so two forms are too.
    rng = np.random.default_rng(44)
    for i in range(450):
        v = rand_unitary(rng, 2)
        xs = rand_complex(rng, 3, 1)[:, 0]
        if i >= 400:
            xs[1] = xs[0]
        mats = [rand_unitary(rng, 2) @ np.array([[1.0, x], [0.0, 1.0]]) @ v.conj().T
                for x in xs]
        jf = joint.kgmd_exact(mats)
        for (u, r), a in zip(jf.users, mats):
            assert np.max(np.abs(np.real(np.diag(r)) - 1.0)) <= 1e-12
            assert recon_error(u, r, jf.v, a) <= 1e-12
    with pytest.raises(DimensionError, match="need at least two forms"):
        joint.common_null_witness(np.eye(2))


def _relative_condition(a1, a2, upper_lower):
    """F1 (or F2) of a unit-|det| pair over the scale the existence tests
    compare it with."""
    s1 = a1.conj().T @ a1 - np.eye(2)
    s2 = a2.conj().T @ a2 - np.eye(2)
    val = (joint.f2 if upper_lower else joint.f1)(s1, s2)
    return val / ((np.linalg.norm(s1) * np.linalg.norm(s2)) ** 2 + 1.0)


def _boundary_pair(seed, value, upper_lower):
    """A unit-|det| pair whose relative F1 (or F2) equals ``value``: the
    second matrix is bisected along the segment between a feasible and an
    infeasible partner of the first."""
    rng = np.random.default_rng(seed)
    a1 = rand_unit_det(rng, 2)
    ends = {}
    while len(ends) < 2:
        b = rand_unit_det(rng, 2)
        ends.setdefault(_relative_condition(a1, b, upper_lower) > 0, b)

    def at(lam):
        m = (1.0 - lam) * ends[True] + lam * ends[False]
        return m / np.sqrt(abs(np.linalg.det(m)))

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _relative_condition(a1, at(mid), upper_lower) > value:
            lo = mid
        else:
            hi = mid
    return a1, at(lo)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_margin=st.floats(-6.0, -2.0),
       feasible=st.booleans(), upper_lower=st.booleans())
def test_existence_and_construction_at_the_boundary(seed, log_margin, feasible, upper_lower):
    value = 10.0 ** log_margin * (1.0 if feasible else -1.0)
    a1, a2 = _boundary_pair(seed, value, upper_lower)
    if upper_lower:
        exists = joint.exists_upper_lower(a1, a2)
        oracle = upper_lower_residual(a1, a2)
    else:
        exists = joint.exists_2gmd(a1, a2)
        oracle = gmd2_residual(a1, a2)
    # 300 sampled pairs at relative margins of 1e-6 or more gave oracle
    # residuals above 6e-7 on the infeasible side, below 2e-15 on the other
    assert exists == feasible == (oracle <= 1e-9)
    if exists:
        if upper_lower:
            _, _, r1, _, r2 = joint.construct_upper_lower(a1, a2)
            rs = [r1, r2]
        else:
            rs = [r for _, r in joint.construct_2gmd(a1, a2).users]
        for r in rs:
            assert np.max(np.abs(np.real(np.diag(r)) - 1.0)) <= 1e-12


def test_kgmd_exact_k1_is_gmd():
    rng = np.random.default_rng(11)
    a = rand_unit_det(rng, 3)
    jf = joint.kgmd_exact([a])
    ref = gtd.gmd(a)
    assert np.max(np.abs(jf.diag - ref.diag)) < 1e-12
    assert np.array_equal(jf.v, ref.v)


def test_kgmd_exact_delegates_to_pair_construction():
    rng = np.random.default_rng(12)
    a1, a2 = sample_pair(rng, feasible=True)
    jf = joint.kgmd_exact([a1, a2])
    ref = joint.construct_2gmd(a1, a2)
    assert np.array_equal(jf.v, ref.v)
    assert all(np.array_equal(x, y) for p, q in zip(jf.users, ref.users) for x, y in zip(p, q))
    a1, a2 = sample_pair(rng, feasible=False)
    with pytest.raises(NotConstructibleError):
        joint.kgmd_exact([a1, a2])


def test_kgmd_exact_rejects_large_square():
    rng = np.random.default_rng(13)
    with pytest.raises(NotConstructibleError):
        joint.kgmd_exact([rand_unit_det(rng, 3), rand_unit_det(rng, 3)])


def test_kgmd_to_kjet_k1_reproduces_jet2():
    rng = np.random.default_rng(14)
    a1 = rand_unit_det(rng, 3)
    a2 = rand_unit_det(rng, 3)
    via = joint.kgmd_to_kjet([a1, a2])
    ref = joint.jet2(a1, a2)
    assert np.max(np.abs(via.v - ref.v)) == 0.0


def test_kgmd_to_kjet_three_diagonal_users():
    rng = np.random.default_rng(15)
    # diagonal unit-det triple whose quotient pair admits the joint step:
    # the second quotient is a pure phase, so its shifted form vanishes
    d1 = np.exp(rng.standard_normal())
    d3 = np.exp(rng.standard_normal())
    theta = rng.uniform(0, 2 * np.pi)
    a3 = np.diag([d3, 1.0 / d3]).astype(complex)
    a1 = np.diag([d1, 1.0 / d1]).astype(complex) @ a3
    a2 = np.diag([np.exp(1j * theta), np.exp(-1j * theta)]) @ a3
    assert joint.exists_2gmd(a1 @ np.linalg.inv(a3), a2 @ np.linalg.inv(a3))
    jf = joint.kgmd_to_kjet([a1, a2, a3])
    diags = [np.real(np.diag(r)) for _, r in jf.users]
    for d in diags[1:]:
        assert np.max(np.abs(d - diags[0])) < 1e-9
    for (u, r), a in zip(jf.users, (a1, a2, a3)):
        assert recon_error(u, r, jf.v, a) < 1e-9


def test_kgmd_to_kjet_quotient_roundtrip():
    # joint factors of the quotients and of the full family imply each other
    rng = np.random.default_rng(16)
    a1, a2 = sample_pair(rng, feasible=True)
    a3 = rand_unit_det(rng, 2)
    b1 = a1 @ np.linalg.inv(a3)
    b2 = a2 @ np.linalg.inv(a3)
    if not joint.exists_2gmd(b1 / abs(np.linalg.det(b1)) ** 0.5,
                             b2 / abs(np.linalg.det(b2)) ** 0.5):
        pytest.skip("sampled quotient pair infeasible")
    jf = joint.kgmd_to_kjet([a1, a2, a3])
    # rebuild the quotient triangularization from the family factors
    (u1, r1), (u2, r2), (u3, r3) = jf.users
    t1 = r1 @ np.linalg.inv(r3)
    t2 = r2 @ np.linalg.inv(r3)
    for t, b in ((t1, b1), (t2, b2)):
        assert np.max(np.abs(np.tril(t, -1))) < 1e-9
        assert np.max(np.abs(np.real(np.diag(t)) - 1.0)) < 1e-9
    assert np.linalg.norm(u1 @ t1 @ u3.conj().T - b1) < 1e-8


def test_dof_mismatch_three_user_quotients_not_constructible():
    # scaled-identity first canonical matrix reduces the three-user case to
    # a pair which fails the existence test for same-orientation factors
    c = 4.0
    g2 = np.diag([2.0 ** (c / 2), 1.0]).astype(complex)
    g3 = np.diag([1.0, 2.0 ** (c / 2)]).astype(complex)
    scale = 2.0 ** (c / 4)
    with pytest.raises(NotConstructibleError):
        joint.kgmd_exact([g2 / scale, g3 / scale])


def test_exists_upper_lower_trivial_and_worked():
    assert joint.exists_upper_lower(np.eye(2), np.eye(2))
    for c in range(1, 13):
        b = 2.0 ** (c / 4.0)
        a1 = np.diag([b, 1.0 / b]).astype(complex)
        a2 = np.diag([1.0 / b, b]).astype(complex)
        assert joint.exists_upper_lower(a1, a2)


def test_exists_upper_lower_oracle_agreement_small():
    rng = np.random.default_rng(17)
    for _ in range(60):
        a1 = rand_unit_det(rng, 2)
        a2 = rand_unit_det(rng, 2)
        s1 = a1.conj().T @ a1 - np.eye(2)
        s2 = a2.conj().T @ a2 - np.eye(2)
        if abs(joint.f2(s1, s2)) <= 1e-8:
            continue
        assert (joint.exists_upper_lower(a1, a2)
                == (upper_lower_residual(a1, a2) <= 1e-6))


def test_construct_upper_lower_worked_values():
    for c in (2.0, 4.0, 8.0):
        b = 2.0 ** (c / 4.0)
        a1 = np.diag([b, 1.0 / b]).astype(complex)
        a2 = np.diag([1.0 / b, b]).astype(complex)
        v, u1, r1, u2, r2 = joint.construct_upper_lower(a1, a2)
        off = (2.0 ** c - 1.0) / (2.0 ** (c / 2.0) + 1.0)
        assert abs(abs(b * r1[0, 1]) - off) < 1e-8 * (1.0 + off)
        assert abs(abs(b * r2[1, 0]) - off) < 1e-8 * (1.0 + off)
        assert abs(r1[1, 0]) == 0.0
        assert abs(r2[0, 1]) == 0.0


def test_construct_upper_lower_identity():
    v, u1, r1, u2, r2 = joint.construct_upper_lower(np.eye(2), np.eye(2))
    assert np.max(np.abs(r1 - np.eye(2))) < 1e-12
    assert np.max(np.abs(r2 - np.eye(2))) < 1e-12


def test_construct_upper_lower_random_feasible():
    rng = np.random.default_rng(18)
    done = 0
    while done < 60:
        a1 = rand_unit_det(rng, 2)
        a2 = rand_unit_det(rng, 2)
        if not joint.exists_upper_lower(a1, a2):
            continue
        done += 1
        v, u1, r1, u2, r2 = joint.construct_upper_lower(a1, a2)
        assert np.linalg.norm(u1 @ r1 @ v.conj().T - a1) <= 1e-8
        assert np.linalg.norm(u2 @ r2 @ v.conj().T - a2) <= 1e-8
        assert abs(r1[1, 0]) <= 1e-8 and abs(r2[0, 1]) <= 1e-8
        assert np.max(np.abs(np.real(np.diag(r1)) - 1.0)) <= 1e-8
        assert np.max(np.abs(np.real(np.diag(r2)) - 1.0)) <= 1e-8


def test_joint_block_feasible_single_block():
    rng = np.random.default_rng(19)
    a1 = rand_complex(rng, 3)
    a2 = rand_complex(rng, 3)
    ratio = np.linalg.det(a1) / np.linalg.det(a2)
    assert joint_block_feasible(a1, a2, [3], [ratio])
    assert not joint_block_feasible(a1, a2, [3], [ratio * 2.0])


def test_joint_block_feasible_identity_second_reduces_to_single_matrix():
    rng = np.random.default_rng(20)
    a1 = rand_complex(rng, 4)
    sig = matcore.svd(a1).sigma
    sizes = [2, 2]
    good = [sig[0] * sig[3], sig[1] * sig[2]]
    assert joint_block_feasible(a1, np.eye(4), sizes, good)
    bad = [np.prod(sig) / 1e-3, 1e-3]
    assert not joint_block_feasible(a1, np.eye(4), sizes, bad)
    # cross-check against the single-matrix block feasibility
    try:
        gtd.block_gtd(a1, gtd.BlockSpec(block_sizes=sizes, block_dets=good))
        single_ok = True
    except Exception:
        single_ok = False
    assert single_ok


def test_joint_block_feasible_built_ratios():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a1 = rand_complex(rng, n)
        a2 = rand_complex(rng, n)
        mu = matcore.svd(a1 @ np.linalg.inv(a2)).sigma
        m = int(rng.integers(1, n + 1))
        sizes = np.ones(m, dtype=int)
        for _ in range(n - m):
            sizes[rng.integers(0, m)] += 1
        # ratios assembled from a feasible diagonal of the quotient
        logs = np.log(mu)
        w = rng.random()
        t = np.exp((1.0 - w) * logs + w * np.mean(logs))
        pieces = np.split(t, np.cumsum(sizes)[:-1])
        ratios = [np.prod(p) for p in pieces]
        assert joint_block_feasible(a1, a2, list(sizes), ratios)
