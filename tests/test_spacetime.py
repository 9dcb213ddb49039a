import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtri import joint, matcore, spacetime
from jtri.errors import DimensionError, InfeasibleError, NumericalError
import test_golden as golden
from util import (
    extended_gmd_residual,
    extension_futile_2x2,
    extraction_matrix,
    nearly_kgmd_dense,
    positions,
    rand_real_det_one,
    rand_unit_det,
    rand_unitary,
    real_embedding_2gmd,
    reorder_indices,
    rephase_to_reflection,
    select,
    square_rounds,
)

TABLE_FRACTIONS = [(1, 3), (37, 100), (1, 2), (3, 5), (2, 3), (3, 4), (4, 5), (9, 10)]


def assert_spacetime_invariants(fac, mats, unit_diag=True, tol=1e-8):
    n, n_ext = fac.n, fac.n_ext
    kept = fac.kept_dim
    assert np.max(np.abs(fac.v.conj().T @ fac.v - np.eye(kept))) <= 1e-9
    for (u, t), a in zip(fac.users, mats):
        ext = matcore.time_extend(a, n_ext)
        assert np.max(np.abs(u.conj().T @ u - np.eye(kept))) <= 1e-9
        assert np.linalg.norm(u.conj().T @ ext @ fac.v - t) <= tol * np.linalg.norm(ext)
        assert np.max(np.abs(np.tril(t, -1))) <= tol
        if unit_diag:
            assert np.max(np.abs(np.real(np.diag(t)) - 1.0)) <= tol
        else:
            assert np.max(np.abs(np.real(np.diag(t)) - fac.diag)) <= tol


def test_nearly_kgmd_single_user_keeps_everything():
    rng = np.random.default_rng(0)
    mats = [rand_unit_det(rng, 3)]
    fac = spacetime.nearly_kgmd(mats, 4)
    assert fac.kept_dim == 12
    assert fac.kept_indices == list(range(1, 13))
    assert_spacetime_invariants(fac, mats)


def test_nearly_kgmd_two_users_structure():
    rng = np.random.default_rng(1)
    mats = [rand_unit_det(rng, 2) for _ in range(2)]
    fac = spacetime.nearly_kgmd(mats, 4)
    assert fac.kept_dim == 6  # 2 * (4 - (2 - 1))
    assert_spacetime_invariants(fac, mats)


def test_nearly_kgmd_worked_case_kept_indices():
    rng = np.random.default_rng(2)
    mats = [rand_unit_det(rng, 2) for _ in range(3)]
    fac = spacetime.nearly_kgmd(mats, 4)
    assert fac.kept_dim == 2
    assert set(fac.kept_indices) == {4, 5}
    assert_spacetime_invariants(fac, mats)


def test_nearly_kgmd_dimension_law_sweep():
    rng = np.random.default_rng(3)
    for (n, k) in ((2, 2), (2, 3), (3, 2)):
        base = n ** (k - 1)
        for n_ext in range(base, base + 4):
            mats = [rand_unit_det(rng, n) for _ in range(k)]
            fac = spacetime.nearly_kgmd(mats, n_ext)
            assert fac.kept_dim == n * (n_ext - (base - 1))
            assert_spacetime_invariants(fac, mats)


def test_nearly_kgmd_larger_families():
    # beyond the small worked cases: the reorder recursion must hold for
    # wider blocks and more users
    rng = np.random.default_rng(77)
    for (n, k, n_ext) in ((3, 3, 10), (2, 4, 9), (4, 2, 5)):
        mats = [rand_unit_det(rng, n) for _ in range(k)]
        fac = spacetime.nearly_kgmd(mats, n_ext)
        assert fac.kept_dim == n * (n_ext - (n ** (k - 1) - 1))
        assert_spacetime_invariants(fac, mats)


def test_nearly_kgmd_requires_enough_extensions():
    rng = np.random.default_rng(4)
    mats = [rand_unit_det(rng, 2) for _ in range(3)]
    with pytest.raises(InfeasibleError, match="need at least 4 extensions"):
        spacetime.nearly_kgmd(mats, 3)
    with pytest.raises(InfeasibleError, match="need at least 2 extensions"):
        spacetime.nearly_kjet(mats, 1)
    with pytest.raises(DimensionError, match="unit [|]det[|]"):
        spacetime.nearly_kgmd([2.0 * rand_unit_det(rng, 2)], 1)


def test_nearly_kgmd_determinant_accounting():
    # the discarded coordinates absorb exactly the determinant excess:
    # per user, |det of extension| = |det kept triangle| * |dropped product|
    rng = np.random.default_rng(5)
    mats = [rand_unit_det(rng, 2) for _ in range(2)]
    n_ext = 5
    fac = spacetime.nearly_kgmd(mats, n_ext)
    for (u, t), a in zip(fac.users, mats):
        det_ext = abs(np.linalg.det(a)) ** n_ext
        det_kept = abs(np.linalg.det(t))
        dropped = det_ext / det_kept
        assert abs(dropped - 1.0) <= 1e-6


def test_nearly_kjet_two_matrices_one_extension_is_exact_jet():
    rng = np.random.default_rng(6)
    a1 = rand_unit_det(rng, 3)
    a2 = rand_unit_det(rng, 3)
    fac = spacetime.nearly_kjet([a1, a2], 1)
    ref = joint.jet2(a1, a2)
    assert fac.kept_dim == 3
    assert np.max(np.abs(fac.diag - ref.diag)) < 1e-12
    assert_spacetime_invariants(fac, [a1, a2], unit_diag=False)


def test_spacetime_determinant_preconditions():
    rng = np.random.default_rng(8)
    mats = [rand_unit_det(rng, 2) for _ in range(3)]
    spread = [mats[0], mats[1] * np.sqrt(1.0 + 1e-3), mats[2]]   # |det| spread 1e-3
    singular = [mats[0], np.diag([1.0, 0.0]), mats[2]]
    for bad in (spread, singular):
        with pytest.raises(DimensionError, match="equal [|]det[|]"):
            spacetime.nearly_kjet(bad, 2)
    with pytest.raises(DimensionError, match="unit [|]det[|]"):
        spacetime.nearly_kgmd(singular, 4)


def test_nearly_kjet_dof_mismatch_three_users_two_extensions():
    # three canonical matrices of the degrees-of-freedom-mismatch family,
    # scaled to unit determinant; two channel uses give 50% efficiency
    c = 4.0
    scale = 2.0 ** (c / 4.0)
    g1 = 2.0 ** (c / 4.0) * np.eye(2, dtype=complex)
    g2 = np.diag([2.0 ** (c / 2.0), 1.0]).astype(complex)
    g3 = np.diag([1.0, 2.0 ** (c / 2.0)]).astype(complex)
    mats = [g / scale for g in (g1, g2, g3)]
    fac = spacetime.nearly_kjet(mats, 2)
    assert fac.kept_dim == 2
    assert fac.kept_dim / (2 * 2) == 0.5
    assert_spacetime_invariants(fac, mats, unit_diag=False)
    diags = [np.real(np.diag(t)) for _, t in fac.users]
    for d in diags[1:]:
        assert np.max(np.abs(d - diags[0])) <= 1e-8


def test_nearly_kjet_random_triple():
    rng = np.random.default_rng(7)
    mats = [rand_unit_det(rng, 2) for _ in range(3)]
    fac = spacetime.nearly_kjet(mats, 3)
    assert fac.kept_dim == 2 * (3 - 1)
    assert_spacetime_invariants(fac, mats, unit_diag=False)


def in_place_equal_diag_variant(mats, n_ext):
    """Cross-check construction: run the extension recursion with a local
    two-matrix equi-diagonal step on the full (nN)-wide extended matrices,
    applying every right factor and QR densely.  At each round the
    already-equalized users hold identical blocks at the active positions,
    so the shared right factor plus QR keeps them in lockstep."""
    n = mats[0].shape[0]
    k_users = len(mats)
    k_rounds = k_users - 1
    t_mats = [matcore.time_extend(m, n_ext) for m in mats]
    u_mats = [np.eye(n * n_ext, dtype=complex) for _ in mats]
    v_total = np.eye(n * n_ext, dtype=complex)

    def apply_right(local_v, copies):
        nonlocal v_total
        v_emb = matcore.time_extend(local_v, copies)
        v_total = v_total @ v_emb
        for k in range(k_users):
            fac = matcore.qr(t_mats[k] @ v_emb)
            u_mats[k] = u_mats[k] @ fac.q
            t_mats[k] = fac.r

    core = joint.jet2(mats[0], mats[1])
    apply_right(core.v, n_ext)
    for round_l in range(2, k_rounds + 1):
        groups = reorder_indices(n, k_rounds, n_ext, round_l)
        flat = [i for g in groups for i in g]
        picker = extraction_matrix(t_mats[0].shape[0], flat)
        v_total = v_total @ picker
        for k in range(k_users):
            u_mats[k] = u_mats[k] @ picker
            t_mats[k] = picker.conj().T @ t_mats[k] @ picker
        pair = joint.jet2(t_mats[round_l - 1][:n, :n], t_mats[round_l][:n, :n])
        apply_right(pair.v, len(groups))
    return v_total, u_mats, t_mats


def test_in_place_equal_diag_variant_agrees():
    rng = np.random.default_rng(8)
    mats = [rand_unit_det(rng, 2) for _ in range(3)]
    n_ext = 3
    v_total, u_mats, t_mats = in_place_equal_diag_variant(mats, n_ext)
    kept = v_total.shape[1]
    ref = spacetime.nearly_kjet(mats, n_ext)
    assert kept == ref.kept_dim
    diags = [np.real(np.diag(t)) for t in t_mats]
    for d in diags[1:]:
        assert np.max(np.abs(d - diags[0])) <= 1e-8
    for u, t, a in zip(u_mats, t_mats, mats):
        ext = matcore.time_extend(a, n_ext)
        assert np.linalg.norm(u.conj().T @ ext @ v_total - t) <= 1e-8 * np.linalg.norm(ext)
        assert np.max(np.abs(np.tril(t, -1))) <= 1e-8


def test_extension_futile_matches_base_existence():
    rng = np.random.default_rng(9)
    feas = infeas = None
    while feas is None or infeas is None:
        a1 = rand_unit_det(rng, 2)
        a2 = rand_unit_det(rng, 2)
        if joint.exists_2gmd(a1, a2):
            feas = feas or (a1, a2)
        else:
            infeas = infeas or (a1, a2)
    assert not extension_futile_2x2(*feas)
    assert extension_futile_2x2(*infeas)


def test_extension_futile_extended_oracle():
    # for an infeasible pair, a direct search on the two-fold extension
    # finds no witness either
    rng = np.random.default_rng(10)
    while True:
        a1 = rand_unit_det(rng, 2)
        a2 = rand_unit_det(rng, 2)
        s1 = a1.conj().T @ a1 - np.eye(2)
        s2 = a2.conj().T @ a2 - np.eye(2)
        if joint.f1(s1, s2) < -1e-3:
            break
    assert extension_futile_2x2(a1, a2)
    resid = extended_gmd_residual(rng, a1, a2, n_ext=2)
    assert resid > 1e-4


def test_extension_futile_boundary_pair_is_feasible():
    # two equal matrices sit on the boundary F1 = 0 and stay feasible
    rng = np.random.default_rng(11)
    a = rand_unit_det(rng, 2)
    assert not extension_futile_2x2(a, a)


def test_real_embedding_pure_phase_pattern():
    m = np.array([[1j, 0.0], [0.0, 1j]])
    u1, u2, v = real_embedding_2gmd(np.eye(2), np.eye(2), m, m, m)
    expect = np.array([
        [0, -1, 0, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, 0, 1, 0],
    ], dtype=float)
    assert np.array_equal(v, expect)


def test_real_embedding_identity_reflection():
    m = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)  # a=1, b=c=d=0
    u1, u2, v = real_embedding_2gmd(np.eye(2), np.eye(2), m, m, m)
    assert np.array_equal(v, np.array([
        [1, 0, 0, 0],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, -1],
    ], dtype=float))
    assert np.max(np.abs(v @ v.T - np.eye(4))) < 1e-12


def test_real_embedding_random_feasible_real_pair():
    rng = np.random.default_rng(12)
    done = 0
    while done < 25:
        a1 = rand_real_det_one(rng, 2)
        a2 = rand_real_det_one(rng, 2)
        if not joint.exists_2gmd(a1, a2):
            continue
        done += 1
        jf = joint.construct_2gmd(a1, a2)
        (u1, r1), (u2, r2) = jf.users
        u1p, u2p, vp = rephase_to_reflection(u1, u2, jf.v)
        big1, big2, bigv = real_embedding_2gmd(a1, a2, u1p, u2p, vp)
        for m in (big1, big2, bigv):
            assert np.max(np.abs(m @ m.T - np.eye(4))) <= 1e-9
        for big_u, a in ((big1, a1), (big2, a2)):
            ext = np.kron(np.eye(2), a.real)
            t = big_u.T @ ext @ bigv
            assert np.max(np.abs(np.tril(t, -1))) <= 1e-9
            assert np.max(np.abs(np.diag(t) - 1.0)) <= 1e-9


def test_real_embedding_form_mismatch():
    bad = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)  # determinant +1
    with pytest.raises(DimensionError, match="not in reflection form"):
        real_embedding_2gmd(np.eye(2), np.eye(2), bad, bad, bad)


def test_required_extensions_table_rows():
    from fractions import Fraction
    gmd_row = [spacetime.required_extensions(Fraction(p, q), 2, 3, "gmd")
               for (p, q) in TABLE_FRACTIONS]
    jet_row = [spacetime.required_extensions(Fraction(p, q), 2, 3, "jet")
               for (p, q) in TABLE_FRACTIONS]
    assert gmd_row == [5, 5, 6, 8, 9, 12, 15, 30]
    assert jet_row == [2, 2, 2, 3, 3, 4, 5, 10]


def test_required_extensions_boundary_and_errors():
    # exact boundary fraction returns that extension count
    assert spacetime.required_extensions(0.25, 2, 3, "gmd") == 4
    assert spacetime.required_extensions(6.0 / 9.0, 2, 3, "gmd") == 9
    # no discard cases need a single use
    assert spacetime.required_extensions(1.0, 2, 1, "gmd") == 1
    assert spacetime.required_extensions(0.9, 3, 2, "jet") == 1
    with pytest.raises(InfeasibleError, match="fraction 1 needs unbounded"):
        spacetime.required_extensions(1.0, 2, 3, "gmd")
    with pytest.raises(InfeasibleError, match=r"lie in \(0, 1\]"):
        spacetime.required_extensions(1.5, 2, 2, "gmd")


def test_required_extensions_exact_rationals():
    from fractions import Fraction
    # (N - 1) / N >= 999999/1000000 first holds at N = 1000000; a float
    # search with slack stopped one short, where the kept fraction is below
    assert spacetime.required_extensions(0.999999, 2, 2, "gmd") == 1000000
    assert Fraction(999998, 999999) < Fraction("0.999999")
    # a float is read as the decimal it prints as: 0.9 means 9/10
    assert spacetime.required_extensions(0.9, 2, 2, "gmd") == 10
    assert spacetime.required_extensions(Fraction(1, 3), 2, 3, "gmd") == 5
    with pytest.raises(InfeasibleError, match="must be a finite number"):
        spacetime.required_extensions(float("nan"), 2, 2, "gmd")


# --- structured construction against the dense oracle -------------------------

ORACLE_CASES = ([(2, 3, n_ext) for n_ext in (4, 5, 16, 64, 256)]
                + [(3, 3, 9), (3, 3, 27), (3, 3, 81), (2, 4, 16), (2, 4, 64),
                   (4, 2, 8), (2, 5, 33)])


def assert_same_factors(fac, ref, rtol=1e-12):
    """Factor by factor agreement, each within rtol of its own norm."""
    assert fac.kept_indices == ref.kept_indices
    assert all(type(i) is int for i in fac.kept_indices)
    assert fac.n_ext == ref.n_ext
    pairs = [(fac.v, ref.v), (fac.diag, ref.diag)]
    for (u, t), (u_ref, t_ref) in zip(fac.users, ref.users, strict=True):
        pairs += [(u, u_ref), (t, t_ref)]
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.mark.parametrize("n, k_users, n_ext", ORACLE_CASES)
def test_nearly_kgmd_matches_dense_oracle(n, k_users, n_ext):
    rng = np.random.default_rng([n, k_users, n_ext])
    mats = [rand_unit_det(rng, n) for _ in range(k_users)]
    assert_same_factors(spacetime.nearly_kgmd(mats, n_ext), nearly_kgmd_dense(mats, n_ext))


def assert_kjet_matches_dense_oracle(mats, n_ext):
    fac = spacetime.nearly_kjet(mats, n_ext)
    assert_same_factors(fac, nearly_kgmd_dense(mats, n_ext, mode="jet"))
    assert_spacetime_invariants(fac, mats, unit_diag=False)
    return fac


@pytest.mark.parametrize("n, k_users, n_ext",
                         [(2, 3, 2), (2, 3, 64), (2, 4, 16), (3, 3, 9), (2, 5, 8), (4, 3, 4)])
def test_nearly_kjet_matches_dense_oracle(n, k_users, n_ext):
    rng = np.random.default_rng([n, k_users, n_ext, 1])
    assert_kjet_matches_dense_oracle([rand_unit_det(rng, n) for _ in range(k_users)], n_ext)


@pytest.mark.parametrize("n, k_users, n_ext", [(2, 3, 4), (2, 4, 8), (3, 3, 9), (2, 5, 16)])
def test_nearly_kjet_keeps_the_determinant_rate(n, k_users, n_ext):
    # equal but not unit |det|: the kept diagonal carries |det A_k| once per
    # kept channel use, so the design rate is the promised (N - lost) / N
    rng = np.random.default_rng([n, k_users, n_ext, 2])
    log_det = rng.uniform(0.5, 3.0)
    mats = [rand_unit_det(rng, n) * np.exp(log_det / n) for _ in range(k_users)]
    fac = assert_kjet_matches_dense_oracle(mats, n_ext)
    for _, t in fac.users:
        kept_log = np.sum(np.log(np.real(np.diag(t))))
        assert abs(kept_log - fac.kept_dim / n * log_det) <= 1e-10


def test_golden_spacetime_inputs_match_dense_oracle():
    # the inline inputs of the spacetime golden files, so those outputs stay
    # pinned to the dense construction and not only to themselves
    mats = [np.array(m, dtype=complex) for m in (golden.A, golden.D, golden.C)]
    assert_same_factors(spacetime.nearly_kgmd(mats, 4), nearly_kgmd_dense(mats, 4))
    assert_same_factors(spacetime.nearly_kjet(mats, 2), nearly_kgmd_dense(mats, 2, mode="jet"))


def test_nearly_kgmd_never_runs_a_wide_qr(monkeypatch):
    # a QR or inverse wider than one n x n block would bring back the
    # O((nN)^3) cost, in either construction
    rng = np.random.default_rng(13)
    mats = [rand_unit_det(rng, 2) for _ in range(3)]
    shapes = []

    def recording(dense):
        def wrapper(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return dense(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
    monkeypatch.setattr(np.linalg, "inv", recording(np.linalg.inv))
    for construct in (spacetime.nearly_kgmd, spacetime.nearly_kjet):
        shapes.clear()
        construct(mats, 64)
        assert shapes
        assert max(s[-1] for s in shapes) <= 2


def test_nearly_kjet_ill_conditioned_families():
    # U diag(sqrt(c), 1/sqrt(c)) W with Haar U and W: the |det| of the
    # quotients that jet2 derives drifts off one with the condition number,
    # and is not checked again.  At c = 1e7 a quotient is singular to
    # working precision, and that is what is reported.
    def family(rng, c):
        return [rand_unitary(rng, 2) @ np.diag([np.sqrt(c), 1.0 / np.sqrt(c)])
                @ rand_unitary(rng, 2) for _ in range(3)]

    rng = np.random.default_rng(3)
    for _ in range(10):
        mats = family(rng, 1e5)
        fac = spacetime.nearly_kjet(mats, 4)
        for (u, t), a in zip(fac.users, mats):
            ext = matcore.time_extend(a, 4)
            assert np.linalg.norm(u.conj().T @ ext @ fac.v - t) <= 1e-14 * np.linalg.norm(ext)
            assert np.max(np.abs(np.real(np.diag(t)) / fac.diag - 1.0)) <= 1e-6
    with pytest.raises(NumericalError, match="singular to working precision"):
        spacetime.nearly_kjet(family(np.random.default_rng(3), 1e7), 4)


# --- banded rounds -------------------------------------------------------------

# the dense oracle is O((nN)^3) per round and user, so N stops at 256 / n;
# that leaves out only n = 4, K = 5, mode "gmd", whose smallest N is 256
ORACLE_ROWS = 256
BAND_CASES = [(n, k_users, mode, lo, min(3 * lo + 7, ORACLE_ROWS // n))
              for n in (2, 3, 4) for mode, first in (("gmd", 1), ("jet", 2))
              for k_users in range(first, 6)
              for lo in [spacetime.discarded_uses(n, k_users, mode) + 1]
              if n * lo <= ORACLE_ROWS]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(BAND_CASES).flatmap(
           lambda c: st.tuples(st.just(c[:3]), st.integers(c[3], c[4]))),
       seed=st.integers(0, 2 ** 32 - 1))
def test_rounds_match_the_dense_oracle_and_stay_banded(case, seed):
    # with R rounds, v and u_k have lower bandwidth n^R - 1 and upper
    # bandwidth n - 1, and t_k has upper bandwidth n^R - 1, whatever N is;
    # outside the band every entry is exactly zero.  The oracle orders its
    # arithmetic differently, and a local step whose block has nearly equal
    # singular values turns that roundoff into a rotation of v and u_k:
    # random draws reach 2.7e-11 (n=2, K=5, N=16, seed 201), hence 1e-9
    (n, k_users, mode), n_ext = case
    rng = np.random.default_rng(seed)
    mats = [rand_unit_det(rng, n) for _ in range(k_users)]
    construct = spacetime.nearly_kgmd if mode == "gmd" else spacetime.nearly_kjet
    fac = construct(mats, n_ext)
    assert_same_factors(fac, nearly_kgmd_dense(mats, n_ext, mode), rtol=1e-9)
    reach = n ** (k_users if mode == "gmd" else k_users - 1) - 1
    for m in [fac.v] + [u for u, _ in fac.users]:
        rows, cols = np.indices(m.shape)
        assert not np.any(m[(rows - cols > reach) | (cols - rows > n - 1)])
    for _, t in fac.users:
        rows, cols = np.indices(t.shape)
        assert not np.any(t[(cols - rows > reach) | (rows > cols)])


def invariance_sizes(n, k_users, mode, lo):
    # N from the smallest through the first with no edge effects left
    # (2 n^E) and on, plus one large N for a gmd and a jet family
    sizes = {lo, lo + 1, 2 * lo - 1, 2 * lo, 2 * lo + 1, 3 * lo + 7}
    return sorted(sizes | {257} if (n, k_users, mode) in ((2, 3, "gmd"), (2, 4, "jet")) else sizes)


INVARIANCE_CASES = [(n, k_users, mode, n_ext) for n, k_users, mode, lo, _ in BAND_CASES
                    for n_ext in invariance_sizes(n, k_users, mode, lo)]


@pytest.mark.parametrize("n, k_users, mode, n_ext", INVARIANCE_CASES)
def test_factors_are_the_band_rounds_at_n_itself(n, k_users, mode, n_ext):
    # the rounds run on the generators and the factors are written from
    # them: equal to what the rounds on (nN)-square arrays at N hold
    rng = np.random.default_rng([n, k_users, n_ext, 3])
    mats = [rand_unit_det(rng, n) for _ in range(k_users)]
    construct = spacetime.nearly_kgmd if mode == "gmd" else spacetime.nearly_kjet
    fac = construct(mats, n_ext)
    v, u, t, coords = square_rounds(mats, n_ext, mode)
    assert np.array_equal(fac.v, v)
    for (got_u, got_t), want_u, want_t in zip(fac.users, u, t, strict=True):
        assert np.array_equal(got_u, want_u) and np.array_equal(got_t, want_t)
    assert fac.kept_indices == coords.tolist()
    assert np.array_equal(fac.diag, np.real(np.diag(t[0])))
    assert all(m.flags.c_contiguous for m in [fac.v, *(m for pair in fac.users for m in pair)])


def test_rounds_cost_does_not_grow_with_n(monkeypatch):
    # the rounds run on the generators, whatever N is: one QR per round, of
    # the stack of the K users' n x n diagonal blocks
    rng = np.random.default_rng(17)
    n, k_users = 2, 3
    mats = [rand_unit_det(rng, n) for _ in range(k_users)]
    shapes = []
    factor = matcore.qr

    def recording(a):
        shapes.append(np.shape(a))
        return factor(a)

    monkeypatch.setattr(matcore, "qr", recording)
    spacetime.nearly_kgmd(mats, n ** (k_users - 1))
    at_smallest = shapes.copy()
    shapes.clear()
    fac = spacetime.nearly_kgmd(mats, 1024)
    assert fac.kept_dim == 2 * (1024 - 3)
    assert shapes == at_smallest == [(k_users, n, n)] * k_users


def test_nearly_kgmd_peak_memory_is_its_result():
    # the dense factors are assembled once, at the end: no (nN)^2 array
    # is made per round
    rng = np.random.default_rng(15)
    mats = [rand_unit_det(rng, 2) for _ in range(3)]
    tracemalloc.start()
    try:
        fac = spacetime.nearly_kgmd(mats, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = fac.v.nbytes + sum(u.nbytes + t.nbytes for u, t in fac.users)
    assert peak <= 1.1 * result


def test_reorder_rejects_entries_moved_below_the_blocks():
    # a t generator as after round 1 of (n, K) = (2, 3), widened by two
    # blocks, plus one tiny entry right of its diagonal block: the gather
    # raises exactly when the reordering of the square arrays of
    # (2, 3, N = 8) moves that entry below the diagonal blocks, and
    # otherwise returns the first block row of the reordered square array
    n, n_ext, width = 2, 8, 6
    size = n * n_ext
    rng = np.random.default_rng(16)
    pos = positions(size, [i for g in reorder_indices(n, 3, n_ext, 2) for i in g])
    base = np.zeros((n, width), dtype=complex)
    base[:, :n] = np.triu(rng.standard_normal((n, n)) + 3.0)
    below = np.arange(pos.size)[:, None] // n > np.arange(pos.size)[None, :] // n
    shift = n ** (3 - 2)        # round l of R moves lane i by i * n^(R - l) blocks
    raised = 0
    for i, c in np.ndindex(n, width - n):
        gen = base.copy()
        gen[i, n + c] = 1e-300
        dense = matcore.BlockToeplitz(gen, size, size, n, n).to_dense()[np.ix_(pos, pos)]
        if np.any(dense[below]):
            raised += 1
            with pytest.raises(NumericalError, match="moves a nonzero entry below"):
                spacetime._reorder(np.eye(n)[np.newaxis], gen[np.newaxis], shift)
            with pytest.raises(NumericalError, match="moves a nonzero entry below"):
                select(matcore.BlockToeplitz(gen, size, size, n, n).to_dense(), pos, n)
        else:
            _, t = spacetime._reorder(np.eye(n)[np.newaxis], gen[np.newaxis], shift)
            assert np.array_equal(t[0], dense[:n, :t.shape[-1]])
            assert not np.any(dense[:n, t.shape[-1]:])
    assert 0 < raised < n * (width - n)


def test_extension_count_must_be_an_integer():
    # a fraction is refused, not truncated; numpy integers are integers
    rng = np.random.default_rng(19)
    mats = [rand_unit_det(rng, 2) for _ in range(3)]
    for construct in (spacetime.nearly_kgmd, spacetime.nearly_kjet):
        for bad in (4.9, 8.5, 9.99, "8", True, np.float64(8.0)):
            with pytest.raises(DimensionError, match="must be an integer"):
                construct(mats, bad)
        fac, want = construct(mats, np.int64(8)), construct(mats, 8)
        assert type(fac.n_ext) is int and fac.n_ext == 8
        assert np.array_equal(fac.v, want.v) and fac.kept_indices == want.kept_indices


@pytest.mark.parametrize("n, k_users, n_ext", [(4, 5, 257), (8, 4, 513)])
def test_nearly_kgmd_at_large_smallest_extension(n, k_users, n_ext):
    # n^E = 256 and 512: the rounds' generators stay small (the square
    # arrays of the rounds would be (nN)-square), and so does the result
    rng = np.random.default_rng([n, k_users, n_ext])
    mats = [rand_unit_det(rng, n) for _ in range(k_users)]
    tracemalloc.start()
    try:
        fac = spacetime.nearly_kgmd(mats, n_ext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32e6
    kept = 2 * n
    assert fac.kept_dim == kept and fac.v.shape == (n * n_ext, kept)
    assert np.max(np.abs(fac.v.conj().T @ fac.v - np.eye(kept))) <= 1e-13
    for (u, t), a in zip(fac.users, mats):
        # ext(A) @ v, one n-row block of v at a time
        ext_v = (a @ fac.v.reshape(n_ext, n, kept)).reshape(n * n_ext, kept)
        assert np.max(np.abs(u.conj().T @ u - np.eye(kept))) <= 1e-13
        assert np.linalg.norm(u.conj().T @ ext_v - t) <= 1e-13 * np.linalg.norm(a)
        assert np.max(np.abs(np.tril(t, -1))) == 0.0
        assert np.max(np.abs(np.diag(t) - 1.0)) <= 1e-13
