import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jtri import gtd, matcore, multicast
from jtri.errors import DimensionError, NumericalError, ParseError
from util import (
    embed,
    extraction_matrix,
    matrix_to_json_per_entry,
    per_entry_document,
    rand_complex,
    rand_unitary,
)


def test_qr_identity():
    fac = matcore.qr(np.eye(3))
    assert np.allclose(fac.q, np.eye(3))
    assert np.allclose(fac.r, np.eye(3))


def test_qr_reconstruction_random_tall():
    rng = np.random.default_rng(1)
    a = rand_complex(rng, 4, 3)
    fac = matcore.qr(a)
    assert np.linalg.norm(fac.q @ fac.r - a) <= 1e-10 * np.linalg.norm(a)
    assert np.max(np.abs(fac.q.conj().T @ fac.q - np.eye(3))) < 1e-12
    assert np.all(np.real(np.diag(fac.r)) > 0)


def test_qr_scaled_unitary_invariance():
    # qr(c*I @ V) returns R = c*I and Q = V for unitary V, c > 0
    rng = np.random.default_rng(2)
    for c in (0.1, 1.0, 7.0):
        v = rand_unitary(rng, 4)
        fac = matcore.qr(c * v)
        off = fac.r - np.diag(np.diag(fac.r))
        assert np.max(np.abs(off)) <= 1e-10
        assert np.max(np.abs(np.diag(fac.r) - c)) <= 1e-10
        assert np.max(np.abs(fac.q - v)) <= 1e-10


def test_qr_reconstruction_bound_up_to_32():
    rng = np.random.default_rng(3)
    for n in (2, 8, 17, 32):
        a = rand_complex(rng, n)
        fac = matcore.qr(a)
        assert np.linalg.norm(fac.q @ fac.r - a) <= 1e-9 * np.linalg.norm(a)


def test_qr_rank_deficient():
    a = np.ones((3, 2), dtype=complex)
    with pytest.raises(NumericalError, match="column residual below"):
        matcore.qr(a)


def test_all_zero_and_tiny_inputs():
    # the rank, singularity and pivot thresholds scale with the input: an
    # all-zero input meets them (0 <= 0), a tiny nonzero one does not
    zero = np.zeros((2, 2))
    with pytest.raises(NumericalError, match="column residual below"):
        matcore.qr(zero)
    with pytest.raises(NumericalError, match="column residual below"):
        matcore.qr(np.stack([np.eye(2), zero]))
    with pytest.raises(NumericalError, match="singular to working precision"):
        gtd.gmd(zero)
    assert np.array_equal(multicast.cov_sqrt(zero), zero)
    rng = np.random.default_rng(22)
    a = rand_complex(rng, 3)
    c = a @ a.conj().T
    for scale in (1e-280, 1e-300, 1e-305):
        fac = matcore.qr(scale * a)
        stacked = matcore.qr(scale * np.stack([a, a.T]))
        g = gtd.gmd(scale * a)
        b = multicast.cov_sqrt(scale * c)
        for rec, m in ((fac.q @ (fac.r / scale), a),
                       (stacked.q[0] @ (stacked.r[0] / scale), a),
                       (stacked.q[1] @ (stacked.r[1] / scale), a.T),
                       (g.u @ (g.r / scale) @ g.v.conj().T, a), (b @ (b.conj().T / scale), c)):
            assert np.max(np.abs(rec - m)) <= 1e-13 * np.max(np.abs(m))


def test_svd_diagonal_and_unitary():
    fac = matcore.svd(np.diag([3.0, 1.0]))
    assert np.allclose(fac.sigma, [3.0, 1.0])
    rng = np.random.default_rng(4)
    u = rand_unitary(rng, 3)
    assert np.max(np.abs(matcore.svd(u).sigma - 1.0)) < 1e-12


def test_svd_versus_characteristic_roots():
    # 2x2 case: singular values from the roots of det(A^H A - t I)
    a = np.array([[1.5, 1.0], [0.5, 1.0]], dtype=complex)
    fac = matcore.svd(a)
    gram = a.conj().T @ a
    tr = np.trace(gram).real
    dt = np.linalg.det(gram).real
    roots = np.roots([1.0, -tr, dt])
    expect = np.sort(np.sqrt(np.abs(roots)))[::-1]
    assert np.allclose(fac.sigma, expect, atol=1e-12)
    assert abs(fac.sigma[0] * fac.sigma[1] - abs(np.linalg.det(a))) < 1e-12
    rec = fac.u @ np.diag(fac.sigma) @ fac.v.conj().T
    assert np.linalg.norm(rec - a) < 1e-12


def test_adjugate_closed_forms():
    a = np.array([[1.0 + 2j, 3.0], [4.0, 5.0 - 1j]])
    adj = matcore.adjugate(a)
    assert np.array_equal(adj, [[5.0 - 1j, -3.0], [-4.0, 1.0 + 2j]])
    assert np.array_equal(matcore.adjugate(np.eye(2)), np.eye(2))
    for shape in ((2, 3), (3, 3), (1, 1), (2,)):
        with pytest.raises(DimensionError, match="adjugate needs a 2x2 matrix"):
            matcore.adjugate(np.ones(shape))


def test_adjugate_matches_det_times_inverse():
    rng = np.random.default_rng(5)
    a = rand_complex(rng, 2)
    adj = matcore.adjugate(a)
    expect = np.linalg.det(a) * np.linalg.inv(a)
    assert np.max(np.abs(adj - expect)) < 1e-10 * np.max(np.abs(expect))
    # defining identity, valid regardless of invertibility
    for m in (a, np.outer(a[:, 0], a[1])):
        assert np.max(np.abs(m @ matcore.adjugate(m) - np.linalg.det(m) * np.eye(2))) < 1e-10


def test_time_extend():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.array_equal(matcore.time_extend(a, 1), a)
    ext = matcore.time_extend(a, 3)
    assert ext.shape == (6, 6)
    assert np.array_equal(ext[2:4, 2:4], a)
    assert np.max(np.abs(ext[0:2, 2:4])) == 0
    d = np.linalg.det(ext)
    assert abs(d - np.linalg.det(a) ** 3) < 1e-9 * abs(d)


def test_extraction_matrix():
    e = extraction_matrix(5, [4, 1, 5])
    expect = np.zeros((5, 3))
    expect[3, 0] = expect[0, 1] = expect[4, 2] = 1.0
    assert np.array_equal(e.real, expect)
    assert np.allclose(e.conj().T @ e, np.eye(3))
    assert np.array_equal(extraction_matrix(4, range(1, 5)).real, np.eye(4))
    with pytest.raises(DimensionError, match="outside 1..3"):
        extraction_matrix(3, [0])
    with pytest.raises(DimensionError, match="listed twice"):
        extraction_matrix(3, [1, 1])


def test_extraction_picks_submatrix():
    rng = np.random.default_rng(6)
    a = rand_complex(rng, 6)
    idx = [2, 5, 3]
    e = extraction_matrix(6, idx)
    sub = e.conj().T @ a @ e
    for i, gi in enumerate(idx):
        for j, gj in enumerate(idx):
            assert sub[i, j] == a[gi - 1, gj - 1]


def test_embed_worked_example():
    b = np.array([[11.0, 2.0], [3.0, 4.0]], dtype=complex)
    out = embed(4, b, [(1, 3), (2, 4)])
    expect = np.array([
        [11, 0, 2, 0],
        [0, 11, 0, 2],
        [3, 0, 4, 0],
        [0, 3, 0, 4],
    ], dtype=complex)
    assert np.array_equal(out, expect)


def test_embed_identity_and_unitarity():
    assert np.array_equal(embed(5, np.eye(2), [(2, 4)]), np.eye(5))
    rng = np.random.default_rng(7)
    u = rand_unitary(rng, 2)
    big = embed(6, u, [(1, 4), (2, 5)])
    assert np.max(np.abs(big.conj().T @ big - np.eye(6))) < 1e-12


def test_embed_errors():
    with pytest.raises(DimensionError, match="appears in two groups"):
        embed(4, np.eye(2), [(1, 2), (2, 3)])
    with pytest.raises(DimensionError, match="outside 1..4"):
        embed(4, np.eye(2), [(1, 5)])


def test_embed_extract_duality_bitexact():
    rng = np.random.default_rng(8)
    b = rand_complex(rng, 3)
    group = (2, 6, 4)
    big = embed(7, b, [group])
    e = extraction_matrix(7, group)
    back = e.conj().T @ big @ e
    assert np.array_equal(back, b)


def test_majorizes_basics():
    assert matcore.majorizes([2.0, 0.5], [1.0, 1.0])
    assert not matcore.majorizes([1.0, 1.0], [2.0, 0.5])
    with pytest.raises(DimensionError, match="equal-length vectors"):
        matcore.majorizes([1.0], [1.0, 2.0])
    with pytest.raises(DimensionError, match="positive vectors"):
        matcore.majorizes([1.0, -1.0], [1.0, 1.0])


def test_majorizes_permutation_symmetry():
    rng = np.random.default_rng(9)
    sig = np.exp(rng.standard_normal(6))
    perm = rng.permutation(sig)
    assert matcore.majorizes(sig, perm)
    assert matcore.majorizes(perm, sig)


def test_majorizes_sigma_vs_geometric_mean():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5):
        a = rand_complex(rng, n)
        sig = matcore.svd(a).sigma
        g = np.exp(np.mean(np.log(sig)))
        assert matcore.majorizes(sig, np.full(n, g))


def test_json_round_trip_exact():
    rng = np.random.default_rng(11)
    a = rand_complex(rng, 4, 3) * np.exp(rng.standard_normal((4, 3)) * 20)
    a[0, 0] = complex(-0.0, 0.0)
    a[1, 2] = complex(0.0, -0.0)
    a[2, 1] = complex(-0.0, -0.0)
    a[3, 0] = complex(5e-324, -1e300)
    text = json.dumps(matrix_to_json_per_entry(a))
    back = matcore.matrix_from_json(json.loads(text))
    assert back.shape == a.shape
    assert np.array_equal(back.view(np.int64), a.view(np.int64))
    back = matcore.matrix_from_json(json.loads(matcore.dumps(a)))
    assert np.array_equal(back.view(np.int64), a.view(np.int64))
    empty = matcore.matrix_from_json({"rows": 0, "cols": 3, "data": []})
    assert empty.shape == (0, 3)


def test_json_parse_errors():
    with pytest.raises(ParseError):
        matcore.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(ParseError):
        matcore.matrix_from_json({"rows": 1})
    with pytest.raises(ParseError):
        matcore.matrix_from_json({"rows": "two", "cols": 1, "data": [[1, 0]]})
    with pytest.raises(ParseError):
        matcore.matrix_from_json({"rows": -1, "cols": -1, "data": [[1, 0]]})
    # null must not turn into NaN, nor a numeric string or a boolean into a
    # number; strings, nesting and wrong pair lengths are parse errors, not
    # uncaught TypeError/ValueError
    for data in ([[None, 0]], [[0, None]], [["abc", 0]], [[[1], 2]], [[1, 2, 3]],
                 [1, 2], 7, None, {"re": 1}, [["1.5", True]], [[1.5, False]], [["2", 0]],
                 [[True, 0.0]]):
        with pytest.raises(ParseError):
            matcore.matrix_from_json({"rows": 1, "cols": 1, "data": data})
    # sizes must be JSON integers: no overflowed float, no truncated 2.7,
    # no string, no boolean, and none past numpy's limit
    for rows, cols, count in ((1e400, 1, 1), (2.7, 1, 2), ("2", 1, 2), (True, 1, 1),
                              (1, False, 0), (10 ** 20, 0, 0)):
        with pytest.raises(ParseError):
            matcore.matrix_from_json({"rows": rows, "cols": cols, "data": [[1, 0]] * count})


def test_json_literal_nan_is_not_a_parse_error():
    # Python's json reads a NaN literal; it stays NaN and as_cmatrix
    # rejects it, while a null is a ParseError
    m = matcore.matrix_from_json(json.loads('{"rows":1,"cols":1,"data":[[NaN,0]]}'))
    assert np.isnan(m[0, 0].real)
    with pytest.raises(DimensionError, match="non-finite entries"):
        matcore.as_cmatrix(m)


# --- JSON writer ---------------------------------------------------------------

_SPECIAL = [0.0, -0.0, 1.0, -2.0, 3.0e16, 5e-324, -5e-324, 2.2250738585072014e-308,
            -2.225073858507201e-308, 1e300, -1e-300, 1.7976931348623157e308, 0.1]
_ENTRY = st.one_of(
    st.sampled_from(_SPECIAL),
    st.sampled_from([0.0, -0.0]),      # zeros weighted up, as in banded factors
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-2 ** 60, 2 ** 60).map(float),
)


@st.composite
def _matrices(draw):
    """Complex matrices of 0..5 rows and columns, some of them
    non-contiguous views (column slices, strided rows, transposes)."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))
    flat = draw(st.lists(st.tuples(_ENTRY, _ENTRY), min_size=2 * rows * cols,
                         max_size=2 * rows * cols))
    base = np.array([complex(x, y) for x, y in flat], dtype=np.complex128).reshape(2 * rows, cols)
    view = draw(st.sampled_from(("rows", "strided", "transpose", "columns")))
    if view == "rows":
        return base[:rows]
    if view == "strided":
        return base[::2]
    if view == "transpose":
        return base[:rows].T
    return base[:, :1]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAF = st.one_of(
    _matrices(), st.none(), st.booleans(), st.integers(-10 ** 20, 10 ** 20),
    _FINITE, _FINITE.map(np.float64), st.text(max_size=6), st.just([]), st.just({}))
_DOCUMENT = st.recursive(
    _LEAF,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)


def _oracle_text(doc):
    return json.dumps(per_entry_document(doc), sort_keys=True, separators=(",", ":"))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=_matrices())
def test_dumps_matrix_equals_per_entry_json(m):
    assert matcore.dumps(m) == _oracle_text(m)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=_DOCUMENT)
def test_dumps_document_equals_per_entry_json(doc):
    assert matcore.dumps(doc) == _oracle_text(doc)


_NONZERO = st.one_of(st.sampled_from([x for x in _SPECIAL if x != 0.0]),
                    st.floats(allow_nan=False, allow_infinity=False).filter(bool))


@st.composite
def _pair_pools(draw):
    """Pairs that the writer must keep apart: the four signed zeros, pairs
    with one part +-0.0 and the other nonzero, and pairs equal but for the
    sign of a zero part."""
    x, y = draw(_NONZERO), draw(_NONZERO)
    pool = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    pool += [complex(x, 0.0), complex(x, -0.0), complex(0.0, y), complex(-0.0, y), complex(x, y)]
    return pool


@st.composite
def _run_matrices(draw, pool=None, first=None):
    """Matrices of 0..6 rows and columns made of runs of equal pairs, in
    row-major order: a run may cross row boundaries and fill the matrix.
    Some come as transposed views, whose runs go down the columns.  With
    ``first``, the matrix starts with that pair."""
    pool = draw(_pair_pools()) if pool is None else pool
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 2 * cols + 2)),
                         min_size=1, max_size=rows * cols + 1))
    entries = [] if first is None else [first]
    for value, length in runs:
        entries += [value] * length
    entries += entries[-1:] * (rows * cols - len(entries))
    flat = np.array(entries[:rows * cols], dtype=np.complex128)
    if draw(st.booleans()):
        return flat.reshape(cols, rows).T
    return flat.reshape(rows, cols)


@st.composite
def _run_documents(draw):
    """Lists or tuples of run matrices in which each matrix starts with the
    pair the one before it ends with, with 0 x k and k x 0 matrices, empty
    lists and dicts and np.float64 scalars between them."""
    pool = draw(_pair_pools())
    doc = [draw(_run_matrices(pool))]
    for _ in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(0, 3))
            doc.append(draw(st.sampled_from([
                np.zeros((0, k), dtype=complex), np.zeros((k, 0), dtype=complex), [], {},
                np.float64(draw(st.sampled_from(_SPECIAL)))])))
        last = next((m for m in reversed(doc) if isinstance(m, np.ndarray) and m.size), None)
        doc.append(draw(_run_matrices(pool, None if last is None else last[-1, -1])))
    return tuple(doc) if draw(st.booleans()) else doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=_run_matrices())
def test_dumps_run_matrix_equals_per_entry_json(m):
    assert matcore.dumps(m) == _oracle_text(m)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(doc=_run_documents())
def test_dumps_run_document_equals_per_entry_json(doc):
    assert matcore.dumps(doc) == _oracle_text(doc)
    assert matcore.dumps({"m": doc}) == _oracle_text({"m": doc})


def test_dumps_signed_zero_table():
    m = np.array([[complex(0.0, 0.0), complex(0.0, -0.0)],
                  [complex(-0.0, 0.0), complex(-0.0, -0.0)],
                  [complex(-0.0, 2.5), complex(1e-300, -0.0)]])
    assert matcore.dumps(m) == (
        '{"cols":2,"data":[[0.0,0.0],[0.0,-0.0],[-0.0,0.0],[-0.0,-0.0],'
        '[-0.0,2.5],[1e-300,-0.0]],"rows":3}')
    # runs that cross rows and end the matrix, next to pairs equal to them
    # but for the sign of a zero
    m = np.array([0j, 0j, complex(0.0, -0.0), complex(0.0, -0.0), complex(0.0, -0.0),
                  2.5 + 0j, complex(2.5, -0.0), 0j, 0j]).reshape(3, 3)
    assert matcore.dumps(m) == (
        '{"cols":3,"data":[[0.0,0.0],[0.0,0.0],[0.0,-0.0],[0.0,-0.0],[0.0,-0.0],'
        '[2.5,0.0],[2.5,-0.0],[0.0,0.0],[0.0,0.0]],"rows":3}')


# the writer's mark for a matrix's place in json's text
_MARK = "\0jtri-matrix\0"


@pytest.mark.parametrize("doc", [
    {_MARK: 1, "m": np.eye(2)},
    {"m": np.eye(2), "s": [_MARK]},
    # the escaped quote before the mark opens a quoted mark too
    (np.zeros((0, 2)), 'x"' + _MARK),
])
def test_dumps_refuses_the_mark_next_to_arrays(doc):
    with pytest.raises(ValueError, match="mark"):
        matcore.dumps(doc)


def test_dumps_writes_marks_and_int_keys_as_json_does():
    # without arrays the mark is a string like any other; int keys are
    # written as json writes them, arrays or not
    for doc in ({_MARK: [_MARK, "x" + _MARK]}, {2: np.eye(1), 10: [np.zeros((0, 2)), {3: 1}]}):
        assert matcore.dumps(doc) == _oracle_text(doc)


def test_dumps_rejects_non_finite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericalError):
            matcore.dumps({"x": bad})
        with pytest.raises(NumericalError):
            matcore.dumps({"m": np.eye(2), "x": [1.0, bad]})
        with pytest.raises(NumericalError):
            matcore.dumps({"m": np.array([[1.0, bad]])})


# --- block Toeplitz matrices ---------------------------------------------------


def _toeplitz_reference(block, rows, cols, row_step, col_step):
    """The dense block Toeplitz matrix, one block at a time."""
    out = np.zeros((rows, cols), dtype=complex)
    j = 0
    while row_step * j < rows and col_step * j < cols:
        cut = out[row_step * j:row_step * j + block.shape[0],
                  col_step * j:col_step * j + block.shape[1]]
        cut[...] = block[:cut.shape[0], :cut.shape[1]]
        j += 1
    return out


@st.composite
def _toeplitz(draw, pool=None):
    """BlockToeplitz matrices on generators of 0..4 rows and columns made of
    a few pairs (signed zeros among them, and repeated), at steps 1..4
    with h <= row_step or w <= col_step, up to 40 x 40: blocks cut at the
    right or bottom edge, matrices shorter than one period, 0 x k and
    k x 0 matrices."""
    pool = draw(_pair_pools()) if pool is None else pool
    row_step, col_step = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        h, w = draw(st.integers(0, row_step)), draw(st.integers(0, 4))
    else:
        h, w = draw(st.integers(0, 4)), draw(st.integers(0, col_step))
    block = np.array(draw(st.lists(st.sampled_from(pool), min_size=h * w, max_size=h * w)),
                     dtype=np.complex128).reshape(h, w)
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    return matcore.BlockToeplitz(block, rows, cols, row_step, col_step)


def _densified(doc):
    if isinstance(doc, matcore.BlockToeplitz):
        return doc.to_dense()
    if isinstance(doc, dict):
        return {key: _densified(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(_densified(value) for value in doc)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(m=_toeplitz())
def test_block_toeplitz_to_dense_places_each_block(m):
    assert m.shape == (m.rows, m.cols)
    dense = m.to_dense()
    want = _toeplitz_reference(m.block, m.rows, m.cols, m.row_step, m.col_step)
    assert dense.shape == m.shape
    assert np.array_equal(dense.view(np.int64), want.view(np.int64))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_dumps_of_generators_is_dumps_of_dense(data):
    pool = data.draw(_pair_pools())
    doc = data.draw(st.lists(st.one_of(_toeplitz(pool), st.sampled_from([1.5, "x", None])),
                             min_size=1, max_size=4))
    doc = {"m": doc[0], "rest": doc[1:]}
    text = matcore.dumps(_densified(doc))
    assert matcore.dumps(doc) == text
    assert b"".join(matcore.pieces(doc)) == text.encode()


def test_dumps_of_long_generators_repeats_one_period():
    # factor-shaped generators, long enough that the text is a head, one
    # period repeated and a tail
    rng = np.random.default_rng(5)
    block = np.triu(rand_complex(rng, 2, 8))
    block[1, 3] = complex(-0.0, 0.0)
    for m in (matcore.BlockToeplitz(block, 200, 200, 2, 2),
              matcore.BlockToeplitz(block.T.copy(), 300, 290, 2, 2),
              matcore.BlockToeplitz(block[:, :3], 97, 151, 2, 5)):
        assert matcore.dumps(m) == matcore.dumps(m.to_dense()) == _oracle_text(m.to_dense())


def test_block_toeplitz_rejects_overlap_and_bad_sizes():
    with pytest.raises(DimensionError, match="overlap"):
        matcore.BlockToeplitz(np.ones((3, 3)), 9, 9, 2, 2)
    for args in ((9, 9, 0, 2), (-1, 9, 2, 2), (9, 9, 2, 0)):
        with pytest.raises(DimensionError):
            matcore.BlockToeplitz(np.ones((2, 2)), *args)
    with pytest.raises(DimensionError, match="stack"):
        matcore.BlockToeplitz(np.ones(2), 4, 4, 2, 2)


def test_block_toeplitz_stack_is_its_matrices():
    # a stack of generators is the stack of their matrices; the writer
    # takes one matrix at a time
    rng = np.random.default_rng(6)
    blocks = rand_complex(rng, 6, 2).reshape(3, 2, 2)
    stack = matcore.BlockToeplitz(blocks, 9, 7, 2, 3)
    assert stack.shape == (3, 9, 7)
    assert np.array_equal(stack.to_dense(), np.stack(
        [matcore.BlockToeplitz(b, 9, 7, 2, 3).to_dense() for b in blocks]))
    with pytest.raises(DimensionError, match="2-D"):
        matcore.dumps({"m": stack})


def test_dumps_of_generators_rejects_non_finite():
    # an entry the matrix holds, whether the writer repeats it or not, and
    # one that every block cuts off, which the matrix does not hold
    for bad in (float("nan"), float("inf"), -float("inf")):
        block = np.ones((2, 4), dtype=complex)
        block[1, 2] = bad
        for size in (4, 100):
            m = matcore.BlockToeplitz(block, size, size, 2, 2)
            for doc in (m, m.to_dense()):
                with pytest.raises(NumericalError, match="non-finite"):
                    matcore.dumps({"m": doc})
        block = np.ones((4, 2), dtype=complex)
        block[3, 0] = bad
        m = matcore.BlockToeplitz(block, 3, 60, 3, 2)
        assert matcore.dumps(m) == matcore.dumps(m.to_dense())


# --- QR rank threshold ---------------------------------------------------------


def _block_upper(rng, n, g, scale=1.0):
    """Random complex matrix, upper triangular in aligned n x n blocks,
    whose diagonal blocks are well conditioned."""
    a = rand_complex(rng, n * g)
    block_of = np.arange(n * g) // n
    a[block_of[:, None] > block_of[None, :]] = 0.0
    a += 3.0 * n * np.eye(n * g)
    return scale * a


def test_qr_rank_threshold_is_relative_to_each_matrix():
    # in a matrix upper triangular in blocks, a diagonal block
    # u @ diag(1, eps) puts eps on R's diagonal; QR rejects it below
    # TOL_RANK * ||a||_F and accepts it above, and in a stack each matrix is
    # held to its own norm
    rng = np.random.default_rng(20)
    n, g = 2, 5
    base = _block_upper(rng, n, g)
    for ratio, raises in ((0.5, True), (2.0, False)):
        a = base.copy()
        eps = ratio * matcore.TOL_RANK * np.linalg.norm(a)
        a[4:6, 4:6] = rand_unitary(rng, 2) @ np.diag([1.0, eps])
        louder = np.stack([1e3 * base, a])
        for factor in (matcore.qr, lambda m: matcore.qr(louder)):
            if raises:
                with pytest.raises(NumericalError, match="column residual below"):
                    factor(a)
            else:
                factor(a)


def test_hermitian_part_boundary():
    # TOL_ZERO * (max|M| + 1) = 4e-9 here: an asymmetry of 1e-7 is out,
    # 1e-11 is roundoff and averages away
    with pytest.raises(NumericalError, match="not Hermitian"):
        matcore.hermitian_part(np.array([[2, 1], [1 + 1e-7, 3]]))
    h = matcore.hermitian_part(np.array([[2, 1], [1 + 1e-11, 3]]))
    assert np.array_equal(h, h.conj().T)
    assert abs(h[0, 1] - (1 + 0.5e-11)) < 1e-15
