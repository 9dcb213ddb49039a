"""Dense complex matrix core: QR/SVD wrappers with fixed conventions,
2x2 adjugate, time extension, multiplicative majorization, and the JSON
matrix interchange format.

Matrices are numpy ``complex128`` 2-D arrays throughout the package.
All index lists crossing the API (kept indices, :func:`positions`) are
1-based; numpy storage is 0-based internally.

JSON text is written by one function, :func:`dumps`.  Its output is byte
for byte ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of
the document with every matrix replaced by :func:`matrix_to_json`, but it
writes a matrix as runs of equal [re, im] pairs: pairs are equal when the
bits of both parts are (so ``0.0`` and ``-0.0`` stay apart), each distinct
pair is formatted once with ``float.__repr__``, which is what ``json``
uses, and a run is its pair's text repeated.  The banded, block-periodic
time-extension factors hold few runs and fewer distinct pairs, so their
cost is the O(entries) numpy work of finding the runs.
"""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DuplicateIndexError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonPositiveEntryError,
    NotFiniteError,
    NoConvergenceError,
    NumericalError,
    ParseError,
    RankDeficientError,
    ShapeMismatchError,
)

# Shared tolerances (absolute on unit-scaled data unless noted).
TOL_ZERO = 1e-9
TOL_RANK = 1e-12      # relative
TOL_MAJOR = 1e-9      # on log-products


def as_cmatrix(a):
    """Coerce to a finite complex128 2-D array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise LengthMismatchError("expected a 2-D matrix, got ndim=%d" % m.ndim)
    if not np.all(np.isfinite(m)):
        raise NotFiniteError("matrix contains non-finite entries")
    return m


@dataclass
class QrFactors:
    q: np.ndarray   # orthonormal columns
    r: np.ndarray   # upper-triangular, real positive diagonal


@dataclass
class SvdFactors:
    u: np.ndarray
    sigma: np.ndarray   # non-increasing, real >= 0
    v: np.ndarray       # a = u @ diag(sigma) @ v.conj().T


def _positive_diagonal(q, r, scale):
    """The QR convention shared by qr and block_qr, on one factor pair or a
    stack of them: a diagonal entry of R at or below TOL_RANK * scale is
    rank deficiency; otherwise unit phases move from R's diagonal into Q's
    columns, leaving it real and positive, with exact zeros below it."""
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if np.any(np.abs(diag) <= TOL_RANK * scale):
        raise RankDeficientError("column residual below %g of the input norm" % TOL_RANK)
    phases = diag / np.abs(diag)
    q = q * phases[..., np.newaxis, :]
    r = phases.conj()[..., :, np.newaxis] * r
    cols = r.shape[-1]
    r[..., np.tri(cols, k=-1, dtype=bool)] = 0.0
    idx = np.arange(cols)
    r[..., idx, idx] = r[..., idx, idx].real
    return q, r


def qr(a):
    """Thin QR with the positive-diagonal convention.

    The diagonal of R is forced real and positive by absorbing unit phases
    into the columns of Q.  This makes the factorization unique for
    full-column-rank input, which the joint constructions rely on:
    qr(c*I @ V) returns Q = V (up to roundoff), R = c*I for unitary V, c > 0.
    """
    m = as_cmatrix(a)
    rows, cols = m.shape
    if cols > rows:
        raise RankDeficientError("more columns (%d) than rows (%d)" % (cols, rows))
    q, r = np.linalg.qr(m, mode="reduced")
    q, r = _positive_diagonal(q, r, np.linalg.norm(m))
    return QrFactors(q=q, r=r)


def block_qr(rows):
    """QR of square matrices that are upper triangular in aligned n x n
    blocks, held as block rows.

    ``rows`` is a (..., G, n, W) stack, W >= n: block row j of a matrix
    holds its columns nj .. nj + W - 1, diagonal block first, with zeros
    where those pass the last column (the part left of the diagonal block
    is zero and not stored).  Such a matrix is blockdiag(Q_1, ..., Q_G) @ R:
    each Q_j is the QR factor of the diagonal block alone, and block row j
    of R is Q_j^H times block row j.  Returns the (..., G, n, n) stack of
    the Q_j and R in the layout of ``rows``, under the conventions of
    :func:`qr` (finite input, rank threshold relative to the Frobenius norm
    of each matrix, real positive diagonal, exact zeros below it), for
    O(n^2 W G) work.
    """
    m = np.asarray(rows, dtype=np.complex128)
    if m.ndim < 3 or m.shape[-1] < m.shape[-2]:
        raise LengthMismatchError("block rows of shape %s do not hold their diagonal blocks"
                                  % (m.shape,))
    if not np.all(np.isfinite(m)):
        raise NotFiniteError("matrix contains non-finite entries")
    n = m.shape[-2]
    q, r_diag = np.linalg.qr(m[..., :n])
    scale = np.linalg.norm(m.reshape(*m.shape[:-3], -1), axis=-1)
    q, r_diag = _positive_diagonal(q, r_diag, scale[..., np.newaxis, np.newaxis])
    r = np.matmul(q.conj().swapaxes(-1, -2), m)
    r[..., :n] = r_diag
    return q, r


def svd(a):
    """Full SVD, sigma sorted non-increasingly; a = u @ diag(sigma) @ v^H."""
    m = as_cmatrix(a)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    return SvdFactors(u=u, sigma=s, v=vh.conj().T)


def adjugate(a):
    """Adjugate of a 2x2 matrix, [[d, -b], [-c, a]]: polynomial in the
    entries, so it is well defined for singular input.  Any other shape
    raises ShapeMismatchError."""
    if np.shape(a) != (2, 2):
        raise ShapeMismatchError("adjugate needs a 2x2 matrix, got shape %s" % (np.shape(a),))
    m = as_cmatrix(a)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def time_extend(a, n_ext):
    """Block-diagonal matrix with ``n_ext`` copies of ``a``.

    The blocks are copied into zeros: a Kronecker product with I would
    multiply O(n_ext^2) blocks of zeros and leave -0.0 wherever ``a`` has
    a negative part.
    """
    m = as_cmatrix(a)
    if n_ext < 1:
        raise LengthMismatchError("n_ext must be >= 1")
    rows, cols = m.shape
    out = np.zeros((n_ext, rows, n_ext, cols), dtype=np.complex128)
    idx = np.arange(n_ext)
    out[idx, :, idx, :] = m
    return out.reshape(n_ext * rows, n_ext * cols)


def positions(n, indices):
    """0-based int array of the 1-based ``indices``, each in 1..n and
    none listed twice."""
    idx = list(indices)
    seen = set()
    for i in idx:
        if not 1 <= i <= n:
            raise IndexOutOfRangeError("index %r outside 1..%d" % (i, n))
        if i in seen:
            raise DuplicateIndexError("index %r listed twice" % (i,))
        seen.add(i)
    return np.array(idx, dtype=np.int64) - 1


def first_failing_group(sigma, log_products, sizes=None):
    """The multiplicative-majorization test behind every feasibility check.

    The target is given as groups: group i holds ``sizes[i]`` entries
    (default 1 each) whose logs sum to ``log_products[i]``.  Taking the
    groups in decreasing order of their mean log, the prefix log-product
    after each group must not exceed that of as many of the largest
    ``sigma`` by more than TOL_MAJOR, and the totals must agree to within
    TOL_MAJOR.  Returns the 1-based position, in that order, of the first
    group whose condition fails (the last group for a total mismatch), or
    None when ``sigma`` majorizes the target.
    """
    logs = np.asarray(log_products, dtype=float)
    counts = np.ones(logs.size, dtype=int) if sizes is None else np.asarray(sizes, dtype=int)
    order = np.argsort(-logs / counts, kind="stable")
    lhs = np.cumsum(logs[order])
    rhs = np.cumsum(np.sort(np.log(sigma))[::-1])[np.cumsum(counts[order]) - 1]
    bad = np.flatnonzero(lhs[:-1] > rhs[:-1] + TOL_MAJOR)
    if bad.size:
        return int(bad[0]) + 1
    if abs(lhs[-1] - rhs[-1]) > TOL_MAJOR:
        return lhs.size
    return None


def majorizes(x, y):
    """Multiplicative majorization x >= y.

    True iff the sorted prefix products of x dominate those of y and the
    total products agree, compared on the log scale with TOL_MAJOR slack
    (so exact boundary cases such as the constant-diagonal target pass).
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or yv.ndim != 1 or xv.size != yv.size:
        raise LengthMismatchError("majorizes needs two equal-length vectors")
    if xv.size == 0:
        return True
    if np.any(xv <= 0) or np.any(yv <= 0):
        raise NonPositiveEntryError("majorization is defined for positive vectors")
    return first_failing_group(xv, np.log(yv)) is None


# --- JSON interchange --------------------------------------------------------


def matrix_to_json(a):
    """Matrix as {"rows", "cols", "data": [[re, im], ...]} in row-major order.

    Floats survive a JSON round trip exactly (serialized with Python's
    shortest round-trip decimal representation).
    """
    m = as_cmatrix(a)
    rows, cols = m.shape
    return {
        "rows": rows,
        "cols": cols,
        "data": np.stack([m.real, m.imag], -1).reshape(-1, 2).tolist(),
    }


def matrix_from_json(obj):
    """Inverse of :func:`matrix_to_json`, exact to the bit (signed zeros
    included).  Anything but a rows*cols list of [re, im] number pairs is a
    ParseError; a JSON null is refused, not read as NaN."""
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (TypeError, KeyError, ValueError) as exc:
        raise ParseError("matrix object needs rows/cols/data fields") from exc
    if rows < 0 or cols < 0:
        raise ParseError("negative matrix size %d x %d" % (rows, cols))
    try:
        pairs = np.array(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError("data must be a list of [re, im] number pairs") from exc
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.shape != (rows * cols, 2):
        raise ParseError("data of shape %s does not hold %d x %d [re, im] pairs"
                         % (pairs.shape, rows, cols))
    # numpy reads "1.5" and true as numbers and null as NaN; a JSON number
    # loads as int or float (a literal NaN passes: as_cmatrix rejects it)
    if not set(map(type, chain.from_iterable(data))) <= {int, float}:
        raise ParseError("data holds a string, boolean or null where a number is expected")
    return pairs.view(np.complex128).reshape(rows, cols)


# one encoder for every scalar, key and array-free subtree: json.dumps with
# non-default options would build a new encoder on each call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _holds_array(obj):
    if isinstance(obj, np.ndarray):
        return True
    if isinstance(obj, dict):
        return any(_holds_array(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_holds_array(v) for v in obj)
    return False


def _distinct_pairs(values):
    """The distinct entries of the complex array ``values``, told apart by
    their bits, in order of first appearance; and for each entry the index
    of its value among them."""
    first = {}
    # map draws len(first) before each call, so a new key is stored with
    # the number of keys before it: its index
    index = np.fromiter(map(first.setdefault, values.view("V16").tolist(),
                            iter(first.__len__, None)), dtype=np.intp, count=values.size)
    return np.fromiter(first, dtype="V16", count=len(first)).view(np.complex128), index


def _runs(m):
    """The text of ``m``'s [re, im] pairs in row-major order, as json writes
    them, cut into runs of equal pairs: joined, they are the matrix's data.

    Pairs are equal when the bits of re and im are, so 0.0 and -0.0 stay
    apart.  Each distinct pair among the runs is formatted once, and a run
    is its pair's text repeated: past O(entries) numpy work, the cost is in
    proportion to the runs and the distinct pairs.
    """
    flat = np.ascontiguousarray(m).reshape(-1)
    count = flat.size
    if count == 0:
        return []
    pairs = flat.view(np.int64).reshape(count, 2)
    differ = pairs[1:] != pairs[:-1]
    edge = np.empty(count + 1, dtype=bool)
    np.logical_or(differ[:, 0], differ[:, 1], out=edge[1:count])
    # the last pair is a run of its own: its text alone has no comma
    edge[0] = edge[count - 1] = edge[count] = True
    edges = edge.nonzero()[0]
    starts = edges[:-1]
    values, index = _distinct_pairs(flat[starts])
    if not np.isfinite(values).all():
        raise NumericalError("output holds a non-finite matrix entry")
    texts = np.array([f"[{z.real!r},{z.imag!r}]," for z in values.tolist()], dtype=object)
    runs = (texts[index] * (edges[1:] - starts)).tolist()
    runs[-1] = runs[-1][:-1]
    return runs


def _write(obj, out):
    if isinstance(obj, np.ndarray):
        m = np.asarray(obj, dtype=np.complex128)
        if m.ndim != 2:
            raise LengthMismatchError("expected a 2-D matrix, got ndim=%d" % m.ndim)
        out.append('{"cols":%d,"data":[' % m.shape[1])
        # joined once _runs has returned, and its arrays are freed
        out.append("".join(_runs(m)))
        out.append('],"rows":%d}' % m.shape[0])
    elif isinstance(obj, dict) and _holds_array(obj):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError("keys of a dict holding arrays must be str, not %r" % (key,))
            out.append('%s%s:' % ("," if i else "", _ENCODER.encode(key)))
            _write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)) and _holds_array(obj):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    else:
        try:
            out.append(_ENCODER.encode(obj))
        except ValueError as exc:
            raise NumericalError("output holds a non-finite number: %s" % exc) from exc


def dumps(obj):
    """Compact JSON text of ``obj``, in which every ndarray is written as
    its matrix object :func:`matrix_to_json`.

    The text equals ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
    of that document byte for byte.  Each matrix is written on its own, as
    runs of equal pairs (:func:`_runs`), so the work beyond numpy's
    is in proportion to its runs and distinct pairs, and the memory beyond
    the text to one matrix at a time.  A non-finite number, in a matrix or
    as a scalar, raises NumericalError, so the text never holds NaN or
    Infinity.  A subtree that holds no array goes to the json encoder whole.
    """
    out = []
    _write(obj, out)
    return "".join(out)
