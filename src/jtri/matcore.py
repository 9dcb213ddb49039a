"""Dense complex matrix core: QR/SVD wrappers with fixed conventions,
2x2 adjugate, time extension, multiplicative majorization, and the JSON
matrix interchange format.

Matrices are numpy ``complex128`` 2-D arrays throughout the package.
All index lists crossing the API (kept indices, :func:`positions`) are
1-based; numpy storage is 0-based internally.

JSON text is written by one function, :func:`dumps`.  Its output is byte
for byte ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of
the document with every matrix replaced by :func:`matrix_to_json`, but it
formats whole arrays at once: a pair whose two parts are both zero takes
its text from the four-entry signed-zero table ``[0.0,0.0]``,
``[0.0,-0.0]``, ``[-0.0,0.0]``, ``[-0.0,-0.0]`` (indexed by
``2 * signbit(re) + signbit(im)``), and only the other pairs go through
``float.__repr__``, which is what ``json`` uses.
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


# the text of an all-zero [re, im] pair, at 2 * signbit(re) + signbit(im)
_ZERO_PAIRS = np.array(["[0.0,0.0]", "[0.0,-0.0]", "[-0.0,0.0]", "[-0.0,-0.0]"], dtype=object)
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


def _write(obj, out):
    if isinstance(obj, np.ndarray):
        try:
            m = as_cmatrix(obj)
        except NotFiniteError as exc:
            raise NumericalError("output holds a non-finite matrix entry") from exc
        re = m.real.ravel()
        im = m.imag.ravel()
        parts = _ZERO_PAIRS[2 * np.signbit(re) + np.signbit(im)]
        nonzero = np.flatnonzero((re != 0.0) | (im != 0.0))
        r = float.__repr__
        parts[nonzero] = ["[%s,%s]" % (r(x), r(y))
                          for x, y in zip(re[nonzero].tolist(), im[nonzero].tolist())]
        out.append('{"cols":%d,"data":[' % m.shape[1])
        out.append(",".join(parts.tolist()))
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
    of that document byte for byte.  A non-finite number, in a matrix or
    as a scalar, raises NumericalError, so the text never holds NaN or
    Infinity.  A subtree that holds no array goes to the json encoder whole.
    """
    out = []
    _write(obj, out)
    return "".join(out)
