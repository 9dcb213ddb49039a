"""Dense complex matrix core: QR/SVD wrappers with fixed conventions,
2x2 adjugate, block Toeplitz matrices (the time extension among them),
multiplicative majorization, the shared input checks, and the JSON matrix
interchange format.

Matrices are numpy ``complex128`` 2-D arrays throughout the package, but
for the BlockToeplitz factors of ``spacetime.toeplitz_factors``.
Index lists crossing the API (kept indices) are 1-based; numpy storage is
0-based internally.

A matrix is the JSON object {"rows": n, "cols": m, "data": [[re, im], ...]},
row-major.  :func:`dumps` writes JSON text (json's encoder, with each
matrix's text in place of a mark string), and :func:`pieces` builds the same
text as a list of bytes pieces; :func:`matrix_from_json` reads one.  A
:class:`BlockToeplitz` is written from its generator: a head, one period's
text repeated, and a tail.
"""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionError, NumericalError, ParseError

# Shared tolerances (absolute on unit-scaled data unless noted).
TOL_ZERO = 1e-9
TOL_RANK = 1e-12      # relative
TOL_MAJOR = 1e-9      # on log-products


def _as_cstack(a):
    """Coerce to a finite complex128 array of one (..., rows, cols) matrix
    or stack of them."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise DimensionError("expected a matrix or a stack of them, got ndim=%d" % m.ndim)
    if not np.all(np.isfinite(m)):
        raise DimensionError("matrix contains non-finite entries")
    return m


def as_cmatrix(a):
    """Coerce to a finite complex128 2-D array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError("expected a 2-D matrix, got ndim=%d" % m.ndim)
    return _as_cstack(m)


def check_square_set(mats):
    """The matrices as :func:`as_cmatrix` arrays, and their common size n:
    there must be one or more, each square, nonempty and of one size."""
    out = [as_cmatrix(a) for a in mats]
    if not out:
        raise DimensionError("need at least one matrix")
    for m in out:
        if m.shape[0] != m.shape[1]:
            raise DimensionError("need square matrices, got %d x %d" % m.shape)
        if m.shape[0] == 0:
            raise DimensionError("need nonempty matrices")
        if m.shape != out[0].shape:
            raise DimensionError("all matrices must share one size")
    return out, out[0].shape[0]


def hermitian_part(a, what="matrix"):
    """(M + M^H) / 2 of the finite matrix M = ``a``, which must be Hermitian
    to within TOL_ZERO * (max|M| + 1) entrywise; otherwise NumericalError
    saying that ``what`` is not Hermitian."""
    m = as_cmatrix(a)
    if np.max(np.abs(m - m.conj().T)) > TOL_ZERO * (np.max(np.abs(m)) + 1.0):
        raise NumericalError("%s is not Hermitian" % what)
    return 0.5 * (m + m.conj().T)


@dataclass
class QrFactors:
    q: np.ndarray   # orthonormal columns
    r: np.ndarray   # upper-triangular, real positive diagonal


@dataclass
class SvdFactors:
    u: np.ndarray
    sigma: np.ndarray   # non-increasing, real >= 0
    v: np.ndarray       # a = u @ diag(sigma) @ v.conj().T


def qr(a):
    """Thin QR with the positive-diagonal convention, of one matrix or of
    each matrix of a (..., rows, cols) stack, held to its own norm.

    The diagonal of R is forced real and positive by absorbing unit phases
    into the columns of Q.  This makes the factorization unique for
    full-column-rank input, which the joint constructions rely on:
    qr(c*I @ V) returns Q = V (up to roundoff), R = c*I for unitary V, c > 0.
    """
    m = _as_cstack(a)
    rows, cols = m.shape[-2:]
    if cols > rows:
        raise NumericalError("more columns (%d) than rows (%d)" % (cols, rows))
    q, r = np.linalg.qr(m, mode="reduced")
    # a diagonal entry of R at or below TOL_RANK * ||a||_F is rank
    # deficiency; otherwise unit phases move from R's diagonal into Q's
    # columns, leaving it real and positive, with exact zeros below it
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if np.any(np.abs(diag) <= TOL_RANK * np.linalg.norm(m, axis=(-2, -1))[..., np.newaxis]):
        raise NumericalError("column residual below %g of the input norm" % TOL_RANK)
    phases = diag / np.abs(diag)
    q = q * phases[..., np.newaxis, :]
    r = phases.conj()[..., :, np.newaxis] * r
    r[..., np.tri(cols, k=-1, dtype=bool)] = 0.0
    idx = np.arange(cols)
    r[..., idx, idx] = r[..., idx, idx].real
    return QrFactors(q=q, r=r)


def svd(a):
    """Full SVD, sigma sorted non-increasingly; a = u @ diag(sigma) @ v^H."""
    m = as_cmatrix(a)
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(str(exc)) from exc
    return SvdFactors(u=u, sigma=s, v=vh.conj().T)


def adjugate(a):
    """Adjugate of a 2x2 matrix, [[d, -b], [-c, a]]: polynomial in the
    entries, so it is well defined for singular input.  Any other shape
    raises DimensionError."""
    if np.shape(a) != (2, 2):
        raise DimensionError("adjugate needs a 2x2 matrix, got shape %s" % (np.shape(a),))
    m = as_cmatrix(a)
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


@dataclass
class BlockToeplitz:
    """The (..., rows, cols) matrices holding ``block`` (..., h, w) at row
    row_step*j and column col_step*j for every j whose block starts inside
    the matrix, cut at its edge, and zeros elsewhere.  The blocks may not
    overlap: h <= row_step or w <= col_step."""
    block: np.ndarray
    rows: int
    cols: int
    row_step: int
    col_step: int

    def __post_init__(self):
        if self.block.ndim < 2:
            raise DimensionError("the generator must be a block or a stack of them, got ndim=%d"
                                 % self.block.ndim)
        h, w = self.block.shape[-2:]
        if min(self.rows, self.cols) < 0 or min(self.row_step, self.col_step) < 1:
            raise DimensionError("a block Toeplitz matrix needs sizes >= 0 and steps >= 1")
        if h > self.row_step and w > self.col_step:
            raise DimensionError("%d x %d blocks at steps (%d, %d) overlap"
                                 % (h, w, self.row_step, self.col_step))

    @property
    def shape(self):
        return (*self.block.shape[:-2], self.rows, self.cols)

    def to_dense(self):
        """The dense complex128 matrices."""
        return self._rows(0, self.rows, np.asarray(self.block, dtype=np.complex128))

    def _rows(self, start, stop, block):
        """Rows start..stop-1 of the matrices with ``block``, of the
        generator's shape, in its place, as a view of zeros that run on
        above and below them far enough to hold every block that reaches
        them: one copy into a strided view places all of these but the few
        cut at the right edge."""
        *stack, h, w = block.shape
        p, q = self.row_step, self.col_step
        first = max((start - h) // p + 1, 0)        # the first block to reach row start
        past = max(min(-(-stop // p), -(-self.cols // q)), first)
        whole = max(min(past, (self.cols - w) // q + 1) - first, 0)
        top = min(p * first, start)
        out = np.zeros((*stack, max(stop, p * past + h) - top, self.cols), dtype=block.dtype)
        if whole:
            *outer, rs, cs = out.strides
            np.ndarray((*stack, whole, h, w), out.dtype, out,
                       (p * first - top) * rs + q * first * cs,
                       (*outer, p * rs + q * cs, rs, cs))[...] = block[..., np.newaxis, :, :]
        for j in range(first + whole, past):
            cut = out[..., p * j - top:p * j - top + h, q * j:q * j + w]
            cut[...] = block[..., :cut.shape[-1]]
        return out[..., start - top:stop - top, :]


def time_extend(a, n_ext):
    """Block-diagonal matrix with ``n_ext`` copies of ``a``.

    The blocks are copied into zeros: a Kronecker product with I would
    multiply O(n_ext^2) blocks of zeros and leave -0.0 wherever ``a`` has
    a negative part.
    """
    m = as_cmatrix(a)
    if n_ext < 1:
        raise DimensionError("n_ext must be >= 1")
    rows, cols = m.shape
    # an empty block has nothing to place; a step of 0 would divide by zero
    return BlockToeplitz(m, n_ext * rows, n_ext * cols, max(rows, 1), max(cols, 1)).to_dense()


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
        raise DimensionError("majorizes needs two equal-length vectors")
    if xv.size == 0:
        return True
    if np.any(xv <= 0) or np.any(yv <= 0):
        raise DimensionError("majorization is defined for positive vectors")
    return first_failing_group(xv, np.log(yv)) is None


# --- JSON interchange --------------------------------------------------------


def matrix_from_json(obj):
    """The matrix of a loaded matrix object, as :func:`dumps` writes it,
    exact to the bit (signed zeros included).  Anything but integer rows and
    cols and a rows*cols list of [re, im] number pairs is a ParseError; a
    JSON null is refused, not read as NaN."""
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except (TypeError, KeyError) as exc:
        raise ParseError("matrix object needs rows/cols/data fields") from exc
    # a JSON integer loads as int; bool is a type of its own
    if type(rows) is not int or type(cols) is not int or rows < 0 or cols < 0:
        raise ParseError("matrix size %r x %r is not two integers >= 0" % (rows, cols))
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
    try:
        return pairs.view(np.complex128).reshape(rows, cols)
    except ValueError as exc:     # an empty matrix with a side past numpy's limit
        raise ParseError("matrix size %d x %d is too large" % (rows, cols)) from exc


# a matrix's place in json's text; long and with NULs, so that no short
# string of a document equals it
_MARK = "\0jtri-matrix\0"
_TOKEN = json.dumps(_MARK)


def _edges(keys, last):
    """Where the runs of equal rows of ``keys`` (n x k integers) start, and
    n; with ``last``, the last row is a run of its own."""
    count = len(keys)
    edge = np.empty(count + 1, dtype=bool)
    np.not_equal(keys[1:, 0], keys[:-1, 0], out=edge[1:count])
    for column in keys.T[1:]:
        edge[1:count] |= column[1:] != column[:-1]
    edge[0] = edge[count] = True
    edge[count - 1] |= last
    return edge.nonzero()[0]


def _texts(pairs, shown):
    """The text "[re,im]," of each pair of ``pairs`` (V16), as json
    writes its floats; NumericalError if one at ``shown`` is not finite."""
    values = pairs.view(np.complex128)
    if not np.isfinite(values[shown]).all():
        raise NumericalError("output holds a non-finite matrix entry")
    return np.array([f"[{z.real!r},{z.imag!r}],".encode() for z in values.tolist()],
                    dtype=object)


def _join(texts, edges, last):
    """The text of the runs between consecutive ``edges``, each its pair's
    text in ``texts`` repeated; with ``last``, without the last comma."""
    runs = (texts * (edges[1:] - edges[:-1])).tolist()
    if last:
        runs[-1] = runs[-1][:-1]
    return b"".join(runs)


def _matrix(m):
    """The text of the 2-D ndarray or BlockToeplitz ``m`` as a matrix
    object, in pieces: its [re, im] pairs in row-major order as json writes
    them, in runs of equal pairs.

    Pairs are equal when the bits of re and im are, so 0.0 and -0.0 stay
    apart, and a run is its pair's text repeated.  An ndarray's runs are
    found on its pairs' bits, and each run's pair is formatted.  For a
    BlockToeplitz, each distinct pair of the generator, and the zero pair,
    is formatted once, and the runs are found on the pairs' labels, laid
    out as ``m`` lays out its entries.
    Read row-major, ``m`` repeats with a period of row_step*cols + col_step
    entries: entry f is entry f + period wherever the blocks that cover the
    two are whole, from where the first block's span has passed one period
    (block -1 would reach that far) to the end of the last whole block.
    When that skips at least half the entries, the text is the entries
    before that stretch, one period's text repeated, and the entries after
    it, and only their rows are laid out.  The period comes first, so that
    a text too large to hold fails at its repeat.
    """
    rows, cols = m.shape
    pieces = [b'{"cols":%d,"data":[' % cols, b'],"rows":%d}' % rows]
    size = rows * cols
    if size == 0:
        return pieces
    if isinstance(m, np.ndarray):
        flat = np.ascontiguousarray(m).reshape(-1)
        edges = _edges(flat.view(np.int64).reshape(size, 2), True)
        pieces[1:1] = [_join(_texts(flat[edges[:-1]].view("V16"), slice(None)), edges, True)]
        return pieces
    h, w = m.block.shape
    distinct, ids = np.unique(np.concatenate((np.asarray(m.block, dtype=np.complex128).reshape(-1),
                                              [0j])).view("V16"), return_inverse=True)
    zero, ids = ids[-1], ids[:-1].reshape(h, w)
    # the first block is cut the least: it holds every pair the matrix does
    texts = _texts(distinct, ids[:rows, :cols])
    # the entries' labels: the zero pair's is 0, that of a layout's zeros
    labels = ids - zero

    def text(lo, hi):
        """The text of the entries at row-major positions lo..hi-1."""
        layout = m._rows(lo // cols, -(-hi // cols), labels).reshape(-1)[lo % cols:][:hi - lo]
        edges = _edges(layout[:, np.newaxis], hi == size)
        return _join(texts[layout[edges[:-1]] + zero], edges, hi == size)

    period = m.row_step * cols + m.col_step
    whole = min((rows - h) // m.row_step, (cols - w) // m.col_step) + 1
    start = max((h - 1) * cols + w - period, 0)
    repeats = (min(whole * period, size) - start) // period
    # the last entries are written apart
    if start + repeats * period == size:
        repeats -= 1
    # the period is laid out once; repeating it pays when that skips at
    # least half the entries
    if 2 * (repeats - 1) * period < size:
        pieces[1:1] = [text(0, size)]
    else:
        body = text(start, start + period) * repeats
        pieces[1:1] = [text(0, start) if start else b"", body,
                       text(start + repeats * period, size)]
    return pieces


def pieces(obj):
    """The text of ``obj`` as :func:`dumps` writes it, as a list of bytes
    pieces, every one built before it returns: joined, or written one after
    the other, they are that text."""
    matrices = []

    def matrix(o):
        if isinstance(o, np.ndarray):
            o = np.asarray(o, dtype=np.complex128)
        elif not isinstance(o, BlockToeplitz):
            raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)
        if len(o.shape) != 2:
            raise DimensionError("expected a 2-D matrix, got ndim=%d" % len(o.shape))
        matrices.append(_matrix(o))
        return _MARK

    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=matrix)
    except ValueError as exc:
        raise NumericalError("output holds a non-finite number: %s" % exc) from exc
    parts = text.split(_TOKEN) if matrices else [text]
    if len(parts) != len(matrices) + 1:
        raise ValueError("the document holds %d arrays and %d quoted marks %r: a key or "
                         "string ends with the mark" % (len(matrices), len(parts) - 1, _MARK))
    out = [parts[0].encode()]
    for matrix_pieces, part in zip(matrices, parts[1:]):
        out.extend(matrix_pieces)
        out.append(part.encode())
    return out


def dumps(obj):
    """Compact JSON text of ``obj`` with every ndarray and every 2-D
    :class:`BlockToeplitz` as its matrix object (each float in its shortest
    round-trip form), written by ``json.dumps(doc, sort_keys=True,
    separators=(",", ":"))``: its ``default`` hook writes each matrix in
    pieces (:func:`_matrix`) and hands json the mark ``"\\0jtri-matrix\\0"``,
    whose quoted form in json's text is then replaced by the matrix's text.
    With matrices, a key or string ending with the mark raises ValueError;
    without, the text is json's.  A non-finite number raises
    NumericalError.
    """
    return b"".join(pieces(obj)).decode("ascii")
