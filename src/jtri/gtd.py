"""Single-matrix unitary triangularizations.

gtd()  -- upper-triangular factor with a prescribed positive diagonal, in
          any order, feasible exactly when the singular values
          multiplicatively majorize the target.
gmd()  -- the constant-diagonal special case (always feasible).
check_multiplicity_conditions() -- the reduced M-condition feasibility
          test when the target diagonal has repeated values.
block_gtd() -- block upper-triangular form with prescribed block
          determinant magnitudes.

Each decomposition costs one SVD plus O(n^2): a sweep of n - 1 rotation
pairs on the SVD's diagonal places one target entry per step, in the
caller's order, pairing the two cells that most tightly bracket it so
the remaining cells keep majorizing the remaining targets.  The sweep is
planned on scalars, then applied as in-place row rotations (_gtd_sweep).
"""

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import BlockConditionError, DimensionError, MajorizationError, NumericalError


@dataclass
class GtdFactors:
    """a = u @ r @ v^H with unitary u, v and upper-triangular r.

    ``diag`` repeats the (real, positive) diagonal of r for convenience.
    """
    u: np.ndarray
    r: np.ndarray
    v: np.ndarray
    diag: np.ndarray


@dataclass
class BlockSpec:
    """Block sizes and complex determinant targets for block_gtd.

    Only the magnitudes of ``block_dets`` are realizable; any phase is
    absorbed into the unitary factors.
    """
    block_sizes: list
    block_dets: list


@dataclass
class BlockGtdFactors(GtdFactors):
    """block_gtd result; ``boundaries`` are the 0-based block start offsets."""
    boundaries: list = field(default_factory=list)


def _check_square_invertible(a):
    (m,), _n = matcore.check_square_set([a])
    fac = matcore.svd(m)
    if fac.sigma[-1] <= matcore.TOL_RANK * fac.sigma[0]:
        raise NumericalError("matrix is singular to working precision")
    return m, fac


# Relative to the target: a cell this close to it counts as both at or
# above and at or below it.  Such a gap is roundoff from earlier steps.
_SNAP = 4 * np.finfo(float).eps


def _swap_slots(keys, cells, slot, j, p):
    """Slot j's cell moves to slot p; p's cell, out of ``keys``, to j (its value is set later)."""
    if p != j:
        keys.pop(bisect_left(keys, (cells[j], j)))
        insort(keys, (cells[j], p))
        cells[p], slot[j], slot[p] = cells[j], slot[p], slot[j]


def _plan(sigma, target):
    """The sweep's decisions, on scalars: (a, b, (c, s), (c_l, s_l), x) per
    step, the final diagonal, and the cell (SVD column) in each slot.

    ``keys`` holds the sorted (value, slot) pairs of the still-diagonal
    slots: a bracket is a bisection, and among equal values the first slot
    wins.  The right rotation [[c, -s], [s, c]] on cells a, b and the left
    one (c_l, s_l) turn diag(d1, d2) into [[t, x], [0, d1*d2/t]]; they come
    from d2/d1 and t/d1 as differences times sums, so no square of the
    input's scale is formed and cos^2, sin^2 keep their relative accuracy.
    """
    cells = sigma.tolist()
    slot = list(range(len(cells)))
    keys = sorted(zip(cells, slot))
    steps = []
    for k, t_k in enumerate(target.tolist()[:-1]):
        # a: the smallest cell at or above t_k, else the largest
        i = bisect_left(keys, (t_k * (1.0 - _SNAP), -1))
        d1, p = keys.pop(i if i < len(keys) else bisect_left(keys, (keys[-1][0], -1)))
        _swap_slots(keys, cells, slot, k, p)
        # b: the largest other cell at or below t_k, else the smallest
        i = bisect_left(keys, (t_k * (1.0 + _SNAP), math.inf))
        d2, q = keys.pop(bisect_left(keys, (keys[i - 1][0], -1)) if i else 0)
        _swap_slots(keys, cells, slot, k + 1, q)
        t = min(max(t_k, min(d1, d2)), max(d1, d2))  # clamp roundoff at the edges
        e, t1 = d2 / d1, t / d1
        if abs(1.0 - e) <= 1e-15 * (1.0 + e):
            c, s = 1.0, 0.0
        else:
            den = (1.0 - e) * (1.0 + e)
            c = math.sqrt(min(max((t1 - e) * (t1 + e) / den, 0.0), 1.0))
            s = math.sqrt(min(max((1.0 - t1) * (1.0 + t1) / den, 0.0), 1.0))
            h = math.hypot(c, s)
            c, s = c / h, s / h
        h = math.hypot(c, s * e)
        c_l, s_l = c / h, s * e / h
        cells[k], cells[k + 1] = t, d1 * (d2 / t)
        insort(keys, (cells[k + 1], k + 1))
        steps.append((slot[k], slot[k + 1], ((c, s), (c_l, s_l)), s_l * d2 * c - c_l * d1 * s))
    return steps, cells, slot


def _gtd_sweep(fac, target):
    """GtdFactors whose r has the positive diagonal ``target``, in the
    order given, starting from the SVD ``fac``, which it leaves unchanged.

    Step k places target[k] in slot k by pairing the tightest bracketing
    cells of the still-diagonal block: a, the smallest cell at or above
    t = target[k], and b, the largest other cell at or below it.  One
    rotation pair turns them into (t, a*b/t).  In the log domain a and b
    are adjacent entries of the sorted cells and a + b - t lands between
    them, so a prefix of the new cells equals either the old prefix or
    the old prefix one longer minus t.  Checking the four cases (prefix
    shorter or not than the position of a among the cells, and of t among
    the targets) against the targets with t removed shows that the
    remaining cells still majorize the remaining targets, whatever order
    the targets come in.  (Pairing the overall largest with the overall
    smallest cell can break this.)

    The choices depend on the diagonal alone, so _plan makes them first.
    Each cell's columns of u, v and r are then one row of u^T and of
    [v^T, r^T] (r's rows indexed by slot, zero from row k on above step
    k's pair), so a step rotates two rows and two row prefixes in place;
    the diagonal and the slot order go in at the end.
    """
    n = len(target)
    steps, diag, slot = _plan(fac.sigma, np.asarray(target, dtype=float))
    u_t = fac.u.T.copy()   # the sweep rotates in place; fac is the caller's
    w = np.concatenate([fac.v.T, np.zeros((n, n), dtype=np.complex128)], axis=1)
    tmp = np.empty((2, 2 * n), dtype=np.complex128)
    for k, (a, b, rotations, x) in enumerate(steps):
        for m, (c, s), end in zip((w, u_t), rotations, (n + k, n)):
            row_a, row_b, sa, sb = m[a, :end], m[b, :end], tmp[0, :end], tmp[1, :end]
            np.multiply(row_a, s, out=sa)
            np.multiply(row_b, s, out=sb)
            row_a *= c
            row_a += sb
            row_b *= c
            row_b -= sa
        w[b, n + k] = x
    idx = np.array(slot)
    r = w[idx, n:].T
    np.fill_diagonal(r, diag)
    return GtdFactors(u=u_t[idx].T, r=r, v=w[idx, :n].T, diag=np.array(diag))


def gtd(a, target_diag):
    """Unitary triangularization with prescribed positive diagonal, in the
    order given.  Costs one SVD plus O(n^2).

    Raises MajorizationError (with the first failing prefix length) when
    sigma(a) does not multiplicatively majorize the target, and
    NumericalError for singular input.
    """
    m, fac = _check_square_invertible(a)
    n = m.shape[0]
    target = np.asarray(target_diag, dtype=float)
    if target.ndim != 1 or target.size != n:
        raise DimensionError("target diagonal must have %d entries" % n)
    if np.any(target <= 0):
        raise DimensionError("target diagonal must be positive")
    bad = matcore.first_failing_group(fac.sigma, np.log(target))
    if bad is not None:
        raise MajorizationError(
            "target diagonal not majorized by the singular values "
            "(first failing prefix length %d)" % bad,
            failing_prefix=bad)
    return _gtd_sweep(fac, target)


def gmd(a):
    """Geometric mean decomposition: constant diagonal equal to the
    geometric mean of the singular values.  Always succeeds for square
    invertible input."""
    m, fac = _check_square_invertible(a)
    n = m.shape[0]
    # relative to sigma[0]: exp of a log near +-350 would lose 1e-13
    g = fac.sigma[0] * float(np.exp(np.mean(np.log(fac.sigma / fac.sigma[0]))))
    return _gtd_sweep(fac, np.full(n, g))


def check_multiplicity_conditions(sigma, values, mults):
    """Feasibility of a target diagonal given as M distinct values with
    multiplicities: the M prefix conditions replace the full n.

    ``values`` must be strictly decreasing, ``mults`` positive counts
    summing to len(sigma).
    """
    sig = np.asarray(sigma, dtype=float)
    vals = np.asarray(values, dtype=float)
    counts = np.asarray(mults, dtype=int)
    if vals.size != counts.size:
        raise DimensionError("values and mults must pair up")
    if counts.sum() != sig.size:
        raise DimensionError(
            "multiplicities sum to %d, sigma has %d entries" % (counts.sum(), sig.size))
    if np.any(vals <= 0) or np.any(sig <= 0):
        raise DimensionError("sigma and values must be positive")
    if np.any(np.diff(vals) >= 0):
        raise DimensionError("values must be strictly decreasing")
    if np.any(counts <= 0):
        raise DimensionError("multiplicities must be positive")
    return matcore.first_failing_group(sig, counts * np.log(vals), counts) is None


def check_blocks(block_sizes, values, n, what):
    """``block_sizes`` as ints and ``values`` as complex numbers, one
    ``what`` per block, with the sizes positive and summing to n."""
    sizes = [int(s) for s in block_sizes]
    values = [complex(x) for x in values]
    if len(sizes) != len(values):
        raise DimensionError("one %s per block" % what)
    if any(s <= 0 for s in sizes) or sum(sizes) != n:
        raise DimensionError("block sizes must be positive and sum to %d" % n)
    return sizes, values


def block_gtd(a, spec):
    """Block upper-triangular decomposition with prescribed |det| per
    diagonal block.

    Realized as a gtd whose target repeats each block's determinant-root
    n_m times, so the block structure can be read off the result.
    Returns BlockGtdFactors with 0-based block boundary offsets.
    """
    m, fac = _check_square_invertible(a)
    sizes, dets = check_blocks(spec.block_sizes, spec.block_dets, m.shape[0],
                               "determinant target")
    if any(abs(d) == 0 for d in dets):
        raise DimensionError("block determinants must be nonzero")
    # feasibility, stated on the blocks sorted by their determinant root
    bad = matcore.first_failing_group(fac.sigma, np.log(np.abs(dets)), sizes)
    if bad == len(sizes):
        raise BlockConditionError("product of block determinants does not match det(a)",
                                  failing_q=bad)
    if bad is not None:
        raise BlockConditionError("block determinant condition fails at q=%d" % bad,
                                  failing_q=bad)
    d_roots = [abs(dets[i]) ** (1.0 / sizes[i]) for i in range(len(sizes))]
    target = np.concatenate([np.full(sizes[i], d_roots[i]) for i in range(len(sizes))])
    factors = _gtd_sweep(fac, target)
    boundaries = [int(b) for b in np.cumsum([0] + sizes[:-1])]
    return BlockGtdFactors(u=factors.u, r=factors.r, v=factors.v,
                           diag=factors.diag, boundaries=boundaries)
