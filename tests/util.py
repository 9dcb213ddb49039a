"""Shared helpers for the test suite: random matrix generators, the
independent brute-force search oracles used to cross-check the
closed-form existence tests, and the reference constructions: the GTD
pairing sweep done with physical slot swaps, the dense time
extension, the time-extension rounds on square arrays, and the
closed-form SINR of the SIC receiver.  The last section holds the
constructions only the tests call, which check claims of the paper:
extensions cannot help the exact 2x2 case, the real 4x4 orthogonal
realization of a 2x2 pair, and block feasibility by generalized
singular values.

The oracles deliberately avoid the library's F1/F2 route: they search
for a unit vector making the required column norms equal to one, over a
dense grid with multistart local refinement.
"""

import numpy as np
from scipy.optimize import minimize

from jtri import joint, matcore, multicast
from jtri.errors import DimensionError, NumericalError
from jtri.gtd import GtdFactors, check_blocks, gmd
from jtri.joint import JointFactors


def rand_complex(rng, rows, cols=None):
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def rand_unit_det(rng, n):
    a = rand_complex(rng, n)
    return a / abs(np.linalg.det(a)) ** (1.0 / n)


def rand_unitary(rng, n):
    return matcore.qr(rand_complex(rng, n)).q


def rand_real_det_one(rng, n):
    while True:
        a = rng.standard_normal((n, n))
        d = np.linalg.det(a)
        if abs(d) > 1e-2:
            a = a / abs(d) ** (1.0 / n)
            if np.linalg.det(a) < 0:
                a[:, 0] = -a[:, 0]
            return a.astype(complex)


def recon_error(u, r, v, a):
    return np.linalg.norm(u @ r @ v.conj().T - a) / max(np.linalg.norm(a), 1e-300)


# --- unit-vector search oracles -----------------------------------------------

_PHI = np.linspace(0.0, np.pi / 2, 181)
_PSI = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
_CP = np.cos(_PHI)[:, None]
_SP = np.sin(_PHI)[:, None]
_EXP_PSI = np.exp(1j * _PSI)[None, :]


def _vec(phi, psi):
    return np.array([np.cos(phi), np.exp(1j * psi) * np.sin(phi)])


def _grid_values(forms):
    """max_k |v^H S_k v| over the (phi, psi) grid, vectorized."""
    vals = None
    for s in forms:
        q = (s[0, 0].real * _CP ** 2 + s[1, 1].real * _SP ** 2
             + 2.0 * _CP * _SP * np.real(s[0, 1] * _EXP_PSI))
        a = np.abs(q)
        vals = a if vals is None else np.maximum(vals, a)
    return vals


def null_pair_residual(s1, s2, n_starts=6):
    """min over unit v of max(|v^H S1 v|, |v^H S2 v|): grid search plus
    Nelder-Mead refinement from the best grid cells."""
    vals = _grid_values((s1, s2))
    starts = np.argsort(vals.ravel())[:n_starts]

    def objective(p):
        v = _vec(p[0], p[1])
        return max(abs(v.conj() @ s1 @ v), abs(v.conj() @ s2 @ v))

    best = np.inf
    for k in starts:
        i, j = np.unravel_index(k, vals.shape)
        res = minimize(objective, [_PHI[i], _PSI[j]], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 400})
        best = min(best, res.fun)
    return best


def gmd2_residual(a1, a2):
    """Oracle for existence of unit-diagonal joint triangularization of a
    2x2 pair: both first columns of A_k V must reach norm one."""
    s1 = a1.conj().T @ a1 - np.eye(2)
    s2 = a2.conj().T @ a2 - np.eye(2)
    return null_pair_residual(s1, s2)


def upper_lower_residual(a1, a2, n_starts=6):
    """Oracle for the mixed orientation: v1 must give ||A1 v1|| = 1 and
    its reflected partner v2 must give ||A2 v2|| = 1."""
    s1 = a1.conj().T @ a1 - np.eye(2)
    s2raw = a2.conj().T @ a2 - np.eye(2)

    def objective(p):
        v1 = _vec(p[0], p[1])
        v2 = np.array([np.conj(v1[1]), -np.conj(v1[0])])
        return max(abs(v1.conj() @ s1 @ v1), abs(v2.conj() @ s2raw @ v2))

    # the partner condition equals a quadratic form in v1 as well
    vals = _grid_values((s1, matcore.adjugate(s2raw)))
    starts = np.argsort(vals.ravel())[:n_starts]
    best = np.inf
    for k in starts:
        i, j = np.unravel_index(k, vals.shape)
        res = minimize(objective, [_PHI[i], _PSI[j]], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 400})
        best = min(best, res.fun)
    return best


def extended_gmd_residual(rng, a1, a2, n_ext=2, n_starts=24):
    """Oracle on the n_ext-fold extended pair: search over unit vectors of
    the full extended space (random multistart, Nelder-Mead on the real
    parametrization) for a direction giving both extended columns unit
    norm."""
    s1 = np.kron(np.eye(n_ext), a1.conj().T @ a1 - np.eye(2))
    s2 = np.kron(np.eye(n_ext), a2.conj().T @ a2 - np.eye(2))
    dim = 2 * n_ext

    def objective(p):
        v = p[:dim] + 1j * p[dim:]
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            return 1e6
        v = v / nrm
        return max(abs(v.conj() @ s1 @ v), abs(v.conj() @ s2 @ v))

    best = np.inf
    for _ in range(n_starts):
        p0 = rng.standard_normal(2 * dim)
        res = minimize(objective, p0, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 3000, "maxfev": 6000})
        best = min(best, res.fun)
    return best


# --- majorization reference ---------------------------------------------------


def majorization_reference(sigma, dets, sizes):
    """1-based index of the first failing block condition, or None.

    A plain loop over the groups, kept apart from the library's kernel:
    group i holds sizes[i] entries whose product is dets[i] > 0.  Groups
    are taken by decreasing root dets[i] ** (1 / sizes[i]); after each one
    the accumulated log-product must not exceed that of as many of the
    largest sigma by more than TOL_MAJOR, and after the last one the
    totals must agree to within TOL_MAJOR.
    """
    tol = matcore.TOL_MAJOR
    d_roots = [dets[i] ** (1.0 / sizes[i]) for i in range(len(sizes))]
    order = sorted(range(len(sizes)), key=lambda i: -d_roots[i])
    ls = np.cumsum(np.sort(np.log(sigma))[::-1])
    acc = 0.0
    count = 0
    for qi, i in enumerate(order):
        acc += np.log(dets[i])
        count += sizes[i]
        if qi < len(order) - 1:
            if acc > ls[count - 1] + tol:
                return qi + 1
        elif abs(acc - ls[-1]) > tol:
            return len(order)
    return None


# --- extraction and embedding operators -----------------------------------------


def positions(n, indices):
    """0-based int array of the 1-based ``indices``, each in 1..n and
    none listed twice."""
    idx = list(indices)
    seen = set()
    for i in idx:
        if not 1 <= i <= n:
            raise DimensionError("index %r outside 1..%d" % (i, n))
        if i in seen:
            raise DimensionError("index %r listed twice" % (i,))
        seen.add(i)
    return np.array(idx, dtype=np.int64) - 1


def extraction_matrix(n, indices):
    """n-by-k matrix whose columns are the listed standard basis vectors.

    ``indices`` are 1-based and must be distinct.  E^H A E picks out the
    submatrix of A at those index pairs, in the listed order, which is
    A[np.ix_(p, p)] for p = positions(n, indices).
    """
    pos = positions(n, indices)
    out = np.zeros((n, pos.size), dtype=np.complex128)
    out[pos, np.arange(pos.size)] = 1.0
    return out


def embed(n, b, index_groups):
    """Overwrite I_n with copies of ``b`` on each coordinate group.

    Each group is a tuple of 1-based positions, one per row/column of ``b``;
    entry (i, j) of ``b`` lands at (group[i], group[j]).  Groups must be
    pairwise disjoint, so embedding a unitary block keeps the result unitary.
    """
    block = matcore.as_cmatrix(b)
    k, k2 = block.shape
    if k != k2:
        raise DimensionError("embedded block must be square")
    out = np.eye(n, dtype=np.complex128)
    used = set()
    for group in index_groups:
        g = list(group)
        if len(g) != k:
            raise DimensionError(
                "group %r has %d entries, block is %d-by-%d" % (g, len(g), k, k))
        for i in g:
            if not 1 <= i <= n:
                raise DimensionError("index %r outside 1..%d" % (i, n))
            if i in used:
                raise DimensionError("index %r appears in two groups" % (i,))
            used.add(i)
        pos = [i - 1 for i in g]
        out[np.ix_(pos, pos)] = block
    return out


# --- per-entry JSON encoder oracle -----------------------------------------------


def matrix_to_json_per_entry(a):
    """Matrix as {"rows", "cols", "data": [[re, im], ...]} in row-major order,
    built one entry at a time: the encoder matcore.dumps is compared with."""
    m = matcore.as_cmatrix(a)
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {
        "rows": rows,
        "cols": cols,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def per_entry_document(obj):
    """``obj`` with every ndarray and every matcore.BlockToeplitz replaced
    by its per-entry matrix object."""
    if isinstance(obj, matcore.BlockToeplitz):
        return matrix_to_json_per_entry(obj.to_dense())
    if isinstance(obj, np.ndarray):
        return matrix_to_json_per_entry(obj)
    if isinstance(obj, dict):
        return {key: per_entry_document(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [per_entry_document(value) for value in obj]
    return obj


# --- GTD pairing sweep oracle --------------------------------------------------

_SNAP = 4 * np.finfo(float).eps


def _rot(c, s):
    return np.array([[c, -s], [s, c]])


def _deflate(r_mat, u_mat, v_mat, j, target):
    """One pairing step: diagonal entries (j, j+1) of r_mat, with target
    between them, become (target, product/target).

    Assumes rows j, j+1 of r_mat are zero outside the pair block and the
    block itself is diagonal, which the sweep maintains.  The rotation is
    worked out from d2/d1 and target/d1 as differences times sums.
    """
    d1 = r_mat[j, j].real
    d2 = r_mat[j + 1, j + 1].real
    e = d2 / d1
    t = target / d1
    if abs(1.0 - e) <= 1e-15 * (1.0 + e):
        c, s = 1.0, 0.0
    else:
        den = (1.0 - e) * (1.0 + e)
        c = np.sqrt(min(max((t - e) * (t + e) / den, 0.0), 1.0))
        s = np.sqrt(min(max((1.0 - t) * (1.0 + t) / den, 0.0), 1.0))
        h = np.hypot(c, s)
        c, s = c / h, s / h
    gr = _rot(c, s)
    h = np.hypot(c, s * e)
    gl = _rot(c / h, s * e / h)
    r_mat[:j + 2, j:j + 2] = r_mat[:j + 2, j:j + 2] @ gr
    v_mat[:, j:j + 2] = v_mat[:, j:j + 2] @ gr
    r_mat[j:j + 2, j:j + 2] = gl.T @ r_mat[j:j + 2, j:j + 2]
    u_mat[:, j:j + 2] = u_mat[:, j:j + 2] @ gl
    r_mat[j, j] = target
    r_mat[j + 1, j] = 0.0
    r_mat[j + 1, j + 1] = d1 * (d2 / target)


def _swap_positions(r_mat, u_mat, v_mat, j, p):
    """Exchange diagonal slots j and p (both in the still-diagonal trailing
    block), keeping the factorization consistent."""
    if j == p:
        return
    for m in (r_mat, u_mat, v_mat):
        m[:, [j, p]] = m[:, [p, j]]
    r_mat[[j, p], :] = r_mat[[p, j], :]


def gtd_sweep_reference(fac, target):
    """gtd._gtd_sweep done step by step on the dense factors: each step
    scans the diagonal for the tightest bracket, moves the two cells into
    slots k, k+1 by physical column and row swaps, and rotates n x 2
    slices by 2 x 2 matrix products.  Kept as the reference the planned,
    in-place sweep is compared with."""
    n = len(target)
    u = fac.u.copy()
    v = fac.v.copy()
    r = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(r, fac.sigma)
    for k in range(n - 1):
        t_k = target[k]
        cells = np.real(np.diag(r)[k:])
        above = np.flatnonzero(cells >= t_k * (1.0 - _SNAP))
        p = k + int(above[np.argmin(cells[above])] if above.size else np.argmax(cells))
        _swap_positions(r, u, v, k, p)
        cells = np.real(np.diag(r)[k + 1:])
        below = np.flatnonzero(cells <= t_k * (1.0 + _SNAP))
        q = k + 1 + int(below[np.argmax(cells[below])] if below.size else np.argmin(cells))
        _swap_positions(r, u, v, k + 1, q)
        d1 = r[k, k].real
        d2 = r[k + 1, k + 1].real
        t = min(max(t_k, min(d1, d2)), max(d1, d2))  # clamp roundoff at the edges
        _deflate(r, u, v, k, t)
    return GtdFactors(u=u, r=r, v=v, diag=np.real(np.diag(r)).copy())


# --- the time-extension rounds on square arrays ---------------------------------


def reorder_indices(n, n_users, n_ext, round_l):
    """1-based index groups kept by the round-l reordering.

    Group q1 collects one coordinate from each of n hops of stride
    delta = n^(K-l+1) - 1 starting at coordinate n*q1; consecutive group
    starts are n apart.  Validated against the fully worked small cases;
    the group count shrinks with l, which is where the edge coordinates
    are discarded.
    """
    delta = n ** (n_users - round_l + 1) - 1
    q1_count = n_ext - n ** (n_users - 1) + n ** (n_users - round_l)
    return [
        [n + (q1 - 1) * n + (q2 - 1) * delta for q2 in range(1, n + 1)]
        for q1 in range(1, q1_count + 1)
    ]


def _positive_diagonal(q, r, scale):
    """The QR convention of matcore.qr, on one factor pair or a stack of
    them: a diagonal entry of R at or below TOL_RANK * scale is rank
    deficiency; otherwise unit phases move from R's diagonal into Q's
    columns, leaving it real and positive, with exact zeros below it."""
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    if np.any(np.abs(diag) <= matcore.TOL_RANK * scale):
        raise NumericalError("column residual below %g of the input norm" % matcore.TOL_RANK)
    phases = diag / np.abs(diag)
    q = q * phases[..., np.newaxis, :]
    r = phases.conj()[..., :, np.newaxis] * r
    cols = r.shape[-1]
    r[..., np.tri(cols, k=-1, dtype=bool)] = 0.0
    idx = np.arange(cols)
    r[..., idx, idx] = r[..., idx, idx].real
    return q, r


def _strided_blocks(a, count, shape, row_step, col_step):
    """The (..., count, h, w) view of the (..., rows, cols) array ``a`` whose
    block j is the h x w block at row row_step*j and column col_step*j;
    writing to it writes to ``a``."""
    *outer, rs, cs = a.strides
    return np.lib.stride_tricks.as_strided(
        a, (*a.shape[:-2], count, *shape), (*outer, row_step * rs + col_step * cs, rs, cs))


def block_qr(a, n):
    """QR of (..., nG, nG) matrices that are upper triangular in aligned
    n x n blocks: every entry below the diagonal blocks is zero, which is
    not checked.

    Such a matrix is blockdiag(Q_1, ..., Q_G) @ R: each Q_j is the QR factor
    of diagonal block j alone, and block row j of R is Q_j^H times block
    row j.  Returns the (..., G, n, n) stack of the Q_j and R, under the
    conventions of matcore.qr, with the rank threshold relative to the
    Frobenius norm of each whole matrix.
    """
    m = np.asarray(a, dtype=np.complex128)
    size = m.shape[-1]
    g = size // n
    q, r_diag = np.linalg.qr(_strided_blocks(m, g, (n, n), n, n))
    scale = np.linalg.norm(m, axis=(-2, -1))[..., np.newaxis, np.newaxis]
    q, r_diag = _positive_diagonal(q, r_diag, scale)
    r = np.matmul(q.conj().swapaxes(-1, -2), m.reshape(*m.shape[:-2], g, n, size))
    r = r.reshape(m.shape)
    _strided_blocks(r, g, (n, n), n, n)[...] = r_diag
    return q, r


def select(t, pos, n):
    """t[..., pos, :][..., pos], the reordering of the stack of square
    matrices ``t``; a nonzero entry that would land below the n x n
    diagonal blocks raises NumericalError, since block_qr takes every such
    entry to be zero."""
    out = t[..., pos, :][..., pos]
    block = np.arange(pos.size) // n
    if np.any(out[..., block[:, np.newaxis] > block]):
        raise NumericalError(
            "the reordering moves a nonzero entry below the %d x %d diagonal blocks" % (n, n))
    return out


def square_rounds(mats, n_ext, mode):
    """The time-extension rounds at N = ``n_ext`` on (nN)-square arrays:
    round l's local step is gmd of user l's active n x n block (mode "gmd",
    K rounds) or jet2 of those of users l and l + 1 (mode "jet", K - 1
    rounds).  Each QR input is upper triangular in n x n blocks (select
    keeps the rest zero), so its Q is block diagonal (block_qr).  Returns
    v, the stacked u_k, the stacked t_k and the kept 1-based coordinates.
    spacetime's rounds on generators are compared with it."""
    rounds = len(mats) if mode == "gmd" else len(mats) - 1
    n = mats[0].shape[0]
    size = n * n_ext

    def local_v(blocks, k):     # k = l - 1 is the first active user of round l
        return (gmd(blocks[k]) if mode == "gmd" else joint.jet2(blocks[k], blocks[k + 1])).v

    # round 1 on the matrices themselves, whose extensions are block
    # diagonal: one n x n QR per user aligns everyone
    w = local_v(mats, 0)
    fac = matcore.qr(np.stack(mats) @ w)
    v = matcore.BlockToeplitz(w, size, size, n, n).to_dense()
    u, t = (np.stack([matcore.BlockToeplitz(b, size, size, n, n).to_dense() for b in blocks])
            for blocks in (fac.q, fac.r))
    coords = np.arange(1, size + 1)

    for round_l in range(2, rounds + 1):
        groups = reorder_indices(n, rounds, n_ext, round_l)
        pos = positions(coords.size, [i for g in groups for i in g])
        coords = coords[pos]
        v, u, t = v[:, pos], u[..., pos], select(t, pos, n)
        w = local_v(t[:, :n, :n], round_l - 1)
        q, t = block_qr((t.reshape(-1, n) @ w).reshape(t.shape), n)
        # u_k @ blockdiag(q_k1, q_k2, ...), one column block per q_kj
        cols = u.reshape(*u.shape[:-1], -1, n).swapaxes(-3, -2)
        u = np.matmul(cols, q).swapaxes(-3, -2).reshape(u.shape)
        v = (v.reshape(-1, n) @ w).reshape(v.shape)
    return v, u, t, coords


# --- dense time-extension oracle ----------------------------------------------


def _retriangularize_dense(t_mats, u_mats, v_total, v_emb):
    """Apply a shared right factor and restore triangularity by QR."""
    v_total = v_total @ v_emb
    for k in range(len(t_mats)):
        fac = matcore.qr(t_mats[k] @ v_emb)
        u_mats[k] = u_mats[k] @ fac.q
        t_mats[k] = fac.r
    return v_total


def nearly_kgmd_dense(matrices, n_ext, mode="gmd"):
    """spacetime.nearly_kgmd (mode "gmd") or spacetime.nearly_kjet (mode
    "jet") as a dense construction on (nN)-square arrays: extraction-matrix
    pickers, time_extend products and full QRs, O((nN)^3).  Kept as the
    reference the structured construction is compared with; the inputs
    are taken as valid (unit or equal |det|, n_ext large enough)."""
    mats = [matcore.as_cmatrix(m) for m in matrices]
    n = mats[0].shape[0]
    k_users = len(mats)
    rounds = k_users if mode == "gmd" else k_users - 1

    def local_v(blocks, round_l):
        # gmd of user l's active block, or jet2 of users l and l + 1
        if mode == "gmd":
            return gmd(blocks[round_l - 1]).v
        return joint.jet2(blocks[round_l - 1], blocks[round_l]).v

    # round 1: per-block local step on the matrices, QR-align everyone
    v_emb = matcore.time_extend(local_v(mats, 1), n_ext)
    v_total = np.eye(n * n_ext, dtype=np.complex128)
    t_mats = [matcore.time_extend(m, n_ext) for m in mats]
    u_mats = [np.eye(n * n_ext, dtype=np.complex128) for _ in mats]
    v_total = _retriangularize_dense(t_mats, u_mats, v_total, v_emb)
    coords = list(range(1, n * n_ext + 1))

    for round_l in range(2, rounds + 1):
        groups = reorder_indices(n, rounds, n_ext, round_l)
        flat = [i for g in groups for i in g]
        picker = extraction_matrix(t_mats[0].shape[0], flat)
        coords = [coords[i - 1] for i in flat]
        v_total = v_total @ picker
        for k in range(k_users):
            u_mats[k] = u_mats[k] @ picker
            t_mats[k] = picker.conj().T @ t_mats[k] @ picker
        local = local_v([t[0:n, 0:n] for t in t_mats], round_l)
        v_emb = matcore.time_extend(local, len(groups))
        v_total = _retriangularize_dense(t_mats, u_mats, v_total, v_emb)

    diag = np.real(np.diag(t_mats[0]))
    users = list(zip(u_mats, t_mats))
    return JointFactors(v=v_total, users=users, diag=diag, n_ext=n_ext,
                        kept_indices=coords)


# --- closed-form SIC SINR -------------------------------------------------------


def sic_sinr(problem, factors):
    """Exact per-stream SINR of the genie-aided SIC receiver, one array per
    user: |S_jj|^2 / (sum_{i<j} |S_ji|^2 + ||front_j||^2), with
    front = u^H q1^H and S = front q1 g v (Forney, "Shannon meets Wiener",
    2004).  It is the ratio of expected signal and residual powers that
    multicast.simulate_sic estimates by drawing symbols and noise."""
    out = []
    for h, (u, _r) in zip(problem.users, factors.users):
        qfac = multicast._augmented_qr(h, problem.cov)
        q1, g = qfac.q[:h.shape[0], :], qfac.r
        if factors.n_ext > 1:
            q1 = matcore.time_extend(q1, factors.n_ext)
            g = matcore.time_extend(g, factors.n_ext)
        front = u.conj().T @ q1.conj().T
        power = np.abs(front @ q1 @ g @ factors.v) ** 2
        noise = np.tril(power, -1).sum(axis=1) + (np.abs(front) ** 2).sum(axis=1)
        out.append(np.diag(power) / noise)
    return out


# --- test-only constructions: extensions, real embedding, block feasibility ---


def extension_futile_2x2(a1, a2):
    """True when no number of time extensions admits an exact joint
    unit-diagonal triangularization of the 2x2 pair: existence for the
    extended matrices is equivalent to existence for the originals, so
    the 2x2 existence test settles every N at once."""
    return not joint.exists_2gmd(a1, a2, 1.0)


_REFLECTION_TOL = 1e-8


def _reflection_parts(m):
    """Split a 2x2 unitary of the reflection form
    [[a+bi, c+di], [c-di, -a+bi]] into (a, b, c, d)."""
    w = matcore.as_cmatrix(m)
    if w.shape != (2, 2):
        raise DimensionError("factors must be 2x2")
    if (abs(w[1, 0] - np.conj(w[0, 1])) > _REFLECTION_TOL
            or abs(w[1, 1] + np.conj(w[0, 0])) > _REFLECTION_TOL):
        raise DimensionError("factor is not in reflection form")
    return (float(w[0, 0].real), float(w[0, 0].imag),
            float(w[0, 1].real), float(w[0, 1].imag))


def rephase_to_reflection(u1, u2, v):
    """Rotate a 2x2 joint-triangularization triple by a common global
    phase so all three factors land in reflection form (determinant -1).

    Works whenever the three determinants agree, which holds for factors
    of real det(+1) matrix pairs; the triangular parts are unchanged.
    """
    dets = [np.linalg.det(np.asarray(m)) for m in (u1, u2, v)]
    if max(abs(dets[0] - d) for d in dets) > _REFLECTION_TOL:
        raise DimensionError("factor determinants disagree; cannot rephase jointly")
    phase = np.exp(0.5j * (np.pi - np.angle(dets[2])))
    return u1 * phase, u2 * phase, v * phase


def real_embedding_2gmd(a1, a2, u1, u2, v):
    """Real orthogonal 4x4 factors realizing the complex 2x2 joint
    triangularization of a real pair on the two-fold extended space.

    The complex factors must be in reflection form (see
    rephase_to_reflection); each maps to the fixed 4x4 sign pattern
      [[ a, -b,  c, -d],
       [ c,  d, -a, -b],
       [ b,  a,  d,  c],
       [-d,  c,  b, -a]]
    and the embedded triple triangularizes blkdiag(A_k, A_k) with unit
    diagonal using only real orthogonal matrices.
    """
    for m in (a1, a2):
        mm = matcore.as_cmatrix(m)
        if mm.shape != (2, 2):
            raise DimensionError("channel matrices must be 2x2")
        if np.max(np.abs(mm.imag)) > _REFLECTION_TOL:
            raise DimensionError("channel matrices must be real valued")
    out = []
    for m in (u1, u2, v):
        a, b, c, d = _reflection_parts(m)
        out.append(np.array([
            [a, -b, c, -d],
            [c, d, -a, -b],
            [b, a, d, c],
            [-d, c, b, -a],
        ]))
    return tuple(out)

def joint_block_feasible(a1, a2, block_sizes, det_ratios):
    """Feasibility of joint block-triangularization of an invertible pair
    with prescribed per-block determinant ratios.

    The tests compare sorted prefix products of the |ratios| against the
    generalized singular values, computed here as the singular values of
    a1 @ inv(a2).
    """
    (m1, m2), n = matcore.check_square_set([a1, a2])
    sizes, ratios = check_blocks(block_sizes, det_ratios, n, "determinant ratio")
    try:
        quotient = m1 @ np.linalg.inv(m2)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("second matrix is singular") from exc
    mu = matcore.svd(quotient).sigma
    if mu[-1] <= 0:
        raise NumericalError("first matrix is singular")
    if any(abs(x) == 0 for x in ratios):
        return False
    return matcore.first_failing_group(mu, np.log(np.abs(ratios)), sizes) is None
