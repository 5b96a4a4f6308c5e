"""Numeric hot kernels.

Every kernel is vectorized numpy and implements an exact contract:
distances are computed with the direct squared-difference formula, and
distance ties are always broken by the lower index.

Every kNN kernel follows one candidate rule.  A fast source proposes
candidates per query, ascending by an approximate squared distance that lies
within ``tol`` of the exact one: a ``scipy.spatial.cKDTree`` for
:func:`kdtree_knn`, a BLAS product for :func:`feature_knn` and for
retrieval's :func:`map_knn`.  The source also gives a bound that every point
it left out reaches: the tree's last candidate distance, or the smallest
approximate value left out, each less its rounding.  The product kernels
propose k + 8 candidates in one round: their cost is the product and one
partition of every column, the same for k + 1 as for k + 8.  The tree's cost
grows with the candidates it fetches, so it proposes k + 1 first, keeps every
row :func:`_certified` from those, and proposes k + 8 only for the others.
:func:`_exact_knn` answers each row of a k + 8 proposal by one of three paths:

1. *Certified*: the row's first k + 1 values are more than ``2 tol`` apart
   at every step, and its k-th value plus ``tol`` lies below its bound.  The
   exact distances then keep that strict order and the k-th stays below the
   bound, so the first k candidates are the answer as they stand.
2. *Re-ranked*: any other row's candidates get exact distances and are
   ranked by (distance, index) with one stable sort.
3. *Full scan*: a re-ranked row whose k-th exact distance reaches its bound
   may have an unseen point tied with it; it is answered by one pass of
   :func:`_blocked_d2`, the one blocked squared-distance loop, and one
   stable sort.

``tol`` covers each source's rounding.  The tree sums the same squared
coordinate differences in its own order and returns a square root, so its
squared distances are within a few ulps of the exact ones; ``tol`` is
``_KNN_TIE_RTOL`` times the row's largest candidate value, plus
``_KNN_TOL_FLOOR`` so that a difference of subnormal values, whose relative
error is unbounded, never certifies.  The product's values are within
:func:`approx_slack`.  The result matches an exhaustive scan bit for bit.
The kNN kernels refuse a row that is not finite or whose squared norm could
overflow a squared distance (``InvalidParams``).  :func:`sq_norms` owns that
rule and is the package's one computation of row squared norms: clustering
and sequence matching call it too.

Sequence search (``seqmatch.detect_loop``) follows the same rule: one BLAS
product, widened by :func:`approx_slack`, bounds every difference cell, one
run-aware :func:`trajectory_grid` pass over the bounds brackets every
column's score, and only the columns where the best or second best can lie
get exact cells from :func:`pairwise_l2`.
"""

import numpy as np

from .errors import InvalidParams

# extra candidates beyond k in a full proposal (the product kernels', and the
# tree's second round), so ties at the k-th distance rarely reach the
# full-scan fallback
_KNN_SLACK = 8
# relative rounding allowance of the tree's squared distances: it narrows the
# bound of the tree's last candidate and scales the tree's certification
# ``tol`` (both cover the tree's differently rounded distance arithmetic)
_KNN_TIE_RTOL = 1e-9
# absolute part of the tree's ``tol``: two values closer than the smallest
# normal float64 never certify an order
_KNN_TOL_FLOOR = np.finfo(np.float64).tiny
# elements per row block of the exact distance passes (1 MB of float64):
# small enough that each block's temporaries stay in cache
_BLOCK_ELEMS = 1 << 17
# approximate values per query block of map_knn (8 MB of float64), and as
# many partition indices
_QUERY_BLOCK_ELEMS = 1 << 20


def row_block(d: int) -> int:
    """Rows per block for a distance pass over ``d``-dimensional rows (512 at d = 256).

    A blocked pass gives each row the same value as the unblocked one; it only
    keeps the temporaries small.
    """
    return max(1, _BLOCK_ELEMS // max(1, d))


def approx_slack(sq: np.ndarray) -> float:
    """Bound on the rounding of an approximate squared distance ``sq[a] + sq[b] - 2 a.b``.

    ``sq`` holds the rows' squared norms; the bound scales with the largest
    of them and leaves a wide margin over the BLAS product's rounding.
    """
    return 1e-9 * (1.0 + 2.0 * float(sq.max(initial=0.0)))


def sq_norms(x: np.ndarray, what: str) -> np.ndarray:
    """Squared norm of each row of ``x`` (n, d), summed in float64; the package's
    one row rule raises InvalidParams unless four times each one is finite.

    A NaN or inf row fails, and so does one whose squared norm is within a
    factor four of overflow: for the rows that pass, every squared distance
    (at most 2|a|^2 + 2|b|^2) and every approximate value stays finite.
    """
    sq = np.einsum("nd,nd->n", x, x, dtype=np.float64)
    if not (sq <= np.finfo(np.float64).max / 4.0).all():  # NaN compares False
        raise InvalidParams(f"{what} must be finite, with finite squared norms")
    return sq


def kdtree_build(points: np.ndarray):
    """KD-tree over ``points`` (n, d) for :func:`kdtree_knn`; keeps its own copy."""
    # imported here: scipy.spatial costs ~0.35 s and ~36 MB, and runs that
    # never search points (map-only matching) should not pay for it
    from scipy.spatial import cKDTree

    pts = np.ascontiguousarray(points, dtype=np.float64)
    sq_norms(pts, "points")
    return cKDTree(pts, copy_data=True)


def _topk_rows(d2: np.ndarray, k: int) -> np.ndarray:
    """Exact k smallest per row of ``d2`` ordered by (value, index): one stable sort.

    Values must be exact (bitwise-reproducible) for the tie rule to hold;
    callers compute them with the direct squared-difference formula.
    """
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


def _rerank(qs: np.ndarray, pts: np.ndarray, cand: np.ndarray, k: int):
    """The k nearest of each row's candidate columns ``cand`` by (exact squared
    distance, index), and each row's k-th exact squared distance.

    ``cand`` is sorted into index order in place first, so one stable sort by
    distance breaks ties by the lower index (a row's indices are distinct).
    The differences are formed in the gathered points' float64 buffer.
    """
    cand.sort(axis=1)
    diff = pts[cand].astype(np.float64, copy=False)
    np.subtract(qs[:, None, :], diff, out=diff)
    d2 = np.einsum("bkd,bkd->bk", diff, diff)
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, order, axis=1), d2[np.arange(cand.shape[0]), order[:, -1]]


def _certified(vals: np.ndarray, tol: np.ndarray, bound, k: int) -> np.ndarray:
    """Rows whose first k candidates are their exact k nearest as they stand.

    ``vals`` ascend along each row within ``tol`` (one per row) of the exact
    squared distances; a row is certified when its first k + 1 values are
    more than ``2 tol`` apart at every step and its k-th value plus ``tol``
    lies below its ``bound``: its exact distances then keep that strict
    order, and no point left out can come closer than its k-th.
    """
    sure = (np.diff(vals[:, :k + 1], axis=1) > 2.0 * tol[:, None]).all(axis=1)
    sure &= vals[:, k - 1] + tol < bound
    return sure


def _exact_knn(qs: np.ndarray, pts: np.ndarray, cand, bound,
               k: int, own=None, vals=None, tol=0.0) -> np.ndarray:
    """Exact k nearest ``pts`` rows per query from candidate columns ``cand``.

    ``vals``, when given, holds each candidate's approximate squared
    distance, ascending along each row and within ``tol`` (a scalar or one
    per row) of the exact value; a row :func:`_certified` from them keeps
    its first k candidates.  Every other row (every row without ``vals``)
    is re-ranked by (exact squared distance, index).  Every point the
    candidate source left out lies at least ``bound`` away, so a re-ranked
    row whose k-th exact distance reaches its bound may have an unseen
    point tied with or closer than its k-th neighbor; that row is answered
    by an exact scan of every point except its ``own`` index, if given.
    ``pts`` may be float32: a point is widened exactly where it is
    subtracted.  ``cand`` must be writable: the re-rank sorts a block's rows
    in place.  Temporaries stay near ``_BLOCK_ELEMS``.
    """
    b, d = qs.shape[0], pts.shape[1]
    out = np.empty((b, k), dtype=np.int64)
    bound = np.broadcast_to(bound, (b,))
    tol = np.broadcast_to(tol, (b,))
    # k-th exact distance of each re-ranked row; certified rows never scan
    kth = np.full(b, -np.inf)
    qstep = max(1, _BLOCK_ELEMS // max(1, cand.shape[1] * d))
    for s in range(0, b, qstep):
        rows = np.s_[s:s + qstep]
        if vals is not None:
            out[rows] = cand[rows, :k]
            sure = _certified(vals[rows], tol[rows], bound[rows], k)
            if sure.all():
                continue
            if sure.any():
                rows = s + np.flatnonzero(~sure)
        out[rows], kth[rows] = _rerank(qs[rows], pts, cand[rows], k)
    for r in np.nonzero(kth >= bound)[0]:
        full = _blocked_d2(pts, qs[r], None, None, _einsum_rows)
        if own is not None:
            full[own[r]] = np.inf
        out[r] = _topk_rows(full[None], k)[0]
    return out


def _candidates(part_d2: np.ndarray, sqa: np.ndarray, npre: int, slack: float):
    """Candidates from each row's approximate squared distances less the row's
    squared norm ``sqa``: the ``npre`` smallest columns per row and their values
    with ``sqa`` added back, both ascending by value, and the smallest value
    left out, with ``sqa`` added back, less ``slack``.

    Adding ``sqa`` keeps a row's order, so only the candidates and the bound
    pay for it, not every column.
    """
    part = np.argpartition(part_d2, npre, axis=1)
    cand = part[:, :npre]
    vals = np.take_along_axis(part_d2, cand, axis=1)
    order = np.argsort(vals, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    vals += sqa[:, None]
    bound = np.take_along_axis(part_d2, part[:, npre:npre + 1], axis=1)[:, 0] + sqa - slack
    return np.take_along_axis(cand, order, axis=1), vals, bound


def _tree_candidates(tree, qs: np.ndarray, m: int):
    """The tree's ``m`` nearest points per query: their indices, squared
    distances, bound and ``tol``, as :func:`_exact_knn` reads them.

    Every point left out is at least as far as the last candidate, so that
    distance, narrowed by the tree's rounding, is the bound (``inf`` when the
    candidates are the whole tree).
    """
    far, cand = tree.query(qs, k=m)
    vals = far.reshape(-1, m)
    np.multiply(vals, vals, out=vals)
    last = vals[:, -1]
    bound = np.inf if m == tree.data.shape[0] else last * (1.0 - _KNN_TIE_RTOL)
    tol = _KNN_TIE_RTOL * last + _KNN_TOL_FLOOR
    return cand.reshape(-1, m).astype(np.int64, copy=False), vals, bound, tol


def kdtree_knn(tree, queries: np.ndarray, k: int) -> np.ndarray:
    """k nearest tree points per query row, ascending (distance, index).

    Saturates at the tree size.  The tree proposes candidates in two rounds.
    The first asks for k + 1 per query, enough to certify a row; most rows
    are, and keep their first k as they stand.  Only the rows it cannot
    certify are asked again for k + 8, which :func:`_exact_knn` certifies,
    re-ranks or scans.  When k + 1 covers the tree there is one round.
    """
    pts = tree.data
    qs = np.ascontiguousarray(queries, dtype=np.float64).reshape(-1, pts.shape[1])
    sq_norms(qs, "queries")
    n = pts.shape[0]
    kk = min(k, n)
    if kk == 0:
        return np.empty((qs.shape[0], 0), dtype=np.int64)
    m = min(kk + 1, n)
    cand, vals, bound, tol = _tree_candidates(tree, qs, m)
    if m == n:
        return _exact_knn(qs, pts, cand, bound, kk, vals=vals, tol=tol)
    out = cand[:, :kk].copy()
    rest = np.flatnonzero(~_certified(vals, tol, bound, kk))
    if rest.size:
        cand, vals, bound, tol = _tree_candidates(tree, qs[rest], min(kk + _KNN_SLACK, n))
        out[rest] = _exact_knn(qs[rest], pts, cand, bound, kk, vals=vals, tol=tol)
    return out


def feature_knn(feats: np.ndarray, k: int) -> np.ndarray:
    """k nearest rows per row in feature space, excluding the row itself.

    Saturates at n-1 neighbors; ties broken by lower index.  Returns an
    (n, min(k, n-1)) index array.  A BLAS product of each row block times -2
    (an exact scaling) with every row gives approximate squared distances
    less each row's own squared norm, built in one buffer per block of
    ``_BLOCK_ELEMS // n`` rows and completed by one pass that adds the
    columns' norms; the k + 8 smallest of each row are the candidates, the
    product's rounding bound :func:`approx_slack` is their ``tol``, and the
    smallest approximate value left out, less that rounding, is the bound.
    A partition costs the same for k + 1 as for k + 8 candidates, so there
    is one round.
    """
    x = np.ascontiguousarray(feats, dtype=np.float64)
    n = x.shape[0]
    kk = min(k, n - 1)
    out = np.empty((n, kk), dtype=np.int64)
    sq = sq_norms(x, "feature rows")
    if kk == 0:
        return out
    npre = min(kk + _KNN_SLACK, n - 1)
    slack = approx_slack(sq)
    step = max(1, _BLOCK_ELEMS // n)
    buf = np.empty((min(step, n), n))
    for s in range(0, n, step):
        e = min(s + step, n)
        own = np.arange(s, e)
        part_d2 = np.matmul(x[s:e] * -2.0, x.T, out=buf[:e - s])
        part_d2 += sq
        part_d2[own - s, own] = np.inf
        # column npre holds the smallest value left out (the row's own inf
        # when every other row is a candidate)
        cand, vals, bound = _candidates(part_d2, sq[s:e], npre, slack)
        out[s:e] = _exact_knn(x[s:e], x, cand, bound, kk, own, vals, slack)
    return out


def map_knn(queries: np.ndarray, pts: np.ndarray, k: int) -> np.ndarray:
    """k nearest ``pts`` rows per query row, ascending (squared distance, index).

    ``pts`` (usually a map's float32 view) is widened one row block at a time
    for the BLAS product; when k + 8 covers the map, every row is a candidate
    and is re-ranked.  Candidates are proposed for one block of queries at a
    time from one buffer of approximate values, so those values and their
    partition indices never exceed ``_QUERY_BLOCK_ELEMS`` each.  As in
    :func:`feature_knn`, the widened rows are scaled by -2 for the product,
    each query's squared norm is added back to its candidates and bound
    only, and their ``tol`` is :func:`approx_slack`.
    """
    qs = np.ascontiguousarray(queries, dtype=np.float64)
    (nq, d), n, kk = qs.shape, pts.shape[0], min(k, pts.shape[0])
    sqq = sq_norms(qs, "queries")
    sqp = sq_norms(pts, "map rows")
    if kk + _KNN_SLACK >= n:
        return _exact_knn(qs, pts, np.tile(np.arange(n), (nq, 1)), np.inf, kk)
    slack = approx_slack(np.append(sqq, sqp))
    out = np.empty((nq, kk), dtype=np.int64)
    step, qstep = row_block(d), max(1, _QUERY_BLOCK_ELEMS // n)
    buf = np.empty((min(qstep, nq), n))
    for a in range(0, nq, qstep):
        q = qs[a:a + qstep]
        part_d2 = buf[:q.shape[0]]
        for s in range(0, n, step):
            np.matmul(q, np.multiply(pts[s:s + step], -2.0, dtype=np.float64).T,
                      out=part_d2[:, s:s + step])
        part_d2 += sqp
        cand, vals, bound = _candidates(part_d2, sqq[a:a + qstep], kk + _KNN_SLACK, slack)
        out[a:a + qstep] = _exact_knn(q, pts, cand, bound, kk, vals=vals, tol=slack)
    return out


def local_stats(pts: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Per-point (dz_max, z_var, s2d, l2d) over the neighbor index rows ``nbr``."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    nbr = np.ascontiguousarray(nbr, dtype=np.int64)
    gather = pts[nbr]  # (n, kk, 3)
    x = gather[:, :, 0]
    y = gather[:, :, 1]
    z = gather[:, :, 2]
    dz_max = z.max(axis=1) - z.min(axis=1)
    z_var = z.var(axis=1)
    xm = x - x.mean(axis=1, keepdims=True)
    ym = y - y.mean(axis=1, keepdims=True)
    cxx = (xm * xm).mean(axis=1)
    cyy = (ym * ym).mean(axis=1)
    cxy = (xm * ym).mean(axis=1)
    half = 0.5 * (cxx - cyy)
    disc = np.sqrt(half * half + cxy * cxy)
    lam1 = np.maximum(0.5 * (cxx + cyy) + disc, 0.0)
    lam2 = np.maximum(0.5 * (cxx + cyy) - disc, 0.0)
    l2d = np.where(lam1 >= 1e-12, lam2 / np.where(lam1 >= 1e-12, lam1, 1.0), 0.0)
    return np.stack([dz_max, z_var, lam1 + lam2, l2d], axis=1)


def center_approx(x: np.ndarray, centers: np.ndarray, sqx: np.ndarray) -> np.ndarray:
    """Approximate squared distance of every row to every center, ``sqx + |c|^2 - 2 x @ c``.

    ``x`` and ``centers`` are float64 and C-contiguous, and ``sqx`` is
    :func:`sq_norms` of ``x``.  When every center is a row of the map
    ``x`` came from or a mean of such rows, each value lies within
    ``approx_slack`` of the whole map's ``sqx`` of the exact distance.  A
    product over a subset of the rows or columns may round differently.
    """
    sqc = np.einsum("kd,kd->k", centers, centers)
    return sqx[:, None] + sqc[None, :] - 2.0 * (x @ centers.T)


def two_smallest(approx: np.ndarray):
    """Per row of ``approx``: the argmin (ties to the lower column), its value, and the
    second-smallest value (inf with one column).  Overwrites the argmin entries."""
    best = np.argmin(approx, axis=1)
    rows = np.arange(approx.shape[0])
    lowest = approx[rows, best]
    approx[rows, best] = np.inf
    return best, lowest, approx.min(axis=1)


def _blocked_d2(x, centers, assign, rows, reduce) -> np.ndarray:
    """Squared distance of each row of ``x``, or of each of ``rows``, to
    ``centers[assign[row]]``, or to the one point ``centers`` when ``assign`` is None.

    Runs in row blocks through one block buffer: ``np.take`` gathers the
    operands into it, ``np.subtract`` forms the difference in place (widening
    float32 rows of ``x`` exactly), and ``reduce(block, out)`` sums each row.
    When both operands are gathered they share the buffer, half a block each.
    A row's value is that of the unblocked ``x[rows] - centers[assign[rows]]``.
    ``rows`` ascends without repeats, so when it holds every row the pass
    slices ``x`` instead.  ``x`` must be float64 when ``rows`` is given.
    """
    if rows is not None and rows.shape[0] == x.shape[0]:
        rows = None
    m = x.shape[0] if rows is None else rows.shape[0]
    out = np.empty(m)
    both = rows is not None and assign is not None
    step = max(1, row_block(x.shape[1]) // (1 + both))
    buf = np.empty((1 + both, min(step, m), x.shape[1]))
    for s in range(0, m, step):
        sel = slice(s, s + step) if rows is None else rows[s:s + step]
        blk = buf[0, :min(step, m - s)]
        # "clip" lets take write into buf without a temporary; the indices are valid
        xs = x[sel] if rows is None else np.take(x, sel, axis=0, out=buf[-1, :blk.shape[0]],
                                                 mode="clip")
        c = centers if assign is None else np.take(centers, assign[sel], axis=0, out=blk,
                                                   mode="clip")
        reduce(np.subtract(xs, c, out=blk), out[s:s + step])
    return out


def _einsum_rows(blk, out):
    np.einsum("nd,nd->n", blk, blk, out=out)


def _square_sum_rows(blk, out):
    np.multiply(blk, blk, out=blk)
    blk.sum(axis=1, out=out)


def center_d2(x: np.ndarray, centers: np.ndarray, assign: np.ndarray,
              rows=None) -> np.ndarray:
    """Exact squared distance of each row, or of each of ``rows`` (ascending, no
    repeats), to its assigned center, reduced as ``einsum("nd,nd->n", diff, diff)``.

    Runs in row blocks through one buffer; a row's value does not depend on
    which other rows are computed with it.
    """
    return _blocked_d2(x, centers, assign, rows, _einsum_rows)


def sum_d2(x: np.ndarray, centers: np.ndarray, assign=None, rows=None) -> np.ndarray:
    """Exact squared distance of each row, or of each of ``rows`` (ascending, no repeats), to
    ``centers[assign[row]]``, or to the one point ``centers`` when ``assign`` is None, reduced as
    ``((x - c) ** 2).sum(axis=1)`` (the reduction K-means++ seeding and the
    keyframe choice are defined by).

    Runs in row blocks through one buffer, as :func:`center_d2` does.  ``x``
    may be float32 when ``rows`` is None.
    """
    return _blocked_d2(x, centers, assign, rows, _square_sum_rows)


def kmeans_assign(x: np.ndarray, centers: np.ndarray, sqx=None):
    """Nearest center per row (ties to the lower cluster id), its exact squared
    distance, and the row's second-smallest approximate value.

    The nearest center is the argmin of one full :func:`center_approx`
    product: a product over a subset of the columns may round differently (a
    single column goes through GEMV), so its argmin could break a tie another
    way.  ``sqx`` is :func:`sq_norms` of the float64 ``x``, for callers that
    assign the same rows many times; it is computed when omitted.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    if sqx is None:
        sqx = sq_norms(x, "rows")
    assign, _, runner_up = two_smallest(center_approx(x, centers, sqx))
    return assign, center_d2(x, centers, assign), runner_up


def pairwise_l2(query_descs: np.ndarray, ref_descs: np.ndarray) -> np.ndarray:
    """Dense L2 distance matrix, float64, exact zeros for identical rows; a blocked pass a row."""
    qd = np.ascontiguousarray(query_descs, dtype=np.float64)
    rd = np.ascontiguousarray(ref_descs, dtype=np.float64)
    out = np.empty((qd.shape[0], rd.shape[0]))
    for a in range(qd.shape[0]):
        out[a] = _blocked_d2(rd, qd[a], None, None, _einsum_rows)
    return np.sqrt(out, out=out)


def trajectory_grid(m: np.ndarray, offsets: np.ndarray, runs=None):
    """Best mean trajectory score per reference end column.

    ``offsets[vi, t]`` is the backward column shift of query row ``rows-1-t``
    for velocity ``vi``; negated offsets give the reversed trajectory.  End
    column ``c`` is in bounds when ``c - max(off) >= 0`` and
    ``c - min(off) < cols``.  Returns (best_score, best_velocity_index) arrays
    of length ``cols``; out-of-bounds columns keep inf / -1.  Velocities are
    scanned in ascending index order and replaced only on strictly smaller
    scores, so ties resolve to the lower velocity.

    ``runs`` is a pair (first, last): the columns are runs side by side,
    column ``c`` in run ``[first[c], last[c])``, and each column scores as it
    would in a call on its run alone.  None means one run, ``(0, cols)``.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if m.shape[0] < offsets.shape[1]:
        raise ValueError("window exceeds row count")
    rows, cols = m.shape
    w = offsets.shape[1]
    best = np.full(cols, np.inf, dtype=np.float64)
    best_v = np.full(cols, -1, dtype=np.int64)
    if runs is None:
        runs = (0, cols)
    # columns a trajectory may reach back from, and forward of, each end column
    back = np.arange(cols) - np.asarray(runs[0], dtype=np.int64)
    ahead = np.asarray(runs[1], dtype=np.int64) - 1 - np.arange(cols)
    for vi, off in enumerate(offsets.tolist()):
        omax, omin = max(off), min(off)
        lo, hi = max(omax, 0), cols + min(omin, 0)
        if lo >= hi:
            continue
        acc = np.zeros(hi - lo, dtype=np.float64)
        for t in range(w):
            acc += m[rows - 1 - t, lo - off[t]: hi - off[t]]
        acc /= w
        upd = (acc < best[lo:hi]) & (back[lo:hi] >= omax) & (ahead[lo:hi] >= -omin)
        best[lo:hi][upd] = acc[upd]
        best_v[lo:hi][upd] = vi
    return best, best_v
