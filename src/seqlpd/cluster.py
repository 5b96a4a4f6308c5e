"""Descriptor-space clustering and super-keyframe selection.

The place map is partitioned with K-means++ (Lloyd refinement, empty-cluster
repair), K is chosen by the Elbow method on the distortion curve, then grown
until every member sits within L2 distance D of its center.  Each cluster
exports a super keyframe (the member nearest the center, the "typical place");
loop detection routes a query through these keyframes alone.

All cluster math runs in float64; ties break toward the lower index at every
step so equal seeds give bitwise-equal results.

In the elbow sweep, each K is an independent job: three seeded restarts,
reduced in restart order with a strict ``<``.  On maps of at least
``_POOL_MIN_SIZE`` matrix elements (about 1,024 rows at d = 256) the jobs
run on a pool of ``min(SEQLPD_THREADS, usable CPUs)`` threads; smaller maps
run them serially, since their jobs are too short to gain from threads.
The chosen clustering does not depend on the worker count.  The exact
distance passes run in cache-sized row blocks; each row's value is the same
as in an unblocked pass.

Each run skips only work that cannot change its result, so it gives the
same clustering, bit for bit, as one that recomputes everything:

* Seeding.  For each new center, one GEMV gives every row an approximate
  squared distance, ``sqx + sqx[j] - 2 x @ x[j]``.  Only a row whose value,
  less the rounding slack of :func:`kernels.approx_slack`, is below its
  current ``d2`` gets its exact distance computed; any other row's exact
  distance is at least its ``d2``, so the minimum keeps ``d2``.  While
  ``d2`` averages within the slack the filter would pass about every row,
  and the exact pass runs on all rows instead.
* Lloyd.  A cluster's mean is recomputed only when its members changed
  since its center was last their mean (seeded and repaired centers are not
  means); an unchanged cluster would sum the same rows in the same order.
  A row's exact distance is recomputed only when its cluster or its
  center changed.  The assignment is the argmin of the full
  ``x @ centers.T`` product (:func:`kernels.center_approx`), ties to the
  lower id, but that product is skipped for rows that bounds prove settled
  (Hamerly, "Making k-means even faster", SDM 2010):

  - Bound.  Each row keeps ``lo``, a lower bound on its distance to every
    center but its own.  It starts from the first assignment's
    second-smallest approximate value less the slack, and each step lowers
    it by the largest shift of any other center.  The exact distance ``d2``
    to the row's own moved center is computed first.  A row with
    ``d2 + 2 slack < lo^2`` keeps its argmin: its own center's approximate
    value lies below ``d2 + slack`` and every other one above
    ``lo^2 - slack``.
  - Gap rule.  The other rows get a product over just those rows, gathered
    one row block at a time.  It may round differently from the full
    product, by up to ``2 slack`` a cell, so its argmin counts only where a
    row's two smallest values lie more than ``4 slack`` apart.  A row inside
    that margin sends the step to the full product.
  - More-than-half rule.  A step where more than half the rows need a check
    runs the full product for all of them.
  - Size rule.  Bounds are kept only on maps of at least ``_POOL_MIN_SIZE``
    elements.  Below that line a restart is Python-bound and the
    bookkeeping costs more than the products it skips (kept at every size,
    bounds made a 60 x 256 elbow 13-18% slower), so every step there runs
    the full product.

  The slack, ``1e-9 (1 + 2 max|x|^2)``, is over 10^4 times the rounding of
  a 256-term product.  It also covers the bound arithmetic: the shifts'
  square roots, one subtraction a step and ``lo^2`` lose at most about
  ``1e-13 max|x|^2`` of ``lo^2`` over a bound's life (the shifts it sheds
  add up to at most two row norms before a check resets it) plus
  ``1e-15 max|x|^2`` a step, which stays inside the slack for over 10^6 steps.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import fileio, kernels
from ._accel import run_jobs, thread_count, usable_cpus
from .errors import (EmptyInput, FormatError, InvalidCluster, InvalidK, InvalidParams,
                     ShapeError)
from .placemap import PlaceMap

_LPDC_MAGIC = b"LPDC"
_LPDC_VERSION = 1
# below this many matrix elements (about 1,024 rows at d = 256) a restart is
# Python-bound, and threads would only contend for the GIL
_POOL_MIN_SIZE = 1 << 18
_F32_MAX = float(np.finfo(np.float32).max)


def _check_ceiling(D: float) -> None:
    """The rule for D, in (0, float32 max] and not rounded to 0 as float32, as
    the LPDC file stores D as float32."""
    if not (0.0 < D <= _F32_MAX and np.float32(D) > 0.0):
        raise InvalidParams(f"D must be in (0, {_F32_MAX:.7g}] and above 0 as float32")


@dataclass(frozen=True)
class ClusterParams:
    """Knobs for elbow selection: D is the per-member distance ceiling."""

    D: float
    K_max: int = 25
    seed: int = 0

    def __post_init__(self):
        _check_ceiling(self.D)
        if self.K_max < 1:
            raise InvalidParams("K_max must be >= 1")
        if self.seed < 0:
            raise InvalidParams("seed must be >= 0")


@dataclass(frozen=True)
class Clustering:
    """A fixed K-partition: centers, per-entry assignment, final distortion.

    ``history`` holds the distortion after seeding and after every Lloyd
    iteration; it is non-increasing.
    """

    K: int
    centers: np.ndarray
    assignment: np.ndarray
    distortion: float
    history: tuple


@dataclass(frozen=True)
class ElbowResult:
    """Elbow selection output: the chosen clustering plus the D-constraint flag.

    ``constraint_ok`` is False when K hit K_max while some member still sat
    at distance >= D from its center (a flagged success, not an error).
    ``j_curve`` maps K (1-based position) to the best-of-restarts distortion.
    """

    K: int
    clustering: Clustering
    constraint_ok: bool
    j_curve: tuple


def _choice(rng, p: np.ndarray) -> int:
    """``int(rng.choice(p.shape[0], p=p))`` for ``p = d2 / d2.sum()``, with fewer checks.

    The same cumulative sum, normalization, uniform draw and search that
    ``Generator.choice`` runs, so the same index and the same generator state.
    Such a ``p`` sums to 1 within rounding unless ``d2.sum()`` overflowed,
    which leaves it all 0 or NaN; that raises ValueError, as it does there.
    """
    cdf = p.cumsum()
    if not cdf[-1] > 0.0:
        raise ValueError("probabilities do not sum to 1")
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _closer_rows(x: np.ndarray, sqx: np.ndarray, j: int, d2: np.ndarray, slack: float,
                 buf: np.ndarray) -> np.ndarray:
    """Rows whose exact squared distance to ``x[j]`` may lie below their ``d2``.

    One GEMV gives approximate distances ``sqx + sqx[j] - 2 x @ x[j]``; a row
    whose value less ``slack`` (the rounding bound) reaches its ``d2`` is
    left out, since ``np.minimum`` with its exact distance would keep ``d2``.
    ``buf`` is a work buffer of one value per row.
    """
    np.matmul(x, x[j], out=buf)
    buf *= -2.0
    buf += sqx
    buf += sqx[j] - slack
    return (buf < d2).nonzero()[0]


def _seed_centers(x: np.ndarray, k: int, rng, sqx: np.ndarray) -> np.ndarray:
    """K-means++ seeding: first center uniform, the rest weighted by squared distance."""
    n = x.shape[0]
    slack = kernels.approx_slack(sqx)
    chosen = [int(rng.integers(n))]
    d2 = kernels.sum_d2(x, x[chosen[0]])
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    buf = np.empty(n)
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            j = _choice(rng, np.divide(d2, total, out=buf))
        else:
            j = int(np.flatnonzero(~taken)[0])
        chosen.append(j)
        taken[j] = True
        # while d2 averages within the slack the filter would keep about every row
        rows = _closer_rows(x, sqx, j, d2, slack, buf) if total > n * slack else None
        sel = slice(None) if rows is None else rows
        d2[sel] = np.minimum(d2[sel], kernels.sum_d2(x, x[j], rows=rows))
    return x[np.array(chosen, dtype=np.int64)].copy()


def _row_mean(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``x[rows].mean(axis=0)`` bit for bit, copying at most one row block at a time:
    that sum adds the rows in order, so each block's sum starts from the running sum."""
    if x.shape[1] == 1:  # numpy sums a single column pairwise
        return x[rows].mean(axis=0)
    step = kernels.row_block(x.shape[1])
    buf = np.empty((min(step, rows.shape[0]) + 1, x.shape[1]))  # the running sum, then one block
    for s in range(0, rows.shape[0], step):
        r = rows[s:s + step]
        # "clip" lets take write into buf without a temporary; the indices are valid
        np.take(x, r, axis=0, out=buf[1:1 + r.shape[0]], mode="clip")
        buf[0] = np.add.reduce(buf[int(s == 0):1 + r.shape[0]], axis=0)
    return buf[0] / rows.shape[0]


def _settled_argmin(x: np.ndarray, sqx: np.ndarray, rows: np.ndarray, centers: np.ndarray,
                    slack: float):
    """The full product's argmin for ``rows``, from a product over those rows alone,
    and each row's second-smallest value; None when some row's two smallest
    values lie within ``4 * slack``, since the full product could order them otherwise.

    Each product's value lies within ``slack`` of the exact distance, so the
    two products differ by at most ``2 * slack`` at any cell.  Rows are
    gathered one row block at a time.
    """
    best, runner_up = np.empty(rows.shape[0], dtype=np.int64), np.empty(rows.shape[0])
    step = kernels.row_block(x.shape[1])
    buf = np.empty((min(step, rows.shape[0]), x.shape[1]))
    for s in range(0, rows.shape[0], step):
        r = rows[s:s + step]
        xb = np.take(x, r, axis=0, out=buf[:r.shape[0]], mode="clip")
        b, lowest, second = kernels.two_smallest(kernels.center_approx(xb, centers, sqx[r]))
        if not (second - lowest > 4.0 * slack).all():
            return None
        best[s:s + step], runner_up[s:s + step] = b, second
    return best, runner_up


def _bounded_assign(x: np.ndarray, sqx: np.ndarray, centers: np.ndarray, shift: np.ndarray,
                    assign: np.ndarray, d2: np.ndarray, lo: np.ndarray,
                    slack: float) -> np.ndarray:
    """``kernels.nearest_center(x, centers, sqx)``, computing the product only
    for the rows the bounds leave open, and updating ``lo`` in place.

    ``d2`` holds each row's exact squared distance to its own center
    ``centers[assign]``, ``lo`` a lower bound on its distance to every other
    center before the centers moved by ``shift``.
    """
    # a row's other centers moved by at most the largest shift but its own
    top = int(np.argmax(shift))
    runner = float(np.partition(shift, -2)[-2])
    lo -= np.where(assign == top, runner, shift[top])
    np.maximum(lo, 0.0, out=lo)
    rows = np.flatnonzero(d2 + 2.0 * slack >= lo * lo)
    settled = None
    if 2 * rows.shape[0] <= x.shape[0]:
        settled = _settled_argmin(x, sqx, rows, centers, slack)
    if settled is None:
        rows = slice(None)
        best, _, second = kernels.two_smallest(kernels.center_approx(x, centers, sqx))
    else:
        best, second = settled
    new_assign = assign.copy()
    new_assign[rows] = best
    lo[rows] = np.sqrt(np.maximum(second - slack, 0.0))
    return new_assign


def kmeanspp(descriptors: np.ndarray, K: int, seed: int = 0,
             iters_max: int = 100) -> Clustering:
    """K-means++ seeding followed by Lloyd iterations until the assignment is fixed.

    An empty cluster is repaired by re-seeding its center at the point
    farthest from its own center (each repair consumes its point).  Raises
    InvalidK unless 1 <= K <= N, and InvalidParams on a row that is not
    finite or whose squared norm overflows.
    """
    x = np.ascontiguousarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyInput("descriptor matrix must be (n, d) with n >= 1")
    n = x.shape[0]
    if not 1 <= K <= n:
        raise InvalidK(f"K={K} outside [1, {n}]")

    rng = np.random.default_rng(seed)
    sqx = np.einsum("nd,nd->n", x, x)
    if not np.isfinite(sqx).all():
        raise InvalidParams("descriptor rows must be finite, with finite squared norms")
    centers = _seed_centers(x, K, rng, sqx)
    # lo[i]: a lower bound on row i's distance to every center but its own
    lo = None
    if K > 1 and x.size >= _POOL_MIN_SIZE:
        slack = kernels.approx_slack(sqx)
        assign, d2, second = kernels.kmeans_assign(x, centers, sqx, second=True)
        lo = np.sqrt(np.maximum(second - slack, 0.0))
    else:
        assign, d2 = kernels.kmeans_assign(x, centers, sqx)
    history = [float(d2.sum())]
    # is_mean[k]: center k is the mean of cluster k's current members
    is_mean = np.zeros(K, dtype=bool)

    for _ in range(iters_max):
        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=K)
        stale = np.flatnonzero((counts > 0) & ~is_mean).tolist()
        if stale:
            # each cluster's rows in ascending index order, as a boolean mask
            # would select them, so every mean sums the same rows in the same order
            order = np.argsort(assign, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
            for k in stale:
                new_centers[k] = _row_mean(x, order[bounds[k]:bounds[k + 1]])
        is_mean = counts > 0
        if not is_mean.all():
            pool = d2.copy()
            for k in np.flatnonzero(~is_mean):
                j = int(np.argmax(pool))
                new_centers[k] = x[j]
                pool[j] = -1.0
        moved = (new_centers != centers).any(axis=1)
        if lo is None:
            new_assign = kernels.nearest_center(x, new_centers, sqx)
            redo = moved[new_assign]
        else:
            # the distance to the row's own moved center bounds its nearest from above
            own = np.flatnonzero(moved[assign])
            d2[own] = kernels.center_d2(x, new_centers, assign, own)
            shift = np.sqrt(kernels.center_d2(new_centers, centers, np.arange(K)))
            new_assign = _bounded_assign(x, sqx, new_centers, shift, assign, d2, lo, slack)
            redo = False
        changed = new_assign != assign
        # a row keeps its exact distance unless its center changed or moved
        rows = np.flatnonzero(changed | redo)
        d2[rows] = kernels.center_d2(x, new_centers, new_assign, rows)
        # a cluster that gained or lost a row needs a new mean
        is_mean[assign[changed]] = False
        is_mean[new_assign[changed]] = False
        centers, assign = new_centers, new_assign
        history.append(float(d2.sum()))
        if not changed.any():
            break

    return Clustering(K=K, centers=centers, assignment=assign,
                      distortion=history[-1], history=tuple(history))


def _best_of_restarts(x: np.ndarray, k: int, params: ClusterParams) -> Clustering:
    best = None
    for r in range(3):
        c = kmeanspp(x, k, seed=params.seed + 1000 * k + r)
        if best is None or c.distortion < best.distortion:
            best = c
    return best


def elbow_select(descriptors: np.ndarray, params: ClusterParams) -> ElbowResult:
    """Choose K by the Elbow method, then grow K until the D-constraint holds.

    Distortion J(K) is computed for K = 1..k_max = min(K_max, n), n >= 1 rows
    (best of 3 seeded restarts each); the elbow is the K in [2, k_max-1]
    maximizing the discrete second difference J(K-1) - 2 J(K) + J(K+1),
    falling back to K=1 when that range is empty.  While any member's distance
    to its center is >= D and K < k_max, K is incremented.  Never raises on an
    unsatisfiable constraint; the result carries ``constraint_ok`` instead.
    """
    x = np.ascontiguousarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidParams("need at least 1 descriptor")
    n = x.shape[0]
    k_max = min(params.K_max, n)

    # one job per K, largest first, so the longest jobs do not finish last
    # on one thread; a job keeps only its best restart
    ks = list(range(k_max, 0, -1))
    workers = min(thread_count(), usable_cpus()) if x.size >= _POOL_MIN_SIZE else 1
    runs = dict(zip(ks, run_jobs(lambda k: _best_of_restarts(x, k, params), ks, workers)))
    j_curve = tuple(runs[k].distortion for k in range(1, k_max + 1))

    if k_max >= 3:
        curv = [j_curve[k - 2] - 2.0 * j_curve[k - 1] + j_curve[k]
                for k in range(2, k_max)]
        k_star = 2 + int(np.argmax(np.asarray(curv)))
    else:
        k_star = 1

    def max_dist(k: int) -> float:
        # a clustering's assignment is already its centers' nearest-center assignment
        d2 = kernels.center_d2(x, runs[k].centers, runs[k].assignment)
        return float(np.sqrt(d2.max()))

    k = k_star
    dist = max_dist(k)
    while dist >= params.D and k < k_max:
        k += 1
        dist = max_dist(k)
    return ElbowResult(K=k, clustering=runs[k], constraint_ok=dist < params.D,
                       j_curve=j_curve)


class SuperKeyframes:
    """Per-cluster typical places for coarse-to-fine matching.

    ``keyframe_descriptors`` holds the K keyframe rows of ``descriptors`` as
    float64; no view of the map is kept, so a grown map can free its old buffer.
    ``n_hist`` is one past the highest member index.  ``trees`` stays K Nones
    (no per-cluster tree is built) only because the benchmark reads it.
    """

    def __init__(self, centers: np.ndarray, keyframes: np.ndarray, members: list,
                 descriptors: np.ndarray):
        self.centers = np.ascontiguousarray(centers, dtype=np.float64)
        self.keyframes = np.ascontiguousarray(keyframes, dtype=np.int64)
        self.members = [np.ascontiguousarray(m, dtype=np.int64) for m in members]
        self.keyframe_descriptors = np.asarray(descriptors)[self.keyframes].astype(np.float64)
        self.n_hist = 1 + max((int(m.max()) for m in self.members if m.size), default=-1)
        self.trees = [None] * len(self.members)

    @property
    def K(self) -> int:
        return len(self.members)

    def cluster_size(self, cluster_id: int) -> int:
        return self.members[cluster_id].shape[0]


def super_keyframes(pmap: PlaceMap, clustering: Clustering) -> SuperKeyframes:
    """Pick each cluster's keyframe (member nearest the center, ties to the
    lower entry index)."""
    desc = pmap.descriptor_matrix()
    if desc.shape[0] != clustering.assignment.shape[0]:
        raise ShapeError(f"clustering covers {clustering.assignment.shape[0]} entries, "
                         f"map has {desc.shape[0]}")
    members = []
    keyframes = np.empty(clustering.K, dtype=np.int64)
    d2 = kernels.sum_d2(desc, np.asarray(clustering.centers, dtype=np.float64),
                        clustering.assignment)
    for k in range(clustering.K):
        m = np.flatnonzero(clustering.assignment == k).astype(np.int64)
        if m.shape[0] == 0:
            raise InvalidCluster(f"cluster {k} is empty")
        keyframes[k] = m[int(np.argmin(d2[m]))]
        members.append(m)
    return SuperKeyframes(clustering.centers, keyframes, members, desc)


def save_clusters(skf: SuperKeyframes, D: float, path) -> None:
    """Write the LPDC container.

    Layout (little-endian): magic "LPDC", u32 version=1, u32 K, f32 D; per
    cluster u32 keyframe entry index, u32 member count, member entry indices
    as u32; then centers as K x dim f32, dim being the map's descriptor
    dimension.  D must pass the ClusterParams rule.
    """
    _check_ceiling(D)
    with fileio.writing(path) as fh:
        fh.write(struct.pack("<4sIIf", _LPDC_MAGIC, _LPDC_VERSION, skf.K, D))
        for k in range(skf.K):
            mem = skf.members[k]
            fh.write(struct.pack("<II", int(skf.keyframes[k]), mem.shape[0]))
            fh.write(np.ascontiguousarray(mem, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(skf.centers, dtype="<f4").tobytes())


def load_clusters(path, pmap: PlaceMap):
    """Read an LPDC file and rebuild SuperKeyframes against ``pmap``.

    Returns (skf, D).  Member indices must be in range, distinct, disjoint
    across clusters, and contain their keyframe, and the centers must have
    the map's dimension; anything else raises FormatError.
    """
    with fileio.Reader(path, _LPDC_MAGIC, _LPDC_VERSION) as r:
        kk, d_thresh = r.unpack("<If")
        if kk < 1:
            raise FormatError(f"{path}: K must be >= 1")
        dim = pmap.dim
        # checked before K sizes anything: a cluster takes at least its 8-byte
        # head, one member and its center
        need = kk * (12 + 4 * dim)
        if need > r.remaining():
            raise FormatError(f"{path}: truncated: K={kk} needs at least {need} bytes "
                              f"after the header, {r.remaining()} remain")
        keyframes = np.empty(kk, dtype=np.int64)
        members = []
        owned = np.zeros(len(pmap), dtype=bool)
        for k in range(kk):
            keyframe, count = r.unpack("<II")
            if count == 0:
                raise FormatError(f"{path}: cluster {k} is empty")
            mem = r.array("<u4", count).astype(np.int64)
            if mem.max() >= len(pmap):
                raise FormatError(f"{path}: member index {mem.max()} outside map of {len(pmap)}")
            if keyframe not in mem:
                raise FormatError(f"{path}: keyframe {keyframe} not a member of cluster {k}")
            ordered = np.sort(mem)
            twice = ordered[1:][ordered[1:] == ordered[:-1]]
            if twice.shape[0]:
                raise FormatError(f"{path}: entry {twice[0]} listed twice in cluster {k}")
            if owned[mem].any():
                raise FormatError(f"{path}: entry {mem[owned[mem]].min()} in multiple clusters")
            owned[mem] = True
            keyframes[k] = keyframe
            members.append(mem)
        rest = r.remaining()
        # whole centers of another width: clusters of a different map
        if rest != 4 * kk * dim and rest % (4 * kk) == 0:
            raise FormatError(f"{path}: {rest // (4 * kk)}-d centers, map dim {dim}")
        centers = r.array("<f4", kk * dim).reshape(kk, dim)
        r.end()
    skf = SuperKeyframes(centers, keyframes, members, pmap.descriptor_matrix())
    return skf, float(d_thresh)
