"""Descriptor-space clustering and super-keyframe selection.

The place map is partitioned with K-means++ (Lloyd refinement, empty-cluster
repair), K is chosen by the Elbow method on the distortion curve, then grown
until every member sits within L2 distance D of its center.  Each cluster
exports a super keyframe (the member nearest the center, the "typical place")
and, on first lookup, a KD-tree over member descriptors for in-cluster search.

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


@dataclass(frozen=True)
class ClusterParams:
    """Knobs for elbow selection: D is the per-member distance ceiling."""

    D: float
    K_max: int = 25
    iters_max: int = 100
    seed: int = 0

    def __post_init__(self):
        if not self.D > 0.0:
            raise InvalidParams("D must be > 0")
        if self.K_max < 1:
            raise InvalidParams("K_max must be >= 1")
        if self.iters_max < 1:
            raise InvalidParams("iters_max must be >= 1")


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


def _seed_centers(x: np.ndarray, k: int, rng) -> np.ndarray:
    """K-means++ seeding: first center uniform, the rest weighted by squared distance."""
    n = x.shape[0]
    step = kernels.row_block(x.shape[1])
    d2 = np.empty(n)
    # row blocks keep the temporaries in cache; each row's value is unchanged
    blocks = [(x[s:s + step], d2[s:s + step]) for s in range(0, n, step)]
    chosen = [int(rng.integers(n))]
    for xb, db in blocks:
        db[:] = ((xb - x[chosen[0]]) ** 2).sum(axis=1)
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    for _ in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            j = int(rng.choice(n, p=d2 / total))
        else:
            j = int(np.flatnonzero(~taken)[0])
        chosen.append(j)
        taken[j] = True
        for xb, db in blocks:
            np.minimum(db, ((xb - x[j]) ** 2).sum(axis=1), out=db)
    return x[np.array(chosen, dtype=np.int64)].copy()


def kmeanspp(descriptors: np.ndarray, K: int, seed: int = 0,
             iters_max: int = 100) -> Clustering:
    """K-means++ seeding followed by Lloyd iterations until the assignment is fixed.

    An empty cluster is repaired by re-seeding its center at the point
    farthest from its own center (each repair consumes its point).  Raises
    InvalidK unless 1 <= K <= N.
    """
    x = np.ascontiguousarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise EmptyInput("descriptor matrix must be (n, d) with n >= 1")
    n = x.shape[0]
    if not 1 <= K <= n:
        raise InvalidK(f"K={K} outside [1, {n}]")

    rng = np.random.default_rng(seed)
    centers = _seed_centers(x, K, rng)
    sqx = np.einsum("nd,nd->n", x, x)
    assign, d2 = kernels.kmeans_assign(x, centers, sqx)
    history = [float(d2.sum())]

    for _ in range(iters_max):
        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=K)
        # each cluster's rows in ascending index order, as a boolean mask
        # would select them, so every mean sums the same rows in the same order
        order = np.argsort(assign, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        for k in np.flatnonzero(counts).tolist():
            new_centers[k] = x[order[bounds[k]:bounds[k + 1]]].mean(axis=0)
        if (counts == 0).any():
            pool = d2.copy()
            for k in np.flatnonzero(counts == 0):
                j = int(np.argmax(pool))
                new_centers[k] = x[j]
                pool[j] = -1.0
        new_assign, new_d2 = kernels.kmeans_assign(x, new_centers, sqx)
        centers = new_centers
        history.append(float(new_d2.sum()))
        done = np.array_equal(new_assign, assign)
        assign, d2 = new_assign, new_d2
        if done:
            break

    return Clustering(K=K, centers=centers, assignment=assign,
                      distortion=history[-1], history=tuple(history))


def _best_of_restarts(x: np.ndarray, k: int, params: ClusterParams,
                      restarts: int = 3) -> Clustering:
    best = None
    for r in range(restarts):
        c = kmeanspp(x, k, seed=params.seed + 1000 * k + r, iters_max=params.iters_max)
        if best is None or c.distortion < best.distortion:
            best = c
    return best


def elbow_select(descriptors: np.ndarray, params: ClusterParams) -> ElbowResult:
    """Choose K by the Elbow method, then grow K until the D-constraint holds.

    Distortion J(K) is computed for K = 1..K_max (best of 3 seeded restarts
    each); the elbow is the K in [2, K_max-1] maximizing the discrete second
    difference J(K-1) - 2 J(K) + J(K+1), falling back to K=1 when that range
    is empty.  While any member's distance to its center is >= D and K < K_max,
    K is incremented.  Never raises on an unsatisfiable constraint; the result
    carries ``constraint_ok`` instead.
    """
    x = np.ascontiguousarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InvalidParams("need at least 2 descriptors")
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

    def max_dist(c: Clustering) -> float:
        _, d2 = kernels.kmeans_assign(x, c.centers)
        return float(np.sqrt(d2.max()))

    k = k_star
    while max_dist(runs[k]) >= params.D and k < k_max:
        k += 1
    chosen = runs[k]
    return ElbowResult(K=k, clustering=chosen,
                       constraint_ok=max_dist(chosen) < params.D,
                       j_curve=j_curve)


class SuperKeyframes:
    """Per-cluster typical places and member KD-trees for coarse-to-fine matching.

    ``descriptors`` is kept as given, usually the map's read-only float32
    view, so no copy of the map is made; ``keyframe_descriptors`` holds the
    K keyframe rows as float64.  ``n_hist`` is the length of the clustered
    history, one past the highest member index.  ``trees[k]`` stays None
    until :func:`nearest_in_cluster` first searches cluster k; loop detection
    routes through the keyframes alone.
    """

    def __init__(self, centers: np.ndarray, keyframes: np.ndarray, members: list,
                 descriptors: np.ndarray):
        self.centers = np.ascontiguousarray(centers, dtype=np.float64)
        self.keyframes = np.ascontiguousarray(keyframes, dtype=np.int64)
        self.members = [np.ascontiguousarray(m, dtype=np.int64) for m in members]
        self._desc = np.asarray(descriptors)
        self.keyframe_descriptors = self._desc[self.keyframes].astype(np.float64)
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
    for k in range(clustering.K):
        m = np.flatnonzero(clustering.assignment == k).astype(np.int64)
        if m.shape[0] == 0:
            raise InvalidCluster(f"cluster {k} is empty")
        d2 = ((desc[m] - clustering.centers[k]) ** 2).sum(axis=1)
        keyframes[k] = m[int(np.argmin(d2))]
        members.append(m)
    return SuperKeyframes(clustering.centers, keyframes, members, desc)


def nearest_in_cluster(skf: SuperKeyframes, cluster_id: int, query_descriptor,
                       m: int) -> np.ndarray:
    """Entry indices of the m nearest members of one cluster (L2, ties by
    lower entry index); saturates at the cluster size."""
    if not 0 <= cluster_id < skf.K:
        raise InvalidCluster(f"cluster id {cluster_id} outside [0, {skf.K})")
    if m < 1:
        raise InvalidParams("m must be >= 1")
    q = np.asarray(query_descriptor, dtype=np.float64).reshape(1, -1)
    tree = skf.trees[cluster_id]
    if tree is None:  # racing first queries may each build one; any copy answers the same
        tree = skf.trees[cluster_id] = kernels.kdtree_build(skf._desc[skf.members[cluster_id]])
    local = kernels.kdtree_knn(tree, q, m)[0]
    return skf.members[cluster_id][local]


def save_clusters(skf: SuperKeyframes, D: float, path) -> None:
    """Write the LPDC container.

    Layout (little-endian): magic "LPDC", u32 version=1, u32 K, f32 D; per
    cluster u32 keyframe entry index, u32 member count, member entry indices
    as u32; then centers as K x dim f32, dim being the map's descriptor
    dimension.  KD-trees are not stored.
    """
    with fileio.writing(path) as fh:
        fh.write(struct.pack("<4sIIf", _LPDC_MAGIC, _LPDC_VERSION, skf.K, D))
        for k in range(skf.K):
            mem = skf.members[k]
            fh.write(struct.pack("<II", int(skf.keyframes[k]), mem.shape[0]))
            fh.write(np.ascontiguousarray(mem, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(skf.centers, dtype="<f4").tobytes())


def load_clusters(path, pmap: PlaceMap):
    """Read an LPDC file and rebuild SuperKeyframes against ``pmap``.

    Returns (skf, D).  Member indices must be in range, disjoint across
    clusters, and contain their keyframe, and the centers must have the
    map's dimension; anything else raises FormatError.
    """
    r = fileio.Reader(path, _LPDC_MAGIC, _LPDC_VERSION)
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
    seen = set()
    for k in range(kk):
        keyframe, count = r.unpack("<II")
        if count == 0:
            raise FormatError(f"{path}: cluster {k} is empty")
        mem = r.array("<u4", count).astype(np.int64)
        if mem.max() >= len(pmap):
            raise FormatError(f"{path}: member index {mem.max()} outside map of {len(pmap)}")
        if keyframe not in mem:
            raise FormatError(f"{path}: keyframe {keyframe} not a member of cluster {k}")
        overlap = seen.intersection(mem.tolist())
        if overlap:
            raise FormatError(f"{path}: entry {min(overlap)} in multiple clusters")
        seen.update(mem.tolist())
        keyframes[k] = keyframe
        members.append(mem)
    rest = r.remaining()
    # whole centers of another width: clusters of a different map
    if rest != 4 * kk * dim and rest % (4 * kk) == 0:
        raise FormatError(f"{path}: {rest // (4 * kk)}-d centers, map dim {dim}")
    centers = r.array("<f4", kk * dim).reshape(kk, dim)
    r.end()
    skf = SuperKeyframes(centers.astype(np.float64), keyframes, members,
                         pmap.descriptor_matrix())
    return skf, float(d_thresh)
