"""Independent brute-force reference implementations used by the tests.

Everything here is written the slow, obvious way — python loops and
numpy.linalg — on purpose, so the package kernels are checked against
logic that shares none of their code or shortcuts.
"""

import math

import numpy as np


def knn_oracle(points: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive k nearest points per query, ties by lower point index."""
    pts = np.asarray(points, dtype=np.float64)
    out = np.empty((len(queries), min(k, len(pts))), dtype=np.int64)
    for qi, q in enumerate(np.asarray(queries, dtype=np.float64)):
        d2 = ((pts - q) ** 2).sum(axis=1)
        order = sorted(range(len(pts)), key=lambda i: (d2[i], i))
        out[qi] = order[:min(k, len(pts))]
    return out


def feature_knn_oracle(feats: np.ndarray, k: int) -> np.ndarray:
    """Exhaustive k nearest rows per row, excluding the row itself."""
    x = np.asarray(feats, dtype=np.float64)
    n = x.shape[0]
    kk = min(k, n - 1)
    out = np.empty((n, kk), dtype=np.int64)
    for i in range(n):
        d2 = ((x - x[i]) ** 2).sum(axis=1)
        order = sorted((j for j in range(n) if j != i), key=lambda j: (d2[j], j))
        out[i] = order[:kk]
    return out


def local_feature_oracle(pts: np.ndarray, nbr_row: np.ndarray):
    """(dz_max, z_var, s2d, l2d) of one neighborhood via numpy.linalg."""
    nb = np.asarray(pts, dtype=np.float64)[np.asarray(nbr_row, dtype=np.int64)]
    z = nb[:, 2]
    dz = float(z.max() - z.min())
    zv = float(((z - z.mean()) ** 2).mean())
    xy = nb[:, :2] - nb[:, :2].mean(axis=0)
    cov = (xy.T @ xy) / nb.shape[0]
    lam = np.linalg.eigvalsh(cov)
    lam = np.clip(lam, 0.0, None)
    l1, l2_ = float(lam[1]), float(lam[0])
    s2d = l1 + l2_
    l2d = l2_ / l1 if l1 >= 1e-12 else 0.0
    return dz, zv, s2d, l2d


def quadruplet_oracle(anchor, positives, negatives, neg_star,
                      alpha: float, beta: float) -> float:
    """Direct hinge formula with squared L2 distances."""
    a = np.asarray(anchor, dtype=np.float64)
    s = np.asarray(neg_star, dtype=np.float64)
    d_pos = min(float(((p - a) ** 2).sum()) for p in np.asarray(positives, dtype=np.float64))
    negs = np.asarray(negatives, dtype=np.float64)
    first = max(max(alpha + d_pos - float(((n - a) ** 2).sum()), 0.0) for n in negs)
    second = max(max(beta + d_pos - float(((n - s) ** 2).sum()), 0.0) for n in negs)
    return first + second


def kmeans_assign_oracle(x: np.ndarray, centers: np.ndarray):
    """Nearest center per row, ties by lower center id."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(centers, dtype=np.float64)
    assign = np.empty(len(x), dtype=np.int64)
    d2 = np.empty(len(x), dtype=np.float64)
    for i, row in enumerate(x):
        dists = [float(((row - ck) ** 2).sum()) for ck in c]
        best = min(range(len(c)), key=lambda k: (dists[k], k))
        assign[i] = best
        d2[i] = dists[best]
    return assign, d2


def pairwise_l2_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance of every row of ``a`` to every row of ``b``, one pair at a time."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty((len(a), len(b)), dtype=np.float64)
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            out[i, j] = math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(ra, rb)))
    return out


def trajectory_grid_oracle(m: np.ndarray, offsets: np.ndarray):
    """Best mean score per end column over velocity offset rows, ties to the
    lower velocity; unreachable columns keep (inf, -1)."""
    mat = np.asarray(m, dtype=np.float64)
    rows, cols = mat.shape
    best = [math.inf] * cols
    best_v = [-1] * cols
    for vi, off in enumerate(np.asarray(offsets).tolist()):
        for ref in range(max(off), cols):
            score = sum(mat[rows - 1 - t, ref - o] for t, o in enumerate(off)) / len(off)
            if score < best[ref]:
                best[ref] = score
                best_v[ref] = vi
    return np.array(best), np.array(best_v, dtype=np.int64)


def two_partition_oracle(x: np.ndarray):
    """Best K=2 clustering by exhaustive partition enumeration (small n only)."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    best = None
    for mask in range(1, 2 ** (n - 1)):   # fix point 0 in cluster 0
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        a, b = x[~sel], x[sel]
        if len(a) == 0 or len(b) == 0:
            continue
        j = float(((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum())
        if best is None or j < best[0]:
            best = (j, ~sel, a.mean(axis=0), b.mean(axis=0))
    return best


def trajectory_score_oracle(m: np.ndarray, ref_end: int, v: float, w: int):
    """Mean along one trajectory line; None when it leaves the matrix."""
    mat = np.asarray(m, dtype=np.float64)
    rows, cols = mat.shape
    total = 0.0
    for t in range(w):
        col = ref_end - int(math.floor(v * t + 0.5))
        if not 0 <= col < cols:
            return None
        total += mat[rows - 1 - t, col]
    return total / w


def seqsearch_oracle(m: np.ndarray, w: int, v_min: float, v_max: float,
                     v_step: float, exclusion: int):
    """Exhaustive minimum over all (ref_end, velocity) with the tie rule
    (lower ref_end, then lower velocity); second best outside the exclusion
    zone around the best column (inf when none)."""
    mat = np.asarray(m, dtype=np.float64)
    cols = mat.shape[1]
    nv = int(math.floor((v_max - v_min) / v_step + 1e-9)) + 1
    vels = [v_min + i * v_step for i in range(nv)]
    per_col = {}
    for ref_end in range(cols):
        for v in vels:
            s = trajectory_score_oracle(mat, ref_end, v, w)
            if s is None:
                continue
            if ref_end not in per_col or s < per_col[ref_end][0]:
                per_col[ref_end] = (s, v)
    if not per_col:
        return None
    best_col = min(per_col, key=lambda c: (per_col[c][0], c))
    best_s, best_v = per_col[best_col]
    second = math.inf
    for c, (s, _) in per_col.items():
        if abs(c - best_col) > exclusion and s < second:
            second = s
    return best_col, best_v, best_s, second


def candidate_runs_oracle(members, cluster_id: int, w: int):
    """Candidate runs of one cluster by a per-member loop over a column mask:
    each member marks [m - w, m + w] clamped to [0, n_hist), where n_hist is
    one past the highest member of any cluster; runs of marked columns at
    least w long come back as (lo, hi) pairs."""
    n_hist = 1 + max(int(m.max()) for m in members)
    mask = np.zeros(n_hist, dtype=bool)
    for mi in members[cluster_id]:
        mask[max(0, int(mi) - w):min(n_hist, int(mi) + w + 1)] = True
    cols = np.flatnonzero(mask)
    runs = []
    start = 0
    for i in range(1, cols.shape[0] + 1):
        if i == cols.shape[0] or cols[i] != cols[i - 1] + 1:
            run = cols[start:i]
            if run.shape[0] >= w:
                runs.append((int(run[0]), int(run[-1] + 1)))
            start = i
    return runs


def retrieval_oracle(qdescs, qposes, db_descs, db_poses, gt_radius: float, n: int):
    """Recall@N by exhaustive scan; returns (percentage, evaluated, skipped)."""
    qd = np.asarray(qdescs, dtype=np.float64)
    qp = np.asarray(qposes, dtype=np.float64)
    dd = np.asarray(db_descs, dtype=np.float64)
    dp = np.asarray(db_poses, dtype=np.float64)
    hits = evaluated = skipped = 0
    for i in range(len(qd)):
        pos = [j for j in range(len(dp))
               if math.sqrt(float(((dp[j] - qp[i]) ** 2).sum())) <= gt_radius]
        if not pos:
            skipped += 1
            continue
        evaluated += 1
        d = [(float(((dd[j] - qd[i]) ** 2).sum()), j) for j in range(len(dd))]
        top = [j for _, j in sorted(d)[:n]]
        if any(j in pos for j in top):
            hits += 1
    pct = 100.0 * hits / evaluated if evaluated else 0.0
    return pct, evaluated, skipped


def random_unit(rng, n: int, dim: int) -> np.ndarray:
    """Unit-norm float32 rows (the shape descriptors come in)."""
    x = rng.normal(size=(n, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x.astype(np.float32)


def orthogonal_to(rows: np.ndarray, rng, count: int) -> np.ndarray:
    """Unit vectors orthogonal to every given row (needs rank < dim)."""
    a = np.asarray(rows, dtype=np.float64)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    rank = int((s > 1e-10).sum())
    null = vt[rank:]
    if null.shape[0] == 0:
        raise ValueError("no null space available")
    coeff = rng.normal(size=(count, null.shape[0]))
    out = coeff @ null
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out.astype(np.float32)


def _assign_oracle(x, centers):
    """Nearest center by the unblocked GEMM argmin, with exact distances to it."""
    sqx = np.einsum("nd,nd->n", x, x)
    sqc = np.einsum("kd,kd->k", centers, centers)
    d2 = sqx[:, None] + sqc[None, :] - 2.0 * (x @ centers.T)
    assign = np.argmin(d2, axis=1)
    diff = x - centers[assign]
    return assign, np.einsum("nd,nd->n", diff, diff)


def kmeans_oracle(descriptors, k_count: int, run_seed: int, iters_max: int = 100):
    """One seeded K-means run written as the one-thread, unblocked original.

    K-means++ seeding with ``Generator.choice`` and a full distance pass per
    center, then Lloyd refinement that recomputes every mean (boolean masks)
    and every distance, with the farthest-point empty-cluster repair.
    Returns (centers, assignment, history).
    """
    x = np.ascontiguousarray(descriptors, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(run_seed)
    chosen = [int(rng.integers(n))]
    d2 = ((x - x[chosen[0]]) ** 2).sum(axis=1)
    taken = np.zeros(n, dtype=bool)
    taken[chosen[0]] = True
    for _ in range(1, k_count):
        total = float(d2.sum())
        if total > 0.0:
            j = int(rng.choice(n, p=d2 / total))
        else:
            j = int(np.flatnonzero(~taken)[0])
        chosen.append(j)
        taken[j] = True
        d2 = np.minimum(d2, ((x - x[j]) ** 2).sum(axis=1))
    centers = x[np.array(chosen, dtype=np.int64)].copy()
    assign, d2 = _assign_oracle(x, centers)
    history = [float(d2.sum())]
    for _ in range(iters_max):
        new_centers = centers.copy()
        counts = np.bincount(assign, minlength=k_count)
        for k in range(k_count):
            if counts[k] > 0:
                new_centers[k] = x[assign == k].mean(axis=0)
        if (counts == 0).any():
            pool = d2.copy()
            for k in np.flatnonzero(counts == 0):
                j = int(np.argmax(pool))
                new_centers[k] = x[j]
                pool[j] = -1.0
        new_assign, new_d2 = _assign_oracle(x, new_centers)
        centers = new_centers
        history.append(float(new_d2.sum()))
        done = np.array_equal(new_assign, assign)
        assign, d2 = new_assign, new_d2
        if done:
            break
    return centers, assign, tuple(history)


def elbow_oracle(descriptors, D: float, K_max: int = 25, iters_max: int = 100,
                 seed: int = 0):
    """Sequential elbow selection written as the one-thread, unblocked original.

    :func:`kmeans_oracle` runs, best of three seeded restarts per K (strict
    ``<``), the second-difference elbow and the D-ceiling growth.
    Returns (K, j_curve, constraint_ok, centers, assignment, history).
    """
    x = np.ascontiguousarray(descriptors, dtype=np.float64)

    k_max = min(K_max, x.shape[0])
    runs = {}
    for k in range(1, k_max + 1):
        best = None
        for r in range(3):
            run = kmeans_oracle(x, k, seed + 1000 * k + r, iters_max)
            if best is None or run[2][-1] < best[2][-1]:
                best = run
        runs[k] = best
    j_curve = tuple(runs[k][2][-1] for k in range(1, k_max + 1))
    if k_max >= 3:
        curv = [j_curve[k - 2] - 2.0 * j_curve[k - 1] + j_curve[k] for k in range(2, k_max)]
        k_star = 2 + int(np.argmax(np.asarray(curv)))
    else:
        k_star = 1

    def max_dist(run):
        return float(np.sqrt(_assign_oracle(x, run[0])[1].max()))

    k = k_star
    while max_dist(runs[k]) >= D and k < k_max:
        k += 1
    centers, assign, history = runs[k]
    return k, j_curve, max_dist(runs[k]) < D, centers, assign, history
