"""Each kernel must agree with the loop formulation of its contract in
``tests/oracles.py``, and the kNN kernels' three paths (rows certified from
the candidate source's values, rows re-ranked with exact distances, and the
exact full scan a re-ranked row falls back to on ties) must agree with each
other bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (feature_knn_oracle, kmeans_assign_oracle, knn_oracle,
                     local_feature_oracle, pairwise_l2_oracle, trajectory_grid_oracle)
from seqlpd import cloud, kernels, net, seqmatch
from seqlpd.cluster import SuperKeyframes
from seqlpd.errors import InvalidParams


def _offsets(w):
    vs = 0.8 + 0.1 * np.arange(5)
    return np.floor(vs[:, None] * np.arange(w)[None, :] + 0.5).astype(np.int64)


def _paths(monkeypatch, fn):
    """fn()'s result, the number of rows sent to the exact re-rank, and the
    number answered by the exact full scan."""
    reranked, scanned = [], []
    rerank, topk = kernels._rerank, kernels._topk_rows
    monkeypatch.setattr(kernels, "_rerank", lambda qs, pts, cand, kk:
                        reranked.append(cand.shape[0]) or rerank(qs, pts, cand, kk))
    monkeypatch.setattr(kernels, "_topk_rows",
                        lambda d2, kk: scanned.append(d2.shape[0]) or topk(d2, kk))
    out = fn()
    monkeypatch.undo()
    return out, sum(reranked), sum(scanned)


def _scans(monkeypatch, fn):
    """fn()'s result and the number of rows answered by the exact full scan."""
    out, _, scans = _paths(monkeypatch, fn)
    return out, scans


def _knn_and_scans(monkeypatch, pts, queries, k, force=False):
    """kdtree_knn's result and its full-scan row count; ``force`` sends
    every row to the scan."""
    if force:
        monkeypatch.setattr(kernels, "_KNN_TIE_RTOL", 2.0)  # every row "may tie"
    return _scans(monkeypatch, lambda: kernels.kdtree_knn(kernels.kdtree_build(pts), queries, k))


def test_kdtree_paths_agree_and_match_oracle(monkeypatch):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(300, 3))
    pts[50] = pts[10]  # duplicate forces an exact tie
    queries = np.ascontiguousarray(rng.normal(size=(40, 3)))
    tree = kernels.kdtree_build(pts)
    assert tree.data.shape == (300, 3)
    want = knn_oracle(pts, queries, 7)
    got, scans = _knn_and_scans(monkeypatch, pts, queries, 7)
    assert scans == 0  # answered from the tree's candidates alone
    np.testing.assert_array_equal(got, want)
    scanned, scans = _knn_and_scans(monkeypatch, pts, queries, 7, force=True)
    assert scans == 40
    np.testing.assert_array_equal(scanned, want)
    self_nbr = kernels.kdtree_knn(tree, pts, 7)
    assert self_nbr[10, :2].tolist() == [10, 50] and self_nbr[50, :2].tolist() == [10, 50]


def test_kdtree_knn_upsampled_submaps_match_oracle(monkeypatch):
    """Undersized clouds are filled with duplicated points: many exact ties."""
    rng = np.random.default_rng(1)
    total = 0
    for n_points, n_sub in ((40, 400), (150, 600), (256, 1024)):
        cloud_in = cloud.PointCloud(rng.normal(size=(n_points, 3)))
        pts = cloud.normalize_submap(cloud_in, n_sub=n_sub, seed=n_points).points
        got, scans = _knn_and_scans(monkeypatch, pts, pts, 20)
        total += scans
        np.testing.assert_array_equal(got, knn_oracle(pts, pts, 20))
    # 40 points filled to 400 leave ~10 copies of each: a copy group holding
    # the 20th rank can run past the 28 candidates
    assert total > 0


def test_kdtree_knn_integer_grid_ties(monkeypatch):
    axis = np.arange(10, dtype=np.float64)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[np.random.default_rng(2).permutation(grid.shape[0])]
    for k, tied in ((20, False), (8, True)):
        got, scans = _knn_and_scans(monkeypatch, grid, grid, k)
        np.testing.assert_array_equal(got, knn_oracle(grid, grid, k))
        # an inner point's 8th neighbor opens the 12-point shell at distance
        # sqrt(2), which runs past its 16 candidates; at k=20 the 8-point
        # shell at sqrt(3) ends inside its 28
        assert (scans > 0) == tied
    centre = np.array([[4.5, 4.5, 4.5]])  # eight corners at one distance
    np.testing.assert_array_equal(kernels.kdtree_knn(kernels.kdtree_build(grid), centre, 5),
                                  knn_oracle(grid, centre, 5))


def test_kdtree_knn_saturation_and_tiny_inputs():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(12, 3))
    tree = kernels.kdtree_build(pts)
    for k in (12, 13, 50):  # k >= n returns every point, ranked
        got = kernels.kdtree_knn(tree, pts, k)
        assert got.shape == (12, 12)
        np.testing.assert_array_equal(got, knn_oracle(pts, pts, k))
    one = kernels.kdtree_build(pts[:1])
    np.testing.assert_array_equal(kernels.kdtree_knn(one, rng.normal(size=(4, 3)), 5),
                                  np.zeros((4, 1), dtype=np.int64))
    query = rng.normal(size=3)  # a single external query as a flat vector
    np.testing.assert_array_equal(kernels.kdtree_knn(tree, query, 4),
                                  knn_oracle(pts, query[None, :], 4))


def test_kdtree_build_copies_points():
    pts = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
    tree = kernels.kdtree_build(pts)
    pts[0] = 10.0  # the caller's array changes; the tree must not
    np.testing.assert_array_equal(kernels.kdtree_knn(tree, np.zeros((1, 3)), 1), [[0]])


class _QuerySpy:
    """A KD-tree whose ``query`` calls are recorded as (query rows, k)."""

    def __init__(self, tree):
        self.tree, self.data, self.calls = tree, tree.data, []

    def query(self, qs, k):
        self.calls.append((qs.copy(), k))
        return self.tree.query(qs, k=k)


def _spied_knn(pts, k):
    """kdtree_knn of every point of ``pts`` and the tree's query calls."""
    spy = _QuerySpy(kernels.kdtree_build(pts))
    return kernels.kdtree_knn(spy, pts, k), spy.calls


def test_kdtree_generic_submap_is_answered_by_the_first_round():
    rng = np.random.default_rng(21)
    pts = cloud.normalize_submap(cloud.PointCloud(rng.normal(size=(4000, 3))),
                                 n_sub=1024, seed=21).points
    got, calls = _spied_knn(pts, 20)
    np.testing.assert_array_equal(got, knn_oracle(pts, pts, 20))
    # one query for k + 1 neighbors; no row is left for k + 8
    assert [(q.shape[0], k) for q, k in calls] == [(1024, 21)]


@pytest.mark.parametrize("n_points", [256, 1000])
def test_kdtree_second_round_takes_exactly_the_uncertified_rows(n_points):
    """256 points filled to 1024 leave every row a copy pair among its 21
    nearest; 1000 filled to 1024 leave some rows none."""
    rng = np.random.default_rng(22)
    pts = cloud.normalize_submap(cloud.PointCloud(rng.normal(size=(n_points, 3))),
                                 n_sub=1024, seed=22).points
    got, calls = _spied_knn(pts, 20)
    np.testing.assert_array_equal(got, knn_oracle(pts, pts, 20))
    # duplicated points tie exactly and every other gap is far above the
    # tree's rounding, so the rows the first round cannot certify are those
    # with an exact tie among their 21 nearest
    tied = np.flatnonzero((np.diff(_ranked_d2("kdtree", pts, pts)[:, :21], axis=1) == 0)
                          .any(axis=1))
    assert 0 < tied.size <= 1024 and (tied.size == 1024) == (n_points == 256)
    assert [k for _, k in calls] == [21, 28]
    np.testing.assert_array_equal(calls[0][0], pts)
    np.testing.assert_array_equal(calls[1][0], pts[tied])


def test_kdtree_rounds_saturate_at_the_tree_size():
    rng = np.random.default_rng(23)
    pts = np.repeat(rng.normal(size=(6, 3)), 2, axis=0)  # 12 points, each twice
    # k + 1 >= n: one round over the whole tree
    for k in (11, 12, 30):
        got, calls = _spied_knn(pts, k)
        np.testing.assert_array_equal(got, knn_oracle(pts, pts, k))
        assert [(q.shape[0], kq) for q, kq in calls] == [(12, 12)]
    # k + 1 < n <= k + 8: every row ties with its copy, and the second round
    # covers the whole tree
    for k in (4, 5, 10):
        got, calls = _spied_knn(pts, k)
        np.testing.assert_array_equal(got, knn_oracle(pts, pts, k))
        assert [(q.shape[0], kq) for q, kq in calls] == [(12, k + 1), (12, 12)]


def _knn(kernel, x, queries, k):
    """One kNN kernel's result on (x, queries, k) and its oracle's;
    ``feature_knn`` ranks the rows of ``x`` against each other."""
    if kernel == "kdtree":
        return (lambda: kernels.kdtree_knn(kernels.kdtree_build(x), queries, k),
                knn_oracle(x, queries, k))
    if kernel == "feature":
        return lambda: kernels.feature_knn(x, k), feature_knn_oracle(x, k)
    return lambda: kernels.map_knn(queries, x, k), knn_oracle(x, queries, k)


def _ranked_d2(kernel, x, queries):
    """Each query's exact squared distances to the rows of ``x``, ascending; for
    feature_knn the queries are the rows of ``x``, each leaving itself out."""
    x = np.asarray(x, dtype=np.float64)
    q = x if kernel == "feature" else np.asarray(queries, dtype=np.float64)
    d2 = np.stack([((x - row) ** 2).sum(axis=1) for row in q])
    if kernel == "feature":
        np.fill_diagonal(d2, np.inf)
    return np.sort(d2, axis=1)


def _near_tied_rows(kernel, x, queries, k):
    """Rows whose k + 1 nearest exact squared distances hold two within 1e-6 of
    each other, relative to the largest."""
    top = _ranked_d2(kernel, x, queries)[:, :k + 1]
    return int((np.diff(top, axis=1) <= 1e-6 * top[:, -1:]).any(axis=1).sum())


_KNN_KERNELS = ["kdtree", "feature", "map"]


@pytest.mark.parametrize("kernel", _KNN_KERNELS)
def test_generic_rows_are_certified_without_exact_distances(monkeypatch, kernel):
    rng = np.random.default_rng(12)
    x, queries = rng.normal(size=(500, 6)), rng.normal(size=(60, 6))
    fn, want = _knn(kernel, x, queries, 20)
    got, reranked, scans = _paths(monkeypatch, fn)
    np.testing.assert_array_equal(got, want)
    assert scans == 0 and reranked == _near_tied_rows(kernel, x, queries, 20)
    # one feature row holds two neighbors 1.3e-8 apart, inside the product's
    # 2 tol of 9e-8; every other row is certified
    assert reranked == (kernel == "feature")


@pytest.mark.parametrize("kernel", _KNN_KERNELS)
def test_upsampled_submaps_rerank_their_tied_rows(monkeypatch, kernel):
    """Duplicated points tie exactly; only rows with a tie among their k + 1
    nearest are re-ranked."""
    rng = np.random.default_rng(1)
    total = 0
    for n_points, n_sub in ((40, 400), (256, 1024), (900, 1024)):
        pts = cloud.normalize_submap(cloud.PointCloud(rng.normal(size=(n_points, 3))),
                                     n_sub=n_sub, seed=n_points).points
        fn, want = _knn(kernel, pts, pts, 20)
        got, reranked, _ = _paths(monkeypatch, fn)
        np.testing.assert_array_equal(got, want)
        assert reranked == _near_tied_rows(kernel, pts, pts, 20)
        total += reranked
    assert total > 1024


@pytest.mark.parametrize("kernel", _KNN_KERNELS)
def test_near_ties_take_the_exact_path(monkeypatch, kernel):
    """Copies scaled by 1 + 1e-12 give candidate values closer than 2 tol but
    not equal: such rows are re-ranked and keep the exact order."""
    rng = np.random.default_rng(13)
    base = rng.normal(size=(300, 3))
    x = np.vstack([base, base[:100] * (1.0 + 1e-12)])
    queries = np.vstack([rng.normal(size=(60, 3)), base[:20] + 1e-3])
    fn, want = _knn(kernel, x, queries, 12)
    got, reranked, _ = _paths(monkeypatch, fn)
    np.testing.assert_array_equal(got, want)
    near = _near_tied_rows(kernel, x, queries, 12)
    assert reranked == near > 0
    # no row's 13 nearest values tie exactly: no tie rule decides their order
    assert (np.diff(_ranked_d2(kernel, x, queries)[:, :13], axis=1) > 0).all()


def test_feature_knn_paths_agree():
    rng = np.random.default_rng(1)
    feats = np.ascontiguousarray(rng.normal(size=(250, 5)))
    feats[100] = feats[3]
    feats[101] = feats[3]
    got = kernels.feature_knn(feats, 9)
    np.testing.assert_array_equal(got, feature_knn_oracle(feats, 9))
    # duplicated rows pick each other first, lower index winning the tie
    assert got[100, 0] == 3 and got[100, 1] == 101
    assert got[101, 0] == 3 and got[101, 1] == 100


def _upsampled_features(n_points, n_sub, seed):
    """An undersized cloud filled by normalize_submap, mapped to 64-d float32
    features: every duplicated point gives a group of identical rows."""
    rng = np.random.default_rng(seed)
    sub = cloud.normalize_submap(cloud.PointCloud(rng.normal(size=(n_points, 3))),
                                 n_sub=n_sub, seed=seed)
    w = rng.normal(size=(3, 64))
    return np.tanh(sub.points @ w).astype(np.float32)


def test_feature_knn_duplicate_groups_scan_only_true_ties(monkeypatch):
    for n_points, n_sub, tied in ((64, 256, 0), (150, 600, 0), (256, 1024, 4)):
        feats = _upsampled_features(n_points, n_sub, n_points)
        got, scans = _scans(monkeypatch, lambda: kernels.feature_knn(feats, 20))
        np.testing.assert_array_equal(got, feature_knn_oracle(feats, 20))
        x = feats.astype(np.float64)
        d2 = np.stack([((x - row) ** 2).sum(axis=1) for row in x])
        np.fill_diagonal(d2, np.inf)
        ranked = np.sort(d2, axis=1)
        # most rows have a copy group straddling the 28-candidate boundary,
        # but only a row whose 20th and 29th neighbors tie (one group of 11
        # copies at n = 1024) can have an unseen row tied with its 20th
        assert (ranked[:, 27] == ranked[:, 28]).mean() > 0.7
        assert scans == (ranked[:, 19] == ranked[:, 28]).sum() == tied


def test_feature_knn_tie_group_at_kth_rank_is_scanned(monkeypatch):
    axis = np.arange(7, dtype=np.float64)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[np.random.default_rng(6).permutation(grid.shape[0])]
    feats = np.hstack([grid, np.zeros((grid.shape[0], 2))])
    # an inner point's 8th neighbor opens the 12-point shell at sqrt(2),
    # which runs past its 16 candidates
    got, scans = _scans(monkeypatch, lambda: kernels.feature_knn(feats, 8))
    assert scans > 0
    np.testing.assert_array_equal(got, feature_knn_oracle(feats, 8))
    dup = np.repeat(feats[:6], 15, axis=0)  # 14 copies tie past the 12 candidates
    got, scans = _scans(monkeypatch, lambda: kernels.feature_knn(dup, 4))
    assert scans > 0
    np.testing.assert_array_equal(got, feature_knn_oracle(dup, 4))


def test_feature_knn_boundaries(monkeypatch):
    rng = np.random.default_rng(7)
    pair = rng.normal(size=(2, 4))
    for k in (1, 5):
        np.testing.assert_array_equal(kernels.feature_knn(pair, k), [[1], [0]])
    feats = rng.normal(size=(10, 4))
    # k + 8 >= n - 1: every other row is a candidate, and the partition index
    # is the last column, the row's own inf
    for k in (1, 3, 9, 50):
        got, scans = _scans(monkeypatch, lambda: kernels.feature_knn(feats, k))
        assert scans == 0 and got.shape == (10, min(k, 9))
        np.testing.assert_array_equal(got, feature_knn_oracle(feats, k))
    half = np.round(rng.normal(size=(80, 6)), 1).astype(np.float32)
    half[40:] = half[:40]
    np.testing.assert_array_equal(kernels.feature_knn(half, 12), feature_knn_oracle(half, 12))
    assert kernels.feature_knn(rng.normal(size=(1, 4)), 5).shape == (1, 0)


@st.composite
def _tie_heavy(draw):
    """Small integer-valued matrices drawn from a few distinct rows, some float64
    rows scaled by 1 + 1e-12 (near ties, within every tol but not equal), and a k."""
    f = draw(st.integers(1, 4))
    base = draw(st.lists(st.lists(st.integers(-3, 3), min_size=f, max_size=f),
                         min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(base) - 1), min_size=2, max_size=40))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    x = np.array(base, dtype=dtype)[picks]
    if dtype == np.float64:
        near = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
        x[np.array(near)] *= 1.0 + 1e-12
    return x, draw(st.integers(1, len(picks) + 2))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_tie_heavy())
def test_exact_knn_kernels_match_oracles(case):
    x, k = case
    np.testing.assert_array_equal(kernels.feature_knn(x, k), feature_knn_oracle(x, k))
    np.testing.assert_array_equal(kernels.kdtree_knn(kernels.kdtree_build(x), x, k),
                                  knn_oracle(x, x, k))
    np.testing.assert_array_equal(kernels.map_knn(x, x, k), knn_oracle(x, x, k))


_NOT_FINITE = "must be finite, with finite squared norms"


def test_kdtree_knn_refuses_non_finite_rows():
    index = cloud.SpatialIndex(np.random.default_rng(8).normal(size=(10, 3)))
    # NaN and inf queries, and queries whose squared distances could overflow
    # ([1e308] * 3 made the tree answer with the out-of-range index n)
    for q in ([np.nan, 0.0, 0.0], [1e308] * 3, [0.0, -np.inf, 0.0], [1e154, 0.0, 0.0]):
        with pytest.raises(InvalidParams, match=_NOT_FINITE):
            index.knn(q, 3)
    with pytest.raises(InvalidParams, match=_NOT_FINITE):
        kernels.kdtree_build(np.array([[0.0, 0.0, 0.0], [np.nan, 1.0, 1.0]]))
    assert index.knn([1e153, 0.0, 0.0], 3).shape == (3,)


def test_feature_knn_refuses_non_finite_rows():
    for bad in (np.nan, np.inf, 1e200):
        with pytest.raises(InvalidParams, match=_NOT_FINITE):
            kernels.feature_knn(np.array([[0.0, 1.0], [bad, 0.0], [1.0, 1.0]]), 1)
    with pytest.raises(InvalidParams, match=_NOT_FINITE):
        kernels.feature_knn(np.array([[np.nan, 0.0]]), 1)  # even with no neighbor to rank


def test_map_knn_refuses_non_finite_rows():
    rng = np.random.default_rng(9)
    for size in (5, 40):  # every row a candidate, and the product's candidates
        db = rng.normal(size=(size, 4)).astype(np.float32)
        with pytest.raises(InvalidParams, match=_NOT_FINITE):
            kernels.map_knn(np.array([[np.nan, 0.0, 0.0, 0.0]]), db, 2)
        db[size // 2, 1] = np.inf
        with pytest.raises(InvalidParams, match=_NOT_FINITE):
            kernels.map_knn(rng.normal(size=(3, 4)), db, 2)


def test_local_stats_paths_agree():
    rng = np.random.default_rng(2)
    pts = np.ascontiguousarray(rng.normal(size=(200, 3)))
    nbr = np.ascontiguousarray(rng.integers(0, 200, size=(200, 12)), dtype=np.int64)
    got = kernels.local_stats(pts, nbr)
    want = np.array([local_feature_oracle(pts, row) for row in nbr])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_kmeans_assign_paths_agree():
    rng = np.random.default_rng(3)
    x = np.ascontiguousarray(rng.normal(size=(400, 6)))
    centers = np.ascontiguousarray(x[rng.choice(400, size=7, replace=False)])
    assign, d2, _ = kernels.kmeans_assign(x, centers)
    a_ref, d_ref = kmeans_assign_oracle(x, centers)
    np.testing.assert_array_equal(assign, a_ref)
    np.testing.assert_allclose(d2, d_ref, rtol=1e-10, atol=1e-12)


def test_pairwise_l2_paths_agree_with_exact_zero():
    rng = np.random.default_rng(4)
    a = np.ascontiguousarray(rng.normal(size=(30, 16)))
    b = np.ascontiguousarray(np.vstack([rng.normal(size=(20, 16)), a[5:7]]))
    got = kernels.pairwise_l2(a, b)
    np.testing.assert_allclose(got, pairwise_l2_oracle(a, b), rtol=1e-12, atol=1e-14)
    assert got[5, 20] == 0.0 and got[6, 21] == 0.0


def test_blocked_distance_passes_match_unblocked_formula():
    # three 512-row blocks and a one-row tail at d = 256
    rng = np.random.default_rng(5)
    ref = np.ascontiguousarray(rng.normal(size=(3 * kernels.row_block(256) + 1, 256)))
    queries = np.vstack([rng.normal(size=(2, 256)), ref[[0, 1536]]])
    got = kernels.pairwise_l2(queries, ref)
    for a, q in enumerate(queries):
        diff = ref - q
        assert got[a].tobytes() == np.sqrt(np.einsum("nd,nd->n", diff, diff)).tobytes()
    assert got[2, 0] == 0.0 and got[3, 1536] == 0.0
    np.testing.assert_allclose(got[:, ::97], pairwise_l2_oracle(queries, ref[::97]),
                               rtol=1e-12, atol=1e-14)
    centers = ref[rng.choice(ref.shape[0], size=9, replace=False)]
    assign, d2, _ = kernels.kmeans_assign(ref, centers)
    diff = ref - centers[assign]
    assert d2.tobytes() == np.einsum("nd,nd->n", diff, diff).tobytes()
    a_ref, _ = kmeans_assign_oracle(ref[::7], centers)
    np.testing.assert_array_equal(assign[::7], a_ref)
    rows = np.arange(1, ref.shape[0], 2)  # 768 rows: one full block and a part
    assert kernels.center_d2(ref, centers, assign, rows).tobytes() == d2[rows].tobytes()
    assign, d2, _ = kernels.kmeans_assign(np.empty((0, 256)), centers)
    assert assign.shape == d2.shape == (0,)


def _sq_rows(a, b):
    return ((a - b) ** 2).sum(axis=1)


@pytest.mark.parametrize("case", ["pairwise_f32", "pairwise_f64", "coarse_match", "loss"])
def test_kernel_distances_give_the_inline_formulas_bytes(case):
    # pairwise_l2, coarse_match and the training loss take their squared
    # distances from the one blocked pass; each keeps the inline formula's bits
    rng = np.random.default_rng(11)
    if case.startswith("pairwise"):
        # 1,300 rows: three row blocks at d = 256
        dtype = np.float32 if case == "pairwise_f32" else np.float64
        ref = rng.normal(size=(1300, 256)).astype(dtype)
        queries = np.vstack([rng.normal(size=(9, 256)), ref[[700]]])
        got = kernels.pairwise_l2(queries, ref)
        for a, q in enumerate(queries):
            diff = ref - q
            assert got[a].tobytes() == np.sqrt(np.einsum("nd,nd->n", diff, diff)).tobytes()
        assert got[9, 700] == 0.0
    elif case == "coarse_match":
        kf = rng.normal(size=(40, 64))
        kf[31] = kf[12]  # a tie goes to the lower id
        skf = SuperKeyframes(kf, np.arange(40), [np.array([i]) for i in range(40)], kf)
        for q in np.vstack([rng.normal(size=(50, 64)), kf[31] + 1e-3]):
            assert seqmatch.coarse_match(q, skf) == int(np.argmin(_sq_rows(kf, q)))
            assert kernels.sum_d2(kf, q).tobytes() == _sq_rows(kf, q).tobytes()
        assert seqmatch.coarse_match(kf[31] + 1e-3, skf) == 12
    else:
        losses = []
        for _ in range(50):
            d = int(rng.integers(1, 300))
            anchor = rng.normal(size=d)
            # rows near the anchor, so the hinges are often open
            near = anchor + 0.3 * rng.normal(size=(9, d))
            pos, neg, star = near[:3], near[3:8], near[8]
            min_pos = float(_sq_rows(pos, anchor).min())
            want = (float(np.maximum(0.5 + min_pos - _sq_rows(neg, anchor), 0.0).max())
                    + float(np.maximum(0.2 + min_pos - _sq_rows(neg, star), 0.0).max()))
            losses.append(net.lazy_quadruplet_loss(anchor, pos, neg, star))
            assert losses[-1] == want
        assert sum(v > 0.0 for v in losses) > 10


def test_trajectory_grid_paths_agree():
    rng = np.random.default_rng(5)
    m = np.ascontiguousarray(rng.random((12, 80)))
    off = _offsets(10)
    best, best_v = kernels.trajectory_grid(m, off)
    b_ref, v_ref = trajectory_grid_oracle(m, off)
    assert np.array_equal(np.isinf(best), np.isinf(b_ref))
    finite = np.isfinite(best)
    np.testing.assert_allclose(best[finite], b_ref[finite], rtol=1e-12)
    np.testing.assert_array_equal(best_v, v_ref)
    # columns reachable by no velocity stay unset
    assert best_v[: int(off.max(axis=1).min())].max() == -1


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2 ** 32 - 1), w=st.integers(1, 8),
       lengths=st.lists(st.integers(1, 20), min_size=1, max_size=6),
       v_max=st.sampled_from([1.0, 1.2, 2.0, 3.5]))
def test_run_aware_trajectory_grid_scores_each_run_alone(seed, w, lengths, v_max):
    # runs side by side score as each run alone: no trajectory crosses a run's ends
    rng = np.random.default_rng(seed)
    m = rng.random((w + int(rng.integers(0, 3)), sum(lengths)))
    if rng.integers(0, 2):
        m = np.round(4 * m) / 4  # tied cells and tied scores
    vs = np.arange(0.5, v_max + 1e-9, 0.25)
    off = np.floor(vs[:, None] * np.arange(w)[None, :] + 0.5).astype(np.int64)

    def runs(lengths):
        starts = np.cumsum([0] + lengths[:-1])
        return starts, (np.repeat(starts, lengths), np.repeat(starts + lengths, lengths))

    starts, bounds = runs(lengths)
    best, best_v = kernels.trajectory_grid(m, off, bounds)
    for s, n in zip(starts, lengths):
        alone, alone_v = kernels.trajectory_grid(m[:, s:s + n], off)
        assert best[s:s + n].tobytes() == alone.tobytes()
        np.testing.assert_array_equal(best_v[s:s + n], alone_v)
        b_ref, v_ref = trajectory_grid_oracle(m[:, s:s + n], off)
        assert np.array_equal(np.isinf(best[s:s + n]), np.isinf(b_ref))
        finite = np.isfinite(b_ref)
        np.testing.assert_allclose(best[s:s + n][finite], b_ref[finite], rtol=1e-12)
        np.testing.assert_array_equal(best_v[s:s + n], v_ref)
    # one run over every column is the call without runs
    cols = m.shape[1]
    whole, whole_v = kernels.trajectory_grid(m, off, (np.zeros(cols, dtype=np.int64),
                                                      np.full(cols, cols)))
    plain, plain_v = kernels.trajectory_grid(m, off)
    assert whole.tobytes() == plain.tobytes()
    np.testing.assert_array_equal(whole_v, plain_v)
    # negated offsets score each run reversed: the reversed matrix and runs
    _, rev_bounds = runs(lengths[::-1])
    for bounds_neg, bounds_rev in ((bounds, rev_bounds), (None, None)):
        neg, neg_v = kernels.trajectory_grid(m, -off, bounds_neg)
        rev, rev_v = kernels.trajectory_grid(m[:, ::-1], off, bounds_rev)
        assert neg.tobytes() == rev[::-1].tobytes()
        np.testing.assert_array_equal(neg_v, rev_v[::-1])


def test_trajectory_grid_validation():
    with pytest.raises(ValueError):
        kernels.trajectory_grid(np.ones((3, 10)), _offsets(5))
    # offsets that only reach forward: column c needs c + 1 < cols
    best, best_v = kernels.trajectory_grid(np.ones((5, 10)), -np.ones((2, 3), dtype=np.int64))
    assert best.tolist() == [1.0] * 9 + [np.inf]
    assert best_v.tolist() == [0] * 9 + [-1]
