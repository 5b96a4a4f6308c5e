import struct
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlpd import _accel, cluster, kernels, placemap, seqmatch
from seqlpd.cloud import Pose
from seqlpd.errors import FormatError, InvalidK, InvalidParams

from oracles import (elbow_oracle, kmeans_assign_oracle, kmeans_oracle, random_unit,
                     two_partition_oracle)


def _blobs(rng, n_per=30, dim=256, sep=1.0, sigma=0.01, k=3):
    """k Gaussian blobs with pairwise-equidistant centers."""
    g = rng.normal(size=(dim, k))
    q, _ = np.linalg.qr(g)
    centers = (sep / np.sqrt(2.0)) * q.T   # pairwise distance exactly sep
    x = np.concatenate([centers[i] + sigma * rng.normal(size=(n_per, dim))
                        for i in range(k)])
    labels = np.repeat(np.arange(k), n_per)
    return x, labels, centers


def _map_from(descs):
    pm = placemap.PlaceMap()
    for i, d in enumerate(descs):
        pm.insert(placemap.PlaceEntry(i, Pose(float(i), 0, 0, i), d))
    return pm


def test_kmeanspp_two_cluster_oracle_case():
    x = np.zeros((4, 256))
    x[:, 0] = [0.0, 0.1, 10.0, 10.1]
    c = cluster.kmeanspp(x, K=2, seed=0)
    j, side_a, mean_a, mean_b = two_partition_oracle(x)
    assert c.distortion == pytest.approx(j, rel=1e-12)
    assert c.assignment[0] == c.assignment[1]
    assert c.assignment[2] == c.assignment[3]
    assert c.assignment[0] != c.assignment[2]
    got_centers = sorted(float(c.centers[k, 0]) for k in range(2))
    assert got_centers == pytest.approx([0.05, 10.05], rel=1e-12)


def test_kmeanspp_k_equals_n():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, 8))
    c = cluster.kmeanspp(x, K=12, seed=3)
    assert c.distortion == 0.0
    assert sorted(c.assignment.tolist()) == sorted(range(12))


def test_kmeanspp_k_one_closed_form():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 16))
    c = cluster.kmeanspp(x, K=1, seed=0)
    np.testing.assert_allclose(c.centers[0], x.mean(axis=0), rtol=1e-12)
    want = float(((x - x.mean(axis=0)) ** 2).sum())
    assert c.distortion == pytest.approx(want, rel=1e-12)


def test_kmeanspp_invalid_k():
    x = np.zeros((5, 4))
    with pytest.raises(InvalidK):
        cluster.kmeanspp(x, K=0)
    with pytest.raises(InvalidK):
        cluster.kmeanspp(x, K=6)


def test_kmeanspp_distortion_monotone_and_self_consistent():
    rng = np.random.default_rng(3)
    for trial in range(20):
        x = rng.normal(size=(rng.integers(10, 80), rng.integers(2, 16)))
        c = cluster.kmeanspp(x, K=int(rng.integers(1, min(8, len(x)) + 1)), seed=trial)
        hist = np.asarray(c.history)
        assert (np.diff(hist) <= 1e-9 * np.maximum(1.0, hist[:-1])).all()
        assign, d2 = kmeans_assign_oracle(x, c.centers)
        np.testing.assert_array_equal(assign, c.assignment)
        assert c.distortion == pytest.approx(float(d2.sum()), rel=1e-12, abs=1e-12)
        assert np.bincount(c.assignment, minlength=c.K).min() > 0


def test_kmeanspp_same_seed_same_result():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 32))
    a = cluster.kmeanspp(x, K=5, seed=77)
    b = cluster.kmeanspp(x, K=5, seed=77)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centers, b.centers)


_KINDS = ("normal", "identical", "rounded", "duplicated", "tiny", "huge")


def _kmeans_input(kind, n, d, seed):
    """An (n, d) matrix of one kind: normal rows; one row repeated (every
    distance 0); rows on a half-integer grid (exact distance ties); a few
    distinct rows repeated (duplicate centers leave clusters empty); rows of
    norm near 1e-6 (the slack dwarfs every distance); or rows of norm near
    1e6, in groups 1e3 apart whose members lie 1e-3 apart (below the
    rounding of the approximate distances, which the slack must cover)."""
    rng = np.random.default_rng(seed)
    if kind == "identical":
        return np.tile(rng.normal(size=d), (n, 1))
    if kind == "rounded":
        return np.round(2.0 * rng.normal(size=(n, d))) / 2.0
    if kind == "duplicated":
        return rng.normal(size=(3, d))[rng.integers(0, 3, size=n)]
    if kind == "tiny":
        return 1e-6 * rng.normal(size=(n, d))
    if kind == "huge":
        groups = 1e6 * rng.normal(size=d) / np.sqrt(d) + 1e3 * rng.normal(size=(3, d))
        return groups[rng.integers(0, 3, size=n)] + 1e-3 * rng.normal(size=(n, d))
    return rng.normal(size=(n, d))


@st.composite
def _kmeans_case(draw):
    n = draw(st.integers(1, 40))
    x = _kmeans_input(draw(st.sampled_from(_KINDS)), n, draw(st.sampled_from([1, 2, 3, 8, 32])),
                      draw(st.integers(0, 2 ** 32 - 1)))
    return (x, draw(st.integers(1, n)), draw(st.integers(0, 10 ** 6)),
            draw(st.sampled_from([1, 2, 100])))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_kmeans_case())
@example(case=(_kmeans_input("identical", 24, 256, 1), 24, 3, 100))
@example(case=(_kmeans_input("huge", 60, 256, 2), 12, 4, 100))
@example(case=(_kmeans_input("rounded", 30, 256, 3), 30, 5, 2))
@example(case=(_kmeans_input("normal", 1, 4, 4), 1, 6, 1))
def test_kmeanspp_equals_the_oracle_bit_for_bit(case):
    _assert_kmeanspp_matches_oracle(*case)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_kmeans_case())
@example(case=(_kmeans_input("identical", 24, 256, 1), 24, 3, 100))
@example(case=(_kmeans_input("huge", 60, 256, 2), 12, 4, 100))
@example(case=(_kmeans_input("rounded", 30, 256, 3), 30, 5, 2))
@example(case=(_kmeans_input("tiny", 40, 32, 5), 6, 7, 100))
def test_bounded_kmeanspp_equals_the_oracle_bit_for_bit(case):
    # every size keeps Lloyd bounds: each input kind goes through the bounds and the gap rule
    with mock.patch.object(cluster, "_POOL_MIN_SIZE", 0):
        _assert_kmeanspp_matches_oracle(*case)


def _assert_kmeanspp_matches_oracle(x, k, seed, iters_max):
    c = cluster.kmeanspp(x, K=k, seed=seed, iters_max=iters_max)
    centers, assignment, history = kmeans_oracle(x, k, seed, iters_max)
    assert c.centers.tobytes() == centers.tobytes()
    np.testing.assert_array_equal(c.assignment, assignment)
    assert c.history == history
    assert c.distortion == history[-1]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_kmeans_case(), shift=st.sampled_from(["tie", "above", "below", "other"]))
def test_seeding_prefilter_leaves_out_only_rows_that_keep_d2(case, shift):
    x, _, seed, _ = case
    x = np.ascontiguousarray(x)
    j = seed % x.shape[0]
    exact = ((x - x[j]) ** 2).sum(axis=1)
    # d2 tied with the exact distance, one ulp either side of it, or the
    # distance to another row, as the seeding would hold it
    d2 = {"tie": exact, "above": np.nextafter(exact, np.inf),
          "below": np.nextafter(exact, -np.inf).clip(0.0),
          "other": ((x - x[(seed // 7) % x.shape[0]]) ** 2).sum(axis=1)}[shift]
    sqx = np.einsum("nd,nd->n", x, x)
    rows = cluster._closer_rows(x, sqx, j, d2, kernels.approx_slack(sqx), np.empty(x.shape[0]))
    left_out = np.ones(x.shape[0], dtype=bool)
    left_out[rows] = False
    assert (exact[left_out] >= d2[left_out]).all()


@pytest.mark.parametrize("p", [
    [0.1, 0.2, 0.3, 0.4],
    [0.0, 0.0, 1.0, 0.0],
    [0.5, 0.0, 0.0, 0.5],
    [0.0, 0.25, 0.0, 0.75, 0.0],
    [1.0],
], ids=["dense", "one", "ends", "zeros-between", "single"])
def test_inline_choice_draws_what_generator_choice_draws(p):
    p = np.asarray(p, dtype=np.float64)
    for seed in range(20):
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(25):
            assert cluster._choice(ours, p) == int(ref.choice(p.shape[0], p=p))
        assert ours.bit_generator.state == ref.bit_generator.state
    rng = np.random.default_rng(9)
    for _ in range(50):  # weights as the seeding makes them: d2 / d2.sum()
        d2 = rng.random(int(rng.integers(1, 40))) ** 4
        d2[rng.random(d2.shape[0]) < 0.3] = 0.0
        if d2.sum() == 0.0:
            continue
        seed = int(rng.integers(2 ** 31))
        w = d2 / d2.sum()
        assert (cluster._choice(np.random.default_rng(seed), w)
                == int(np.random.default_rng(seed).choice(w.shape[0], p=w)))
    for bad in ([0.0, 0.0], [np.nan, 1.0]):  # what d2 / d2.sum() is when the sum overflowed
        for draw in (lambda: cluster._choice(np.random.default_rng(0), np.array(bad)),
                     lambda: np.random.default_rng(0).choice(2, p=bad)):
            with pytest.raises(ValueError):
                draw()


def test_elbow_three_blobs():
    rng = np.random.default_rng(5)
    x, labels, _ = _blobs(rng)
    res = cluster.elbow_select(x, cluster.ClusterParams(D=0.5, K_max=8, seed=0))
    assert res.K == 3
    assert res.constraint_ok
    # recovered partition must match the generating labels up to renaming
    for k in range(3):
        assert len(set(res.clustering.assignment[labels == k])) == 1


def test_elbow_constraint_grows_k():
    rng = np.random.default_rng(6)
    x, _, _ = _blobs(rng, sigma=0.02)
    loose = cluster.elbow_select(x, cluster.ClusterParams(D=0.5, K_max=10, seed=0))
    tight_d = 0.02   # below the blob radius: K must grow past 3
    tight = cluster.elbow_select(x, cluster.ClusterParams(D=tight_d, K_max=10, seed=0))
    assert tight.K > loose.K
    if tight.constraint_ok:
        _, d2 = kmeans_assign_oracle(x, tight.clustering.centers)
        assert np.sqrt(d2.max()) < tight_d
    else:
        assert tight.K == 10


def test_elbow_identical_pair():
    x = np.tile(np.arange(8.0), (2, 1))
    res = cluster.elbow_select(x, cluster.ClusterParams(D=1.0, K_max=2, seed=0))
    assert res.K == 1
    assert res.clustering.distortion == 0.0


def test_elbow_validates_params():
    with pytest.raises(InvalidParams):
        cluster.ClusterParams(D=0.0)
    with pytest.raises(InvalidParams):
        cluster.ClusterParams(D=1.0, K_max=0)
    with pytest.raises(InvalidParams):
        cluster.elbow_select(np.zeros((0, 4)), cluster.ClusterParams(D=1.0))
    one = cluster.elbow_select(np.full((1, 4), 0.5, dtype=np.float32),
                               cluster.ClusterParams(D=1.0))
    assert (one.K, one.clustering.distortion, one.constraint_ok) == (1, 0.0, True)
    np.testing.assert_array_equal(one.clustering.centers, np.full((1, 4), 0.5))
    np.testing.assert_array_equal(one.clustering.assignment, [0])
    # the LPDC file stores D as float32
    for D in (1e39, float("inf"), float("nan")):
        with pytest.raises(InvalidParams, match="D must be in"):
            cluster.ClusterParams(D=D)
    # a positive D that float32 rounds to 0 would be saved as D = 0
    for D in (1e-50, 7e-46):
        with pytest.raises(InvalidParams, match="D must be in"):
            cluster.ClusterParams(D=D)
    assert cluster.ClusterParams(D=1.5e-45).D == 1.5e-45  # the least float32 subnormal
    with pytest.raises(InvalidParams, match="seed"):
        cluster.ClusterParams(D=1.0, seed=-5000)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_non_finite_rows_are_invalid_params(bad):
    x = random_unit(np.random.default_rng(4), 12, 8).astype(np.float64)
    x[5, 3] = bad  # 1e200 is finite, but its squared norm overflows
    with pytest.raises(InvalidParams, match="finite"):
        cluster.kmeanspp(x, K=3, seed=0)
    with pytest.raises(InvalidParams, match="finite"):
        cluster.elbow_select(x, cluster.ClusterParams(D=1.0, K_max=4))


def _elbow_input(kind, n, seed):
    """256-d unit rows: random, rounded to a coarse grid (distance ties
    everywhere), or a few distinct rows repeated (K-means++ runs out of
    distinct points, so duplicate centers leave clusters empty)."""
    rng = np.random.default_rng(seed)
    x = random_unit(rng, n, 256).astype(np.float64)
    if kind == "rounded":
        return np.round(x * 4.0) / 4.0
    if kind == "duplicated":
        return x[rng.integers(0, 4, size=n)]
    return x


def _spy_workers(monkeypatch):
    seen = []

    def spy(fn, jobs, workers):
        seen.append(workers)
        return _accel.run_jobs(fn, jobs, workers)

    monkeypatch.setattr(cluster, "run_jobs", spy)
    return seen


def _assert_elbow_matches_oracle(x, D, K_max, seed):
    res = cluster.elbow_select(x, cluster.ClusterParams(D=D, K_max=K_max, seed=seed))
    K, j_curve, ok, centers, assignment, history = elbow_oracle(x, D, K_max=K_max,
                                                                seed=seed)
    assert (res.K, res.j_curve, res.constraint_ok) == (K, j_curve, ok)
    c = res.clustering
    assert c.centers.tobytes() == centers.tobytes()
    np.testing.assert_array_equal(c.assignment, assignment)
    assert c.history == history
    assert c.distortion == history[-1]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", ["random", "rounded", "duplicated"])
def test_elbow_serial_path_matches_sequential_oracle(monkeypatch, threads, kind):
    monkeypatch.setenv("SEQLPD_THREADS", threads)
    seen = _spy_workers(monkeypatch)
    x = _elbow_input(kind, 90, seed=21)
    _assert_elbow_matches_oracle(x, D=0.6, K_max=12, seed=3)
    assert seen == [1]  # 90 rows: below the pool threshold


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kind", ["random", "rounded", "duplicated"])
def test_elbow_pooled_path_matches_sequential_oracle(monkeypatch, threads, kind):
    monkeypatch.setenv("SEQLPD_THREADS", threads)
    seen = _spy_workers(monkeypatch)
    # 1,030 rows x 256: above the pool threshold and three row blocks long
    x = _elbow_input(kind, 1030, seed=22)
    _assert_elbow_matches_oracle(x, D=0.6, K_max=5, seed=4)
    assert seen == [min(int(threads), _accel.usable_cpus())]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_elbow_k_max_at_least_n_matches_oracle(monkeypatch, threads):
    monkeypatch.setenv("SEQLPD_THREADS", threads)
    for kind in ("random", "duplicated"):
        _assert_elbow_matches_oracle(_elbow_input(kind, 9, seed=23), D=0.05, K_max=25,
                                     seed=5)


def test_elbow_pool_threshold_and_affinity_cap(monkeypatch):
    monkeypatch.setenv("SEQLPD_THREADS", "8")
    monkeypatch.setattr(cluster, "usable_cpus", lambda: 2)
    seen = _spy_workers(monkeypatch)
    params = cluster.ClusterParams(D=10.0, K_max=2)
    rng = np.random.default_rng(24)
    cluster.elbow_select(rng.normal(size=(1023, 256)), params)
    cluster.elbow_select(rng.normal(size=(1024, 256)), params)
    assert seen == [1, 2]


def test_run_jobs_keeps_job_order_and_uses_the_caller():
    caller = threading.get_ident()
    threads = set()
    gate = threading.Barrier(2, timeout=10)

    def job(i):
        threads.add(threading.get_ident())
        if i < 2:
            gate.wait()  # the first two jobs run at the same time, on two threads
        return i * i

    assert _accel.run_jobs(job, range(20), 2) == [i * i for i in range(20)]
    assert caller in threads and len(threads) == 2
    assert _accel.run_jobs(job, [], 4) == []


def test_run_jobs_runs_each_job_once_under_thread_churn():
    lock = threading.Lock()
    calls = [0] * 3000

    def job(i):
        with lock:
            calls[i] += 1
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = _accel.run_jobs(job, range(len(calls)), 8)  # more workers than cores
    finally:
        sys.setswitchinterval(interval)
    assert out == [-i for i in range(len(calls))]
    assert calls == [1] * len(calls)


def test_run_jobs_reraises_and_stops_handing_out():
    done = []

    def job(i):
        if i == 3:
            raise ValueError("job 3")
        done.append(i)
        return i

    with pytest.raises(ValueError, match="job 3"):
        _accel.run_jobs(job, range(1000), 2)
    assert len(done) < 999


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_run_jobs_reraises_the_lowest_index_failure(workers):
    later_failed = threading.Event()

    def job(i):
        if i == 5:
            if workers > 1:  # fail only after job 7 has failed on another thread
                assert later_failed.wait(10)
            raise ValueError("job 5")
        if i == 7:
            later_failed.set()
            raise KeyError("job 7")
        return i

    with pytest.raises(ValueError, match="job 5"):
        _accel.run_jobs(job, range(40), workers)


def test_super_keyframes_argmin_and_membership():
    rng = np.random.default_rng(7)
    descs = random_unit(rng, 60, 256)
    pm = _map_from(descs)
    c = cluster.kmeanspp(descs.astype(np.float64), K=4, seed=0)
    skf = cluster.super_keyframes(pm, c)
    assert skf.K == 4
    x = descs.astype(np.float64)
    for k in range(4):
        members = np.flatnonzero(c.assignment == k)
        np.testing.assert_array_equal(skf.members[k], members)
        d2 = ((x[members] - c.centers[k]) ** 2).sum(axis=1)
        assert skf.keyframes[k] == members[int(np.argmin(d2))]
        # no member strictly closer than the keyframe
        kd = float(((x[skf.keyframes[k]] - c.centers[k]) ** 2).sum())
        assert (d2 >= kd - 1e-15).all()


def test_super_keyframes_center_member_wins():
    descs = np.zeros((3, 256), dtype=np.float32)
    descs[0, 0] = 1.0
    descs[1, 1] = 1.0
    descs[2, 2] = 1.0
    pm = _map_from(descs)
    centers = descs[1:2].astype(np.float64)
    c = cluster.Clustering(K=1, centers=centers,
                           assignment=np.zeros(3, dtype=np.int64),
                           distortion=4.0, history=(4.0,))
    skf = cluster.super_keyframes(pm, c)
    assert skf.keyframes[0] == 1


def test_super_keyframes_k_equals_n():
    rng = np.random.default_rng(8)
    descs = random_unit(rng, 10, 256)
    pm = _map_from(descs)
    c = cluster.kmeanspp(descs.astype(np.float64), K=10, seed=0)
    skf = cluster.super_keyframes(pm, c)
    np.testing.assert_array_equal(np.sort(skf.keyframes), np.arange(10))


def test_lpdc_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    descs = random_unit(rng, 50, 256)
    pm = _map_from(descs)
    c = cluster.kmeanspp(descs.astype(np.float64), K=4, seed=2)
    skf = cluster.super_keyframes(pm, c)
    path = tmp_path / "c.lpdc"
    cluster.save_clusters(skf, 0.75, path)
    back, d = cluster.load_clusters(path, pm)
    assert d == pytest.approx(0.75)
    assert back.K == skf.K
    np.testing.assert_array_equal(back.keyframes, skf.keyframes)
    for a, b in zip(back.members, skf.members):
        np.testing.assert_array_equal(a, b)
    path2 = tmp_path / "c2.lpdc"
    cluster.save_clusters(back, d, path2)
    assert path.read_bytes() == path2.read_bytes()
    # a D that float32 cannot hold is refused before the file is opened
    for D in (1e39, 0.0, float("nan"), 1e-50):
        with pytest.raises(InvalidParams, match="D must be in"):
            cluster.save_clusters(skf, D, tmp_path / "bad.lpdc")
    assert not (tmp_path / "bad.lpdc").exists()
    # the loaded clusters route queries as the saved ones do
    np.testing.assert_array_equal(back.keyframe_descriptors, skf.keyframe_descriptors)
    assert back.n_hist == skf.n_hist == 50
    for q in np.concatenate((rng.normal(size=(20, 256)), descs[:5])):
        assert seqmatch.coarse_match(q, back) == seqmatch.coarse_match(q, skf)


def test_super_keyframes_hold_no_view_of_the_map(tmp_path):
    # a clustering that kept the map's descriptor column would pin the old
    # buffer after the map grows
    descs = random_unit(np.random.default_rng(15), 30, 16)
    pm = _map_from(descs)
    c = cluster.kmeanspp(descs.astype(np.float64), K=3, seed=0)
    skf = cluster.super_keyframes(pm, c)
    cluster.save_clusters(skf, 0.5, tmp_path / "c.lpdc")
    back, _ = cluster.load_clusters(tmp_path / "c.lpdc", pm)
    desc = pm.descriptor_matrix()
    for s in (skf, back):
        arrays = [v for v in vars(s).values() if isinstance(v, np.ndarray)]
        arrays += [a for v in vars(s).values() if isinstance(v, list) for a in v
                   if isinstance(a, np.ndarray)]
        assert len(arrays) >= 3 + s.K  # centers, keyframes, keyframe rows, members
        for a in arrays:
            assert not np.shares_memory(a, desc)
        assert s.trees == [None] * s.K


def test_lpdc_corrupt_fixtures(tmp_path):
    rng = np.random.default_rng(13)
    descs = random_unit(rng, 12, 256)
    pm = _map_from(descs)
    c = cluster.kmeanspp(descs.astype(np.float64), K=2, seed=0)
    skf = cluster.super_keyframes(pm, c)
    path = tmp_path / "c.lpdc"
    cluster.save_clusters(skf, 0.5, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.lpdc"
    bad.write_bytes(b"ZZZZ" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        cluster.load_clusters(bad, pm)
    bad.write_bytes(blob[:4] + (9).to_bytes(4, "little") + blob[8:])
    with pytest.raises(FormatError, match="version"):
        cluster.load_clusters(bad, pm)
    bad.write_bytes(blob[:-2])
    with pytest.raises(FormatError, match="truncated"):
        cluster.load_clusters(bad, pm)
    bad.write_bytes(blob + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        cluster.load_clusters(bad, pm)
    # one cluster listing entry 0 twice: [0, 0, 1] on a 12-entry map
    bad.write_bytes(b"LPDC" + struct.pack("<IIf", 1, 1, 0.5) + struct.pack("<II", 0, 3)
                    + np.array([0, 0, 1], dtype="<u4").tobytes()
                    + np.zeros(256, dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="entry 0 listed twice in cluster 0"):
        cluster.load_clusters(bad, pm)


def test_lpdc_non_finite_center_or_d_is_format_error(tmp_path):
    pm = _map_from(random_unit(np.random.default_rng(15), 12, 256))
    skf = cluster.super_keyframes(pm, cluster.kmeanspp(pm.descriptor_matrix().astype(np.float64),
                                                       K=2, seed=0))
    path = tmp_path / "c.lpdc"
    cluster.save_clusters(skf, 0.5, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.lpdc"
    for value in (np.nan, np.inf):
        f32 = np.array([value], dtype="<f4").tobytes()
        for mutated in (blob[:12] + f32 + blob[16:], blob[:-4] + f32):  # D, last center value
            bad.write_bytes(mutated)
            with pytest.raises(FormatError, match="non-finite"):
                cluster.load_clusters(bad, pm)


def test_lpdc_huge_k_is_format_error_before_allocating(tmp_path):
    pm = _map_from(random_unit(np.random.default_rng(14), 4, 256))
    bad = tmp_path / "bad.lpdc"
    bad.write_bytes(b"LPDC" + (1).to_bytes(4, "little") + (0xFFFFFFFF).to_bytes(4, "little")
                    + np.float32(0.5).tobytes())
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="K=4294967295"):
            cluster.load_clusters(bad, pm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # nothing was sized by the header's K


def test_kmeanspp_means_copy_no_cluster():
    rng = np.random.default_rng(15)
    x = random_unit(rng, 8192, 256).astype(np.float64)
    x[::2, 0] += 3.0  # two clusters of 4,096 rows, 8 row blocks each
    tracemalloc.start()
    try:
        c = cluster.kmeanspp(x, 2, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.bincount(c.assignment).tolist() == [4096, 4096]
    assert peak < 4096 * 256 * 8
    centers, assignment, _ = kmeans_oracle(x, 2, 0)
    assert c.centers.tobytes() == centers.tobytes()
    np.testing.assert_array_equal(c.assignment, assignment)


def test_a_row_inside_the_gap_margin_sends_the_step_to_the_full_product(monkeypatch):
    sizes = []
    approx = kernels.center_approx
    monkeypatch.setattr(kernels, "center_approx",
                        lambda x, c, sqx: sizes.append(x.shape[0]) or approx(x, c, sqx))
    # row 0 lies exactly halfway between centers 0 and 1 and is assigned to 1;
    # every other row's bound settles it
    x = np.array([[0.0, 0.0], [-1.0, 0.1], [-1.0, -0.1], [-1.1, 0.0],
                  [1.0, 0.1], [1.0, -0.1], [1.1, 0.0], [0.1, 5.0]])
    centers = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    assign = np.array([1, 0, 0, 0, 1, 1, 1, 2])
    d2 = kernels.center_d2(x, centers, assign)
    lo = np.array([0.0] + [1.0] * 7)
    sqx = np.einsum("nd,nd->n", x, x)
    slack = kernels.approx_slack(sqx)
    got = cluster._bounded_assign(x, sqx, centers, np.zeros(3), assign, d2, lo, slack)
    # the one-row product tied, so the full product decided, and its tie rule
    # moved row 0 to the lower id
    assert sizes == [1, 8]
    np.testing.assert_array_equal(got, kmeans_assign_oracle(x, centers)[0])
    assert got[0] == 0
    assert (lo * lo <= np.sort(((x[:, None] - centers) ** 2).sum(axis=2), axis=1)[:, 1]).all()
    # a whole run on a half-integer grid meets such a row in one step and
    # still equals the oracle
    monkeypatch.setattr(cluster, "_POOL_MIN_SIZE", 0)
    settled = []
    settle = cluster._settled_argmin
    monkeypatch.setattr(cluster, "_settled_argmin",
                        lambda *a: settled.append(settle(*a)) or settled[-1])
    sizes.clear()
    x = _kmeans_input("rounded", 12, 2, 11)
    _assert_kmeanspp_matches_oracle(x, 3, 11, 100)
    assert sizes[2:5] == [5, 12, 3]  # a subset inside the margin, the full product, a subset
    assert [s is None for s in settled[:2]] == [True, False]


@pytest.mark.parametrize("rows", [None, "every other"])
def test_exact_passes_use_one_row_block_beyond_their_output(rows):
    rng = np.random.default_rng(16)
    x = random_unit(rng, 8192, 256).astype(np.float64)
    centers = x[[5, 4000, 8000]] + 0.01
    assign, want = kmeans_assign_oracle(x, centers)
    sel = None if rows is None else np.arange(1, 8192, 2)
    picked = slice(None) if sel is None else sel
    diff = x[picked] - centers[assign[picked]]
    for fn, expect in ((kernels.center_d2, np.einsum("nd,nd->n", diff, diff)),
                       (kernels.sum_d2, want[picked])):
        tracemalloc.start()
        try:
            got = fn(x, centers, assign, rows=sel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == expect.tobytes()
        assert peak <= got.nbytes + kernels.row_block(256) * 256 * 8 + (16 << 10)
