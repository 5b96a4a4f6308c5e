import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlpd import kernels, metrics, placemap
from seqlpd.cloud import Pose
from seqlpd.errors import DimensionError, EmptyDatabase, InvalidParams, RunLengthError

from oracles import knn_oracle, orthogonal_to, random_unit, retrieval_oracle


def _place_map(descs, poses):
    pm = placemap.PlaceMap()
    for i in range(descs.shape[0]):
        pm.insert(placemap.PlaceEntry(i, Pose(*poses[i], i), descs[i]))
    return pm


def _corpus(rng, n=50, dim=64, spacing=5.0):
    descs = random_unit(rng, n, dim)
    poses = np.stack([spacing * np.arange(n), np.zeros(n), np.zeros(n)], axis=1)
    return _place_map(descs, poses), descs, poses


def test_self_eval_recall_is_100():
    rng = np.random.default_rng(0)
    pm, descs, poses = _corpus(rng)
    r = metrics.recall_at_n(descs, poses, pm, gt_radius=1.0, n=1)
    assert r.percentage == 100.0
    assert r.evaluated == 50
    assert r.skipped == 0


def test_recall_saturates_at_full_database():
    rng = np.random.default_rng(1)
    pm, descs, poses = _corpus(rng, n=30)
    queries = random_unit(rng, 10, 64)
    qposes = poses[:10]
    r = metrics.recall_at_n(queries, qposes, pm, gt_radius=2.0, n=len(pm))
    assert r.percentage == 100.0


def test_recall_monotone_in_n():
    rng = np.random.default_rng(2)
    pm, descs, poses = _corpus(rng, n=60)
    queries = random_unit(rng, 25, 64)
    qposes = poses[rng.integers(0, 60, size=25)]
    last = 0.0
    for n in (1, 2, 5, 10, 30, 60):
        r = metrics.recall_at_n(queries, qposes, pm, gt_radius=6.0, n=n)
        assert r.percentage >= last
        last = r.percentage


def test_recall_matches_oracle_randomized():
    rng = np.random.default_rng(3)
    for trial in range(10):
        pm, descs, poses = _corpus(rng, n=int(rng.integers(20, 80)))
        nq = int(rng.integers(5, 30))
        # queries are noisy copies of random db entries, some put far away
        picks = rng.integers(0, len(pm), size=nq)
        qd = descs[picks] + 0.1 * rng.normal(size=(nq, 64)).astype(np.float32)
        qd /= np.linalg.norm(qd, axis=1, keepdims=True)
        qp = poses[picks] + rng.normal(scale=2.0, size=(nq, 3))
        qp[rng.uniform(size=nq) < 0.2] += 1e5   # no positives for these
        n = int(rng.integers(1, 6))
        r = metrics.recall_at_n(qd, qp, pm, gt_radius=4.0, n=n)
        want_pct, want_eval, want_skip = retrieval_oracle(
            qd, qp, descs, poses, 4.0, n)
        assert r.percentage == pytest.approx(want_pct, abs=1e-9)
        assert (r.evaluated, r.skipped) == (want_eval, want_skip)


def test_recall_ties_go_to_the_lower_index():
    rng = np.random.default_rng(4)
    descs = random_unit(rng, 6, 64)
    descs[4] = descs[1]  # the query's two nearest entries tie exactly
    poses = np.zeros((6, 3))
    poses[:, 0] = 10.0 * np.arange(6)
    pm = placemap.PlaceMap()
    for i in range(6):
        pm.insert(placemap.PlaceEntry(i, Pose(*poses[i], i), descs[i]))
    # only entry 4 is a positive: it loses the tie at N=1 and enters at N=2
    for n, want in ((1, 0.0), (2, 100.0)):
        r = metrics.recall_at_n(descs[1:2], poses[4:5], pm, gt_radius=1.0, n=n)
        assert r.percentage == want
        assert retrieval_oracle(descs[1:2], poses[4:5], descs, poses, 1.0, n)[0] == want


def test_top_n_equals_stable_sort_on_ties():
    rng = np.random.default_rng(5)
    for trial in range(30):
        db = np.round(rng.normal(size=(int(rng.integers(5, 120)), 3)))
        db = db[rng.integers(0, db.shape[0], size=db.shape[0])]  # repeated rows
        q = np.round(rng.normal(size=(int(rng.integers(1, 12)), 3)))
        n = int(rng.integers(1, db.shape[0] + 1))
        want = np.argsort(kernels.pairwise_l2(q, db), axis=1, kind="stable")[:, :n]
        np.testing.assert_array_equal(kernels.map_knn(q, db, n), want)


def test_recall_one_percent_n_rule():
    assert metrics.one_percent_n(100) == 1
    assert metrics.one_percent_n(101) == 2
    assert metrics.one_percent_n(250) == 3
    assert metrics.one_percent_n(50) == 1
    rng = np.random.default_rng(4)
    pm, descs, poses = _corpus(rng, n=40)
    r = metrics.recall_at_one_percent(descs, poses, pm, gt_radius=1.0)
    assert r.N == 1
    assert r.percentage == 100.0


def test_recall_errors():
    rng = np.random.default_rng(5)
    pm, descs, poses = _corpus(rng, n=10)
    with pytest.raises(EmptyDatabase):
        metrics.recall_at_n(descs, poses, placemap.PlaceMap(), 1.0, 1)
    with pytest.raises(InvalidParams):
        metrics.recall_at_n(descs, poses, pm, 1.0, 0)
    with pytest.raises(InvalidParams):
        metrics.recall_at_n(descs, poses, pm, 0.0, 1)


@pytest.mark.parametrize("radius", [float("inf"), float("nan"), 0.0, -1.0])
def test_ground_truth_needs_a_finite_positive_radius(radius):
    poses = np.zeros((3, 3))
    with pytest.raises(InvalidParams, match="gt_radius"):
        metrics.ground_truth(poses, poses + 1e6, radius)


def test_seq_protocol_all_hits():
    rng = np.random.default_rng(6)
    pm, descs, poses = _corpus(rng, n=25)
    runs = [(descs[i:i + 5], poses[i:i + 5]) for i in range(0, 25, 5)]
    assert metrics.seq_protocol(runs, pm, gt_radius=1.0) == 100.0


def test_seq_protocol_boundary_exactly_three_of_five():
    rng = np.random.default_rng(7)
    pm, descs, poses = _corpus(rng, n=20, dim=64)
    # corrupt 2 of 5 frames: descriptors orthogonal to the whole database and
    # poses moved out of any positive set, so those frames always fail
    ortho = orthogonal_to(descs, rng, 2)
    run_d = descs[5:10].copy()
    run_p = poses[5:10].copy()
    for slot, bad in ((0, 0), (3, 1)):
        run_d[slot] = ortho[bad]
        run_p[slot] += 1e6
    assert metrics.seq_protocol([(run_d, run_p)], pm, 1.0, min_successes=3) == 100.0
    run_d[4] = ortho[0]   # now only 2 hits
    run_p[4] += 1e6
    assert metrics.seq_protocol([(run_d, run_p)], pm, 1.0, min_successes=3) == 0.0
    # the stricter reading of the protocol rejects the 3-of-5 boundary run
    run_d2 = descs[5:10].copy()
    run_p2 = poses[5:10].copy()
    run_d2[0] = ortho[0]
    run_p2[0] += 1e6
    run_d2[3] = ortho[1]
    run_p2[3] += 1e6
    assert metrics.seq_protocol([(run_d2, run_p2)], pm, 1.0, min_successes=4) == 0.0


def test_seq_protocol_order_invariant_and_zero():
    rng = np.random.default_rng(8)
    pm, descs, poses = _corpus(rng, n=20)
    far = poses[:5] + 1e6
    runs = [(descs[:5], poses[:5]), (descs[5:10], far)]
    a = metrics.seq_protocol(runs, pm, 1.0)
    b = metrics.seq_protocol(runs[::-1], pm, 1.0)
    assert a == b == 50.0


def test_seq_protocol_run_length_enforced():
    rng = np.random.default_rng(9)
    pm, descs, poses = _corpus(rng, n=10)
    with pytest.raises(RunLengthError):
        metrics.seq_protocol([(descs[:4], poses[:4])], pm, 1.0)
    with pytest.raises(InvalidParams):
        metrics.seq_protocol([(descs[:5], poses[:5])], pm, 1.0, min_successes=0)


def test_seq_protocol_checks_each_run_before_the_next():
    # one ranking serves every run, but the checks still run run by run:
    # length, width, then the radius (ground truth) of run 1 before run 2
    rng = np.random.default_rng(11)
    pm, descs, poses = _corpus(rng, n=10)
    good, short = (descs[:5], poses[:5]), (descs[:4], poses[:4])
    wide = (np.hstack([descs[:5], descs[:5]]), poses[:5])
    for runs, radius, err in (([good, short], 1.0, RunLengthError),
                              ([good, short], 0.0, InvalidParams),
                              ([short, good], 0.0, RunLengthError),
                              ([good, wide], 1.0, DimensionError),
                              ([wide, short], 1.0, DimensionError)):
        with pytest.raises(err):
            metrics.seq_protocol(runs, pm, radius)


def test_metrics_make_no_float64_copy_of_the_map(monkeypatch):
    rng = np.random.default_rng(10)
    descs = random_unit(rng, 4096, 256)
    descs[3000:3012] = descs[3000]  # 12 rows tie at the query's first distance
    poses = np.stack([5.0 * np.arange(4096), np.zeros(4096), np.zeros(4096)], axis=1)
    pm = _place_map(descs, poses)
    copy_bytes = 4096 * 256 * 8
    q, qp = descs[[7, 2048, 4095, 3005]], poses[[7, 2048, 4095, 3000]]
    runs = [(descs[i:i + 5], poses[i:i + 5]) for i in (0, 1000, 4000)]
    n_one = metrics.one_percent_n(4096)
    want = [retrieval_oracle(q, qp, descs, poses, 1.0, n)[0] for n in (1, n_one)]
    scans = []
    topk = kernels._topk_rows
    monkeypatch.setattr(kernels, "_topk_rows",
                        lambda d2, k: scans.append(d2.shape[0]) or topk(d2, k))
    tracemalloc.start()
    try:
        got_recall = metrics.recall_at_n(q, qp, pm, 1.0, 1).percentage
        recall_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        got_one = metrics.recall_at_one_percent(q, qp, pm, 1.0)
        one_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        got_seq = metrics.seq_protocol(runs, pm, 1.0)
        seq_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tied query's first distance reaches its bound: one exact scan
    assert sum(scans) == 1
    assert (got_recall, got_one.percentage, got_seq) == (*want, 100.0) == (100.0, 100.0, 100.0)
    assert got_one.N == n_one == 41
    assert max(recall_peak, one_peak, seq_peak) < copy_bytes


def test_map_knn_proposes_candidates_one_query_block_at_a_time():
    rng = np.random.default_rng(11)
    db = random_unit(rng, 20000, 256)
    q = db[rng.integers(0, 20000, size=300)] + 0.05 * rng.normal(size=(300, 256))
    tracemalloc.start()
    try:
        top = kernels.map_knn(q, db, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 20000 * 8  # one (queries x map) float64 matrix
    np.testing.assert_array_equal(top[::37], knn_oracle(db, q[::37], 5))


@st.composite
def _retrieval_case(draw):
    """A map, float64 queries and an N: float32 unit rows, or a rounded grid
    with repeated rows.  Half the cases add at least N + 9 copies of the
    first query to the map, so that query's N-th distance is tied past its
    N + 8 candidates and takes the exact scan."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    d = draw(st.sampled_from([3, 64, 256]))
    rows = draw(st.integers(1, 120))
    nq = draw(st.integers(1, 40))
    if draw(st.booleans()):
        db = random_unit(rng, rows, d)
        q = db[rng.integers(0, rows, size=nq)] + 0.1 * rng.normal(size=(nq, d))
    else:
        db = np.round(rng.normal(size=(rows, d)))
        db = db[rng.integers(0, rows, size=rows)].astype(np.float32)
        q = np.round(rng.normal(size=(nq, d)))
    n = draw(st.integers(1, rows))
    if draw(st.booleans()):
        copies = n + 9 + draw(st.integers(0, 20))
        q[0] = db[0]
        db = np.concatenate([db, np.repeat(db[:1], copies, axis=0)])
        db = db[rng.permutation(rows + copies)]
    return db, q.astype(np.float64), n


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_retrieval_case())
def test_top_n_is_the_exhaustive_squared_distance_ranking(case):
    db, q, n = case
    np.testing.assert_array_equal(kernels.map_knn(q, db, n), knn_oracle(db, q, n))


def test_report_lines_format():
    lines = metrics.report_lines([("recall_at_1", 95.5, 1, 5.0, 200)])
    assert lines[0] == "metric,value,N,gt_radius,db_size"
    assert lines[1] == "recall_at_1,95.5000,1,5,200"
