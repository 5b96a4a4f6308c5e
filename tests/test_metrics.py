import tracemalloc

import numpy as np
import pytest

from seqlpd import kernels, metrics, placemap
from seqlpd.cloud import Pose
from seqlpd.errors import EmptyDatabase, InvalidParams, RunLengthError

from oracles import orthogonal_to, random_unit, retrieval_oracle


def _corpus(rng, n=50, dim=64, spacing=5.0):
    descs = random_unit(rng, n, dim)
    poses = np.stack([spacing * np.arange(n), np.zeros(n), np.zeros(n)], axis=1)
    pm = placemap.PlaceMap()
    for i in range(n):
        pm.insert(placemap.PlaceEntry(i, Pose(*poses[i], i), descs[i]))
    return pm, descs, poses


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
        np.testing.assert_array_equal(metrics._top_n(q, db, n), want)


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


def test_metrics_make_no_float64_copy_of_the_map():
    rng = np.random.default_rng(10)
    pm, descs, poses = _corpus(rng, n=4096, dim=256)
    copy_bytes = 4096 * 256 * 8
    q = descs[[7, 2048, 4095]]
    runs = [(descs[i:i + 5], poses[i:i + 5]) for i in (0, 1000, 4000)]
    want_recall = retrieval_oracle(q, poses[[7, 2048, 4095]], descs, poses, 1.0, 1)[0]
    tracemalloc.start()
    try:
        got_recall = metrics.recall_at_n(q, poses[[7, 2048, 4095]], pm, 1.0, 1).percentage
        recall_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        got_seq = metrics.seq_protocol(runs, pm, 1.0)
        seq_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got_recall, got_seq) == (want_recall, 100.0)
    assert recall_peak < copy_bytes and seq_peak < copy_bytes


def test_report_lines_format():
    lines = metrics.report_lines([("recall_at_1", 95.5, 1, 5.0, 200)])
    assert lines[0] == "metric,value,N,gt_radius,db_size"
    assert lines[1] == "recall_at_1,95.5000,1,5,200"
