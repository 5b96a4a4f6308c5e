import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlpd import cluster, placemap, seqmatch
from seqlpd.cloud import Pose
from seqlpd.errors import (EmptyInput, InsufficientHistory, InvalidParams,
                           OutOfBounds, WindowTooLarge)

from oracles import (candidate_runs_oracle, orthogonal_to, random_unit, seqsearch_oracle,
                     trajectory_score_oracle)


def _map_from(descs):
    pm = placemap.PlaceMap()
    for i, d in enumerate(descs):
        pm.insert(placemap.PlaceEntry(i, Pose(float(i), 0, 0, i), d))
    return pm


def _skf_for(pm, K=1, seed=0):
    c = cluster.kmeanspp(pm.descriptor_matrix().astype(np.float64), K=K, seed=seed)
    return cluster.super_keyframes(pm, c)


def test_difference_matrix_self_zero_diagonal():
    rng = np.random.default_rng(0)
    d = random_unit(rng, 8, 32)
    m = seqmatch.difference_matrix(d, d)
    np.testing.assert_array_equal(np.diag(m), 0.0)
    assert (m <= 2.0 + 1e-12).all() and (m >= 0.0).all()
    np.testing.assert_allclose(m, m.T, atol=0.0)


def test_difference_matrix_orthonormal_hand_case():
    e = np.eye(3)
    m = seqmatch.difference_matrix(e, e)
    want = np.full((3, 3), math.sqrt(2.0))
    np.fill_diagonal(want, 0.0)
    np.testing.assert_allclose(m, want, rtol=1e-15)


def test_difference_matrix_rejects_empty():
    with pytest.raises(EmptyInput):
        seqmatch.difference_matrix(np.zeros((0, 4)), np.ones((2, 4)))


def test_coarse_match_exact_and_tie():
    rng = np.random.default_rng(1)
    descs = random_unit(rng, 30, 64)
    pm = _map_from(descs)
    skf = _skf_for(pm, K=5, seed=2)
    for k in range(skf.K):
        q = pm[int(skf.keyframes[k])].descriptor
        assert seqmatch.coarse_match(q, skf) == k
    # brute-force agreement on random queries
    for _ in range(20):
        q = rng.normal(size=64)
        d2 = ((skf.keyframe_descriptors - q) ** 2).sum(axis=1)
        assert seqmatch.coarse_match(q, skf) == int(np.argmin(d2))


def test_trajectory_score_single_cell():
    rng = np.random.default_rng(2)
    m = rng.uniform(size=(4, 9))
    for v in (0.8, 1.0, 1.2):
        assert seqmatch.trajectory_score(m, 5, v, 1) == m[3, 5]


def test_trajectory_score_constant_matrix():
    m = np.ones((6, 15))
    assert seqmatch.trajectory_score(m, 10, 1.0, 5) == 1.0


def test_trajectory_score_planted_diagonal():
    m = np.ones((5, 20))
    for w, col in enumerate([12, 11, 10, 9, 8]):
        m[4 - w, col] = 0.0
    assert seqmatch.trajectory_score(m, 12, 1.0, 5) == 0.0


def test_trajectory_score_bounds_and_window():
    m = np.ones((3, 5))
    with pytest.raises(WindowTooLarge):
        seqmatch.trajectory_score(m, 4, 1.0, 4)
    with pytest.raises(OutOfBounds):
        seqmatch.trajectory_score(m, 0, 1.0, 2)   # projects to column -1
    with pytest.raises(OutOfBounds):
        seqmatch.trajectory_score(m, 7, 1.0, 1)


def test_trajectory_score_matches_oracle_randomized():
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = rng.uniform(size=(10, 30))
        ref_end = int(rng.integers(0, 30))
        v = float(rng.uniform(0.5, 2.0))
        w = int(rng.integers(1, 11))
        want = trajectory_score_oracle(m, ref_end, v, w)
        if want is None:
            with pytest.raises(OutOfBounds):
                seqmatch.trajectory_score(m, ref_end, v, w)
        else:
            assert seqmatch.trajectory_score(m, ref_end, v, w) == pytest.approx(want, abs=1e-12)


def test_sequence_search_planted_diagonal():
    m = np.ones((5, 20))
    for w, col in enumerate([12, 11, 10, 9, 8]):
        m[4 - w, col] = 0.0
    params = seqmatch.MatchParams(W=5)
    ref_end, v, score, second = seqmatch.sequence_search(m, params)
    # at W=5 velocities 0.9 and 1.0 round to identical offsets; the tie
    # resolves to the lower velocity
    assert (ref_end, v, score) == (12, 0.9, 0.0)
    assert second > 0.0


def test_sequence_search_constant_matrix_tie_rule():
    m = np.full((10, 40), 0.7)
    params = seqmatch.MatchParams(W=10)
    ref_end, v, score, second = seqmatch.sequence_search(m, params)
    # lowest in-bounds ref_end, lowest velocity, constant score
    assert score == pytest.approx(0.7)
    assert v == pytest.approx(0.8)
    oracle = seqsearch_oracle(m, 10, 0.8, 1.2, 0.1, params.exclusion_frames)
    assert ref_end == oracle[0]
    assert second == pytest.approx(oracle[3])


def test_sequence_search_window_too_large():
    with pytest.raises(WindowTooLarge):
        seqmatch.sequence_search(np.ones((4, 10)), seqmatch.MatchParams(W=5))


def test_sequence_search_matches_oracle_randomized():
    rng = np.random.default_rng(4)
    for trial in range(40):
        rows = int(rng.integers(10, 14))
        cols = int(rng.integers(12, 120))
        m = rng.uniform(size=(rows, cols))
        params = seqmatch.MatchParams(W=10, exclusion=int(rng.integers(0, 25)))
        want = seqsearch_oracle(m, 10, 0.8, 1.2, 0.1, params.exclusion_frames)
        got = seqmatch.sequence_search(m, params)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], abs=1e-12)
        assert got[2] == pytest.approx(want[2], abs=1e-12)
        if math.isinf(want[3]):
            assert math.isinf(got[3])
        else:
            assert got[3] == pytest.approx(want[3], abs=1e-12)


def test_match_params_validation():
    with pytest.raises(InvalidParams):
        seqmatch.MatchParams(W=0)
    with pytest.raises(InvalidParams):
        seqmatch.MatchParams(v_min=0.0)
    with pytest.raises(InvalidParams):
        seqmatch.MatchParams(v_min=1.3, v_max=1.2)
    with pytest.raises(InvalidParams):
        seqmatch.MatchParams(v_step=0.0)
    with pytest.raises(InvalidParams):
        seqmatch.MatchParams(accept_ratio=1.0)
    assert seqmatch.MatchParams(W=7).exclusion_frames == 14
    np.testing.assert_allclose(seqmatch.MatchParams().velocities(),
                               [0.8, 0.9, 1.0, 1.1, 1.2])


def test_velocity_grid_is_bounded_before_it_is_built():
    top = seqmatch.MAX_VELOCITIES
    assert seqmatch.MatchParams(v_min=1.0, v_max=1.0 + (top - 1) * 0.5,
                                v_step=0.5).velocities().shape == (top,)
    with pytest.raises(InvalidParams, match="velocities"):
        seqmatch.MatchParams(v_min=1.0, v_max=1.0 + top * 0.5, v_step=0.5)
    # W = 1 has no trajectory offset to overflow, so only the grid bound
    # stops these; a subnormal v_step makes the grid length overflow to inf
    for kwargs in ({"v_max": 1e300}, {"v_step": 1e-300}, {"v_step": 5e-324}):
        with pytest.raises(InvalidParams, match="velocities"):
            seqmatch.MatchParams(W=1, **kwargs)


@st.composite
def _cluster_members(draw):
    """(members of every cluster, 0, w): cluster 0 is tested.  Its members are
    w - 1 or w apart, near the join boundary (2w + 1 apart joins, 2w + 2 does
    not), or far enough apart to leave w - 1 or w free columns between runs;
    its first member may sit at 0 and its last at n_hist - 1.  Other clusters
    take every other index below n_hist."""
    w = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.sampled_from(sorted({1, max(1, w - 1), w, 2 * w, 2 * w + 1,
                                                 2 * w + 2, 3 * w, 3 * w + 1})),
                         max_size=8))
    mine = draw(st.integers(0, 2 * w)) + np.cumsum([0] + gaps)
    n_hist = int(mine[-1]) + 1 + draw(st.integers(0, 2 * w))
    rest = np.setdiff1d(np.arange(n_hist), mine)
    split = draw(st.integers(0, rest.shape[0]))
    # members read from an .lpdc file need not be sorted
    clusters = [np.array(draw(st.permutations(mine.tolist())))]
    clusters += [c for c in (rest[:split], rest[split:]) if c.shape[0]]
    if draw(st.booleans()):  # W larger than the whole map
        w = n_hist + draw(st.integers(1, 3))
    return clusters, 0, w


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_cluster_members())
@example(case=([np.array([0]), np.array([1, 2])], 0, 1))       # single member at 0
@example(case=([np.array([0, 1]), np.array([2])], 1, 2))       # single member at n_hist - 1
@example(case=([np.array([0, 4]), np.arange(1, 4)], 0, 1))     # gap 2w + 2: two runs
@example(case=([np.array([0, 3]), np.array([1, 2])], 0, 1))    # gap 2w + 1: one run
@example(case=([np.array([5]), np.arange(5)], 0, 9))           # W larger than the map
def test_candidate_runs_match_the_member_loop(case):
    members, cluster_id, w = case
    skf = cluster.SuperKeyframes(np.zeros((len(members), 2)),
                                 [int(m[0]) for m in members], members,
                                 np.zeros((1 + max(int(m.max()) for m in members), 2)))
    assert skf.n_hist == 1 + max(int(m.max()) for m in members)
    assert seqmatch._candidate_runs(skf, cluster_id, w) == \
        candidate_runs_oracle(members, cluster_id, w)


def _loop_descriptors(rng, n_places=80, dim=64, sigma=0.0):
    """A map of distinct places plus a noisy revisit of the same sequence."""
    base = random_unit(rng, n_places, dim).astype(np.float64)
    revisit = base + sigma * rng.normal(size=base.shape)
    revisit /= np.linalg.norm(revisit, axis=1, keepdims=True)
    return base.astype(np.float32), revisit.astype(np.float32)


def test_detect_loop_exact_revisit():
    rng = np.random.default_rng(5)
    base, revisit = _loop_descriptors(rng, sigma=0.0)
    pm = _map_from(base)
    skf = _skf_for(pm, K=1)
    params = seqmatch.MatchParams(W=10)
    qi = 50
    window = revisit[qi - 9:qi + 1]
    r = seqmatch.detect_loop(window, pm, skf, params)
    assert r.ref_end == qi
    assert r.score == 0.0
    assert r.accepted
    assert r.cluster_id == 0


def test_detect_loop_orthogonal_query_rejected():
    rng = np.random.default_rng(6)
    base, _ = _loop_descriptors(rng, n_places=60, dim=128)
    pm = _map_from(base)
    skf = _skf_for(pm, K=2)
    params = seqmatch.MatchParams(W=10)
    window = orthogonal_to(base, rng, 10)
    r = seqmatch.detect_loop(window, pm, skf, params)
    assert not r.accepted
    # every distance is sqrt(2): best/second ratio cannot beat any threshold <1
    assert r.score == pytest.approx(math.sqrt(2.0), rel=1e-6)


def test_detect_loop_noisy_revisit_accuracy():
    rng = np.random.default_rng(7)
    base, revisit = _loop_descriptors(rng, n_places=120, sigma=0.05)
    pm = _map_from(base)
    skf = _skf_for(pm, K=3)
    params = seqmatch.MatchParams(W=10)
    hits = total = 0
    for qi in range(30, 110):
        r = seqmatch.detect_loop(revisit[qi - 9:qi + 1], pm, skf, params)
        total += 1
        if r.accepted and abs(r.ref_end - qi) <= 1:
            hits += 1
    assert hits / total >= 0.95


def test_detect_loop_window_length_checked():
    rng = np.random.default_rng(8)
    base, _ = _loop_descriptors(rng, n_places=40)
    pm = _map_from(base)
    skf = _skf_for(pm, K=1)
    with pytest.raises(InvalidParams):
        seqmatch.detect_loop(base[:9], pm, skf, seqmatch.MatchParams(W=10))


def test_detect_loop_insufficient_history():
    rng = np.random.default_rng(9)
    base, _ = _loop_descriptors(rng, n_places=6)
    pm = _map_from(base)
    skf = _skf_for(pm, K=1)
    with pytest.raises(InsufficientHistory):
        seqmatch.detect_loop(np.tile(base[0], (10, 1)), pm, skf,
                             seqmatch.MatchParams(W=10))


def test_detect_loop_candidate_runs_respect_history():
    # clusters built over the first 60 entries only; candidates must not
    # reach the later part of the map even though the map is longer
    rng = np.random.default_rng(10)
    base, revisit = _loop_descriptors(rng, n_places=80, sigma=0.0)
    pm = _map_from(base)
    hist = pm.descriptor_matrix()[:60].astype(np.float64)
    c = cluster.kmeanspp(hist, K=1, seed=0)
    skf_hist = cluster.SuperKeyframes(
        c.centers, np.array([int(np.argmin(((hist - c.centers[0]) ** 2).sum(axis=1)))]),
        [np.arange(60)], hist)
    r = seqmatch.detect_loop(revisit[41:51], pm, skf_hist, seqmatch.MatchParams(W=10))
    assert r.ref_end == 50
    r2 = seqmatch.detect_loop(revisit[66:76], pm, skf_hist, seqmatch.MatchParams(W=10))
    assert r2.ref_end <= 59   # frame 75 is outside the clustered history


def test_detect_loop_mirror_finds_reversed_segment():
    rng = np.random.default_rng(11)
    base, _ = _loop_descriptors(rng, n_places=80, sigma=0.0)
    pm = _map_from(base)
    skf = _skf_for(pm, K=1)
    # traverse map frames 30..39 in reverse order
    window = base[30:40][::-1]
    fwd = seqmatch.detect_loop(window, pm, skf, seqmatch.MatchParams(W=10))
    rev = seqmatch.detect_loop(window, pm, skf, seqmatch.MatchParams(W=10, mirror=True))
    assert not fwd.accepted or fwd.score > 0.5
    assert rev.accepted
    assert rev.score == 0.0
    assert rev.ref_end == 30
    assert rev.velocity == pytest.approx(-1.0)


def test_export_pgm_linear_map(tmp_path):
    m = np.array([[0.0, 1.0], [2.0, 0.5]])
    path = tmp_path / "d.pgm"
    seqmatch.export_pgm(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "2 2"
    assert lines[2] == "255"
    rows = [[int(v) for v in line.split()] for line in lines[3:]]
    assert rows == [[255, 128], [0, 191]]


def test_export_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    m = rng.uniform(size=(4, 6))
    path = tmp_path / "d.csv"
    seqmatch.export_csv(m, path)
    back = np.loadtxt(path, delimiter=",")
    np.testing.assert_allclose(back, m, rtol=1e-9)
