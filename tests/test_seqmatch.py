import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqlpd import cluster, kernels, placemap, seqmatch
from seqlpd.cloud import Pose
from seqlpd.errors import (DimensionError, EmptyInput, InsufficientHistory, InvalidParams,
                           NoValidTrajectory, OutOfBounds, WindowTooLarge)

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


def test_coarse_match_rejects_a_query_of_another_width():
    # 8-d keyframes: a 1-wide query would broadcast against them, a 9-wide
    # or a 2-d (2, 8) one would fail inside numpy
    skf = _skf_for(_map_from(random_unit(np.random.default_rng(3), 12, 8)), K=3)
    for q in (np.ones(1), np.ones(9), np.ones((2, 8)), np.ones(0)):
        with pytest.raises(DimensionError, match=f"query descriptor dim {q.size}, map dim 8"):
            seqmatch.coarse_match(q, skf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200,
                                 np.sqrt(0.5 * np.finfo(np.float64).max)],
                         ids=["nan", "inf", "-inf", "overflowing", "half_max_norm"])
def test_coarse_match_rejects_a_non_finite_query(bad):
    skf = _skf_for(_map_from(random_unit(np.random.default_rng(4), 12, 8)), K=3)
    q = np.full(8, 0.25)
    q[5] = bad
    with pytest.raises(InvalidParams, match="finite"):
        seqmatch.coarse_match(q, skf)
    with pytest.raises(InvalidParams, match="finite"):  # the all-NaN query
        seqmatch.coarse_match(np.full(8, np.nan), skf)


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


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_trajectory_score_rejects_a_non_finite_velocity(v):
    m = np.ones((3, 5))
    for w in (1, 3):  # even the first cell would round v * 0, which is nan
        with pytest.raises(InvalidParams, match="velocity"):
            seqmatch.trajectory_score(m, 4, v, w)


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


def _planted_reversed_line(v=0.9, w=10, ref_end=20):
    """Uniform matrix whose zero cells trace the line ending at ``ref_end``
    with velocity -``v``: row w-1-t holds a zero at ref_end + round(v*t)."""
    m = np.random.default_rng(12).uniform(0.5, 1.0, size=(w, 50))
    for t in range(w):
        m[w - 1 - t, ref_end + int(math.floor(v * t + 0.5))] = 0.0
    return m


def test_trajectory_score_mirrored_velocity_rounds_as_the_grid():
    # at v = -0.9, t = 5 the shift 4.5 rounds to 5, as in the grid's negated
    # offsets; floor(-4.5 + 0.5) = -4 would read a nonzero cell instead
    m = _planted_reversed_line()
    assert seqmatch.trajectory_score(m, 20, -0.9, 10) == 0.0
    params = seqmatch.MatchParams(W=10, mirror=True)
    offsets, vels = seqmatch._offset_grid(params)
    for off, v in zip(offsets, vels):
        grid, _ = kernels.trajectory_grid(m, off[None, :])
        scores = [seqmatch.trajectory_score(m, ref, v, 10) for ref in range(11, 39)]
        assert np.array(scores).tobytes() == grid[11:39].tobytes()


def test_sequence_search_mirror_finds_reversed_segment():
    m = _planted_reversed_line()
    ref_end, v, score, _ = seqmatch.sequence_search(m, seqmatch.MatchParams(W=10))
    assert score > 0.0 and v > 0.0
    ref_end, v, score, second = seqmatch.sequence_search(
        m, seqmatch.MatchParams(W=10, mirror=True))
    assert (ref_end, v, score) == (20, -0.9, 0.0) and second > 0.0
    assert seqmatch.trajectory_score(m, ref_end, v, 10) == score
    # a reversed copy of map descriptors, as detect_loop's mirror test walks it
    base = random_unit(np.random.default_rng(13), 60, 16)
    diff = seqmatch.difference_matrix(base[30:40][::-1], base)
    ref_end, v, score, _ = seqmatch.sequence_search(diff, seqmatch.MatchParams(W=10, mirror=True))
    assert (ref_end, v, score) == (30, pytest.approx(-1.0), 0.0)


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


def _per_run_reference(query_window, pm, skf, params):
    """detect_loop as one exact pass per candidate run: every cell by
    ``kernels.pairwise_l2`` and every column by ``kernels.trajectory_grid``,
    both checked against the loop oracles in ``tests/test_kernels.py``."""
    q = np.atleast_2d(np.asarray(query_window, dtype=np.float64))
    cluster_id = seqmatch.coarse_match(q[-1], skf)
    runs = seqmatch._candidate_runs(skf, cluster_id, params.W)
    if not runs:
        raise InsufficientHistory(f"no candidate run of length >= {params.W}")
    ref_desc = pm.descriptor_matrix()
    vels = params.velocities()
    offsets = np.floor(vels[:, None] * np.arange(params.W)[None, :] + 0.5).astype(np.int64)
    map_scores = np.full(runs[-1][1], np.inf)
    map_vel = np.full(runs[-1][1], np.nan)
    for lo, hi in runs:
        sub = kernels.pairwise_l2(q, ref_desc[lo:hi])
        scores, v_idx = kernels.trajectory_grid(sub, offsets)
        vel = np.where(v_idx >= 0, vels[np.maximum(v_idx, 0)], np.nan)
        if params.mirror:
            r_scores, r_idx = kernels.trajectory_grid(sub[:, ::-1], offsets)
            r_scores, r_idx = r_scores[::-1], r_idx[::-1]
            better = r_scores < scores
            scores = np.where(better, r_scores, scores)
            vel = np.where(better, np.where(r_idx >= 0, -vels[np.maximum(r_idx, 0)], np.nan),
                           vel)
        map_scores[lo:hi] = scores
        map_vel[lo:hi] = vel
    best, second = seqmatch._best_and_second(map_scores, params.exclusion_frames)
    score = float(map_scores[best])
    accepted = math.isfinite(second) and score < params.accept_ratio * second
    return seqmatch.MatchResult(ref_end=best, velocity=float(map_vel[best]), score=score,
                                accepted=bool(accepted), cluster_id=cluster_id,
                                second_best=second)


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (InsufficientHistory, NoValidTrajectory) as e:
        return f"{type(e).__name__}: {e}"


@st.composite
def _search_cases(draw):
    """(descriptors, clusters, query window, params) with many ties: rows on a
    coarse grid, repeated rows or all one row, windows copied from the map
    (forward or reversed), rounded, or random."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 90))
    dim = draw(st.sampled_from([2, 3, 8, 32]))
    kind = draw(st.sampled_from(["normal", "grid", "repeated", "identical"]))
    x = rng.normal(size=(n, dim))
    if kind == "grid":
        x = np.round(x)
        x[~x.any(axis=1), 0] = 1.0
    elif kind == "repeated":
        x = x[rng.integers(0, max(1, n // 5), size=n)]
    elif kind == "identical":
        x = np.tile(x[:1], (n, 1))
    x = (x / np.linalg.norm(x, axis=1, keepdims=True)).astype(np.float32)
    n_hist = draw(st.integers(1, n))
    k = draw(st.integers(1, min(4, n_hist)))
    label = np.concatenate([np.arange(k), rng.integers(0, k, size=n_hist - k)])
    rng.shuffle(label)
    members = [np.flatnonzero(label == c) for c in range(k)]
    skf = cluster.SuperKeyframes(np.zeros((k, dim)), [int(m[0]) for m in members],
                                 members, x[:n_hist])
    v_min = draw(st.sampled_from([0.5, 0.8, 1.0]))
    params = seqmatch.MatchParams(
        W=draw(st.integers(1, 12)), v_min=v_min,
        v_max=v_min + draw(st.sampled_from([0.0, 0.4, 1.5])),
        v_step=draw(st.sampled_from([0.1, 0.25, 0.5])),
        exclusion=draw(st.sampled_from([None, 0, 1, 1000])),
        mirror=draw(st.booleans()))
    start = int(rng.integers(0, n))
    window = x[np.arange(start, start + params.W) % n].astype(np.float64)
    how = draw(st.sampled_from(["copy", "reversed", "noisy", "rounded", "random"]))
    if how == "reversed":
        window = window[::-1]
    elif how == "noisy":
        window = window + rng.normal(0.0, 0.01, size=window.shape)
    elif how == "rounded":
        window = np.round(window * 2) / 2
    elif how == "random":
        window = rng.normal(size=window.shape)
    return x, skf, window, params


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=_search_cases())
def test_detect_loop_equals_the_per_run_search(case):
    x, skf, window, params = case
    pm = _map_from(x)
    want = _outcome(_per_run_reference, window, pm, skf, params)
    assert _outcome(seqmatch.detect_loop, window, pm, skf, params) == want


def test_exact_stage_scores_fewer_cells_than_the_runs_cover():
    # well-separated places: the bounds leave only the columns near the best
    # and the second best for the exact stage
    rng = np.random.default_rng(14)
    base, revisit = _loop_descriptors(rng, n_places=400, dim=64, sigma=0.02)
    pm = _map_from(base)
    skf = _skf_for(pm, K=1)
    params = seqmatch.MatchParams(W=10)
    cells = []
    real = kernels.pairwise_l2

    def spy(a, b):
        cells.append(a.shape[0] * b.shape[0])
        return real(a, b)

    for qi in (60, 200, 390):
        window = revisit[qi - 9:qi + 1]
        cells.clear()
        with mock.patch.object(kernels, "pairwise_l2", spy):
            got = seqmatch.detect_loop(window, pm, skf, params)
        covered = params.W * sum(hi - lo for lo, hi in seqmatch._candidate_runs(skf, 0, 10))
        assert 0 < sum(cells) < covered / 4
        assert got.ref_end == qi and got.accepted
        assert repr(got) == repr(_per_run_reference(window, pm, skf, params))


def test_exact_spans_of_adjacent_runs_stay_apart():
    # Runs A = [10, 21), B = [45, 56) and C = [65, 71) lie side by side in the
    # candidate columns, so A's last column sits next to B's first.  Frames
    # 16-20 and 45-49 are all within 1e-6 of one direction, so the columns
    # near A's end and B's start are near-best candidates scored in one exact
    # pass.  C ends with an exact copy of the query (frames 20, 45, 47, 48
    # and 49): the best is column 70, score 0.  A trajectory from column 49 at v = 1.2 would need column 44,
    # outside B; continued into A's column 20 it would also score 0.
    rng = np.random.default_rng(16)
    x = rng.normal(size=(75, 16))
    u = x[0]
    for i in (*range(16, 21), *range(45, 50)):
        x[i] = u + 1e-6 * rng.normal(size=16)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x = x.astype(np.float32)
    query = x[[20, 45, 47, 48, 49]]
    x[66:71] = query
    pm = _map_from(x)
    skf = cluster.SuperKeyframes(np.zeros((1, 16)), [15], [np.array([15, 50, 70])], x[:71])
    params = seqmatch.MatchParams(W=5)
    assert seqmatch._candidate_runs(skf, 0, 5) == [(10, 21), (45, 56), (65, 71)]
    want = _per_run_reference(query, pm, skf, params)
    assert (want.ref_end, want.score) == (70, 0.0)
    assert repr(seqmatch.detect_loop(query, pm, skf, params)) == repr(want)


def test_second_best_follows_the_exact_best_not_the_least_upper_bound():
    # W = 2 at v = 1: column c scores (|q1 - d_c| + |q0 - d_{c-1}|) / 2.  The
    # best, column 12, scores 0.1 from cells 0 and 0.2; column 10 scores
    # 0.100001 from two cells near 0.1.  A zero cell's bounds are the widest,
    # so column 10 has the least upper bound although 12 is the best.
    # Exclusion 2: column 14 (0.3) lies outside 10's zone but inside 12's,
    # and the second best is column 30 (0.5), which only 12's zone lets in.
    dim = 16
    e = np.eye(dim)

    def at(base, side, dist):  # a unit vector at distance dist from base
        c = 1.0 - dist * dist / 2.0
        return c * base + math.sqrt(1.0 - c * c) * side

    rng = np.random.default_rng(17)
    x = rng.normal(size=(40, dim))
    x[:, :2] = 0.0  # every other frame lies far from e0 and e1
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    q0, q1 = e[0], e[1]
    x[12], x[11] = q1, at(q0, e[2], 0.2)
    x[10], x[9] = at(q1, e[3], 0.1), at(q0, e[4], 0.100002)
    x[14], x[13] = at(q1, e[5], 0.3), at(q0, e[6], 0.3)
    x[30], x[29] = at(q1, e[7], 0.5), at(q0, e[8], 0.5)
    x = x.astype(np.float32)
    pm = _map_from(x)
    skf = cluster.SuperKeyframes(np.zeros((1, dim)), [0], [np.arange(40)], x)
    params = seqmatch.MatchParams(W=2, v_min=1.0, v_max=1.0, exclusion=2)
    query = np.stack([q0, q1])
    want = _per_run_reference(query, pm, skf, params)
    assert want.ref_end == 12 and want.accepted
    assert want.second_best == pytest.approx(0.5, abs=1e-6)
    assert repr(seqmatch.detect_loop(query, pm, skf, params)) == repr(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200,
                                 np.sqrt(0.5 * np.finfo(np.float64).max)])
def test_non_finite_query_is_invalid_params(bad):
    rng = np.random.default_rng(15)
    base, _ = _loop_descriptors(rng, n_places=40)
    pm = _map_from(base)
    skf = _skf_for(pm, K=1)
    window = base[10:20].astype(np.float64)
    # 1e200 is finite, but its square is not; a square of half the float64
    # maximum fails the kernels' row rule (kernels.sq_norms)
    window[3, 5] = bad
    with pytest.raises(InvalidParams, match="finite"):
        seqmatch.detect_loop(window, pm, skf, seqmatch.MatchParams(W=10))


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


def test_no_in_bounds_trajectory_is_no_valid_trajectory():
    # v = 20 over W = 5 frames reaches back 80 columns, past a 30-frame map
    descs = random_unit(np.random.default_rng(12), 30, 16)
    pm = _map_from(descs)
    params = seqmatch.MatchParams(W=5, v_min=20.0, v_max=20.0)
    with pytest.raises(NoValidTrajectory):
        seqmatch.detect_loop(descs[10:15], pm, _skf_for(pm), params)
    with pytest.raises(NoValidTrajectory):
        seqmatch.sequence_search(seqmatch.difference_matrix(descs[10:15], descs), params)
