"""Coarse-to-fine loop detection: super-keyframe matching plus sequence search.

A query window (the last W descriptors of the live trajectory) is first
matched against the K super keyframes; members of the winning cluster expand
(+-W frames) into candidate reference runs; a velocity-bounded trajectory
search over each run's difference matrix yields the best (ref_end, velocity)
line, accepted by a best/second-best ratio test with an exclusion zone.

Trajectories are anchored at the newest query frame and projected backward
with slope v reference-frames-per-query-frame; all scores are mean L2
differences, so they live in [0, 2] for unit descriptors.  Mirror mode adds
each line reversed (negated offsets) to the same ``kernels.trajectory_grid``.

The fine stage follows the kernels' candidate rule (see ``kernels``): cheap
bounds on every column's score from one approximate product, then exact
scores only where the best or the second best can lie.  The result is that
of scoring every column exactly, bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fileio, kernels
from .cluster import SuperKeyframes
from .errors import (DimensionError, EmptyInput, EmptySuperKeyframes, InsufficientHistory,
                     InvalidParams, NoValidTrajectory, OutOfBounds, WindowTooLarge)
from .placemap import PlaceMap

MAX_VELOCITIES = 2 ** 16  # longest velocity grid MatchParams accepts


@dataclass(frozen=True)
class MatchParams:
    """Window length, velocity grid, and acceptance threshold for sequence search.

    ``exclusion`` is the frame radius blanked around the best match when
    finding the second best; None means 2*W.  ``mirror`` also scores every
    line reversed (velocity -v for each grid velocity v); a reversed line
    wins only on a strictly smaller score.
    """

    W: int = 10
    v_min: float = 0.8
    v_max: float = 1.2
    v_step: float = 0.1
    accept_ratio: float = 0.8
    exclusion: int = None
    mirror: bool = False

    def __post_init__(self):
        if self.W < 1:
            raise InvalidParams("W must be >= 1")
        if not 0.0 < self.v_min <= self.v_max < math.inf:
            raise InvalidParams("need 0 < v_min <= v_max < inf")
        # trajectory offsets round(v * t), t < W, are int64; 2^62 leaves room
        # for the velocity grid to overshoot v_max by its rounding slack
        if self.v_max * (self.W - 1) >= 2.0 ** 62:
            raise InvalidParams("v_max * (W - 1) must be < 2^62")
        if not 0.0 < self.v_step < math.inf:
            raise InvalidParams("v_step must be finite and > 0")
        if self._grid_length() > MAX_VELOCITIES:
            raise InvalidParams(f"(v_max - v_min) / v_step allows at most "
                                f"{MAX_VELOCITIES} velocities")
        if not 0.0 < self.accept_ratio < 1.0:
            raise InvalidParams("accept_ratio must be in (0, 1)")
        if self.exclusion is not None and self.exclusion < 0:
            raise InvalidParams("exclusion must be >= 0")

    @property
    def exclusion_frames(self) -> int:
        return 2 * self.W if self.exclusion is None else self.exclusion

    def _grid_length(self):
        """Length of the velocity grid as a Python number, so a huge one is
        never allocated (inf when the quotient overflows)."""
        steps = (self.v_max - self.v_min) / self.v_step + 1e-9
        return math.floor(steps) + 1 if math.isfinite(steps) else math.inf

    def velocities(self) -> np.ndarray:
        return self.v_min + self.v_step * np.arange(self._grid_length())


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one loop-detection attempt at the newest query frame.

    ``ref_end`` is the map entry index matched to the newest query frame;
    ``accepted`` means the ratio test passed against ``second_best``.
    """

    ref_end: int
    velocity: float
    score: float
    accepted: bool
    cluster_id: int
    second_best: float


def difference_matrix(query_seq, ref_seq) -> np.ndarray:
    """Pairwise L2 distances, query frames as rows (oldest to newest)."""
    q = np.atleast_2d(np.asarray(query_seq, dtype=np.float64))
    r = np.atleast_2d(np.asarray(ref_seq, dtype=np.float64))
    if q.shape[0] == 0 or r.shape[0] == 0:
        raise EmptyInput("both sequences must be non-empty")
    if q.shape[1] != r.shape[1]:
        raise DimensionError(f"query descriptor dim {q.shape[1]}, reference dim {r.shape[1]}")
    return kernels.pairwise_l2(q, r)


def coarse_match(query, skf: SuperKeyframes) -> int:
    """Cluster whose super keyframe is nearest the query (ties to lower id).

    A query whose width is not the keyframes' raises DimensionError; one with
    a NaN or inf, or whose squared norm overflows, raises InvalidParams.
    """
    if skf.K < 1:
        raise EmptySuperKeyframes("no clusters")
    q = np.asarray(query, dtype=np.float64).ravel()
    dim = skf.keyframe_descriptors.shape[1]
    if q.shape[0] != dim:
        raise DimensionError(f"query descriptor dim {q.shape[0]}, map dim {dim}")
    if not math.isfinite(float(np.einsum("d,d->", q, q))):
        raise InvalidParams("query window must be finite, with finite squared norms")
    return int(np.argmin(kernels.sum_d2(skf.keyframe_descriptors, q)))


def _offset_grid(params: MatchParams):
    """(offsets, velocities): the shift round(v*t) of query row W-1-t per
    velocity; with ``mirror``, followed by the negated (reversed) lines."""
    vels = params.velocities()
    w = np.arange(params.W, dtype=np.float64)
    offsets = np.floor(vels[:, None] * w[None, :] + 0.5).astype(np.int64)
    if params.mirror:
        return np.concatenate((offsets, -offsets)), np.concatenate((vels, -vels))
    return offsets, vels


def trajectory_score(m: np.ndarray, ref_end: int, v: float, w: int) -> float:
    """Mean difference along one trajectory line ending at ``ref_end``.

    Query row R-1-t pairs with reference column ref_end - round(v*t), which
    is -round(|v|*t) for a mirrored v < 0 as in the search grid; any
    projected column outside the matrix raises OutOfBounds.
    """
    mat = np.asarray(m, dtype=np.float64)
    rows, cols = mat.shape
    if w > rows:
        raise WindowTooLarge(f"window {w} exceeds {rows} rows")
    if w < 1:
        raise InvalidParams("window must be >= 1")
    if not math.isfinite(v):
        raise InvalidParams(f"velocity must be finite, got {v}")
    total = 0.0
    for t in range(w):
        col = ref_end - int(math.copysign(math.floor(abs(v) * t + 0.5), v))
        if not 0 <= col < cols:
            raise OutOfBounds(f"column {col} outside [0, {cols})")
        total += mat[rows - 1 - t, col]
    return total / w


def _best_and_second(scores: np.ndarray, excl: int):
    """Index of the smallest score (ties to the lower index) and the smallest
    score more than ``excl`` columns away from it (inf when there is none)."""
    if not np.isfinite(scores).any():
        raise NoValidTrajectory("no in-bounds trajectory")
    best = int(np.argmin(scores))
    masked = scores.copy()
    masked[max(0, best - excl):best + excl + 1] = np.inf
    return best, float(masked.min())


def sequence_search(m: np.ndarray, params: MatchParams):
    """Exhaustive minimum over all (ref_end, velocity) trajectory lines.

    Returns (ref_end, velocity, score, second_best_score); ties prefer the
    lower ref_end, then the lower velocity (forward before mirrored).  The
    second best is taken over columns outside the exclusion zone around the
    best (inf when none).
    """
    mat = np.ascontiguousarray(m, dtype=np.float64)
    if params.W > mat.shape[0]:
        raise WindowTooLarge(f"window {params.W} exceeds {mat.shape[0]} rows")
    offsets, vels = _offset_grid(params)
    scores, v_idx = kernels.trajectory_grid(mat, offsets)
    best, second = _best_and_second(scores, params.exclusion_frames)
    return best, float(vels[v_idx[best]]), float(scores[best]), second


def _candidate_runs(skf: SuperKeyframes, cluster_id: int, w: int):
    """Contiguous candidate frame runs [lo, hi): members expanded by +-W,
    clamped to the clustered history [0, skf.n_hist), joined where they touch
    or overlap, and kept only when at least W long."""
    m = np.sort(skf.members[cluster_id])
    lo = np.maximum(m - w, 0)
    hi = np.minimum(m + w + 1, skf.n_hist)
    # hi rises with m, so a member opens a new run exactly when its span
    # starts past the end of the previous member's
    gap = np.flatnonzero(lo[1:] > hi[:-1])
    starts = np.concatenate((lo[:1], lo[gap + 1]))
    ends = np.concatenate((hi[gap], hi[-1:]))
    keep = ends - starts >= w
    return list(zip(starts[keep].tolist(), ends[keep].tolist()))


def _run_bounds(labels: np.ndarray):
    """(first, last): each column's run, the block of its label in the
    non-decreasing ``labels``, is the columns [first, last)."""
    return np.searchsorted(labels, labels, "left"), np.searchsorted(labels, labels, "right")


def _pruned_search(q, sq_q, ref_desc, cols, label, offsets, vels, params):
    """Exact scores of the run columns ``cols`` (run ``label`` each) where the
    best or second best can lie; returns (score, velocity, known), with inf /
    NaN where ``known`` is False."""
    n = cols.shape[0]
    first, last = _run_bounds(label)
    # columns a trajectory reaches back from, and forward of, its end column
    back, ahead = int(offsets.max()), -int(offsets.min())
    # cells from one product, scores from one grid pass over lower|upper
    r = ref_desc[cols].astype(np.float64)
    sq_r = np.einsum("nd,nd->n", r, r)
    approx = sq_q[:, None] + sq_r[None, :] - 2.0 * (q @ r.T)
    slack = kernels.approx_slack(np.concatenate((sq_q, sq_r)))
    cells = np.concatenate((np.sqrt(np.maximum(approx - slack, 0.0)),
                            np.sqrt(approx + slack)), axis=1)
    bound, _ = kernels.trajectory_grid(
        cells, offsets, _run_bounds(np.concatenate((label, label + label[-1] + 1))))
    lower, upper = bound[:n], bound[n:]

    score = np.full(n, np.inf)
    vel = np.full(n, np.nan)
    known = np.zeros(n, dtype=bool)

    def score_exactly(want):
        # the span each trajectory of a wanted column reaches, within its run
        s = np.maximum(first[want], want - back)
        e = np.minimum(last[want], want + 1 + ahead)
        need = np.cumsum(np.bincount(s, minlength=n + 1) - np.bincount(e, minlength=n + 1))
        span = np.flatnonzero(need[:n] > 0)
        # a span ends where the marked columns stop or a run ends
        breaks = np.ones(span.shape[0], dtype=bool)
        breaks[1:] = (span[1:] != span[:-1] + 1) | (label[span[1:]] != label[span[:-1]])
        mat = kernels.pairwise_l2(q, ref_desc[cols[span]])
        # velocities are read only at finite scores, where v_idx >= 0
        sc, v_idx = kernels.trajectory_grid(mat, offsets, _run_bounds(np.cumsum(breaks)))
        at = np.searchsorted(span, want)
        score[want] = sc[at]
        vel[want] = vels[v_idx[at]]
        known[want] = True

    def second_may(top):
        # columns not yet scored, outside the exclusion zone of the best at
        # ``top``, that may hold the second best
        far = np.abs(cols - cols[top]) > params.exclusion_frames
        ceiling = np.where(known, score, upper)[far].min(initial=np.inf)
        return far & ~known & (lower <= ceiling) & (lower < np.inf)

    # columns that may hold the best (one bounded below by inf scores inf),
    # and those that may hold the second best if the best is the column of
    # the least upper bound; once the best is known, any column that guess
    # missed is scored too
    best_may = (lower <= upper.min()) & (lower < np.inf)
    if best_may.any():
        score_exactly(np.flatnonzero(best_may | second_may(int(np.argmin(upper)))))
        want = np.flatnonzero(second_may(int(np.argmin(score))))
        if want.shape[0]:
            score_exactly(want)
    return score, vel, known


def detect_loop(query_window, pmap: PlaceMap, skf: SuperKeyframes,
                params: MatchParams) -> MatchResult:
    """Coarse-to-fine loop detection for the newest query frame.

    The newest descriptor picks a cluster; sequence search runs over every
    candidate run of that cluster; the global best is accepted iff a second
    best exists outside the exclusion zone and best < accept_ratio * second.
    With ``params.mirror`` the velocity grid also holds every line reversed
    (negated offsets), covering segments revisited in the opposite travel
    direction; a reversed line wins only on a strictly smaller score.

    The search follows the kernels' candidate rule.  One BLAS product over
    every run column gives each difference cell an approximate squared
    distance; less and plus ``kernels.approx_slack`` it brackets the exact
    cell, and one grid pass over the bracketing cells brackets every
    column's score, since rounded sums, division and minima are monotone.
    Exact scores are computed only for columns whose lower bound reaches the
    least upper bound (where the best can lie) and for columns outside the
    best's exclusion zone whose lower bound reaches the least bound there
    (where the second best can lie).  That zone is first taken around the
    column of the least upper bound; if the exact best lies elsewhere, the
    columns its own zone adds are scored in a second pass.  Each exact
    column is scored on the span of its run that its trajectories reach,
    from the same cells in the same order as a search of the whole run, so
    the result is that of scoring every column exactly.

    A query window with a NaN or inf, or whose squared norms overflow,
    raises InvalidParams; one whose width is not the map's raises
    DimensionError.
    """
    q = np.atleast_2d(np.asarray(query_window, dtype=np.float64))
    if q.shape[0] != params.W:
        raise InvalidParams(f"query window has {q.shape[0]} frames, expected {params.W}")
    pmap.check_dim(q)
    sq_q = np.einsum("wd,wd->w", q, q)
    if not np.isfinite(sq_q).all():
        raise InvalidParams("query window must be finite, with finite squared norms")
    cluster_id = coarse_match(q[-1], skf)
    runs = _candidate_runs(skf, cluster_id, params.W)
    if not runs:
        raise InsufficientHistory(f"no candidate run of length >= {params.W}")
    ref_desc = pmap.descriptor_matrix()
    offsets, vels = _offset_grid(params)

    # every run column side by side: its map column and its run's label
    lo, hi = np.array(runs).T
    n_run = hi - lo
    label = np.repeat(np.arange(len(runs)), n_run)
    cols = np.arange(label.shape[0]) + np.repeat(lo - np.cumsum(n_run) + n_run, n_run)
    score, vel, known = _pruned_search(q, sq_q, ref_desc, cols, label, offsets,
                                       vels, params)

    # score and velocity per map column; columns not scored exactly stay inf,
    # so the selector sees only columns that may hold the best or second best
    map_scores = np.full(runs[-1][1], np.inf)
    map_vel = np.full(runs[-1][1], np.nan)
    map_scores[cols[known]] = score[known]
    map_vel[cols[known]] = vel[known]
    best, second = _best_and_second(map_scores, params.exclusion_frames)
    best_score = float(map_scores[best])
    accepted = math.isfinite(second) and best_score < params.accept_ratio * second
    return MatchResult(ref_end=best, velocity=float(map_vel[best]), score=best_score,
                       accepted=bool(accepted), cluster_id=cluster_id, second_best=second)


def export_pgm(m: np.ndarray, path) -> None:
    """Plain-text PGM (P2) of a difference matrix, entries mapped linearly
    from [0, 2] to gray levels [255, 0]."""
    mat = np.clip(np.asarray(m, dtype=np.float64), 0.0, 2.0)
    pix = np.floor(255.0 * (2.0 - mat) / 2.0 + 0.5).astype(np.int64)
    rows, cols = pix.shape
    lines = ["P2", f"{cols} {rows}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in pix)
    with fileio.writing(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def export_csv(m: np.ndarray, path) -> None:
    """Difference matrix as comma-separated rows."""
    with fileio.writing(path, "w") as fh:
        np.savetxt(fh, np.asarray(m, dtype=np.float64), fmt="%.10g", delimiter=",")
