"""Retrieval metrics: Average Recall@N, Recall@1%, and the 5-frame sequence protocol.

A query succeeds at N when one of its N nearest database descriptors by
(exact squared L2, index) lies within ``gt_radius`` of its pose.  A BLAS
product proposes N + 8 candidates; the smallest value left out, less
``kernels.approx_slack``, bounds the rest (``kernels.map_knn``).
Queries with no positive in the database at all are skipped and reported
separately.  The sequence protocol scores runs of exactly five consecutive
frames: a run counts as correct when at least ``min_successes`` of its
frames individually succeed at Recall@1.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import EmptyDatabase, InvalidParams, RunLengthError
from .placemap import PlaceMap

RUN_LEN = 5


@dataclass(frozen=True)
class RecallResult:
    """Recall percentage over evaluated queries, plus the skip count."""

    percentage: float
    evaluated: int
    skipped: int
    N: int


def ground_truth(query_poses: np.ndarray, db_poses: np.ndarray,
                 gt_radius: float) -> list:
    """Per query: database indices within gt_radius of the query pose."""
    if not 0.0 < gt_radius < math.inf:
        raise InvalidParams("gt_radius must be finite and > 0")
    q = np.asarray(query_poses, dtype=np.float64).reshape(-1, 3)
    db = np.asarray(db_poses, dtype=np.float64).reshape(-1, 3)
    dists = kernels.pairwise_l2(q, db)
    return [np.flatnonzero(row <= gt_radius) for row in dists]


def check_n(n: int) -> None:
    """The rule for a retrieval N: at least 1, else InvalidParams."""
    if n < 1:
        raise InvalidParams("N must be >= 1")


def recall_at_n(query_descs, query_poses, db: PlaceMap, gt_radius: float,
                n: int) -> RecallResult:
    """Fraction of evaluated queries whose top-N retrieval hits a true positive."""
    return recall_curve(query_descs, query_poses, db, gt_radius, [n])[0]


def recall_curve(query_descs, query_poses, db: PlaceMap, gt_radius: float, ns) -> list:
    """:func:`recall_at_n` for each N of ``ns``, from one ground truth and one ranking
    at the largest N.  The ranking is ordered by (distance, index), so its first
    N columns are the top-N ranking exactly."""
    if len(db) == 0:
        raise EmptyDatabase("empty place map")
    for n in ns:
        check_n(n)
    q = np.atleast_2d(np.asarray(query_descs, dtype=np.float64))
    db.check_dim(q)
    positives = ground_truth(query_poses, db.pose_matrix(), gt_radius)
    top = kernels.map_knn(q, db.descriptor_matrix(), min(max(ns), len(db)))
    evaluated = sum(pos.shape[0] > 0 for pos in positives)
    hit = np.array([np.isin(t, pos) for t, pos in zip(top, positives)]).reshape(top.shape)
    # rank of each query's first true positive (past the ranking when none)
    first = np.where(hit.any(axis=1), hit.argmax(axis=1), top.shape[1])
    out = []
    for n in ns:
        hits = int((first < min(n, len(db))).sum())
        out.append(RecallResult(percentage=100.0 * hits / evaluated if evaluated else 0.0,
                                evaluated=evaluated, skipped=len(positives) - evaluated, N=n))
    return out


def one_percent_n(db_size: int) -> int:
    """The N used by Recall@1%: ceil(0.01 * database size)."""
    return int(math.ceil(0.01 * db_size))


def recall_at_one_percent(query_descs, query_poses, db: PlaceMap,
                          gt_radius: float) -> RecallResult:
    return recall_at_n(query_descs, query_poses, db, gt_radius, one_percent_n(len(db)))


def seq_protocol(query_runs, db: PlaceMap, gt_radius: float,
                 min_successes: int = 3) -> float:
    """Fraction of 5-frame runs with >= min_successes individual Recall@1 hits.

    Each run is a (descriptors, poses) pair of exactly RUN_LEN frames; a frame
    with no positive in the database counts as a failure.
    """
    if len(db) == 0:
        raise EmptyDatabase("empty place map")
    if not 1 <= min_successes <= RUN_LEN:
        raise InvalidParams(f"min_successes must be in [1, {RUN_LEN}]")
    runs = list(query_runs)
    if not runs:
        return 0.0
    frames, positives = [], []
    for descs, poses in runs:
        d = np.atleast_2d(np.asarray(descs, dtype=np.float64))
        p = np.asarray(poses, dtype=np.float64).reshape(-1, 3)
        if d.shape[0] != RUN_LEN or p.shape[0] != RUN_LEN:
            raise RunLengthError(f"runs must have exactly {RUN_LEN} frames")
        db.check_dim(d)
        positives += ground_truth(p, db.pose_matrix(), gt_radius)
        frames.append(d)
    top1 = kernels.map_knn(np.concatenate(frames), db.descriptor_matrix(), 1)[:, 0]
    wins = np.array([top in pos for top, pos in zip(top1, positives)]).reshape(-1, RUN_LEN)
    return 100.0 * int((wins.sum(axis=1) >= min_successes).sum()) / len(runs)


def report_lines(rows) -> list:
    """CSV report: metric,value,N,gt_radius,db_size (header included)."""
    out = ["metric,value,N,gt_radius,db_size"]
    for metric, value, n, gt_radius, db_size in rows:
        out.append(f"{metric},{value:.4f},{n},{gt_radius:g},{db_size}")
    return out
