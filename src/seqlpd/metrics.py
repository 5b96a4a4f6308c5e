"""Retrieval metrics: Average Recall@N, Recall@1%, and the 5-frame sequence protocol.

A query succeeds at N when any of its N nearest database descriptors (L2,
ties to the lower index) lies within ``gt_radius`` of the query pose.
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


def _top_n(query_descs: np.ndarray, db_descs: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n nearest database rows per query, ties to lower index.

    ``db_descs`` (the map's float32 view) is widened to float64 one row block
    at a time, so no float64 copy of the whole map is made; each distance is
    the one :func:`kernels.pairwise_l2` gives against the whole widened map.
    """
    dist = np.empty((query_descs.shape[0], db_descs.shape[0]))
    step = kernels.row_block(db_descs.shape[1])
    for s in range(0, db_descs.shape[0], step):
        dist[:, s:s + step] = kernels.pairwise_l2(query_descs,
                                                  db_descs[s:s + step].astype(np.float64))
    return kernels._topk_rows(dist, n)


def recall_at_n(query_descs, query_poses, db: PlaceMap, gt_radius: float,
                n: int) -> RecallResult:
    """Fraction of evaluated queries whose top-N retrieval hits a true positive."""
    if len(db) == 0:
        raise EmptyDatabase("empty place map")
    if n < 1:
        raise InvalidParams("N must be >= 1")
    q = np.atleast_2d(np.asarray(query_descs, dtype=np.float64))
    db.check_dim(q)
    positives = ground_truth(query_poses, db.pose_matrix(), gt_radius)
    top = _top_n(q, db.descriptor_matrix(), min(n, len(db)))
    hits = 0
    evaluated = 0
    for qi, pos in enumerate(positives):
        if pos.shape[0] == 0:
            continue
        evaluated += 1
        if np.isin(top[qi], pos).any():
            hits += 1
    pct = 100.0 * hits / evaluated if evaluated else 0.0
    return RecallResult(percentage=pct, evaluated=evaluated,
                        skipped=len(positives) - evaluated, N=n)


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
    db_desc = db.descriptor_matrix()
    db_poses = db.pose_matrix()
    correct = 0
    for descs, poses in runs:
        d = np.atleast_2d(np.asarray(descs, dtype=np.float64))
        p = np.asarray(poses, dtype=np.float64).reshape(-1, 3)
        if d.shape[0] != RUN_LEN or p.shape[0] != RUN_LEN:
            raise RunLengthError(f"runs must have exactly {RUN_LEN} frames")
        db.check_dim(d)
        positives = ground_truth(p, db_poses, gt_radius)
        top1 = _top_n(d, db_desc, 1)[:, 0]
        wins = sum(1 for f in range(RUN_LEN)
                   if positives[f].shape[0] > 0 and top1[f] in positives[f])
        if wins >= min_successes:
            correct += 1
    return 100.0 * correct / len(runs)


def report_lines(rows) -> list:
    """CSV report: metric,value,N,gt_radius,db_size (header included)."""
    out = ["metric,value,N,gt_radius,db_size"]
    for metric, value, n, gt_radius, db_size in rows:
        out.append(f"{metric},{value:.4f},{n},{gt_radius:g},{db_size}")
    return out
