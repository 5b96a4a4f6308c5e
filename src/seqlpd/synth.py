"""Synthetic desk-scale corpora with known ground truth.

Three scenarios:

- ``loop``: one lap of distinct places written to ``map/`` and an exact
  revisit of the same lap written to ``query/`` with per-point Gaussian
  jitter of the given sigma; ``gt.csv`` pairs each query frame with its
  map frame.  With sigma 0 the query frames are byte-identical revisits.
- ``blobs``: three environment types, several frames each, poses spaced
  far apart; ``gt.csv`` holds per-frame type labels.  Backs clustering runs.
- ``line``: a straight pass of unseen places in ``query/`` after the mapped
  stretch — a negative control with an empty ``gt.csv``.

Each place is a procedurally built cloud (ground plane plus a handful of
box-like structures of random footprint and height) so different places
produce well-separated descriptors while revisits stay close.  Everything
derives from the seed; equal seeds give byte-identical corpora.
"""

import math
import os

import numpy as np

from . import fileio
from .cloud import MAX_POINTS
from .errors import InvalidParams, OutOfMemory

SCENARIOS = ("loop", "blobs", "line")
_SPACING = 2.0
_FAR_SPACING = 25.0
_BLOB_TYPES = 3


def _place_cloud(rng, n_points: int) -> np.ndarray:
    """Ground plane plus box structures; coordinates in meters, z up."""
    n_ground = n_points // 3
    n_rest = n_points - n_ground
    k = 6
    cx = rng.uniform(-8.0, 8.0, size=k)
    cy = rng.uniform(-8.0, 8.0, size=k)
    half = rng.uniform(0.5, 2.0, size=k)
    height = rng.uniform(1.0, 8.0, size=k)
    counts = np.full(k, n_rest // k)
    counts[: n_rest - counts.sum()] += 1
    parts = []
    gx = rng.uniform(-10.0, 10.0, size=n_ground)
    gy = rng.uniform(-10.0, 10.0, size=n_ground)
    gz = rng.normal(0.0, 0.05, size=n_ground)
    parts.append(np.stack([gx, gy, gz], axis=1))
    for j in range(k):
        m = int(counts[j])
        x = cx[j] + rng.uniform(-half[j], half[j], size=m)
        y = cy[j] + rng.uniform(-half[j], half[j], size=m)
        z = rng.uniform(0.0, height[j], size=m)
        parts.append(np.stack([x, y, z], axis=1))
    return np.concatenate(parts, axis=0)


def write_bin(path, pts: np.ndarray) -> None:
    """KITTI-style .bin: float32 (x, y, z, intensity) records, intensity 0."""
    out = np.zeros((pts.shape[0], 4), dtype="<f4")
    out[:, :3] = pts.astype("<f4")
    with fileio.writing(path) as fh:
        fh.write(out.tobytes())


def write_poses(path, rows) -> None:
    with fileio.writing(path, "w") as fh:
        fh.write("frame_id,x,y,z\n")
        for fid, x, y, z in rows:
            fh.write(f"{fid},{x:.6f},{y:.6f},{z:.6f}\n")


def _write_frames(out_dir, clouds, poses) -> None:
    fileio.make_dirs(out_dir)
    rows = []
    for i, (cloud, pose) in enumerate(zip(clouds, poses)):
        write_bin(os.path.join(out_dir, f"{i:06d}.bin"), cloud)
        rows.append((i, pose[0], pose[1], pose[2]))
    write_poses(os.path.join(out_dir, "poses.csv"), rows)


def _circle_poses(n: int, spacing: float) -> np.ndarray:
    radius = n * spacing / (2.0 * np.pi)
    angles = 2.0 * np.pi * np.arange(n) / n
    return np.stack([radius * np.cos(angles), radius * np.sin(angles),
                     np.zeros(n)], axis=1)


def _line_poses(n: int, spacing: float, start: float = 0.0) -> np.ndarray:
    x = start + spacing * np.arange(n)
    return np.stack([x, np.zeros(n), np.zeros(n)], axis=1)


def _jitter(rng, cloud: np.ndarray, sigma: float) -> np.ndarray:
    if sigma == 0.0:
        return cloud
    return cloud + rng.normal(0.0, sigma, size=cloud.shape)


def generate(out_dir, scenario: str, sigma: float = 0.0, seed: int = 0,
             places: int = 60, points: int = 1024) -> dict:
    """Write one corpus under ``out_dir``; returns frame/pair counts.

    A corpus of more float64 points (``places * points``) than numpy can
    address raises OutOfMemory before anything is drawn or written.
    """
    if scenario not in SCENARIOS:
        raise InvalidParams(f"unknown scenario '{scenario}'")
    if not 0.0 <= sigma < math.inf:
        raise InvalidParams("sigma must be finite and >= 0")
    if seed < 0:
        raise InvalidParams("seed must be >= 0")
    if places < _BLOB_TYPES:
        raise InvalidParams(f"need at least {_BLOB_TYPES} places")
    if points < 16:
        raise InvalidParams("need at least 16 points per frame")
    if places * points > MAX_POINTS:
        raise OutOfMemory(f"cannot allocate {places} places of {points} points")
    fileio.make_dirs(out_dir)

    if scenario == "loop":
        bases = [_place_cloud(np.random.default_rng([seed, 0, i]), points)
                 for i in range(places)]
        poses = _circle_poses(places, _SPACING)
        _write_frames(os.path.join(out_dir, "map"), bases, poses)
        noisy = [_jitter(np.random.default_rng([seed, 1, i]), bases[i], sigma)
                 for i in range(places)]
        _write_frames(os.path.join(out_dir, "query"), noisy, poses)
        pairs = [(i, i) for i in range(places)]
        with fileio.writing(os.path.join(out_dir, "gt.csv"), "w") as fh:
            fh.write("query_frame,map_frame\n")
            for q, m in pairs:
                fh.write(f"{q},{m}\n")
        return {"scenario": scenario, "map_frames": places,
                "query_frames": places, "gt_rows": len(pairs)}

    if scenario == "blobs":
        per_type = places // _BLOB_TYPES
        total = per_type * _BLOB_TYPES
        type_bases = [_place_cloud(np.random.default_rng([seed, 2, t]), points)
                      for t in range(_BLOB_TYPES)]
        clouds = []
        labels = []
        for i in range(total):
            t = i // per_type
            rng = np.random.default_rng([seed, 3, i])
            clouds.append(_jitter(rng, type_bases[t], sigma))
            labels.append(t)
        _write_frames(os.path.join(out_dir, "map"), clouds,
                      _line_poses(total, _FAR_SPACING))
        with fileio.writing(os.path.join(out_dir, "gt.csv"), "w") as fh:
            fh.write("frame_id,label\n")
            for i, t in enumerate(labels):
                fh.write(f"{i},{t}\n")
        return {"scenario": scenario, "map_frames": total,
                "query_frames": 0, "gt_rows": total}

    # line: unseen continuation, no revisits
    bases = [_place_cloud(np.random.default_rng([seed, 4, i]), points)
             for i in range(2 * places)]
    _write_frames(os.path.join(out_dir, "map"), bases[:places],
                  _line_poses(places, _SPACING))
    query = [_jitter(np.random.default_rng([seed, 5, i]), bases[places + i], sigma)
             for i in range(places)]
    _write_frames(os.path.join(out_dir, "query"), query,
                  _line_poses(places, _SPACING, start=places * _SPACING))
    with fileio.writing(os.path.join(out_dir, "gt.csv"), "w") as fh:
        fh.write("query_frame,map_frame\n")
    return {"scenario": scenario, "map_frames": places,
            "query_frames": places, "gt_rows": 0}


def read_gt(path) -> list:
    """Rows of gt.csv as int tuples (header skipped)."""
    return [tuple(int(v) for v in line.split(","))
            for line in fileio.read_lines(path)[1:] if line.strip()]
