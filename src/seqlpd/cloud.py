"""Point-cloud ingestion, submap building and spatial neighbor search.

Clouds are (n, 3) float64 arrays wrapped with a frame id.  A submap is a
fixed-size resampled cloud, centered and scaled into [-1, 1].  Poses are
translation-only; accumulating a submap expresses every retained frame in
the coordinate frame of the newest one.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fileio, kernels
from .errors import EmptyIndex, EmptyInput, FormatError, InvalidParams, LengthMismatch

DEFAULT_SUBMAP_SIZE = 4096
DEFAULT_TRAJECTORY_LEN = 20.0


@dataclass(frozen=True)
class Pose:
    """Translation-only pose of one frame, in meters."""

    x: float
    y: float
    z: float
    frame_id: int = 0

    @property
    def xyz(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass
class PointCloud:
    points: np.ndarray  # (n, 3) float64
    frame_id: int = 0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class Submap:
    """Normalized fixed-size cloud: exactly n_sub points, coordinates in [-1, 1]."""

    points: np.ndarray          # (n_sub, 3) float64 in [-1, 1]
    scale: float                # divisor applied after centering
    centroid: np.ndarray = field(default_factory=lambda: np.zeros(3))
    frame_id: int = 0

    def __len__(self) -> int:
        return self.points.shape[0]


def load_kitti_bin(path, frame_id: int = 0) -> PointCloud:
    """Read packed little-endian float32 (x, y, z, intensity) records; intensity is dropped."""
    raw = fileio.read_bytes(path)
    if len(raw) % 16 != 0:
        raise FormatError(f"{path}: length {len(raw)} bytes is not a multiple of 16")
    pts = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)[:, :3].astype(np.float64)
    if not np.isfinite(pts).all():
        raise FormatError(f"{path}: non-finite coordinate")
    return PointCloud(pts, frame_id=frame_id)


def load_csv(path, frame_id: int = 0) -> PointCloud:
    """Read "x,y,z" lines; a non-numeric first field on line 1 is treated as a header."""
    rows = []
    for ln, line in enumerate(fileio.read_lines(path), start=1):
        if not line.strip():
            continue
        parts = [p.strip() for p in line.split(",")]
        if ln == 1:
            try:
                float(parts[0])
            except ValueError:
                continue  # header
        if len(parts) != 3:
            raise FormatError(f"{path}: line {ln}: expected 3 fields, got {len(parts)}")
        try:
            xyz = [float(p) for p in parts]
        except ValueError:
            raise FormatError(f"{path}: line {ln}: non-numeric value") from None
        if not all(np.isfinite(v) for v in xyz):
            raise FormatError(f"{path}: line {ln}: non-finite value")
        rows.append(xyz)
    pts = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    return PointCloud(pts, frame_id=frame_id)


def accumulate_submap(frames, poses, trajectory_len: float = DEFAULT_TRAJECTORY_LEN) -> PointCloud:
    """Merge the trailing frames whose poses lie within ``trajectory_len`` of path ending at the last pose.

    Each retained frame is shifted by (its pose - last pose), i.e. expressed
    in the newest frame's coordinates.  Frames and poses pair up one-to-one.
    """
    if len(frames) != len(poses):
        raise LengthMismatch(f"{len(frames)} frames vs {len(poses)} poses")
    if not frames:
        raise EmptyInput("no frames to accumulate")
    if trajectory_len <= 0:
        raise InvalidParams("trajectory_len must be positive")
    n = len(frames)
    keep = [n - 1]
    cum = 0.0
    for i in range(n - 2, -1, -1):
        cum += float(np.linalg.norm(poses[i + 1].xyz - poses[i].xyz))
        if cum > trajectory_len:
            break
        keep.append(i)
    keep.reverse()
    last = poses[-1].xyz
    parts = [frames[i].points + (poses[i].xyz - last) for i in keep]
    return PointCloud(np.concatenate(parts, axis=0), frame_id=frames[-1].frame_id)


def normalize_submap(cloud: PointCloud, n_sub: int = DEFAULT_SUBMAP_SIZE, seed: int = 0) -> Submap:
    """Resample to exactly ``n_sub`` points, subtract the centroid, divide by the max |coordinate|.

    Oversized clouds are subsampled uniformly without replacement; undersized
    ones keep every point and fill the shortfall with replacement.  Both draws
    are seeded.  A zero-spread cloud gets scale 1.
    """
    if len(cloud) == 0:
        raise EmptyInput("cannot normalize an empty cloud")
    if n_sub < 1:
        raise InvalidParams("n_sub must be >= 1")
    pts = cloud.points
    n = pts.shape[0]
    if n != n_sub:
        rng = np.random.default_rng(seed)
        if n > n_sub:
            pts = pts[rng.choice(n, size=n_sub, replace=False)]
        else:
            extra = rng.choice(n, size=n_sub - n, replace=True)
            pts = np.concatenate([pts, pts[extra]], axis=0)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    scale = float(np.abs(centered).max())
    if scale == 0.0:
        scale = 1.0
    return Submap(points=centered / scale, scale=scale, centroid=centroid,
                  frame_id=cloud.frame_id)


class SpatialIndex:
    """Exact kNN over a 3-D point set (KD-tree search, ties to the lower index)."""

    def __init__(self, points: np.ndarray):
        self.points = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
        self._tree = kernels.kdtree_build(self.points)

    def __len__(self) -> int:
        return self.points.shape[0]

    def knn(self, query, k: int) -> np.ndarray:
        """Indices of the min(k, n) nearest points, ascending (distance, index)."""
        if k < 1:
            raise InvalidParams("k must be >= 1")
        if len(self) == 0:
            raise EmptyIndex("index holds no points")
        q = np.asarray(query, dtype=np.float64).reshape(1, 3)
        return kernels.kdtree_knn(self._tree, q, k)[0]

    def knn_all(self, k: int) -> np.ndarray:
        """One kNN query per stored point (the point itself included in candidates)."""
        if k < 1:
            raise InvalidParams("k must be >= 1")
        if len(self) == 0:
            raise EmptyIndex("index holds no points")
        return kernels.kdtree_knn(self._tree, self.points, k)
