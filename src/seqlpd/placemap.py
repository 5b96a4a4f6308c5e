"""Place descriptor map: an ordered (frame id, pose, descriptor) store.

Entries are appended in frame order and that order is the source of truth
for sequence matching; poses ride along for ground-truth evaluation only.
The on-disk form is the LPDM container described in ``save``.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .cloud import Pose
from .errors import (DimensionError, FormatError, InvalidParams, IoError, NormError,
                     OrderError)

_LPDM_MAGIC = b"LPDM"
_LPDM_VERSION = 1
_NORM_TOL = 1e-4


@dataclass(frozen=True)
class PlaceEntry:
    """One stored place: frame id, pose, and unit-norm global descriptor."""

    frame_id: int
    pose: Pose
    descriptor: np.ndarray


class PlaceMap:
    """Append-only list of PlaceEntry with strictly increasing frame ids."""

    def __init__(self):
        self.entries = []

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> PlaceEntry:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    @property
    def dim(self) -> int:
        """Descriptor dimension, fixed by the first insert (0 while empty)."""
        return self.entries[0].descriptor.shape[0] if self.entries else 0

    def insert(self, entry: PlaceEntry) -> "PlaceMap":
        """Append an entry; frame ids must strictly increase, the pose must be
        finite and the descriptor finite and unit-norm."""
        if entry.frame_id < 0:
            raise OrderError(f"negative frame id {entry.frame_id}")
        if self.entries and entry.frame_id <= self.entries[-1].frame_id:
            raise OrderError(f"frame id {entry.frame_id} not greater than "
                             f"{self.entries[-1].frame_id}")
        p = entry.pose
        if not (math.isfinite(p.x) and math.isfinite(p.y) and math.isfinite(p.z)):
            raise InvalidParams(f"frame {entry.frame_id}: pose has a non-finite coordinate")
        d = np.ascontiguousarray(entry.descriptor, dtype=np.float32).ravel()
        if self.entries and d.shape[0] != self.dim:
            raise DimensionError(f"descriptor dim {d.shape[0]}, map dim {self.dim}")
        if not np.isfinite(d).all():
            raise NormError("descriptor has a non-finite value")
        norm = float(np.linalg.norm(d.astype(np.float64)))
        if abs(norm - 1.0) > _NORM_TOL:
            raise NormError(f"descriptor norm {norm:.6f} not within {_NORM_TOL} of 1")
        self.entries.append(PlaceEntry(int(entry.frame_id), entry.pose, d))
        return self

    def descriptor_matrix(self) -> np.ndarray:
        """All descriptors stacked as an (n, dim) float32 matrix."""
        if not self.entries:
            return np.zeros((0, 0), dtype=np.float32)
        return np.stack([e.descriptor for e in self.entries]).astype(np.float32)

    def pose_matrix(self) -> np.ndarray:
        """All poses stacked as an (n, 3) float64 matrix."""
        return np.array([[e.pose.x, e.pose.y, e.pose.z] for e in self.entries],
                        dtype=np.float64).reshape(-1, 3)

    def frame_ids(self) -> np.ndarray:
        return np.array([e.frame_id for e in self.entries], dtype=np.int64)


def l2(d1: np.ndarray, d2: np.ndarray) -> float:
    """Euclidean distance between two descriptors of equal dimension."""
    a = np.asarray(d1, dtype=np.float64).ravel()
    b = np.asarray(d2, dtype=np.float64).ravel()
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.sqrt(((a - b) ** 2).sum()))


def save(pmap: PlaceMap, path) -> None:
    """Write the LPDM container.

    Layout (little-endian): magic "LPDM", u32 version=1, u32 descriptor dim,
    u64 entry count; per entry u64 frame_id, 3 x f64 pose, dim x f32 descriptor.
    """
    try:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sIIQ", _LPDM_MAGIC, _LPDM_VERSION,
                                 pmap.dim, len(pmap)))
            for e in pmap:
                fh.write(struct.pack("<Qddd", e.frame_id, e.pose.x, e.pose.y, e.pose.z))
                fh.write(np.ascontiguousarray(e.descriptor, dtype="<f4").tobytes())
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


def load(path) -> PlaceMap:
    """Read an LPDM file written by ``save``; any malformed byte raises FormatError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc

    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise FormatError(f"{path}: truncated at byte {off}")
        out = blob[off:off + n]
        off += n
        return out

    magic, version, dim, count = struct.unpack("<4sIIQ", take(20))
    if magic != _LPDM_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != _LPDM_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    pmap = PlaceMap()
    last_id = -1
    for _ in range(count):
        frame_id, x, y, z = struct.unpack("<Qddd", take(32))
        desc = np.frombuffer(take(4 * dim), dtype="<f4").copy()
        if frame_id <= last_id:
            raise FormatError(f"{path}: frame ids not strictly increasing at {frame_id}")
        last_id = frame_id
        try:
            pmap.insert(PlaceEntry(int(frame_id), Pose(x, y, z, int(frame_id)), desc))
        except (OrderError, NormError, DimensionError, InvalidParams) as exc:
            raise FormatError(f"{path}: {exc}") from exc
    if off != len(blob):
        raise FormatError(f"{path}: {len(blob) - off} trailing bytes")
    return pmap
