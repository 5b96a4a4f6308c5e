"""Place descriptor map: an ordered (frame id, pose, descriptor) store.

Entries are appended in frame order and that order is the source of truth
for sequence matching; poses ride along for ground-truth evaluation only.
The on-disk form is the LPDM container described in ``save``.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import fileio
from .cloud import Pose
from .errors import DimensionError, FormatError, InvalidParams, NormError, OrderError

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
        if not 0 <= entry.frame_id < 2 ** 63:
            raise OrderError(f"frame id {entry.frame_id} outside [0, 2^63)")
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
        """All descriptors stacked as a new (n, dim) float32 matrix (``insert``
        stores float32, so no conversion is needed)."""
        if not self.entries:
            return np.zeros((0, 0), dtype=np.float32)
        return np.stack([e.descriptor for e in self.entries])

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


def _entry_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("pose", "<f8", (3,)), ("desc", "<f4", (dim,))])


def save(pmap: PlaceMap, path) -> None:
    """Write the LPDM container.

    Layout (little-endian): magic "LPDM", u32 version=1, u32 descriptor dim,
    u64 entry count; per entry u64 frame_id, 3 x f64 pose, dim x f32 descriptor.
    """
    rows = np.empty(len(pmap), dtype=_entry_dtype(pmap.dim))
    rows["id"] = pmap.frame_ids()
    rows["pose"] = pmap.pose_matrix()
    if len(pmap):  # stacked straight into the rows, with no matrix in between
        np.stack([e.descriptor for e in pmap], out=rows["desc"])
    with fileio.writing(path) as fh:
        fh.write(struct.pack("<4sIIQ", _LPDM_MAGIC, _LPDM_VERSION, pmap.dim, len(pmap)))
        fh.write(rows)


def load(path) -> PlaceMap:
    """Read an LPDM file written by ``save``; any malformed byte raises FormatError.
    Entries go through ``PlaceMap.insert``, so a loaded map obeys its rules."""
    r = fileio.Reader(path, _LPDM_MAGIC, _LPDM_VERSION)
    dim, count = r.unpack("<IQ")
    # an empty map is saved with dim 0; a dim wider than the file is truncation
    if (dim > 0) != (count > 0) or 4 * dim > r.remaining():
        raise FormatError(f"{path}: dim {dim} does not fit {count} entries")
    rows = r.array(_entry_dtype(dim), count)
    r.end()
    pmap = PlaceMap()
    for fid, pose, desc in zip(rows["id"].tolist(), rows["pose"].tolist(), rows["desc"]):
        try:
            pmap.insert(PlaceEntry(fid, Pose(*pose, fid), desc))
        except (OrderError, NormError, DimensionError, InvalidParams) as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return pmap
