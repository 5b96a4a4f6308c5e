"""Place descriptor map: an ordered (frame id, pose, descriptor) store.

Entries are appended in frame order and that order is the source of truth
for sequence matching; poses ride along for ground-truth evaluation only.

The map is one array of LPDM entry records (``_entry_dtype``), grown by
doubling: the layout ``save`` writes and ``load`` reads, so neither copies
the map.  ``frame_ids``, ``pose_matrix`` and ``descriptor_matrix`` return
read-only views of the first n records' fields, so reading the map copies
nothing.  Records are never rewritten, so a view taken earlier keeps its
shape and values while the map grows.  ``insert`` (one row) and ``load``
(all rows at once) check rows through one vectorized check, ``_check_rows``,
so a loaded map obeys the insert rules and reports a bad row with the text
``insert`` gives.  The on-disk form is the LPDM container described in ``save``.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import fileio, kernels
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _check_rows(ids, poses: np.ndarray, descs: np.ndarray, last_id, dim) -> None:
    """Raise the error of the first of ``ids``/``poses``/``descs`` rows that may
    not follow frame ``last_id`` in a map of descriptor width ``dim`` (both
    None for an empty map).

    The rows are checked in one vectorized pass.  Each row is checked, in this
    order, for an id in [0, 2^63), an id above the one before, a finite pose,
    the map's width, finite values and a unit norm.
    """
    bad_range = ~(ids >= 0) | (ids >= 2 ** 63)  # a NaN id fails too
    bad_order = np.zeros(len(ids), dtype=bool)
    bad_order[1:] = ids[1:] <= ids[:-1]
    if last_id is not None and len(ids):
        bad_order[0] = ids[0] <= last_id
    bad_pose = ~np.isfinite(poses).min(axis=1)
    bad_dim = dim is not None and descs.shape[1] != dim  # the same for every row
    # a row-by-row vector product is the dot that np.linalg.norm takes of the
    # row's float64 copy, so the norms match it bit for bit; the copies are
    # made a block at a time
    norm = np.empty(len(descs))
    step = kernels.row_block(descs.shape[1])
    for s in range(0, len(descs), step):
        block = descs[s:s + step].astype(np.float64)
        norm[s:s + step] = np.sqrt(block[:, None, :] @ block[:, :, None]).ravel()
    bad_norm = ~(np.abs(norm - 1.0) <= _NORM_TOL)  # a NaN or inf norm fails too
    bad = bad_range | bad_order | bad_pose | bad_dim | bad_norm
    if not bad.any():
        return
    i = int(np.argmax(bad))
    fid = ids[i]
    if bad_range[i]:
        raise OrderError(f"frame id {fid} outside [0, 2^63)")
    if bad_order[i]:
        prev = ids[i - 1] if i else last_id
        raise OrderError(f"frame id {fid} not greater than {prev}")
    if bad_pose[i]:
        raise InvalidParams(f"frame {fid}: pose has a non-finite coordinate")
    if bad_dim:
        raise DimensionError(f"descriptor dim {descs.shape[1]}, map dim {dim}")
    # float32 squares summed in float64 cannot overflow, so a non-finite norm
    # means a non-finite value
    if not np.isfinite(norm[i]):
        raise NormError("descriptor has a non-finite value")
    raise NormError(f"descriptor norm {norm[i]:.6f} not within {_NORM_TOL} of 1")


def _entry_dtype(dim: int, ids: str = "<u8") -> np.dtype:
    """One LPDM entry record; the map holds its ids as ``<i8`` (the same bytes
    for every id a map may hold)."""
    return np.dtype([("id", ids), ("pose", "<f8", (3,)), ("desc", "<f4", (dim,))])


class PlaceMap:
    """Append-only map of places with strictly increasing frame ids, stored
    as one record array (see the module docstring)."""

    def __init__(self):
        self._n_rows = 0
        self._rows = np.empty(0, dtype=_entry_dtype(0, "<i8"))

    def __len__(self) -> int:
        return self._n_rows

    def __getitem__(self, i: int) -> PlaceEntry:
        """Entry i (negative counts from the end), built from its record; its
        descriptor is a read-only view of the stored row."""
        i = range(self._n_rows)[i]
        fid = int(self._rows["id"][i])
        return PlaceEntry(fid, Pose(*self._rows["pose"][i].tolist(), fid),
                          _read_only(self._rows["desc"][i]))

    def __iter__(self):
        return (self[i] for i in range(self._n_rows))

    @property
    def dim(self) -> int:
        """Descriptor dimension, fixed by the first insert (0 while empty)."""
        return self._rows.dtype["desc"].shape[0]

    def check_dim(self, descs: np.ndarray) -> None:
        """Raise DimensionError unless the rows of ``descs`` are as wide as the map's."""
        if descs.shape[1] != self.dim:
            raise DimensionError(f"query descriptor dim {descs.shape[1]}, map dim {self.dim}")

    def _append(self, ids, poses: np.ndarray, descs: np.ndarray) -> None:
        """Check rows with ``_check_rows``, then append them."""
        n, m = self._n_rows, len(ids)
        _check_rows(ids, poses, descs, int(self._rows["id"][n - 1]) if n else None,
                    self.dim if n else None)
        if n + m > self._rows.shape[0]:
            # an empty map takes its width from the first rows
            grown = np.empty(max(n + m, 2 * self._rows.shape[0]),
                             dtype=_entry_dtype(descs.shape[1], "<i8"))
            grown[:n] = self._rows[:n]
            self._rows = grown
        new = self._rows[n:n + m]
        new["id"], new["pose"], new["desc"] = ids, poses, descs
        self._n_rows = n + m

    def insert(self, entry: PlaceEntry) -> "PlaceMap":
        """Append an entry; frame ids must strictly increase, the pose must be
        finite and the descriptor finite and unit-norm."""
        p = entry.pose
        self._append(np.array([entry.frame_id]),
                     np.array([[p.x, p.y, p.z]], dtype=np.float64),
                     np.ascontiguousarray(entry.descriptor, dtype=np.float32).reshape(1, -1))
        return self

    def descriptor_matrix(self) -> np.ndarray:
        """All descriptors as a read-only (n, dim) float32 view, not a copy."""
        return _read_only(self._rows["desc"][:self._n_rows])

    def pose_matrix(self) -> np.ndarray:
        """All poses as a read-only (n, 3) float64 view."""
        return _read_only(self._rows["pose"][:self._n_rows])

    def frame_ids(self) -> np.ndarray:
        """All frame ids as a read-only int64 view."""
        return _read_only(self._rows["id"][:self._n_rows])


def save(pmap: PlaceMap, path) -> None:
    """Write the LPDM container: the map's records as they are held.

    Layout (little-endian): magic "LPDM", u32 version=1, u32 descriptor dim,
    u64 entry count; per entry u64 frame_id, 3 x f64 pose, dim x f32 descriptor.
    """
    with fileio.writing(path) as fh:
        fh.write(struct.pack("<4sIIQ", _LPDM_MAGIC, _LPDM_VERSION, pmap.dim, len(pmap)))
        fh.write(pmap._rows[:len(pmap)])


def load(path) -> PlaceMap:
    """Read an LPDM file written by ``save``; any malformed byte raises FormatError.
    All rows are checked at once by the rules of ``PlaceMap.insert``, and the
    map keeps the records as read."""
    with fileio.Reader(path, _LPDM_MAGIC, _LPDM_VERSION) as r:
        dim, count = r.unpack("<IQ")
        # an empty map is saved with dim 0; a dim wider than the file is truncation
        if (dim > 0) != (count > 0) or 4 * dim > r.remaining():
            raise FormatError(f"{path}: dim {dim} does not fit {count} entries")
        rows = r.array(_entry_dtype(dim), count)  # u64 ids, so one >= 2^63 reads as itself
        r.end()
    try:
        _check_rows(rows["id"], rows["pose"], rows["desc"], None, None)
    except (OrderError, NormError, InvalidParams) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    pmap = PlaceMap()
    pmap._rows, pmap._n_rows = rows.view(_entry_dtype(dim, "<i8")), count
    return pmap
