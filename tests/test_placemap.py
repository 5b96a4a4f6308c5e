import struct
import tracemalloc

import numpy as np
import pytest

from seqlpd import fileio, placemap
from seqlpd.cloud import Pose
from seqlpd.errors import (DimensionError, FormatError, InvalidParams, IoError, NormError,
                           OrderError)

from oracles import random_unit


def _entry(fid, desc, pose=None):
    return placemap.PlaceEntry(fid, pose or Pose(float(fid), 0.0, 0.0, fid), desc)


def _unit(dim=256, seed=0):
    rng = np.random.default_rng(seed)
    return random_unit(rng, 1, dim)[0]


def test_insert_in_order():
    pm = placemap.PlaceMap()
    for fid in (0, 1, 2):
        pm.insert(_entry(fid, _unit(seed=fid)))
    assert len(pm) == 3
    np.testing.assert_array_equal(pm.frame_ids(), [0, 1, 2])
    assert pm.dim == 256


def test_insert_rejects_non_increasing_ids():
    pm = placemap.PlaceMap()
    pm.insert(_entry(1, _unit()))
    with pytest.raises(OrderError):
        pm.insert(_entry(1, _unit()))
    with pytest.raises(OrderError):
        pm.insert(_entry(0, _unit()))


def test_insert_rejects_bad_norm():
    pm = placemap.PlaceMap()
    with pytest.raises(NormError):
        pm.insert(_entry(0, 0.5 * _unit()))


def test_insert_and_load_reject_non_finite_descriptor(tmp_path):
    for bad_value in (np.nan, np.inf):
        desc = _unit()
        desc[3] = bad_value
        with pytest.raises(NormError, match="non-finite"):
            placemap.PlaceMap().insert(_entry(0, desc))
    pm = placemap.PlaceMap()
    pm.insert(_entry(0, _unit()))
    path = tmp_path / "map.lpdm"
    placemap.save(pm, path)
    blob = bytearray(path.read_bytes())
    # first descriptor value follows the 20-byte header and 32-byte entry head
    blob[52:56] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="non-finite"):
        placemap.load(path)


def test_insert_rejects_non_finite_pose():
    for bad_value in (np.nan, np.inf, -np.inf):
        for pose in (Pose(bad_value, 0.0, 0.0, 0), Pose(0.0, 0.0, bad_value, 0)):
            pm = placemap.PlaceMap()
            with pytest.raises(InvalidParams, match="non-finite"):
                pm.insert(_entry(0, _unit(), pose))
            assert len(pm) == 0


def test_load_rejects_non_finite_pose(tmp_path):
    pm = placemap.PlaceMap()
    pm.insert(_entry(0, _unit()))
    path = tmp_path / "map.lpdm"
    placemap.save(pm, path)
    blob = bytearray(path.read_bytes())
    # the first pose's y follows the 20-byte header, the u64 frame id and x
    blob[36:44] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="non-finite"):
        placemap.load(path)


def test_insert_rejects_dim_change():
    pm = placemap.PlaceMap()
    pm.insert(_entry(0, _unit(dim=16)))
    with pytest.raises(DimensionError):
        pm.insert(_entry(1, _unit(dim=32)))


def test_descriptor_matrix_is_a_read_only_view_that_outlives_growth():
    descs = random_unit(np.random.default_rng(3), 40, 8)
    pm = placemap.PlaceMap()
    assert pm.descriptor_matrix().shape == (0, 0)
    views = []
    for i, d in enumerate(descs):  # 40 inserts cross several capacity doublings
        pm.insert(_entry(i, d))
        views.append((pm.descriptor_matrix(), pm.pose_matrix(), pm.frame_ids()))
    for n, (dm, poses, ids) in enumerate(views, start=1):
        np.testing.assert_array_equal(dm, descs[:n])
        np.testing.assert_array_equal(poses[:, 0], np.arange(n))
        np.testing.assert_array_equal(ids, np.arange(n))
        for a in (dm, poses, ids):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
    assert pm.descriptor_matrix().dtype == np.float32
    assert np.shares_memory(pm.descriptor_matrix(), pm.descriptor_matrix())


def test_entries_read_back_what_was_inserted():
    rng = np.random.default_rng(4)
    descs = random_unit(rng, 5, 16)
    poses = rng.normal(size=(5, 3))
    pm = placemap.PlaceMap()
    for i in range(5):
        pm.insert(_entry(3 * i + 1, descs[i], Pose(*poses[i], 3 * i + 1)))
    entries = list(pm)
    assert [e.frame_id for e in entries] == [1, 4, 7, 10, 13]
    for e, d, p in zip(entries, descs, poses):
        assert e.pose == Pose(*p, e.frame_id)
        np.testing.assert_array_equal(e.descriptor, d)
        assert not e.descriptor.flags.writeable
    assert pm[-1].frame_id == 13 and pm[-5].frame_id == 1
    assert pm[2].pose == entries[2].pose
    for i in (5, -6):
        with pytest.raises(IndexError):
            pm[i]


@pytest.mark.parametrize("bad", [
    {1: {"id": 1 << 63}}, {1: {"id": 0}}, {2: {"id": 2}}, {1: {"scale": 0.5}},
    {1: {"scale": 0.5}, 2: {"id": 0}}, {0: {"id": 2}, 1: {"id": 2}},
])
def test_load_reports_the_first_bad_row_as_insert_does(tmp_path, bad):
    rows = [[2 * i, Pose(float(i), 0.0, 0.0, 2 * i), d]
            for i, d in enumerate(random_unit(np.random.default_rng(5), 3, 8))]
    for i, change in bad.items():
        rows[i][0] = change.get("id", rows[i][0])
        rows[i][2] = rows[i][2] * change.get("scale", 1.0)
    pm = placemap.PlaceMap()
    with pytest.raises((OrderError, NormError)) as want:
        for fid, pose, d in rows:
            pm.insert(placemap.PlaceEntry(fid, pose, d))
    # an LPDM file with the same rows, written past save's checks
    dtype = placemap._entry_dtype(8)
    blob = np.array([(fid, (p.x, p.y, p.z), d) for fid, p, d in rows], dtype=dtype)
    path = tmp_path / "bad.lpdm"
    path.write_bytes(b"LPDM" + (1).to_bytes(4, "little") + (8).to_bytes(4, "little")
                     + (3).to_bytes(8, "little") + blob.tobytes())
    with pytest.raises(FormatError) as got:
        placemap.load(path)
    assert str(got.value) == f"{path}: {want.value}"


def test_lpdm_round_trip_exact(tmp_path):
    rng = np.random.default_rng(2)
    pm = placemap.PlaceMap()
    descs = random_unit(rng, 40, 256)
    for i in range(40):
        pose = Pose(*rng.normal(size=3), i * 2)
        pm.insert(placemap.PlaceEntry(i * 2, pose, descs[i]))
    path = tmp_path / "map.lpdm"
    placemap.save(pm, path)
    back = placemap.load(path)
    assert len(back) == len(pm)
    for a, b in zip(pm, back):
        assert a.frame_id == b.frame_id
        assert (a.pose.x, a.pose.y, a.pose.z) == (b.pose.x, b.pose.y, b.pose.z)
        np.testing.assert_array_equal(a.descriptor, b.descriptor)
    path2 = tmp_path / "map2.lpdm"
    placemap.save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_lpdm_empty_map_round_trip(tmp_path):
    pm = placemap.PlaceMap()
    path = tmp_path / "empty.lpdm"
    placemap.save(pm, path)
    assert len(placemap.load(path)) == 0


def test_lpdm_corrupt_fixtures(tmp_path):
    pm = placemap.PlaceMap()
    pm.insert(_entry(0, _unit()))
    path = tmp_path / "map.lpdm"
    placemap.save(pm, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.lpdm"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        placemap.load(bad)
    bad.write_bytes(blob[:4] + (2).to_bytes(4, "little") + blob[8:])
    with pytest.raises(FormatError, match="unsupported version"):
        placemap.load(bad)
    bad.write_bytes(blob[:-3])
    with pytest.raises(FormatError, match="truncated"):
        placemap.load(bad)
    bad.write_bytes(blob + b"\x99")
    with pytest.raises(FormatError, match="trailing"):
        placemap.load(bad)


def test_lpdm_out_of_range_header_and_ids_are_format_errors(tmp_path):
    pm = placemap.PlaceMap()
    pm.insert(_entry(0, _unit()))
    path = tmp_path / "map.lpdm"
    placemap.save(pm, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.lpdm"
    # a frame id that the int64 id array cannot hold
    bad.write_bytes(blob[:20] + (1 << 63).to_bytes(8, "little") + blob[28:])
    with pytest.raises(FormatError, match="frame id"):
        placemap.load(bad)
    # an empty map whose dim would not survive a re-save; a dim numpy cannot size
    for dim, count in ((7, 0), (0xFFFFFFFF, 0), (0xFFFFFFFF, 1)):
        bad.write_bytes(b"LPDM" + (1).to_bytes(4, "little") + dim.to_bytes(4, "little")
                        + count.to_bytes(8, "little"))
        with pytest.raises(FormatError, match="does not fit"):
            placemap.load(bad)


def test_lpdm_missing_file(tmp_path):
    with pytest.raises(IoError):
        placemap.load(tmp_path / "absent.lpdm")


def test_reader_checks_the_records_one_chunk_at_a_time(tmp_path, monkeypatch):
    # the finite check of an 8.45 MB map holds the bools of one 256 KB chunk,
    # not one per value of the file
    monkeypatch.setattr(fileio, "_CHUNK_BYTES", 1 << 18)
    n, dim = 8000, 256
    rows = np.zeros(n, dtype=placemap._entry_dtype(dim))
    rows["desc"] = random_unit(np.random.default_rng(6), n, dim)
    path = tmp_path / "big.lpdm"
    path.write_bytes(struct.pack("<4sIIQ", b"LPDM", 1, dim, n) + rows.tobytes())
    with fileio.Reader(path, b"LPDM", 1) as r:
        r.unpack("<IQ")
        tracemalloc.start()
        try:
            got = r.array(rows.dtype, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak - got.nbytes < 500_000
    assert got.tobytes() == rows.tobytes()


def test_load_keeps_the_records_it_read(tmp_path):
    # 8,000 x 256 rows: an 8.45 MB file, held once by the loaded map
    n, dim = 8000, 256
    rows = np.zeros(n, dtype=placemap._entry_dtype(dim))
    rows["id"] = 3 * np.arange(n)
    rows["desc"] = random_unit(np.random.default_rng(6), n, dim)
    path = tmp_path / "big.lpdm"
    path.write_bytes(struct.pack("<4sIIQ", b"LPDM", 1, dim, n) + rows.tobytes())
    tracemalloc.start()
    try:
        pm = placemap.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - path.stat().st_size < 3_000_000
    dm, ids = pm.descriptor_matrix(), pm.frame_ids()
    assert dm.dtype == np.float32 and not dm.flags.writeable
    assert np.shares_memory(dm, pm._rows)
    assert ids.dtype == np.int64
    np.testing.assert_array_equal(ids, rows["id"])
    np.testing.assert_array_equal(dm, rows["desc"])
    placemap.save(pm, tmp_path / "again.lpdm")
    assert (tmp_path / "again.lpdm").read_bytes() == path.read_bytes()
    # an id the int64 view cannot hold is reported by its u64 value
    rows["id"][-1] = (1 << 64) - 1
    path.write_bytes(struct.pack("<4sIIQ", b"LPDM", 1, dim, n) + rows.tobytes())
    with pytest.raises(FormatError) as err:
        placemap.load(path)
    assert str(err.value) == f"{path}: frame id {(1 << 64) - 1} outside [0, 2^63)"
