import hashlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from seqlpd import cloud, features, fileio, kernels, net
from seqlpd.errors import EmptyInput, FormatError, NormError, ShapeError

from conftest import gil_hold, in_child
from oracles import quadruplet_oracle

SMALL = net.NetConfig(k_graph=4, vlad_clusters=6, point_mlp=(12, 16),
                      edge_mlp=(16, 24), post_mlp=(32,), tnet_mlp=(8, 12, 16),
                      tnet_fc=(12, 8), descriptor_dim=40)


def _submap(rng, n=64):
    return cloud.Submap(points=rng.uniform(-1, 1, size=(n, 3)), scale=1.0)


def _features(rng, n=64):
    f = rng.uniform(0.0, 1.0, size=(n, 4))
    return f.astype(np.float32)


def test_expected_shapes_chain_consistency():
    shapes = net.expected_shapes(SMALL)
    assert shapes["tin.out.w"] == (8, 9)
    assert shapes["tin.out.b"] == (9,)
    assert shapes["tfeat.out.w"] == (8, 16 * 16)
    assert shapes["point.0.w"] == (7, 12)
    assert shapes["edge.0.w"] == (32, 16)
    assert shapes["vlad.assign.w"] == (32, 6)
    assert shapes["vlad.centers"] == (6, 32)
    assert shapes["vlad.proj.w"] == (6 * 32, 40)
    assert shapes["vlad.proj.b"] == (40,)


def test_random_weights_validate_and_identity_bias():
    ws = net.random_weights(SMALL, seed=0)
    ws.validate(SMALL)
    np.testing.assert_array_equal(ws["tin.out.b"].reshape(3, 3), np.eye(3))
    np.testing.assert_array_equal(ws["tfeat.out.b"].reshape(16, 16), np.eye(16))
    w = ws["point.0.w"]
    assert w.dtype == np.float32
    assert np.abs(w).max() <= 0.05


def test_weightset_validation_errors():
    ws = net.random_weights(SMALL, seed=1)
    tensors = dict(ws.items())
    del tensors["edge.1.b"]
    with pytest.raises(ShapeError, match="edge.1.b"):
        net.WeightSet(tensors).validate(SMALL)
    tensors = dict(ws.items())
    tensors["point.0.w"] = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ShapeError, match="point.0.w"):
        net.WeightSet(tensors).validate(SMALL)
    tensors = dict(ws.items())
    tensors["extra.w"] = np.zeros(2, dtype=np.float32)
    with pytest.raises(ShapeError, match="extra.w"):
        net.WeightSet(tensors).validate(SMALL)


def test_lpdw_round_trip(tmp_path):
    ws = net.random_weights(SMALL, seed=2)
    path = tmp_path / "w.lpdw"
    net.save_weights(ws, path)
    back = net.load_weights(path, SMALL)
    assert back.names() == ws.names()
    for name, tensor in ws.items():
        np.testing.assert_array_equal(back[name], tensor)
    # byte-exact on re-save
    path2 = tmp_path / "w2.lpdw"
    net.save_weights(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_lpdw_corrupt_fixtures(tmp_path):
    ws = net.random_weights(SMALL, seed=3)
    path = tmp_path / "w.lpdw"
    net.save_weights(ws, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.lpdw"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError, match="magic"):
        net.load_weights(bad)
    bad.write_bytes(blob[:4] + (2).to_bytes(4, "little") + blob[8:])
    with pytest.raises(FormatError, match="version"):
        net.load_weights(bad)
    bad.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="truncated"):
        net.load_weights(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        net.load_weights(bad)


def test_lpdw_non_finite_weight_is_format_error(tmp_path):
    ws = net.random_weights(SMALL, seed=3)
    path = tmp_path / "w.lpdw"
    net.save_weights(ws, path)
    blob = path.read_bytes()
    bad = tmp_path / "bad.lpdw"
    for value in (np.nan, np.inf):
        # the last payload value of the last tensor
        bad.write_bytes(blob[:-4] + np.array([value], dtype="<f4").tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            net.load_weights(bad)


def test_input_transform_starts_near_identity():
    # with zero weights everywhere, the identity bias makes Texactly I
    shapes = net.expected_shapes(SMALL)
    tensors = {n: np.zeros(s, dtype=np.float32) for n, s in shapes.items()}
    tensors["tin.out.b"] = np.eye(3, dtype=np.float32).ravel()
    tensors["tfeat.out.b"] = np.eye(16, dtype=np.float32).ravel()
    ws = net.WeightSet(tensors)
    rng = np.random.default_rng(4)
    t = net.input_transform(rng.normal(size=(10, 3)), ws, SMALL)
    np.testing.assert_array_equal(t, np.eye(3, dtype=np.float32))
    tf = net.feature_transform(rng.normal(size=(10, 16)).astype(np.float32), ws, SMALL)
    np.testing.assert_array_equal(tf, np.eye(16, dtype=np.float32))


def test_transform_rejects_empty():
    ws = net.random_weights(SMALL, seed=5)
    with pytest.raises(EmptyInput):
        net.input_transform(np.zeros((0, 3)), ws, SMALL)


def test_graph_aggregate_shapes_and_single_point():
    ws = net.random_weights(SMALL, seed=6)
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(30, 16)).astype(np.float32)
    out = net.graph_aggregate(feats, SMALL.k_graph, ws, SMALL)
    assert out.shape == (30, 24)
    single = net.graph_aggregate(feats[:1], SMALL.k_graph, ws, SMALL)
    assert single.shape == (1, 24)


def _whole_graph_aggregate(feats, k_graph, ws, config):
    """graph_aggregate with every edge in one (n, k, 2F) tensor and one MLP pass."""
    x = np.asarray(feats, dtype=np.float32)
    n = x.shape[0]
    kk = min(k_graph, n - 1)
    if kk == 0:
        edges = np.concatenate([x, np.zeros_like(x)], axis=1)[:, None, :]
    else:
        nbr = kernels.feature_knn(x @ net.feature_transform(x, ws, config), kk)
        diff = x[:, None, :] - x[nbr]
        edges = np.concatenate([np.broadcast_to(x[:, None, :], diff.shape), diff], axis=2)
    out = net._mlp(edges.reshape(n * edges.shape[1], -1), ws, "edge", len(config.edge_mlp))
    return out.reshape(n, edges.shape[1], -1).max(axis=1)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
@pytest.mark.parametrize("k_graph", [0, 1, 2, 20])
def test_graph_aggregate_row_blocks_equal_one_pass(n, k_graph):
    # row blocks split evenly, so every block's GEMM has at least two rows
    # whenever the whole has, and gives each row the whole product's bits
    config = net.NetConfig()
    ws = net.random_weights(config, seed=8)
    feats = np.random.default_rng(n).normal(size=(n, config.feature_width)).astype(np.float32)
    got = net.graph_aggregate(feats, k_graph, ws, config)
    want = _whole_graph_aggregate(feats, k_graph, ws, config)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_netvlad_unit_norm_and_dtype():
    ws = net.random_weights(SMALL, seed=7)
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(50, 32)).astype(np.float32)
    d = net.netvlad(feats, ws, SMALL)
    assert d.dtype == np.float32
    assert d.shape == (40,)
    assert np.linalg.norm(d.astype(np.float64)) == pytest.approx(1.0, abs=1e-5)


def test_weightset_float64_converts_once_across_threads():
    ws = net.random_weights(SMALL, seed=8)
    want = ws["vlad.proj.w"].copy()
    got = []
    start = threading.Barrier(8)

    def worker():
        start.wait(timeout=10)
        got.append(ws.float64("vlad.proj.w"))

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads) and len(got) == 8
    assert all(a is got[0] for a in got)  # one shared widening, no duplicate
    np.testing.assert_array_equal(got[0], want.astype(np.float64))
    assert not got[0].flags.writeable
    # the float32 form is dropped: each read narrows the held float64 afresh
    narrowed = ws["vlad.proj.w"]
    assert narrowed.dtype == np.float32 and narrowed is not ws["vlad.proj.w"]
    assert narrowed.tobytes() == want.tobytes()
    assert ws.names() == list(net.expected_shapes(SMALL))


def test_loaded_weightset_widens_nothing(tmp_path):
    path = tmp_path / "w.lpdw"
    net.save_weights(net.random_weights(SMALL, seed=8), path)
    loaded = net.load_weights(path, SMALL)
    tracemalloc.start()
    try:
        wide = loaded.float64("vlad.proj.w")
        again = loaded.float64("vlad.proj.w")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 and again is wide and not wide.flags.writeable
    assert wide.tobytes() == loaded["vlad.proj.w"].astype(np.float64).tobytes()


def test_load_weights_holds_each_tensor_once(tmp_path, monkeypatch):
    """The loaded set, the projection widened for the forward pass, never
    costs more than its own tensors plus one read chunk: no whole-file blob
    and no float32 copy of the projection."""
    chunk = 1 << 16
    monkeypatch.setattr(fileio, "_CHUNK_BYTES", chunk)
    config = net.NetConfig(vlad_clusters=64, post_mlp=(64,), descriptor_dim=64)
    ws = net.random_weights(config, seed=9)
    proj = ws["vlad.proj.w"]
    assert proj.nbytes >= 4 * chunk
    rest = sum(t.nbytes for name, t in ws.items() if name != "vlad.proj.w")
    path = tmp_path / "w.lpdw"
    net.save_weights(ws, path)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = net.load_weights(path, config)
        wide = loaded.float64("vlad.proj.w")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * proj.nbytes + rest + chunk + (64 << 10)
    assert wide.tobytes() == proj.astype(np.float64).tobytes()
    again = tmp_path / "again.lpdw"
    net.save_weights(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_netvlad_zero_projection_guard():
    shapes = net.expected_shapes(SMALL)
    tensors = {n: np.zeros(s, dtype=np.float32) for n, s in shapes.items()}
    ws = net.WeightSet(tensors)
    with pytest.raises(NormError):
        net.netvlad(np.zeros((5, 32), dtype=np.float32), ws, SMALL)


def test_describe_shape_checks():
    ws = net.random_weights(SMALL, seed=8)
    rng = np.random.default_rng(8)
    sub = _submap(rng, 20)
    with pytest.raises(ShapeError):
        net.describe(sub, _features(rng, 19), ws, SMALL)
    with pytest.raises(ShapeError):
        net.describe(sub, rng.normal(size=(20, 3)), ws, SMALL)


def test_describe_permutation_invariance():
    rng = np.random.default_rng(9)
    ws = net.random_weights(SMALL, seed=9)
    sub = _submap(rng, 80)
    lf = _features(rng, 80)
    d0 = net.describe(sub, lf, ws, SMALL)
    perm = rng.permutation(80)
    d1 = net.describe(cloud.Submap(points=sub.points[perm], scale=1.0), lf[perm], ws, SMALL)
    assert np.abs(d0.astype(np.float64) - d1.astype(np.float64)).max() < 1e-6


def test_describe_default_config_dimensions():
    rng = np.random.default_rng(10)
    ws = net.random_weights(net.NetConfig(), seed=10)
    sub = _submap(rng, 4096)
    lf = _features(rng, 4096)
    d = net.describe(sub, lf, ws)
    assert d.shape == (256,)
    assert np.linalg.norm(d.astype(np.float64)) == pytest.approx(1.0, abs=1e-5)


def test_baseline_descriptor_properties():
    rng = np.random.default_rng(12)
    sub = _submap(rng, 500)
    lf = _features(rng, 500)
    d = net.baseline_descriptor(sub, lf)
    assert d.shape == (256,)
    assert d.dtype == np.float32
    assert np.linalg.norm(d.astype(np.float64)) == pytest.approx(1.0, abs=1e-6)
    perm = rng.permutation(500)
    d2 = net.baseline_descriptor(cloud.Submap(points=sub.points[perm], scale=1.0),
                                 lf[perm])
    np.testing.assert_array_equal(d, d2)


def test_baseline_separates_different_scenes():
    rng = np.random.default_rng(13)
    a = _submap(rng, 400)
    fa = _features(rng, 400)
    b = _submap(rng, 400)
    fb = _features(rng, 400)
    da = net.baseline_descriptor(a, fa).astype(np.float64)
    db = net.baseline_descriptor(b, fb).astype(np.float64)
    same = net.baseline_descriptor(a, fa).astype(np.float64)
    assert np.linalg.norm(da - same) == 0.0
    assert np.linalg.norm(da - db) > 1e-3


def test_lazy_quadruplet_matches_oracle():
    rng = np.random.default_rng(14)
    for _ in range(50):
        a = rng.normal(size=8)
        pos = rng.normal(size=(2, 8))
        neg = rng.normal(size=(18, 8))
        star = rng.normal(size=8)
        got = net.lazy_quadruplet_loss(a, pos, neg, star, alpha=0.5, beta=0.2)
        want = quadruplet_oracle(a, pos, neg, star, 0.5, 0.2)
        assert got == pytest.approx(want, abs=1e-7)


def test_lazy_quadruplet_zero_when_margins_satisfied():
    a = np.zeros(4)
    pos = np.full((2, 4), 0.01)
    neg = np.zeros((3, 4))
    neg[:, 0] = [10.0, 11.0, 12.0]
    star = np.full(4, -10.0)
    assert net.lazy_quadruplet_loss(a, pos, neg, star, alpha=0.5, beta=0.2) == 0.0


def test_lazy_quadruplet_requires_examples():
    with pytest.raises(EmptyInput):
        net.lazy_quadruplet_loss(np.zeros(3), np.zeros((0, 3)), np.ones((1, 3)),
                                 np.zeros(3))
    with pytest.raises(EmptyInput):
        net.lazy_quadruplet_loss(np.zeros(3), np.ones((1, 3)), np.zeros((0, 3)),
                                 np.zeros(3))


def _frame_input(seed: int, n: int = 1024):
    """A uniform ``n``-point submap in [-1, 1] and its local features."""
    rng = np.random.default_rng(seed)
    sub = cloud.Submap(points=rng.uniform(-1.0, 1.0, size=(n, 3)), scale=1.0)
    return sub, features.local_features(sub)


def describe_job():
    """The net half of a ``describe --weights`` frame job at the default widths."""
    sub, lf = _frame_input(30)
    ws = net.random_weights(net.NetConfig(), seed=30)
    return lambda: net.describe(sub, lf, ws)


def baseline_job():
    """A ``describe --baseline`` frame job: local features, then the histogram descriptor."""
    sub, _ = _frame_input(31)
    return lambda: net.baseline_descriptor(sub, features.local_features(sub))


def batch_job():
    """A ``describe --weights`` run of six frames: each frame's VLAD vector
    into one buffer, then one projection of the buffer."""
    frames = [_frame_input(36 + i) for i in range(6)]
    config = net.NetConfig()
    ws = net.random_weights(config, seed=36)

    def job():
        buf = np.empty((len(frames), config.flat_width))
        for row, (sub, lf) in enumerate(frames):
            net.vlad_vector(sub, lf, ws, config, out=buf[row])
        return net.project(buf, ws)
    return job


# pool jobs overlap only where their long numpy calls release the GIL: a
# vector x matrix product through ``@`` held it for the whole 65,536 x 256
# NetVLAD projection (11-18 ms a frame)
@pytest.mark.parametrize("job", ["test_net:describe_job", "test_net:baseline_job",
                                 "test_net:batch_job"])
def test_frame_jobs_hold_the_gil_briefly(job):
    assert gil_hold(job) < 5e-3


def describe_digest() -> str:
    """sha256 of default-width descriptors of a few submaps, one of them upsampled."""
    ws = net.random_weights(net.NetConfig(), seed=32)
    h = hashlib.sha256()
    for seed, n in ((33, 1024), (34, 700)):
        sub, lf = _frame_input(seed, n)
        h.update(net.describe(sub, lf, ws).tobytes())
    rng = np.random.default_rng(35)
    few = cloud.PointCloud(rng.uniform(-5.0, 5.0, size=(256, 3)))
    sub = cloud.normalize_submap(few, 1024, seed=35)
    h.update(net.describe(sub, features.local_features(sub), ws).tobytes())
    return h.hexdigest()


def test_describe_bytes_do_not_depend_on_blas_threads():
    assert in_child("test_net:describe_digest", blas_threads=1) \
        == in_child("test_net:describe_digest", blas_threads=2)


def project_digest() -> str:
    """sha256 of 16 default-width projections, one row at a time, after
    checking that every row has the same bytes in batches of 2, 7 and 16
    rows at every offset."""
    config = net.NetConfig()
    ws = net.random_weights(config, seed=37)
    rng = np.random.default_rng(37)
    flats = rng.normal(size=(16, config.vlad_clusters, config.vlad_width))
    flats /= np.linalg.norm(flats, axis=2, keepdims=True)
    flats = flats.reshape(16, -1)
    alone = [net.project(flats[i:i + 1], ws)[0].tobytes() for i in range(16)]
    for size in (2, 7, 16):
        for lo in range(16 - size + 1):
            got = net.project(flats[lo:lo + size], ws)
            assert got.dtype == np.float32 and got.shape == (size, 256)
            assert [row.tobytes() for row in got] == alone[lo:lo + size], (size, lo)
    return hashlib.sha256(b"".join(alone)).hexdigest()


def test_project_bytes_do_not_depend_on_batch_or_blas_threads():
    assert in_child("test_net:project_digest", blas_threads=1) \
        == in_child("test_net:project_digest", blas_threads=2)


def test_project_is_one_gemm_of_at_least_two_rows(monkeypatch):
    ws = net.random_weights(SMALL, seed=38)
    flats = np.random.default_rng(38).normal(size=(3, SMALL.flat_width))
    rows = []
    dot = np.dot

    def spy(a, b, *args, **kwargs):
        if b.shape == (SMALL.flat_width, SMALL.descriptor_dim):
            rows.append(a.shape[0])
        return dot(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "dot", spy)
    for n in (1, 2, 3):
        assert net.project(flats[:n], ws).shape == (n, SMALL.descriptor_dim)
    assert rows == [2, 2, 3]
    with pytest.raises(ShapeError):
        net.project(flats[:, :-1], ws)


def test_describe_is_vlad_vector_then_project():
    ws = net.random_weights(SMALL, seed=39)
    rng = np.random.default_rng(39)
    sub, lf = _submap(rng, 50), _features(rng, 50)
    buf = np.full((2, SMALL.flat_width), np.nan)
    flat = net.vlad_vector(sub, lf, ws, SMALL, out=buf[1])
    assert np.shares_memory(flat, buf[1]) and np.isnan(buf[0]).all()
    assert net.project(buf[1:], ws)[0].tobytes() == net.describe(sub, lf, ws, SMALL).tobytes()


def test_vlad_vector_refuses_an_out_it_cannot_write_in_place():
    # a strided, short or float32 out would be written through a copy or not
    # at all, leaving the caller's buffer unset
    ws = net.random_weights(SMALL, seed=41)
    rng = np.random.default_rng(41)
    sub, lf = _submap(rng, 50), _features(rng, 50)
    buf = np.full((SMALL.flat_width, 2), np.nan)
    for out in (buf[:, 0], buf[:-1, :].ravel()[:SMALL.flat_width - 1],
                np.empty(SMALL.flat_width, np.float32)):
        with pytest.raises(ShapeError):
            net.vlad_vector(sub, lf, ws, SMALL, out=out)
    assert np.isnan(buf).all()
