import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from seqlpd import cli, config, kernels, metrics, net, placemap
from seqlpd.cloud import load_kitti_bin, normalize_submap
from seqlpd.features import local_features

DESCRIBE_FLAGS = ["--baseline", "--n-sub", "128", "--k-local", "8"]


def _run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is None:
        return code, None, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """One shared pipeline run: synth loop -> describe -> cluster."""
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["synth", str(root / "c"), "--scenario", "loop",
                     "--places", "40", "--points", "64", "--sigma", "0.0",
                     "--seed", "7"]) == 0
    assert cli.main(["describe", str(root / "c" / "map"),
                     "-o", str(root / "map.lpdm")] + DESCRIBE_FLAGS) == 0
    assert cli.main(["cluster", str(root / "map.lpdm"),
                     "-o", str(root / "map.lpdc"), "--D", "2.0"]) == 0
    return root


def test_synth_reports_counts(tmp_path, capsys):
    code, out, err = _run(["synth", str(tmp_path / "c"), "--scenario", "blobs",
                           "--places", "6", "--points", "32"], capsys)
    assert code == 0 and err == ""
    assert out.strip() == "scenario=blobs map_frames=6 query_frames=0 gt_rows=6"


def test_describe_lines_and_reproducibility(corpus, tmp_path, capsys):
    code, out, _ = _run(["describe", str(corpus / "c" / "map"),
                         "-o", str(tmp_path / "again.lpdm")] + DESCRIBE_FLAGS,
                        capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 41
    assert re.fullmatch(r"frame=0 points=\d+ t=\d+\.\dms", lines[0])
    assert lines[-1] == f"wrote {tmp_path / 'again.lpdm'} entries=40"
    # two runs over the same input are byte-identical
    assert (tmp_path / "again.lpdm").read_bytes() == (corpus / "map.lpdm").read_bytes()
    pmap = placemap.load(tmp_path / "again.lpdm")
    assert pmap.frame_ids().tolist() == list(range(40))


def test_describe_accepts_csv_frames(tmp_path, capsys):
    rng = np.random.default_rng(0)
    for i in range(3):
        pts = rng.normal(size=(40, 3))
        with open(tmp_path / f"{i}.csv", "w") as fh:
            fh.write("x,y,z\n")
            for x, y, z in pts:
                fh.write(f"{x},{y},{z}\n")
    code, out, _ = _run(["describe", str(tmp_path), "-o",
                         str(tmp_path / "m.lpdm"), "--baseline", "--n-sub", "32",
                         "--k-local", "4"], capsys)
    assert code == 0
    assert len(placemap.load(tmp_path / "m.lpdm")) == 3


def test_cluster_output_and_reproducibility(corpus, tmp_path, capsys):
    code, out, _ = _run(["cluster", str(corpus / "map.lpdm"),
                         "-o", str(tmp_path / "again.lpdc"), "--D", "2.0"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    head = re.fullmatch(
        r"K=(\d+) distortion=\d+\.\d{6} constraint_ok=(true|false)", lines[0])
    assert head is not None
    k = int(head.group(1))
    assert head.group(2) == "true"  # D=2.0 always holds for unit descriptors
    assert len(lines) == k + 2
    sizes = []
    for row in lines[1:-1]:
        m = re.fullmatch(r"cluster=\d+ size=(\d+) keyframe=\d+", row)
        assert m is not None
        sizes.append(int(m.group(1)))
    assert sum(sizes) == 40
    assert (tmp_path / "again.lpdc").read_bytes() == (corpus / "map.lpdc").read_bytes()


def test_cluster_of_a_one_frame_map(corpus, tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "000007.bin").write_bytes((corpus / "c" / "map" / "000003.bin").read_bytes())
    assert cli.main(["describe", str(frames), "-o", str(tmp_path / "one.lpdm")]
                    + DESCRIBE_FLAGS) == 0
    capsys.readouterr()
    blobs = []
    for name in ("a.lpdc", "b.lpdc"):
        code, out, err = _run(["cluster", str(tmp_path / "one.lpdm"), "-o",
                               str(tmp_path / name), "--D", "0.5"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines() == ["K=1 distortion=0.000000 constraint_ok=true",
                                    "cluster=0 size=1 keyframe=7",
                                    f"wrote {tmp_path / name}"]
        blobs.append((tmp_path / name).read_bytes())
    # header, the one cluster (keyframe 0, one member: 0), its center: the frame's row
    row = placemap.load(tmp_path / "one.lpdm").descriptor_matrix()
    assert blobs[0] == blobs[1] == (struct.pack("<4sIIfIII", b"LPDC", 1, 1, 0.5, 0, 1, 0)
                                    + row.astype("<f4").tobytes())


def test_describe_dir_matches_per_frame_at_any_thread_count(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    paths = [tmp_path / f"{i:06d}.bin" for i in range(6)]
    for path in paths:
        rng.uniform(-1.0, 1.0, size=(40, 4)).astype("<f4").tofile(path)
    cfg = config.Config(n_sub=48, k_local=6, k_graph=4, seed=5)
    small = net.NetConfig(k_graph=4, vlad_clusters=6, point_mlp=(12, 16),
                          edge_mlp=(16, 24), post_mlp=(32,), tnet_mlp=(8, 12, 16),
                          tnet_fc=(12, 8), descriptor_dim=40)
    for model in (None, (net.random_weights(small, seed=11), small)):
        want = []
        for i, path in enumerate(paths):
            sub = normalize_submap(load_kitti_bin(path, i), cfg.n_sub, seed=cfg.seed + i)
            lf = local_features(sub, cfg.k_local)
            want.append(net.baseline_descriptor(sub, lf) if model is None
                        else net.describe(sub, lf, *model))
        for threads in ("1", "4"):
            monkeypatch.setenv("SEQLPD_THREADS", threads)
            ids, _, got, _ = cli._describe_dir(tmp_path, cfg, model)
            assert ids == list(range(6))
            assert [d.tobytes() for d in got] == [d.tobytes() for d in want]


def test_match_end_to_end(corpus, capsys):
    code, out, _ = _run(["match", str(corpus / "map.lpdm"),
                         str(corpus / "map.lpdc"), str(corpus / "c" / "query")]
                        + DESCRIBE_FLAGS + ["--W", "5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 36  # windows ending at frames 4..39
    pat = re.compile(r"frame=(\d+) ref=(\d+|none) v=(-?\d+\.\d{2}) "
                     r"score=(\d+\.\d{6}) accepted=(true|false) cluster=(\d+)")
    accepted = 0
    for line in lines:
        m = pat.fullmatch(line)
        assert m is not None, line
        if m.group(5) == "true":
            accepted += 1
            # sigma 0: an accepted window must point at the exact revisit
            assert int(m.group(2)) == int(m.group(1))
            assert float(m.group(4)) < 1e-5
        else:
            assert m.group(2) == "none"
    assert accepted >= 30


def test_match_diffmat_exports(corpus, tmp_path, capsys):
    for name in ("d.pgm", "d.csv"):
        code, _, _ = _run(["match", str(corpus / "map.lpdm"),
                           str(corpus / "map.lpdc"), str(corpus / "c" / "query")]
                          + DESCRIBE_FLAGS
                          + ["--W", "5", "--diffmat", str(tmp_path / name)], capsys)
        assert code == 0
    header = (tmp_path / "d.pgm").read_text().splitlines()
    assert header[0] == "P2"
    assert header[1].split() == ["40", "40"]
    assert header[2] == "255"
    m = np.loadtxt(tmp_path / "d.csv", delimiter=",")
    assert m.shape == (40, 40)
    assert np.abs(np.diag(m)).max() < 1e-6  # sigma 0: exact revisits


@pytest.fixture(scope="module")
def map128(corpus, tmp_path_factory):
    """The corpus map described by a random 128-d net: (net flags, map path)."""
    root = tmp_path_factory.mktemp("w128")
    weights = root / "w128.lpdw"
    net.save_weights(net.random_weights(net.NetConfig(descriptor_dim=128), seed=0), weights)
    flags = ["--weights", str(weights), "--n-sub", "128", "--k-local", "8"]
    mpath = root / "m.lpdm"
    assert cli.main(["describe", str(corpus / "c" / "map"), "-o", str(mpath)] + flags) == 0
    return flags, mpath


def test_128d_descriptors_cluster_and_match(corpus, map128, tmp_path, capsys):
    """The net takes its width from the weight file, the LPDC centers the map's."""
    flags, mpath = map128
    cpath = tmp_path / "m.lpdc"
    assert placemap.load(mpath).dim == 128
    capsys.readouterr()
    code, out, err = _run(["cluster", str(mpath), "-o", str(cpath), "--D", "2.0"], capsys)
    assert code == 0 and err == "" and out.startswith("K=")
    code, out, err = _run(["match", str(mpath), str(cpath), str(corpus / "c" / "query"),
                           "--W", "5"] + flags, capsys)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 36
    for line in lines:  # sigma 0: an accepted window points at the exact revisit
        m = re.fullmatch(r"frame=(\d+) ref=(\d+|none) .* accepted=(true|false) cluster=\d+",
                         line)
        assert m is not None and (m.group(3) == "false" or m.group(1) == m.group(2))
    assert out.count("accepted=true") >= 30
    # 256-d clusters against the 128-d map: one error line, nothing on stdout
    code, out, err = _run(["match", str(mpath), str(corpus / "map.lpdc"),
                           str(corpus / "c" / "query"), "--W", "5"] + flags, capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("E:FormatError:")
    assert "256-d centers, map dim 128" in err


def test_query_width_other_than_the_map_is_one_error_line(corpus, map128, tmp_path, capsys):
    # 256-d baseline queries against the 128-d map
    _, mpath = map128
    cpath = tmp_path / "m.lpdc"
    assert cli.main(["cluster", str(mpath), "-o", str(cpath), "--D", "2.0"]) == 0
    capsys.readouterr()
    query = [str(corpus / "c" / "query")]
    for extra in ([], ["--diffmat", str(tmp_path / "d.csv")]):
        err = _one_error(["match", str(mpath), str(cpath)] + query + ["--W", "5"]
                         + DESCRIBE_FLAGS + extra, capsys, "DimensionError")
        assert "dim 256" in err and "dim 128" in err
    err = _one_error(["eval", str(mpath)] + query + DESCRIBE_FLAGS + ["--gt-radius", "1.0"],
                     capsys, "DimensionError")
    assert "query descriptor dim 256, map dim 128" in err


def test_eval_reports_metrics(corpus, capsys):
    code, out, _ = _run(["eval", str(corpus / "map.lpdm"),
                         str(corpus / "c" / "query")] + DESCRIBE_FLAGS
                        + ["--gt-radius", "1.0", "--n", "1,5"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "metric,value,N,gt_radius,db_size"
    table = {row.split(",")[0]: row for row in lines[1:]}
    assert table["recall_at_1"] == "recall_at_1,100.0000,1,1,40"
    assert table["recall_at_5"] == "recall_at_5,100.0000,5,1,40"
    assert table["recall_at_1pct"].startswith("recall_at_1pct,100.0000,1,")
    assert table["seq_protocol"] == "seq_protocol,100.0000,5,1,40"


def test_eval_ranks_the_queries_once_for_every_recall_row(corpus, capsys, monkeypatch):
    calls = []
    in_seq = []
    for owner, name in ((kernels, "map_knn"), (metrics, "ground_truth")):
        def spy(*args, _name=name, _orig=getattr(owner, name)):
            calls.append((_name, bool(in_seq)))
            return _orig(*args)
        monkeypatch.setattr(owner, name, spy)

    def seq_spy(*args, _orig=metrics.seq_protocol):
        in_seq.append(True)
        try:
            return _orig(*args)
        finally:
            in_seq.pop()

    monkeypatch.setattr(metrics, "seq_protocol", seq_spy)
    code, out, _ = _run(["eval", str(corpus / "map.lpdm"), str(corpus / "c" / "query")]
                        + DESCRIBE_FLAGS + ["--gt-radius", "1.0", "--n", "20,1,5"], capsys)
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()] == [
        "metric", "recall_at_20", "recall_at_1", "recall_at_5", "recall_at_1pct", "seq_protocol"]
    # the four recall rows: one ranking and one ground truth; the sequence
    # protocol keeps its own ranking
    assert sorted(c for c in calls if not c[1]) == [("ground_truth", False), ("map_knn", False)]
    assert [c for c in calls if c[1] and c[0] == "map_knn"] == [("map_knn", True)]


def test_flag_overrides_config_file(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_sub = 64\nk_local = 8\n")
    base = ["describe", str(corpus / "c" / "map"), "--baseline"]
    assert cli.main(base + ["-o", str(tmp_path / "a.lpdm"), "--config", str(cfg)]) == 0
    assert cli.main(base + ["-o", str(tmp_path / "b.lpdm"), "--config", str(cfg),
                            "--n-sub", "128"]) == 0
    assert cli.main(base + ["-o", str(tmp_path / "c.lpdm"),
                            "--n-sub", "128", "--k-local", "8"]) == 0
    capsys.readouterr()
    a = (tmp_path / "a.lpdm").read_bytes()
    b = (tmp_path / "b.lpdm").read_bytes()
    c = (tmp_path / "c.lpdm").read_bytes()
    assert b == c      # the flag beat the file
    assert a != c      # and the file's n_sub really changed the result


def test_usage_error_is_single_line_exit_2(capsys):
    code, out, err = _run([], capsys)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("E:UsageError:")
    code, _, err = _run(["describe", "--bogus-flag"], capsys)
    assert code == 2 and err.startswith("E:UsageError:")


def test_missing_weights_is_io_error(corpus, tmp_path, capsys):
    code, out, err = _run(["describe", str(corpus / "c" / "map"),
                           "-o", str(tmp_path / "m.lpdm"),
                           "--weights", str(tmp_path / "absent.lpdw")], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("E:IoError:")


def test_cluster_requires_d(corpus, tmp_path, capsys):
    code, _, err = _run(["cluster", str(corpus / "map.lpdm"),
                         "-o", str(tmp_path / "m.lpdc")], capsys)
    assert code == 1
    assert err.startswith("E:InvalidParams:") and "D" in err


def test_d_that_float32_rounds_to_zero_is_invalid(corpus, tmp_path, capsys):
    code, out, err = _run(["cluster", str(corpus / "map.lpdm"),
                           "-o", str(tmp_path / "m.lpdc"), "--D", "1e-50"], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("E:InvalidParams:")
    assert not (tmp_path / "m.lpdc").exists()


def test_unknown_config_key_rejected(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 5\n")
    code, _, err = _run(["describe", str(corpus / "c" / "map"),
                         "-o", str(tmp_path / "m.lpdm"), "--baseline",
                         "--config", str(cfg)], capsys)
    assert code == 1
    assert err.startswith("E:InvalidParams:") and "window" in err


def test_corrupt_map_is_format_error(tmp_path, capsys):
    bad = tmp_path / "bad.lpdm"
    bad.write_bytes(b"not a map at all")
    code, _, err = _run(["cluster", str(bad), "-o", str(tmp_path / "m.lpdc"),
                         "--D", "1.0"], capsys)
    assert code == 1 and err.startswith("E:FormatError:")


def test_eval_requires_poses(corpus, tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    src = (corpus / "c" / "map" / "000000.bin").read_bytes()
    (frames / "000000.bin").write_bytes(src)
    code, _, err = _run(["eval", str(corpus / "map.lpdm"), str(frames)]
                        + DESCRIBE_FLAGS + ["--gt-radius", "1.0"], capsys)
    assert code == 1 and err.startswith("E:InvalidParams:")


def test_non_finite_pose_is_format_error(corpus, tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    for name in ("000000.bin", "000001.bin"):
        (frames / name).write_bytes((corpus / "c" / "map" / name).read_bytes())
    for bad in ("nan", "inf"):
        (frames / "poses.csv").write_text(f"frame_id,x,y,z\n0,0,0,0\n1,{bad},0,0\n")
        code, _, err = _run(["describe", str(frames), "-o", str(tmp_path / "m.lpdm")]
                            + DESCRIBE_FLAGS, capsys)
        assert code == 1
        assert err.startswith("E:FormatError:") and "poses.csv:3" in err
        assert len(err.strip().splitlines()) == 1


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "seqlpd.cli", "synth", str(tmp_path / "c"),
         "--scenario", "line", "--places", "3", "--points", "16"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("scenario=line")


def _one_error(argv, capsys, code, exit_code=1):
    """Run argv; it must fail with one ``E:<code>:`` line and nothing on stdout."""
    got, out, err = _run(argv, capsys)
    assert (got, out) == (exit_code, "")
    assert err.count("\n") == 1 and err.startswith(f"E:{code}:"), err
    return err


def _two_frames(corpus, tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    for name in ("000000.bin", "000001.bin"):
        (frames / name).write_bytes((corpus / "c" / "map" / name).read_bytes())
    return frames


def test_frame_listed_twice_in_poses_is_format_error(corpus, tmp_path, capsys):
    frames = _two_frames(corpus, tmp_path)
    (frames / "poses.csv").write_text("frame_id,x,y,z\n0,0,0,0\n1,1,0,0\n0,2,0,0\n")
    err = _one_error(["describe", str(frames), "-o", str(tmp_path / "m.lpdm")] + DESCRIBE_FLAGS,
                     capsys, "FormatError")
    assert "poses.csv:4" in err and "frame 0 listed twice" in err


def test_unreadable_poses_are_one_error_line(corpus, tmp_path, capsys):
    frames = _two_frames(corpus, tmp_path)
    argv = ["describe", str(frames), "-o", str(tmp_path / "m.lpdm")] + DESCRIBE_FLAGS
    (frames / "poses.csv").write_bytes(b"frame_id,x,y,z\n0,0,0,0\n1,\xff,0,0\n")
    assert "not UTF-8" in _one_error(argv, capsys, "FormatError")
    (frames / "poses.csv").unlink()
    (frames / "poses.csv").mkdir()
    _one_error(argv, capsys, "IoError")


def test_non_utf8_config_and_frame_csv_are_format_errors(corpus, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"n_sub = 64\n# caf\xe9\n")
    _one_error(["describe", str(corpus / "c" / "map"), "-o", str(tmp_path / "m.lpdm"),
                "--baseline", "--config", str(cfg)], capsys, "FormatError")
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "0.csv").write_bytes(b"x,y,z\n0,0,0\n1,\xff,0\n")
    _one_error(["describe", str(frames), "-o", str(tmp_path / "m.lpdm")] + DESCRIBE_FLAGS,
               capsys, "FormatError")


def test_unwritable_outputs_are_io_errors(corpus, tmp_path, capsys):
    for name in ("x.pgm", "x.csv"):
        _one_error(["match", str(corpus / "map.lpdm"), str(corpus / "map.lpdc"),
                    str(corpus / "c" / "query"), "--W", "5", "--diffmat",
                    str(tmp_path / "absent" / name)] + DESCRIBE_FLAGS, capsys, "IoError")
    taken = tmp_path / "file"
    taken.write_text("x")
    for out in (taken / "below", taken):  # below a regular file, and onto one
        _one_error(["synth", str(out), "--scenario", "line", "--places", "3",
                    "--points", "16"], capsys, "IoError")


def test_non_utf8_tensor_name_is_format_error(corpus, tmp_path, capsys):
    bad = tmp_path / "w.lpdw"
    bad.write_bytes(b"LPDW" + (1).to_bytes(4, "little") + (1).to_bytes(4, "little")
                    + (2).to_bytes(2, "little") + b"\xff\xfe" + bytes([1])
                    + (1).to_bytes(4, "little") + np.float32(0.5).tobytes())
    err = _one_error(["describe", str(corpus / "c" / "map"), "-o", str(tmp_path / "m.lpdm"),
                      "--weights", str(bad)], capsys, "FormatError")
    assert "not UTF-8" in err


def test_negative_seed_is_invalid_params(corpus, tmp_path, capsys):
    # n_sub 128 > 64 points per frame, so describe resamples with the seed
    _one_error(["describe", str(corpus / "c" / "map"), "-o", str(tmp_path / "m.lpdm"),
                "--seed", "-1"] + DESCRIBE_FLAGS, capsys, "InvalidParams")
    _one_error(["synth", str(tmp_path / "s"), "--scenario", "loop", "--places", "3",
                "--points", "16", "--seed", "-1"], capsys, "InvalidParams")
    _one_error(["cluster", str(corpus / "map.lpdm"), "-o", str(tmp_path / "m.lpdc"),
                "--D", "1.0", "--seed", "-5000"], capsys, "InvalidParams")


def test_unbounded_velocities_are_invalid_params(corpus, capsys):
    base = ["match", str(corpus / "map.lpdm"), str(corpus / "map.lpdc"),
            str(corpus / "c" / "query")] + DESCRIBE_FLAGS
    _one_error(base + ["--W", "5", "--v-max", "inf"], capsys, "InvalidParams")
    # finite, but round(v * t) overflows int64
    _one_error(base + ["--W", "5", "--v-min", "1e300", "--v-max", "1e300"], capsys,
               "InvalidParams")
    _one_error(base + ["--W", "5", "--v-min", "1", "--v-max", "1", "--v-step", "inf"],
               capsys, "InvalidParams")
    # W = 1 has no offset to overflow; the velocity grid would have 1e301 steps
    _one_error(base + ["--W", "1", "--v-max", "1e300"], capsys, "InvalidParams")


@pytest.mark.parametrize("bad", [["--v-step", "nan"], ["--v-max", "inf"],
                                 ["--W", "1", "--v-step", "1e-300"]])
def test_match_rejects_bad_grid_before_describing(corpus, capsys, monkeypatch, bad):
    calls = []
    describe_dir = cli._describe_dir

    def spy(*args, **kwargs):
        calls.append(args[0])
        return describe_dir(*args, **kwargs)

    monkeypatch.setattr(cli, "_describe_dir", spy)
    _one_error(["match", str(corpus / "map.lpdm"), str(corpus / "map.lpdc"),
                str(corpus / "c" / "query")] + DESCRIBE_FLAGS + bad, capsys, "InvalidParams")
    assert calls == []


@pytest.mark.parametrize("bad", ["abc", ",", "0"])
def test_eval_rejects_bad_n_before_describing(corpus, capsys, monkeypatch, bad):
    calls = []
    describe_dir = cli._describe_dir

    def spy(*args, **kwargs):
        calls.append(args[0])
        return describe_dir(*args, **kwargs)

    monkeypatch.setattr(cli, "_describe_dir", spy)
    _one_error(["eval", str(corpus / "map.lpdm"), str(corpus / "c" / "query")]
               + DESCRIBE_FLAGS + ["--gt-radius", "1.0", "--n", bad], capsys, "InvalidParams")
    assert calls == []


@pytest.mark.parametrize("tensors", [
    {"vlad.proj.b": np.zeros(256)},                              # no vlad.centers
    {"vlad.centers": np.zeros((64, 1024))},                      # no vlad.proj.b
    {"vlad.centers": np.float32(1.0), "vlad.proj.b": np.zeros(256)},
    {"vlad.centers": np.zeros((64, 1024)), "vlad.proj.b": np.float32(1.0)},
    {"vlad.centers": np.zeros((0, 1024)), "vlad.proj.b": np.zeros(256)},
])
def test_weight_widths_need_vlad_tensors_with_rows(corpus, tmp_path, capsys, tensors):
    weights = tmp_path / "w.lpdw"
    net.save_weights(net.WeightSet(tensors), weights)
    err = _one_error(["describe", str(corpus / "c" / "map"), "-o", str(tmp_path / "m.lpdm"),
                      "--weights", str(weights)], capsys, "ShapeError")
    assert "vlad." in err


def test_non_decimal_digit_stem_takes_the_frame_index(corpus, tmp_path, capsys):
    frames = _two_frames(corpus, tmp_path)
    (frames / "000001.bin").rename(frames / "².bin")  # '²'.isdigit() but not a number
    code, out, err = _run(["describe", str(frames), "-o", str(tmp_path / "m.lpdm")]
                          + DESCRIBE_FLAGS, capsys)
    assert (code, err) == (0, "")
    assert placemap.load(tmp_path / "m.lpdm").frame_ids().tolist() == [0, 1]


def _unpadded(src, dst):
    """A copy of frame directory ``src`` with its frames renamed from 000012.bin to 12.bin."""
    dst.mkdir()
    for path in src.iterdir():
        name = path.name if path.name == "poses.csv" else f"{int(path.stem)}{path.suffix}"
        (dst / name).write_bytes(path.read_bytes())
    return dst


def test_unpadded_frame_names_run_in_numeric_order(corpus, tmp_path, capsys):
    # "10.bin" sorts before "2.bin" by name; frames must still run by number
    frames = _unpadded(corpus / "c" / "map", tmp_path / "map")
    assert {"2.bin", "10.bin", "0.bin"} <= {p.name for p in frames.iterdir()}
    code, _, err = _run(["describe", str(frames), "-o", str(tmp_path / "m.lpdm")]
                        + DESCRIBE_FLAGS, capsys)
    assert (code, err) == (0, "")
    assert (tmp_path / "m.lpdm").read_bytes() == (corpus / "map.lpdm").read_bytes()
    outs = []
    for query in (corpus / "c" / "query", _unpadded(corpus / "c" / "query", tmp_path / "q")):
        code, out, err = _run(["match", str(corpus / "map.lpdm"), str(corpus / "map.lpdc"),
                               str(query)] + DESCRIBE_FLAGS + ["--W", "3"], capsys)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]


def test_non_finite_clusters_and_sigma_are_rejected(corpus, tmp_path, capsys):
    blob = (corpus / "map.lpdc").read_bytes()
    nan = np.array([np.nan], dtype="<f4").tobytes()
    bad = tmp_path / "bad.lpdc"
    for mutated in (blob[:-4] + nan, blob[:12] + nan + blob[16:]):  # a center value, D
        bad.write_bytes(mutated)
        err = _one_error(["match", str(corpus / "map.lpdm"), str(bad),
                          str(corpus / "c" / "query"), "--W", "5"] + DESCRIBE_FLAGS,
                         capsys, "FormatError")
        assert "non-finite" in err
    _one_error(["synth", str(tmp_path / "s"), "--scenario", "loop", "--places", "3",
                "--points", "16", "--sigma", "nan"], capsys, "InvalidParams")
