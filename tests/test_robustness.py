"""Whole-package robustness: mutated containers, hostile CLI flags, and the
one-of-each structure (one file boundary, one worker pool, one selector)."""

import ast
import contextlib
import gc
import io
import os
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqlpd
from seqlpd import cli, cluster, fileio, net, placemap, seqmatch
from seqlpd.cloud import Pose
from seqlpd.errors import FormatError

from oracles import random_unit

SRC = os.path.dirname(seqlpd.__file__)


def _small_map():
    pm = placemap.PlaceMap()
    for i, d in enumerate(random_unit(np.random.default_rng(0), 5, 4)):
        pm.insert(placemap.PlaceEntry(2 * i, Pose(float(i), -0.5, 0.25, 2 * i), d))
    return pm


def _containers(tmp):
    """(name, valid bytes, load(path), save(obj, path)) for each binary format."""
    pm = _small_map()
    ws = net.WeightSet({"a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                        "scälar": np.float32(-0.0).reshape(()), "empty": np.zeros((0, 2))})
    c = cluster.kmeanspp(pm.descriptor_matrix().astype(np.float64), K=2, seed=1)
    skf = cluster.super_keyframes(pm, c)
    out = []
    for name, obj, save, load in (
            ("lpdw", ws, net.save_weights, net.load_weights),
            ("lpdm", pm, placemap.save, placemap.load),
            ("lpdc", skf, lambda s, p: cluster.save_clusters(s, 0.75, p),
             lambda p: cluster.load_clusters(p, pm))):
        path = os.path.join(tmp, "valid." + name)
        save(obj, path)
        with open(path, "rb") as fh:
            out.append((name, fh.read(), load, save))
    return out


_MUTATION = st.tuples(st.sampled_from(["flip", "insert", "delete", "truncate"]),
                      st.integers(0, 1 << 16), st.integers(1, 255))


def _mutate(blob: bytes, mutations) -> bytes:
    b = bytearray(blob)
    for kind, pos, value in mutations:
        pos %= len(b) + 1
        if kind == "flip" and pos < len(b):
            b[pos] ^= value
        elif kind == "insert":
            b[pos:pos] = bytes([value]) * (1 + value % 4)
        elif kind == "delete":
            del b[pos:pos + 1 + value % 8]
        else:
            del b[pos:]
    return bytes(b)


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("containers")
    return str(tmp), _containers(str(tmp))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(which=st.integers(0, 2), mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_mutated_containers_fail_as_format_error_or_round_trip(containers, which, mutations):
    tmp, table = containers
    name, blob, load, save = table[which]
    bad = _mutate(blob, mutations)
    path = os.path.join(tmp, "mutated." + name)
    with open(path, "wb") as fh:
        fh.write(bad)
    try:
        obj = load(path)
    except FormatError:
        return
    if name == "lpdc":
        obj = obj[0]
    again = os.path.join(tmp, "again." + name)
    save(obj, again)
    with open(again, "rb") as fh:
        assert fh.read() == bad


# flags with a documented range, each with hostile values; unbounded sizes
# (n_sub, k_local, places, points) would only ask numpy for huge arrays and
# are left out.  The velocity grid is bounded, so a tiny v_step and a v_max
# far above v_min are drawn.
_INT = ["-1", "0", "-5000", "1", "2", "3", "5", str(10 ** 30), "nan"]
_FLOAT = ["-1", "0", "inf", "-inf", "nan", "1e300", "-1e300", "1e-300", "0.5", "0.9", "1", "2"]
_VELOCITIES = [("1e300", "1e300"), ("0.8", "inf"), ("inf", "inf"), ("nan", "1.2"),
               ("0.8", "nan"), ("-1", "1.2"), ("0", "1"), ("1.2", "0.8"), ("0.8", "-inf"),
               ("1e-300", "1e-300"), ("0.8", "1.2"), ("1", "1"), ("0.8", "1e300"),
               ("1e-300", "1e300")]


@st.composite
def _argv(draw):
    """argv of one CLI command; paths are relative to the fuzz corpus."""
    def opt(flag, values):  # each flag is left out half the time
        return [flag, draw(st.sampled_from(values))] if draw(st.booleans()) else []

    flags = ["--baseline", "--n-sub", "32", "--k-local", "4"]
    cmd = draw(st.sampled_from(["describe", "cluster", "match", "eval", "synth"]))
    if cmd == "synth":
        return (["synth", "s", "--scenario", draw(st.sampled_from(["loop", "blobs", "line"])),
                 "--places", draw(st.sampled_from(["-1", "0", "2", "3", "4"])),
                 "--points", draw(st.sampled_from(["-1", "15", "16"]))]
                + opt("--sigma", _FLOAT) + opt("--seed", _INT))
    if cmd == "describe":
        return ["describe", os.path.join("c", "map"), "-o", "d.lpdm"] + flags \
            + opt("--seed", _INT)
    if cmd == "cluster":
        return (["cluster", "m.lpdm", "-o", "d.lpdc", "--D", draw(st.sampled_from(_FLOAT))]
                + opt("--k-max", _INT) + opt("--seed", _INT))
    if cmd == "match":
        v_min, v_max = draw(st.sampled_from(_VELOCITIES))
        return (["match", "m.lpdm", "m.lpdc", os.path.join("c", "query"),
                 "--W", draw(st.sampled_from(_INT)), "--v-min", v_min, "--v-max", v_max]
                + flags
                + opt("--v-step", ["-1", "0", "nan", "inf", "1e300", "0.1", "1e-9", "1e-300",
                                   "5e-324"])
                + opt("--accept-ratio", _FLOAT) + opt("--seed", _INT)
                + draw(st.sampled_from([[], ["--mirror"]])))
    return (["eval", "m.lpdm", os.path.join("c", "query"),
             "--gt-radius", draw(st.sampled_from(_FLOAT))] + flags
            + opt("--min-successes", _INT) + opt("--seed", _INT)
            + opt("--n", ["1", "0", "-1", "1,99", "x", ""]))


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("fuzzcli"))
    assert cli.main(["synth", os.path.join(root, "c"), "--scenario", "loop", "--places", "8",
                     "--points", "32", "--seed", "2"]) == 0
    assert cli.main(["describe", os.path.join(root, "c", "map"), "-o",
                     os.path.join(root, "m.lpdm"), "--baseline", "--n-sub", "32",
                     "--k-local", "4"]) == 0
    assert cli.main(["cluster", os.path.join(root, "m.lpdm"), "-o",
                     os.path.join(root, "m.lpdc"), "--D", "2.0"]) == 0
    return root


_MATCH = ["match", "m.lpdm", "m.lpdc", os.path.join("c", "query"), "--baseline",
          "--n-sub", "32", "--k-local", "4"]


@settings(derandomize=True, deadline=None, max_examples=120)
@given(argv=_argv())
# W = 1 has no trajectory offset to overflow: only the bound on the velocity
# grid stops these
@example(argv=_MATCH + ["--W", "1", "--v-max", "1e300"])
@example(argv=_MATCH + ["--W", "1", "--v-step", "1e-300"])
@example(argv=_MATCH + ["--W", "1", "--v-step", "5e-324"])
def test_hostile_flags_give_exit_0_or_one_error_line(small_corpus, argv):
    code, _, text = _run_cli(small_corpus, argv)
    if code == 0:
        assert text == ""
    else:
        assert code in (1, 2)
        assert text.count("\n") == 1 and text.startswith("E:"), text


def _run_cli(root, argv) -> tuple:
    """(exit code, stdout, stderr) of one CLI command run in ``root``, which
    must leave no file open (no ResourceWarning)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            gc.collect()
    finally:
        os.chdir(cwd)
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    return code, out.getvalue(), err.getvalue()


def _streamed_error(small_corpus, argv) -> str:
    """The one ``E:`` line of argv run in the fuzz corpus, which must fail with
    nothing on stdout and no file left open."""
    code, out, err = _run_cli(small_corpus, argv)
    assert code == 1 and out == "" and err.count("\n") == 1 and err.startswith("E:")
    return err


_DESCRIBE = ["describe", os.path.join("c", "map"), "-o", "d.lpdm", "--n-sub", "32",
             "--k-local", "4", "--weights", "bad.lpdw"]


def _projection_file(path) -> tuple:
    """An LPDW file whose 40 x 4 ``vlad.proj.w`` spans ten 64-byte chunks, between
    two other tensors: (its bytes, the byte its projection payload starts at)."""
    ws = net.WeightSet({"vlad.centers": np.ones((2, 3)), "vlad.proj.w":
                        np.linspace(-1.0, 1.0, 160).reshape(40, 4), "vlad.proj.b": np.ones(4)})
    net.save_weights(ws, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    name = b"vlad.proj.w"
    return blob, blob.index(name + bytes([2])) + len(name) + 1 + 8


@pytest.mark.parametrize("case", ["truncated", "nan_first", "nan_last"])
def test_streamed_lpdw_fault_is_one_error_line(small_corpus, monkeypatch, case):
    monkeypatch.setattr(fileio, "_CHUNK_BYTES", 64)
    path = os.path.join(small_corpus, "bad.lpdw")
    blob, start = _projection_file(path)
    if case == "truncated":
        bad, want = blob[:start + 300], f"truncated at byte {start}"
    else:
        at = start if case == "nan_first" else start + 159 * 4
        bad = blob[:at] + np.array([np.nan], dtype="<f4").tobytes() + blob[at + 4:]
        want = f"non-finite value in the 160 items at byte {start}"
    with open(path, "wb") as fh:
        fh.write(bad)
    assert _streamed_error(small_corpus, _DESCRIBE) == f"E:FormatError:bad.lpdw: {want}\n"


def test_streamed_map_and_clusters_truncated_mid_array(small_corpus):
    with open(os.path.join(small_corpus, "m.lpdm"), "rb") as fh:
        lpdm = fh.read()
    with open(os.path.join(small_corpus, "m.lpdc"), "rb") as fh:
        lpdc = fh.read()
    with open(os.path.join(small_corpus, "bad.lpdm"), "wb") as fh:
        fh.write(lpdm[:-7])
    # the rows start after the 8-byte head, the u32 dim and the u64 count
    assert _streamed_error(small_corpus, ["cluster", "bad.lpdm", "-o", "d.lpdc", "--D", "2"]) \
        == "E:FormatError:bad.lpdm: truncated at byte 20\n"
    k = struct.unpack_from("<I", lpdc, 8)[0]
    centers = len(lpdc) - 4 * k * placemap.load(os.path.join(small_corpus, "m.lpdm")).dim
    with open(os.path.join(small_corpus, "bad.lpdc"), "wb") as fh:
        fh.write(lpdc[:-3])
    argv = ["match", "m.lpdm", "bad.lpdc", os.path.join("c", "query"), "--baseline",
            "--n-sub", "32", "--k-local", "4"]
    assert _streamed_error(small_corpus, argv) \
        == f"E:FormatError:bad.lpdc: truncated at byte {centers}\n"


def _sources():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


_OS_FILE_CALLS = {"open", "read", "pread", "preadv"}


def test_one_file_boundary_and_one_pool():
    for name, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "open" or name == "fileio.py", f"open() in {name}"
            if isinstance(node, ast.Attribute) and (node.attr == "readinto" or (
                    node.attr in _OS_FILE_CALLS and getattr(node.value, "id", None) == "os")):
                assert name == "fileio.py", f".{node.attr} in {name}"
            ident = getattr(node, "id", None) or getattr(node, "attr", None) \
                or getattr(node, "name", None)
            if ident == "ThreadPoolExecutor":
                assert name == "_accel.py", f"ThreadPoolExecutor in {name}"
            if isinstance(node, ast.FunctionDef):
                assert node.name != "take", f"take() reader in {name}"


# Config keys whose defaults another module owns: the stage objects (which also
# own their bounds), features.DEFAULT_K and cloud.DEFAULT_SUBMAP_SIZE
_STAGE_KEYS = {"W", "v_min", "v_max", "v_step", "accept_ratio", "mirror", "k_graph", "K_max",
               "k_local", "n_sub"}


def test_stage_keys_have_one_owner():
    """Config.validate states no stage bound, and Config copies no stage default."""
    config = dict(_sources())["config.py"]
    cls = next(n for n in config.body if isinstance(n, ast.ClassDef) and n.name == "Config")
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and node.target.id in _STAGE_KEYS:
            assert not isinstance(node.value, ast.Constant), \
                f"Config.{node.target.id} default written in config.py"
    validate = next(n for n in cls.body
                    if isinstance(n, ast.FunctionDef) and n.name == "validate")
    bounded = {"W", "v_min", "v_max", "v_step", "accept_ratio", "k_graph", "D"}
    for node in ast.walk(validate):
        if isinstance(node, ast.Compare) and not all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            for part in ast.walk(node):
                if isinstance(part, ast.Attribute):
                    assert part.attr not in bounded, \
                        f"Config.validate compares {part.attr}"


def test_one_batch_describer():
    # the pool runs the frames of one directory and the elbow sweep's K jobs;
    # a second batch path over the same frames would be a second describer
    callers = []
    for name, tree in _sources():
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if isinstance(node, ast.Call) and "run_jobs" in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.append((name, func.name))
    assert sorted(callers) == [("cli.py", "_describe_dir"), ("cluster.py", "elbow_select")]


def test_only_placemap_knows_the_map_storage():
    pm = placemap.PlaceMap()
    pm.insert(placemap.PlaceEntry(0, Pose(0.0, 0.0, 0.0, 0), np.ones(4) / 2.0))
    storage = set(vars(pm))
    assert "entries" not in storage
    for name, tree in _sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                assert node.attr != "entries", f".entries in {name}"
                assert node.attr not in storage or name == "placemap.py", \
                    f"PlaceMap storage .{node.attr} in {name}"


def test_sequence_search_and_detect_loop_share_one_selector(monkeypatch):
    calls = []
    select = seqmatch._best_and_second

    def spy(scores, excl):
        calls.append(len(scores))
        return select(scores, excl)

    monkeypatch.setattr(seqmatch, "_best_and_second", spy)
    descs = random_unit(np.random.default_rng(3), 30, 16)
    params = seqmatch.MatchParams(W=4)
    seqmatch.sequence_search(seqmatch.difference_matrix(descs[:4], descs), params)
    pm = placemap.PlaceMap()
    for i, d in enumerate(descs):
        pm.insert(placemap.PlaceEntry(i, Pose(0.0, 0.0, 0.0, i), d))
    c = cluster.kmeanspp(descs.astype(np.float64), K=1, seed=0)
    seqmatch.detect_loop(descs[10:14], pm, cluster.super_keyframes(pm, c), params)
    assert calls == [30, 30]


def test_mirror_search_is_the_one_trajectory_grid(monkeypatch):
    # mirror mode scores reversed lines as negated offsets of the same grid:
    # no trajectory_grid call sees a reversed (negative-stride) matrix
    calls = []
    grid = seqmatch.kernels.trajectory_grid

    def spy(m, offsets, *args, **kwargs):
        calls.append((np.asarray(m).strides[1], int(np.asarray(offsets).min())))
        return grid(m, offsets, *args, **kwargs)

    monkeypatch.setattr(seqmatch.kernels, "trajectory_grid", spy)
    descs = random_unit(np.random.default_rng(4), 40, 16)
    params = seqmatch.MatchParams(W=5, mirror=True)
    seqmatch.sequence_search(seqmatch.difference_matrix(descs[20:25][::-1], descs), params)
    pm = placemap.PlaceMap()
    for i, d in enumerate(descs):
        pm.insert(placemap.PlaceEntry(i, Pose(0.0, 0.0, 0.0, i), d))
    c = cluster.kmeanspp(descs.astype(np.float64), K=1, seed=0)
    seqmatch.detect_loop(descs[20:25][::-1], pm, cluster.super_keyframes(pm, c), params)
    assert len(calls) >= 3
    assert all(stride > 0 and lowest < 0 for stride, lowest in calls), calls


def test_one_exact_knn():
    # the exhaustive top-k runs only as the fallback scan of the one exact kNN,
    # the candidate re-rank only inside it, and rows rank by one stable sort,
    # never by np.lexsort
    callers = {"_topk_rows": [], "_rerank": []}
    for name, tree in _sources():
        for node in ast.walk(tree):
            ident = getattr(node, "id", None) or getattr(node, "attr", None)
            assert ident != "lexsort", f"lexsort in {name} line {node.lineno}"
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    ident = getattr(node, "id", None) or getattr(node, "attr", None)
                    if ident in callers:
                        callers[ident].append((name, func.name))
    assert callers == {"_topk_rows": [("kernels.py", "_exact_knn")],
                       "_rerank": [("kernels.py", "_exact_knn")]}, callers


def test_only_kernels_compute_squared_distances():
    # every squared distance comes from the kernels, which fix each reduction
    # (.sum or einsum) the oracles define; a power of a constant is no distance
    for name, tree in _sources():
        if name == "kernels.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign):
                assert not isinstance(node.op, ast.Pow), f"**= in {name} line {node.lineno}"
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                assert isinstance(node.left, ast.Constant), f"** in {name} line {node.lineno}"
