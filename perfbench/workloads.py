"""The benchmark workloads: input generation, one timed pipeline pass, output checks.

Every workload is one closed-loop caller: each call starts after the
previous one returns.  Inputs derive from the seed alone.  A pass records
its operations as ``(name, ok, detail)``: CLI commands (ok when the exit code
is 0 and stderr is empty), library calls (ok when they return), and checks
on their outputs.  A pass with a failed operation gives no timings.
"""

import contextlib
import hashlib
import io
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import hostspeed
from seqlpd import cli, cluster, metrics, net, placemap, seqmatch, synth
from seqlpd.cloud import Pose

# Sizes per scale.  "full" is what the benchmark measures; "tiny" only backs
# the smoke test.  At full scale min_rounds and tail_pct are chosen together
# so that at least ten window latencies lie beyond the tail percentile of
# every run.
SIZES = {
    "full": {
        "loop_baseline": dict(places=60, points=256, n_sub=1024, W=10,
                              min_rounds=2, tail_pct=90),
        "loop_net": dict(places=24, points=256, n_sub=1024, W=5,
                         min_rounds=2, tail_pct=75),
        "bigmap": dict(frames=5000, types=16, block=50, replays=200, unseen=100,
                       min_rounds=1, tail_pct=95),
    },
    "tiny": {
        "loop_baseline": dict(places=30, points=64, n_sub=256, W=5,
                              min_rounds=1, tail_pct=50),
        "loop_net": dict(places=16, points=64, n_sub=256, W=5,
                         min_rounds=1, tail_pct=50),
        "bigmap": dict(frames=600, types=8, block=25, replays=30, unseen=15,
                       min_rounds=1, tail_pct=75),
    },
}

LOOP_SIGMA = 0.05
LOOP_D = 2.0
LOOP_GT_RADIUS = 1.0
ACCEPT_SHARE = 0.95      # criterion 08: windows accepted within +-1 frame
BIG_DIM = 256
BIG_SPREAD = 0.15        # weight of a frame's own component next to its place type
BIG_NOISE = 0.003        # per-dimension noise of a replayed window
BIG_SPACING = 1.0
BIG_D = 1.0
BIG_GT_RADIUS = 0.5
BIG_WINDOW_CHUNK = 100   # detect_loop windows per timed segment


class PassAborted(Exception):
    """A call of the pass failed; later calls depend on its output."""


@dataclass
class Pass:
    """Outcome of one pipeline pass."""

    ops: list = field(default_factory=list)
    pipeline_s: float = 0.0   # timed segments, scaled to the reference host speed
    describe_fps: list = field(default_factory=list)
    cluster_s: list = field(default_factory=list)
    window_ms: list = field(default_factory=list)
    windows: int = 0
    revisits: int = 0
    true_pos: int = 0
    false_acc: int = 0
    recall_at_1: float = 0.0
    digests: dict = field(default_factory=dict)
    wall_s: float = 0.0   # unscaled wall time of the timed segments
    factor: float = 1.0   # speed factor of the last segment

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.ops)

    @contextlib.contextmanager
    def segment(self, clock, tracer, name):
        """Time one step of the pipeline; its seconds count scaled by the clock's factor."""
        t0 = time.perf_counter()
        with _stage(tracer, name):
            yield
        secs = time.perf_counter() - t0
        self.factor = clock.split()
        self.wall_s += secs
        self.pipeline_s += secs * self.factor

    def aborted(self):
        """A failed pass gives no timings and no digests."""
        self.pipeline_s = self.wall_s = 0.0
        self.digests = {}
        return self

    def check(self, name, cond, detail=""):
        self.ops.append((name, bool(cond), "" if cond else detail))

    def call(self, name, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a library call that raised is a failed op
            self.ops.append((name, False, f"{type(exc).__name__}: {exc}"))
            raise PassAborted(name) from exc
        self.ops.append((name, True, ""))
        return out


def _stage(tracer, name):
    return tracer.stage(name) if tracer is not None else contextlib.nullcontext()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def tree_digest(root) -> str:
    """Digest of every file under ``root`` (relative names and bytes)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_cli(argv):
    """cli.main in-process: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except Exception:  # an escaped traceback is a failed command
            traceback.print_exc()
            rc = -1
    return rc, time.perf_counter() - t0, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def _recorded(module, attr, sink):
    """Append ``(result, seconds)`` of every ``module.attr`` call to ``sink``."""
    orig = getattr(module, attr)

    def recorded(*args, **kwargs):
        t0 = time.perf_counter()
        result = orig(*args, **kwargs)
        sink.append((result, time.perf_counter() - t0))
        return result

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, orig)


class LoopWorkload:
    """`seqlpd synth --scenario loop`, then describe -> cluster -> match -> eval via cli.main."""


    def __init__(self, name, size, inputs, work):
        self.size = size
        self.map_dir = os.path.join(inputs, "map")
        self.query_dir = os.path.join(inputs, "query")
        self.lpdm = os.path.join(work, "map.lpdm")
        self.lpdc = os.path.join(work, "map.lpdc")
        self.gt = dict(synth.read_gt(os.path.join(inputs, "gt.csv")))
        if name == "loop_net":
            self.describe_flags = ["--weights", os.path.join(inputs, "weights.lpdw")]
        else:
            self.describe_flags = ["--baseline"]
        self.describe_flags += ["--n-sub", size["n_sub"]]

    @staticmethod
    def generate(name, seed, size, out):
        rc, _, _, err = run_cli(["synth", out, "--scenario", "loop", "--sigma", LOOP_SIGMA,
                                 "--seed", seed, "--places", size["places"],
                                 "--points", size["points"]])
        if rc != 0 or err:
            raise RuntimeError(f"synth failed: {err.strip()}")
        if name == "loop_net":
            net.save_weights(net.random_weights(net.NetConfig(), seed),
                             os.path.join(out, "weights.lpdw"))

    def _command(self, p, name, argv):
        rc, secs, out, err = run_cli(argv)
        detail = f"exit {rc}: {err.strip()[:300]}"
        p.check(name, rc == 0 and not err, detail)
        if rc != 0 or err:
            raise PassAborted(name)
        return secs, out

    def _cluster_repeat(self, p, clock, argv):
        """One more `cluster` command outside the timed pipeline, for a cluster_s sample.

        The command lasts 50-110 ms, and its speed shifts from one second
        to the next, so one sample is taken after each of the cluster, match
        and eval steps rather than several in a row.
        """
        with hostspeed.pinned():  # the command is single-threaded: time it on one core
            clock.split()
            rc, secs, _, err = run_cli(argv)
            factor = clock.split()
        clock.split()  # the next step's first sample covers every core again
        with open(self.lpdc, "rb") as fh:
            same = _sha(fh.read()) == p.digests["lpdc"]
        p.check("cluster.repeat", rc == 0 and not err and same,
                f"exit {rc}, same output {same}: {err.strip()[:300]}")
        p.cluster_s.append(secs * factor)

    def run_pass(self, clock, tracer=None) -> Pass:
        p = Pass()
        flags = self.describe_flags
        cluster_argv = ["cluster", self.lpdm, "-o", self.lpdc, "--D", LOOP_D]
        # (result, seconds) of every describe_dir and detect_loop call, untraced passes only
        described, matched = [], []
        recorders = contextlib.ExitStack()
        if tracer is None:
            recorders.enter_context(_recorded(cli, "_describe_dir", described))
            recorders.enter_context(_recorded(seqmatch, "detect_loop", matched))
        repeat = (lambda: self._cluster_repeat(p, clock, cluster_argv)) if tracer is None \
            else (lambda: None)

        def describe_rates(first):
            # frames per second of each directory described since ``first``
            p.describe_fps += [len(ids) / (secs * p.factor)
                               for (ids, *_), secs in described[first:]]

        clock.split()
        try:
            with recorders:
                with p.segment(clock, tracer, "describe"):
                    self._command(p, "describe", ["describe", self.map_dir, "-o",
                                                  self.lpdm] + flags)
                describe_rates(0)
                with p.segment(clock, tracer, "cluster"):
                    secs, _ = self._command(p, "cluster", cluster_argv)
                p.cluster_s.append(secs * p.factor)
                with open(self.lpdc, "rb") as fh:
                    p.digests["lpdc"] = _sha(fh.read())
                repeat()
                first = len(described)
                with p.segment(clock, tracer, "match"):
                    _, match_out = self._command(p, "match", ["match", self.lpdm, self.lpdc,
                                                              self.query_dir, "--W",
                                                              self.size["W"]] + flags)
                describe_rates(first)
                if tracer is None:
                    # A window's decision costs online the describe time the program
                    # reports for its newest query frame plus its detect_loop call.
                    (_, _, _, stats), _ = described[first]
                    frame_s = [secs for _, secs in stats]
                    lag = len(frame_s) - len(matched)
                    p.window_ms = [1e3 * (frame_s[lag + k] + secs) * p.factor
                                   for k, (_, secs) in enumerate(matched)]
                repeat()
                first = len(described)
                with p.segment(clock, tracer, "eval"):
                    _, eval_out = self._command(p, "eval", ["eval", self.lpdm, self.query_dir,
                                                            "--gt-radius", LOOP_GT_RADIUS,
                                                            "--n", "1,5"] + flags)
                describe_rates(first)
                repeat()
        except PassAborted:
            return p.aborted()

        for line in match_out.splitlines():
            fields = dict(kv.split("=", 1) for kv in line.split())
            truth = self.gt.get(int(fields["frame"]))
            accepted = fields["accepted"] == "true"
            good = accepted and truth is not None and abs(int(fields["ref"]) - truth) <= 1
            p.windows += 1
            p.revisits += truth is not None
            p.true_pos += good
            p.false_acc += accepted and not good
        rows = {r.split(",")[0]: r.split(",")[1] for r in eval_out.splitlines()[1:]}
        p.check("eval.recall_row", "recall_at_1" in rows, "no recall_at_1 row")
        p.recall_at_1 = float(rows.get("recall_at_1", 0.0))
        with open(self.lpdm, "rb") as fh:
            p.digests["lpdm"] = _sha(fh.read())
        p.digests["match_stdout"] = _sha(match_out.encode())
        return p


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class BigmapWorkload:
    """Library-driven map side: PlaceMap write/read, clustering, windowed loop detection.

    The map is a path through a fixed set of place types, visited in blocks of
    ``block`` frames; each frame is its type's direction plus its own
    component, so elbow finds the types and a window's candidate runs cover
    only the blocks of one type.  Query windows are noisy replays of map
    segments (to be accepted at their end frame) and segments of places the
    path never visits (to be rejected).
    """

    query_dir = ""  # no frames are described

    def __init__(self, name, size, inputs, work):
        self.size = size
        arrays = {k: np.load(os.path.join(inputs, f"{k}.npy"))
                  for k in ("desc", "poses", "windows", "truth", "wposes")}
        self.__dict__.update(arrays)
        self.lpdm = os.path.join(work, "map.lpdm")
        self.lpdc = os.path.join(work, "map.lpdc")
        self.params = seqmatch.MatchParams()

    @staticmethod
    def generate(name, seed, size, out):
        rng = np.random.default_rng([seed, 7])
        frames, types, block = size["frames"], size["types"], size["block"]
        w = seqmatch.MatchParams().W
        bases = _unit(rng.normal(size=(types, BIG_DIM)))
        n_blocks = frames // block
        order = np.concatenate([rng.permutation(types)
                                for _ in range(-(-n_blocks // types))])[:n_blocks]
        kind = np.repeat(order, block)
        own = _unit(rng.normal(size=(kind.shape[0], BIG_DIM)))
        desc = _unit(bases[kind] + BIG_SPREAD * own).astype(np.float32)
        n = desc.shape[0]
        poses = np.zeros((n, 3))
        poses[:, 0] = BIG_SPACING * np.arange(n)

        ends = np.sort(rng.choice(np.arange(w - 1, n), size=size["replays"], replace=False))
        replay = desc[ends[:, None] - np.arange(w - 1, -1, -1)[None, :]].astype(np.float64)
        replay = _unit(replay + rng.normal(0.0, BIG_NOISE, size=replay.shape))
        # An unseen segment is a place the path never visits: a direction of
        # its own, not one of the map's place types.  A segment of a mapped
        # type is as close to that type's blocks as a true revisit (mean
        # distance ~0.2 against ~1.4 across types), so the ratio test rightly
        # accepts it wherever the type has no second block outside the
        # exclusion zone.
        unseen_base = _unit(rng.normal(size=(size["unseen"], BIG_DIM)))
        unseen = _unit(unseen_base[:, None, :]
                       + BIG_SPREAD * _unit(rng.normal(size=(size["unseen"], w, BIG_DIM))))
        unseen_poses = np.zeros((size["unseen"], 3))
        unseen_poses[:, 1] = 1e6  # far from the map: no ground-truth positive
        order = rng.permutation(size["replays"] + size["unseen"])
        arrays = {
            "desc": desc,
            "poses": poses,
            "windows": np.concatenate([replay, unseen])[order],
            "truth": np.concatenate([ends, np.full(size["unseen"], -1)])[order],
            "wposes": np.concatenate([poses[ends], unseen_poses])[order],
        }
        os.makedirs(out, exist_ok=True)
        for key, arr in arrays.items():
            np.save(os.path.join(out, f"{key}.npy"), arr)

    def run_pass(self, clock, tracer=None) -> Pass:
        p = Pass()
        n = self.desc.shape[0]
        results = []
        clock.split()
        try:
            with p.segment(clock, tracer, "insert"):
                pm = placemap.PlaceMap()
                p.call("insert_all", lambda: [
                    pm.insert(placemap.PlaceEntry(i, Pose(*self.poses[i], i), self.desc[i]))
                    for i in range(n)])
            with p.segment(clock, tracer, "map_io"):
                p.call("placemap.save", placemap.save, pm, self.lpdm)
                pm = p.call("placemap.load", placemap.load, self.lpdm)
            with p.segment(clock, tracer, "cluster"):
                t_clu = time.perf_counter()
                x = pm.descriptor_matrix().astype(np.float64)
                res = p.call("elbow_select", cluster.elbow_select, x,
                             cluster.ClusterParams(D=BIG_D))
                skf = p.call("super_keyframes", cluster.super_keyframes, pm, res.clustering)
                cluster_s = time.perf_counter() - t_clu
            p.cluster_s.append(cluster_s * p.factor)
            with p.segment(clock, tracer, "cluster_io"):
                p.call("save_clusters", cluster.save_clusters, skf, BIG_D, self.lpdc)
                skf, _ = p.call("load_clusters", cluster.load_clusters, self.lpdc, pm)
            # the windows in chunks, so that each chunk's speed factor is its own
            for lo in range(0, len(self.windows), BIG_WINDOW_CHUNK):
                window_ms = []
                with p.segment(clock, tracer, "match"):
                    for window in self.windows[lo:lo + BIG_WINDOW_CHUNK]:
                        t_w = time.perf_counter()
                        r = p.call("detect_loop", seqmatch.detect_loop, window, pm, skf,
                                   self.params)
                        window_ms.append((time.perf_counter() - t_w) * 1e3)
                        results.append(r)
                p.window_ms += [ms * p.factor for ms in window_ms]
            with p.segment(clock, tracer, "eval"):
                rec = p.call("recall_at_n", metrics.recall_at_n, self.windows[:, -1],
                             self.wposes, pm, BIG_GT_RADIUS, 1)
        except PassAborted:
            return p.aborted()
        p.describe_fps.append(n / p.pipeline_s)

        loaded = np.stack([e.descriptor for e in pm])  # not via the traced descriptor_matrix
        p.check("map_io.roundtrip", np.array_equal(loaded, self.desc),
                "loaded map differs from the inserted descriptors")
        k_max = cluster.ClusterParams(D=BIG_D).K_max
        p.check("cluster.elbow_inside", 2 < res.K < k_max,
                f"elbow chose K={res.K}, outside (2, {k_max})")
        unseen_acc = 0
        for truth, r in zip(self.truth, results):
            p.windows += 1
            if truth < 0:
                unseen_acc += r.accepted
                p.false_acc += r.accepted
                continue
            good = r.accepted and abs(r.ref_end - int(truth)) <= 1
            p.revisits += 1
            p.true_pos += good
            p.false_acc += r.accepted and not good
        p.check("match.unseen_rejected", unseen_acc == 0,
                f"{unseen_acc} unseen windows accepted")
        p.check("match.accuracy", p.true_pos >= ACCEPT_SHARE * p.revisits,
                f"{p.true_pos}/{p.revisits} replays accepted within +-1")
        p.recall_at_1 = rec.percentage
        with open(self.lpdm, "rb") as fh:
            p.digests["lpdm"] = _sha(fh.read())
        with open(self.lpdc, "rb") as fh:
            p.digests["lpdc"] = _sha(fh.read())
        p.digests["matches"] = _sha(repr([(r.ref_end, r.velocity, r.score, r.accepted,
                                           r.cluster_id) for r in results]).encode())
        return p


WORKLOADS = {"loop_baseline": LoopWorkload, "loop_net": LoopWorkload,
             "bigmap": BigmapWorkload}
