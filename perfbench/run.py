"""seqlpd pipeline benchmark.

One workload per run:

    python3 perfbench/run.py --workload loop_baseline --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric of the
traced passes, plus the tracing overhead.  The line before it is a JSON
report: environment, sample counts, tail percentiles, digests, failures.
All three workloads, each untraced and then traced, each in a fresh
interpreter:

    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the program is imported from
``src/``.  ``--seconds`` defaults to ``run_seconds`` of BENCHMARK.json.
Timings are scaled to a fixed host speed (see hostspeed.py).  Scratch files
go to ``.perfbench_work/``.  See perfbench/README.md.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
NAMES = ("loop_baseline", "loop_net", "bigmap")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "describe_fps": "frames/s", "cluster_s": "s",
    "window_p50_ms": "ms", "window_tail_ms": "ms", "recall_at_1": "%",
    "loop_tp_pct": "%", "no_false_accept_pct": "%", "peak_rss_mb": "MB",
    "ok_ops_pct": "%",
}


def pin_threads() -> dict:
    """Pool workers x BLAS threads <= available cores; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    workers = cores
    blas = str(max(1, cores // workers))
    pinned = {"SEQLPD_THREADS": str(workers), "OPENBLAS_NUM_THREADS": blas,
              "OMP_NUM_THREADS": blas, "MKL_NUM_THREADS": blas}
    os.environ.update(pinned)
    return {"cores": cores, **pinned}


def _import_program():
    if not os.path.isdir(os.path.join(SRC, "seqlpd")):
        sys.stderr.write(f"run from a source checkout: {SRC}/seqlpd not found\n")
        sys.exit(1)
    sys.path[:0] = [SRC, HERE]


def setup_child(args):
    """Import seqlpd and generate the inputs; prints the set-up time and an input digest."""
    t0 = time.perf_counter()
    _import_program()
    import workloads

    size = workloads.SIZES[args.scale][args.workload]
    workloads.WORKLOADS[args.workload].generate(args.workload, args.seed, size,
                                                args.setup_into)
    secs = time.perf_counter() - t0
    print(json.dumps({"setup_s": secs, "inputs": workloads.tree_digest(args.setup_into)}))


def _child(argv):
    return subprocess.run([sys.executable, os.path.abspath(__file__)] + argv,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def set_up(args, run_dir, clock):
    """Set up SETUP_REPEATS times in fresh interpreters.

    Returns the inputs dir, the set-up times scaled by ``clock``, the raw
    times and the input digests.
    """
    raw, digests = [], []
    clock.split()
    first = len(clock.samples) - 1
    for i in range(SETUP_REPEATS):
        out = os.path.join(run_dir, f"inputs{i}")
        proc = _child(["--workload", args.workload, "--seed", str(args.seed),
                       "--scale", args.scale, "--setup-into", out])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.stderr.write(f"set-up failed with exit code {proc.returncode}\n")
            sys.exit(1)
        res = json.loads(proc.stdout.splitlines()[-1])
        raw.append(res["setup_s"])
        clock.split()
        digests.append(res["inputs"])
        if i:
            shutil.rmtree(out)
    # One factor for every set-up, from all reference samples taken around
    # them: a set-up is too short for the two samples at its ends alone.
    factor = clock.factor(clock.samples[first:])
    return os.path.join(run_dir, "inputs0"), [t * factor for t in raw], raw, digests


def measure(wl, clock, seconds, trace, min_rounds):
    """Closed-loop passes until ``seconds`` would be exceeded; traced runs alternate
    an untraced and a traced pass.  Returns ([(traced, Pass, layer metrics)], tracer)."""
    import spans

    tracer = spans.Tracer() if trace else None
    passes = []
    rounds = 0
    t_start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            layer = None
            if traced:
                first = len(tracer.spans)
                with spans.instrumented(tracer):
                    p = wl.run_pass(clock, tracer)
                layer = spans.summarize(tracer.spans[first:], p.wall_s, wl.query_dir)
            else:
                p = wl.run_pass(clock)
            passes.append((traced, p, layer))
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and (now - t_start) + (now - t_round) > seconds:
            return passes, tracer


def check_digests(passes):
    """Every pass must reproduce the digests of the first complete pass."""
    ref = next((p.digests for _, p, _ in passes if p.digests), None)
    for traced, p, _ in passes:
        if p.digests is ref or not p.digests:
            continue
        for key, val in ref.items():
            p.check(f"{key}.digest", p.digests.get(key) == val,
                    f"{'traced' if traced else 'untraced'} pass gave {p.digests.get(key)}, "
                    f"first pass {val}")
    return ref


def tally(setup_digests, passes):
    """Every operation of a run: each set-up, the set-up digest check, each pass's ops."""
    setup = [("setup", True, "")] * len(setup_digests)
    setup.append(("setup.inputs_digest", len(set(setup_digests)) == 1,
                  f"set-up gave different inputs: {setup_digests}"))
    return setup + [op for _, p, _ in passes for op in p.ops]


def _median(values):
    return statistics.median(values) if values else 0.0


def environment(pinned):
    import numpy
    import scipy

    src_lines = 0
    pkg = os.path.join(SRC, "seqlpd")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {**pinned, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "machine": platform.machine(), "src_lines": src_lines}


def run_one(args):
    pinned = pin_threads()
    _import_program()
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        import hostspeed
        import numpy as np
        import workloads

        clock = hostspeed.SpeedClock()
        with hostspeed.pinned():  # each set-up is one single-threaded process
            inputs, setup_times, setup_raw, setup_digests = set_up(args, run_dir, clock)
        size = workloads.SIZES[args.scale][args.workload]
        wl = workloads.WORKLOADS[args.workload](args.workload, size, inputs, run_dir)
        min_rounds = 1 if args.trace else size["min_rounds"]
        passes, tracer = measure(wl, clock, args.seconds, args.trace, min_rounds)
        digests = check_digests(passes)
        if tracer is not None:
            tracer.write(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = tally(setup_digests, passes)
    failed = [op for op in ops if not op[1]]
    attempted = len(ops)
    plain = [p for t, p, _ in passes if not t and p.ok]
    traced = [(p, layer) for t, p, layer in passes if t and p.ok]

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "env": environment(pinned),
              "setup_s_samples": setup_times, "setup_wall_s": setup_raw,
              "reference_s": {"nominal": hostspeed.NOMINAL_S,
                              "median": statistics.median(clock.samples),
                              "min": min(clock.samples), "max": max(clock.samples),
                              "samples": len(clock.samples)},
              "inputs_digest": setup_digests[0],
              "passes": {"untraced": sum(1 for t, _, _ in passes if not t),
                         "traced": sum(1 for t, _, _ in passes if t),
                         "ok_untraced": len(plain), "ok_traced": len(traced)},
              "digests": digests,
              "failures": sorted({f"{name}: {detail}" for name, _, detail in failed})[:10]}

    if args.trace:
        import spans

        metrics = {k: _median([layer[k] for _, layer in traced]) for k in spans.LAYER_UNITS}
        untraced_s = _median([p.pipeline_s for p in plain])
        traced_s = _median([p.pipeline_s for p, _ in traced])
        metrics["trace.overhead_s"] = traced_s - untraced_s
        report.update(untraced_pipeline_s=untraced_s, traced_pipeline_s=traced_s)
        units = spans.LAYER_UNITS
    else:
        lat = [x for p in plain for x in p.window_ms]
        tail_pct = size["tail_pct"]
        windows = sum(p.windows for p in plain)
        false_pct = _median([100.0 * p.false_acc / p.windows for p in plain])
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pipeline_s": _median([p.pipeline_s for p in plain]),
            "describe_fps": _median([x for p in plain for x in p.describe_fps]),
            "cluster_s": _median([x for p in plain for x in p.cluster_s]),
            "window_p50_ms": float(np.percentile(lat, 50)) if lat else 0.0,
            "window_tail_ms": float(np.percentile(lat, tail_pct)) if lat else 0.0,
            "recall_at_1": _median([p.recall_at_1 for p in plain]),
            "loop_tp_pct": _median([100.0 * p.true_pos / max(1, p.revisits) for p in plain]),
            "no_false_accept_pct": 100.0 - false_pct if plain else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_pct": 100.0 * (attempted - len(failed)) / attempted,
        }
        units = E2E_UNITS
        rule = metrics["loop_tp_pct"] >= 100.0 * workloads.ACCEPT_SHARE
        report.update(samples={"pipeline_s": len(plain), "windows": len(lat),
                               "describe_fps": sum(len(p.describe_fps) for p in plain),
                               "cluster_s": sum(len(p.cluster_s) for p in plain)},
                      pass_pipeline_s=[p.pipeline_s for p in plain],
                      pass_wall_s=[p.wall_s for p in plain],
                      window_tail_pct=tail_pct,
                      window_beyond_tail=sum(1 for x in lat if x > metrics["window_tail_ms"]),
                      windows_per_pass=windows // max(1, len(plain)),
                      false_accept_pct=false_pct,
                      criterion08_rule_met=rule,
                      failed_ops_pct=100.0 * len(failed) / attempted)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))


def run_all(args):
    """Every workload untraced, then traced, each in a fresh interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--scale", args.scale],
                capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(proc.returncode)
            res = json.loads(proc.stdout.splitlines()[-1])
            for metric, v in res["metrics"].items():
                print(f"{name:14s} trace={trace} {metric:44s} {v['value']:16.6g} {v['unit']}")
                total["metrics"][f"{name}.{metric}"] = v
            total["correct"] = total["correct"] and res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
    print(json.dumps(total))


def _run_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return float(json.load(fh)["run_seconds"])


def main():
    parser = argparse.ArgumentParser(description="seqlpd pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes")
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_into:
        setup_child(args)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
