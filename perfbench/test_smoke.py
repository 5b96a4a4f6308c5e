"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Every metric named in BENCHMARK.json must come out with its declared unit
under a well-formed name, and a corrupted output must count as a failed
operation.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
LPDM_FIRST_DESC_HIGH_BYTE = 20 + 32 + 3  # header, first entry's id and pose, float32 MSB

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(workload, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace),
                           "--scale", "tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    res = _run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert NAME.fullmatch(m["name"]), m["name"]
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def test_flipped_lpdm_byte_counts_as_failed_op(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(HERE)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import hostspeed
    import run
    import workloads
    from seqlpd import placemap

    size = workloads.SIZES["tiny"]["loop_baseline"]
    inputs = str(tmp_path / "inputs")
    workloads.LoopWorkload.generate("loop_baseline", 3, size, inputs)
    wl = workloads.LoopWorkload("loop_baseline", size, inputs, str(tmp_path))
    clock = hostspeed.SpeedClock()
    clean = wl.run_pass(clock)

    save = placemap.save

    def save_then_flip(pmap, path):
        save(pmap, path)
        with open(path, "r+b") as fh:
            fh.seek(LPDM_FIRST_DESC_HIGH_BYTE)
            byte = fh.read(1)[0]
            fh.seek(LPDM_FIRST_DESC_HIGH_BYTE)
            fh.write(bytes([byte ^ 0x40]))

    monkeypatch.setattr(placemap, "save", save_then_flip)
    broken = wl.run_pass(clock)

    passes = [(False, clean, None), (False, broken, None)]
    run.check_digests(passes)
    ops = run.tally(["same", "same"], passes)
    failed = [name for name, ok, _ in ops if not ok]
    assert clean.ok and clean.pipeline_s > 0.0
    assert failed and not broken.ok
    assert broken.pipeline_s == 0.0  # a failed pass gives no timing
