"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a wrong output counts as a failure, that times are scaled to reference
speed by the calibration around each op, and that a wrapped binding that is
gone is reported as missing rather than as a zero count.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import calibration  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    cmd = [sys.executable, "perfbench/run.py", "--tiny", "--seconds", "1", "--seed", "5", *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


def assert_metrics(result, spec):
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_every_end_to_end_metric(name):
    result = last_json(bench("--workload", name, "--trace", "0"))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_layer_metric():
    result = last_json(bench("--workload", "optimize_fit", "--trace", "1"))
    assert_metrics(result, SPEC["per_layer"])


def test_known_defect_cells_fail_without_marking_the_run_incorrect():
    result = last_json(bench("--workload", "big_chain", "--trace", "0"))
    assert result["failed"] >= 2
    assert result["correct"]


def test_wrong_output_counts_as_a_failure():
    wl = workloads.build("big_chain", 5, tiny=True)
    op = wl.ops[1]
    solve = op.call
    op.call = lambda: solve() + 1e-6  # a perturbed root
    rows, outputs = worker.run_cycle(wl)
    assert rows[1][1] == "wrong" and 1 not in outputs
    attempted, failed, correct, failures = worker.tally([(wl, rows)])
    assert attempted == len(wl.ops)
    assert not correct
    assert any(status == "wrong" for status, _, _ in failures.values())


def test_times_are_reported_at_reference_speed(monkeypatch):
    def host_at_half_speed(cal):
        cal.samples.append(2.0 * cal.reference_ms)
        return cal.samples[-1]

    monkeypatch.setattr(calibration.Calibration, "sample", host_at_half_speed)
    noop = workloads.Op("noop", {}, lambda: None, lambda out: None, items=1)
    r = worker.measure(workloads.Workload("optimize_fit", 5, [noop]), 0.0)
    assert r["attempted"] == worker.MIN_OPS and r["items"] == worker.MIN_OPS
    assert r["op_p50_ms"] == pytest.approx(r["raw_op_p50_ms"] / 2)
    assert r["op_p90_ms"] == pytest.approx(r["raw_op_p90_ms"] / 2)
    assert r["busy_s"] == pytest.approx(r["raw_busy_s"] / 2)


def test_low_coverage_fails_every_simulation():
    wl = workloads.build("oracle_sim", 5, tiny=True)
    outputs = {}
    for i, op in enumerate(wl.ops):
        if op.kind == "simulate":
            est = op.call()
            outputs[i] = type(est)(x_hat=est.x_hat, stderr=np.full_like(est.stderr, 1e-9))
    bad, why = wl.group_check(outputs)
    assert sorted(bad) == sorted(outputs) and "coverage" in why


def test_missing_binding_is_reported_missing(monkeypatch):
    bindings = [b for b in tracing.BINDINGS if b[2] != "solver.residual"]
    bindings.append(("chainfair.solver", "residual_renamed_away", "solver.residual"))
    monkeypatch.setattr(tracing, "BINDINGS", tuple(bindings))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics, missing = tracing.layer_metrics(tracer, [], {}, 1.0)
    assert "solver.residual.calls" not in metrics
    assert "residual_renamed_away" in missing["solver.residual.calls"]
    assert metrics["solver.newton_solve.calls"] == (0, "count")


def test_inputs_follow_the_seed():
    a = workloads.build("optimize_fit", 5).input_hash()
    assert a == workloads.build("optimize_fit", 5).input_hash()
    assert a != workloads.build("optimize_fit", 6).input_hash()


def test_refuses_to_run_without_the_package():
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", "big_chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
