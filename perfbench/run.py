"""chainfair benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload big_chain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload oracle_sim --seed 1 --trace 1
    python3 perfbench/run.py                      # every workload, untraced

Each workload runs in fresh single-threaded processes (perfbench/worker.py)
that import the package from ``src``. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. perfbench/README.md
describes the workloads, the metrics and the reference checks.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# workloads.WORKLOADS; the runner does not import the package itself
WORKLOADS = ("big_chain", "optimize_fit", "oracle_sim")
SETUP_SAMPLES = 5
CLI_SAMPLES = 3
DEADLINE_S = 170.0
SPANS_DIR = ROOT / ".perfbench_out"


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # a fixed string-hash seed keeps the allocation pattern the same from run
    # to run; with random seeds one big_chain cycle peaked at 484 to 552 MB
    env["PYTHONHASHSEED"] = "0"
    env.pop("CHAINFAIR_OUTDIR", None)
    return env


def spawn(cmd, deadline):
    """Run one child to completion. Returns (stdout, monotonic ns at spawn, seconds)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + " ".join(cmd[1:3]))
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        raise BenchError(f"timed out: {' '.join(cmd)}") from e
    seconds = (time.monotonic_ns() - t0) / 1e9
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout, t0, seconds


def worker(args, mode, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--mode", mode, "--seconds", str(args.seconds)]
    if args.tiny:
        cmd.append("--tiny")
    if mode == "trace":
        SPANS_DIR.mkdir(exist_ok=True)
        cmd += ["--spans", str(SPANS_DIR / f"spans_{args.workload}.csv")]
    out, spawned_ns, _ = spawn(cmd, deadline)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError) as e:
        raise BenchError(f"no result from {' '.join(cmd)}") from e
    result["setup_s"] = (result["ready_ns"] - spawned_ns) / 1e9
    return result


def startup_sample(deadline):
    """Seconds to start an interpreter that imports numpy: the host's start-up speed now."""
    return spawn([sys.executable, "-c", "import numpy"], deadline)[2]


def untraced(args, deadline):
    """The measured process, with setup-only processes before and after it.

    Each process is bracketed by start-up calibration processes, so that
    setup_s, like the op times, is reported at reference speed.
    """
    extra = 0 if args.tiny else SETUP_SAMPLES - 1
    modes = ["setup"] * (extra // 2) + ["measure"] + ["setup"] * (extra - extra // 2)
    setups, raw_setups, startups, hashes = [], [], [startup_sample(deadline)], set()
    for mode in modes:
        res = worker(args, mode, deadline)
        startups.append(startup_sample(deadline))
        setups.append(res["setup_s"] * calibration.STARTUP_REFERENCE_S / (0.5 * (startups[-2] + startups[-1])))
        raw_setups.append(res["setup_s"])
        hashes.add(res["inputs"][args.workload])
        if mode == "measure":
            r = res
    if len(hashes) != 1:
        raise BenchError(f"inputs differ between processes of one run: {sorted(hashes)}")
    n = r["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (r["items"] / r["busy_s"], "items/s"),
        "op_p50_ms": (r["op_p50_ms"], "ms"),
        "op_p90_ms": (r["op_p90_ms"], "ms"),
        "ok_frac": ((n - r["failed"]) / n, "ratio"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
    }
    kind = calibration.KIND[args.workload]
    notes = [
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"cycles {r['cycles']} ({', '.join(f'{c:.3f}' for c in r['cycle_s'])} s), ops {n}, items {r['items']}",
        f"fail_frac {r['failed'] / n:.4f} ratio ({r['failed']} of {n} ops failed)",
        f"{kind} calibration loop: median {r['calibration_ms']:.3f} ms during the ops, "
        f"reference {calibration.REFERENCE_MS[kind]} ms",
        f"start-up calibration: median {statistics.median(startups):.4f} s, "
        f"reference {calibration.STARTUP_REFERENCE_S} s",
        "as measured, before scaling to reference speed:",
        f"  setup_s {statistics.median(raw_setups):.6f} s ({', '.join(f'{s:.4f}' for s in raw_setups)})",
        f"  items_per_s {r['items'] / r['raw_busy_s']:.6f} items/s",
        f"  op_p50_ms {r['raw_op_p50_ms']:.6f} ms, op_p90_ms {r['raw_op_p90_ms']:.6f} ms",
    ]
    return r, metrics, notes


def cli_probes(args, deadline):
    """Whole-process timings of the command line, import included (median of a few)."""
    py = sys.executable
    probes = {
        "cli.import_s": ([py, "-c", "import chainfair"], None),
        "cli.solve_process_s": (
            [py, "-m", "chainfair.cli", "solve", "--n", "100", "--alpha", "0.6826"],
            lambda out: len(out.splitlines()) == 101 and out.startswith("pair,x\n"),
        ),
        "cli.optimize_process_s": (
            [py, "-m", "chainfair.cli", "optimize", "--n", "100"],
            lambda out: abs(float(dict(line.split(",", 1) for line in out.splitlines())["alpha_hat"]) - 0.6826) <= 2e-3,
        ),
    }
    metrics, bad = {}, []
    for name, (cmd, check) in probes.items():
        times = []
        for _ in range(1 if args.tiny else CLI_SAMPLES):
            try:
                out, _, seconds = spawn(cmd, deadline)
            except BenchError as e:
                bad.append(f"{name}: {e}")
                break
            try:
                good = check is None or check(out)
            except (ValueError, KeyError):
                good = False
            if not good:
                bad.append(f"{name}: unexpected output")
                break
            times.append(seconds)
        else:
            metrics[name] = (statistics.median(times), "s")
    return metrics, bad


def traced(args, deadline):
    r = worker(args, "trace", deadline)
    metrics = {k: tuple(v) for k, v in r["metrics"].items()}
    missing = dict(r["missing"])
    for name, (value, _) in list(metrics.items()):
        if not math.isfinite(value):
            missing[name] = "no successful call to measure it on"
            del metrics[name]
    cli, bad = cli_probes(args, deadline)
    metrics.update(cli)
    r["attempted"] += len(cli) + len(bad)
    r["failed"] += len(bad)
    r["correct"] &= not bad
    notes = [f"spans {r['spans']} (written to {SPANS_DIR.name}/spans_{args.workload}.csv)"]
    notes += [f"cli probe failed: {b}" for b in bad]
    notes += [f"missing {name}: {why}" for name, why in sorted(missing.items())]
    for wl, layers in r["by_workload"].items():
        for layer, (calls, self_ms) in sorted(layers.items()):
            notes.append(f"  {wl:<13} {layer:<32} calls {calls:>8}  self {self_ms:11.3f} ms")
    return r, metrics, notes


def run_one(args, deadline):
    r, metrics, notes = (traced if args.trace else untraced)(args, deadline)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  inputs {json.dumps(r['inputs'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>16.6f} {unit}")
    for note in notes:
        print("  " + note)
    for key, (status, msg, times) in sorted(r["failures"].items()):
        print(f"  {status} x{times}: {key}: {msg}")
    return {
        "correct": bool(r["correct"]),
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    # exit through SystemExit on SIGTERM, so that subprocess.run kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "chainfair" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'chainfair'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            result = run_one(args, time.monotonic() + DEADLINE_S)
        except BenchError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
