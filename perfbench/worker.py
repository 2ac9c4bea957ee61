"""One workload process of the benchmark: set up, warm up, then measure.

perfbench/run.py starts this script in a fresh process with a single-thread
environment and ``src`` on PYTHONPATH. It prints one JSON object on stdout.

Modes:
  setup    import, build the inputs, run the warm-up op, report when ready;
  measure  the same, then run whole cycles of the workload's ops until
           --seconds have passed and at least 100 ops ran, checking every
           output and timing a calibration loop before every op;
  trace    run one untraced cycle of every workload to warm up, time one
           more untraced cycle of --workload, then run one cycle of every
           workload with the tracer installed, and one more pass of the
           allocating layers under tracemalloc.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import chainfair  # noqa: E402
from chainfair.errors import ChainFairError  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# a run's 90th percentile latency needs at least 10 samples beyond it
MIN_OPS = 100

# layers whose allocation peak is measured, by op kind
ALLOC_KINDS = {
    "contraction_check": "solver.contraction_check",
    "exact_stationary": "sim.exact_stationary",
    "circle_backoff_mc": "asymptotics.circle_backoff_mc",
}


def run_op(op):
    """Call and check one op. Returns (seconds, status, output, message).

    status is ok, refused (the package raised one of its own typed errors),
    crashed (any other exception) or wrong (the output missed its check).
    The check runs after the clock stops.
    """
    t0 = time.perf_counter()
    try:
        out = op.call()
    except ChainFairError as e:
        return time.perf_counter() - t0, "refused", None, f"{type(e).__name__}: {e}"
    except Exception as e:  # a crash is a failed op, not a failed benchmark
        return time.perf_counter() - t0, "crashed", None, f"{type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    try:
        op.check(out)
    except Exception as e:
        return dt, "wrong", None, str(e)
    return dt, "ok", out, ""


def run_cycle(wl, tracer=None, first_id=0, before_op=None):
    """Run every op of ``wl`` once. Returns ([seconds, status, message] per op, outputs).

    ``before_op``, if given, is called before each op, outside its timing.
    """
    rows, outputs = [], {}
    for i, op in enumerate(wl.ops):
        if before_op is not None:
            before_op()
        if tracer is not None:
            tracer.op = first_id + i
            sid = tracer.enter("op." + op.kind)
        dt, status, out, msg = run_op(op)
        if tracer is not None:
            tracer.exit(sid, status == "ok")
        rows.append([dt, status, msg])
        if status == "ok":
            outputs[i] = out
    bad, why = wl.group_check(outputs)
    for i in bad:
        rows[i][1:] = ["wrong", why]
        outputs.pop(i)
    return rows, outputs


def tally(runs):
    """Attempted/failed counts and the distinct failures over (workload, rows) pairs."""
    failures = {}
    attempted = failed = 0
    correct = True
    for wl, rows in runs:
        for op, (_, status, msg) in zip(wl.ops, rows):
            attempted += 1
            if status == "ok":
                continue
            failed += 1
            correct &= status == "refused"
            key = f"{op.kind} {json.dumps(op.params, sort_keys=True)}"
            failures.setdefault(key, [status, msg, 0])[2] += 1
    return attempted, failed, correct, failures


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds):
    """Whole cycles until ``seconds`` have passed and at least MIN_OPS ops ran.

    A calibration sample is timed before every op and once after the last, so
    every op lies between two samples; its time at reference speed is its
    measured time scaled by them (calibration.py). The latency and throughput
    metrics use the times at reference speed; the raw ones are reported too.
    """
    cal = calibration.Calibration(calibration.KIND[wl.name])
    rows_by_cycle = []
    t_begin = time.perf_counter()
    while True:
        rows, _ = run_cycle(wl, before_op=cal.sample)
        rows_by_cycle.append(rows)
        ops = len(rows_by_cycle) * len(wl.ops)
        if time.perf_counter() - t_begin >= seconds and ops >= MIN_OPS:
            break
    cal.sample()
    attempted, failed, correct, failures = tally((wl, rows) for rows in rows_by_cycle)
    raw = [dt * 1e3 for rows in rows_by_cycle for dt, _, _ in rows]
    ref = [ms * cal.scale(cal.samples[i], cal.samples[i + 1]) for i, ms in enumerate(raw)]
    cycle_s = [sum(dt for dt, _, _ in rows) for rows in rows_by_cycle]
    return {
        "cycle_s": cycle_s,
        "cycles": len(rows_by_cycle),
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "failures": failures,
        "items": sum(op.items for rows in rows_by_cycle for op, r in zip(wl.ops, rows) if r[1] == "ok"),
        "busy_s": sum(ref) / 1e3,
        "op_p50_ms": statistics.median(ref),
        "op_p90_ms": statistics.quantiles(ref, n=10)[-1],
        "raw_busy_s": sum(cycle_s),
        "raw_op_p50_ms": statistics.median(raw),
        "raw_op_p90_ms": statistics.quantiles(raw, n=10)[-1],
        "calibration_ms": statistics.median(cal.samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def alloc_peaks(ops):
    """tracemalloc peak (bytes) per allocating layer, over its ops, untraced otherwise."""
    peaks = {}
    for op in ops:
        layer = ALLOC_KINDS.get(op.kind)
        if layer is None:
            continue
        tracemalloc.start()
        try:
            op.call()
        except Exception:  # the failure is counted by the traced cycle
            pass
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        peaks[layer] = max(peaks.get(layer, 0), peak)
    return peaks


def run_traced(name, seed, tiny, spans_path):
    order = [name] + [w for w in workloads.WORKLOADS if w != name]
    wls = {w: workloads.build(w, seed, tiny) for w in order}
    # one whole untraced cycle of every workload first, so that neither the
    # overhead ratio nor the layer times include first-call costs
    for w in order:
        run_cycle(wls[w])
    ready_ns = time.monotonic_ns()

    t0 = time.perf_counter()
    run_cycle(wls[name])
    untraced_s = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    all_ops, rows_by_wl, outputs_by_wl, traced_s = [], {}, {}, None
    try:
        for w in order:
            t0 = time.perf_counter()
            rows_by_wl[w], outputs_by_wl[w] = run_cycle(wls[w], tracer, len(all_ops))
            if w == name:
                traced_s = time.perf_counter() - t0
            all_ops += wls[w].ops
    finally:
        tracer.uninstall()

    hits, cells = workloads.coverage(wls["oracle_sim"].ops, outputs_by_wl["oracle_sim"])
    metrics, missing = tracing.layer_metrics(tracer, all_ops, alloc_peaks(all_ops), hits / cells if cells else 0.0)
    metrics["tracing.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    attempted, failed, correct, failures = tally((wls[w], rows_by_wl[w]) for w in order)
    if spans_path:
        tracer.write(spans_path)
    return {
        "ready_ns": ready_ns,
        "inputs": {w: wls[w].input_hash() for w in order},
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "failures": failures,
        "spans": len(tracer.spans),
        "metrics": metrics,
        "missing": missing,
        "by_workload": tracing.by_workload(tracer, all_ops),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", default="", help="CSV file for the spans of a traced run")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if Path(chainfair.__file__).resolve().parent.parent != src:
        print(f"chainfair was imported from {chainfair.__file__}, not from {src}", file=sys.stderr)
        return 2

    if args.mode == "trace":
        result = run_traced(args.workload, args.seed, args.tiny, args.spans)
    else:
        wl = workloads.build(args.workload, args.seed, args.tiny)
        run_op(wl.ops[0])
        result = {"ready_ns": time.monotonic_ns(), "inputs": {args.workload: wl.input_hash()}}
        if args.mode == "measure":
            result.update(measure(wl, args.seconds))
    json.dump(result, sys.stdout)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
