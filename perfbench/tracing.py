"""Span tracing for the traced run, recorded from outside the package.

The tracer replaces public functions at the module bindings through which the
layers call each other (``chainfair.solver.apply_F``, ``chainfair.fit.newton_solve``,
...) with wrappers that record one span per call: name, op, parent span, start,
end and whether the call returned. Spans stay in memory until the run ends;
per-layer metrics are computed from them afterwards.

A binding that no longer exists is reported as missing, and every metric that
depends on it is left out rather than reported as zero, so that renaming an
import cannot pass for a saving.
"""

import csv
import importlib
from time import perf_counter_ns

# (module, attribute, layer). Several bindings feed one layer: each module
# that imports a function holds its own reference to it.
BINDINGS = (
    ("chainfair.solver", "apply_F", "model.apply_F"),
    ("chainfair.fairness", "apply_F", "model.apply_F"),
    ("chainfair.model", "jacobian_bands", "model.jacobian_bands"),
    ("chainfair.solver", "jacobian_bands", "model.jacobian_bands"),
    ("chainfair.fairness", "jacobian_bands", "model.jacobian_bands"),
    ("chainfair.solver", "residual", "solver.residual"),
    ("chainfair.solver", "solve_banded", "solver.solve_banded"),
    ("chainfair.fairness", "solve_banded", "solver.solve_banded"),
    ("chainfair.solver", "newton_solve", "solver.newton_solve"),
    ("chainfair.fairness", "newton_solve", "solver.newton_solve"),
    ("chainfair.fit", "newton_solve", "solver.newton_solve"),
    ("chainfair.solver", "contraction_check", "solver.contraction_check"),
    ("chainfair.fairness", "J_prime", "fairness.J_prime"),
    ("chainfair.fairness", "maximize_J", "fairness.maximize_J"),
    ("chainfair.fairness", "sweep_J", "fairness.sweep_J"),
    ("chainfair.fit", "fit_alpha", "fit.fit_alpha"),
    ("chainfair.sim", "simulate", "sim.simulate"),
    ("chainfair.sim", "exact_stationary", "sim.exact_stationary"),
    ("chainfair.asymptotics", "circle_backoff_mc", "asymptotics.circle_backoff_mc"),
)

MB = float(1 << 20)


class Tracer:
    """Records spans while installed. One op at a time, one thread."""

    def __init__(self):
        # span id -> [parent, op, name, start_ns, end_ns, returned]
        self.spans = []
        self.missing = []
        self.op = -1
        self._stack = []
        self._saved = []

    def enter(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([parent, self.op, name, perf_counter_ns(), 0, False])
        self._stack.append(sid)
        return sid

    def exit(self, sid, returned):
        rec = self.spans[sid]
        rec[4] = perf_counter_ns()
        rec[5] = returned
        self._stack.pop()

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            sid = self.enter(name)
            returned = False
            try:
                out = fn(*args, **kwargs)
                returned = True
                return out
            finally:
                self.exit(sid, returned)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for modname, attr, layer in BINDINGS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append((f"{modname}.{attr}", layer))
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "op", "name", "start_ns", "end_ns", "returned"])
            for sid, rec in enumerate(self.spans):
                out.writerow([sid, *rec])


# name -> (unit, layers it depends on)
METRICS = {
    "model.apply_F.calls": ("count", ("model.apply_F",)),
    "model.apply_F.self_ms": ("ms", ("model.apply_F",)),
    "model.jacobian_bands.calls": ("count", ("model.jacobian_bands",)),
    "model.jacobian_bands.self_ms": ("ms", ("model.jacobian_bands",)),
    "solver.residual.calls": ("count", ("solver.residual",)),
    "solver.solve_banded.calls": ("count", ("solver.solve_banded",)),
    "solver.solve_banded.self_ms": ("ms", ("solver.solve_banded",)),
    "solver.newton_solve.calls": ("count", ("solver.newton_solve",)),
    "solver.newton_solve.self_ms": ("ms", ("solver.newton_solve",)),
    "solver.newton_solve.failed": ("count", ("solver.newton_solve",)),
    "solver.contraction_check.ms": ("ms", ("solver.contraction_check",)),
    "solver.contraction_check.alloc_peak_mb": ("MB", ("solver.contraction_check",)),
    "fairness.maximize_J.solves_per_optimum": ("solves/optimum", ("fairness.maximize_J", "solver.newton_solve")),
    "fairness.maximize_J.self_ms": ("ms", ("fairness.maximize_J",)),
    "fairness.J_prime.calls": ("count", ("fairness.J_prime",)),
    "fairness.J_prime.self_ms": ("ms", ("fairness.J_prime",)),
    "fairness.sweep_J.ms": ("ms", ("fairness.sweep_J",)),
    "fit.fit_alpha.solves_per_fit": ("solves/fit", ("fit.fit_alpha", "solver.newton_solve")),
    "fit.fit_alpha.self_ms": ("ms", ("fit.fit_alpha",)),
    "sim.simulate.single_site.updates_per_s": ("1/s", ("sim.simulate",)),
    "sim.simulate.sweep.updates_per_s": ("1/s", ("sim.simulate",)),
    "sim.simulate.coverage": ("ratio", ()),
    "sim.exact_stationary.ms": ("ms", ("sim.exact_stationary",)),
    "sim.exact_stationary.alloc_peak_mb": ("MB", ("sim.exact_stationary",)),
    "asymptotics.circle_backoff_mc.trials_per_s": ("1/s", ("asymptotics.circle_backoff_mc",)),
    "asymptotics.circle_backoff_mc.alloc_peak_mb": ("MB", ("asymptotics.circle_backoff_mc",)),
}


def _ratio(num, den):
    return num / den if den else float("nan")


def self_ns(spans):
    """Per span: its duration minus the time its child spans cover."""
    own = [t1 - t0 for _, _, _, t0, t1, _ in spans]
    for parent, _, _, t0, t1, _ in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own


def layer_metrics(tracer, ops, alloc_peaks, coverage):
    """Per-layer metrics from the recorded spans.

    ``ops[k]`` is the workloads.Op that ran as op id k; ``alloc_peaks`` maps a
    layer to its tracemalloc peak in bytes. Returns (metrics, missing), where
    metrics maps name -> (value, unit) and missing maps name -> reason.
    """
    spans = tracer.spans
    calls, own_ns, dur_ns, failed = {}, {}, {}, {}
    for (_, _, name, t0, t1, returned), own in zip(spans, self_ns(spans)):
        calls[name] = calls.get(name, 0) + 1
        own_ns[name] = own_ns.get(name, 0) + own
        dur_ns[name] = dur_ns.get(name, 0) + (t1 - t0)
        failed[name] = failed.get(name, 0) + (not returned)

    def solves_per_result(driver):
        # Newton solves with a `driver` span among their ancestors, over the
        # driver calls that returned
        solves = 0
        for parent, _, name, *_ in spans:
            if name != "solver.newton_solve":
                continue
            while parent >= 0 and spans[parent][2] != driver:
                parent = spans[parent][0]
            solves += parent >= 0
        return _ratio(solves, calls.get(driver, 0) - failed.get(driver, 0))

    def rate(layer, work, keep=lambda op: True):
        # work per second of the layer's own calls, one call per op
        total = ns = 0
        for _, op, name, t0, t1, _ in spans:
            if name == layer and keep(ops[op]):
                total += work(ops[op])
                ns += t1 - t0
        return _ratio(total * 1e9, ns)

    def policy(p):
        return lambda op: op.params["policy"] == p

    values = {
        "fairness.maximize_J.solves_per_optimum": solves_per_result("fairness.maximize_J"),
        "fit.fit_alpha.solves_per_fit": solves_per_result("fit.fit_alpha"),
        "sim.simulate.single_site.updates_per_s": rate(
            "sim.simulate", lambda op: op.items, policy("random-single-site")
        ),
        "sim.simulate.sweep.updates_per_s": rate("sim.simulate", lambda op: op.items, policy("synchronous-random-order")),
        "sim.simulate.coverage": coverage,
        "asymptotics.circle_backoff_mc.trials_per_s": rate(
            "asymptotics.circle_backoff_mc", lambda op: op.params["trials"]
        ),
    }
    generic = {
        "calls": lambda layer: calls.get(layer, 0),
        "failed": lambda layer: failed.get(layer, 0),
        "self_ms": lambda layer: own_ns.get(layer, 0) / 1e6,
        "ms": lambda layer: dur_ns.get(layer, 0) / 1e6,
        "alloc_peak_mb": lambda layer: alloc_peaks.get(layer, 0) / MB,
    }
    gone = {layer: binding for binding, layer in tracer.missing}
    metrics, missing = {}, {}
    for name, (unit, layers) in METRICS.items():
        lost = [gone[layer] for layer in layers if layer in gone]
        if lost:
            missing[name] = "binding not found: " + ", ".join(lost)
            continue
        layer, _, quantity = name.rpartition(".")
        value = values[name] if name in values else generic[quantity](layer)
        metrics[name] = (value, unit)
    return metrics, missing


def by_workload(tracer, ops):
    """{workload: {layer: [calls, self_ms]}} for the per-workload table."""
    table = {}
    for (_, op, name, *_), own in zip(tracer.spans, self_ns(tracer.spans)):
        if name.startswith("op."):
            continue
        row = table.setdefault(ops[op].workload, {}).setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += own / 1e6
    return table
