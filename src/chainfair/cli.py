"""Command line front end.

Each subcommand wraps one library operation and prints CSV (or a small SVG
chart where a figure is the natural output). All floats are written with
repr so identical invocations produce byte-identical files.

Exit codes: 0 success, 2 usage or domain error, 3 numerical failure.
"""

import argparse
import json
import math
import os
import sys

from .asymptotics import flat_value, ring_fixed_point
from .errors import ChainFairError, ConvergenceError, DomainError
from .fairness import maximize_J, sweep_J
from .fit import compare_normalized, fit_alpha, read_trace_csv
from .model import ChainParams
from .sim import SimConfig, simulate
from .solver import SolveOptions, fixed_point_solve, newton_solve
from .svg import bar_chart, line_chart
from .timing import MacTiming, packet_for_alpha

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_OUTDIR_ENV = "CHAINFAIR_OUTDIR"
_FORMATS = ("csv", "svg")


def _cell(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(rows) -> str:
    return "".join(",".join(_cell(c) for c in row) + "\n" for row in rows)


def _require(opts, *names):
    missing = [k for k in names if opts.get(k) is None]
    if missing:
        flags = ", ".join("--" + k.replace("_", "-") for k in missing)
        raise DomainError(f"missing required value(s): {flags}")


def _solve_options(opts):
    return SolveOptions(**{k: opts[k] for k in ("tol", "max_iter") if opts[k] is not None})


def _timing(opts) -> MacTiming:
    overrides = opts.get("timing") or {}
    if not isinstance(overrides, dict):
        raise DomainError("config key 'timing' must be an object of field overrides")
    try:
        return MacTiming(**{k: float(v) for k, v in overrides.items()})
    except TypeError as e:
        raise DomainError(f"unknown timing field: {e}") from None


def _cmd_solve(opts) -> str:
    _require(opts, "n", "alpha")
    params = ChainParams(opts["n"], opts["alpha"])
    method = opts["method"]
    solve = {"newton": newton_solve, "fixed-point": fixed_point_solve}[method]
    x = solve(params, _solve_options(opts))
    if opts["format"] == "svg":
        return line_chart(
            list(zip(range(1, params.n + 1), x)),
            title=f"Emission probabilities (n={params.n}, alpha={params.alpha})",
            xlabel="pair",
            ylabel="x",
        )
    return _csv([("pair", "x")] + [(i + 1, float(v)) for i, v in enumerate(x)])


def _cmd_optimize(opts) -> str:
    _require(opts, "n")
    res = maximize_J(opts["n"], tol_alpha=opts["tol_alpha"])
    return _csv(
        [
            ("alpha_hat", res.alpha_hat),
            ("J_value", res.J_value),
            ("evaluations", res.evaluations),
            ("bracket", res.bracket),
            ("unimodal", res.unimodal),
        ]
    )


def _cmd_sweep(opts) -> str:
    _require(opts, "n")
    n, lo, hi, points = opts["n"], opts["alpha_min"], opts["alpha_max"], opts["points"]
    if points < 2 or not 0.0 < lo < hi < 1.0:
        raise DomainError(
            f"need 0 < alpha-min < alpha-max < 1 and points >= 2, "
            f"got [{lo}, {hi}] with {points} points"
        )
    step = (hi - lo) / (points - 1)
    rows = sweep_J(n, [lo + k * step for k in range(points)])
    if opts["format"] == "svg":
        return line_chart(rows, title=f"J(alpha), n={n}", xlabel="alpha", ylabel="J")
    return _csv([("alpha", "J")] + rows)


def _cmd_ring(opts) -> str:
    _require(opts, "alpha")
    alpha = opts["alpha"]
    return _csv([("alpha", alpha), ("x", ring_fixed_point(alpha))])


def _cmd_flat(opts) -> str:
    _require(opts, "ns")
    rows = []
    for n in opts["ns"]:
        alpha_hat, central = flat_value(n)
        rows.append((n, alpha_hat, central))
    if opts["format"] == "svg":
        return line_chart(
            [(n, a) for n, a, _ in rows],
            title="Optimal alpha vs chain length",
            xlabel="n",
            ylabel="alpha_hat",
        )
    return _csv([("n", "alpha_hat", "flat_value")] + rows)


def _cmd_simulate(opts) -> str:
    _require(opts, "n", "alpha", "steps")
    config = SimConfig(
        n=opts["n"],
        alpha=opts["alpha"],
        steps=opts["steps"],
        burn_in=opts["burn_in"],
        seed=opts["seed"],
        policy=opts["policy"],
    )
    est = simulate(config)
    rows = [
        (i + 1, float(xh), float(se))
        for i, (xh, se) in enumerate(zip(est.x_hat, est.stderr))
    ]
    return _csv([("pair", "x_hat", "stderr")] + rows)


def _cmd_fit(opts) -> str:
    _require(opts, "input")
    trace = read_trace_csv(opts["input"])
    res = fit_alpha(trace, bounds=(opts["lo"], opts["hi"]))
    table = compare_normalized(trace, res.alpha_fit)
    if opts["format"] == "svg":
        labels = [str(pair) for pair, _, _, _ in table]
        observed = [obs for _, obs, _, _ in table]
        model = [mod for _, _, mod, _ in table]
        return bar_chart(
            labels,
            [("observed", observed), ("model", model)],
            title=f"Normalized throughput, alpha_fit={res.alpha_fit:.4f}",
            xlabel="pair",
            ylabel="rate / rate_1",
        )
    rows = [("alpha_fit", res.alpha_fit), ("sse", res.sse)]
    rows.append(("pair", "observed", "model", "residual"))
    rows.extend(table)
    return _csv(rows)


def _cmd_packet(opts) -> str:
    _require(opts, "alpha", "rate")
    timing = _timing(opts)
    size = packet_for_alpha(opts["alpha"], opts["rate"], timing)
    return _csv([("bytes", size)])


_HANDLERS = {
    "solve": _cmd_solve,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "ring": _cmd_ring,
    "flat": _cmd_flat,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "packet": _cmd_packet,
}

_DEFAULTS = {
    "solve": {"method": "newton", "format": "csv"},
    "optimize": {"tol_alpha": 1e-4},
    "sweep": {"alpha_min": 0.05, "alpha_max": 0.95, "points": 19, "format": "csv"},
    "ring": {},
    "flat": {"format": "csv"},
    "simulate": {"seed": 0, "policy": "random-single-site"},
    "fit": {"lo": 0.05, "hi": 0.99, "format": "csv"},
    "packet": {},
}


def _int_list(text):
    """Type of --ns: comma-separated chain lengths, at least one."""
    try:
        ns = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated ints, got {text!r}") from None
    if not ns:
        raise argparse.ArgumentTypeError("must list at least one chain length")
    return ns


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="chainfair",
        description="Mean-field fairness model of a chain of 802.11 pairs.",
    )
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, help_, columns):
        sp = sub.add_parser(name, help=help_, description=f"{help_} Output: {columns}.")
        sp.add_argument("--config", help="JSON file; keys mirror long flag names")
        sp.add_argument("--output", help=f"output path (default stdout; ${_OUTDIR_ENV} prefixes relative paths)")
        # main reads the flags' types and choices from here for config values
        sp.set_defaults(parser=sp)
        return sp

    sp = add("solve", "Solve the n-pair chain at one alpha.", "CSV pair,x")
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--method", choices=("newton", "fixed-point"))
    sp.add_argument("--tol", type=float)
    sp.add_argument("--max-iter", type=int)
    sp.add_argument("--format", choices=_FORMATS)

    sp = add("optimize", "Maximize the fairness index J over alpha.",
             "CSV alpha_hat,J_value,evaluations,bracket,unimodal key/value rows")
    sp.add_argument("--n", type=int)
    sp.add_argument("--tol-alpha", type=float)

    sp = add("sweep", "Evaluate J over an alpha grid.", "CSV alpha,J")
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha-min", type=float)
    sp.add_argument("--alpha-max", type=float)
    sp.add_argument("--points", type=int)
    sp.add_argument("--format", choices=_FORMATS)

    sp = add("ring", "Ring (translation invariant) fixed point.", "CSV alpha,x key/value rows")
    sp.add_argument("--alpha", type=float)

    sp = add("flat", "Optimal alpha and central probability per chain length.",
             "CSV n,alpha_hat,flat_value")
    sp.add_argument("--ns", type=_int_list, help="comma-separated chain lengths, e.g. 100,500")
    sp.add_argument("--format", choices=_FORMATS)

    sp = add("simulate", "Slot-level stochastic simulation marginals.",
             "CSV pair,x_hat,stderr")
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--burn-in", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--policy", choices=("random-single-site", "synchronous-random-order"))

    sp = add("fit", "Least-squares alpha fit to a measured trace.",
             "CSV alpha_fit,sse rows then pair,observed,model,residual")
    sp.add_argument("--input", help="trace CSV with header pair,rate")
    sp.add_argument("--lo", type=float)
    sp.add_argument("--hi", type=float)
    sp.add_argument("--format", choices=_FORMATS)

    sp = add("packet", "Packet size realizing a target alpha.", "CSV bytes,<int>")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--rate", type=float, help="data rate in Mbit/s (1, 2, 5.5 or 11)")
    return p


def _config_value(action, key, val):
    """A config value parsed as the flag's own text would be: its type, then its choices.

    Numbers and booleans keep their JSON text, so 10.7, 4.0 and true are
    not ints; a list joins its entries with commas, as --ns takes them.
    """
    parts = val if isinstance(val, list) else [val]
    text = ",".join(v if isinstance(v, str) else json.dumps(v) for v in parts)
    try:
        value = action.type(text) if action.type else text
    except (ValueError, argparse.ArgumentTypeError):
        raise DomainError(f"config key {key!r}: invalid value {json.dumps(val)}") from None
    if action.choices is not None and value not in action.choices:
        raise DomainError(f"config key {key!r} must be one of {action.choices}, got {json.dumps(val)}")
    return value


def _merge_config(opts, parser):
    path = opts.get("config")
    if not path:
        return
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    flags = {a.dest: a for a in parser._actions if a.dest in opts}
    for key, val in cfg.items():
        dest = key.replace("-", "_")
        if dest == "timing":
            opts["timing"] = val
        elif dest not in flags:
            raise DomainError(f"config key {key!r} is not a flag of this command")
        elif opts[dest] is None and val is not None:
            opts[dest] = _config_value(flags[dest], key, val)


def _resolve_output(path):
    outdir = os.environ.get(_OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    command = args.command
    opts = vars(args).copy()
    try:
        _merge_config(opts, opts.pop("parser"))
        for key, val in _DEFAULTS[command].items():
            if opts.get(key) is None:
                opts[key] = val
        text = _HANDLERS[command](opts)
    except DomainError as e:
        print(f"chainfair {command}: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, OSError) as e:
        print(f"chainfair {command}: error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as e:
        print(f"chainfair {command}: error: {e}", file=sys.stderr)
        if e.residual is not None and not math.isnan(e.residual):
            print(f"chainfair {command}: residual: {e.residual!r}", file=sys.stderr)
        return EXIT_NUMERIC
    except ChainFairError as e:
        print(f"chainfair {command}: error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    if opts.get("output"):
        target = _resolve_output(opts["output"])
        try:
            with open(target, "w", encoding="utf-8", newline="") as f:
                f.write(text)
        except OSError as e:
            print(f"chainfair {command}: error: {e}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
