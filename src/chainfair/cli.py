"""Command line front end.

Each subcommand's handler wraps one library operation and returns its
rows, the CSV table with its header, and its chart: a zero-argument
callable that builds a small SVG for the commands that take --format svg
(solve, sweep, flat, fit), else None. main alone renders (the chart is
built under --format svg only), writes to --output or stdout, and reports
an error. All floats are written with repr so identical invocations
produce byte-identical files. A flag's value comes from the command line,
else from the --config file, else from its default.

Exit codes: 0 success, 2 usage or domain error, 3 numerical failure.
"""

import argparse
import dataclasses
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


def _cell(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv(rows) -> str:
    return "".join(",".join(_cell(c) for c in row) + "\n" for row in rows)


def _solve_options(opts):
    return SolveOptions(**{k: opts[k] for k in ("tol", "max_iter") if opts[k] is not None})


def _timing(opts) -> MacTiming:
    overrides = opts.get("timing")
    if overrides is None:
        overrides = {}
    elif not isinstance(overrides, dict):
        raise DomainError("config key 'timing' must be an object of field overrides")
    try:
        return MacTiming(**overrides)
    except TypeError as e:
        raise DomainError(f"unknown timing field: {e}") from None


def _cmd_solve(opts):
    params = ChainParams(opts["n"], opts["alpha"])
    solve = {"newton": newton_solve, "fixed-point": fixed_point_solve}[opts["method"]]
    x = solve(params, _solve_options(opts))
    rows = [("pair", "x")] + [(i + 1, float(v)) for i, v in enumerate(x)]
    title = f"Emission probabilities (n={params.n}, alpha={params.alpha})"
    return rows, lambda: line_chart(rows[1:], title=title, xlabel="pair", ylabel="x")


def _cmd_optimize(opts):
    res = maximize_J(opts["n"], tol_alpha=opts["tol_alpha"])
    return [(f.name, getattr(res, f.name)) for f in dataclasses.fields(res)], None


def _cmd_sweep(opts):
    n, lo, hi, points = opts["n"], opts["alpha_min"], opts["alpha_max"], opts["points"]
    if points < 2 or not 0.0 < lo < hi < 1.0:
        raise DomainError(
            f"need 0 < alpha-min < alpha-max < 1 and points >= 2, "
            f"got [{lo}, {hi}] with {points} points"
        )
    step = (hi - lo) / (points - 1)
    rows = sweep_J(n, [lo + k * step for k in range(points)])
    chart = lambda: line_chart(rows, title=f"J(alpha), n={n}", xlabel="alpha", ylabel="J")
    return [("alpha", "J")] + rows, chart


def _cmd_ring(opts):
    return [("alpha", opts["alpha"]), ("x", ring_fixed_point(opts["alpha"]))], None


def _cmd_flat(opts):
    rows = [(n, *flat_value(n)) for n in opts["ns"]]
    chart = lambda: line_chart(
        [(n, a) for n, a, _ in rows], title="Optimal alpha vs chain length", xlabel="n", ylabel="alpha_hat"
    )
    return [("n", "alpha_hat", "flat_value")] + rows, chart


def _cmd_simulate(opts):
    est = simulate(SimConfig(**{k: opts[k] for k in ("n", "alpha", "steps", "burn_in", "seed", "policy")}))
    rows = [(i + 1, float(xh), float(se)) for i, (xh, se) in enumerate(zip(est.x_hat, est.stderr))]
    return [("pair", "x_hat", "stderr")] + rows, None


def _cmd_fit(opts):
    trace = read_trace_csv(opts["input"])
    res = fit_alpha(trace, bounds=(opts["lo"], opts["hi"]))
    table = compare_normalized(trace, res.alpha_fit)
    rows = [("alpha_fit", res.alpha_fit), ("sse", res.sse), ("pair", "observed", "model", "residual"), *table]
    chart = lambda: bar_chart(
        [str(pair) for pair, _, _, _ in table],
        [("observed", [obs for _, obs, _, _ in table]), ("model", [mod for _, _, mod, _ in table])],
        title=f"Normalized throughput, alpha_fit={res.alpha_fit:.4f}",
        xlabel="pair",
        ylabel="rate / rate_1",
    )
    return rows, chart


def _cmd_packet(opts):
    size = packet_for_alpha(opts["alpha"], opts["rate"], _timing(opts))
    return [("bytes", size)], None


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

    def add(name, handler, required, help_, columns, draws=False):
        sp = sub.add_parser(name, help=help_, description=f"{help_} Output: {columns}.")
        sp.add_argument("--config", help="JSON file; keys mirror long flag names")
        sp.add_argument("--output", help=f"output path (default stdout; ${_OUTDIR_ENV} prefixes relative paths)")
        if draws:
            sp.add_argument("--format", choices=("csv", "svg"), default="csv")
        # main checks the required flags after the config file's values are in,
        # and reads the flags' types and choices from sp to convert those values
        sp.set_defaults(handler=handler, required=required, parser=sp)
        return sp

    sp = add("solve", _cmd_solve, ("n", "alpha"), "Solve the n-pair chain at one alpha.", "CSV pair,x", True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--method", choices=("newton", "fixed-point"), default="newton")
    sp.add_argument("--tol", type=float)
    sp.add_argument("--max-iter", type=int)

    sp = add("optimize", _cmd_optimize, ("n",), "Maximize the fairness index J over alpha.",
             "CSV alpha_hat,J_value,evaluations,bracket,unimodal key/value rows")
    sp.add_argument("--n", type=int)
    sp.add_argument("--tol-alpha", type=float, default=1e-4)

    sp = add("sweep", _cmd_sweep, ("n",), "Evaluate J over an alpha grid.", "CSV alpha,J", True)
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha-min", type=float, default=0.05)
    sp.add_argument("--alpha-max", type=float, default=0.95)
    sp.add_argument("--points", type=int, default=19)

    sp = add("ring", _cmd_ring, ("alpha",), "Ring (translation invariant) fixed point.",
             "CSV alpha,x key/value rows")
    sp.add_argument("--alpha", type=float)

    sp = add("flat", _cmd_flat, ("ns",), "Optimal alpha and central probability per chain length.",
             "CSV n,alpha_hat,flat_value", True)
    sp.add_argument("--ns", type=_int_list, help="comma-separated chain lengths, e.g. 100,500")

    sp = add("simulate", _cmd_simulate, ("n", "alpha", "steps"),
             "Slot-level stochastic simulation marginals.", "CSV pair,x_hat,stderr")
    sp.add_argument("--n", type=int)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--steps", type=int)
    sp.add_argument("--burn-in", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--policy", choices=("random-single-site", "synchronous-random-order"),
                    default="random-single-site")

    sp = add("fit", _cmd_fit, ("input",), "Least-squares alpha fit to a measured trace.",
             "CSV alpha_fit,sse rows then pair,observed,model,residual", True)
    sp.add_argument("--input", help="trace CSV with header pair,rate")
    sp.add_argument("--lo", type=float, default=0.05)
    sp.add_argument("--hi", type=float, default=0.99)

    sp = add("packet", _cmd_packet, ("alpha", "rate"), "Packet size realizing a target alpha.",
             "CSV bytes,<int>")
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


def _config_defaults(parser, path):
    """The config file's values, converted for the command's flags; a null is left out."""
    with open(path, encoding="utf-8") as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise DomainError("config file must hold a JSON object")
    flags = {a.dest: a for a in parser._actions if a.dest != "help"}
    values = {}
    for key, val in cfg.items():
        dest = key.replace("-", "_")
        if dest == "timing" and parser.get_default("handler") is _cmd_packet:
            values["timing"] = val
        elif dest not in flags:
            raise DomainError(f"config key {key!r} is not a flag of this command")
        elif val is not None:
            values[dest] = _config_value(flags[dest], key, val)
    return values


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
    try:
        if args.config:
            # the file's values become the defaults, so explicit flags still win
            args.parser.set_defaults(**_config_defaults(args.parser, args.config))
            args = parser.parse_args(argv)
        opts = vars(args)
        missing = ["--" + k.replace("_", "-") for k in args.required if opts[k] is None]
        if missing:
            raise DomainError(f"missing required value(s): {', '.join(missing)}")
        rows, chart = args.handler(opts)
        text = chart() if opts.get("format") == "svg" else _csv(rows)
        if args.output:
            with open(_resolve_output(args.output), "w", encoding="utf-8", newline="") as f:
                f.write(text)
    except (ChainFairError, json.JSONDecodeError, OSError) as e:
        print(f"chainfair {command}: error: {e}", file=sys.stderr)
        if isinstance(e, ConvergenceError) and e.residual is not None and not math.isnan(e.residual):
            print(f"chainfair {command}: residual: {e.residual!r}", file=sys.stderr)
        return EXIT_USAGE if isinstance(e, (DomainError, json.JSONDecodeError, OSError)) else EXIT_NUMERIC
    if not args.output:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
