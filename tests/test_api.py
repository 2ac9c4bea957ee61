"""The public API holds only names that callers use, and the benchmark's tracer finds its bindings.

A name in chainfair.__all__ must be imported by the CLI, a script or the
benchmark (perfbench/*.py), directly or as an attribute of an imported
chainfair module. Tests do not count as callers: a name only its own tests
use is not needed. The few names kept without a caller are listed in
KEPT_WITHOUT_CALLER, each with its reason, and a kept name that gains a
caller or leaves __all__ fails the check, so the list cannot go stale.
Every binding that perfbench/tracing.py wraps must resolve to a callable;
a missing one would otherwise show up only in the benchmark's traced run.
No package module or script imports a name it never uses, except the
tracer's shim bindings, marked "# noqa: F401"; the solve_banded shims
resolve through a module __getattr__ instead, so that importing the
package loads no scipy. Only the first Newton or tangent step does, and it
loads scipy and its Fortran LAPACK extension only, not the scipy.linalg
package; a caller's own import of scipy.linalg, before or after, gives the
solver the same LAPACK routine.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import chainfair

ROOT = Path(__file__).resolve().parent.parent


TYPES = "a type that callers receive, raise or construct"
FORMULA = "a formula of the paper"
KEPT_WITHOUT_CALLER = {
    "FitError": TYPES,
    "FrameSpec": TYPES,
    "MarginalEstimate": TYPES,
    "OptResult": TYPES,
    "apply_F": FORMULA,
    "jacobian_bands": FORMULA,
    "residual": FORMULA,
    "entropy": FORMULA,
    "t_send": FORMULA,
    "t_wait": FORMULA,
    "alpha_of_packet": FORMULA,
}


def caller_files():
    yield ROOT / "src" / "chainfair" / "cli.py"
    for pattern in ("scripts/*.py", "perfbench/*.py"):
        yield from sorted(ROOT.glob(pattern))


def imported_names(path):
    """Names taken from chainfair by a module: imported, or read off an imported chainfair module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("chainfair")):
            for alias in node.names:
                names.add(alias.name)
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("chainfair") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


def called_names():
    return set().union(*(imported_names(p) for p in caller_files()))


def test_every_public_name_has_a_caller():
    unused = sorted(set(chainfair.__all__) - called_names() - set(KEPT_WITHOUT_CALLER))
    assert not unused, f"in chainfair.__all__ but imported by no caller: {unused}"


def test_names_kept_without_a_caller_are_public_and_uncalled():
    kept = set(KEPT_WITHOUT_CALLER)
    stale = sorted((kept - set(chainfair.__all__)) | (kept & called_names()))
    assert not stale, f"kept without a caller, but not in chainfair.__all__ or called after all: {stale}"


def test_all_names_exist():
    for name in chainfair.__all__:
        assert hasattr(chainfair, name), name


def tracer_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize("modname, attr, layer", tracer_bindings())
def test_tracer_binding_resolves(modname, attr, layer):
    assert callable(getattr(importlib.import_module(modname), attr, None)), f"{modname}.{attr} ({layer})"


def unused_imports(path):
    """Names path imports but never reads nor lists in __all__, shim imports marked noqa left aside."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "chainfair").glob("*.py")) + sorted(ROOT.glob("scripts/*.py")), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


# each raised an untyped error: AttributeError from config.n, numpy's
# ValueError from the rate's membership test
WRONG_TYPES = {
    **{f"simulate({config!r})": (chainfair.simulate, config) for config in (None, 0.5, [])},
    "packet_for_alpha(0.6, array([2.0, 11.0]))": (lambda d: chainfair.packet_for_alpha(0.6, d), np.array([2.0, 11.0])),
}


@pytest.mark.parametrize("f, arg", list(WRONG_TYPES.values()), ids=list(WRONG_TYPES))
def test_wrong_argument_types_refused(f, arg):
    with pytest.raises(chainfair.DomainError):
        f(arg)


# prints the hex of a root as its last line; argv[1] is a trace CSV
FIRST_SOLVE = textwrap.dedent(
    """
    import sys

    import chainfair as cf
    import chainfair.cli

    for policy in ("random-single-site", "synchronous-random-order"):
        cf.simulate(cf.SimConfig(n=3, alpha=0.5, steps=200, policy=policy))
    cf.exact_stationary(5, 0.6)
    cf.circle_backoff_mc(5, 10, seed=0)
    cf.ring_fixed_point(0.6)
    cf.packet_for_alpha(0.6, 2.0)
    params = cf.ChainParams(4, 0.5)
    x = cf.fixed_point_solve(params)
    cf.residual(params, x)
    cf.apply_F(params, x)
    for argv in (
        ["simulate", "--n", "3", "--alpha", "0.5", "--steps", "200"],
        ["ring", "--alpha", "0.6"],
        ["packet", "--alpha", "0.6", "--rate", "2"],
        ["solve", "--n", "4", "--alpha", "0.5", "--method", "fixed-point"],
    ):
        assert chainfair.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

    # every solving entry point, then the caller's own scipy.linalg
    import numpy as np

    from chainfair import solver

    root = cf.newton_solve(cf.ChainParams(7, 0.8))
    cf.J_prime(0.6, 5)
    cf.maximize_J(10)
    cf.fit_alpha(cf.ThroughputTrace(rates=[1.55, 0.04, 1.55]))
    for argv in (
        ["solve", "--n", "5", "--alpha", "0.8"],
        ["optimize", "--n", "10"],
        ["sweep", "--n", "10", "--points", "4"],
        ["fit", "--input", sys.argv[1]],
        ["flat", "--ns", "10,20"],
    ):
        assert chainfair.cli.main(argv) == 0, argv
    assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

    import scipy.linalg

    assert scipy.linalg._flapack.dgtsv is solver._lapack_gtsv()
    assert scipy.linalg.lapack.dgtsv is solver._lapack_gtsv()
    y = scipy.linalg.solve_banded((1, 1), np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 0.0]]), np.ones(2))
    assert np.allclose(y, 1.0 / 3.0), y
    print(root.tobytes().hex())
    """
)

# a caller that imported scipy.linalg first: the solver takes its routine
SCIPY_FIRST = textwrap.dedent(
    """
    import scipy.linalg

    import chainfair as cf
    from chainfair import solver

    root = cf.newton_solve(cf.ChainParams(7, 0.8))
    assert solver._lapack_gtsv() is scipy.linalg.lapack.dgtsv
    print(root.tobytes().hex())
    """
)

# a scipy that keeps no extension at the private path: the first solve
# takes the same routine from scipy.linalg.lapack, where find_spec's None
# raised AttributeError; the patch binds the solver module's PathFinder only
NO_PRIVATE_PATH = textwrap.dedent(
    """
    import sys

    import chainfair as cf
    from chainfair import solver

    class PathFinder:
        @staticmethod
        def find_spec(name, path=None):
            return None

    solver.PathFinder = PathFinder
    solver._lapack_gtsv.cache_clear()
    assert "scipy" not in sys.modules
    root = cf.newton_solve(cf.ChainParams(7, 0.8))
    import scipy.linalg

    assert solver._lapack_gtsv() is scipy.linalg.lapack.dgtsv
    print(root.tobytes().hex())
    """
)


def run_python(source, *args):
    proc = subprocess.run([sys.executable, "-c", source, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_scipy_loaded_at_the_first_solve_only(tmp_path):
    # import chainfair loaded scipy.linalg, 0.3 s of its 0.45 s, though the
    # simulator, the exact law and the commands above solve no linear system;
    # then the first solve loaded it all, 0.20-0.27 s, for one LAPACK routine
    trace = tmp_path / "trace.csv"
    trace.write_text("pair,rate\n1,1.55\n2,0.04\n3,1.55\n", encoding="utf-8")
    root = run_python(FIRST_SOLVE, str(trace))
    assert run_python(SCIPY_FIRST) == root


def test_lapack_taken_from_scipy_linalg_without_the_private_path():
    root = chainfair.newton_solve(chainfair.ChainParams(7, 0.8))
    assert run_python(NO_PRIVATE_PATH) == root.tobytes().hex()
