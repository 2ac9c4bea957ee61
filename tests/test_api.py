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
tracer's shim bindings, marked "# noqa: F401".
"""

import ast
import importlib
import importlib.util
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
