"""The public API holds only names that callers use, and the benchmark's tracer finds its bindings.

A name in chainfair.__all__ must be imported by the CLI, a script, a test
or the benchmark (perfbench/*.py), directly or as an attribute of an
imported chainfair module. Every binding that perfbench/tracing.py wraps
must resolve to a callable; a missing one would otherwise show up only in
the benchmark's traced run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import chainfair

ROOT = Path(__file__).resolve().parent.parent


def caller_files():
    yield ROOT / "src" / "chainfair" / "cli.py"
    for pattern in ("scripts/*.py", "tests/*.py", "perfbench/*.py"):
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


def test_every_public_name_has_a_caller():
    used = set().union(*(imported_names(p) for p in caller_files()))
    unused = sorted(set(chainfair.__all__) - used)
    assert not unused, f"in chainfair.__all__ but imported by no caller: {unused}"


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
