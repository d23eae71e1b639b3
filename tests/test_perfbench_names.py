"""The benchmark binds finlap names by bare attribute lookups, so a name
deleted from finlap breaks it only when a benchmark run reaches it (the
tracer's ``getattr`` breaks ``--trace 1``).  These tests read the
benchmark's source with ``ast`` and check every finlap name it uses."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _finlap_names(tree):
    """(module, attribute) for every finlap module attribute the source
    reads: ``from finlap.m import a``, and ``alias.a`` where alias is bound
    by ``import finlap [as alias]`` or ``from finlap import m``."""
    aliases, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "finlap":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("finlap"):
            for a in node.names:
                if node.module == "finlap" and a.name != "*":
                    aliases[a.asname or a.name] = f"finlap.{a.name}"
                names.append((node.module, a.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.append((aliases[node.value.id], node.attr))
    return names


def _traced(tree):
    """The (module, function) pairs of the tracer's TRACED table."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)):
            return [(f"finlap.{row.elts[0].value}", row.elts[1].value)
                    for row in node.value.elts]
    raise AssertionError("perfbench/tracer.py has no TRACED table")


def _exists(module, name):
    """Whether the finlap module has the attribute, or the package the
    submodule, ``name``."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (hasattr(mod, "__path__") and
                                  importlib.util.find_spec(f"{module}.{name}") is not None)


def test_traced_functions_exist():
    traced = _traced(_tree("tracer.py"))
    assert ("finlap.metrics", "vertical_derivative") in traced
    for module, name in traced:
        assert _exists(module, name), f"{module}.{name}"


@pytest.mark.parametrize("source", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_finlap_names_used_by_the_benchmark_exist(source):
    names = _finlap_names(_tree(source))
    if source == "tracer.py":
        assert ("finlap.spectral", "JACOBI_MAX_DENSE") in names
    for module, name in names:
        assert _exists(module, name), f"{source} uses {module}.{name}"


def test_benchmark_structure_check(monkeypatch):
    """The benchmark's structure gate (one operator_coefficients call makes
    7 reeb_profile, 1 density_profile and 52 vertical_derivative calls)
    runs here too, at the Reeb-route oracle's own ``REEB_FIBER_N`` rays, so
    a change to the Reeb route's call pattern fails the test suite and not
    only ``perfbench/run.py --self-check``.  The benchmark's files are
    imported as they are, and no bytecode is written next to them."""
    import sys

    from finlap.laplace import REEB_FIBER_N

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    ok, detail = tracer.structure_check(REEB_FIBER_N)
    assert ok, detail
    assert detail.endswith(f"[{REEB_FIBER_N}]")
