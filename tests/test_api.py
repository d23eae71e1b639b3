"""The public API takes no resolution keyword: quadrature orders, scan
sizes and stopping tolerances are module constants, not arguments.  Every
module imports at its top, never inside a function."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import finlap as fl

RESOLUTION_KEYWORDS = {"nquad", "coarse_n", "n_rays", "n_boundary", "n0", "rtol", "n_max",
                       "merge_tol", "tol", "max_sweeps", "sample_n"}


def _public_callables():
    """(qualified name, callable) for every public function and class,
    errors aside, of every finlap module, and every public method or
    classmethod of those classes."""
    for info in pkgutil.iter_modules(fl.__path__):
        module = importlib.import_module(f"finlap.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or not getattr(obj, "__module__", "").startswith("finlap")
                    or inspect.isclass(obj) and issubclass(obj, Exception)):
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr in vars(obj):
                    member = getattr(obj, attr)
                    if not attr.startswith("_") and callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_a_resolution_keyword():
    seen = 0
    for name, obj in _public_callables():
        params = set(inspect.signature(obj).parameters)
        assert not params & RESOLUTION_KEYWORDS, f"{name} takes {params & RESOLUTION_KEYWORDS}"
        seen += 1
    assert seen > 100
    for solver in (fl.sphere_spectrum, fl.solve_eigen):
        assert "method" not in inspect.signature(solver).parameters


def _imports_in_functions(source: str):
    """Sorted (function, line) of each import statement inside a function."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= {(fn.name, node.lineno) for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))}
    return sorted(found)


def test_no_import_inside_a_function():
    assert _imports_in_functions("def f():\n    def g():\n        import os\n") == [
        ("f", 3), ("g", 3)]
    modules = sorted(pathlib.Path(fl.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    found = {path.name: _imports_in_functions(path.read_text()) for path in modules}
    assert {name: where for name, where in found.items() if where} == {}
