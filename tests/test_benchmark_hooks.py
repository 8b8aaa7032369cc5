"""The benchmark in perfbench/ wraps package functions by module and name.

A rename or a move inside the package would otherwise break the benchmark
without failing any test of the package itself.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import invseq

ROOT = Path(__file__).resolve().parents[1]


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert Path(invseq.__file__).resolve().is_relative_to(ROOT / "src")
    missing = [(module, attr) for module, attr, *_ in tracing.TRACED
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def _member(module, name: str):
    """module.name, importing it if it is a submodule not yet loaded; None if there is none."""
    if hasattr(module, name):
        return getattr(module, name)
    try:
        return importlib.import_module(f"{module.__name__}.{name}")
    except ModuleNotFoundError:
        return None


def _module(node, modules: dict):
    """The invseq module the expression node names, or None."""
    if isinstance(node, ast.Name):
        return modules.get(node.id)
    if isinstance(node, ast.Attribute) and (base := _module(node.value, modules)) is not None:
        value = _member(base, node.attr)
        return value if inspect.ismodule(value) else None
    return None


def test_perfbench_imports_resolve():
    """Every name a perfbench script imports from invseq, and every attribute it
    reads off a name bound to an invseq module (`cli.parse_model`,
    `theory.SCAN_STEP`), exists in the package."""
    checked, missing = [], []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the invseq module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "invseq":
                        module = importlib.import_module(alias.name)
                        modules[alias.asname or "invseq"] = module if alias.asname else invseq
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "invseq":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    value = _member(module, alias.name)
                    checked.append((module.__name__, alias.name))
                    if value is None:
                        missing.append((path.name, module.__name__, alias.name))
                    elif inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (base := _module(node.value, modules)) is not None:
                checked.append((base.__name__, node.attr))
                if _member(base, node.attr) is None:
                    missing.append((path.name, base.__name__, node.attr))
    assert not missing
    for ref in [("invseq", "log_likelihood"), ("invseq.cli", "parse_truth"),
                ("invseq.theory", "SCAN_STEP"), ("invseq", "experiments")]:
        assert ref in checked
