"""The benchmark in perfbench/ wraps package functions by module and name.

A rename or a move inside the package would otherwise break the benchmark
without failing any test of the package itself.
"""
from __future__ import annotations

import importlib
import importlib.util
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
