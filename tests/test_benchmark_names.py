"""The qetchain names that the scripts under benchmarks/ look up.

The benchmark harness resolves these by module and attribute at run time,
outside any package test, so a deleted or moved name would otherwise first
show up as a failing ``benchmarks/run.py --trace 1``.  These tests only read
benchmarks/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracer", BENCHMARKS / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # its dataclasses look their module up
    spec.loader.exec_module(tracer)
    pairs = [(layer.module, attr) for layer in tracer.LAYERS for attr in layer.attrs]
    assert pairs
    missing = [f"qetchain.{module}.{attr}" for module, attr in pairs
               if not hasattr(importlib.import_module(f"qetchain.{module}"), attr)]
    assert not missing


def test_names_the_benchmark_scripts_import_resolve():
    # Read directly by run.py, estimate_large_n.py, workloads.py and test_tracer.py.
    pinned = {
        "qetchain": ("ChainParams", "run_setting1", "ground_covariance", "symplectic_eigenvalues"),
        "qetchain.cli": ("correlation_vectors", "run_validate"),
        "qetchain.experiment": ("run_setting2", "ALPHA_PRESETS", "RunConfig", "render_csv", "summary_fits",
                                "render_fit_lines"),
    }
    missing = [f"{module}.{attr}" for module, attrs in pinned.items() for attr in attrs
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
