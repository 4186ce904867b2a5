"""The import surface: every exported name resolves, every entry script imports.

A deleted def that a package still re-exports, or an example that still
imports it, fails here instead of at a user's first ``import``.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parents[1]

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith("__main__")  # importing it would run the CLI
)

SCRIPTS = sorted(
    str(path.relative_to(REPO))
    for pattern in ("examples/*.py", "scripts/*.py", "benchmarks/bench_*.py")
    for path in REPO.glob(pattern)
)


def test_surface_is_not_empty():
    assert "repro.quant" in MODULES and "repro.serve.cluster" in MODULES
    assert "examples/quickstart.py" in SCRIPTS


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_imports_without_running_main(script):
    path = REPO / script
    spec = importlib.util.spec_from_file_location(f"_surface_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    saved_path = list(sys.path)  # some scripts put their own folder on sys.path
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
    assert module.__name__ != "__main__"
