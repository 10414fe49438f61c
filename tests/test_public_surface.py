"""The package's public names: every __all__ entry resolves, the root
exports exactly the agreed surface, and the benchmark's imports from the
root are part of it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cornerbie

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

ROOT_NAMES = {
    # error types
    "CornerBieError", "ParameterError", "GeometryError", "CoincidentPointError",
    "AssemblyError", "SingularMatrixError", "SolveError", "ExteriorDomainError",
    "ConfigError",
    # run entry points used by the command line and the README
    "RunConfig", "example_config", "make_exact_solution", "run_example", "angle_sweep",
    "write_table_csv", "write_sweep_csv", "harness",
    # point location
    "boundary_polyline", "winding_number",
}

MODULES = ["cornerbie"] + [f"cornerbie.{m.name}" for m in pkgutil.iter_modules(cornerbie.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, (module_name, missing)


def test_root_exports_the_agreed_surface():
    assert set(cornerbie.__all__) == ROOT_NAMES


def test_bench_imports_only_root_names():
    imported = set()
    for path in sorted(BENCH_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "cornerbie":
                imported.update(alias.name for alias in node.names)
    assert imported, "no 'from cornerbie import' found under bench/"
    assert imported <= set(cornerbie.__all__), sorted(imported - set(cornerbie.__all__))
