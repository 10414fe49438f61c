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
    # polyline reference helpers, imported by the benchmark
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


def test_package_does_not_use_the_polyline_helpers():
    # boundary_polyline and winding_number are reference helpers that the
    # root re-exports for the benchmark; the package locates points against
    # the arcs, so no module calls them or imports them for its own use
    helpers = {"boundary_polyline", "winding_number"}
    for path in sorted(Path(cornerbie.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            used = (isinstance(node, ast.Name) and node.id in helpers
                    or isinstance(node, ast.Attribute) and node.attr in helpers)
            imported = (isinstance(node, ast.ImportFrom) and path.name != "__init__.py"
                        and any(alias.name in helpers for alias in node.names))
            assert not (used or imported), (path.name, node.lineno)


def test_kernels_do_not_import_geometry():
    # the kernels work on node arrays and corner parameters that assembly
    # hands them; which sub-arcs form a corner pair is assembly's to know
    path = Path(cornerbie.__file__).resolve().parent / "kernels.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            paths = [f"{module}.{alias.name}".split(".") for alias in node.names]
            assert not any("geometry" in p for p in paths), node.lineno


def test_solve_post_does_not_import_rhs():
    # the field reads the row's datum rule that the harness hands it; the
    # datum that builds the rule is not its to know
    path = Path(cornerbie.__file__).resolve().parent / "solve_post.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            paths = [f"{module}.{alias.name}".split(".") for alias in node.names]
            assert not any("rhs" in p for p in paths), node.lineno


def test_rhs_needs_only_the_boundary():
    # the right-hand side reads its arcs from the datum's boundary; the
    # sub-arc decomposition is not its to know
    path = Path(cornerbie.__file__).resolve().parent / "rhs.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry"):
            names = {alias.name for alias in node.names}
            assert names <= {"Boundary", "as_complex"}, (names, node.lineno)
        elif isinstance(node, ast.Import):
            assert not any("geometry" in alias.name for alias in node.names), node.lineno


def test_solve_post_only_evaluates():
    # the run locates every evaluation point once, before any row; the
    # field takes only as_complex from geometry, locates nothing, and is
    # its own table of sources: no kernel, decomposition or locator
    path = Path(cornerbie.__file__).resolve().parent / "solve_post.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry"):
            names = {alias.name for alias in node.names}
            assert names <= {"as_complex"}, (names, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            named = [node.module or ""] + [alias.name for alias in node.names]
            assert not any(name.endswith("kernels") for name in named), node.lineno
        elif isinstance(node, ast.Import):
            assert not any(part in alias.name for alias in node.names
                           for part in ("geometry", "kernels")), node.lineno
        assert not (isinstance(node, ast.Attribute)
                    and node.attr in {"locate", "dec", "locator"}), (node.attr, node.lineno)


def test_rhs_exports_the_datum_and_the_row_rhs():
    # the datum's Gauss-Legendre sources live on NeumannDatum.sources; no
    # free function builds them
    assert cornerbie.rhs.__all__ == ["NeumannDatum", "rhs_approx"]


def test_assembly_reads_only_the_decomposition_from_geometry():
    # the node table maps each sub-arc window itself (SubArc.macro_t) and
    # reads the macro arcs directly; no per-sub-arc geometry helper is
    # imported
    path = Path(cornerbie.__file__).resolve().parent / "assembly.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("geometry"):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any("geometry" in alias.name for alias in node.names), node.lineno
    assert imported == {"CENTRAL", "GAMMA", "UPSILON", "Decomposition"}, sorted(imported)
