"""Tight regression gates on the frozen results, and the one command that
re-freezes them.

tests/goldens/frozen.json is the tests' one store of frozen results:
"tables" holds, per example, each of the 20 table rows' full-precision
u_mN at every evaluation point ("values") and its cond; "angle_sweep"
holds, per family, the benchmark's 60 sweep angles and their conds at
(64, 256).  Errors are not stored: a golden error is |value - exact u|
(conftest.frozen_errors).

The paper's tables and test_harness.test_tables_match_goldens check
errors to a factor of 10 and conds to a factor of 3, which cannot see a
refactor that changes results.  Here values are held at rtol 1e-10 with
an absolute floor of 1e-14, because the triangle's first point has exact
u = 0, where u_mN is pure discretization error (about 3e-13); table conds
at rtol 1e-10; and sweep conds at rtol 1e-12, which the benchmark itself
checks only at 1e-8.  test_frozen_agrees_with_bench_reference holds the
store to the benchmark's own frozen file within the benchmark's
tolerances.

Run as a script to re-freeze the store:

    PYTHONPATH=src python tests/test_field_gate.py

With one BLAS/OpenMP thread it runs the four tables and the store's 60
angles once and prints the declaration a re-freeze needs: each row's
errors and cond over the paper's, every moved cell (old -> new value and
error) and angle (old -> new cond), and per gate the largest move as a
share of its tolerance.  The gates include the benchmark's COND_RTOL and
ERROR_ATOL, read from bench/workloads.py, so a move that also needs a
benchmark re-freeze is named.  It refuses to write if a row or an angle
fails or the paper's one-sided check (conftest.check_table) fails.
"""

import os

if __name__ == "__main__":
    if not __debug__:
        raise SystemExit("the paper's check is made of asserts, which python -O removes")
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")  # before numpy loads

import copy
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cornerbie.harness import RowResult, angle_sweep, example_config, run_example

from conftest import (
    COND_WINDOW,
    ERROR_WINDOW,
    FROZEN_PATH,
    REFERENCE_TABLES,
    check_table,
    frozen_errors,
    load_frozen,
)

BENCH_DIR = Path(__file__).parents[1] / "bench"
EXAMPLES = ("heart", "teardrop", "boomerang", "triangle")
VALUE_RTOL, VALUE_ATOL = 1e-10, 1e-14
COND_RTOL = 1e-10
SWEEP_COND_RTOL = 1e-12
SWEEP_PAIR = (64, 256)


def _bench_workloads():
    """bench/workloads.py, for the benchmark's own tolerances."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_DIR / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_workloads()

# what each gate of the report holds, by name
GATES = {
    "values": f"rtol {VALUE_RTOL:g}, atol {VALUE_ATOL:g}",
    "table conds": f"rtol {COND_RTOL:g}",
    "sweep conds": f"rtol {SWEEP_COND_RTOL:g}",
    "errors": f"two-sided factor {ERROR_WINDOW:g}",
    "conds": f"two-sided factor {COND_WINDOW:g}",
    "bench errors": f"ERROR_ATOL {BENCH.ERROR_ATOL:g}",
    "bench conds": f"COND_RTOL {BENCH.COND_RTOL:g}, table and sweep",
}


def sweep_store_angles(frozen):
    """The store's angles per family, swept at SWEEP_PAIR."""
    return {family: angle_sweep(family, [ref["phi"] for ref in refs], *SWEEP_PAIR)
            for family, refs in frozen["angle_sweep"].items()}


@pytest.fixture(scope="module")
def store_sweeps():
    return sweep_store_angles(load_frozen())


def _factor_share(new, old, window):
    """|log(new / old)| as a share of log(window): 0 unmoved, 1 at the window's edge."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return abs(float(np.log(np.float64(new) / old))) / math.log(window)


def gate_shares(tables, sweeps, frozen):
    """Per gate, the move of each cell or angle from the frozen store as a
    share of the gate's tolerance, keyed by label; above 1 is outside."""
    shares = {gate: {} for gate in GATES}
    for name, rows in tables.items():
        for row, ref in zip(rows, frozen["tables"][name], strict=True):
            label = f"{name} ({row.mu}, {row.nu})"
            cells = zip(row.values, ref["values"], row.errors, frozen_errors(name, ref["values"]))
            for k, (new, old, new_err, old_err) in enumerate(cells):
                cell = f"{label} p{k + 1}"
                shares["values"][cell] = abs(new - old) / (VALUE_ATOL + VALUE_RTOL * abs(old))
                shares["errors"][cell] = _factor_share(new_err, old_err, ERROR_WINDOW)
                shares["bench errors"][cell] = abs(new_err - old_err) / BENCH.ERROR_ATOL
            cell, move = f"{label} cond", abs(row.cond - ref["cond"]) / ref["cond"]
            shares["table conds"][cell] = move / COND_RTOL
            shares["conds"][cell] = _factor_share(row.cond, ref["cond"], COND_WINDOW)
            shares["bench conds"][cell] = move / BENCH.COND_RTOL
    for family, points in sweeps.items():
        for point, ref in zip(points, frozen["angle_sweep"][family], strict=True):
            cell, move = f"{family} phi={ref['phi']!r}", abs(point.cond - ref["cond"]) / ref["cond"]
            shares["sweep conds"][cell] = move / SWEEP_COND_RTOL
            shares["bench conds"][cell] = move / BENCH.COND_RTOL
    return shares


def outside(shares):
    """(gate, label) of every cell or angle outside its gate; NaN is outside."""
    return [(gate, label) for gate, cells in shares.items()
            for label, share in cells.items() if not share <= 1.0]


def refusals(tables, sweeps):
    """Why the results may not be frozen: a failed angle, or a table that
    fails the paper's one-sided check (a failed row among them)."""
    reasons = [f"{family} phi={point.phi!r} failed: {point.error_message}"
               for family, points in sweeps.items() for point in points if point.error_message]
    for name, rows in tables.items():
        try:
            check_table(name, rows)
        except AssertionError as exc:
            reasons.append(f"{name}: the paper's one-sided check fails: {exc}")
    return reasons


def declaration(tables, sweeps, frozen):
    """The report of a re-freeze, as lines: each row's errors and cond over
    the paper's, the moved cells and angles, and per gate its largest move."""
    lines = ["rows: errors / paper's, nearest to farthest point; cond / paper's"]
    moved = []
    for name, rows in tables.items():
        paper = REFERENCE_TABLES[name]
        for i, (row, ref) in enumerate(zip(rows, frozen["tables"][name])):
            label = f"{name} ({row.mu}, {row.nu})"
            ratios = " ".join(f"{e / p:8.3g}" for e, p in zip(row.errors, paper["errs"][i]))
            lines.append(f"  {label:<22}{ratios}   cond {row.cond / paper['cond'][i]:.3g}")
            old_errors = frozen_errors(name, ref["values"])
            for k, (new, old) in enumerate(zip(row.values, ref["values"])):
                if new != old:
                    moved.append(f"  {label} p{k + 1}: value {old!r} -> {new!r}, error "
                                 f"{old_errors[k]!r} -> {row.errors[k]!r}, new error / "
                                 f"paper's {row.errors[k] / paper['errs'][i][k]:.3g}")
            if row.cond != ref["cond"]:
                moved.append(f"  {label} cond: {ref['cond']!r} -> {row.cond!r}, new / "
                             f"paper's {row.cond / paper['cond'][i]:.3g}")
    for family, points in sweeps.items():
        for point, ref in zip(points, frozen["angle_sweep"][family]):
            if point.cond != ref["cond"]:
                moved.append(f"  {family} phi={ref['phi']!r}: cond {ref['cond']!r} -> "
                             f"{point.cond!r}")
    lines += ["moved cells and angles:"] + (moved or ["  none"])
    lines.append("gates: largest move as a share of the tolerance (above 1 is outside)")
    shares = gate_shares(tables, sweeps, frozen)
    flagged = outside(shares)
    for gate, cells in shares.items():
        worst = max(cells, key=lambda label: math.inf if math.isnan(cells[label]) else cells[label])
        bad = [label for g, label in flagged if g == gate]
        verdict = f"OUTSIDE at {', '.join(bad)}" if bad else "holds"
        lines.append(f"  {gate:<13}{GATES[gate]:<34}{cells[worst]:9.3g} at {worst}: {verdict}")
    return lines


def freeze(tables, sweeps, frozen, path=FROZEN_PATH):
    """Print the declaration of tables and sweeps against frozen, then
    write them to path as the store, unless a refusal holds."""
    print("\n".join(declaration(tables, sweeps, frozen)))
    reasons = refusals(tables, sweeps)
    if reasons:
        raise SystemExit("\n".join([f"not writing {path}:"] + reasons))
    store = {"tables": {name: [dict(mu=r.mu, nu=r.nu, values=r.values, cond=r.cond)
                               for r in rows] for name, rows in tables.items()},
             "angle_sweep": {family: [dict(phi=p.phi, cond=p.cond) for p in points]
                             for family, points in sweeps.items()}}
    Path(path).write_text(json.dumps(store, indent=1) + "\n")
    print(f"wrote {path}")


@pytest.mark.parametrize("name", EXAMPLES)
def test_field_values_match_frozen(name, example_tables):
    frozen = load_frozen()["tables"][name]
    rows = example_tables[name]
    assert [(r.mu, r.nu) for r in rows] == [(f["mu"], f["nu"]) for f in frozen]
    for row, ref in zip(rows, frozen):
        assert not row.failed, row.error_message
        np.testing.assert_allclose(row.values, ref["values"], rtol=VALUE_RTOL,
                                   atol=VALUE_ATOL, err_msg=f"{name} {row.mu},{row.nu}")
        np.testing.assert_allclose(row.cond, ref["cond"], rtol=COND_RTOL, atol=0.0,
                                   err_msg=f"{name} {row.mu},{row.nu}")


@pytest.mark.parametrize("family", ["heart", "teardrop", "boomerang"])
def test_sweep_conds_match_frozen(family, store_sweeps):
    reference = load_frozen()["angle_sweep"][family]
    points = store_sweeps[family]
    assert all(p.error_message is None for p in points), points
    np.testing.assert_allclose([p.cond for p in points], [ref["cond"] for ref in reference],
                               rtol=SWEEP_COND_RTOL, atol=0.0, err_msg=family)


def test_frozen_agrees_with_bench_reference():
    """The store and the benchmark's frozen file hold the same rows and
    angles, their conds within COND_RTOL and the store's derived errors
    within ERROR_ATOL of the file's, so neither drifts from the other unseen."""
    bench = json.loads((BENCH_DIR / "reference.json").read_text())
    frozen = load_frozen()
    assert list(frozen["tables"]) == list(bench["tables"])
    for name, refs in bench["tables"].items():
        rows = frozen["tables"][name]
        assert [(r["mu"], r["nu"]) for r in rows] == [(r["mu"], r["nu"]) for r in refs]
        for row, ref in zip(rows, refs):
            np.testing.assert_allclose(row["cond"], ref["cond"], rtol=BENCH.COND_RTOL, atol=0.0)
            np.testing.assert_allclose(frozen_errors(name, row["values"]), ref["errors"],
                                       rtol=0.0, atol=BENCH.ERROR_ATOL)
    assert list(frozen["angle_sweep"]) == list(bench["angle_sweep"])
    for family, refs in bench["angle_sweep"].items():
        points = frozen["angle_sweep"][family]
        assert [p["phi"] for p in points] == [p["phi"] for p in refs]
        np.testing.assert_allclose([p["cond"] for p in points], [p["cond"] for p in refs],
                                   rtol=BENCH.COND_RTOL, atol=0.0)


def test_writer_reports_nothing_outside_on_the_committed_store(example_tables, store_sweeps,
                                                               tmp_path, capsys):
    frozen = load_frozen()
    shares = gate_shares(example_tables, store_sweeps, frozen)
    assert [len(cells) for cells in shares.values()] == [80, 20, 60, 80, 20, 80, 80]
    assert outside(shares) == [] and refusals(example_tables, store_sweeps) == []
    path = tmp_path / "frozen.json"
    freeze(example_tables, store_sweeps, frozen, path)
    assert "OUTSIDE" not in capsys.readouterr().out
    written = json.loads(path.read_text())
    assert list(written) == list(frozen) and list(written["tables"]) == list(frozen["tables"])
    assert written["tables"]["triangle"][4]["values"] == example_tables["triangle"][4].values
    assert [p["phi"] for p in written["angle_sweep"]["heart"]] == [
        p["phi"] for p in frozen["angle_sweep"]["heart"]]


def test_writer_names_a_nudged_value(example_tables, store_sweeps, capsys):
    frozen = copy.deepcopy(load_frozen())
    frozen["tables"]["heart"][1]["values"][2] += 1e-11
    assert outside(gate_shares(example_tables, store_sweeps, frozen)) == [
        ("values", "heart (16, 64) p3")]
    lines = declaration(example_tables, store_sweeps, frozen)
    assert any(line.startswith("  heart (16, 64) p3: value ") for line in lines)
    flagged = [line.split() for line in lines if "OUTSIDE" in line]
    assert [(words[0], words[-3:]) for words in flagged] == [
        ("values", ["(16,", "64)", "p3"])]


def test_writer_refuses_a_failed_row(example_tables, store_sweeps, tmp_path):
    tables = dict(example_tables)
    tables["boomerang"] = list(tables["boomerang"])
    tables["boomerang"][3] = RowResult(64, 256, [math.nan] * 4, [math.nan] * 4, math.nan,
                                       error_message="SolveError: singular")
    path = tmp_path / "frozen.json"
    with pytest.raises(SystemExit, match="boomerang: the paper's one-sided check fails: "
                                         r"\('boomerang', 64, 'SolveError: singular'\)"):
        freeze(tables, store_sweeps, load_frozen(), path)
    assert not path.exists()


if __name__ == "__main__":
    frozen = load_frozen()
    freeze({name: run_example(example_config(name)) for name in EXAMPLES},
           sweep_store_angles(frozen), frozen)
