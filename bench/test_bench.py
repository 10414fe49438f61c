"""Checks of the benchmark's own machinery, without running a workload.

    PYTHONPATH=src python -m pytest -q bench
"""

import math

import numpy as np
import pytest

from cornerbie import boundary_polyline, example_config, winding_number
from tracing import TIMED_SPANS, Tracer, layer_metrics
from workloads import (
    FIELD_LOG10_DISTANCE,
    AngleSweep,
    FieldMap,
    Tables,
    Tally,
    boundary_distance,
    decade_shares,
    exterior_points,
    load_reference,
    traced_harness,
)


def _frozen_table_outputs(reference):
    return np.array([v for name in ("heart", "teardrop", "boomerang", "triangle")
                     for row in reference["tables"][name]
                     for v in (row["cond"], *row["errors"])])


def test_tables_pass_on_frozen_values_and_fail_the_corrupted_rows():
    reference = load_reference()
    work = Tables(0, reference)
    out = _frozen_table_outputs(reference)
    tally = Tally()
    work.check(out, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (20, 0, True)

    reference["tables"]["boomerang"][2]["cond"] *= 1.0 + 1e-7
    reference["tables"]["heart"][4]["errors"][1] += 2e-10
    tally = Tally()
    work.check(out, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (20, 2, False)
    assert tally.problems == ["tables heart (128, 512)", "tables boomerang (32, 128)"]


def test_repeated_passes_count_each_operation_once():
    reference = load_reference()
    work = Tables(0, reference)
    out = _frozen_table_outputs(reference)
    bad = out.copy()
    bad[0] = 0.0  # heart (8, 32) fails in the second pass only
    tally = Tally()
    for pass_out in (out, bad, bad):
        work.check(pass_out, tally)
    assert (tally.attempted, tally.failed) == (20, 1)
    assert tally.problems == ["tables heart (8, 32)"]


def test_angle_sweep_fails_only_the_corrupted_angle():
    reference = load_reference()
    work = AngleSweep(0, reference)
    out = np.array([p["cond"] for family in work.phis
                    for p in reference["angle_sweep"][family]])
    tally = Tally()
    work.check(out, tally)
    assert (tally.attempted, tally.failed) == (60, 0)

    out[41] *= 1.0 + 2e-8
    tally = Tally()
    work.check(out, tally)
    assert (tally.attempted, tally.failed, len(tally.problems)) == (60, 1, 1)
    assert tally.problems[0].startswith("angle_sweep boomerang")


def test_field_misses_near_the_boundary_fail_without_making_the_run_incorrect():
    work = FieldMap.__new__(FieldMap)
    work.configs = [example_config(name, points=((5.0, 5.0), (6.0, 6.0)))
                    for name in ("heart", "boomerang")]
    work.distances = [np.array([0.01, 3.0]), np.array([0.05, 0.5])]
    work.ref_cond = [18.0, 17.0]
    out = np.array([18.0, 1e-3, 1e-9, 17.0, 1e-8, 1e-7])
    tally = Tally()
    work.check(out, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (4, 1, True)

    out[5] = 2e-6  # a miss at distance 0.5 is not the known defect
    tally = Tally()
    work.check(out, tally)
    assert (tally.failed, tally.correct) == (2, False)

    out[3] = 17.0 * (1 + 1e-6)  # wrong cond fails the domain's every point
    tally = Tally()
    work.check(out, tally)
    assert (tally.failed, len(tally.problems)) == (3, 2)


@pytest.mark.parametrize("name", ["heart", "boomerang"])
def test_exterior_points_are_exterior_at_the_drawn_distance(name):
    boundary = example_config(name).build_boundary()
    pts, dists = exterior_points(boundary, 60, np.random.default_rng([7, 0]))
    again, _ = exterior_points(boundary, 60, np.random.default_rng([7, 0]))
    assert np.array_equal(pts, again)
    lo, hi = FIELD_LOG10_DISTANCE
    assert np.all((dists >= 10.0**lo) & (dists <= 10.0**hi))
    np.testing.assert_allclose(boundary_distance(boundary, pts), dists, rtol=1e-9)
    polyline = boundary_polyline(boundary)
    assert all(winding_number(polyline, p) == 0 for p in pts)


def test_decade_shares_sum_to_one():
    shares = decade_shares(np.array([1e-3, 5e-3, 0.2, 99.0, 100.0]))
    assert shares == {"1e-3": 0.4, "1e-2": 0.0, "1e-1": 0.2, "1e0": 0.0, "1e1": 0.4}


def test_layer_self_times_and_harness_remainder():
    tr = Tracer()
    tr.spans = [
        ["harness.validate", 0.0, 1.0, -1, "a"],
        ["geometry.boundary", 0.2, 0.5, 0, "a"],
        ["assembly.build_system", 1.0, 5.0, -1, "a/1"],
        ["rhs.rhs_approx", 1.5, 2.0, 2, "a/1"],
        ["rhs.rhs_approx", 2.5, 3.5, 2, "a/1"],
        ["solve_post.cond_inf", 5.0, 6.0, -1, "a/1"],
    ]
    m = layer_metrics(tr, wall=6.5)
    assert m["harness.validate.s"] == 0.7
    assert m["geometry.boundary.s"] == 0.3
    assert m["rhs.rhs_approx.s"] == 1.5
    assert m["rhs.rhs_approx.calls"] == 2
    assert m["assembly.build_system.self_s"] == 2.5
    assert m["harness.self_s"] == 0.5
    assert m["solve_post.eval_exterior.calls"] == 0
    parts = [m[f"{name}.s"] for name in TIMED_SPANS]
    parts += [m["assembly.build_system.self_s"], m["harness.self_s"]]
    assert sum(parts) == pytest.approx(6.5)


def test_spans_nest_close_on_error_and_share_the_row_id():
    tr = Tracer()
    tr.op("heart", row_start="outer")
    with tr.span("before"):
        pass
    for _ in range(2):
        with tr.span("outer"):
            with pytest.raises(ZeroDivisionError):
                with tr.span("inner"):
                    1 / 0
    before, outer, inner, outer2, inner2 = tr.spans
    assert outer[3] == -1 and inner[3] == 1
    assert before[4] == "heart"
    assert outer[4] == inner[4] == "heart/1"
    assert outer2[4] == inner2[4] == "heart/2"
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]
    assert not math.isnan(inner[2])


def test_traced_harness_spans_the_real_calls_and_restores_them():
    from cornerbie import harness

    saved = {name: getattr(harness, name) for name in ("decompose", "build_system")}
    saved_validate = harness.RunConfig.validate
    cfg = example_config("heart", pairs=((8, 32), (16, 64)))
    plain = [(r.cond, r.errors) for r in harness.run_example(cfg)]
    tr = Tracer()
    tr.op("heart", row_start="assembly.build_system")
    with traced_harness(tr):
        traced = [(r.cond, r.errors) for r in harness.run_example(cfg)]
    assert traced == plain
    assert all(getattr(harness, name) is fn for name, fn in saved.items())
    assert harness.RunConfig.validate is saved_validate
    names = [(span[0], span[4]) for span in tr.spans if span[3] < 0]
    assert names[:4] == [("harness.validate", "heart"), ("geometry.boundary", "heart"),
                         ("geometry.decompose", "heart"), ("rhs.datum", "heart")]
    assert names[4:6] == [("assembly.build_system", "heart/1"),
                          ("solve_post.cond_inf", "heart/1")]
    m = layer_metrics(tr, wall=1.0)
    assert m["solve_post.eval_exterior.calls"] == 2 * len(cfg.points)
    assert m["assembly.unknowns"] > 0 and m["rhs.rhs_approx.calls"] > 0
