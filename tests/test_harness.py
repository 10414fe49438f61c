import contextlib
import copy
import csv
import functools
import io
import json
import math
import operator
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cornerbie import ConfigError, SingularMatrixError, cli, harness
from cornerbie.cli import main as cli_main
from cornerbie.geometry import TRIANGLE_VERTICES, PointLocator
from cornerbie.harness import angle_sweep, example_config, make_exact_solution, run_example

GOLDEN_DIR = Path(__file__).parent / "goldens"
_BEYOND_FLOAT = 10**400  # an integer that float() cannot convert; JSON writes it whole


@pytest.mark.parametrize("name,params", [
    ("log_pair", dict(q1=(0.5, 0.0), q2=(0.2, 0.0))),
    ("arctan_pair", {}),
    ("dipole", {}),
])
def test_exact_solutions_are_harmonic(name, params):
    sol = make_exact_solution(name, **params)
    rng = np.random.default_rng(7)
    h = 1e-4
    for _ in range(20):
        r = rng.uniform(2.0, 5.0)
        th = rng.uniform(0.0, 2 * math.pi)
        p = np.array([r * math.cos(th), r * math.sin(th)])
        lap = (sol.u(p + [h, 0]) + sol.u(p - [h, 0]) + sol.u(p + [0, h])
               + sol.u(p - [0, h]) - 4 * sol.u(p)) / h**2
        assert abs(lap) <= 1e-4


def test_exact_gradients_match_finite_differences():
    h = 1e-6
    for name, params in (("log_pair", dict(q1=(0.5, 0.0), q2=(0.2, 0.0))),
                         ("arctan_pair", {}), ("dipole", {})):
        sol = make_exact_solution(name, **params)
        for p in (np.array([2.0, 1.0]), np.array([-3.0, 0.5])):
            fd = np.array([
                (sol.u(p + [h, 0.0]) - sol.u(p - [h, 0.0])) / (2 * h),
                (sol.u(p + [0.0, h]) - sol.u(p - [0.0, h])) / (2 * h),
            ])
            assert np.abs(fd - sol.grad(p)).max() <= 1e-8 * max(1.0, np.abs(fd).max())


def test_arctan_pair_continuous_branch():
    sol = make_exact_solution("arctan_pair")
    # matches the principal-value arctan difference away from the branch line
    x, y = -0.1, 0.0
    want = math.atan((y - 0.2) / (x - 0.8)) - math.atan(y / (x - 0.8))
    assert float(sol.u(np.array([x, y]))) == pytest.approx(want, rel=1e-14)
    # decays at infinity instead of jumping by 2 pi behind the poles
    assert abs(float(sol.u(np.array([-1000.0, 0.0])))) <= 1e-2


def test_unknown_solution_and_example_rejected():
    with pytest.raises(ConfigError):
        make_exact_solution("vortex")
    # a missing parameter is named, and an unknown one is not ignored
    with pytest.raises(ConfigError, match=r"missing \['q2'\], unknown \[\]"):
        make_exact_solution("log_pair", q1=(0.5, 0.0))
    with pytest.raises(ConfigError, match=r"missing \[\], unknown \['q1'\]"):
        make_exact_solution("dipole", q1=(0.5, 0.0))
    with pytest.raises(ConfigError):
        example_config("pentagon")


def test_config_validation_catches_bad_points():
    # points are located on the run's boundary, before any row
    cfg = example_config("heart", points=((0.5, 0.0),))  # interior point
    with pytest.raises(ConfigError):
        run_example(cfg)
    cfg = example_config("heart", pairs=((32, 16),))
    with pytest.raises(ConfigError):
        cfg.validate()
    # a rule order from a JSON config can be a float
    with pytest.raises(ConfigError):
        example_config("heart", M=3.5).validate()
    # singular points of the solution must be inside the domain
    bad_sol = make_exact_solution("log_pair", q1=(5.0, 5.0), q2=(0.2, 0.0))
    cfg = example_config("heart", solution=bad_sol)
    with pytest.raises(ConfigError):
        run_example(cfg)


def test_config_validation_names_the_first_failing_point():
    # exterior, interior, interior again: the first interior point is named
    cfg = example_config("heart", points=((3.0, 3.0), (0.5, 0.0), (0.3, 0.0)))
    with pytest.raises(ConfigError) as info:
        run_example(cfg)
    assert str(info.value) == "evaluation point (0.5, 0.0) is not a finite exterior point"
    # a singular point outside the domain is reported before any evaluation point
    bad_sol = make_exact_solution("log_pair", q1=(0.5, 0.0), q2=(5.0, 5.0))
    with pytest.raises(ConfigError) as info:
        run_example(example_config("heart", solution=bad_sol, points=cfg.points))
    assert str(info.value) == ("singular point (5.0, 5.0) of solution "
                               "'log_pair' must be a finite point inside the domain")
    # a row that is not an (x, y) pair of numbers is named with its index
    with pytest.raises(ConfigError) as info:
        example_config("heart", points=(("a", 1.0),)).validate()
    assert str(info.value) == ("evaluation point 0 must be an (x, y) pair of numbers, "
                               "got ('a', 1.0)")
    with pytest.raises(ConfigError) as info:
        example_config("heart", points=((3.0, 3.0), (3.0, 3.0, 7.0))).validate()
    assert str(info.value) == ("evaluation point 1 must be an (x, y) pair of numbers, "
                               "got (3.0, 3.0, 7.0)")
    # non-finite and interior points are named in their order
    cfg = example_config("heart", points=((3.0, 3.0), (0.3, 0.0), (math.nan, 0.0)))
    with pytest.raises(ConfigError, match=r"^evaluation point \(0\.3, 0\.0\) is not"):
        run_example(cfg)
    cfg = example_config("heart", points=((3.0, 3.0), (math.nan, 0.0), (0.3, 0.0)))
    with pytest.raises(ConfigError, match=r"^evaluation point \(nan, 0\.0\) is not"):
        run_example(cfg)
    rows = run_example(example_config("heart", pairs=((4, 16),),
                                      points=((3.0, 3.0), (-0.1, 0.0))))
    assert not rows[0].failed


@pytest.mark.parametrize("point", [(math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf)])
def test_non_finite_points_are_config_errors(point):
    cfg = example_config("heart", pairs=((8, 32),), points=(point,))
    with pytest.raises(ConfigError):
        run_example(cfg)
    sol = make_exact_solution("log_pair", q1=point, q2=(0.2, 0.0))
    with pytest.raises(ConfigError):
        run_example(example_config("heart", solution=sol))


@pytest.mark.parametrize("override", [
    dict(c="300"), dict(delta="1e-6"), dict(eps=None), dict(phi="5"), dict(c=True),
    dict(points=(("a", 1.0),)), dict(c=1e-300), dict(c=math.nan),
    dict(pairs=((8.5, 32),)), dict(pairs=(("8", "32"),)), dict(pairs=((8, 32, 1),)),
    dict(pairs=((True, 32),)), dict(points=((True, 3.0),)), dict(points=((3.0, 3.0, 7.0),)),
    dict(vertices=((-1.25, -0.75), (0.75, -0.75), (0.75, 1.25, 0.0))), dict(M=True),
    dict(domain=[1]), dict(domain=5), dict(pairs=()), dict(pairs=np.array([[8, 32]])),
    dict(solution=None), dict(points=None), dict(points=5), dict(phi=None, vertices=5),
], ids=["string-c", "string-delta", "none-eps", "string-phi", "bool-c", "string-point",
        "tau-underflow", "nan-c", "float-pair", "string-pair", "three-value-pair",
        "bool-pair", "bool-point", "three-value-point", "three-coordinate-vertex", "bool-M",
        "list-domain", "int-domain", "empty-pairs", "array-pairs", "none-solution",
        "none-points", "int-points", "int-vertices"])
def test_config_field_errors_are_config_errors(override):
    # at c = 1e-300 and nu = 32, tau^2 underflows to 0 and the wedge
    # kernel at (0, tau) is undefined; c = nan would run as tau = 1; a pair
    # or point is never truncated or converted to fit
    with pytest.raises(ConfigError):
        run_example(example_config("heart", **{"pairs": ((8, 32),), **override}))


def test_huge_evaluation_point_is_config_error(tmp_path, capsys):
    # the exact solution overflows at a finite exterior point: the point is
    # named, and the CLI reports a configuration error
    cfg = example_config("heart", pairs=((8, 32),), points=((3.0, 3.0), (1.5e308, 1.5e308)))
    cfg.validate()
    with pytest.raises(ConfigError, match=r"not finite at evaluation point \(1\.5e\+308, "):
        run_example(cfg)
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[1.5e308, 1.5e308]]))
    assert cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32",
                     "--points", str(pts)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32",
                     "--c", "1e-300"]) == 2


def test_run_example_smoke():
    cfg = example_config("heart", pairs=((8, 32),))
    rows = run_example(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert not row.failed
    assert row.cond < 1e3
    assert all(math.isfinite(e) for e in row.errors)


def test_run_example_evaluates_exact_solution_once():
    # one call of F on all points per run, whatever the number of rows
    cfg = example_config("heart", pairs=((8, 32), (16, 64), (32, 128)))
    seen = []

    def F(z):
        seen.append(np.shape(z))
        return cfg.solution.F(z)

    rows = run_example(replace(cfg, solution=replace(cfg.solution, F=F)))
    assert len(rows) == 3 and not any(row.failed for row in rows)
    assert seen == [(len(cfg.points),)]


def test_phi_of_a_polygon_is_config_error(capsys):
    # the triangle and a polygon given by its vertices have no angle to set
    with pytest.raises(ConfigError, match="'phi' must be None for a polygon"):
        run_example(example_config("triangle", phi=1.5 * math.pi))
    polygon = example_config("triangle", vertices=TRIANGLE_VERTICES, pairs=((8, 32),))
    assert not run_example(polygon)[0].failed
    with pytest.raises(ConfigError, match="'phi' must be None for a polygon"):
        run_example(replace(polygon, phi=1.5 * math.pi))
    assert cli_main(["solve", "--example", "triangle", "--phi", "1.5pi"]) == 2
    assert "'phi'" in capsys.readouterr().err


def test_run_example_builds_one_locator_per_boundary(monkeypatch):
    # one boundary per run: the point checks and every row read its locator,
    # and the points are located once, by the run's check, not per row
    built, boundaries, located = [], [], []
    init, locate = PointLocator.__init__, PointLocator.locate
    make_domain = harness.make_example_domain

    def counting_init(self, boundary):
        built.append(self)
        init(self, boundary)

    def counting_locate(self, points):
        located.append(len(np.asarray(points).reshape(-1, 2)))
        return locate(self, points)

    def counting_domain(*args):
        boundaries.append(make_domain(*args))
        return boundaries[-1]

    monkeypatch.setattr(PointLocator, "__init__", counting_init)
    monkeypatch.setattr(PointLocator, "locate", counting_locate)
    monkeypatch.setattr(harness, "make_example_domain", counting_domain)
    pairs = ((4, 16), (8, 32), (12, 48), (16, 64), (24, 96))
    rows = run_example(example_config("heart", pairs=pairs))
    assert len(rows) == 5 and not any(row.failed for row in rows)
    assert len(boundaries) == 1 and len(built) == 1
    assert located == [2 + 4]  # two singular points, four evaluation points


def test_run_example_on_a_small_square():
    # a square of side 1e-9: the sources lie 2e-10 from the boundary and the
    # second point 5e-11 off it, each far from the boundary on its scale
    s = 1e-9
    sol = make_exact_solution("log_pair", q1=(0.2 * s, 0.2 * s), q2=(0.5 * s, 0.7 * s))
    cfg = example_config("triangle", solution=sol, vertices=((0, 0), (s, 0), (s, s), (0, s)),
                         delta=1e-6 * s, c=300.0, eps=1e-3, pairs=((8, 32),),
                         points=((3 * s, 3 * s), (-0.05 * s, 0.5 * s)))
    (row,) = run_example(cfg)
    assert not row.failed and np.isfinite(row.values).all()


@pytest.mark.parametrize("name", ("heart", "teardrop", "boomerang", "triangle"))
def test_row_errors_are_differences_from_exact_values(name, example_tables):
    cfg = example_config(name)
    exact = cfg.solution.u(np.array(cfg.points, float))
    # the whole-array exact values are those of one point at a time
    np.testing.assert_array_equal(
        exact, [float(cfg.solution.u(np.asarray(p, float))) for p in cfg.points])
    for row in example_tables[name]:
        np.testing.assert_array_equal(row.errors, np.abs(np.array(row.values) - exact))


def test_angle_sweep_records_failures_and_continues(monkeypatch):
    # the second angle's condition number fails numerically; the sweep
    # records that and goes on to the third
    calls, cond = [], harness.cond_inf

    def failing_second(system):
        calls.append(system)
        if len(calls) == 2:
            raise SingularMatrixError("numerically singular pivot")
        return cond(system)

    monkeypatch.setattr(harness, "cond_inf", failing_second)
    pts = angle_sweep("heart", [1.2 * math.pi, 1.3 * math.pi, 1.4 * math.pi], 4, 16,
                      c=300.0, eps=1e-3, delta=1e-5)
    assert len(calls) == 3
    assert pts[0].error_message is None and math.isfinite(pts[0].cond)
    assert pts[1].error_message == "SingularMatrixError: numerically singular pivot"
    assert math.isnan(pts[1].cond)
    assert pts[2].error_message is None and math.isfinite(pts[2].cond)


@pytest.mark.parametrize("family, phis, named", [
    ("heart", [1.2 * math.pi, math.pi], math.pi),
    ("heart", [0.5 * math.pi, 1.5 * math.pi], 0.5 * math.pi),
    ("teardrop", [0.5 * math.pi, 2.5, math.pi, -1.0], math.pi),
    ("boomerang", [2.0 * math.pi], 2.0 * math.pi),
    ("heart", [math.nan], math.nan),
], ids=["heart-pi", "heart-half-pi", "teardrop-pi", "boomerang-2pi", "heart-nan"])
def test_angle_sweep_rejects_an_angle_out_of_range_before_any_runs(monkeypatch, family,
                                                                   phis, named):
    built = []
    monkeypatch.setattr(harness, "build_system", lambda *args: built.append(args))
    with pytest.raises(ConfigError, match=re.escape(f"got {named}")) as err:
        angle_sweep(family, phis, 4, 16)
    assert "'phis'" in str(err.value) and not built


@pytest.mark.parametrize("phis, named", [(["x"], "'x'"), ([None], "None"),
                                          ([1.5 * math.pi, "y"], "'y'"), (5, "got 5"),
                                          pytest.param([_BEYOND_FLOAT], str(_BEYOND_FLOAT),
                                                       id="beyond-float-range")])
def test_angle_sweep_names_a_malformed_angle(phis, named):
    with pytest.raises(ConfigError, match=re.escape(named)) as err:
        angle_sweep("heart", phis, 8, 32)
    assert "'phis'" in str(err.value)


def test_angle_sweep_rejects_triangle():
    with pytest.raises(ConfigError):
        angle_sweep("triangle", [1.0], 4, 16)


@pytest.mark.parametrize("name", ("heart", "teardrop", "boomerang", "triangle"))
def test_tables_match_goldens(name, example_tables):
    """Regenerated tables against the checked-in goldens.

    Per-cell relative tolerance: a factor 10 on error cells, 3 on the
    condition number (the goldens freeze the observed behaviour; drifting
    outside these windows means the solver changed materially).
    """
    rows = example_tables[name]
    with open(GOLDEN_DIR / f"{name}_table.csv", newline="") as fh:
        golden = list(csv.DictReader(fh))
    assert len(golden) == len(rows)
    for row, ref in zip(rows, golden):
        assert not row.failed
        assert row.mu == int(ref["mu"]) and row.nu == int(ref["nu"])
        for col, err in zip(("err_p1", "err_p2", "err_p3", "err_p4"), row.errors):
            want = float(ref[col])
            assert err <= 10.0 * want and err >= want / 10.0, (name, row.mu, col)
        want_cond = float(ref["cond"])
        assert row.cond <= 3.0 * want_cond and row.cond >= want_cond / 3.0


def test_convergence_trend_at_far_point(example_tables):
    # far-point errors non-increasing as (mu, nu) doubles, allowing one
    # inversion of at most 3x
    for name, rows in example_tables.items():
        far = [row.errors[-1] for row in rows]
        inversions = sum(1 for a, b in zip(far, far[1:]) if b > a)
        assert inversions <= 1, (name, far)
        for a, b in zip(far, far[1:]):
            assert b <= 3.0 * a, (name, far)


def test_cond_stabilizes(example_tables):
    for name, rows in example_tables.items():
        c1, c2 = rows[-2].cond, rows[-1].cond
        assert abs(c2 - c1) / c1 < 0.05, (name, c1, c2)
        # after the first row the condition numbers settle within a decade
        tail = [row.cond for row in rows[1:]]
        assert max(tail) / min(tail) < 10.0, (name, tail)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_solve_smoke(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32",
                     "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "cond=" in text
    rows = list(csv.DictReader(open(out, newline="")))
    assert len(rows) == 1 and rows[0]["mu"] == "8"


def test_cli_solve_help_says_what_solve_prints(capsys):
    # solve prints |u - u_mN| at each evaluation point, not the values
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["solve", "--help"])
    assert exit_info.value.code == 0
    assert "print |u - u_mN| per point" in " ".join(capsys.readouterr().out.split())


def test_cli_wedge_kernel_error_names_the_zero_denominator(capsys):
    # at 1.999999999 pi the heart's chi is -0.999999999, cos(chi pi)
    # rounds to -1, and the wedge kernel's denominator is (s - t)^2 = 0 at
    # t = s, not at the corner pair (0, 0)
    argv = ["solve", "--example", "heart", "--mu", "8", "--nu", "32", "--phi", "1.999999999pi"]
    assert cli_main(argv) == 3
    assert capsys.readouterr().err == (
        "row (mu=8, nu=32) failed: ParameterError: mellin kernel undefined at (t, s) = "
        "(0.04463395528997005, 0.04463395528997005), chi = -0.9999999989999997: "
        "zero denominator\n")


def test_cli_table_and_angle_sweep(tmp_path):
    table = tmp_path / "table.csv"
    code = cli_main(["table", "--example", "teardrop", "--mu", "8", "--nu", "32",
                     "--out", str(table)])
    assert code == 0
    header = open(table).readline().strip()
    assert header == "mu,nu,err_p1,err_p2,err_p3,err_p4,cond"

    sweep = tmp_path / "sweep.csv"
    code = cli_main(["angle-sweep", "--example", "teardrop",
                     "--phi-grid", "0.4pi,0.6pi", "--mu", "4", "--nu", "16",
                     "--out", str(sweep)])
    assert code == 0
    rows = list(csv.DictReader(open(sweep, newline="")))
    assert len(rows) == 2
    assert all(float(r["cond"]) < 1e3 for r in rows)


@pytest.mark.parametrize("grid", ["0.5pi", "0.5pi,1.5pi"])
def test_cli_angle_sweep_angle_out_of_range_exits_2(grid, capsys):
    # an angle outside the family's range is a configuration error, named,
    # whether or not other angles of the grid are in range
    assert cli_main(["angle-sweep", "--example", "heart", "--phi-grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and f"got {0.5 * math.pi}" in err


def test_cli_corner_search_error_names_the_corner_and_delta(capsys):
    # no corner arc of positive length stays within 1e-300 of the heart's
    # corner tangents
    argv = ["solve", "--example", "heart", "--mu", "8", "--nu", "32", "--delta", "1e-300"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == ("configuration error: corner 0: no corner arc stays "
                                       "within delta = 1e-300 of its tangent line\n")


_RUN_FLAGS = ["--example", "--config", "--phi", "--mu", "--nu", "--c", "--epsilon", "--delta",
              "--rhs-M", "--outer-N", "--points", "--out"]
_SWEEP_FLAGS = ["--example", "--phi-grid", "--mu", "--nu", "--c", "--epsilon", "--delta", "--out"]


@pytest.mark.parametrize("command, flags", [("solve", _RUN_FLAGS), ("table", _RUN_FLAGS),
                                            ("angle-sweep", _SWEEP_FLAGS)])
def test_cli_flag_sets(command, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, "--help"])
    assert exc.value.code == 0
    assert sorted(re.findall(r"^  (--[\w-]+)", capsys.readouterr().out, re.M)) == sorted(flags)


@pytest.mark.parametrize("flag", sorted(set(_RUN_FLAGS) - set(_SWEEP_FLAGS)))
def test_angle_sweep_rejects_flags_it_does_not_read(flag):
    with pytest.raises(SystemExit) as exc:
        cli_main(["angle-sweep", "--example", "heart", "--phi-grid", "1.5pi", flag, "1"])
    assert exc.value.code == 2


def test_cli_json_config(tmp_path):
    cfg = {
        "domain": "triangle",
        "pairs": [[8, 32]],
        "points": [[2.0, 2.0], [100.0, 100.0]],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    code = cli_main(["table", "--config", str(path), "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(open(out, newline="")))
    assert rows[0]["nu"] == "32"


def test_cli_config_errors_exit_2(tmp_path):
    assert cli_main(["table"]) == 2  # neither --example nor --config
    assert cli_main(["solve", "--example", "heart", "--mu", "32", "--nu", "16"]) == 2
    assert cli_main(["table", "--config", str(tmp_path / "missing.json")]) == 2
    bad_points = tmp_path / "pts.json"
    bad_points.write_text(json.dumps([[0.5, 0.0]]))  # interior point
    assert cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32",
                     "--points", str(bad_points)]) == 2
    assert cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32",
                     "--c", "nan"]) == 2


def test_cli_numerical_failure_exit_3(tmp_path, monkeypatch):
    # a singular matrix fails every row, a numerical failure; the heart's
    # corner point is on the boundary, a configuration error
    def singular(system):
        raise SingularMatrixError("numerically singular pivot")

    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([[3.0, 3.0]]))
    with monkeypatch.context() as patch:
        patch.setattr(harness, "cond_inf", singular)
        code = cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32",
                         "--points", str(pts)])
    assert code == 3
    pts.write_text(json.dumps([[0.0, 0.0]]))
    code = cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32",
                     "--points", str(pts)])
    assert code == 2


def test_cli_lets_a_key_error_propagate(monkeypatch):
    # every lookup on user data is checked before it is made, so a KeyError
    # is a programming error, not a configuration error with exit code 2
    def broken(cfg):
        raise KeyError("no such row")

    monkeypatch.setattr(cli, "run_example", broken)
    with pytest.raises(KeyError, match="no such row"):
        cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32"])


def test_cli_restores_numpy_error_state(tmp_path):
    before = np.geterr()
    code = cli_main(["solve", "--example", "heart", "--mu", "8", "--nu", "32"])
    assert code == 0
    assert np.geterr() == before


@pytest.mark.parametrize("args,points_text", [
    (["solve", "--example", "heart", "--phi", "abc"], None),
    (["angle-sweep", "--example", "heart", "--phi-grid", "1.1pi,pi/"], None),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32"], "1.0"),
    (["angle-sweep", "--example", "heart", "--phi-grid", ","], None),
    (["table", "--example", "heart", "--mu", "8", "--nu", "32"], "[]"),
    (["table", "--example", "heart", "--mu", "8", "--nu", "32"], "# no points\n"),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32"], "nan 0\n"),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32", "--c", "-1"], None),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32", "--epsilon", "0.7"], None),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32", "--rhs-M", "0"], None),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32", "--rhs-M", "600"], None),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32", "--outer-N", "0"], None),
    (["angle-sweep", "--example", "heart", "--phi-grid", "1.5pi", "--mu", "64", "--nu", "64"],
     None),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32"], "[[3.0, 3.0, 99.0]]"),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32"], "3 3 7\n"),
    (["solve", "--example", "heart", "--mu", "8", "--nu", "32", "--delta", "nan"], None),
    (["angle-sweep", "--example", "heart", "--phi-grid", "1.5pi,1.6pi", "--delta", "nan"], None),
], ids=["phi", "phi-grid", "points", "empty-phi-grid", "empty-points-json",
        "empty-points-lines", "nan-point", "negative-c", "epsilon", "rhs-M-zero",
        "rhs-M-too-large", "outer-N-zero", "sweep-mu-equals-nu", "three-value-point-json",
        "three-value-point-lines", "nan-delta", "sweep-nan-delta"])
def test_cli_malformed_input_exits_2(tmp_path, capsys, args, points_text):
    if points_text is not None:
        pts = tmp_path / "pts.json"
        pts.write_text(points_text)
        args = args + ["--points", str(pts)]
    assert cli_main(args) == 2
    assert "configuration error" in capsys.readouterr().err


# the message names the bad field
_NAMED_FIELD = {"string-solution": "'solution'", "solution-without-name": "'solution'",
                "non-string-solution-name": "'solution'", "list-domain": "'domain'",
                "int-domain": "'domain'", "empty-pairs": "'pairs'", "triangle-phi": "'phi'",
                "vertices-phi": "'phi'", "crossing-edges": "polygon edges 0 and 2 cross"}
_TRIANGLE_RUN = {"solution": {"name": "log_pair", "q1": [0.5, 0.5], "q2": [0.3, 0.3]},
                 "pairs": [[8, 32]], "c": 100.0, "eps": 1e-6, "delta": 1e-6,
                 "points": [[2.0, 2.0]]}


@pytest.mark.parametrize("config", [
    {"domain": "heart", "points": [[1]]},
    {"domain": "heart", "points": [["a", "b"]]},
    {"domain": "heart", "pairs": [[8]]},
    {"domain": "heart", "phi": "5pi/3"},
    [{"domain": "heart"}],
    {"domain": "heart", "solution": "dipole"},
    {"domain": "heart", "solution": {"name": "log_pair", "q1": [0.5], "q2": [0.2, 0]}},
    {"domain": "heart", "delt": 1.0, "mu": 8, "pairs": [[8, 32]], "points": [[3, 3]]},
    {"domain": "heart", "pairs": [[8.7, 32]], "points": [[3, 3]]},
    {"domain": "heart", "pairs": [[8, 32, 1]], "points": [[3, 3]]},
    {"domain": "heart", "pairs": [[8, 32]], "points": [[3.0, 3.0, 99.0]]},
    {"domain": "heart", "pairs": [[8, 32]], "points": [[True, 3]]},
    {"domain": "polygon", "solution": {"name": "dipole"}, "pairs": [[8, 32]], "c": 100.0,
     "eps": 1e-6, "delta": 1e-6, "points": [[2.0, 2.0]],
     "vertices": [[-1.25, -0.75], [0.75, -0.75], [0.75, 1.25, 0.0]]},
    {"domain": "heart", "solution": {"name": "log_pair", "q1": [True, 0], "q2": ["0.2", 0]}},
    {"domain": "heart", "solution": {"name": "log_pair", "q1": [0.5, 0]}},
    {"domain": "triangle", "solution": {"name": "dipole", "q1": [0.5, 0]}, "pairs": [[8, 32]]},
    {"domain": "heart", "solution": {"q1": [0.5, 0], "q2": [0.2, 0]}},
    {"domain": "heart", "solution": {"name": ["log_pair"], "q1": [0.5, 0], "q2": [0.2, 0]}},
    {"domain": [1], "vertices": [[0, 0], [2, 0], [0, 2]], **_TRIANGLE_RUN},
    {"domain": 5, **_TRIANGLE_RUN},
    {"domain": "heart", "pairs": []},
    {"domain": "triangle", "phi": 1.0},
    {"domain": "polygon", "phi": 1.0, "vertices": [[-1.25, -0.75], [0.75, -0.75], [0.75, 1.25]],
     **_TRIANGLE_RUN},
    # edges 2 and 3 cross edge 0; run, its errors did not converge with (mu, nu)
    {**_TRIANGLE_RUN, "domain": "polygon", "vertices": [[0, 0], [3, 0], [3, 2], [1, -0.5], [0, 2]],
     "solution": {"name": "log_pair", "q1": [0.5, 0.5], "q2": [2.5, 1.0]}},
    # integers that float() cannot convert
    {"domain": "heart", "c": _BEYOND_FLOAT},
    {"domain": "heart", "delta": _BEYOND_FLOAT},
    {"domain": "heart", "points": [[3.0, 3.0], [_BEYOND_FLOAT, 0]]},
    {**_TRIANGLE_RUN, "domain": "polygon", "vertices": [[0, 0], [_BEYOND_FLOAT, 0], [0, 2]]},
    {"domain": "heart", "solution": {"name": "log_pair", "q1": [0.5, _BEYOND_FLOAT],
                                     "q2": [0.2, 0]}},
    {"domain": "heart", "pairs": [[8, _BEYOND_FLOAT]]},
], ids=["short-point", "string-point", "short-pair", "string-phi", "top-level-list",
        "string-solution", "ragged-singular-points", "unknown-keys", "float-pair",
        "three-value-pair", "three-value-point", "bool-point", "three-coordinate-vertex",
        "bool-and-string-singular-points", "missing-solution-parameter",
        "unknown-solution-parameter", "solution-without-name", "non-string-solution-name",
        "list-domain", "int-domain", "empty-pairs", "triangle-phi", "vertices-phi",
        "crossing-edges", "huge-int-c", "huge-int-delta", "huge-int-evaluation-point",
        "huge-int-polygon-vertex", "huge-int-log-pair-source", "huge-int-pair-nu"])
def test_cli_malformed_config_json_exits_2(request, tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli_main(["solve", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if request.node.callspec.id in _NAMED_FIELD:
        assert _NAMED_FIELD[request.node.callspec.id] in err


# the heart's configuration at (8, 32) as a JSON object, and the places in
# it where the property test below puts a malformed value
_HEART_JSON = {"domain": "heart", "phi": 5 * math.pi / 3,
               "solution": {"name": "log_pair", "q1": [0.5, 0.0], "q2": [0.2, 0.0]},
               "pairs": [[8, 32]], "c": 300.0, "eps": 1e-3, "delta": 3.87e-7,
               "points": [[-0.1, 0.0], [3.0, 3.0], [-40.0, -50.0], [100.0, -100.0]]}
_JSON_PLACES = (
    ("domain",), ("phi",), ("c",), ("eps",), ("delta",), ("M",), ("N",), ("vertices",),
    ("solution",), ("solution", "name"), ("solution", "q1"), ("solution", "q1", 0),
    ("solution", "q2", 1), ("pairs",), ("pairs", 0), ("pairs", 0, 0), ("pairs", 0, 1),
    ("points",), ("points", 0), ("points", 1, 0), ("points", 3, 1),
)
_JSON_VALUES = (
    math.nan, math.inf, -math.inf, 0, 0.0, -0.0, 5e-324, 1e-310, _BEYOND_FLOAT, -_BEYOND_FLOAT,
    True, False, "", "heart", None, [], [3.0, 3.0], [[3.0, 3.0], [1.0]], [[8, 32, 1]],
    [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],
)


def _replaced(config, place, value):
    """config with value at place, unless an earlier replacement took away
    the place's container."""
    *head, last = place
    try:
        functools.reduce(operator.getitem, head, config)[last] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass
    return config


@settings(max_examples=200, deadline=None)
@given(changes=st.lists(st.tuples(st.sampled_from(_JSON_PLACES), st.sampled_from(_JSON_VALUES)),
                        min_size=1, max_size=2))
def test_cli_table_on_malformed_json_configs(tmp_path_factory, changes):
    # any JSON config ends in exit 0, 2 or 3, never in a traceback, and a
    # table that exits 0 prints finite numbers only
    config = copy.deepcopy(_HEART_JSON)
    for place, value in changes:
        config = _replaced(config, place, value)
    path = tmp_path_factory.getbasetemp() / "malformed.json"
    path.write_text(json.dumps(config))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["table", "--config", str(path)])
    assert code in (0, 2, 3)
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out.getvalue()), out.getvalue()


def test_cli_empty_config_points_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "heart", "points": []}))
    out = tmp_path / "e.csv"
    code = cli_main(["table", "--config", str(cfg), "--mu", "8", "--nu", "32",
                     "--out", str(out)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_cli_table_empty_pairs_exits_2(tmp_path, capsys):
    # no pair is a configuration error, not a failed table
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "heart", "pairs": []}))
    out = tmp_path / "e.csv"
    assert cli_main(["table", "--config", str(cfg), "--out", str(out)]) == 2
    assert "'pairs'" in capsys.readouterr().err
    assert not out.exists()


# every CLI flag's values, valid ones and edge cases; no rule order above
# 600 and no angle inside its range within 0.05 pi of an end, whose flux
# checks would build Gauss-Legendre rules of up to 4096 points
_EDGE_NUMBERS = ("nan", "inf", "-inf", "0", "-1", "5e-324", "1e-310", "1e300")
_FLAG_VALUES = {
    "--c": ("300", "100") + _EDGE_NUMBERS,
    "--epsilon": ("1e-3", "1e-6") + _EDGE_NUMBERS,
    "--delta": ("3.87e-7", "1e-5") + _EDGE_NUMBERS,
    "--phi": ("1.1pi", "1.5pi", "5pi/3", "1.95pi", "pi", "2pi", "0.5pi", "3pi", "-1", "nan",
              "inf", "pi/0", "x"),
    "--phi-grid": ("1.5pi", "1.1pi,1.95pi", "pi,1.5pi", "1.5pi,2pi", "0.5pi", "1.5pi,3pi",
                   "nan", ",", "1.5pi,,5pi/3", "x"),
    "--rhs-M": ("-1", "0", "1", "16", "512", "513", "600"),
    "--outer-N": ("-2", "-1", "0", "1", "32", "600", "5000"),
}
_FLAGS = [(flag, value) for flag, values in _FLAG_VALUES.items() for value in values]
_SMALL_PAIRS = ((8, 32), (4, 16), (16, 64), (12, 12), (0, 32), (8, 0), (-4, 16), (16, 8))


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(("solve", "table", "angle-sweep")),
       pair=st.sampled_from(_SMALL_PAIRS), flags=st.lists(st.sampled_from(_FLAGS), max_size=3))
def test_cli_flags_exit_0_2_or_3(command, pair, flags):
    # any flag values end in exit 0, 2 or 3, never in a traceback, and a
    # run that exits 0 prints finite numbers only; each subcommand gets
    # the flags it reads, written --flag=value so that a value may start
    # with a minus sign
    reads = {"angle-sweep": {"--c", "--epsilon", "--delta", "--phi-grid"}}.get(
        command, set(_FLAG_VALUES) - {"--phi-grid"})
    chosen = dict([("--phi-grid", "5pi/3")] if command == "angle-sweep" else [])
    chosen.update((flag, value) for flag, value in flags if flag in reads)
    argv = [command, "--example", "heart", f"--mu={pair[0]}", f"--nu={pair[1]}"]
    argv += [f"{flag}={value}" for flag, value in chosen.items()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    assert code in (0, 2, 3), argv
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out.getvalue()), (argv, out.getvalue())
