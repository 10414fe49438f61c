"""Benchmark driver: built-in examples, parameter sweeps, CSV output.

Each built-in example pairs a corner domain with an exact harmonic
exterior solution whose normal derivative supplies the Neumann datum.
run_example drives the whole pipeline per (mu, nu) row; emitted tables
carry the absolute field errors at the configured evaluation points and
the infinity-norm condition number of the collocation matrix.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .assembly import DiscretizationParams, build_system
from .errors import ConfigError, CornerBieError, GeometryError, ParameterError
from .geometry import (Boundary, as_complex, check_angle, decompose, make_example_domain,
                       make_polygon)
from .quadrature import MAX_MOMENTS, MAX_RULE_ORDER
from .rhs import NeumannDatum, rhs_approx
from .solve_post import cond_inf, eval_exterior, solve_field

__all__ = [
    "ExactSolution",
    "RunConfig",
    "RowResult",
    "SweepPoint",
    "make_exact_solution",
    "example_config",
    "run_example",
    "angle_sweep",
    "write_table_csv",
    "write_sweep_csv",
    "EXAMPLE_NAMES",
    "DEFAULT_PAIRS",
]

DEFAULT_PAIRS: Tuple[Tuple[int, int], ...] = ((8, 32), (16, 64), (32, 128), (64, 256), (128, 512))


@dataclass(frozen=True, eq=False)
class ExactSolution:
    """Exact harmonic comparison solution u = Re F(z), z = x + iy, given by
    its analytic F and derivative dF; grad u = (Re F', -Im F')."""

    name: str
    F: Callable
    dF: Callable
    singular_points: Tuple[Tuple[float, float], ...]

    def u(self, p):
        return self.F(as_complex(p)).real

    def grad(self, p):
        d = self.dF(as_complex(p))
        return np.stack([d.real, -d.imag], axis=-1)


def _log_pair(q1, q2) -> ExactSolution:
    # q1 and q2 stay as given, for RunConfig.validate; F and dF convert them
    def F(z):
        return np.log((z - complex(*q1)) / (z - complex(*q2)))

    def dF(z):
        return 1 / (z - complex(*q1)) - 1 / (z - complex(*q2))

    return ExactSolution("log_pair", F, dF, (q1, q2))


def _arctan_pair() -> ExactSolution:
    # the angle difference about a = 0.8 + 0.2i and b = 0.8, -i times their
    # log pair: the principal log gives the branch continuous on the exterior
    pair = _log_pair((0.8, 0.2), (0.8, 0.0))
    return ExactSolution("arctan_pair", lambda z: -1j * pair.F(z), lambda z: -1j * pair.dF(z),
                         pair.singular_points)


def _dipole() -> ExactSolution:
    return ExactSolution("dipole", lambda z: 1 / z**2, lambda z: -2 / z**3, ((0.0, 0.0),))


# solution id -> (constructor, its parameter names)
_SOLUTIONS = {"log_pair": (_log_pair, ("q1", "q2")), "arctan_pair": (_arctan_pair, ()),
              "dipole": (_dipole, ())}


def make_exact_solution(name: str, **params) -> ExactSolution:
    """Exact solutions by id: log_pair(q1, q2), arctan_pair, dipole."""
    if name not in _SOLUTIONS:
        raise ConfigError(f"unknown exact solution {name!r}")
    make, keys = _SOLUTIONS[name]
    missing, unknown = [k for k in keys if k not in params], sorted(set(params) - set(keys))
    if missing or unknown:
        raise ConfigError(f"exact solution {name!r} takes parameters {list(keys)}: "
                          f"missing {missing}, unknown {unknown}")
    return make(**params)


def _is_number(value, kind) -> bool:
    """Whether value is a number of kind (Integral or Real), bools excluded,
    that float() converts: an integer beyond float range is not a number."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_two(values, kind) -> bool:
    """Whether values holds exactly two numbers of kind, bools excluded."""
    try:
        return len(values) == 2 and all(_is_number(v, kind) for v in values)
    except TypeError:  # no length
        return False


@dataclass(frozen=True, eq=False)
class RunConfig:
    """One experiment: a domain, an exact solution, and sweep parameters.

    M (right-hand-side rule order) and N (exterior single-layer rule
    order) default to nu/2 per row when left as None; N = -1 means
    N = nu per row.
    """

    domain: str
    phi: Optional[float]
    solution: ExactSolution
    pairs: Tuple[Tuple[int, int], ...]
    c: float
    eps: float
    delta: float
    points: Tuple[Tuple[float, float], ...]
    M: Optional[int] = None
    N: Optional[int] = None
    vertices: Optional[Tuple[Tuple[float, float], ...]] = None

    def build_boundary(self) -> Boundary:
        if self.vertices is not None:
            return make_polygon(self.vertices)
        return make_example_domain(self.domain, self.phi)

    def rule_orders(self, nu: int) -> Tuple[int, int]:
        """(M, N) of a row with central rule order nu, and their one check: a
        ConfigError unless they are integers, 1 <= M <= 512 and 1 <= N <= 4096."""
        m_rhs = self.M if self.M is not None else nu // 2
        n_outer = nu if self.N == -1 else nu // 2 if self.N is None else self.N
        orders = ((m_rhs, MAX_MOMENTS), (n_outer, MAX_RULE_ORDER))
        if not all(_is_number(k, Integral) and 1 <= k <= top for k, top in orders):
            raise ConfigError(f"rows with nu = {nu} need integers 1 <= M <= {MAX_MOMENTS} "
                              f"and 1 <= N <= {MAX_RULE_ORDER}, got M={m_rhs}, N={n_outer}")
        return m_rhs, n_outer

    def validate(self) -> None:
        """Check every run input that needs no geometry but M and N, which
        rule_orders checks for the runs that read them: the domain; phi, None
        for a polygon and else in its family's open range (check_angle); the
        number fields; the solution; each pair through DiscretizationParams;
        and each vertex, singular and evaluation point, named by index."""
        if not isinstance(self.domain, str):
            raise ConfigError(f"config field 'domain' must be a string, got {self.domain!r}")
        if self.vertices is not None or self.domain == "triangle":
            if self.phi is not None:
                raise ConfigError(f"config field 'phi' must be None for a polygon, "
                                  f"got {self.phi!r}")
        elif self.domain not in _EXAMPLES:
            raise ConfigError(f"config field 'domain' must name a built-in domain "
                              f"{EXAMPLE_NAMES} or come with 'vertices', got {self.domain!r}")
        elif not _is_number(self.phi, Real):
            raise ConfigError(f"config field 'phi' must be a number, got {self.phi!r}")
        else:
            try:
                check_angle(self.domain, float(self.phi))
            except ParameterError as exc:
                raise ConfigError(f"config field 'phi': {exc}") from None
        for key in ("c", "eps", "delta"):
            value = getattr(self, key)
            if not _is_number(value, Real):
                raise ConfigError(f"config field {key!r} must be a number, got {value!r}")
        if not isinstance(self.solution, ExactSolution):
            raise ConfigError(f"config field 'solution' must be an exact solution, "
                              f"got {self.solution!r}")
        for key, kinds in (("points", (list, tuple)), ("vertices", (list, tuple, type(None)))):
            if not isinstance(getattr(self, key), kinds):
                raise ConfigError(f"config field {key!r} must be a list of (x, y) pairs, "
                                  f"got {getattr(self, key)!r}")
        if not self.delta > 0.0:  # NaN too
            raise ConfigError(f"config field 'delta' must be positive, got {self.delta!r}")
        if not isinstance(self.pairs, (list, tuple)) or not self.pairs:
            raise ConfigError(f"config field 'pairs' must be a list of at least one "
                              f"(mu, nu) pair, got {self.pairs!r}")
        for pair in self.pairs:
            if not _is_two(pair, Integral):
                raise ConfigError(f"every pair must be two integers (mu, nu), got {pair!r}")
            mu, nu = pair
            try:
                DiscretizationParams(mu=mu, nu=nu, c=self.c, eps=self.eps)
            except ParameterError as exc:
                raise ConfigError(f"pair ({mu}, {nu}): {exc}") from None
        for kind, rows in (("polygon vertex", self.vertices or ()),
                           ("singular point", self.solution.singular_points),
                           ("evaluation point", self.points)):
            for k, p in enumerate(rows):
                if not _is_two(p, Real):
                    raise ConfigError(f"{kind} {k} must be an (x, y) pair of numbers, "
                                      f"got {p!r}")


def _check_locations(cfg: RunConfig, boundary: Boundary) -> None:
    """Raise ConfigError unless every singular point of the solution is a
    finite interior point and every evaluation point a finite exterior one."""
    singular = tuple(cfg.solution.singular_points)
    located = singular + tuple(cfg.points)
    xy = np.array(located, float).reshape(len(located), 2)
    near, winding = boundary.locator.locate(xy)
    # a point on or next to the boundary is neither inside nor exterior
    bad = ~np.isfinite(xy).all(axis=1) | near
    for q, no, w in zip(singular, bad, winding):
        if no or w == 0:
            raise ConfigError(
                f"singular point {q} of solution {cfg.solution.name!r} "
                f"must be a finite point inside the domain"
            )
    for p, no, w in zip(cfg.points, bad[len(singular):], winding[len(singular):]):
        if no or w != 0:
            raise ConfigError(f"evaluation point {p} is not a finite exterior point")


_EXAMPLES = {
    "heart": dict(
        phi=5 * math.pi / 3, c=300.0, eps=1e-3, delta=3.87e-7,
        solution=("log_pair", dict(q1=(0.5, 0.0), q2=(0.2, 0.0))),
        points=((-0.1, 0.0), (3.0, 3.0), (-40.0, -50.0), (100.0, -100.0)),
        sweep_c=300.0,
    ),
    "teardrop": dict(
        phi=2 * math.pi / 3, c=100.0, eps=1e-3, delta=5.37e-11,
        solution=("arctan_pair", {}),
        points=((-0.1, 0.0), (3.0, 3.0), (-40.0, -50.0), (100.0, -100.0)),
        sweep_c=100.0,
    ),
    "boomerang": dict(
        phi=3 * math.pi / 2, c=100.0, eps=1e-3, delta=5.16e-8,
        solution=("log_pair", dict(q1=(-0.1, 0.0), q2=(-0.2, 0.0))),
        points=((0.2, 0.0), (3.0, 3.0), (-40.0, -50.0), (100.0, -100.0)),
        N=-1,  # -1 marks "use nu" per row
        # the published conditioning figure for this family uses c = 300 even
        # though its error table uses c = 100; sweeps follow the figure
        sweep_c=300.0,
    ),
    "triangle": dict(
        phi=None, c=100.0, eps=1e-6, delta=1e-6,
        solution=("dipole", {}),
        points=((-1.5, 1.5), (2.0, 2.0), (10.0, 20.0), (100.0, 100.0)),
    ),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)


def example_config(name: str, **overrides) -> RunConfig:
    """Benchmark configuration for a built-in example, field overrides allowed."""
    if name not in _EXAMPLES:
        raise ConfigError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    spec = {key: value for key, value in _EXAMPLES[name].items() if key != "sweep_c"}
    sol_name, sol_params = spec.pop("solution")
    cfg = RunConfig(domain=name, solution=make_exact_solution(sol_name, **sol_params),
                    pairs=DEFAULT_PAIRS, **spec)
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class RowResult:
    """One (mu, nu) row: computed field values u_mN at the evaluation
    points, their absolute errors against the exact solution, and cond."""

    mu: int
    nu: int
    values: List[float]
    errors: List[float]
    cond: float
    error_message: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error_message is not None


def _run_row(dec, datum, cfg: RunConfig, exact, mu, nu, m_rhs, n_outer) -> RowResult:
    params = DiscretizationParams(mu=mu, nu=nu, c=cfg.c, eps=cfg.eps)
    system = build_system(dec, params)
    cond = cond_inf(system)
    rhs_rule = datum.sources(m_rhs)  # one datum rule per distinct order of the row
    b = rhs_approx(rhs_rule, system.unknown_map)
    fld = solve_field(system, b, rhs_rule if n_outer == m_rhs else datum.sources(n_outer))
    values = [eval_exterior(fld, x, y) for x, y in cfg.points]
    return RowResult(mu, nu, values, np.abs(np.array(values) - exact).tolist(), cond)


def run_example(cfg: RunConfig) -> List[RowResult]:
    """Full sweep over cfg.pairs; a failing row is recorded, not fatal."""
    cfg.validate()
    orders = [cfg.rule_orders(nu) for _, nu in cfg.pairs]
    boundary = cfg.build_boundary()
    _check_locations(cfg, boundary)
    dec = decompose(boundary, cfg.delta)
    datum = NeumannDatum(boundary, u_grad=cfg.solution.grad)
    with np.errstate(all="ignore"):
        exact = cfg.solution.u(np.array(cfg.points, float).reshape(-1, 2))
    if not np.all(np.isfinite(exact)):
        bad = cfg.points[int(np.flatnonzero(~np.isfinite(exact))[0])]
        raise ConfigError(f"exact solution {cfg.solution.name!r} is not finite at "
                          f"evaluation point {bad}")
    rows: List[RowResult] = []
    for (mu, nu), (m_rhs, n_outer) in zip(cfg.pairs, orders):
        try:
            rows.append(_run_row(dec, datum, cfg, exact, mu, nu, m_rhs, n_outer))
        except CornerBieError as exc:
            nan_cells = [math.nan] * len(cfg.points)
            rows.append(RowResult(mu, nu, nan_cells, list(nan_cells), math.nan,
                                  error_message=f"{type(exc).__name__}: {exc}"))
    return rows


@dataclass
class SweepPoint:
    phi: float
    cond: float
    error_message: Optional[str] = None


def _sweep_cond(cfg: RunConfig, params: DiscretizationParams) -> float:
    # the system and its inverse are local here, so neither outlives its angle
    dec = decompose(cfg.build_boundary(), cfg.delta)
    return cond_inf(build_system(dec, params))


def _check_sweep_delta(cfg: RunConfig) -> None:
    """Raise ConfigError if cfg.delta fails at cfg's own (example) angle too:
    then an angle's GeometryError is the input's fault."""
    try:
        decompose(cfg.build_boundary(), cfg.delta)
    except GeometryError as exc:
        raise ConfigError(f"sweep field 'delta': {exc}") from None


def angle_sweep(family: str, phis: Sequence[float], mu: int, nu: int,
                c: Optional[float] = None, eps: Optional[float] = None,
                delta: Optional[float] = None) -> List[SweepPoint]:
    """Condition number of the collocation matrix across corner angles.

    c defaults to the family's sweep value, eps and delta to its example's.
    Every angle's config, the family's example_config with the sweep's c,
    eps, delta, pair and that angle, is checked by RunConfig.validate before
    any angle runs.  Only the matrix is needed, so the sweep builds no
    right-hand side and never reads M or N.  Per-angle failures are recorded
    and the sweep continues, except that the first GeometryError checks
    delta at the family's example angle, and if that fails too the sweep
    stops with a ConfigError.
    """
    if "sweep_c" not in _EXAMPLES.get(family, {}):
        raise ConfigError(f"angle sweeps need a parametric family, got {family!r}")
    given = dict(c=_EXAMPLES[family]["sweep_c"] if c is None else c, eps=eps, delta=delta)
    cfg = example_config(family, pairs=((mu, nu),),
                         **{key: value for key, value in given.items() if value is not None})
    try:
        if isinstance(phis, (str, bytes, Mapping)):  # iterable, but not over angles
            raise TypeError
        angles = [replace(cfg, phi=phi) for phi in phis]
    except TypeError:  # phis is not iterable
        raise ConfigError(f"sweep field 'phis' must be a list of angles, got {phis!r}") from None
    for angle in angles:
        angle.validate()
    params = DiscretizationParams(mu=mu, nu=nu, c=cfg.c, eps=cfg.eps)
    out: List[SweepPoint] = []
    delta_checked = False
    for angle in angles:
        try:
            out.append(SweepPoint(float(angle.phi), _sweep_cond(angle, params)))
        except CornerBieError as exc:
            if isinstance(exc, GeometryError) and not delta_checked:
                _check_sweep_delta(cfg)
                delta_checked = True
            out.append(SweepPoint(float(angle.phi), math.nan,
                                  error_message=f"{type(exc).__name__}: {exc}"))
    return out


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def write_table_csv(rows: Sequence[RowResult], path) -> None:
    """Table CSV with columns mu,nu,err_p1..err_p4,cond in sweep order.

    The error-column count follows the configured evaluation points
    (four for the built-in benchmark tables).
    """
    n_points = len(rows[0].errors) if rows else 4
    _write_csv(path, ["mu", "nu"] + [f"err_p{k + 1}" for k in range(n_points)] + ["cond"],
               ([row.mu, row.nu] + [f"{e:.6e}" for e in row.errors] + [f"{row.cond:.6e}"]
                for row in rows))


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    _write_csv(path, ["phi", "cond"], ([f"{pt.phi:.12g}", f"{pt.cond:.6e}"] for pt in points))
