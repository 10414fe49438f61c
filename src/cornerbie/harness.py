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
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .assembly import DiscretizationParams, build_system
from .errors import ConfigError, CornerBieError, ParameterError
from .geometry import Boundary, decompose, make_example_domain, make_polygon
from .quadrature import MAX_MOMENTS, MAX_RULE_ORDER
from .rhs import NeumannDatum, RhsRule, rhs_approx
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
EXAMPLE_NAMES = ("heart", "teardrop", "boomerang", "triangle")


@dataclass(frozen=True, eq=False)
class ExactSolution:
    """Exact harmonic comparison solution with closed-form gradient."""

    name: str
    u: Callable
    grad: Callable
    singular_points: Tuple[Tuple[float, float], ...]


def _log_pair(q1, q2) -> ExactSolution:
    q1 = np.asarray(q1, float)
    q2 = np.asarray(q2, float)

    def u(p):
        p = np.asarray(p, float)
        return (np.log(np.linalg.norm(p - q1, axis=-1))
                - np.log(np.linalg.norm(p - q2, axis=-1)))

    def grad(p):
        p = np.asarray(p, float)
        a = p - q1
        b = p - q2
        return a / (a * a).sum(-1, keepdims=True) - b / (b * b).sum(-1, keepdims=True)

    return ExactSolution("log_pair", u, grad, (tuple(q1.tolist()), tuple(q2.tolist())))


def _arctan_pair() -> ExactSolution:
    # angle difference about (0.8, 0.2) and (0.8, 0); evaluated through the
    # complex ratio so the branch is the one continuous on the exterior
    def u(p):
        p = np.asarray(p, float)
        z = p[..., 0] + 1j * p[..., 1]
        return np.angle((z - (0.8 + 0.2j)) / (z - 0.8))

    def grad(p):
        p = np.asarray(p, float)
        x, y = p[..., 0], p[..., 1]
        r1 = (x - 0.8) ** 2 + (y - 0.2) ** 2
        r2 = (x - 0.8) ** 2 + y**2
        gx = -(y - 0.2) / r1 + y / r2
        gy = (x - 0.8) / r1 - (x - 0.8) / r2
        return np.stack([gx, gy], axis=-1)

    return ExactSolution("arctan_pair", u, grad, ((0.8, 0.2), (0.8, 0.0)))


def _dipole() -> ExactSolution:
    def u(p):
        p = np.asarray(p, float)
        x, y = p[..., 0], p[..., 1]
        return (x * x - y * y) / (x * x + y * y) ** 2

    def grad(p):
        p = np.asarray(p, float)
        x, y = p[..., 0], p[..., 1]
        r2 = x * x + y * y
        gx = 2 * x * (3 * y * y - x * x) / r2**3
        gy = -2 * y * (3 * x * x - y * y) / r2**3
        return np.stack([gx, gy], axis=-1)

    return ExactSolution("dipole", u, grad, ((0.0, 0.0),))


def make_exact_solution(name: str, **params) -> ExactSolution:
    """Exact solutions by id: log_pair(q1, q2), arctan_pair, dipole."""
    if name == "log_pair":
        return _log_pair(params["q1"], params["q2"])
    if name == "arctan_pair":
        return _arctan_pair()
    if name == "dipole":
        return _dipole()
    raise ConfigError(f"unknown exact solution {name!r}")


def _is_number(value, kind) -> bool:
    """Whether value is a number of kind (Integral or Real), bools excluded."""
    return isinstance(value, kind) and not isinstance(value, bool)


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
        """(M, N) of a row with central rule order nu."""
        m_rhs = self.M if self.M is not None else nu // 2
        if self.N == -1:
            return m_rhs, nu
        return m_rhs, self.N if self.N is not None else nu // 2

    def validate(self) -> None:
        for key in ("phi", "c", "eps", "delta"):
            value = getattr(self, key)
            if key == "phi" and value is None:
                continue  # polygons have no angle parameter
            if not _is_number(value, Real):
                raise ConfigError(f"config field {key!r} must be a number, got {value!r}")
        for pair in self.pairs:
            if not _is_two(pair, Integral):
                raise ConfigError(f"every pair must be two integers (mu, nu), got {pair!r}")
            mu, nu = pair
            if mu >= nu:
                raise ConfigError(f"need mu < nu in every pair, got ({mu}, {nu})")
            try:
                DiscretizationParams(mu=mu, nu=nu, c=self.c, eps=self.eps)
            except ParameterError as exc:
                raise ConfigError(f"pair ({mu}, {nu}): {exc}") from None
            m_rhs, n_outer = self.rule_orders(nu)
            orders = ((m_rhs, MAX_MOMENTS), (n_outer, MAX_RULE_ORDER))
            if not all(_is_number(k, Integral) and 1 <= k <= top for k, top in orders):
                raise ConfigError(
                    f"pair ({mu}, {nu}): need integers 1 <= M <= {MAX_MOMENTS} and "
                    f"1 <= N <= {MAX_RULE_ORDER}, got M={m_rhs}, N={n_outer}"
                )
        if self.vertices is not None and not all(_is_two(v, Real) for v in self.vertices):
            raise ConfigError(f"polygon vertices need (x, y) numbers, got {self.vertices!r}")
        # the singular points, then the evaluation points, located in one call
        singular = tuple(self.solution.singular_points)
        located = singular + tuple(self.points)
        if not all(_is_two(p, Real) for p in located):
            raise ConfigError(f"singular points {singular} and evaluation points need "
                              f"(x, y) numbers")
        xy = np.array(located, float).reshape(len(located), 2)
        near, winding = self.build_boundary().locator.locate(xy)
        # a point on or next to the boundary is neither inside nor exterior
        bad = ~np.isfinite(xy).all(axis=1) | near
        for q, no, w in zip(singular, bad, winding):
            if no or w == 0:
                raise ConfigError(
                    f"singular point {q} of solution {self.solution.name!r} "
                    f"must be a finite point inside the domain"
                )
        for p, no, w in zip(self.points, bad[len(singular):], winding[len(singular):]):
            if no or w != 0:
                raise ConfigError(f"evaluation point {p} is not a finite exterior point")


_EXAMPLES = {
    "heart": dict(
        phi=5 * math.pi / 3, c=300.0, eps=1e-3, delta=3.87e-7,
        solution=("log_pair", dict(q1=(0.5, 0.0), q2=(0.2, 0.0))),
        points=((-0.1, 0.0), (3.0, 3.0), (-40.0, -50.0), (100.0, -100.0)),
        outer_full=False, sweep_c=300.0,
    ),
    "teardrop": dict(
        phi=2 * math.pi / 3, c=100.0, eps=1e-3, delta=5.37e-11,
        solution=("arctan_pair", {}),
        points=((-0.1, 0.0), (3.0, 3.0), (-40.0, -50.0), (100.0, -100.0)),
        outer_full=False, sweep_c=100.0,
    ),
    "boomerang": dict(
        phi=3 * math.pi / 2, c=100.0, eps=1e-3, delta=5.16e-8,
        solution=("log_pair", dict(q1=(-0.1, 0.0), q2=(-0.2, 0.0))),
        points=((0.2, 0.0), (3.0, 3.0), (-40.0, -50.0), (100.0, -100.0)),
        # the published conditioning figure for this family uses c = 300 even
        # though its error table uses c = 100; sweeps follow the figure
        outer_full=True, sweep_c=300.0,
    ),
    "triangle": dict(
        phi=None, c=100.0, eps=1e-6, delta=1e-6,
        solution=("dipole", {}),
        points=((-1.5, 1.5), (2.0, 2.0), (10.0, 20.0), (100.0, 100.0)),
        outer_full=False,
    ),
}


def example_config(name: str, **overrides) -> RunConfig:
    """Benchmark configuration for a built-in example, field overrides allowed."""
    if name not in _EXAMPLES:
        raise ConfigError(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}")
    spec = _EXAMPLES[name]
    sol_name, sol_params = spec["solution"]
    outer_full = spec["outer_full"]
    cfg = RunConfig(
        domain=name,
        phi=spec["phi"],
        solution=make_exact_solution(sol_name, **sol_params),
        pairs=DEFAULT_PAIRS,
        c=spec["c"],
        eps=spec["eps"],
        delta=spec["delta"],
        points=spec["points"],
        N=-1 if outer_full else None,  # -1 marks "use nu" per row
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


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


def _run_row(dec, datum, cfg: RunConfig, exact: np.ndarray, mu: int, nu: int) -> RowResult:
    params = DiscretizationParams(mu=mu, nu=nu, c=cfg.c, eps=cfg.eps)
    m_rhs, n_outer = cfg.rule_orders(nu)
    system = build_system(dec, params)
    cond = cond_inf(system)
    umap = system.unknown_map
    b = rhs_approx(RhsRule(dec, datum, m_rhs), umap.macro_arc, umap.macro_t)
    fld = solve_field(system, b, datum, n_outer)
    values = [eval_exterior(fld, x, y) for x, y in cfg.points]
    return RowResult(mu, nu, values, np.abs(np.array(values) - exact).tolist(), cond)


def run_example(cfg: RunConfig) -> List[RowResult]:
    """Full sweep over cfg.pairs; a failing row is recorded, not fatal."""
    cfg.validate()
    boundary = cfg.build_boundary()
    dec = decompose(boundary, cfg.delta)
    datum = NeumannDatum(boundary, u_grad=cfg.solution.grad)
    with np.errstate(all="ignore"):
        exact = cfg.solution.u(np.array(cfg.points, float).reshape(-1, 2))
    if not np.all(np.isfinite(exact)):
        bad = cfg.points[int(np.flatnonzero(~np.isfinite(exact))[0])]
        raise ConfigError(f"exact solution {cfg.solution.name!r} is not finite at "
                          f"evaluation point {bad}")
    rows: List[RowResult] = []
    for mu, nu in cfg.pairs:
        try:
            rows.append(_run_row(dec, datum, cfg, exact, mu, nu))
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


def _sweep_cond(family: str, phi: float, params: DiscretizationParams,
                delta: float) -> float:
    # the system and its LU are local here, so neither outlives its angle
    dec = decompose(make_example_domain(family, phi), delta)
    return cond_inf(build_system(dec, params))


def angle_sweep(family: str, phis: Sequence[float], mu: int, nu: int,
                c: Optional[float] = None, eps: Optional[float] = None,
                delta: Optional[float] = None) -> List[SweepPoint]:
    """Condition number of the collocation matrix across corner angles.

    c, eps and delta default to the family's sweep values.  Only the
    matrix is needed, so the sweep builds no right-hand side; per-angle
    failures are recorded and the sweep continues.
    """
    if family not in ("heart", "teardrop", "boomerang"):
        raise ConfigError(f"angle sweeps need a parametric family, got {family!r}")
    if mu >= nu:
        raise ConfigError(f"corner runs require mu < nu, got ({mu}, {nu})")
    if c is None:
        c = _EXAMPLES[family]["sweep_c"]
    if eps is None:
        eps = _EXAMPLES[family]["eps"]
    if delta is None:
        delta = _EXAMPLES[family]["delta"]
    params = DiscretizationParams(mu=mu, nu=nu, c=c, eps=eps)
    out: List[SweepPoint] = []
    for phi in phis:
        try:
            out.append(SweepPoint(float(phi), _sweep_cond(family, float(phi), params, delta)))
        except CornerBieError as exc:
            out.append(SweepPoint(float(phi), math.nan,
                                  error_message=f"{type(exc).__name__}: {exc}"))
    return out


def write_table_csv(rows: Sequence[RowResult], path) -> None:
    """Table CSV with columns mu,nu,err_p1..err_p4,cond in sweep order.

    The error-column count follows the configured evaluation points
    (four for the built-in benchmark tables).
    """
    n_points = len(rows[0].errors) if rows else 4
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "nu"] + [f"err_p{k + 1}" for k in range(n_points)] + ["cond"])
        for row in rows:
            writer.writerow([row.mu, row.nu] + [f"{e:.6e}" for e in row.errors]
                            + [f"{row.cond:.6e}"])


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi", "cond"])
        for pt in points:
            writer.writerow([f"{pt.phi:.12g}", f"{pt.cond:.6e}"])
