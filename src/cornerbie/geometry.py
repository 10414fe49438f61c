"""Corner-domain boundaries and their three-way sub-arc decomposition.

A boundary is a counterclockwise chain of C^2 macro arcs joined at
corner points.  Each corner is flanked by two short sub-arcs that stay
within a prescribed perpendicular deviation of the corner tangent lines
and whose parametrization speeds match at the corner; the remainder of
every macro arc becomes a central sub-arc.  Sub-arcs are listed per
corner as (gamma, upsilon, central), with the gamma arc parametrized
backwards so that both corner arcs start at the corner point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import GeometryError, ParameterError
from .quadrature import gauss_legendre

__all__ = [
    "GAMMA",
    "UPSILON",
    "CENTRAL",
    "MacroArc",
    "Corner",
    "Boundary",
    "SubArc",
    "Decomposition",
    "line_arc",
    "circle_arc",
    "make_boundary",
    "make_smooth_boundary",
    "make_polygon",
    "make_example_domain",
    "check_angle",
    "decompose",
    "as_complex",
    "boundary_polyline",
    "winding_number",
    "PointLocator",
]

GAMMA = "gamma"      # trailing corner arc, reversed parametrization
UPSILON = "upsilon"  # leading corner arc
CENTRAL = "central"

_CLOSURE_RTOL = 1e-12  # closure gap, relative to the largest coordinate magnitude
_N_VALIDATION_SAMPLES = 1024
_FD_STEP = 1e-5
_FD_RTOL = 1e-6
_EPS = float(np.finfo(float).eps)
_N_DEVIATION_SAMPLES = 201
# largest corner fraction of a macro interval: the two corner sections of
# one macro arc cover at most half of it, so they never overlap
_FRACTION_CAP = 0.25
_TWO_PI = 2.0 * math.pi
_AREA_ORDER = 64  # Gauss-Legendre points per arc of the signed area
_LOCATOR_PANELS = 128  # chord panels per macro arc of PointLocator
_SAGITTA_SAMPLES = 8  # sigma'' samples per panel for its strip half-width
_MAX_SPLITS = 20  # halvings of a locator panel until its arc piece is a graph
_NEWTON_STEPS = 6  # steps of PointLocator's foot solve
_NEAR_RTOL = 1e-9  # PointLocator's "on the boundary" distance, relative to its extent


@dataclass(frozen=True, eq=False)
class MacroArc:
    """One C^2 piece of the boundary, parametrized over [0, 1].

    The three callables accept scalar or array parameters and return
    arrays with a trailing coordinate axis of length 2.
    """

    position: Callable[[np.ndarray], np.ndarray]
    first_derivative: Callable[[np.ndarray], np.ndarray]
    second_derivative: Callable[[np.ndarray], np.ndarray]

    def validate(self) -> float:
        """Check the callables on [0, 1] and return the largest coordinate
        magnitude of the position samples, the scale of their rounding."""
        t = np.linspace(0.0, 1.0, _N_VALIDATION_SAMPLES)
        p = np.asarray(self.position(t), float)
        d = np.asarray(self.first_derivative(t), float)
        dd = np.asarray(self.second_derivative(t), float)
        for name, values in (("position", p), ("first derivative", d), ("second derivative", dd)):
            if not np.all(np.isfinite(values)):
                raise GeometryError(f"arc {name} must be finite on [0, 1]")
        speed = np.linalg.norm(d, axis=-1)
        if speed.min() <= 0.0:
            raise GeometryError(f"arc parametrization speed vanishes at "
                                f"t = {t[speed.argmin()]:.6g}")
        # the kernel's diagonal and corner values come from the derivatives
        # alone: check them against central differences of the position and
        # of the first derivative, relative to the largest derivative, plus
        # the rounding of the differenced values, 4 eps max|f| / h
        h = _FD_STEP
        u = np.linspace(h, 1.0 - h, _N_VALIDATION_SAMPLES)
        scale = max(float(np.abs(d).max()), float(np.abs(dd).max()))
        for name, f, df in (("first", self.position, self.first_derivative),
                            ("second", self.first_derivative, self.second_derivative)):
            ahead, behind = np.asarray(f(u + h), float), np.asarray(f(u - h), float)
            err = float(np.abs((ahead - behind) / (2.0 * h) - np.asarray(df(u), float)).max())
            rounding = 4.0 * _EPS * max(np.abs(ahead).max(), np.abs(behind).max()) / h
            if not err <= _FD_RTOL * scale + rounding:
                raise GeometryError(f"arc {name} derivative disagrees with central "
                                    f"differences by {err / scale:.2e} relative")
        return float(np.abs(p).max())


@dataclass(frozen=True, eq=False)
class Corner:
    """A boundary corner, measured from the derivatives of its arcs: d_in of
    the arriving arc at t = 1, d_out of the leaving arc at t = 0.  Its
    interior angle omega = (1 - chi) pi is the wedge from the outgoing ray
    counterclockwise (through the interior) to the reversed incoming ray."""

    index: int
    point: np.ndarray
    d_in: np.ndarray
    d_out: np.ndarray
    interior_angle: float = field(init=False)
    chi: float = field(init=False)

    def __post_init__(self):
        d_in, d_out = self.d_in, self.d_out
        omega = (math.atan2(-d_in[1], -d_in[0]) - math.atan2(d_out[1], d_out[0])) % _TWO_PI
        if not (0.0 < omega < 2.0 * math.pi) or omega == math.pi:
            raise GeometryError(
                f"corner {self.index}: interior angle must be in (0, pi) or (pi, 2 pi), got {omega}"
            )
        chi = 1.0 - omega / math.pi
        if not 0.0 < abs(chi) < 1.0:
            raise GeometryError(f"corner {self.index}: chi = {chi} out of range")
        object.__setattr__(self, "interior_angle", omega)
        object.__setattr__(self, "chi", chi)
        for a in (self.point, self.d_in, self.d_out):
            a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Boundary:
    """Counterclockwise boundary: arc k runs from corner k to corner k+1.

    A boundary without corners (a single smooth closed curve) is allowed
    for the smooth-case pipeline; it carries exactly one arc per closed
    curve and an empty corner tuple.
    """

    arcs: tuple
    corners: tuple

    @property
    def n_corners(self) -> int:
        return len(self.corners)

    @cached_property
    def locator(self) -> "PointLocator":
        """PointLocator of the boundary, built once."""
        return PointLocator(self)


def _counterclockwise(boundary: Boundary) -> Boundary:
    """The boundary, checked to have positive signed area: 1/2 the integral
    of Im(conj(sigma) sigma') = x y' - y x' by Gauss-Legendre on each arc
    (exact on line arcs)."""
    rule = gauss_legendre(_AREA_ORDER)
    area = 0.5 * sum(float(rule.weights @ (as_complex(arc.position(rule.nodes)).conj()
                                           * as_complex(arc.first_derivative(rule.nodes))).imag)
                     for arc in boundary.arcs)
    if area <= 0.0:
        raise GeometryError("boundary must be counterclockwise (positive signed area)")
    return boundary


def make_boundary(arcs: Sequence[MacroArc]) -> Boundary:
    """Validated boundary from macro arcs, arc k running from corner k to
    corner k+1 (indices mod n).

    Each corner is measured from the one-sided derivatives of its two
    arcs.  The curve must close head-to-tail, within 1e-12 of its largest
    coordinate magnitude, and be counterclockwise.
    """
    n = len(arcs)
    if n < 1:
        raise GeometryError(f"a boundary needs at least 1 arc, got {n}")
    gap_tol = _CLOSURE_RTOL * max(arc.validate() for arc in arcs)
    corners = []
    for k in range(n):
        point = np.array(arcs[k].position(0.0), float)
        gap = np.linalg.norm(point - np.asarray(arcs[k - 1].position(1.0), float))
        if gap > gap_tol:
            raise GeometryError(f"arcs {(k - 1) % n} -> {k} do not close up: gap {gap:.3e}")
        corners.append(Corner(k, point, np.array(arcs[k - 1].first_derivative(1.0), float),
                              np.array(arcs[k].first_derivative(0.0), float)))
    return _counterclockwise(Boundary(tuple(arcs), tuple(corners)))


def make_smooth_boundary(arc: MacroArc) -> Boundary:
    """Boundary consisting of a single smooth closed curve, no corners."""
    size = arc.validate()
    gap = np.linalg.norm(np.asarray(arc.position(1.0), float)
                         - np.asarray(arc.position(0.0), float))
    if gap > _CLOSURE_RTOL * size:
        raise GeometryError(f"smooth boundary curve must close up: gap {gap:.3e}")
    return _counterclockwise(Boundary((arc,), ()))


@dataclass(frozen=True)
class SubArc:
    """One of the 3n sections: window [a, b] of a macro arc, backwards if GAMMA."""

    kind: str
    macro_index: int
    a: float
    b: float

    def macro_t(self, s):
        """Macro-arc parameter of the sub-arc parameter s: the one home of
        the gamma arc's reversal, so both corner arcs start at the corner."""
        if self.kind == GAMMA:
            return self.b - (self.b - self.a) * s
        return self.a + (self.b - self.a) * s


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Sub-arc decomposition (gamma_k, upsilon_k, central_k per corner).

    Corner k's fractions are in its windows: subarcs[3k + 1].b on arc k,
    1 - subarcs[3k].a on arc k - 1.  corner_speed[k] is the matched speed
    of both corner sub-arcs at corner k; deviation[k] the achieved maximum
    perpendicular distance from them to the corner tangent lines.
    """

    boundary: Boundary
    subarcs: tuple
    corner_speed: np.ndarray
    deviation: np.ndarray
    delta: float


_SAMPLE_INDEX = np.arange(float(_N_DEVIATION_SAMPLES))


class _CornerSides:
    """The two macro arcs at a corner, sampled for their deviation from
    the corner tangent lines: the head side over [0, e] of the arc that
    leaves the corner, the tail side over [1 - e, 1] of the arc that
    arrives at it.  Each side is sampled at 201 points on the grid of
    np.linspace, bit for bit; when both sides lie on one macro arc, both
    are sampled in one position call."""

    def __init__(self, head: MacroArc, tail: MacroArc, corner: Corner):
        self.arcs, self.index = (head, tail), corner.index
        self.corner = corner.point
        self.units = np.stack([d / np.linalg.norm(d) for d in (corner.d_out, corner.d_in)])

    def deviations(self, e_head, e_tail) -> np.ndarray:
        """Maximum perpendicular distance of each side's samples from its
        tangent line at the fractions e_head and e_tail, head then tail;
        infinite on a side whose far end is the corner point in floating
        point, a collapsed arc however close to its line."""
        lo, hi = np.array((0.0, 1.0 - e_tail)), np.array((e_head, 1.0))
        t = _SAMPLE_INDEX * ((hi - lo) / (_N_DEVIATION_SAMPLES - 1))[:, None] + lo[:, None]
        t[:, -1] = hi
        if self.arcs[0] is self.arcs[1]:
            p = np.asarray(self.arcs[0].position(t.ravel()), float)
        else:
            p = np.concatenate([np.asarray(arc.position(tk), float)
                                for arc, tk in zip(self.arcs, t)])
        x = (p[:, 0] - self.corner[0]).reshape(t.shape)
        y = (p[:, 1] - self.corner[1]).reshape(t.shape)
        dev = np.abs(x * self.units[:, 1:] - y * self.units[:, :1]).max(axis=1)
        for side, far in enumerate((-1, 0)):  # the head side's last sample, the tail's first
            if x[side, far] == 0.0 and y[side, far] == 0.0:
                dev[side] = np.inf
        return dev

    def largest_fractions(self, delta: float) -> np.ndarray:
        """Per side, the largest fraction up to _FRACTION_CAP whose deviation
        stays below delta: the cap itself if it does, else 60 bisection
        steps, the two sides' steps taken together.  A side at the cap
        starts with lo = hi = cap and so stays there."""
        cap = _FRACTION_CAP
        lo = np.where(self.deviations(cap, cap) <= delta, cap, 0.0)
        hi = np.full(2, cap)
        if (lo < cap).any():
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                ok = self.deviations(*mid.tolist()) <= delta  # Python floats: faster arrays
                lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
            if (lo == 0.0).any():
                raise GeometryError(f"corner {self.index}: no corner arc stays within "
                                    f"delta = {delta} of its tangent line")
        return lo


def decompose(boundary: Boundary, delta: float) -> Decomposition:
    """Split every macro arc into (upsilon, central, gamma) sections.

    Corner sub-arc fractions are the largest (up to _FRACTION_CAP) for
    which the perpendicular deviation from the corner tangent line stays
    below `delta`, then one side is shrunk so the corner parametrization
    speeds match exactly.  A boundary without corners yields one central
    sub-arc per macro arc.
    """
    if not delta > 0.0:  # NaN too
        raise ParameterError(f"delta must be positive, got {delta}")
    n = boundary.n_corners
    if n == 0:
        subarcs = tuple(
            SubArc(CENTRAL, i, 0.0, 1.0) for i in range(len(boundary.arcs))
        )
        return Decomposition(boundary, subarcs, np.zeros(0), np.zeros(0), delta)

    head = np.empty(n)   # upsilon fraction on arc k
    tail = np.empty(n)   # gamma fraction on arc (k-1) mod n
    speed = np.empty(n)
    achieved = np.empty(n)
    for k, corner in enumerate(boundary.corners):
        v_head = float(np.linalg.norm(corner.d_out))
        v_tail = float(np.linalg.norm(corner.d_in))
        sides = _CornerSides(boundary.arcs[k], boundary.arcs[k - 1], corner)
        e_head, e_tail = sides.largest_fractions(delta)
        # shrink one side so e_tail * v_tail == e_head * v_head
        e_head_m = min(e_head, e_tail * v_tail / v_head)
        e_tail_m = e_head_m * v_head / v_tail

        # rounding in the speed match can overshoot delta by an ulp; shrink
        # both sides together (preserving the matched ratio) until it holds
        got = sides.deviations(e_head_m, e_tail_m).max()
        for _ in range(64):
            if got <= delta:
                break
            e_head_m *= 1.0 - 1e-9
            e_tail_m *= 1.0 - 1e-9
            got = sides.deviations(e_head_m, e_tail_m).max()
        else:
            raise GeometryError(f"corner {k}: could not meet the deviation bound "
                                f"delta = {delta}")
        head[k], tail[k] = e_head_m, e_tail_m
        speed[k] = e_head_m * v_head
        achieved[k] = got
    subarcs = []
    for k in range(n):
        prev = (k - 1) % n
        subarcs.append(SubArc(GAMMA, prev, 1.0 - tail[k], 1.0))
        subarcs.append(SubArc(UPSILON, k, 0.0, head[k]))
        subarcs.append(SubArc(CENTRAL, k, head[k], 1.0 - tail[(k + 1) % n]))
    return Decomposition(boundary, tuple(subarcs), speed, achieved, delta)


# --------------------------------------------------------------------------
# concrete arcs and built-in domains
# --------------------------------------------------------------------------

def _arc(position, first, second) -> MacroArc:
    """MacroArc from the formulas of its position and first and second
    derivatives: each maps a float array t to (x, y), arrays that broadcast
    to the shape of t, stacked here on a trailing coordinate axis."""
    def stacked(formula):
        def f(t):
            t = np.asarray(t, float)
            out = np.empty(t.shape + (2,))
            out[..., 0], out[..., 1] = formula(t)
            return out
        return f

    return MacroArc(stacked(position), stacked(first), stacked(second))


def line_arc(p0, p1) -> MacroArc:
    """Straight segment from p0 to p1."""
    (x0, y0), (dx, dy) = np.asarray(p0, float), np.subtract(p1, p0, dtype=float)
    return _arc(lambda t: (x0 + t * dx, y0 + t * dy), lambda t: (dx, dy), lambda t: (0.0, 0.0))


def as_complex(p) -> np.ndarray:
    """Points or vectors with a trailing coordinate axis of length 2 as x + iy."""
    p = np.asarray(p, float)
    return p[..., 0] + 1j * p[..., 1]


def circle_arc(radius: float = 1.0, center=(0.0, 0.0)) -> MacroArc:
    """Counterclockwise circle, one full turn over [0, 1]."""
    cx, cy, w = float(center[0]), float(center[1]), _TWO_PI
    return _arc(
        lambda t: (cx + radius * np.cos(w * t), cy + radius * np.sin(w * t)),
        lambda t: (radius * w * -np.sin(w * t), radius * w * np.cos(w * t)),
        lambda t: (-radius * w * w * np.cos(w * t), -radius * w * w * np.sin(w * t)),
    )


def _heart_arc(phi: float) -> MacroArc:
    # rotation through (pi + phi) t applied to (tan(phi/2), 1), shifted so the
    # curve starts and ends at the origin with interior angle phi there
    w = math.pi + phi
    tp = math.tan(phi / 2.0)

    def position(t):
        c, s = np.cos(w * t), np.sin(w * t)
        return tp * c - s - tp, tp * s + c - np.cos(np.pi * t)

    def first(t):
        c, s = np.cos(w * t), np.sin(w * t)
        return -tp * w * s - w * c, tp * w * c - w * s + np.pi * np.sin(np.pi * t)

    def second(t):
        c, s = np.cos(w * t), np.sin(w * t)
        return (-tp * w * w * c + w * w * s,
                -tp * w * w * s - w * w * c + np.pi * np.pi * np.cos(np.pi * t))

    return _arc(position, first, second)


def _teardrop_arc(phi: float) -> MacroArc:
    tp = math.tan(phi / 2.0)
    pi = np.pi
    return _arc(
        lambda t: (2.0 * np.sin(pi * t), -tp * np.sin(2 * pi * t)),
        lambda t: (2.0 * pi * np.cos(pi * t), -2.0 * pi * tp * np.cos(2 * pi * t)),
        lambda t: (-2.0 * pi * pi * np.sin(pi * t), 4.0 * pi * pi * tp * np.sin(2 * pi * t)),
    )


def _boomerang_arc(phi: float) -> MacroArc:
    tp = math.tan(phi / 2.0)
    pi = np.pi
    return _arc(
        lambda t: ((2.0 / 3.0) * np.sin(3 * pi * t), -tp * np.sin(2 * pi * t)),
        lambda t: (2.0 * pi * np.cos(3 * pi * t), -2.0 * pi * tp * np.cos(2 * pi * t)),
        lambda t: (-6.0 * pi * pi * np.sin(3 * pi * t), 4.0 * pi * pi * tp * np.sin(2 * pi * t)),
    )


def make_polygon(vertices: Sequence) -> Boundary:
    """Counterclockwise polygon boundary, one line arc per edge k from vertex
    k to vertex k + 1; two edges that are not neighbours may not meet."""
    a = np.array(vertices, float)
    b, n = np.roll(a, -1, axis=0), len(a)
    if n < 3:
        raise GeometryError(f"polygon needs at least 3 vertices, got {n}")
    e = b - a
    # edges i and j meet when each has its two ends on both sides of (or on)
    # the other's line and their bounding boxes overlap
    rel = np.stack([a, b], axis=1) - a[:, None, None]
    side = np.sign(e[:, None, None, 0] * rel[..., 1] - e[:, None, None, 1] * rel[..., 0])
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    boxes = ((lo[:, None] <= hi) & (lo <= hi[:, None])).all(axis=-1)
    gap = (np.arange(n) - np.arange(n)[:, None]) % n
    straddle = side[..., 0] * side[..., 1] <= 0.0
    meet = np.argwhere(straddle & straddle.T & boxes & (gap > 1) & (gap < n - 1))
    if len(meet):
        raise GeometryError(f"polygon edges {meet[0][0]} and {meet[0][1]} cross or touch")
    return make_boundary([line_arc(a[k], b[k]) for k in range(n)])


TRIANGLE_VERTICES = ((-1.25, -0.75), (0.75, -0.75), (0.75, 1.25))
# each parametric family's arc and the open range of its corner angle phi
_FAMILIES = {
    "heart": (_heart_arc, math.pi, _TWO_PI, "(pi, 2 pi)"),
    "teardrop": (_teardrop_arc, 0.0, math.pi, "(0, pi)"),
    "boomerang": (_boomerang_arc, math.pi, _TWO_PI, "(pi, 2 pi)"),
}


def check_angle(name: str, phi: float | None) -> None:
    """Raise ParameterError unless phi is in the family name's open angle range."""
    _, lo, hi, span = _FAMILIES[name]
    if phi is None or not lo < phi < hi:  # NaN too
        raise ParameterError(f"{name} angle must be in {span}, got {phi}")


def make_example_domain(name: str, phi: float | None = None) -> Boundary:
    """Built-in benchmark domains: heart, teardrop, boomerang, triangle.

    heart and boomerang take an interior corner angle phi in (pi, 2 pi),
    teardrop in (0, pi); the triangle ignores phi and uses the fixed
    vertices (-5/4, -3/4), (3/4, -3/4), (3/4, 5/4).
    """
    if name == "triangle":
        return make_polygon(TRIANGLE_VERTICES)
    if name not in _FAMILIES:
        raise ParameterError(f"unknown example domain {name!r}")
    check_angle(name, phi)
    return make_boundary([_FAMILIES[name][0](phi)])


# --------------------------------------------------------------------------
# point location
# --------------------------------------------------------------------------

def boundary_polyline(boundary: Boundary, total: int = 4096) -> np.ndarray:
    """Dense sample of the whole boundary as an (N, 2) closed polyline,
    a reference for tests and benchmarks; point location uses the arcs."""
    t = np.linspace(0.0, 1.0, max(8, total // len(boundary.arcs)), endpoint=False)
    return np.concatenate([np.asarray(arc.position(t), float) for arc in boundary.arcs])


def winding_number(polyline: np.ndarray, point) -> int:
    """Winding number of a closed polyline about a finite point (angle sum)."""
    p = np.asarray(point, float)
    if not np.isfinite(p).all():
        raise ParameterError(f"winding number needs a finite point, got {point}")
    d = as_complex(polyline - p)
    return int(round(float(np.angle(np.roll(d, -1) * d.conj()).sum()) / _TWO_PI))


class PointLocator:
    """Point location against the macro arcs through a table of chord panels.

    Each macro arc is cut into _LOCATOR_PANELS panels with ends at
    sigma(k / _LOCATOR_PANELS); a panel is halved until sigma' has a
    positive component along its chord at _SAGITTA_SAMPLES points, so its
    arc piece is a graph over the chord (the boomerang's tight turns at
    1.98 pi need this).  A panel keeps its complex ends, the conjugate of
    its unit chord, its length L and a strip half-width s: twice the
    sagitta bound (h^2 / 8) max|sigma''| over its parameter width h, plus
    the tolerance tol: _NEAR_RTOL times the largest extent of the panel
    ends along x or y, so the test follows the boundary's size.

    In a panel's frame a point is w = x + i y, x along the chord and y to
    its left, and the chord turns about it by arg(conj(w) (w - L)).
    Unless |y| <= s and -tol < x < L + tol, the arc piece and its chord
    are homotopic away from the point, so that is the arc piece's turn.
    Otherwise Newton's method finds the foot f on the arc at chord
    coordinate x clipped to [0, L]; the path start -> f -> end is again
    homotopic to the arc piece, and the point is near the boundary when
    such a foot lies within the tolerance.
    """

    def __init__(self, boundary: Boundary):
        self.arcs = boundary.arcs
        t0, width, start, end, second = [], [], [], [], []
        for k, arc in enumerate(self.arcs):
            t = np.linspace(0.0, 1.0, _LOCATOR_PANELS + 1)
            for _ in range(_MAX_SPLITS + 1):
                h = np.diff(t)
                samples = t[:-1, None] + h[:, None] * np.linspace(0.0, 1.0, _SAGITTA_SAMPLES)
                p = as_complex(arc.position(t))
                along = (as_complex(arc.first_derivative(samples)) * np.diff(p).conj()[:, None]).real
                bad = ~np.all(along > 0.0, axis=1)
                if not bad.any():
                    break
                t = np.sort(np.append(t, t[:-1][bad] + 0.5 * h[bad]))
            else:
                raise GeometryError(f"arc {k}: locator panels halved {_MAX_SPLITS} times")
            t0.append(t[:-1])
            width.append(h)
            start.append(p[:-1])
            end.append(p[1:])
            second.append(np.abs(as_complex(arc.second_derivative(samples))).max(axis=1))
        self.arc = np.repeat(np.arange(len(t0)), [len(t) for t in t0])
        self.t0, self.width = np.concatenate(t0), np.concatenate(width)
        self.start, self.end = np.concatenate(start), np.concatenate(end)
        self.length = np.abs(self.end - self.start)
        self.frame = (self.end - self.start).conj() / self.length
        ends = np.concatenate([self.start, self.end])
        xy = np.stack([ends.real, ends.imag])
        lo, hi = xy.min(axis=1), xy.max(axis=1)
        self.tol = _NEAR_RTOL * float((hi - lo).max())
        self.strip = self.width ** 2 / 4.0 * np.concatenate(second) + self.tol
        # every panel's rectangle [-tol, L + tol] x [-s, s], hence the
        # boundary and every point near it, lies in this box
        grow = self.strip.max() + self.tol
        lo, hi = lo - grow, hi + grow
        self._box = ((lo + hi) / 2.0, (hi - lo) / 2.0)  # centre and half-sides

    def locate(self, points) -> tuple:
        """(near, winding) of points given as a (P, 2) array: whether each
        point lies within tol of the boundary (measured across a panel's
        chord), and the boundary's winding number about it.  Points outside
        the box of the panels' rectangles, non-finite ones included, get
        (False, 0) and no further work."""
        p = np.asarray(points, float).reshape(-1, 2)
        near, winding = np.zeros(len(p), bool), np.zeros(len(p), int)
        mid, half = self._box
        held = np.flatnonzero((np.abs(p - mid) <= half).all(axis=1))
        if not len(held):
            return near, winding
        z = as_complex(p[held])
        w = (z[:, None] - self.start) * self.frame
        turns = np.angle(w.conj() * (w - self.length))
        point, panel = np.nonzero(np.abs(w.imag) <= self.strip)
        x, tol = w.real[point, panel], self.tol
        keep = (x > -tol) & (x < self.length[panel] + tol)
        point, panel, x = point[keep], panel[keep], x[keep]
        if len(point):
            a, b = self.start[panel] - z[point], self.end[panel] - z[point]
            f = self._foot(panel, np.clip(x, 0.0, self.length[panel])) - z[point]
            turns[point, panel] = np.angle(f * a.conj()) + np.angle(b * f.conj())
            near[held[point[np.abs(f) < tol]]] = True
        winding[held] = np.rint(turns.sum(axis=1) / _TWO_PI)
        return near, winding

    def _foot(self, panel: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Points of the given panels' arcs at chord coordinates x, by
        Newton's method on the arc parameter from the chord's linear map;
        the derivative along the chord is positive on the panel."""
        t = self.t0[panel] + self.width[panel] * x / self.length[panel]
        foot = np.empty(len(panel), complex)
        for k in np.unique(self.arc[panel]):
            sel = np.flatnonzero(self.arc[panel] == k)
            arc, tk, a, frame = self.arcs[k], t[sel], self.start[panel[sel]], self.frame[panel[sel]]
            for _ in range(_NEWTON_STEPS):
                g = ((as_complex(arc.position(tk)) - a) * frame).real - x[sel]
                tk = tk - g / (as_complex(arc.first_derivative(tk)) * frame).real
            foot[sel] = as_complex(arc.position(tk))
        return foot
