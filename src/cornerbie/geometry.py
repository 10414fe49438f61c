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
    "decompose",
    "subarc_eval",
    "macro_param_of",
    "boundary_polyline",
    "winding_number",
    "PointLocator",
]

GAMMA = "gamma"      # trailing corner arc, reversed parametrization
UPSILON = "upsilon"  # leading corner arc
CENTRAL = "central"

_ANGLE_TOL = 1e-8
_CLOSURE_TOL = 1e-12
_N_VALIDATION_SAMPLES = 1024
_FD_STEP = 1e-5
_FD_RTOL = 1e-6
_N_DEVIATION_SAMPLES = 201
_TWO_PI = 2.0 * math.pi
_LOCATOR_CHUNK = 64  # polyline edges per chunk of PointLocator
_BOUNDARY_DISTANCE_TOL = 1e-9  # PointLocator's distance for "on the boundary"


@dataclass(frozen=True, eq=False)
class MacroArc:
    """One C^2 piece of the boundary, parametrized over [0, 1].

    The three callables accept scalar or array parameters and return
    arrays with a trailing coordinate axis of length 2.
    """

    position: Callable[[np.ndarray], np.ndarray]
    first_derivative: Callable[[np.ndarray], np.ndarray]
    second_derivative: Callable[[np.ndarray], np.ndarray]

    def validate(self) -> None:
        t = np.linspace(0.0, 1.0, _N_VALIDATION_SAMPLES)
        p = np.asarray(self.position(t), float)
        d = np.asarray(self.first_derivative(t), float)
        dd = np.asarray(self.second_derivative(t), float)
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(d)) and np.all(np.isfinite(dd))):
            raise GeometryError("arc position/derivatives must be finite on [0, 1]")
        speed = np.linalg.norm(d, axis=-1)
        if speed.min() <= 0.0:
            raise GeometryError("arc parametrization speed vanishes")
        # the kernel's diagonal and corner values come from the derivatives
        # alone: check them against central differences of the position and
        # of the first derivative, relative to the largest derivative
        h = _FD_STEP
        u = np.linspace(h, 1.0 - h, _N_VALIDATION_SAMPLES)
        scale = max(float(np.abs(d).max()), float(np.abs(dd).max()))
        for name, f, df in (("first", self.position, self.first_derivative),
                            ("second", self.first_derivative, self.second_derivative)):
            central = (np.asarray(f(u + h), float) - np.asarray(f(u - h), float)) / (2.0 * h)
            err = float(np.abs(central - np.asarray(df(u), float)).max())
            if not err <= _FD_RTOL * scale:
                raise GeometryError(f"arc {name} derivative disagrees with central "
                                    f"differences by {err / scale:.2e} relative")


@dataclass(frozen=True, eq=False)
class Corner:
    """A boundary corner with interior angle omega = (1 - chi) pi."""

    index: int
    point: np.ndarray
    interior_angle: float
    chi: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        omega = self.interior_angle
        if not (0.0 < omega < 2.0 * math.pi) or omega == math.pi:
            raise GeometryError(
                f"corner {self.index}: interior angle must be in (0, pi) or (pi, 2 pi), got {omega}"
            )
        chi = 1.0 - omega / math.pi
        if not 0.0 < abs(chi) < 1.0:
            raise GeometryError(f"corner {self.index}: chi = {chi} out of range")
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "beta", 1.0 / (1.0 + abs(chi)))
        self.point.setflags(write=False)


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
        """PointLocator of the boundary's 4096-point polyline, built once."""
        return PointLocator(boundary_polyline(self))


def _interior_angle_from_tangents(d_in: np.ndarray, d_out: np.ndarray) -> float:
    """Interior angle of a CCW boundary from the one-sided tangents.

    d_in is the derivative arriving at the corner, d_out the one leaving;
    the wedge is measured from the outgoing ray to the reversed incoming
    ray going counterclockwise (through the interior, which lies left of
    the direction of travel).
    """
    ang = math.atan2(-d_in[1], -d_in[0]) - math.atan2(d_out[1], d_out[0])
    return ang % (2.0 * math.pi)


def _signed_area(boundary: Boundary, per_arc: int = 2048) -> float:
    pts = boundary_polyline(boundary, per_arc * max(1, len(boundary.arcs)))
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    return 0.5 * float(np.sum(x * yn - y * xn))


def make_boundary(arcs: Sequence[MacroArc], corner_angles: Sequence[float]) -> Boundary:
    """Validated boundary from macro arcs and their corner interior angles.

    Arc k must run from corner k to corner k+1 (indices mod n).  The
    given angles are cross-checked against the one-sided tangents; the
    curve must close head-to-tail and be counterclockwise.
    """
    n = len(arcs)
    if n < 1 or len(corner_angles) != n:
        raise GeometryError("need n >= 1 arcs and one interior angle per corner")
    for arc in arcs:
        arc.validate()
    corners = []
    for k in range(n):
        p_start = np.asarray(arcs[k].position(0.0), float)
        p_prev_end = np.asarray(arcs[(k - 1) % n].position(1.0), float)
        if np.linalg.norm(p_start - p_prev_end) > _CLOSURE_TOL:
            raise GeometryError(
                f"arcs {((k - 1) % n)} -> {k} do not close up: gap {np.linalg.norm(p_start - p_prev_end):.3e}"
            )
        d_in = np.asarray(arcs[(k - 1) % n].first_derivative(1.0), float)
        d_out = np.asarray(arcs[k].first_derivative(0.0), float)
        measured = _interior_angle_from_tangents(d_in, d_out)
        if abs(measured - corner_angles[k]) > _ANGLE_TOL:
            raise GeometryError(
                f"corner {k}: stated interior angle {corner_angles[k]:.12f} "
                f"disagrees with tangents ({measured:.12f})"
            )
        corners.append(Corner(k, p_start.copy(), float(corner_angles[k])))
    boundary = Boundary(tuple(arcs), tuple(corners))
    if _signed_area(boundary) <= 0.0:
        raise GeometryError("boundary must be counterclockwise (positive signed area)")
    return boundary


def make_smooth_boundary(arc: MacroArc) -> Boundary:
    """Boundary consisting of a single smooth closed curve, no corners."""
    arc.validate()
    p0 = np.asarray(arc.position(0.0), float)
    p1 = np.asarray(arc.position(1.0), float)
    if np.linalg.norm(p1 - p0) > _CLOSURE_TOL:
        raise GeometryError("smooth boundary curve must close up")
    boundary = Boundary((arc,), ())
    if _signed_area(boundary) <= 0.0:
        raise GeometryError("boundary must be counterclockwise (positive signed area)")
    return boundary


@dataclass(frozen=True)
class SubArc:
    """One of the 3n sections: an affine window [a, b] of a macro arc."""

    index: int
    kind: str
    macro_index: int
    a: float
    b: float
    reversed: bool


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Sub-arc decomposition (gamma_k, upsilon_k, central_k per corner).

    corner_speed[k] is the matched parametrization speed of both corner
    sub-arcs at corner k; deviation[k] the achieved maximum perpendicular
    distance from the corner sub-arcs to the corner tangent lines.
    """

    boundary: Boundary
    subarcs: tuple
    head_fraction: np.ndarray
    tail_fraction: np.ndarray
    corner_speed: np.ndarray
    deviation: np.ndarray
    delta: float

    @property
    def n_subarcs(self) -> int:
        return len(self.subarcs)

    @property
    def n_corners(self) -> int:
        return self.boundary.n_corners

    @cached_property
    def scale(self) -> float:
        """Extent of the boundary, the length scale of the kernels' test
        for coincident field and source points."""
        pts = boundary_polyline(self.boundary, 1024)
        return float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))


_SAMPLE_INDEX = np.arange(float(_N_DEVIATION_SAMPLES))


class _CornerSides:
    """The two macro arcs at a corner, sampled for their deviation from
    the corner tangent lines: the head side over [0, e] of the arc that
    leaves the corner, the tail side over [1 - e, 1] of the arc that
    arrives at it.  Each side is sampled at 201 points on the grid of
    np.linspace, bit for bit; when both sides lie on one macro arc, both
    are sampled in one position call."""

    def __init__(self, head: MacroArc, tail: MacroArc, corner: np.ndarray,
                 d_head: np.ndarray, d_tail: np.ndarray):
        self.arcs = (head, tail)
        self.corner = corner
        self.units = np.stack([d_head / np.linalg.norm(d_head), d_tail / np.linalg.norm(d_tail)])

    def deviations(self, e_head, e_tail) -> list:
        """Maximum perpendicular distance of each side's samples from its
        tangent line at the fractions e_head and e_tail; a side whose
        fraction is None is not sampled and gets None."""
        sides = [k for k, e in enumerate((e_head, e_tail)) if e is not None]
        lo, hi = np.array([(0.0, e_head) if k == 0 else (1.0 - e_tail, 1.0) for k in sides]).T
        t = _SAMPLE_INDEX * ((hi - lo) / (_N_DEVIATION_SAMPLES - 1))[:, None] + lo[:, None]
        t[:, -1] = hi
        if len(sides) == 2 and self.arcs[0] is self.arcs[1]:
            p = np.asarray(self.arcs[0].position(t.ravel()), float)
        else:
            p = np.concatenate([np.asarray(self.arcs[k].position(tk), float)
                                for k, tk in zip(sides, t)])
        u = self.units if len(sides) == 2 else self.units[sides]
        x = (p[:, 0] - self.corner[0]).reshape(t.shape)
        y = (p[:, 1] - self.corner[1]).reshape(t.shape)
        out = [None, None]
        for k, dev in zip(sides, np.abs(x * u[:, 1:] - y * u[:, :1]).max(axis=1)):
            out[k] = float(dev)
        return out

    def largest_fractions(self, delta: float, cap: float) -> list:
        """Per side, the largest fraction up to cap whose deviation stays
        below delta: cap itself if it does, else 60 bisection steps, the
        two sides' steps taken together."""
        dev = self.deviations(cap, cap)
        open_sides = [k for k in (0, 1) if not dev[k] <= delta]
        lo, hi = [0.0, 0.0], [cap, cap]
        if open_sides:
            for _ in range(60):
                mid = [0.5 * (lo[k] + hi[k]) if k in open_sides else None for k in (0, 1)]
                dev = self.deviations(*mid)
                for k in open_sides:
                    if dev[k] <= delta:
                        lo[k] = mid[k]
                    else:
                        hi[k] = mid[k]
        for k in open_sides:
            if lo[k] == 0.0:
                raise GeometryError("tangent-deviation bisection collapsed to zero fraction")
        return [lo[k] if k in open_sides else cap for k in (0, 1)]


def decompose(boundary: Boundary, delta: float, cap: float = 0.25) -> Decomposition:
    """Split every macro arc into (upsilon, central, gamma) sections.

    Corner sub-arc fractions are the largest (up to `cap`) for which the
    perpendicular deviation from the corner tangent line stays below
    `delta`, then one side is shrunk so the corner parametrization
    speeds match exactly.  A boundary without corners yields one central
    sub-arc per macro arc.
    """
    if delta <= 0.0:
        raise ParameterError(f"delta must be positive, got {delta}")
    if not 0.0 < cap <= 0.5:
        raise ParameterError(f"fraction cap must be in (0, 1/2], got {cap}")
    n = boundary.n_corners
    if n == 0:
        subarcs = tuple(
            SubArc(i, CENTRAL, i, 0.0, 1.0, False) for i in range(len(boundary.arcs))
        )
        empty = np.zeros(0)
        return Decomposition(boundary, subarcs, empty, empty.copy(), empty.copy(),
                             empty.copy(), delta)

    head = np.empty(n)   # upsilon fraction on arc k
    tail = np.empty(n)   # gamma fraction on arc (k-1) mod n
    speed = np.empty(n)
    achieved = np.empty(n)
    for k in range(n):
        prev = (k - 1) % n
        corner = boundary.corners[k].point
        d_head = np.asarray(boundary.arcs[k].first_derivative(0.0), float)
        d_tail = np.asarray(boundary.arcs[prev].first_derivative(1.0), float)
        v_head = float(np.linalg.norm(d_head))
        v_tail = float(np.linalg.norm(d_tail))
        if v_head <= 0.0 or v_tail <= 0.0:
            raise GeometryError(f"degenerate tangent at corner {k}")
        sides = _CornerSides(boundary.arcs[k], boundary.arcs[prev], corner, d_head, d_tail)
        e_head, e_tail = sides.largest_fractions(delta, cap)
        # shrink one side so e_tail * v_tail == e_head * v_head
        e_head_m = min(e_head, e_tail * v_tail / v_head)
        e_tail_m = e_head_m * v_head / v_tail

        # rounding in the speed match can overshoot delta by an ulp; shrink
        # both sides together (preserving the matched ratio) until it holds
        got = max(sides.deviations(e_head_m, e_tail_m))
        for _ in range(64):
            if got <= delta:
                break
            e_head_m *= 1.0 - 1e-9
            e_tail_m *= 1.0 - 1e-9
            got = max(sides.deviations(e_head_m, e_tail_m))
        else:
            raise GeometryError(f"corner {k}: could not meet the deviation bound")
        head[k], tail[k] = e_head_m, e_tail_m
        speed[k] = e_head_m * v_head
        achieved[k] = got
    for ell in range(n):
        nxt = (ell + 1) % n
        if head[ell] > 0.5 or tail[nxt] > 0.5:
            raise GeometryError("corner fraction exceeds half of its macro interval")
        if head[ell] + tail[nxt] >= 1.0:
            raise GeometryError(
                f"macro arc {ell}: corner sections overlap (delta too large)"
            )
    subarcs = []
    for k in range(n):
        prev = (k - 1) % n
        subarcs.append(SubArc(3 * k, GAMMA, prev, 1.0 - tail[k], 1.0, True))
        subarcs.append(SubArc(3 * k + 1, UPSILON, k, 0.0, head[k], False))
        subarcs.append(SubArc(3 * k + 2, CENTRAL, k, head[k], 1.0 - tail[(k + 1) % n], False))
    return Decomposition(boundary, tuple(subarcs), head, tail, speed, achieved, delta)


def subarc_eval(dec: Decomposition, i: int, s):
    """Position and first/second parameter derivatives of sub-arc i at s.

    The chain rule over the affine window gives d1 = +/-(b-a) sigma',
    d2 = (b-a)^2 sigma'' (sign negative on reversed arcs).  Corner arcs
    return the stored corner point exactly at s = 0.
    """
    sub = dec.subarcs[i]
    s_arr = np.asarray(s, float)
    ell, t = macro_param_of(dec, i, s_arr)
    arc, length = dec.boundary.arcs[ell], sub.b - sub.a
    d1 = (-length if sub.reversed else length) * np.asarray(arc.first_derivative(t), float)
    p = np.asarray(arc.position(t), float)
    d2 = length * length * np.asarray(arc.second_derivative(t), float)
    if sub.kind != CENTRAL and np.any(s_arr == 0.0):
        p = np.where((s_arr == 0.0)[..., None], dec.boundary.corners[i // 3].point, p)
    return p, d1, d2


def macro_param_of(dec: Decomposition, i: int, s: float):
    """Macro-arc index and parameter with sigma_i(s) = macro_ell(s_macro)."""
    sub = dec.subarcs[i]
    if sub.reversed:
        return sub.macro_index, sub.b - (sub.b - sub.a) * s
    return sub.macro_index, sub.a + (sub.b - sub.a) * s


# --------------------------------------------------------------------------
# concrete arcs and built-in domains
# --------------------------------------------------------------------------

def line_arc(p0, p1) -> MacroArc:
    """Straight segment from p0 to p1."""
    p0 = np.asarray(p0, float)
    p1 = np.asarray(p1, float)
    d = p1 - p0

    def position(t):
        t = np.asarray(t, float)
        return p0 + t[..., None] * d

    def first(t):
        t = np.asarray(t, float)
        return np.broadcast_to(d, t.shape + (2,)).copy()

    def second(t):
        t = np.asarray(t, float)
        return np.zeros(t.shape + (2,))

    return MacroArc(position, first, second)


def _xy(x, y) -> np.ndarray:
    """x and y on a trailing coordinate axis: np.stack(axis=-1) for two
    arrays of one shape, at a fraction of its cost on short arrays."""
    out = np.empty(np.shape(x) + (2,))
    out[..., 0] = x
    out[..., 1] = y
    return out


def circle_arc(radius: float = 1.0, center=(0.0, 0.0)) -> MacroArc:
    """Counterclockwise circle, one full turn over [0, 1]."""
    cx, cy = float(center[0]), float(center[1])
    w = 2.0 * math.pi

    def position(t):
        a = w * np.asarray(t, float)
        return _xy(cx + radius * np.cos(a), cy + radius * np.sin(a))

    def first(t):
        a = w * np.asarray(t, float)
        return radius * w * _xy(-np.sin(a), np.cos(a))

    def second(t):
        a = w * np.asarray(t, float)
        return -radius * w * w * _xy(np.cos(a), np.sin(a))

    return MacroArc(position, first, second)


def _trig_arc(xfun, yfun, dxfun, dyfun, ddxfun, ddyfun) -> MacroArc:
    def position(t):
        t = np.asarray(t, float)
        return _xy(xfun(t), yfun(t))

    def first(t):
        t = np.asarray(t, float)
        return _xy(dxfun(t), dyfun(t))

    def second(t):
        t = np.asarray(t, float)
        return _xy(ddxfun(t), ddyfun(t))

    return MacroArc(position, first, second)


def _heart_arc(phi: float) -> MacroArc:
    # rotation through (pi + phi) t applied to (tan(phi/2), 1), shifted so the
    # curve starts and ends at the origin with interior angle phi there
    w = math.pi + phi
    tp = math.tan(phi / 2.0)

    def position(t):
        t = np.asarray(t, float)
        c, s = np.cos(w * t), np.sin(w * t)
        return _xy(tp * c - s - tp, tp * s + c - np.cos(np.pi * t))

    def first(t):
        t = np.asarray(t, float)
        c, s = np.cos(w * t), np.sin(w * t)
        return _xy(-tp * w * s - w * c, tp * w * c - w * s + np.pi * np.sin(np.pi * t))

    def second(t):
        t = np.asarray(t, float)
        c, s = np.cos(w * t), np.sin(w * t)
        return _xy(-tp * w * w * c + w * w * s,
                   -tp * w * w * s - w * w * c + np.pi * np.pi * np.cos(np.pi * t))

    return MacroArc(position, first, second)


def _teardrop_arc(phi: float) -> MacroArc:
    tp = math.tan(phi / 2.0)
    pi = np.pi
    return _trig_arc(
        lambda t: 2.0 * np.sin(pi * t),
        lambda t: -tp * np.sin(2 * pi * t),
        lambda t: 2.0 * pi * np.cos(pi * t),
        lambda t: -2.0 * pi * tp * np.cos(2 * pi * t),
        lambda t: -2.0 * pi * pi * np.sin(pi * t),
        lambda t: 4.0 * pi * pi * tp * np.sin(2 * pi * t),
    )


def _boomerang_arc(phi: float) -> MacroArc:
    tp = math.tan(phi / 2.0)
    pi = np.pi
    return _trig_arc(
        lambda t: (2.0 / 3.0) * np.sin(3 * pi * t),
        lambda t: -tp * np.sin(2 * pi * t),
        lambda t: 2.0 * pi * np.cos(3 * pi * t),
        lambda t: -2.0 * pi * tp * np.cos(2 * pi * t),
        lambda t: -6.0 * pi * pi * np.sin(3 * pi * t),
        lambda t: 4.0 * pi * pi * tp * np.sin(2 * pi * t),
    )


def make_polygon(vertices: Sequence) -> Boundary:
    """Counterclockwise polygon boundary, one line arc per side."""
    verts = [np.asarray(v, float) for v in vertices]
    n = len(verts)
    if n < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    arcs = [line_arc(verts[k], verts[(k + 1) % n]) for k in range(n)]
    angles = []
    for k in range(n):
        d_in = verts[k] - verts[(k - 1) % n]
        d_out = verts[(k + 1) % n] - verts[k]
        angles.append(_interior_angle_from_tangents(d_in, d_out))
    return make_boundary(arcs, angles)


TRIANGLE_VERTICES = ((-1.25, -0.75), (0.75, -0.75), (0.75, 1.25))


def make_example_domain(name: str, phi: float | None = None) -> Boundary:
    """Built-in benchmark domains: heart, teardrop, boomerang, triangle.

    heart and boomerang take an interior corner angle phi in (pi, 2 pi),
    teardrop in (0, pi); the triangle ignores phi and uses the fixed
    vertices (-5/4, -3/4), (3/4, -3/4), (3/4, 5/4).
    """
    if name == "triangle":
        return make_polygon(TRIANGLE_VERTICES)
    if phi is None:
        raise ParameterError(f"domain {name!r} requires a corner angle phi")
    if name == "heart":
        if not math.pi < phi < 2.0 * math.pi:
            raise ParameterError(f"heart angle must be in (pi, 2 pi), got {phi}")
        return make_boundary([_heart_arc(phi)], [phi])
    if name == "teardrop":
        if not 0.0 < phi < math.pi:
            raise ParameterError(f"teardrop angle must be in (0, pi), got {phi}")
        return make_boundary([_teardrop_arc(phi)], [phi])
    if name == "boomerang":
        if not math.pi < phi < 2.0 * math.pi:
            raise ParameterError(f"boomerang angle must be in (pi, 2 pi), got {phi}")
        return make_boundary([_boomerang_arc(phi)], [phi])
    raise ParameterError(f"unknown example domain {name!r}")


# --------------------------------------------------------------------------
# point-location helpers
# --------------------------------------------------------------------------

def boundary_polyline(boundary: Boundary, total: int = 4096) -> np.ndarray:
    """Dense sample of the whole boundary as an (N, 2) closed polyline.

    The array is column-major, and so are a point's offsets from it: the
    per-point distance and angle passes of point location then read
    contiguous columns.
    """
    n_arcs = len(boundary.arcs)
    per_arc = max(8, total // n_arcs)
    pts = []
    for arc in boundary.arcs:
        t = np.linspace(0.0, 1.0, per_arc, endpoint=False)
        pts.append(np.asarray(arc.position(t), float))
    return np.asfortranarray(np.concatenate(pts, axis=0))


def winding_number(polyline: np.ndarray, point) -> int:
    """Winding number of a closed polyline about a finite point (angle sum)."""
    p = np.asarray(point, float)
    if not np.isfinite(p).all():
        raise ParameterError(f"winding number needs a finite point, got {point}")
    d = polyline - p
    ang = np.arctan2(d[:, 1], d[:, 0])
    return int(round(float(_turns(np.concatenate([ang, ang[:1]])).sum()) / _TWO_PI))


def _turns(ang: np.ndarray) -> np.ndarray:
    """Turns between consecutive angles along the last axis, wrapped
    into [-pi, pi)."""
    x = ang[..., 1:] - ang[..., :-1]
    x += np.pi
    # x lies in [-pi, 3 pi], where these two steps, in this order, equal
    # x % (2 pi) bit for bit at a fraction of its cost
    x -= _TWO_PI * (x >= _TWO_PI)
    x += _TWO_PI * (x < 0.0)
    x -= np.pi
    return x


class PointLocator:
    """Point location against a closed polyline in two levels.

    The polyline's edges are split into chunks of _LOCATOR_CHUNK that
    share their end vertices; the chunk ends form a coarse polygon, and
    each chunk keeps its vertices and its bounding box grown by
    _BOUNDARY_DISTANCE_TOL.  A point outside a chunk's box lies in an
    open half-plane away from all of the chunk's vertices, so the chunk
    turns about it by exactly its chord's angle and none of its vertices
    is within the tolerance.  locate therefore sums the coarse polygon's
    turns with the chord turn of every chunk whose box holds the point
    replaced by the sum of its edge turns, and tests distances on those
    chunks' vertices only.  The decisions are those of the full sweep
    over every vertex: winding_number, and the squared distance to the
    nearest vertex against the squared tolerance.
    """

    def __init__(self, polyline: np.ndarray):
        self.polyline = polyline
        n = len(polyline)
        closed = np.concatenate([polyline, polyline[:1]]).T
        starts = np.arange(0, n, _LOCATOR_CHUNK)
        # (2, chunks, _LOCATOR_CHUNK + 1); the short last chunk repeats its
        # end vertex, which adds turns of exactly 0 and no new distance
        self._fine = closed[:, np.minimum(starts[:, None] + np.arange(_LOCATOR_CHUNK + 1), n)]
        self._coarse = closed[:, None, np.append(starts, n)]
        # a float outside lo - tol or hi + tol as rounded is at least tol
        # from lo or hi, and so are its offsets from the chunk's vertices
        # as the full sweep rounds them
        tol = _BOUNDARY_DISTANCE_TOL
        self._lo = self._fine.min(axis=2, keepdims=True).transpose(0, 2, 1) - tol
        self._hi = self._fine.max(axis=2, keepdims=True).transpose(0, 2, 1) + tol
        self._box = (float(self._lo[0].min()), float(self._hi[0].max()),
                     float(self._lo[1].min()), float(self._hi[1].max()))

    def locate(self, points) -> tuple:
        """(near, winding) of finite points given as a (P, 2) array: whether
        a polyline vertex lies within _BOUNDARY_DISTANCE_TOL of each point
        (on squared distances), and the polyline's winding number about
        it.  A single point outside the polyline's grown box costs no
        array work beyond the result's."""
        p = np.asarray(points, float).reshape(-1, 2)
        x0, x1, y0, y1 = self._box
        if len(p) == 1 and not (x0 <= p[0, 0] <= x1 and y0 <= p[0, 1] <= y1):
            return np.zeros(1, bool), np.zeros(1, int)
        q = p.T[:, :, None]
        d = self._coarse - q
        turns = _turns(np.arctan2(d[1], d[0]))
        held = (q >= self._lo) & (q <= self._hi)
        point, chunk = np.nonzero(held[0] & held[1])
        d = self._fine[:, chunk] - q[:, point]
        turns[point, chunk] = _turns(np.arctan2(d[1], d[0])).sum(axis=1)
        close = (d[0] * d[0] + d[1] * d[1]).min(axis=1, initial=np.inf)
        near = np.zeros(len(p), bool)
        near[point[close < _BOUNDARY_DISTANCE_TOL ** 2]] = True
        return near, np.rint(turns.sum(axis=1) / _TWO_PI).astype(int)
