"""The three benchmark workloads: inputs, untraced and traced passes, checks.

Each workload calls only the package's stable entry points
(`example_config`, `run_example`, `angle_sweep`); that is what
`scaled_wall_s` times.  A traced pass makes the same calls with the layer functions that
`cornerbie.harness` looks up swapped for span-wrapping versions, which is
what the per-layer metrics come from.  Both passes return the same flat
vector of outputs, so the traced run is checked against the untraced one
bit for bit.

Operations and their checks (a failed check counts the operation as
failed):

- tables: one operation per (mu, nu) row of the four reference tables;
  `cond` must match the frozen value to 1e-8 relative and every error to
  1e-10 absolute.
- angle_sweep: one operation per angle; `cond` must match the frozen
  value to 1e-8 relative.
- field_map: one operation per exterior point; the field error must meet
  the stated accuracy 1e-6, and the row's `cond` must match the frozen
  (128, 512) table value.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Dict, List

import numpy as np

from cornerbie import CornerBieError, angle_sweep, example_config, harness, run_example

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

TABLE_NAMES = ("heart", "teardrop", "boomerang", "triangle")
COND_RTOL = 1e-8
ERROR_ATOL = 1e-10

SWEEP_PAIR = (64, 256)

FIELD_DOMAINS = ("heart", "boomerang")
FIELD_PAIR = (128, 512)
FIELD_POINTS = 800
FIELD_LOG10_DISTANCE = (-3.0, 2.0)
FIELD_TOL = 1e-6
# Exterior evaluation is known to lose accuracy near the boundary
# (ROADMAP item 4): misses were seen out to distance 0.097 on the heart.
# Misses within this distance are counted as failed operations but do not
# make the run incorrect; a miss farther out does.
NEAR_BOUNDARY = 0.2
DECADES = tuple(range(-3, 2))  # [1e-3, 1e-2), ..., [1e1, 1e2]


def sweep_angles() -> Dict[str, List[float]]:
    pi = math.pi
    reentrant = [k * pi / 20 for k in range(21, 40)] + [1.98 * pi]
    convex = [k * pi / 20 for k in range(1, 20)] + [0.02 * pi]
    return {"heart": reentrant, "teardrop": convex, "boomerang": reentrant}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


@dataclass
class Tally:
    """Each distinct operation of the run, counted once however many passes
    repeat it: it failed if any pass failed it.  So attempted and failed
    depend on the workload and seed only, not on how many passes fit in the
    run.  Failures that are not the documented near-boundary defect are
    kept as problems."""

    outcomes: Dict[str, bool] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def record(self, ok: bool, label: str, known_defect: bool = False,
               detail: str = "") -> None:
        """label names the operation; detail, shown with a problem, does not."""
        self.outcomes[label] = self.outcomes.get(label, True) and ok
        if not ok and not known_defect and label + detail not in self.problems:
            self.problems.append(label + detail)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.outcomes.values())

    @property
    def correct(self) -> bool:
        return not self.problems


def _cond_close(got: float, want: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= COND_RTOL * abs(want)


# --------------------------------------------------------------------------
# field_map inputs: exterior points generated without cornerbie's point
# location, from the arc parametrizations alone
# --------------------------------------------------------------------------

_SAMPLES_PER_ARC = 4096
_REFINE_STEPS = 60
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _arc_distance(arc, pts: np.ndarray) -> np.ndarray:
    """Distance from each point to one macro arc over t in [0, 1].

    Dense sampling finds every sample that may sit next to the nearest
    point: the true minimum lies within speed * h / 2 of some sample.
    Golden-section search on the two sample intervals around each such
    sample then refines the distance.
    """
    t = np.linspace(0.0, 1.0, _SAMPLES_PER_ARC + 1)
    h = t[1] - t[0]
    curve = np.asarray(arc.position(t), float)
    speed = float(np.linalg.norm(np.asarray(arc.first_derivative(t), float), axis=-1).max())
    slack = 1.01 * speed * h
    best = np.empty(len(pts))
    for lo in range(0, len(pts), 64):
        chunk = pts[lo:lo + 64]
        dist = np.linalg.norm(curve[None, :, :] - chunk[:, None, :], axis=-1)
        rows, cols = np.nonzero(dist <= dist.min(axis=1, keepdims=True) + slack)
        a = t[np.maximum(cols - 1, 0)]
        b = t[np.minimum(cols + 1, _SAMPLES_PER_ARC)]
        target = chunk[rows]

        def f(s):
            return np.linalg.norm(np.asarray(arc.position(s), float) - target, axis=-1)

        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = f(c), f(d)
        for _ in range(_REFINE_STEPS):
            left = fc < fd
            b = np.where(left, d, b)
            a = np.where(left, a, c)
            d_new = np.where(left, c, a + _GOLDEN * (b - a))
            c_new = np.where(left, b - _GOLDEN * (b - a), d)
            c, d = c_new, d_new
            fc, fd = f(c), f(d)
        refined = np.minimum(np.minimum(fc, fd), dist[rows, cols])
        out = np.full(len(chunk), np.inf)
        np.minimum.at(out, rows, refined)
        best[lo:lo + 64] = out
    return best


def boundary_distance(boundary, pts: np.ndarray) -> np.ndarray:
    return np.min([_arc_distance(arc, pts) for arc in boundary.arcs], axis=0)


def exterior_points(boundary, n: int, rng: np.random.Generator):
    """n exterior points with their distances from the boundary.

    Each candidate steps out from a uniformly drawn boundary point along
    the outward normal (y', -x') / |sigma'| of the counterclockwise arc,
    by a distance drawn log-uniform over FIELD_LOG10_DISTANCE.  It is kept
    only if that foot point is the nearest boundary point, which makes it
    exterior at exactly the drawn distance; otherwise it is redrawn.
    """
    pts: List[np.ndarray] = []
    dists: List[np.ndarray] = []
    have = 0
    while have < n:
        m = 2 * (n - have)
        k = rng.integers(len(boundary.arcs), size=m)
        t = rng.uniform(0.0, 1.0, size=m)
        d = 10.0 ** rng.uniform(*FIELD_LOG10_DISTANCE, size=m)
        foot = np.empty((m, 2))
        normal = np.empty((m, 2))
        for ell, arc in enumerate(boundary.arcs):
            sel = k == ell
            foot[sel] = np.asarray(arc.position(t[sel]), float)
            tangent = np.asarray(arc.first_derivative(t[sel]), float)
            normal[sel] = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1)
        normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
        cand = foot + d[:, None] * normal
        keep = boundary_distance(boundary, cand) >= d * (1.0 - 1e-9)
        keep &= np.cumsum(keep) <= n - have
        pts.append(cand[keep])
        dists.append(d[keep])
        have += int(keep.sum())
    return np.concatenate(pts), np.concatenate(dists)


def _decade(dists: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(np.log10(dists)), DECADES[0], DECADES[-1]).astype(int)


def decade_shares(dists: np.ndarray) -> Dict[str, float]:
    dec = _decade(dists)
    return {f"1e{k}": float(np.mean(dec == k)) for k in DECADES}


# --------------------------------------------------------------------------
# traced passes: the real entry points, with the layer functions they look
# up in cornerbie.harness swapped for span-wrapping versions
# --------------------------------------------------------------------------

# harness global -> span name
_HARNESS_CALLS = {
    "make_example_domain": "geometry.boundary",
    "decompose": "geometry.decompose",
    "NeumannDatum": "rhs.datum",
    "rhs_approx": "rhs.rhs_approx",
    "build_system": "assembly.build_system",
    "cond_inf": "solve_post.cond_inf",
    "solve_field": "solve_post.solve_field",
    "eval_exterior": "solve_post.eval_exterior",
}


def _count_matrix(tr, n: int) -> None:
    """Work counts of one n x n system: cond_inf is an LU (2/3 n^3 flops)
    plus n triangular solve pairs for the explicit inverse (2 n^3)."""
    tr.count("assembly.unknowns", n)
    tr.count("assembly.matrix_entries", n * n)
    tr.count("solve_post.cond_inf.gflop", 8.0 / 3.0 * n**3 / 1e9)
    tr.peak("solve_post.cond_inf.inverse_mb", n * n * 8 / 2**20)


def _spanned(tr, name: str, fn):
    def traced(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)
    return traced


@contextmanager
def traced_harness(tr):
    """Within the block, run_example and angle_sweep record a span around
    every layer call they make (and RunConfig.validate around its own
    body); the original functions are restored on exit."""
    saved = {name: getattr(harness, name) for name in _HARNESS_CALLS}
    saved_validate = harness.RunConfig.validate
    wrapped = {name: _spanned(tr, span, saved[name]) for name, span in _HARNESS_CALLS.items()}
    build = wrapped["build_system"]

    def build_and_count(*args, **kwargs):
        system = build(*args, **kwargs)
        _count_matrix(tr, system.matrix.shape[0])
        return system

    wrapped["build_system"] = build_and_count
    try:
        for name, fn in wrapped.items():
            setattr(harness, name, fn)
        harness.RunConfig.validate = _spanned(tr, "harness.validate", saved_validate)
        yield
    finally:
        for name, fn in saved.items():
            setattr(harness, name, fn)
        harness.RunConfig.validate = saved_validate


class _Workload:
    """A pass is the workload's entry-point calls, self.calls(): (label,
    row_start, fn) each, fn returning that call's outputs as a vector."""

    def run(self, tr=None, probe=None):
        """One pass: the outputs of every call concatenated, each call's
        wall time, and what probe() returned just before each call.  tr,
        when given, labels each call's spans."""
        outs, walls, probes = [], [], []
        for label, row_start, fn in self.calls():
            if tr is not None:
                tr.op(label, row_start=row_start)
            if probe is not None:
                probes.append(probe())
            start = time.perf_counter()
            outs.append(fn())
            walls.append(time.perf_counter() - start)
        return np.concatenate(outs), walls, probes

    def run_traced(self, tr):
        with traced_harness(tr):
            return self.run(tr)


def _example_outputs(cfg) -> np.ndarray:
    """(cond, *errors) of every row of run_example(cfg).

    A config that raises before returning its rows counts each of its rows
    as failed, as run_example does for a single row.
    """
    try:
        rows = [(r.cond, r.errors) for r in run_example(cfg)]
    except CornerBieError:
        rows = [(math.nan, [math.nan] * len(cfg.points))] * len(cfg.pairs)
    return np.array([v for cond, errors in rows for v in (cond, *errors)], float)


class _ExampleRuns(_Workload):
    """A workload made of one run_example call per config in self.configs."""

    def calls(self):
        return [(cfg.domain, "assembly.build_system", partial(_example_outputs, cfg))
                for cfg in self.configs]


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Tables(_ExampleRuns):
    """The four reference tables: 20 rows, (8, 32) to (128, 512), 4 points each."""

    name = "tables"

    def __init__(self, seed: int, reference: dict):
        self.configs = [example_config(name) for name in TABLE_NAMES]
        self.reference = reference["tables"]

    def check(self, out: np.ndarray, tally: Tally) -> None:
        width = 1 + len(self.configs[0].points)
        got = out.reshape(-1, width)
        want = [(name, ref) for name in TABLE_NAMES for ref in self.reference[name]]
        for row, (name, ref) in zip(got, want, strict=True):
            ok = (_cond_close(row[0], ref["cond"])
                  and bool(np.all(np.abs(row[1:] - ref["errors"]) <= ERROR_ATOL)))
            tally.record(ok, f"tables {name} ({ref['mu']}, {ref['nu']})")

    def report(self) -> dict:
        return {}


class AngleSweep(_Workload):
    """cond at (64, 256) over 60 corner angles, zero right-hand side."""

    name = "angle_sweep"

    def __init__(self, seed: int, reference: dict):
        self.phis = sweep_angles()
        self.reference = reference["angle_sweep"]

    def calls(self):
        def sweep(family, phis):
            return np.array([pt.cond for pt in angle_sweep(family, phis, *SWEEP_PAIR)], float)

        return [(family, "geometry.boundary", partial(sweep, family, phis))
                for family, phis in self.phis.items()]

    def check(self, out: np.ndarray, tally: Tally) -> None:
        want = [(family, ref) for family in self.phis for ref in self.reference[family]]
        for cond, (family, ref) in zip(out, want, strict=True):
            tally.record(_cond_close(cond, ref["cond"]),
                         f"angle_sweep {family} phi={ref['phi']!r}")

    def report(self) -> dict:
        return {}


class FieldMap(_ExampleRuns):
    """One (128, 512) solve per domain, then ~800 seeded exterior points each."""

    name = "field_map"

    def __init__(self, seed: int, reference: dict):
        self.configs = []
        self.distances = []
        for k, name in enumerate(FIELD_DOMAINS):
            cfg = example_config(name, pairs=(FIELD_PAIR,))
            rng = np.random.default_rng([seed, k])
            pts, dists = exterior_points(cfg.build_boundary(), FIELD_POINTS, rng)
            points = tuple((float(x), float(y)) for x, y in pts)
            self.configs.append(example_config(name, pairs=(FIELD_PAIR,), points=points))
            self.distances.append(dists)
        self.ref_cond = [
            next(r["cond"] for r in reference["tables"][name]
                 if (r["mu"], r["nu"]) == FIELD_PAIR)
            for name in FIELD_DOMAINS
        ]
        self.misses = None

    def check(self, out: np.ndarray, tally: Tally) -> None:
        lo = 0
        misses = []
        for name, cfg, dists, ref in zip(FIELD_DOMAINS, self.configs, self.distances,
                                         self.ref_cond):
            cond, errors = out[lo], out[lo + 1:lo + 1 + len(cfg.points)]
            lo += 1 + len(cfg.points)
            row_ok = _cond_close(cond, ref)
            for (x, y), err, dist in zip(cfg.points, errors, dists):
                ok = row_ok and err <= FIELD_TOL
                tally.record(ok, f"field_map {name} ({x!r}, {y!r})",
                             known_defect=row_ok and dist < NEAR_BOUNDARY,
                             detail=f" at distance {dist:.3g}: error {err:.3g}")
                misses.append(not ok)
        self.misses = np.array(misses)

    def report(self) -> dict:
        dists = np.concatenate(self.distances)
        out = {"points": int(len(dists)), "distance_decade_share": decade_shares(dists)}
        if self.misses is not None:
            dec = _decade(dists)
            out["miss_share_by_decade"] = {
                f"1e{k}": float(self.misses[dec == k].mean()) if np.any(dec == k) else 0.0
                for k in DECADES
            }
        return out


WORKLOADS = {w.name: w for w in (Tables, AngleSweep, FieldMap)}
