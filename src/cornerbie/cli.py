"""Command line driver: solve, table, angle-sweep."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, CornerBieError, GeometryError, ParameterError
from .harness import (
    EXAMPLE_NAMES,
    RunConfig,
    angle_sweep,
    example_config,
    make_exact_solution,
    run_example,
    write_sweep_csv,
    write_table_csv,
)

__all__ = ["main"]


def _parse_phi(text: str) -> float:
    """Angles accept plain floats or multiples of pi like '5pi/3' or '1.5pi'."""
    t = text.strip().lower().replace(" ", "")
    head, pi, tail = t.partition("pi")
    try:
        if not pi:
            return float(t)
        value = float(head + "1" if head in ("", "+", "-") else head) * math.pi
        if not tail:
            return value
        if tail.startswith("/"):
            return value / float(tail[1:])
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"cannot parse angle {text!r}")


def _load_points(path: str):
    """Evaluation points from a JSON list of pairs or from 'x y' lines; the
    rows are kept whole, and RunConfig.validate checks that each is a pair
    of numbers."""
    with open(path) as fh:
        text = fh.read()
    try:
        try:
            return tuple(map(tuple, json.loads(text)))
        except json.JSONDecodeError:
            return tuple(tuple(map(float, line.split())) for line in text.splitlines()
                         if line.strip() and not line.lstrip().startswith("#"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed evaluation points in {path}: {exc}") from None


def _config_from_json(path: str) -> RunConfig:
    """A RunConfig from a JSON object of its fields; a built-in domain
    without vertices starts from its example configuration.  Pairs, points
    and vertices stay JSON lists: RunConfig.validate checks each row."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config JSON must be an object")
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ConfigError(f"unknown config JSON fields: {unknown}")
    if raw.get("domain") is None:
        raise ConfigError("config JSON needs a 'domain' field")
    if "solution" in raw:
        sol = raw["solution"]
        if not (isinstance(sol, dict) and isinstance(sol.get("name"), str)):
            raise ConfigError("config field 'solution' must be an object with a string 'name'")
        raw["solution"] = make_exact_solution(**sol)
    if raw["domain"] in EXAMPLE_NAMES and not raw.get("vertices"):
        return example_config(raw.pop("domain"), **raw)
    raw.setdefault("phi", None)  # polygons have no angle parameter
    missing = [f.name for f in fields(RunConfig) if f.name not in raw and f.default is MISSING]
    if missing:
        raise ConfigError(f"config JSON missing fields: {missing}")
    return RunConfig(**raw)


def _resolve_config(args) -> RunConfig:
    cfg = example_config(args.example) if args.example else _config_from_json(args.config)
    given = (("c", args.c), ("eps", args.epsilon), ("delta", args.delta),
             ("M", args.rhs_M), ("N", args.outer_N))
    overrides = {key: value for key, value in given if value is not None}
    if args.phi is not None:
        overrides["phi"] = _parse_phi(args.phi)
    if args.points is not None:
        overrides["points"] = _load_points(args.points)
    if (args.mu is None) != (args.nu is None):
        raise ConfigError("--mu and --nu must be given together")
    if args.mu is not None:
        overrides["pairs"] = ((args.mu, args.nu),)
    cfg = replace(cfg, **overrides) if overrides else cfg
    if not cfg.points:
        raise ConfigError("no evaluation points given (--points file or config 'points')")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornerbie",
        description="Exterior Neumann Laplace solver on planar corner domains",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("solve", "run one (mu, nu) discretization and print |u - u_mN| per point"),
        ("table", "run a (mu, nu) sweep and write an error/condition table"),
        ("angle-sweep", "condition number across a corner-angle grid"),
    ):
        # each subcommand registers only the flags it reads, and takes no
        # abbreviation, which would read angle-sweep's --phi as --phi-grid
        sub = subs.add_parser(name, help=desc, description=desc, allow_abbrev=False)
        sweep = name == "angle-sweep"
        # solve and table read exactly one of --example and --config
        source = sub if sweep else sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--example", choices=EXAMPLE_NAMES, required=sweep)
        if sweep:
            sub.add_argument("--phi-grid", required=True,
                             help="comma-separated angle list, e.g. '1.1pi,1.2pi'")
        else:
            source.add_argument("--config", help="JSON run configuration")
        sub.add_argument("--mu", type=int, default=16 if sweep else None)
        sub.add_argument("--nu", type=int, default=64 if sweep else None)
        sub.add_argument("--c", type=float)
        sub.add_argument("--epsilon", type=float)
        sub.add_argument("--delta", type=float)
        sub.add_argument("--out", help="output CSV path")
        if sweep:
            continue
        sub.add_argument("--phi", help="corner angle (e.g. '5pi/3' or 5.235987)")
        sub.add_argument("--rhs-M", dest="rhs_M", type=int)
        sub.add_argument("--outer-N", dest="outer_N", type=int,
                         help="exterior rule order (default nu/2 per row; -1 means nu per row)")
        sub.add_argument("--points", help="file with evaluation points (JSON or 'x y' lines)")
    return parser


def _report(args, results, line, write_csv, label="row (mu={mu}, nu={nu})") -> int:
    """Print each result's line, or its failure on stderr after label, a
    format string of its fields; write the CSV when --out is given; and
    return 3 only when every result failed."""
    for res in results:
        if res.error_message:
            print(f"{label.format(**vars(res))} failed: {res.error_message}", file=sys.stderr)
        else:
            print(line(res))
    if args.out:
        write_csv(results, args.out)
    return 3 if all(res.error_message for res in results) else 0


def _cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    if isinstance(cfg.pairs, (list, tuple)):  # else validate raises the ConfigError
        cfg = replace(cfg, pairs=cfg.pairs[-1:])

    def line(row):
        return "\n".join([f"domain={cfg.domain} mu={row.mu} nu={row.nu} cond={row.cond:.4f}"]
                         + [f"  point ({p[0]:g}, {p[1]:g}): |u - u_mN| = {e:.6e}"
                            for p, e in zip(cfg.points, row.errors)])

    return _report(args, run_example(cfg), line, write_table_csv)


def _cmd_table(args) -> int:
    def line(row):
        cells = " ".join(f"{e:.3e}" for e in row.errors)
        return f"mu={row.mu:4d} nu={row.nu:4d} errors: {cells} cond={row.cond:.4f}"

    return _report(args, run_example(_resolve_config(args)), line, write_table_csv)


def _cmd_angle_sweep(args) -> int:
    phis = [_parse_phi(tok) for tok in args.phi_grid.split(",") if tok.strip()]
    if not phis:
        raise ConfigError(f"no angles found in --phi-grid {args.phi_grid!r}")
    points = angle_sweep(args.example, phis, args.mu, args.nu, c=args.c, eps=args.epsilon,
                         delta=args.delta)
    return _report(args, points, lambda pt: f"phi={pt.phi:.6f} cond={pt.cond:.4f}",
                   write_sweep_csv, label="phi={phi:.6f}:")


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = {"solve": _cmd_solve, "table": _cmd_table, "angle-sweep": _cmd_angle_sweep}
    try:
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return command[args.command](args)
    except (ConfigError, ParameterError, GeometryError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CornerBieError, FloatingPointError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
