"""Regenerate bench/reference.json from the current cornerbie sources.

The benchmark checks every table row and sweep angle against these
values, so run this only on a commit whose numerical output is trusted,
and commit the result with the reason it changed:

    python3 bench/freeze_reference.py
"""

import json

import setup_probe


def main() -> None:
    setup_probe.pin_threads_and_path()
    from cornerbie import angle_sweep, example_config, run_example
    from workloads import REFERENCE_PATH, SWEEP_PAIR, TABLE_NAMES, sweep_angles

    tables = {}
    for name in TABLE_NAMES:
        rows = run_example(example_config(name))
        if any(r.failed for r in rows):
            raise SystemExit(f"{name}: a row failed; not freezing")
        tables[name] = [dict(mu=r.mu, nu=r.nu, cond=r.cond, errors=r.errors) for r in rows]
    sweeps = {}
    for family, phis in sweep_angles().items():
        points = angle_sweep(family, phis, *SWEEP_PAIR)
        if any(p.error_message for p in points):
            raise SystemExit(f"{family}: an angle failed; not freezing")
        sweeps[family] = [dict(phi=p.phi, cond=p.cond) for p in points]
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"tables": tables, "angle_sweep": sweeps}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
