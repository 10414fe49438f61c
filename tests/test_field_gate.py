"""Tight regression gate on the computed field values of the four tables.

The reference tables and goldens check errors to a factor of 10 and
condition numbers to a factor of 3, which cannot see a refactor that
changes results.  This gate freezes the full-precision u_mN at every
evaluation point, and cond, for all 20 table rows, and compares them at
rtol 1e-10.  Values get an absolute floor of 1e-14 because the triangle's
first point has exact u = 0, where u_mN is pure discretization error
(about 3e-13).  The 60 angle_sweep conds of the benchmark are held to
the frozen bench/reference.json at rtol 1e-12, which the benchmark itself
checks only at 1e-8.  Run as a script to regenerate the frozen file:

    PYTHONPATH=src python tests/test_field_gate.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cornerbie.harness import angle_sweep

FROZEN_PATH = Path(__file__).parent / "goldens" / "field_values.json"
BENCH_REFERENCE_PATH = Path(__file__).parents[1] / "bench" / "reference.json"
EXAMPLES = ("heart", "teardrop", "boomerang", "triangle")
VALUE_RTOL, VALUE_ATOL = 1e-10, 1e-14
COND_RTOL = 1e-10
SWEEP_COND_RTOL = 1e-12
SWEEP_PAIR = (64, 256)


def _frozen_rows(rows):
    return [dict(mu=r.mu, nu=r.nu, values=r.values, cond=r.cond) for r in rows]


@pytest.mark.parametrize("name", EXAMPLES)
def test_field_values_match_frozen(name, example_tables):
    frozen = json.loads(FROZEN_PATH.read_text())[name]
    rows = example_tables[name]
    assert [(r.mu, r.nu) for r in rows] == [(f["mu"], f["nu"]) for f in frozen]
    for row, ref in zip(rows, frozen):
        assert not row.failed, row.error_message
        np.testing.assert_allclose(row.values, ref["values"], rtol=VALUE_RTOL,
                                   atol=VALUE_ATOL, err_msg=f"{name} {row.mu},{row.nu}")
        np.testing.assert_allclose(row.cond, ref["cond"], rtol=COND_RTOL, atol=0.0,
                                   err_msg=f"{name} {row.mu},{row.nu}")


@pytest.mark.parametrize("family", ["heart", "teardrop", "boomerang"])
def test_sweep_conds_match_bench_reference(family):
    reference = json.loads(BENCH_REFERENCE_PATH.read_text())["angle_sweep"][family]
    points = angle_sweep(family, [ref["phi"] for ref in reference], *SWEEP_PAIR)
    assert all(p.error_message is None for p in points), points
    np.testing.assert_allclose([p.cond for p in points], [ref["cond"] for ref in reference],
                               rtol=SWEEP_COND_RTOL, atol=0.0, err_msg=family)


if __name__ == "__main__":
    from cornerbie.harness import example_config, run_example

    frozen = {name: _frozen_rows(run_example(example_config(name))) for name in EXAMPLES}
    FROZEN_PATH.write_text(json.dumps(frozen, indent=1) + "\n")
    print(f"wrote {FROZEN_PATH}")
