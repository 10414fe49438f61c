"""Run one cornerbie benchmark workload and print its metrics.

    python3 bench/run.py --workload tables --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; cornerbie is imported from its `src/`.
With --trace 0 the workload's operations are timed through the package's
entry points for --seconds seconds, and the end-to-end metrics of
BENCHMARK.json are reported: the time of one pass and the median of
several set-up timings spread over the run, both scaled to the host's
nominal speed by the calibration kernel (see calibration.py), and the
process's peak RSS.  The pass time is the sum over the pass's
entry-point calls of each call's median scaled time.  Attempted and
failed count each distinct operation once.  With --trace 1 traced passes
(spans around each layer call, see workloads.py) alternate with untraced
ones, the traced outputs must equal the untraced ones bit for bit, and
the per-layer metrics are reported as medians over the traced passes.
Every pass's outputs are checked; see workloads.py for the checks.

Human-readable lines (the run environment, fail_frac with its base, the
field-map distance shares, the tracing overhead) come first.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full record, including every span of a traced
run, is written to bench/out/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import setup_probe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
SETUP_CHILDREN = 7
MIN_PASSES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def child_setup_s() -> float:
    """Set-up time of a fresh interpreter."""
    done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    """HEAD of the checkout; None outside a git work tree or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        # set before numpy was imported; threadpoolctl is not available to read them back
        "thread_env": {var: os.environ[var] for var in setup_probe.THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def run_untraced(workload, seconds: float, tally):
    """Passes for `seconds`, with SETUP_CHILDREN fresh-interpreter set-up
    probes between them, spread evenly over the run so that one slow
    stretch of the host does not catch them all.  The calibration kernel
    runs before every timed call and around every probe.

    Returns each pass as (call wall times, kernel times) and each probe as
    (set-up time, kernel times)."""
    import calibration

    passes, setups = [], []
    start = time.perf_counter()

    def probes_due():
        elapsed = time.perf_counter() - start
        return min(SETUP_CHILDREN, 1 + int(elapsed / seconds * SETUP_CHILDREN))

    def probe():
        before = calibration.kernel_s()
        setup = child_setup_s()
        return setup, [before, calibration.kernel_s()]

    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        out, walls, kernels = workload.run(probe=calibration.kernel_s)
        workload.check(out, tally)
        passes.append((walls, kernels))
        while len(setups) < probes_due():
            setups.append(probe())
    while len(setups) < SETUP_CHILDREN:
        setups.append(probe())
    return passes, setups


def scaled(seconds: float, kernel_s: float) -> float:
    """seconds taken while the kernel took kernel_s, at nominal host speed."""
    import calibration

    return seconds * calibration.NOMINAL_S / kernel_s


def run_traced(workload, seconds: float, tally):
    """Traced passes alternating with untraced ones; outputs must agree exactly."""
    import numpy as np

    from tracing import Tracer, layer_metrics

    walls, traced_walls, per_pass, spans = [], [], [], []
    start = time.perf_counter()
    while len(traced_walls) < MIN_PASSES or time.perf_counter() - start < seconds:
        wall, (out, _, _) = timed(workload.run)
        workload.check(out, tally)
        walls.append(wall)
        tr = Tracer()
        traced_wall, (traced_out, _, _) = timed(workload.run_traced, tr)
        workload.check(traced_out, tally)
        if not np.array_equal(out, traced_out, equal_nan=True):
            tally.problems.append(f"traced pass {len(traced_walls)} differs from untraced")
        traced_walls.append(traced_wall)
        per_pass.append(layer_metrics(tr, traced_wall))
        spans.append(tr.spans)
    # counts repeat exactly from pass to pass; median_low keeps them whole
    metrics = {key: (statistics.median_low if isinstance(value, int) else statistics.median)(
        [m[key] for m in per_pass]) for key, value in per_pass[0].items()}
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    # paired with the untraced pass just before it, so slow drift in machine
    # speed cancels
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced_walls, walls))
    return metrics, walls, traced_walls, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_probe.pin_threads_and_path()
    parent_setup = setup_probe.import_and_warm_up()

    from tracing import TIMED_SPANS
    from workloads import WORKLOADS, Tally, load_reference

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload](args.seed, load_reference())
    tally = Tally()
    record = {"environment": environment(args)}

    if args.trace:
        metrics, walls, traced_walls, spans = run_traced(workload, args.seconds, tally)
        record.update(untraced_walls=walls, traced_walls=traced_walls,
                      span_fields=["name", "start", "end", "parent", "op"], spans=spans)
        wanted = spec["per_layer"]
    else:
        passes, setups = run_untraced(workload, args.seconds, tally)
        walls = [sum(call_walls) for call_walls, _ in passes]
        scaled_calls = [[scaled(wall, kernel) for wall, kernel in zip(call_walls, kernels)]
                        for call_walls, kernels in passes]
        metrics = {
            # each call's median over the passes, so that a slow stretch
            # in one call does not carry into the others
            "scaled_wall_s": sum(statistics.median(per_call)
                                 for per_call in zip(*scaled_calls)),
            "setup_s": statistics.median(scaled(setup, statistics.fmean(kernels))
                                         for setup, kernels in setups),
            "peak_rss_mb": peak_rss_mib(),
        }
        record.update(walls=walls, passes=passes, parent_setup_s=parent_setup,
                      setup_probes=setups)
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    record.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems,
                  workload_report=workload.report(), metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh)

    print("environment:", json.dumps(record["environment"]))
    print(f"passes: {len(walls)} untraced" + (f", {len(record['traced_walls'])} traced"
                                              if args.trace else ""))
    print(f"fail_frac: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    for key, value in record["workload_report"].items():
        print(f"{key}: {json.dumps(value)}")
    if args.trace:
        parts = [f"{name}.s" for name in TIMED_SPANS] + ["assembly.build_system.self_s",
                                                         "harness.self_s"]
        print("share of the traced pass: " + ", ".join(
            f"{key} {metrics[key] / metrics['trace.wall_s']:.1%}" for key in parts))
        print(f"tracing overhead: {metrics['trace.overhead_s']:.4f} s per pass "
              f"(traced {metrics['trace.wall_s']:.4f} s)")
    for problem in tally.problems[:20]:
        print("problem:", problem)
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
