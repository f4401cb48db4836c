"""Benchmark of the `pherm` batch commands, end to end and layer by layer.

    python3 perfbench/run.py --workload table|model|verify --seed N --seconds S --trace 0|1

Run from the root of a pherm checkout; the program is imported from its
`src` directory.  Each measurement is one `pherm` command, run through
`pherm.cli.main(argv)` in a fresh child process (`child.py`), one child at
a time, with BLAS pinned to one thread.  Children are started until the
next one would end after S seconds; every report is checked
(`workloads.check_document`) and must be byte-identical to the first.

With --trace 0 the metrics are solve_s (wall seconds of `main`), setup_s
(spawn until `import pherm.cli` returns) and peak_rss_mib, each the median
over the children that completed, and ops_passed_frac (checked ops passed /
attempted).  A child that crashes or times out gives no sample and
fails all its ops.
With --trace 1 untraced and traced children alternate, and the metrics are
the per-layer medians of the traced children (`tracer.Tracer`) and the
tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give the environment
and every sample.  A checkout without `src/pherm`, or a metric list that
disagrees with BENCHMARK.json, exits 2 without a result.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Run, check_document, make_run

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
BLAS_THREADS = 1  # <= nproc; with two threads the table workload spreads twice as wide
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONHASHSEED": "0",
}
RUN_LIMIT_S = 170  # a child still running this long after the start is killed and fails
# the longest --seconds: a healthy child started before it still has a
# minute before RUN_LIMIT_S
MAX_SECONDS = RUN_LIMIT_S - 60

END_TO_END = {
    "solve_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "ops_passed_frac": ("frac", "higher"),
}

# function span -> the counters reported for it
LAYER_FUNCTIONS = {
    "numpy.einsum": ("calls", "self_s", "flops", "bytes"),
    "spaces.Curv4": ("calls", "self_s", "tag_checks"),
    "spaces.split_average_grid": ("calls", "self_s"),
    "spaces.random_curv4": ("calls", "self_s", "projections"),
    "algebra.canonical_tensors": ("calls", "self_s", "repeat_frac"),
    "algebra.primitive_part": ("calls", "self_s"),
    "invariants.invariants": ("calls", "self_s"),
    "invariants.sample_curvatures": ("calls", "self_s"),
    "liemodels.build_model": ("calls", "self_s"),
    "liemodels.model_curvature": ("calls", "self_s"),
    "liemodels.kappa": ("calls", "self_s"),
    "liemodels.c0_prime": ("calls", "self_s"),
    "maps.identity_suite": ("calls", "self_s", "trials"),
    "maps.canonical_Q": ("calls", "self_s"),
    "maps.pullback4": ("calls", "self_s"),
    "cli.main": ("self_s",),
    "cli.render_document": ("self_s",),
}
LAYER_MODULES = ("spaces", "algebra", "invariants", "liemodels", "maps", "cli")
COUNTER_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "errors": ("count", "lower"),
    "flops": ("flop", "lower"),
    "bytes": ("B", "lower"),
    "tag_checks": ("count", "lower"),
    "projections": ("count", "lower"),
    "repeat_frac": ("frac", "lower"),
    "trials": ("count", "higher"),
}


def per_layer_metrics() -> dict:
    """name -> (unit, better) of every per-layer metric, in report order."""
    names = [f"{fn}.{c}" for fn, counters in LAYER_FUNCTIONS.items() for c in counters]
    names += [f"{m}.{c}" for m in LAYER_MODULES for c in ("calls", "self_s", "errors")]
    spec = {name: COUNTER_UNITS[name.rsplit(".", 1)[1]] for name in names}
    spec["trace_overhead_frac"] = ("frac", "lower")
    return spec


def declaration_mismatches(declared: dict) -> list[str]:
    """Differences between the metrics this file prints and BENCHMARK.json."""
    problems = []
    for section, spec in (("end_to_end", END_TO_END), ("per_layer", per_layer_metrics())):
        listed = {m["name"]: (m["unit"], m["better"]) for m in declared.get(section, [])}
        for name in sorted(spec.keys() - listed.keys()):
            problems.append(f"{section}: {name} is printed but not declared")
        for name in sorted(listed.keys() - spec.keys()):
            problems.append(f"{section}: {name} is declared but not printed")
        for name in sorted(spec.keys() & listed.keys()):
            if spec[name] != listed[name]:
                problems.append(f"{section}: {name} is {spec[name]} but declared {listed[name]}")
    return problems


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the child's import time is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def solve(run: Run, src: str, trace: bool, timeout: float) -> dict:
    """One child running `run`: its record, with `failed` the ops it failed.

    A child that dies, times out or is never started (`timeout` <= 0) fails
    all its ops and its record holds no times.
    """
    cmd = [sys.executable, CHILD, src, "trace" if trace else "run", json.dumps(run.argv)]
    spawned = now()
    record, stderr = None, "no time left in the run"
    if timeout > 0:
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=dict(os.environ, **PINNED_ENV), timeout=timeout
            )
            record = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            stderr = proc.stderr
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            stderr = str(exc)
    if record is None:
        print(f"child failed: {stderr.strip()[-2000:]}", file=sys.stderr)
        return {"report": None, "failed": run.ops}
    record["setup_s"] = record["imported_at"] - spawned
    record["peak_rss_mib"] = record["peak_rss_kib"] / 1024
    record["failed"] = check_document(run, record["exit_code"], record["report"])
    return record


def measure(run: Run, src: str, seconds: float, trace: bool) -> tuple[list, list]:
    """Closed loop, one child at a time: the untraced and traced child records."""
    untraced, traced = [], []
    start = now()
    deadline = start + seconds
    while True:
        started = now()
        untraced.append(solve(run, src, False, start + RUN_LIMIT_S - now()))
        if trace:
            traced.append(solve(run, src, True, start + RUN_LIMIT_S - now()))
        if now() + (now() - started) > deadline:
            return untraced, traced


def summarise(run: Run, untraced: list, traced: list) -> tuple[dict, dict]:
    """The result line and the per-child samples of a run's child records;
    the per-layer metrics if there are traced children.

    Only children that completed give samples; a failed child counts in
    `attempted` and `failed` alone.  Every report must be byte-identical to
    the first one printed.
    """
    children = untraced + traced
    reference = next((c["report"] for c in children if c["report"] is not None), None)
    for child in children:
        if child["report"] != reference:  # reports are deterministic, traced or not
            child["failed"] = run.ops
    attempted = run.ops * len(children)
    failed = sum(child["failed"] for child in children)

    done = [c for c in untraced if "solve_s" in c]
    samples = {key: [c[key] for c in done] for key in ("solve_s", "setup_s", "peak_rss_mib")}
    if traced:
        samples["traced_solve_s"] = [c["solve_s"] for c in traced if "solve_s" in c]
        layered = [c["layers"] for c in traced if "layers" in c]
        spec = per_layer_metrics()
        values = {
            name: statistics.median(layers.get(name, 0) for layers in layered) if layered else 0
            for name in spec
        }
        values["trace_overhead_frac"] = (
            statistics.median(samples["traced_solve_s"]) / statistics.median(samples["solve_s"]) - 1.0
            if layered and done
            else 0.0
        )
    else:
        spec = END_TO_END
        values = {key: statistics.median(samples[key]) if done else 0.0 for key in samples}
        values["ops_passed_frac"] = 1.0 - failed / attempted
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in spec.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, samples


def environment(root: str, child_env: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "pherm", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "blas_threads_pinned": BLAS_THREADS,
        **child_env,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in (0, {MAX_SECONDS}]")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pherm", "cli.py")):
        print(f"error: no src/pherm/cli.py under {root}; run from a pherm checkout", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            problems = declaration_mismatches(json.load(fh))
    except (OSError, ValueError) as exc:
        problems = [f"cannot read BENCHMARK.json: {exc}"]
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        return 2

    run = make_run(args.workload, args.seed)
    untraced, traced = measure(run, src, args.seconds, bool(args.trace))
    result, samples = summarise(run, untraced, traced)

    env = next((c["environment"] for c in untraced + traced if "environment" in c), {})
    print(json.dumps({"environment": environment(root, env)}))
    print(json.dumps({"workload": args.workload, "argv": run.argv, "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
