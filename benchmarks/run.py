#!/usr/bin/env python3
"""formalchain benchmark: one workload per invocation, from the repository root.

    python3 benchmarks/run.py --workload sample_mixed --seed 1 --seconds 40 --trace 0

Workloads are ``sample_mixed``, ``twofield`` and ``positivity``;
BENCHMARK.json records why each is here.  Every pass calls the
public ``formalchain.cli.main`` in-process and its output is checked; a pass
that exits nonzero, raises or fails its check counts as failed.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median, over fresh processes started between the passes, of
  the time from process start to the first workload call (imports, generated
  configs, inputs);
* ``wall_s``: median time of one pass; positivity draws new inputs for
  each pass, sample_mixed and twofield repeat fixed ones;
* ``peak_rss_mb``: peak resident memory of this process, which runs only the
  one workload.

``--trace 1`` runs untraced and traced passes in pairs on the same inputs and
reports the per-layer metrics of BENCHMARK.json per traced pass, plus
``trace_overhead`` (median traced/untraced time of a pair) and ``fail_frac``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the run
environment, the sample counts and quartiles, and the sha256 of every pass's
stdout and trace.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
TRACE_PAIRS = 4
SETUP_SAMPLES = 8


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads(limit: int) -> Dict[str, str]:
    """Cap BLAS/OpenMP thread pools at ``limit``; must run before numpy loads."""
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 1 <= int(current) <= limit):
            os.environ[var] = str(limit)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


@contextlib.contextmanager
def work_dir() -> Iterator[None]:
    """A fresh directory inside the checkout, current while the workload runs."""
    previous = os.getcwd()
    with tempfile.TemporaryDirectory(prefix=".bench-work-", dir=ROOT) as path:
        os.chdir(path)
        try:
            yield
        finally:
            os.chdir(previous)


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh process that stops at its first workload call.

    Both ends read CLOCK_MONOTONIC, which is system-wide on Linux.
    """
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1]) - start


def summary(values: List[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": q[1], "q1": q[0], "q3": q[2], "samples": len(values)}


def pass_record(index: int, r) -> dict:
    return {"index": index, "seconds": r.seconds, "stdout_sha256": r.stdout_sha256,
            "trace_sha256": r.trace_sha256, "problems": r.problems}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first workload call and print the clock")
    args = parser.parse_args(argv)

    if not (SRC / "formalchain" / "__init__.py").is_file():
        print(f"error: no formalchain sources under {SRC}", file=sys.stderr)
        return 2
    threads = cap_threads(nproc())
    sys.path.insert(0, str(SRC))
    import numpy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        with work_dir():
            workload.write_inputs()
            workload.calls(args.seed, 0)
            print(time.monotonic(), flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "nproc": nproc(), "git_sha": git_sha(), "threads": threads,
                "machine": platform.machine()},
    }
    values: Dict[str, float] = {}
    stats: Dict[str, dict] = {}
    records = []
    start = time.perf_counter()

    if args.trace == 0:
        # set-up samples are spread over the run, so that a slow spell of
        # the shared host does not catch all of them
        setup, results = [], []
        with work_dir():
            workload.write_inputs()
            while True:
                elapsed = time.perf_counter() - start
                if len(setup) < min(SETUP_SAMPLES, 1 + SETUP_SAMPLES * elapsed / args.seconds):
                    setup.append(setup_seconds(args.workload, args.seed))
                results.append(workloads.run_pass(workload, args.seed, len(results)))
                elapsed = time.perf_counter() - start
                typical = statistics.median(r.seconds for r in results)
                if len(results) >= MIN_PASSES and elapsed + typical > args.seconds:
                    break
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_seconds(args.workload, args.seed))
        records = [pass_record(i, r) for i, r in enumerate(results)]
        stats["setup_s"] = summary(setup)
        stats["wall_s"] = summary([r.seconds for r in results])
        values["setup_s"] = stats["setup_s"]["median"]
        values["wall_s"] = stats["wall_s"]["median"]
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        tracer = tracing.Tracer()
        results, ratios, trace_bytes = [], [], 0
        with work_dir():
            workload.write_inputs()
            for i in range(TRACE_PAIRS):
                # alternate which side of a pair runs first
                if i % 2:
                    with tracing.traced(tracer):
                        spanned = workloads.run_pass(workload, args.seed, i)
                    plain = workloads.run_pass(workload, args.seed, i)
                else:
                    plain = workloads.run_pass(workload, args.seed, i)
                    with tracing.traced(tracer):
                        spanned = workloads.run_pass(workload, args.seed, i)
                if (spanned.stdout_sha256, spanned.trace_sha256) != (plain.stdout_sha256, plain.trace_sha256):
                    spanned.problems.append("traced output differs from the untraced pass")
                results += [plain, spanned]
                ratios.append(spanned.seconds / plain.seconds)
                trace_bytes += spanned.trace_bytes
                records += [pass_record(i, plain), {**pass_record(i, spanned), "traced": True}]
                if time.perf_counter() - start > args.seconds:
                    break
        names = [m["name"] for m in spec["per_layer"]]
        values.update(tracing.layer_values(tracer, names, len(ratios), trace_bytes))
        stats["trace_overhead"] = summary(ratios)
        values["trace_overhead"] = stats["trace_overhead"]["median"]
        detail["spans"] = len(tracer.spans)

    failed = sum(1 for r in results if r.problems)
    values["fail_frac"] = failed / len(results)
    detail.update(stats=stats, passes=records)
    for name in names:
        print(f"{name} = {values[name]!r} {units[name]}")
    if "fail_frac" not in names:
        print(f"fail_frac = {values['fail_frac']!r} ratio ({failed} of {len(results)} passes)")
    for r in results:
        for problem in r.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
