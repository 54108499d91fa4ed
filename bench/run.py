"""Run one workload of the cuspgaps benchmark and print its metrics.

    python3 bench/run.py --workload {atlas,stack} --seed N \\
                         --seconds S --trace {0,1}

Run it from the root of a source checkout; the program is imported from
``src``.  Every pass of a workload runs in a fresh interpreter
(bench/child.py), so it starts from cold in-process caches as a
command-line user does, and passes run one after another.

With ``--trace 0`` passes repeat until ``--seconds`` have gone by (at least
one pass), and the end-to-end metrics are medians over the passes.  The
speed the host gives a process drifts by a fifth and more over minutes, so
a fixed reference loop is timed before the first pass and after each one,
and the wall time is given at the reference speed: the median pass time
times REFERENCE_S over the median reference time.  Set-up time is the
median over the passes and a few extra interpreters that stop at the
first operation.  With ``--trace 1`` one untraced and one traced pass
run; the per-layer metrics come from the traced pass, and the difference of
the two wall times is the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Exits
non-zero, without that line, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().with_name("child.py")
WORKLOADS = ("atlas", "stack")  # as in workloads.py; this process never imports cuspgaps
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0  # a pass still running past this is killed
# median time of reference_loop() on the 2-core VM where the baseline was
# set; at that speed the reported wall time is the measured one
REFERENCE_S = 1.05


class BenchError(Exception):
    """The benchmark itself could not run."""


def run_child(options: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *options],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - spawn),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass ({' '.join(options)}) ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"a pass ({' '.join(options)}) exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # the child's clock is the same CLOCK_MONOTONIC, so this spans the
    # interpreter start, the imports and the cold-state check
    result["setup_s"] = result["first_op"] - spawn
    return result


def reference_loop() -> float:
    """Seconds taken by a fixed loop of rational and dictionary arithmetic,
    the kind of pure-Python work cuspgaps does.  The work never changes, so
    the time tracks the speed the host gives this process just now.  The
    table stays small: a child started by this process reports the larger
    of its own peak memory and this one's."""
    start = time.perf_counter()
    total, table = Fraction(0), {}
    for i in range(1, 240_000):
        total += Fraction(1, i % 997 + 1)
        table[i % 1024, i % 17] = i * i % 101
    return time.perf_counter() - start


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def tally(passes: list[dict]) -> tuple[int, int]:
    ops = [op for p in passes for op in p["ops"]]
    return len(ops), sum(1 for op in ops if not op["ok"])


def untraced_run(base: list[str], seconds: float, deadline: float) -> tuple[dict, list[dict], dict]:
    passes = []
    references = [reference_loop()]
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_child(base, deadline))
        references.append(reference_loop())
    probes = [run_child(base + ["--probe"], deadline) for _ in range(SETUP_PROBES)]
    measured = statistics.median(p["wall_s"] for p in passes)
    reference = statistics.median(references)
    wall = measured * REFERENCE_S / reference
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes + probes), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_kib"] / 1024 for p in passes), "MiB"),
        "triples_per_s": (statistics.median(p["triples"] for p in passes) / wall if wall else 0.0, "1/s"),
    }
    host = {"measured_wall_s": measured, "reference_loop_s": reference}
    return metrics, passes, host


def traced_run(base: list[str], spans: Path, deadline: float) -> tuple[dict, list[dict], int]:
    untraced = run_child(base, deadline)
    traced = run_child(base + ["--trace", "--spans", str(spans)], deadline)
    # the wrappers must not change a result
    plain = {op["name"]: op.get("digest") for op in untraced["ops"]}
    mismatched = sum(
        1 for op in traced["ops"]
        if op["ok"] and plain.get(op["name"]) is not None and op["digest"] != plain[op["name"]]
    )

    metrics = {name: (value, unit) for name, (value, unit) in traced["layers"].items()}
    metrics.update({
        "gaps.checks.passed": (traced["checks_passed"], "count"),
        "gaps.checks.total": (traced["checks_total"], "count"),
        "tracing.wall_s": (traced["wall_s"], "s"),
        "tracing.untraced_wall_s": (untraced["wall_s"], "s"),
        "tracing.overhead_s": (traced["wall_s"] - untraced["wall_s"], "s"),
        "tracing.attributed_s": (traced["attributed_s"], "s"),
        "tracing.unattributed_s": (traced["wall_s"] - traced["attributed_s"], "s"),
    })
    return metrics, [untraced, traced], mismatched


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cuspgaps" / "__init__.py").is_file():
        print(f"error: no cuspgaps sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            metrics, passes, mismatched = traced_run(base, spans, deadline)
            host = {}
        else:
            metrics, passes, host = untraced_run(base, args.seconds, deadline)
            mismatched = 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = tally(passes)
    failed += mismatched
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "commit": git_commit(),
        "python": passes[0]["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "cuspgaps_version": passes[0]["version"],
        "lru_caches_checked_cold": passes[0]["caches_checked"],
        **host,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for p in passes:
        for op in p["ops"]:
            if not op["ok"]:
                print(f"FAILED {op['name']}: {op['error']}")
    if mismatched:
        print(f"FAILED {mismatched} operations gave different digests traced and untraced")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6f} {unit}")
    print(f"{'failed_ratio':48s} {failed / attempted:>16.6f} ({failed} of {attempted} operations)")
    if args.trace:
        print(f"spans written to {spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
