"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/child.py --workload NAME --seed N [--trace] [--probe]
                           [--only OP ...] [--spans PATH]

cuspgaps is imported first, so the time from interpreter start to the first
operation is the set-up a command-line user pays.  Before the first
operation every lru_cache in cuspgaps must be empty.  With --probe the pass
stops there.  Prints one JSON object on standard output.
"""

import time  # noqa: I001  (cuspgaps is imported first on purpose)

import cuspgaps

import argparse
import json
import platform
import resource
import sys
import tempfile
from pathlib import Path

ERROR_CHARS = 400  # a gate message may quote whole bases


def lru_caches():
    """(qualified name, cache) for every functools lru_cache in cuspgaps,
    among them qexpansion_basis, build_presentation, p1_space,
    _cuspidal_solver and build_operator_stack."""
    for modname, module in sorted(sys.modules.items()):
        if modname == "cuspgaps" or modname.startswith("cuspgaps."):
            for attr, obj in vars(module).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == modname:
                    yield f"{modname}.{attr}", obj


def assert_cold() -> int:
    warm = [name for name, fn in lru_caches() if fn.cache_info().currsize]
    if warm:
        raise RuntimeError(f"in-process caches are not empty before the first operation: {warm}")
    return sum(1 for _ in lru_caches())


def run_pass(args, tracer=None) -> dict:
    from workloads import GateError, Workload

    root = Path(__file__).resolve().parent.parent
    scratch_parent = root / ".bench_tmp"
    scratch_parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_parent) as scratch:
        workload = Workload(args.workload, args.seed, Path(scratch))
        ops = workload.operations()
        if args.only:
            ops = [op for op in ops if op[0] in args.only]
        caches = assert_cold()
        first = time.perf_counter()
        if args.probe:
            ops = []
        results = []
        wall = 0.0
        for name, run, check in ops:
            if tracer is not None:
                tracer.op = name
            entry = {"name": name, "ok": False}
            start = time.perf_counter()
            try:
                output = run()
            except Exception as exc:  # a failed operation is counted, not fatal
                entry["error"] = f"{type(exc).__name__}: {exc}"[:ERROR_CHARS]
            else:
                seconds = time.perf_counter() - start
                wall += seconds
                entry["seconds"] = seconds
                try:
                    entry["digest"] = check(output)
                    entry["ok"] = True
                except GateError as exc:
                    entry["error"] = f"gate: {exc}"[:ERROR_CHARS]
                except Exception as exc:
                    entry["error"] = f"check {type(exc).__name__}: {exc}"[:ERROR_CHARS]
            results.append(entry)
    return {
        "first_op": first,
        "wall_s": wall,
        "ops": results,
        "triples": workload.triples,
        "checks_passed": workload.checks_passed,
        "checks_total": workload.checks_total,
        "caches_checked": caches,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true", help="stop at the first operation")
    parser.add_argument("--only", nargs="*", help="run only the named operations")
    parser.add_argument("--spans", help="write the spans of a traced pass here")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    result = run_pass(args, tracer)
    result.update(version=cuspgaps.__version__, python=platform.python_version())
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.unpatch()
        result["layers"] = layers.metrics(tracer)
        result["attributed_s"] = sum(tracer.layer_self(layer) for layer in layers.LAYERS)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
