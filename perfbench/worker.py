"""One benchmark run, in a process whose BLAS and OpenMP use one thread.

Started by run.py. It refuses to run unless every thread variable is pinned
to 1 before numpy is imported, because numpy's BLAS reads them only then.
"""

import json
import os
import platform
import sys
from pathlib import Path

from run import PINNED, ROOT, parser


def environment_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    cpu = {}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            cpu.setdefault(key.strip(), value.strip())
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in PINNED},
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("model name", "unknown"),
        "llc": cpu.get("cache size", "unknown"),
    }


def main() -> int:
    ap = parser()
    ap.add_argument("--work", required=True, type=Path)
    args = ap.parse_args()
    unpinned = [var for var in PINNED if os.environ.get(var) != "1"]
    if unpinned or "numpy" in sys.modules:
        print(f"error: refusing to run, thread variables not pinned to 1: {unpinned}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import tracing
    import workloads as W

    W.pin_quietest_cpu()
    print(json.dumps({"env": environment_record()}), flush=True)
    bench = W.make_bench(args.workload, gen.run_order(args.workload, args.seed), args.work)
    try:
        golden = W.load_golden(bench)
        if args.trace:
            setup_tracer, tracer = tracing.Tracer(), tracing.Tracer()
            with setup_tracer.installed():
                W.setup_block(bench)
            plain, traced, wall = W.closed_loop(bench, args.seconds, tracer)
            ops = plain + traced
        else:
            ops, wall, setups = W.closed_loop(bench, args.seconds)
        setup_problems = bench.setup_problems()
        attempted, failed = W.check_all(bench, ops, golden)
        if args.trace:
            metrics = W.per_layer_metrics(bench, plain, traced, tracer.spans, setup_tracer.spans)
        else:
            metrics = W.end_to_end_metrics(bench, ops, wall, setups)
    except (W.BenchError, tracing.TraceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for problem in setup_problems:
        print(f"# FAILED setup: {problem}", file=sys.stderr)
    unit = "steps" if bench.kind == "train" else "images"
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} {unit} in {wall:.1f}s, "
        f"ops_failed_ratio={failed}/{attempted}",
        flush=True,
    )
    result = {
        "correct": failed == 0 and not setup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
