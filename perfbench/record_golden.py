"""Record the golden references in golden/ from the program as it is now.

    python3 perfbench/record_golden.py [WORKLOAD ...]

The committed goldens were recorded from the seed code, which the tier-1
tests validate. Every benchmark run checks its outputs against them, so
record again only when the program's outputs are meant to change, and say
so where the change is described. Each pool member is run once, through the
same operation the benchmark times, and must pass the checks that need no
golden (finite, decoded input exact, visibly changed, mostly unclipped).
"""

import contextlib
import os
import shutil
import sys

from run import PINNED, ROOT, WORKLOADS


def record(workload: str, work) -> None:
    import numpy as np

    import gen
    import workloads as W

    order = list(range(gen.POOLS[workload]))
    bench = W.make_bench(workload, order, work)
    bench.setup_once()
    entries = {"input_sha256": np.array([bench.input_hash(i) for i in order])}
    losses, psnr = [], []
    for k, i in enumerate(order):
        op = bench.run_op(k, i, contextlib.nullcontext)
        bench.check(op, None)
        if op.problems:
            raise SystemExit(f"{workload} pool member {i}: {op.problems}")
        if bench.kind == "enhance":
            entries.update(bench.golden_entry(op))
        else:
            losses.append(op.losses)
            psnr.append(op.psnr)
        print(f"{workload} pool member {i}: {op.seconds:.2f}s", flush=True)
    if bench.kind == "train":
        entries["losses"] = np.array(losses, dtype=np.float64)
        entries["psnr"] = np.array(psnr, dtype=np.float64)
    W.GOLDEN_DIR.mkdir(exist_ok=True)
    np.savez_compressed(W.GOLDEN_DIR / f"{workload}.npz", **entries)


def main() -> int:
    for var in PINNED:  # before numpy is imported
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    names = sys.argv[1:] or list(WORKLOADS)
    unknown = set(names) - set(WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in names:
            record(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
