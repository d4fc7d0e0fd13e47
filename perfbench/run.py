#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It pins BLAS and OpenMP to one thread,
runs the workload in one worker process (worker.py) and passes the worker's
output through; the last line of standard output is the JSON result. With
--trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of BENCHMARK.json. It exits non-zero without a result when
the program sources are missing, the inputs or goldens do not match, a
traced layer is missing or never called, or the worker overruns.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("enhance_png_paeth_600x400", "train_64_b8")
PINNED = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
TIMEOUT_S = 170  # the worker is killed after this; the harness allows 180
ROOT = Path(__file__).resolve().parent.parent


def parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int, help="length of the timed loop")
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap


def main() -> int:
    args = parser().parse_args()
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be >= 1 and --seed >= 0", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "iat" / "__init__.py").is_file():
        print(f"error: program sources {ROOT / 'src' / 'iat'} not found", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    env = {**os.environ, **{var: "1" for var in PINNED}}
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), *sys.argv[1:], "--work", str(work)]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: worker overran {TIMEOUT_S}s and was killed", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
