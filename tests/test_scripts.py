import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_desk_demo_runs_end_to_end(tmp_path):
    # the demo scripts import package internals, so run them as a user would
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "desk_demo.py"), "--workdir", str(tmp_path),
         "--steps", "2"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    mean_rows = [line.split() for line in run.stdout.splitlines() if line.startswith("mean ")]
    assert len(mean_rows) == 1 and len(mean_rows[0]) == 3, run.stdout
    assert len(list((tmp_path / "enhanced").iterdir())) == 8
