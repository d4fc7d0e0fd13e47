#!/usr/bin/env python3
"""End-to-end desk-scale experiment: synthesize pairs, train briefly,
evaluate against the no-op baseline, and enhance the inputs.

Usage:
    python scripts/desk_demo.py --workdir demo_run [--steps 300] [--seed 0]

Expect the trained model to beat the identity baseline by a wide margin on
its own training pairs (this is an overfit demo, not a generalization
claim).
"""

import argparse
import subprocess
import sys
from pathlib import Path

from iat.cli import discover_pairs, evaluate, main as iat_main
from iat.metrics import MetricReport
from iat.model import load_checkpoint


def run(argv) -> None:
    code = iat_main(argv)
    if code != 0:
        raise SystemExit(f"iat {argv[0]} failed with exit code {code}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    work = Path(args.workdir)
    subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("make_demo_dataset.py")),
            "--out", str(work / "data"),
            "--count", "8",
            "--seed", str(args.seed),
        ],
        check=True,
    )
    pairs = work / "data" / "pairs"
    ckpt = work / "model.iatc"
    run(
        [
            "train",
            "--data", str(pairs),
            "--out", str(ckpt),
            "--steps", str(args.steps),
            "--lr0", "5e-3",
            "--crop-size", "64",
            "--seed", str(args.seed),
        ]
    )

    samples = discover_pairs(pairs)
    baseline = MetricReport()
    for s in samples:
        baseline.add(s.name, s.input, s.target)
    trained = evaluate(load_checkpoint(ckpt)[0], samples)
    print()
    print(f"{'pair':<18}{'baseline dB':>12}{'trained dB':>12}")
    for name, b, t in zip(baseline.names, baseline.psnr_values, trained.psnr_values):
        print(f"{name:<18}{b:>12.2f}{t:>12.2f}")
    print(f"{'mean':<18}{baseline.mean_psnr:>12.2f}{trained.mean_psnr:>12.2f}")

    inputs_dir = work / "inputs"
    inputs_dir.mkdir(exist_ok=True)
    for p in sorted(pairs.glob("input_*.png")):
        (inputs_dir / p.name).write_bytes(p.read_bytes())
    run(
        [
            "enhance",
            "--checkpoint", str(ckpt),
            "--input", str(inputs_dir),
            "--output", str(work / "enhanced"),
        ]
    )
    print(f"enhanced images in {work / 'enhanced'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
