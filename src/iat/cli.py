"""Batch command line: enhance, synthesize, train, eval, info.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Every subcommand
that takes --seed is bit-reproducible end to end at a fixed BLAS thread count.
"""

import argparse
import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import (
    CheckpointError,
    ConfigurationError,
    ContractError,
    DecodeError,
    InputError,
    ShapeError,
    TrainingDiverged,
)
from .fileio import atomic_open
from .image_io import image_to_tensor, load_image, save_image, tensor_to_image
from .isp import PROFILES, degrade, sample_degradation
from .metrics import SSIM_WINDOW, MetricReport
from .model import (
    IATConfig,
    count_params,
    estimate_flops_detail,
    iat_forward,
    iat_init,
    load_checkpoint,
    save_checkpoint,
)
from .model_local import local_branch_forward
from .rng import philox
from .training import LOSS_KINDS, Sample, TrainConfig, train_loop, write_metrics_csv

EXIT_OK, EXIT_USAGE, EXIT_RUNTIME = 0, 1, 2

IMAGE_SUFFIXES = (".png", ".ppm")

TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))
# model and training keys share one config file
CONFIG_KEYS = {f.name for cls in (IATConfig, TrainConfig) for f in dataclasses.fields(cls)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with code 1 per the CLI contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _list_images(flag: str, path: str) -> list[Path]:
    path = Path(path)
    if not path.exists():
        raise UsageError(f"{flag} {path} does not exist")
    if path.is_dir():
        return sorted(p for p in path.iterdir() if p.suffix.lower() in IMAGE_SUFFIXES)
    return [path]


def _from_keys(cls, values: dict):
    """`cls` with the fields `values` names; the rest keep their defaults."""
    return cls(**{f.name: values[f.name] for f in dataclasses.fields(cls) if f.name in values})


def _load_configs(args) -> tuple[IATConfig, TrainConfig]:
    """The model and training configs from --config plus the training flags,
    which win. The configs check their own values; a rejected one is a usage
    error.
    """
    values = {}
    if args.config:
        try:
            values = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as e:
            raise UsageError(f"cannot read config {args.config}: {e}") from None
        if not isinstance(values, dict):
            raise UsageError(f"config {args.config} must be a JSON object")
        unknown = values.keys() - CONFIG_KEYS
        if unknown:
            raise UsageError(f"config {args.config} has unknown keys: {sorted(unknown)}")
    values.update({k: getattr(args, k) for k in TRAIN_KEYS if getattr(args, k, None) is not None})
    try:
        return _from_keys(IATConfig, values), _from_keys(TrainConfig, values)
    except ConfigurationError as e:
        raise UsageError(str(e)) from None


def _require_output_path(flag: str, path: str):
    """A path `atomic_open` can write: not a directory, in one that exists."""
    path = Path(path)
    if path.is_dir():
        raise UsageError(f"{flag} {path} is a directory")
    if not path.parent.is_dir():
        raise UsageError(f"{flag} {path}: {path.parent} is not an existing directory")


def _require_at_least(flag: str, value: int, minimum: int):
    if value < minimum:
        raise UsageError(f"{flag} must be >= {minimum}, got {value}")


def _parse_resolution(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise UsageError(f"--resolution must look like 400x600, got {text!r}") from None


# ---------------------------------------------------------------------------
# enhance


def cmd_enhance(args) -> int:
    _require_at_least("--threads", args.threads, 1)
    inputs = _list_images("--input", args.input)
    if not inputs:
        raise UsageError(f"no images found in {args.input}")
    # a directory lists only image files; a single file's output keeps its
    # name, whose suffix picks the encoder
    if inputs[0].suffix.lower() not in IMAGE_SUFFIXES:
        raise UsageError(f"--input {args.input} is not a {' or '.join(IMAGE_SUFFIXES)} file")
    params, _ = load_checkpoint(args.checkpoint)
    out_dir = Path(args.output)
    # outputs keep their input's file name, so this directory would overwrite inputs
    if out_dir.resolve() in {p.parent.resolve() for p in inputs}:
        raise UsageError(f"--output {args.output} is the directory of the inputs")
    out_dir.mkdir(parents=True, exist_ok=True)

    def work(path: Path):
        t0 = time.perf_counter()
        img = load_image(path)
        x = image_to_tensor(img)
        if args.local_only:
            out = local_branch_forward(x, params.local)
        else:
            out, _ = iat_forward(x, params)
        save_image(tensor_to_image(out), out_dir / path.name)
        return time.perf_counter() - t0

    failures = 0
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        futures = {pool.submit(work, p): p for p in inputs}
        for fut, path in futures.items():
            try:
                elapsed = fut.result()
                print(f"{path.name}: {elapsed:.3f}s")
            except (DecodeError, InputError, ShapeError, OSError) as e:
                failures += 1
                print(f"warning: skipping {path}: {e}", file=sys.stderr)
    if failures == len(inputs):
        print("error: every input failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


# ---------------------------------------------------------------------------
# synthesize


def cmd_synthesize(args) -> int:
    _require_at_least("--count", args.count, 1)
    _require_at_least("--seed", args.seed, 0)
    clean_paths = _list_images("--clean", args.clean)
    if not clean_paths:
        raise UsageError(f"no clean images found in {args.clean}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        src = clean_paths[i % len(clean_paths)]
        clean = load_image(src)
        dp = sample_degradation(philox(args.seed, i, 0), args.profile)
        degraded, raw = degrade(clean, dp, philox(args.seed, i, 1))
        stem = f"{i:05d}"
        save_image(degraded, out_dir / f"input_{stem}.png")
        save_image(clean, out_dir / f"target_{stem}.png")
        with atomic_open(out_dir / f"raw_{stem}.npy", "wb") as fh:
            np.save(fh, raw)
        sidecar = {
            "clean": src.name,
            "profile": args.profile,
            "degradation": dp.to_dict(),
        }
        with atomic_open(out_dir / f"params_{stem}.json") as fh:
            fh.write(json.dumps(sidecar, indent=2))
    print(f"wrote {args.count} samples to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# pair discovery and scoring (shared by train and eval)


def discover_pairs(directory, want_raw: bool = False) -> list[Sample]:
    directory = Path(directory)
    inputs = sorted(directory.glob("input_*"))
    # (pair stem, lowercased suffix) -> target; of names that differ only in
    # the suffix's case, the last in sorted order (the lowercase one) wins
    targets = {
        (p.stem[len("target_") :], p.suffix.lower()): p
        for p in sorted(directory.glob("target_*"))
    }
    samples = []
    for inp in inputs:
        if inp.suffix.lower() not in IMAGE_SUFFIXES:
            continue
        stem = inp.stem[len("input_") :]
        target = next((targets[stem, s] for s in IMAGE_SUFFIXES if (stem, s) in targets), None)
        if target is None:
            print(f"warning: {inp.name} has no matching target, skipped", file=sys.stderr)
            continue
        raw = None
        raw_path = directory / f"raw_{stem}.npy"
        if want_raw and raw_path.exists():
            try:
                raw = np.load(raw_path).astype(np.float32)
            except (ValueError, EOFError, TypeError) as e:
                raise DecodeError(f"cannot load {raw_path}: {e}") from None
        samples.append(
            Sample(input=load_image(inp), target=load_image(target), raw=raw, name=inp.name)
        )
    if want_raw:
        missing = [s.name for s in samples if s.raw is None]
        if missing:
            raise UsageError(
                f"loss=mixed_raw needs raw_*.npy next to each pair; missing for: {missing[:5]}"
            )
    return samples


def evaluate(params, samples: list[Sample]) -> MetricReport:
    """PSNR and SSIM of the model's output for each sample against its target."""
    report = MetricReport.empty()
    for s in samples:
        out, _ = iat_forward(image_to_tensor(s.input), params)
        report.add(s.name, tensor_to_image(out), s.target)
    return report


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    model_cfg, cfg = _load_configs(args)
    csv_path = args.metrics_csv or f"{args.out}.csv"
    _require_output_path("--out", args.out)
    _require_output_path("--metrics-csv", csv_path)
    samples = discover_pairs(args.data, want_raw=cfg.loss == "mixed_raw")
    if not samples:
        raise UsageError(f"no input_*/target_* pairs found in {args.data}")
    # the closing report scores every pair, so refuse the unscorable before training
    small = [s.name for s in samples if min(s.input.pixels.shape[:2]) < SSIM_WINDOW]
    if small:
        raise InputError(f"pairs below the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window: {small[:5]}")

    params = None
    start_step = 0
    if args.resume:
        params, start_step = load_checkpoint(args.resume)
        if args.config and params.config != model_cfg:
            raise UsageError(
                f"--resume checkpoint config {params.config} != --config {model_cfg}"
            )
        if start_step >= cfg.steps:
            raise UsageError(
                f"checkpoint already at step {start_step}, >= total steps {cfg.steps}"
            )
    params, rows = train_loop(
        samples, cfg, params=params, config=model_cfg, start_step=start_step
    )
    save_checkpoint(params, args.out, step=cfg.steps)
    write_metrics_csv(rows, csv_path)

    report = evaluate(params, samples)
    print(f"final val PSNR {report.mean_psnr:.2f} dB, SSIM {report.mean_ssim:.4f}")
    print(f"checkpoint: {args.out}  metrics: {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    samples = discover_pairs(args.pairs)
    if not samples:
        raise UsageError(f"no input_*/target_* pairs found in {args.pairs}")
    report = evaluate(params, samples)
    for name, p_, s_ in zip(report.names, report.psnr_values, report.ssim_values):
        print(f"{name}: psnr {p_:.2f} ssim {s_:.4f}")
    print(f"mean: psnr {report.mean_psnr:.2f} ssim {report.mean_ssim:.4f}")
    if args.csv:
        with atomic_open(args.csv) as fh:
            fh.write("image,psnr,ssim\n")
            for name, p_, s_ in zip(report.names, report.psnr_values, report.ssim_values):
                fh.write(f"{name},{p_:.4f},{s_:.6f}\n")
            fh.write(f"mean,{report.mean_psnr:.4f},{report.mean_ssim:.6f}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# info


def cmd_info(args) -> int:
    if bool(args.checkpoint) == bool(args.config):
        raise UsageError("give exactly one of --checkpoint or --config")
    h, w = _parse_resolution(args.resolution)
    step = None
    if args.checkpoint:
        params, step = load_checkpoint(args.checkpoint)
    else:
        params = iat_init(_load_configs(args)[0], rng=philox(0))
    cfg = params.config
    try:
        flops = estimate_flops_detail(cfg, h, w)
    except InputError as e:
        raise UsageError(f"--resolution: {e}") from None
    if step is not None:
        print(f"checkpoint step: {step}")
    print(f"config: channels={cfg.channels} blocks={cfg.blocks} d={cfg.d}")
    report = count_params(params)
    for key in ("local", "encoder", "gpm"):
        print(f"params[{key}]: {report[key]}")
    print(f"params[total]: {report['total']}")
    print(
        f"estimated GFLOPs at {h}x{w}: total {flops['total']:.3f} "
        f"(local {flops['local']:.3f}, global {flops['global']:.3f})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="iat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="run the model over images", parents=[])
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="image file or directory")
    p.add_argument("--output", required=True, help="output directory")
    p.add_argument("--local-only", dest="local_only", action="store_true")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(fn=cmd_enhance)

    p = sub.add_parser("synthesize", help="make degraded/clean training pairs")
    p.add_argument("--clean", required=True, help="directory of clean images")
    p.add_argument("--out", required=True)
    p.add_argument("--profile", choices=PROFILES, default="low_light")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("train", help="train on paired samples")
    p.add_argument("--data", required=True, help="directory of input_*/target_* pairs")
    p.add_argument("--config", help="JSON config (model + training keys)")
    p.add_argument("--out", required=True, help="checkpoint path to write")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--metrics-csv", dest="metrics_csv")
    p.add_argument("--lr0", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--crop-size", dest="crop_size", type=int)
    p.add_argument("--loss", choices=LOSS_KINDS)
    p.add_argument("--lambda-raw", dest="lambda_raw", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="PSNR/SSIM of a checkpoint over pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--csv", help="write per-image metrics here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("info", help="parameter counts and FLOP estimate")
    p.add_argument("--checkpoint")
    p.add_argument("--config")
    p.add_argument("--resolution", default="400x600", help="HxW, default 400x600")
    p.set_defaults(fn=cmd_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except (
        CheckpointError,
        ConfigurationError,
        ContractError,
        DecodeError,
        InputError,
        ShapeError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
