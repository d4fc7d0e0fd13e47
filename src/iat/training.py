"""Losses, optimizer, schedule, augmentation, and the desk-scale train loop.

Loss menu:
  l1        mean absolute error (photo-retouching / exposure settings)
  mixed     smooth L1 plus a small image-gradient-difference term. The
            gradient term stands in for a pretrained-network perceptual
            loss, which is deliberately out of scope; it applies the same
            structure-aware pressure without external weights.
  mixed_raw L1 on the output plus lambda * L1 between the local-branch
            intermediate and the synthesizer's pseudo-raw image.

The optimizer is Adam (0.9/0.999) with decoupled weight decay and a cosine
learning-rate schedule from lr0 down to zero, no warmup.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, ContractError, ShapeError, TrainingDiverged
from .fileio import atomic_open
from .image_io import ImageRGB, image_to_tensor, tensor_to_image
from .model import IATConfig, IATParams, iat_forward, iat_init, named_parameters
from .rng import philox
from .tensor import Tape, Tensor, absolute, narrow

LOSS_KINDS = ("l1", "mixed", "mixed_raw")


@dataclass
class TrainConfig:
    lr0: float = 2e-4
    weight_decay: float = 1e-4
    batch_size: int = 8
    steps: int = 1000
    crop_size: int = 256
    loss: str = "mixed"
    lambda_raw: float = 0.1
    w_percep: float = 0.04
    seed: int = 0
    hflip: bool = True
    vflip: bool = True
    eval_every: int = 50

    def validate(self):
        for key in ("lr0", "weight_decay", "lambda_raw", "w_percep"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigurationError(f"{key} must be finite, got {getattr(self, key)}")
        if self.lr0 <= 0:
            raise ConfigurationError(f"lr0 must be > 0, got {self.lr0}")
        for key in ("weight_decay", "lambda_raw", "w_percep"):
            if getattr(self, key) < 0:
                raise ConfigurationError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.crop_size < 8:
            raise ConfigurationError(f"crop_size must be >= 8, got {self.crop_size}")
        if self.loss not in LOSS_KINDS:
            raise ConfigurationError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.steps < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ConfigurationError(
                "steps, batch_size and eval_every must be >= 1, got "
                f"{self.steps}, {self.batch_size} and {self.eval_every}"
            )


@dataclass
class Sample:
    """One training pair; raw is the aligned pseudo-raw image when available."""

    input: ImageRGB
    target: ImageRGB
    raw: np.ndarray | None = None
    name: str = ""


# ---------------------------------------------------------------------------
# losses


def _check_same_shape(pred: Tensor, target: Tensor):
    if pred.shape != target.shape:
        raise ShapeError(f"loss operands differ: {pred.shape} vs {target.shape}")


def smooth_l1(pred: Tensor, target: Tensor) -> Tensor:
    """Mean of 0.5*d^2 if |d| < 1 else |d| - 0.5."""
    _check_same_shape(pred, target)
    d = pred - target
    a = absolute(d)
    quad = (d * d) * 0.5
    lin = a - 0.5
    mask = Tensor((a.data < 1.0).astype(d.data.dtype))  # branch choice is constant
    return (mask * quad + (1.0 - mask) * lin).mean()


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    _check_same_shape(pred, target)
    return absolute(pred - target).mean()


def gradient_difference(pred: Tensor, target: Tensor) -> Tensor:
    """L1 between horizontal+vertical finite-difference edge maps."""
    _check_same_shape(pred, target)

    def diff(t: Tensor, axis: int) -> Tensor:
        n = t.shape[axis]
        return narrow(t, axis, 1, n - 1) - narrow(t, axis, 0, n - 1)

    total = None
    for axis in (2, 3):
        if pred.shape[axis] < 2:
            continue  # no edges along a degenerate axis
        term = absolute(diff(pred, axis) - diff(target, axis)).mean()
        total = term if total is None else total + term
    if total is None:
        raise ShapeError(f"image {pred.shape} too small for gradient difference")
    return total


def mixed_loss(pred: Tensor, target: Tensor, w_percep: float = 0.04) -> Tensor:
    return smooth_l1(pred, target) + w_percep * gradient_difference(pred, target)


def raw_supervision_loss(
    out: Tensor,
    target: Tensor,
    f_out: Tensor,
    pseudo_raw: Tensor,
    lambda_raw: float,
) -> Tensor:
    """L1(out, target) + lambda * L1(local intermediate, pseudo-raw)."""
    if pseudo_raw is None:
        raise ConfigurationError("raw-supervised loss selected but pseudo-raw is missing")
    return l1_loss(out, target) + lambda_raw * l1_loss(f_out, pseudo_raw)


# ---------------------------------------------------------------------------
# optimizer and schedule


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, state: AdamState, lr: float, weight_decay: float):
    """Bias-corrected Adam over (name, tensor) pairs; consumes gradients.

    Weight decay is decoupled: theta <- theta - lr*wd*theta before the Adam
    delta is applied.
    """
    params = list(params)
    for name, p in params:
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params:
        g = p.grad.astype(np.float32, copy=False)
        if weight_decay:
            p.data = p.data - lr * weight_decay * p.data
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1.0 - ADAM_BETA1) * g if m is None else ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = (1.0 - ADAM_BETA2) * (g * g) if v is None else ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        state.m[name] = m
        state.v[name] = v
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)
        p.grad = None


def cosine_lr(step: int, total: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi*step/total)); lr0 at 0, zero at the end."""
    if total <= 0:
        raise ContractError(f"total must be > 0, got {total}")
    if not 0 <= step <= total:
        raise ContractError(f"step {step} outside [0, {total}]")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * step / total))


# ---------------------------------------------------------------------------
# augmentation


def _crop_and_flip(sample: Sample, crop: int, hflip: bool, vflip: bool, rng):
    """Joint random crop + flips over input/target/raw arrays."""
    arrs = [sample.input.pixels, sample.target.pixels]
    if sample.raw is not None:
        arrs.append(sample.raw)
    h, w = arrs[0].shape[:2]
    ch, cw = min(crop, h), min(crop, w)
    y = int(rng.integers(0, h - ch + 1))
    x = int(rng.integers(0, w - cw + 1))
    arrs = [a[y : y + ch, x : x + cw] for a in arrs]
    if hflip and rng.random() < 0.5:
        arrs = [a[:, ::-1] for a in arrs]
    if vflip and rng.random() < 0.5:
        arrs = [a[::-1] for a in arrs]
    arrs = [np.ascontiguousarray(a) for a in arrs]
    raw = arrs[2] if sample.raw is not None else None
    return arrs[0], arrs[1], raw


def _to_nchw(arr: np.ndarray) -> Tensor:
    return Tensor(np.transpose(arr, (2, 0, 1))[None].astype(np.float32, copy=False))


# ---------------------------------------------------------------------------
# training loop


@dataclass
class LogRow:
    step: int
    lr: float
    loss: float
    psnr_val: float | None = None


def _snapshot(params: IATParams) -> dict:
    return {name: t.data.copy() for name, t in named_parameters(params)}


def _restore(params: IATParams, snap: dict):
    for name, t in named_parameters(params):
        t.data = snap[name]


def _mean_psnr(params: IATParams, samples) -> float:
    # looked up at call time, so a wrapper put on iat.metrics.psnr (the
    # benchmark's tracer) sees every call
    from .metrics import psnr

    vals = []
    for s in samples:
        out, _ = iat_forward(image_to_tensor(s.input), params)
        vals.append(psnr(tensor_to_image(out), s.target))
    return float(np.mean(vals))


def compute_loss(cfg: TrainConfig, out, target, f_out=None, pseudo_raw=None) -> Tensor:
    if cfg.loss == "l1":
        return l1_loss(out, target)
    if cfg.loss == "mixed":
        return mixed_loss(out, target, cfg.w_percep)
    return raw_supervision_loss(out, target, f_out, pseudo_raw, cfg.lambda_raw)


def train_loop(
    samples: list[Sample],
    cfg: TrainConfig,
    params: IATParams | None = None,
    config: IATConfig | None = None,
    start_step: int = 0,
) -> tuple[IATParams, list[LogRow]]:
    """Shuffled minibatches of random crops/flips; returns best-PSNR params.

    A step draws its batch's crops and flips in batch order, then runs each
    sample on a tape of its own: forward, loss, and backward of
    loss * (1/len(batch)), which adds that sample's share into the
    parameters' .grad. Backward frees the tape as it walks it, so a step
    holds one sample's graph at any batch size. Samples run last first
    because that is the order a reverse walk of one tape over the whole
    batch reaches them: each parameter gradient gets the same terms added in
    the same order, so the gradients are bit-identical to that single tape's.
    The logged loss is the float32 sum of the sample losses in batch order,
    times 1/len(batch), which is the value that tape would have computed.

    Validation PSNR is measured on the training pairs every eval_every steps
    and after the last one; the best snapshot is restored into the returned
    parameters. A non-finite loss raises `TrainingDiverged` before Adam
    runs, with every parameter's .grad cleared.
    """
    if not samples:
        raise ConfigurationError("training dataset is empty")
    cfg.validate()
    for s in samples:
        shapes = [s.input.pixels.shape, s.target.pixels.shape]
        if s.raw is not None:
            shapes.append(s.raw.shape)
        if len(set(shapes)) > 1:
            raise ShapeError(
                f"sample {s.name or '<unnamed>'}: input/target/raw shapes differ: {shapes}"
            )
    if cfg.loss == "mixed_raw":
        missing = [s.name or "<unnamed>" for s in samples if s.raw is None]
        if missing:
            raise ConfigurationError(
                f"loss=mixed_raw but pseudo-raw is missing for: {missing[:5]}"
            )
    if params is None:
        params = iat_init(config, rng=philox(cfg.seed, 0))
    named = list(named_parameters(params))
    state = AdamState()
    data_rng = philox(cfg.seed, 1)
    rows: list[LogRow] = []
    history: deque[float] = deque(maxlen=16)
    best_psnr = -math.inf
    best = _snapshot(params)
    order: list[int] = []

    total_steps = cfg.steps
    for step in range(start_step, total_steps):
        lr = cosine_lr(step, total_steps, cfg.lr0)
        batch = []
        while len(batch) < cfg.batch_size:
            if not order:
                order = list(data_rng.permutation(len(samples)))
            batch.append(samples[order.pop()])
        crops = [_crop_and_flip(s, cfg.crop_size, cfg.hflip, cfg.vflip, data_rng) for s in batch]
        losses = [None] * len(batch)
        for i in reversed(range(len(batch))):
            inp, tgt, raw = crops[i]
            with Tape() as tape:
                out, f_out = iat_forward(_to_nchw(inp), params)
                loss = compute_loss(
                    cfg,
                    out,
                    _to_nchw(tgt),
                    f_out,
                    _to_nchw(raw) if raw is not None else None,
                )
                losses[i] = loss.data
                if math.isfinite(loss.item()):  # else the step aborts below
                    tape.backward(loss * (1.0 / len(batch)))
        total = losses[0]
        for v in losses[1:]:
            total = total + v  # in batch order and dtype, as one tape's sum added them
        loss_val = float(total * np.asarray(1.0 / len(batch), dtype=total.dtype))
        if not math.isfinite(loss_val):
            for _, p in named:
                p.grad = None
            raise TrainingDiverged(step, lr, list(history) + [loss_val])
        history.append(loss_val)
        adam_step(named, state, lr, cfg.weight_decay)
        psnr_val = None
        if (step + 1) % cfg.eval_every == 0 or step == total_steps - 1:
            psnr_val = _mean_psnr(params, samples)
            if psnr_val > best_psnr:
                best_psnr = psnr_val
                best = _snapshot(params)
        rows.append(LogRow(step=step, lr=lr, loss=loss_val, psnr_val=psnr_val))
    _restore(params, best)
    return params, rows


def write_metrics_csv(rows: list[LogRow], path):
    with atomic_open(path) as fh:
        fh.write("step,lr,loss,psnr_val\n")
        for r in rows:
            psnr = "" if r.psnr_val is None else f"{r.psnr_val:.4f}"
            fh.write(f"{r.step},{r.lr:.8g},{r.loss:.8g},{psnr}\n")
