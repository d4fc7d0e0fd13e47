import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iat.errors import ConfigurationError, ContractError, ShapeError, TrainingDiverged
from iat.image_io import ImageRGB
from iat.isp import degrade, sample_degradation
from iat import tensor, training
from iat.model import IATConfig, fold, iat_forward, iat_init, named_parameters
from iat.rng import philox
from iat.tensor import Tape, Tensor, parameter
from iat.training import (
    LOSS_KINDS,
    AdamState,
    LogRow,
    Sample,
    TrainConfig,
    _crop_and_flip,
    _mean_psnr,
    _restore,
    _snapshot,
    _to_nchw,
    adam_step,
    compute_loss,
    cosine_lr,
    gradient_difference,
    l1_loss,
    mixed_loss,
    raw_supervision_loss,
    smooth_l1,
    train_loop,
    write_metrics_csv,
)

from fdcheck import assert_grads_close, numeric_grad


def t(arr):
    return Tensor(np.asarray(arr, dtype=np.float32))


# ---------------------------------------------------------------------------
# losses


def test_smooth_l1_values():
    z = t(np.zeros((1, 3, 2, 2)))
    assert smooth_l1(z, z).item() == 0.0
    half = t(np.full((1, 3, 2, 2), 0.5))
    assert smooth_l1(half, z).item() == pytest.approx(0.125)
    two = t(np.full((1, 3, 2, 2), 2.0))
    assert smooth_l1(two, z).item() == pytest.approx(1.5)


def test_l1_values_and_gradient():
    z = t(np.zeros((2, 3)))
    assert l1_loss(z, z).item() == 0.0
    assert l1_loss(t(np.full((2, 3), 0.1)), z).item() == pytest.approx(0.1, abs=1e-7)
    pred = parameter(np.array([[0.4, -0.3], [0.2, 0.8]]), dtype=np.float64)
    target = Tensor(np.zeros((2, 2), dtype=np.float64))
    with Tape() as tape:
        tape.backward(l1_loss(pred, target))
    (num,) = numeric_grad(
        lambda: float(np.abs(pred.data - target.data).mean()), [pred.data]
    )
    assert_grads_close(pred.grad, num, label="l1")


def test_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        smooth_l1(t(np.zeros((1, 3, 2, 2))), t(np.zeros((1, 3, 2, 3))))


def test_mixed_loss_zero_and_constant_offset():
    rng = np.random.default_rng(0)
    # dyadic values keep the +0.25 shift exact in float32, so the edge maps
    # are bitwise identical and the gradient term is exactly zero
    x = t(rng.integers(0, 512, (1, 3, 6, 6)) / 1024.0)
    assert mixed_loss(x, x).item() == 0.0
    shifted = t(x.data + 0.25)
    assert gradient_difference(shifted, x).item() == 0.0
    assert mixed_loss(shifted, x).item() == pytest.approx(
        smooth_l1(shifted, x).item(), abs=1e-9
    )


def test_smooth_l1_gradient_matches_fd():
    rng = np.random.default_rng(1)
    pred = parameter(rng.uniform(-2, 2, (4, 5)), dtype=np.float64)
    target = Tensor(rng.uniform(-2, 2, (4, 5)))

    def fwd():
        return smooth_l1(pred, target)

    with Tape() as tape:
        tape.backward(fwd())
    (num,) = numeric_grad(lambda: fwd().item(), [pred.data])
    assert_grads_close(pred.grad, num, label="smooth_l1")


def test_mixed_loss_gradient_matches_fd():
    rng = np.random.default_rng(2)
    pred = parameter(rng.random((1, 3, 5, 5)), dtype=np.float64)
    target = Tensor(rng.random((1, 3, 5, 5)))

    def fwd():
        return mixed_loss(pred, target)

    with Tape() as tape:
        tape.backward(fwd())
    (num,) = numeric_grad(lambda: fwd().item(), [pred.data])
    assert_grads_close(pred.grad, num, label="mixed")


def test_raw_supervision_loss_contracts():
    rng = np.random.default_rng(3)
    out = t(rng.random((1, 3, 4, 4)))
    target = t(rng.random((1, 3, 4, 4)))
    f_out = t(rng.random((1, 3, 4, 4)))
    raw = t(rng.random((1, 3, 4, 4)))
    # lambda=0 reduces exactly to plain L1
    assert raw_supervision_loss(out, target, f_out, raw, 0.0).item() == l1_loss(
        out, target
    ).item()
    assert raw_supervision_loss(out, target, out, raw, 0.1).item() > 0
    assert raw_supervision_loss(target, target, raw, raw, 0.1).item() == 0.0
    with pytest.raises(ConfigurationError):
        raw_supervision_loss(out, target, f_out, None, 0.1)


def test_default_lambda_is_tenth():
    assert TrainConfig().lambda_raw == 0.1


@pytest.mark.parametrize(
    "key,value",
    [
        ("eval_every", 0),
        ("eval_every", -3),
        ("lr0", float("nan")),
        ("lr0", float("inf")),
        ("weight_decay", float("nan")),
        ("lambda_raw", float("inf")),
        ("w_percep", float("nan")),
        ("w_percep", -1.0),
        ("weight_decay", -0.5),
        ("seed", -1),
        ("seed", -(2**40)),
        ("steps", 2.5),  # an int field takes no fraction
        ("seed", True),  # nor a bool
        ("lr0", "abc"),  # a float field takes only numbers
        ("hflip", "false"),  # a bool field takes only a bool
        ("loss", 1),  # a str field takes only a str
        ("batch_size", 2.0),  # an int field takes no float, even a whole one
        pytest.param("lr0", 10**400, id="lr0-huge"),  # no int beyond float range
    ],
)
def test_train_config_rejects_bad_values(key, value):
    TrainConfig()  # the defaults pass
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        TrainConfig(**{key: value})


@given(st.integers(0, 2**31 - 1), st.booleans())
@settings(max_examples=30, deadline=None)
def test_losses_nonnegative_zero_iff_equal(seed, equal):
    rng = np.random.default_rng(seed)
    pred = t(rng.uniform(-1, 2, (1, 3, 4, 4)))
    target = pred if equal else t(rng.uniform(-1, 2, (1, 3, 4, 4)))
    for fn in (smooth_l1, l1_loss, mixed_loss):
        val = fn(pred, target).item()
        assert val >= 0.0
        if equal:
            assert val == 0.0
        elif not np.array_equal(pred.data, target.data):
            assert val > 0.0


# ---------------------------------------------------------------------------
# optimizer / schedule


def test_adam_first_step_closed_form():
    theta = parameter(np.zeros(1))
    theta.grad = np.ones(1, dtype=np.float32)
    state = AdamState()
    adam_step([("theta", theta)], state, lr=1e-3, weight_decay=0.0)
    assert theta.data[0] == pytest.approx(-1e-3, rel=1e-5)
    assert state.step == 1


def test_adam_zero_grad_zero_decay_no_change():
    theta = parameter(np.full(3, 0.7, dtype=np.float32))
    theta.grad = np.zeros(3, dtype=np.float32)
    adam_step([("theta", theta)], AdamState(), lr=1e-2, weight_decay=0.0)
    np.testing.assert_array_equal(theta.data, np.full(3, 0.7, dtype=np.float32))


def test_adam_missing_grad_contract():
    theta = parameter(np.zeros(1))
    with pytest.raises(ContractError):
        adam_step([("theta", theta)], AdamState(), lr=1e-3, weight_decay=0.0)


def test_adam_weight_decay_decoupled():
    theta = parameter(np.full(1, 2.0))
    theta.grad = np.zeros(1, dtype=np.float32)
    adam_step([("theta", theta)], AdamState(), lr=0.1, weight_decay=0.5)
    # only the decay term acts: 2.0 - 0.1*0.5*2.0 = 1.9
    assert theta.data[0] == pytest.approx(1.9)


def test_cosine_schedule_boundaries():
    assert cosine_lr(0, 100, 2e-4) == pytest.approx(2e-4)
    assert cosine_lr(100, 100, 2e-4) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(50, 100, 2e-4) == pytest.approx(1e-4)
    with pytest.raises(ContractError):
        cosine_lr(101, 100, 2e-4)
    with pytest.raises(ContractError):
        cosine_lr(0, 0, 2e-4)


# ---------------------------------------------------------------------------
# augmentation


class FixedRng:
    """Crops at the origin; flip draws come from `vals` in order."""

    def __init__(self, vals):
        self.vals = list(vals)

    def integers(self, low, high):
        return low

    def random(self):
        return self.vals.pop(0)


def test_flip_involution_and_multiset():
    rng = np.random.default_rng(4)
    a, b, r = (rng.random((6, 8, 3)).astype(np.float32) for _ in range(3))
    # crop 8 keeps the whole image; force horizontal flip twice -> identity
    once = _crop_and_flip(
        Sample(ImageRGB(a), ImageRGB(b), r), 8, True, True, FixedRng([0.0, 1.0])
    )
    fa, fb, fr = once
    twice = _crop_and_flip(
        Sample(ImageRGB(fa), ImageRGB(fb), fr), 8, True, True, FixedRng([0.0, 1.0])
    )
    for orig, f1, f2 in zip((a, b, r), once, twice):
        np.testing.assert_array_equal(f1, orig[:, ::-1])
        np.testing.assert_array_equal(f2, orig)
    # multiset of pixel values is preserved
    assert sorted(fa.reshape(-1)) == sorted(a.reshape(-1))


def test_flip_preserves_pair_correspondence():
    rng = philox(5)
    a = np.arange(36, dtype=np.float32).reshape(3, 4, 3) / 36.0
    s = Sample(input=ImageRGB(a), target=ImageRGB(a * 0.5), raw=a * 0.25)
    for crop in (8, 2):  # the whole image, then random 2x2 crops
        for _ in range(8):
            fa, fb, fr = _crop_and_flip(s, crop, True, True, rng)
            np.testing.assert_allclose(fb, fa * 0.5, atol=1e-7)
            np.testing.assert_allclose(fr, fa * 0.25, atol=1e-7)


# ---------------------------------------------------------------------------
# train loop (smoke scale; the heavy oracles live in the acceptance suite)


def make_pairs(n, size=24, seed=0):
    rng = np.random.default_rng(seed)
    srng = philox(seed, 7)
    out = []
    for i in range(n):
        luma = rng.uniform(0.25, 0.9, (size, size, 1))
        chroma = rng.uniform(-0.1, 0.1, (size, size, 3))
        clean = ImageRGB(np.clip(luma + chroma, 0, 1).astype(np.float32))
        dp = sample_degradation(srng, "low_light")
        degraded, raw = degrade(clean, dp, srng)
        out.append(Sample(input=degraded, target=clean, raw=raw, name=f"s{i}"))
    return out


def small_cfg(**kw):
    base = dict(
        lr0=2e-3,
        weight_decay=1e-4,
        batch_size=2,
        steps=30,
        crop_size=16,
        loss="mixed",
        seed=3,
        eval_every=10,
    )
    base.update(kw)
    return TrainConfig(**base)


SMALL_MODEL = IATConfig(channels=8, blocks=1, d=16)


def test_train_loop_descends():
    samples = make_pairs(2)
    params, rows = train_loop(samples, small_cfg(), config=SMALL_MODEL)
    assert len(rows) == 30
    assert rows[-1].loss < rows[0].loss
    assert any(r.psnr_val is not None for r in rows)


def test_train_loop_deterministic():
    samples = make_pairs(2)

    def run():
        params, rows = train_loop(samples, small_cfg(), config=SMALL_MODEL)
        return [t.data.copy() for _, t in named_parameters(params)], [
            r.loss for r in rows
        ]

    pa, la = run()
    pb, lb = run()
    assert la == lb
    for x, y in zip(pa, pb):
        np.testing.assert_array_equal(x, y)


def test_train_loop_empty_dataset():
    with pytest.raises(ConfigurationError):
        train_loop([], small_cfg())


def test_train_loop_rejects_pair_shape_mismatch():
    # a mismatched pair cannot be built, so none reaches train_loop
    samples = make_pairs(2)
    with pytest.raises(ShapeError, match="s1"):
        dataclasses.replace(samples[1], target=ImageRGB(samples[1].target.pixels[:16]))
    with pytest.raises(ShapeError, match="s0"):
        dataclasses.replace(samples[0], raw=samples[0].raw[:, :16])


def test_sample_checks_its_shapes_when_built():
    a = np.zeros((6, 8, 3), np.float32)
    Sample(ImageRGB(a), ImageRGB(a), a, name="ok")
    with pytest.raises(ShapeError, match=r"sample p7: .*\(6, 8, 3\), \(6, 7, 3\)"):
        Sample(ImageRGB(a), ImageRGB(a[:, :7]), name="p7")
    with pytest.raises(ShapeError, match=r"sample p8: .*\(5, 8, 3\)\]"):
        Sample(ImageRGB(a), ImageRGB(a), a[:5], name="p8")
    with pytest.raises(ShapeError, match="sample <unnamed>"):
        Sample(ImageRGB(a), ImageRGB(a), a[:, :, :1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        Sample(ImageRGB(a), ImageRGB(a)).target = ImageRGB(a[:5])


def test_train_loop_mixed_raw_requires_raw():
    samples = make_pairs(2)
    samples[1] = dataclasses.replace(samples[1], raw=None)
    with pytest.raises(ConfigurationError, match="s1"):
        train_loop(samples, small_cfg(loss="mixed_raw"), config=SMALL_MODEL)


def test_train_loop_mixed_raw_runs():
    samples = make_pairs(2)
    params, rows = train_loop(
        samples, small_cfg(loss="mixed_raw", steps=10), config=SMALL_MODEL
    )
    assert len(rows) == 10


def _assert_diverges_with_no_grads(samples, cfg):
    params = iat_init(SMALL_MODEL, rng=philox(cfg.seed, 0))
    with pytest.raises(TrainingDiverged) as exc_info:
        train_loop(samples, cfg, params=params)
    assert exc_info.value.step >= 0
    assert len(exc_info.value.history) >= 1
    assert not math.isfinite(exc_info.value.history[-1])
    stale = [name for name, p in named_parameters(params) if p.grad is not None]
    assert stale == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf reaches gelu pre-abort
def test_train_loop_nan_abort():
    cfg = small_cfg(lr0=1e6, steps=40, eval_every=1000)  # guaranteed blow-up
    _assert_diverges_with_no_grads(make_pairs(1), cfg)


def test_train_loop_nan_sample_clears_grads():
    # one sample's loss is NaN while the other sample's backward still runs
    samples = make_pairs(2)
    samples[1] = dataclasses.replace(
        samples[1], target=ImageRGB(np.full_like(samples[1].target.pixels, np.nan))
    )
    _assert_diverges_with_no_grads(samples, small_cfg(steps=3))


def test_divergence_history_is_the_last_losses(monkeypatch):
    # finite losses for 20 steps, then NaN: the error carries the 16 logged
    # losses before the step that diverged, then that step's loss
    real, calls = training.compute_loss, []

    def nan_from_step_20(*args):
        calls.append(None)
        loss = real(*args)
        return loss * float("nan") if len(calls) > 20 else loss

    monkeypatch.setattr(training, "compute_loss", nan_from_step_20)
    cfg = small_cfg(steps=30, batch_size=1, eval_every=1000)
    with pytest.raises(TrainingDiverged) as exc_info:
        train_loop(make_pairs(1), cfg, config=SMALL_MODEL)
    history = exc_info.value.history
    assert exc_info.value.step == 20
    assert len(history) == 17
    assert all(math.isfinite(v) for v in history[:-1])
    assert not math.isfinite(history[-1])


def train_loop_one_tape(samples, cfg, config):
    """Reference step: the whole batch on one tape, the model's folds first
    and shared by every sample, one backward per step."""
    params = iat_init(config, rng=philox(cfg.seed, 0))
    named = list(named_parameters(params))
    state = AdamState()
    data_rng = philox(cfg.seed, 1)
    rows, order = [], []
    best_psnr, best = -math.inf, _snapshot(params)
    for step in range(cfg.steps):
        lr = cosine_lr(step, cfg.steps, cfg.lr0)
        batch = []
        while len(batch) < cfg.batch_size:
            if not order:
                order = list(data_rng.permutation(len(samples)))
            batch.append(samples[order.pop()])
        with Tape() as tape:
            folded = fold(params)
            total = None
            for s in batch:
                inp, tgt, raw = _crop_and_flip(s, cfg.crop_size, cfg.hflip, cfg.vflip, data_rng)
                out, f_out = iat_forward(_to_nchw(inp), folded)
                loss = compute_loss(cfg, out, _to_nchw(tgt), f_out, _to_nchw(raw))
                total = loss if total is None else total + loss
            total = total * (1.0 / len(batch))
            tape.backward(total)
        adam_step(named, state, lr, cfg.weight_decay)
        psnr_val = None
        if (step + 1) % cfg.eval_every == 0 or step == cfg.steps - 1:
            psnr_val = _mean_psnr(params, samples)
            if psnr_val > best_psnr:
                best_psnr, best = psnr_val, _snapshot(params)
        rows.append(LogRow(step=step, lr=lr, loss=total.item(), psnr_val=psnr_val))
    _restore(params, best)
    return params, rows


@pytest.mark.parametrize("batch_size", [1, 3, 8])
@pytest.mark.parametrize("loss", LOSS_KINDS)
def test_per_sample_tapes_match_one_tape(loss, batch_size):
    # 24x24 and 14x14 images under crop 16: crops differ in shape within a batch
    samples = make_pairs(3, size=24) + make_pairs(2, size=14, seed=1)
    cfg = small_cfg(loss=loss, batch_size=batch_size, steps=4, eval_every=2)
    got, got_rows = train_loop(samples, cfg, config=SMALL_MODEL)
    want, want_rows = train_loop_one_tape(samples, cfg, SMALL_MODEL)
    assert [r.loss for r in got_rows] == [r.loss for r in want_rows]
    assert [r.psnr_val for r in got_rows] == [r.psnr_val for r in want_rows]
    for (name, a), (_, b) in zip(named_parameters(got), named_parameters(want)):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def test_sample_tapes_read_the_sample(monkeypatch):
    # an op whose inputs derive from parameters alone computes the same value
    # for every sample of a step: only the step tape may record one
    data, recorded = set(), []
    keep = []  # every tensor stays alive, so no id is reused
    to_nchw, emit = training._to_nchw, tensor._emit

    def marked(arr):
        t = to_nchw(arr)
        data.add(id(t))
        keep.append(t)
        return t

    def watched(values, inputs, rule):
        out = emit(values, inputs, rule)
        keep.append(out)
        if any(id(t) in data for t in inputs):
            data.add(id(out))
        tape = tensor._tls.tape
        if tape is not None and out.requires_grad:
            recorded.append((id(tape), id(out) in data))
        return out

    monkeypatch.setattr(training, "_to_nchw", marked)
    monkeypatch.setattr(tensor, "_emit", watched)
    cfg = small_cfg(batch_size=3, steps=2, eval_every=1000)
    train_loop(make_pairs(3), cfg, config=SMALL_MODEL)
    tapes = {}
    for tape, reads_sample in recorded:
        tapes.setdefault(tape, []).append(reads_sample)
    kinds = sorted((any(ops), all(ops)) for ops in tapes.values())
    # two step tapes that read no sample, then six sample tapes whose every op does
    assert kinds == [(False, False)] * 2 + [(True, True)] * 6


def _one_step_peak_bytes(batch_size):
    samples = make_pairs(batch_size, size=32)
    cfg = small_cfg(batch_size=batch_size, steps=1, crop_size=32)
    params = iat_init(SMALL_MODEL, rng=philox(cfg.seed, 0))
    tracemalloc.start()
    try:
        train_loop(samples, cfg, params=params)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_memory_is_bounded_by_one_sample():
    one, eight = _one_step_peak_bytes(1), _one_step_peak_bytes(8)
    assert eight <= 1.25 * one, (one, eight)


def _owner(a: np.ndarray) -> np.ndarray:
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _rule_private_arrays(tape: Tape) -> list[np.ndarray]:
    """The arrays a tape's rules hold of their own: every array their
    closures reach whose memory belongs to no tensor on the tape, neither an
    op output nor a leaf."""
    tensors, arrays, seen = [], [], set()
    stack = [obj for entry in tape._ops for obj in entry]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            tensors.append(obj)
        elif isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    owned = {id(_owner(t.data)) for t in tensors}
    return [a for a in arrays if id(_owner(a)) not in owned]


def _sample_tape(monkeypatch, size, look):
    """look(tape) of the one default-model sample tape of a size x size
    training step, taken as its backward starts."""
    seen = []
    backward = Tape.backward

    def inspected(tape, loss=None):
        if loss is not None:  # a sample tape, not the step tape
            seen.append(look(tape))
        return backward(tape, loss)

    with monkeypatch.context() as m:
        m.setattr(Tape, "backward", inspected)
        cfg = small_cfg(batch_size=1, steps=1, crop_size=size)
        train_loop(make_pairs(1, size=size), cfg, config=IATConfig())
    (result,) = seen
    return result


def _private_shapes(tape: Tape) -> list[tuple]:
    return sorted(a.shape for a in _rule_private_arrays(tape))


def test_sample_tape_keeps_no_plane_of_its_own(monkeypatch):
    # a rule keeps nothing that grows with the image beyond the op outputs and
    # leaves it reads: no padded copy of a conv input, no clamped copy of the
    # power's base. What it may keep (per-tap weights) is the same at any size
    at_64 = _sample_tape(monkeypatch, 64, _private_shapes)
    assert at_64 == _sample_tape(monkeypatch, 32, _private_shapes), at_64
    assert all(math.prod(shape) < 16 * 64 * 64 for shape in at_64), at_64


def test_sample_tape_keeps_pre_activations_only(monkeypatch):
    # each GELU over a plane is fused into the conv that reads it (the local
    # stacks', the encoder's two, the last read by the prediction module's
    # folded pos_dw), so only the FFN's is an op of its own: 100 ops where 124
    # kept every GELU's output and 105 also the encoder output's GELU, K and V
    def look(tape):
        gelus = [out.shape for out, rule in tape._ops if rule.__qualname__.startswith("gelu.")]
        return len(tape), sorted(gelus)

    ops, gelus = _sample_tape(monkeypatch, 64, look)
    assert ops == 100
    assert gelus == [(10, 160)]


def test_metrics_csv_format(tmp_path):
    rows = [LogRow(0, 1e-3, 0.5, None), LogRow(1, 9e-4, 0.4, 31.2)]
    path = tmp_path / "log.csv"
    write_metrics_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,lr,loss,psnr_val"
    assert lines[1].startswith("0,0.001,0.5,")
    assert lines[2].endswith("31.2000")
