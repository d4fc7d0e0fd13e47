import dataclasses

import numpy as np
import pytest

from iat.errors import ConfigurationError, CorruptionError, FormatError, InputError
from iat.isp import CLAMP_EPS
from iat.model import (
    IATConfig,
    IATParams,
    count_params,
    estimate_flops,
    estimate_flops_detail,
    iat_forward,
    iat_init,
    load_checkpoint,
    named_parameters,
    save_checkpoint,
)
from iat.model_local import local_branch_forward
from iat.rng import philox
from iat.tensor import Tape, Tensor
from iat.training import smooth_l1

from checkpoint_edit import rewrite_header
from fdcheck import assert_grads_close, numeric_grad


def rand_image(rng, h, w, lo=0.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, (1, 3, h, w)).astype(np.float32))


# ---------------------------------------------------------------------------
# forward composition


def test_identity_at_init_end_to_end():
    p = iat_init(rng=philox(0))
    rng = np.random.default_rng(1)
    img = rand_image(rng, 24, 17, lo=1e-6)
    out, _ = iat_forward(img, p)
    assert np.abs(out.data - img.data).max() < 1e-6


def test_local_only_path_matches_intermediate():
    p = iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(2))
    for _, t in named_parameters(p):
        t.data = t.data + np.random.default_rng(3).normal(0, 0.05, t.data.shape).astype(
            np.float32
        )
    rng = np.random.default_rng(4)
    img = rand_image(rng, 10, 12)
    out_full, f_out = iat_forward(img, p)
    local = local_branch_forward(img, p.local)
    np.testing.assert_array_equal(local.data, f_out.data)
    assert not np.allclose(local.data, out_full.data)  # global op does something


def test_forward_matches_scalar_reference():
    # whole pipeline vs a per-pixel scalar implementation of its own pieces
    p = iat_init(IATConfig(channels=6, blocks=1, d=16), rng=philox(5))
    rng = np.random.default_rng(6)
    for _, t in named_parameters(p):
        t.data = t.data + rng.normal(0, 0.05, t.data.shape).astype(np.float32)
    img = rand_image(rng, 8, 8)
    from iat.model_global import encoder_forward, gpm_forward

    f = local_branch_forward(img, p.local).data
    gp = gpm_forward(encoder_forward(img, p.encoder), p.gpm)
    out, _ = iat_forward(img, p)

    m = gp.color_matrix.data.astype(np.float64)
    gamma = float(gp.gamma.data)
    ref = np.zeros((1, 3, 8, 8))
    for i in range(8):
        for j in range(8):
            v = m @ f[0, :, i, j].astype(np.float64)
            ref[0, :, i, j] = np.maximum(v, CLAMP_EPS) ** gamma
    np.testing.assert_allclose(out.data, ref, atol=1e-5)


def test_determinism_same_seed_same_output():
    rng = np.random.default_rng(7)
    img = rand_image(rng, 12, 12)
    outs = []
    for _ in range(2):
        p = iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(99))
        out, _ = iat_forward(img, p)
        outs.append(out.data.copy())
    np.testing.assert_array_equal(outs[0], outs[1])


@pytest.mark.parametrize("h,w", [(37, 53), (160, 240)])
def test_forward_same_with_and_without_tape(h, w):
    # inference (enhance, eval) must run the exact function that training differentiates
    p = iat_init(rng=philox(12))
    rng = np.random.default_rng(13)
    for _, t in named_parameters(p):
        t.data = t.data + rng.normal(0, 0.05, t.data.shape).astype(np.float32)
    img = rand_image(rng, h, w)
    untaped, _ = iat_forward(img, p)
    with Tape() as tape:
        taped, _ = iat_forward(img, p)
        assert len(tape) > 0
    np.testing.assert_array_equal(untaped.data, taped.data)


# ---------------------------------------------------------------------------
# model sizes


@pytest.mark.parametrize(
    "key,value",
    [
        ("channels", 0),
        ("channels", -1),
        ("blocks", 0),
        ("d", 6),
        ("d", 7),
        ("channels", 8.0),
        ("blocks", True),
        ("d", "16"),
    ],
)
def test_config_rejects_bad_size(key, value):
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        IATConfig(**{key: value})


def test_config_read_off_the_tree():
    # the tree is the one record of the sizes: IATParams stores no copy
    assert [f.name for f in dataclasses.fields(IATParams)] == ["local", "encoder", "gpm"]
    for sizes in [(16, 3, 80), (8, 2, 16), (1, 1, 8), (24, 4, 40)]:  # (1, 1, 8): smallest legal
        cfg = IATConfig(*sizes)
        assert iat_init(cfg, rng=philox(0)).config == cfg


# ---------------------------------------------------------------------------
# accounting


def test_default_parameter_budget():
    report = count_params(iat_init(rng=philox(8)))
    assert 80_000 <= report["total"] <= 100_000, report
    assert 10_000 <= report["local"] <= 30_000, report
    assert report["total"] == report["local"] + report["global"]


def test_param_count_monotone_in_channels():
    small = count_params(iat_init(IATConfig(channels=16, blocks=3, d=32), rng=philox(9)))
    big = count_params(iat_init(IATConfig(channels=32, blocks=3, d=32), rng=philox(9)))
    assert big["total"] > small["total"]


def test_flops_default_band():
    gf = estimate_flops(IATConfig(), 400, 600)
    assert 0.5 <= gf <= 3.0, gf


def test_flops_local_scales_linearly_in_pixels():
    cfg = IATConfig()
    a = estimate_flops_detail(cfg, 256, 256)["local"]
    b = estimate_flops_detail(cfg, 512, 256)["local"]
    np.testing.assert_allclose(b / a, 2.0, rtol=1e-12)


def test_flops_rejects_tiny_resolution():
    with pytest.raises(InputError):
        estimate_flops(IATConfig(), 3, 600)


@pytest.mark.parametrize(
    "cfg", [IATConfig(), IATConfig(channels=8, blocks=2, d=16)], ids=["default", "8-2-16"]
)
def test_flops_estimate_matches_counted_macs(monkeypatch, cfg):
    # count the MACs of every conv and matmul one forward runs
    import iat.isp
    import iat.model_global
    import iat.model_local
    from iat import tensor

    macs = []

    def counting_conv2d(x, w, bias, stride=1, padding=0, residuals=(), gelu_input=False):
        out = tensor.conv2d(x, w, bias, stride, padding, residuals, gelu_input)
        n, _, ho, wo = out.shape
        macs.append(n * ho * wo * w.size)
        return out

    def counting_matmul(a, b):
        out = tensor.matmul(a, b)
        macs.append(out.size * a.shape[-1])
        return out

    monkeypatch.setattr(iat.model_local, "conv2d", counting_conv2d)
    for module in (iat.model_local, iat.model_global, iat.isp):
        monkeypatch.setattr(module, "matmul", counting_matmul)
    p = iat_init(cfg, rng=philox(19))
    c, blocks = cfg.channels, cfg.blocks
    for h, w in [(37, 53), (21, 30)]:
        macs.clear()
        iat_forward(rand_image(np.random.default_rng(20), h, w), p)
        detail = estimate_flops_detail(cfg, h, w)
        estimated = round(detail["local"] * 1e9) + round(detail["global"] * 1e9)
        # left out of the estimate: the 9-MAC color-matrix product per pixel and
        # the two C^3 + C^2 norm folds per block (52,224 MACs at the default)
        assert sum(macs) - estimated - 9 * h * w == 4 * blocks * (c**3 + c**2)


def test_flops_estimate_builds_one_tree_per_config(monkeypatch):
    import iat.model

    cfg = IATConfig(channels=8, blocks=2, d=16)
    first = estimate_flops_detail(cfg, 37, 53)

    def no_init(*args, **kwargs):
        raise AssertionError("iat_init called again for a config already seen")

    monkeypatch.setattr(iat.model, "iat_init", no_init)
    assert estimate_flops_detail(cfg, 37, 53) == first
    assert estimate_flops_detail(cfg, 400, 600)["total"] > first["total"]


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    p = iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(11))
    path = tmp_path / "model.iatc"
    save_checkpoint(p, path, step=123)
    loaded, step = load_checkpoint(path)
    assert step == 123
    assert loaded.config == p.config
    a = dict(named_parameters(p))
    b = dict(named_parameters(loaded))
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_array_equal(a[name].data, b[name].data, err_msg=name)


def test_checkpoint_truncation_detected(tmp_path):
    p = iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(12))
    path = tmp_path / "model.iatc"
    save_checkpoint(p, path)
    buf = path.read_bytes()
    path.write_bytes(buf[: len(buf) // 2])
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_checkpoint_bitflip_detected(tmp_path):
    p = iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(13))
    path = tmp_path / "model.iatc"
    save_checkpoint(p, path)
    buf = bytearray(path.read_bytes())
    buf[len(buf) // 2] ^= 0x01
    path.write_bytes(bytes(buf))
    with pytest.raises(CorruptionError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.iatc"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_unknown_tensor_name(tmp_path):
    p = iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(30))
    path = tmp_path / "model.iatc"
    save_checkpoint(p, path)
    rewrite_header(path, lambda h: h["tensors"][0].update(name="local.nonexistent.weight"))
    with pytest.raises(FormatError, match="unknown tensor"):
        load_checkpoint(path)


def test_checkpoint_duplicate_tensor_name(tmp_path):
    # a second entry under a name already read must not silently replace it
    p = iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(30))
    path = tmp_path / "model.iatc"
    save_checkpoint(p, path)
    rewrite_header(path, lambda h: h["tensors"].append(dict(h["tensors"][0])))
    first, _ = next(named_parameters(p))
    with pytest.raises(FormatError, match=f"{first!r} is listed twice"):
        load_checkpoint(path)


# header edits that leave the CRC valid but the tensor directory malformed
MALFORMED_DIRECTORIES = {
    "no-offset": lambda h: h["tensors"][0].pop("offset"),
    "negative-offset": lambda h: h["tensors"][0].update(offset=-8),
    "string-offset": lambda h: h["tensors"][0].update(offset="0"),
    "float-nbytes": lambda h: h["tensors"][0].update(nbytes=h["tensors"][0]["nbytes"] + 0.0),
    "int-shape": lambda h: h["tensors"][0].update(shape=3),
    "list-name": lambda h: h["tensors"][0].update(name=["local"]),
    "string-directory": lambda h: h.update(tensors="abc"),
    "dict-directory": lambda h: h.update(tensors={"a": 1}),
    "int-entry": lambda h: h.update(tensors=[7]),
}


@pytest.mark.parametrize(
    "edit", MALFORMED_DIRECTORIES.values(), ids=MALFORMED_DIRECTORIES.keys()
)
def test_checkpoint_malformed_tensor_directory(tmp_path, edit):
    path = tmp_path / "model.iatc"
    save_checkpoint(iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(31)), path)
    rewrite_header(path, edit)
    with pytest.raises((FormatError, CorruptionError)):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "key,value", [("channels", 8.9), ("blocks", True), ("d", "16"), ("channels", 8.0)]
)
def test_checkpoint_model_size_must_be_int(tmp_path, key, value):
    path = tmp_path / "model.iatc"
    save_checkpoint(iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(32)), path)
    rewrite_header(path, lambda h: h["config"].update({key: value}))
    with pytest.raises(FormatError, match=f"'{key}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("key,value", [("channels", 0), ("blocks", -1), ("d", 7)])
def test_checkpoint_model_size_out_of_range(tmp_path, key, value):
    path = tmp_path / "model.iatc"
    save_checkpoint(iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(33)), path)
    rewrite_header(path, lambda h: h["config"].update({key: value}))
    with pytest.raises(FormatError, match="model.iatc"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [2.5, -4, True, "7"])
def test_checkpoint_step_must_be_nonnegative_int(tmp_path, value):
    path = tmp_path / "model.iatc"
    save_checkpoint(iat_init(IATConfig(channels=8, blocks=2, d=16), rng=philox(34)), path)
    rewrite_header(path, lambda h: h.update(step=value))
    with pytest.raises(FormatError, match="step"):
        load_checkpoint(path)


def test_checkpoint_preserves_config(tmp_path):
    cfg = IATConfig(channels=24, blocks=2, d=16)
    p = iat_init(cfg, rng=philox(14))
    path = tmp_path / "model.iatc"
    save_checkpoint(p, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.local.stem.weight.shape == (24, 3, 3, 3)


def test_checkpoint_load_restores_forward(tmp_path):
    cfg = IATConfig(channels=8, blocks=2, d=16)
    p = iat_init(cfg, rng=philox(15))
    rng = np.random.default_rng(16)
    for _, t in named_parameters(p):
        t.data = t.data + rng.normal(0, 0.05, t.data.shape).astype(np.float32)
    img = rand_image(rng, 9, 9)
    out_before, _ = iat_forward(img, p)
    path = tmp_path / "model.iatc"
    save_checkpoint(p, path)
    loaded, _ = load_checkpoint(path)
    out_after, _ = iat_forward(img, loaded)
    np.testing.assert_array_equal(out_before.data, out_after.data)


# ---------------------------------------------------------------------------
# end-to-end gradients (reduced config; the exhaustive run lives in acceptance)


def test_end_to_end_gradcheck_small():
    p = iat_init(IATConfig(channels=4, blocks=1, d=8), rng=philox(17), dtype=np.float64)
    rng = np.random.default_rng(18)
    for _, t in named_parameters(p):
        t.data = t.data + rng.normal(0, 0.05, t.data.shape)
    img = Tensor(rng.uniform(0.1, 0.9, (1, 3, 8, 8)))
    target = Tensor(rng.uniform(0, 1, (1, 3, 8, 8)))

    def loss_fn():
        out, _ = iat_forward(img, p)
        return smooth_l1(out, target)

    with Tape() as tape:
        tape.backward(loss_fn())
    names, tensors = zip(*named_parameters(p))
    numeric = numeric_grad(lambda: loss_fn().item(), [t.data for t in tensors], h=1e-4)
    for name, t, num in zip(names, tensors, numeric):
        assert_grads_close(t.grad, num, rtol=1e-3, atol=1e-8, label=name)
