import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iat.errors import ShapeError
from iat.model import iat_forward, iat_init, named_parameters
from iat.model_local import (
    Conv2d,
    LightNormParams,
    LocalBranchParams,
    LocalMaps,
    PemParams,
    fold_norm,
    local_branch_forward,
    local_branch_init,
    pem_init,
    pem_stack,
)
from iat.rng import philox
from iat.tensor import Tape, Tensor, conv2d, gelu, matmul, relu, reshape, tanh

from fdcheck import assert_grads_close, numeric_grad


def to_tensor64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


# ---------------------------------------------------------------------------
# light normalization, folded into the 1x1 conv after it


def conv1x1(weight, bias, dtype=np.float32):
    c = len(bias)
    return Conv2d(
        weight=Tensor(np.reshape(weight, (c, c, 1, 1)), requires_grad=True, dtype=dtype),
        bias=Tensor(bias, requires_grad=True, dtype=dtype),
    )


def test_fold_norm_identity_at_init():
    rng = np.random.default_rng(0)
    conv = pem_init(8, philox(0)).pw1
    conv.bias.data = rng.standard_normal(8).astype(np.float32)
    folded = fold_norm(LightNormParams.identity(8), conv)
    np.testing.assert_array_equal(folded.weight.data, conv.weight.data)
    np.testing.assert_array_equal(folded.bias.data, conv.bias.data)
    x = Tensor(rng.standard_normal((1, 8, 5, 5)).astype(np.float32))
    np.testing.assert_array_equal(folded(x).data, conv(x).data)


def test_fold_norm_scale_example():
    p = LightNormParams.identity(4)
    p.scale.data = np.full(4, 2.0, dtype=np.float32)
    x = Tensor(np.full((1, 4, 2, 2), 0.5, dtype=np.float32))
    out = fold_norm(p, conv1x1(np.eye(4), np.zeros(4)))(x)
    np.testing.assert_allclose(out.data, 1.0)


def test_fold_norm_matches_per_pixel_oracle():
    rng = np.random.default_rng(1)
    c = 6
    x = rng.standard_normal((1, c, 3, 4))
    p = LightNormParams.identity(c, dtype=np.float64)
    p.scale.data = rng.standard_normal(c)
    p.bias.data = rng.standard_normal(c)
    p.mix.data = rng.standard_normal((c, c))
    w, b = rng.standard_normal((c, c)), rng.standard_normal(c)
    folded = fold_norm(p, conv1x1(w, b, dtype=np.float64))
    np.testing.assert_allclose(
        folded.weight.data.reshape(c, c), w @ p.mix.data @ np.diag(p.scale.data), atol=1e-12
    )
    np.testing.assert_allclose(folded.bias.data, w @ (p.mix.data @ p.bias.data) + b, atol=1e-12)
    out = folded(Tensor(x))
    ref = np.zeros_like(x)
    for i in range(3):
        for j in range(4):
            ref[0, :, i, j] = w @ (p.mix.data @ (p.scale.data * x[0, :, i, j] + p.bias.data)) + b
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_pem_channel_mismatch():
    x = Tensor(np.zeros((1, 4, 2, 2), dtype=np.float32))
    with pytest.raises(ShapeError, match="pem_stack"):
        pem_stack(x, [pem_init(8, philox(0))])


# ---------------------------------------------------------------------------
# enhancement blocks


def light_norm_reference(x: Tensor, p: LightNormParams) -> Tensor:
    """The unfolded norm as one 1x1 pass over the pixels: mix @ (scale*x + bias)."""
    c = p.scale.shape[0]
    weight = reshape(p.mix * reshape(p.scale, (1, c)), (c, c, 1, 1))
    bias = reshape(matmul(p.mix, reshape(p.bias, (c, 1))), (c,))
    return conv2d(x, weight, bias)


def pem_forward_reference(x: Tensor, p: PemParams) -> Tensor:
    """The unfolded block: every norm, layer scale and residual a plane pass."""
    c = x.shape[1]
    u = x + p.pos_dw(x)
    spatial = p.pw2(gelu(p.dw(gelu(p.pw1(light_norm_reference(u, p.norm1))))))
    v = u + reshape(p.scale.k_spatial, (1, c, 1, 1)) * spatial
    channel = p.mix2(gelu(p.mix1(light_norm_reference(v, p.norm2))))
    return v + reshape(p.scale.k_channel, (1, c, 1, 1)) * channel


def perturbed_pem(channels, seed, dtype=np.float32) -> PemParams:
    """A block with N(0, 0.2) added to every parameter, norms and layer scales too."""
    p = pem_init(channels, philox(seed), dtype=dtype)
    rng = np.random.default_rng(seed)
    for _, t in named_parameters(p):
        t.data = (t.data + rng.normal(0, 0.2, t.shape)).astype(dtype)
    return p


def test_pem_zero_convs_is_identity():
    rng = philox(0)
    p = pem_init(8, rng)
    for name, t in named_parameters(p):
        if name.endswith("weight") or name.endswith("bias"):
            t.data = np.zeros_like(t.data)
    x = Tensor(np.random.default_rng(2).standard_normal((1, 8, 4, 6)).astype(np.float32))
    out = pem_stack(x, [p])
    np.testing.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize("hw", [(1, 1), (37, 53), (64, 64)])
def test_pem_forward_matches_reference(hw):
    # float32; folding reorders the sums, so the outputs (|y| up to ~13) agree to
    # a few 1e-6 absolute
    p = perturbed_pem(16, 12)
    x = Tensor(np.random.default_rng(13).standard_normal((1, 16) + hw).astype(np.float32))
    np.testing.assert_allclose(
        pem_stack(x, [p]).data, pem_forward_reference(x, p).data, rtol=1e-5, atol=1e-5
    )


def pem_grads(forward, p, x, r):
    """Input and parameter gradients of sum(forward(x) * r)."""
    for _, t in named_parameters(p):
        t.grad = None
    x.grad = None
    with Tape() as tape:
        tape.backward((forward(x, p) * Tensor(r)).sum())
    return [("x", x.grad)] + [(name, t.grad) for name, t in named_parameters(p)]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_pem_gradients_match_reference(dtype, tol):
    # tolerance relative to the largest entry of each gradient
    p = perturbed_pem(16, 14, dtype)
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((1, 16, 9, 11)), requires_grad=True, dtype=dtype)
    r = rng.standard_normal((1, 16, 9, 11)).astype(dtype)
    folded = pem_grads(lambda x, p: pem_stack(x, [p]), p, x, r)
    reference = pem_grads(pem_forward_reference, p, x, r)
    for (name, got), (_, want) in zip(folded, reference):
        assert got.dtype == want.dtype == dtype, name
        np.testing.assert_allclose(
            got, want, rtol=0, atol=tol * np.abs(want).max(), err_msg=name
        )


def test_pem_plane_op_budget():
    # a plane may pass through the folded convs, GELUs and residual adds only
    p = pem_init(8, philox(16))
    x = Tensor(np.random.default_rng(17).standard_normal((1, 8, 16, 20)).astype(np.float32))
    with Tape() as tape:
        pem_stack(x, [p])
        plane_ops = sum(out.shape == x.shape for out, _ in tape._ops)
    assert plane_ops == 11  # 6 convs, 3 GELUs, 2 adds


@pytest.mark.parametrize("hw", [(1, 1), (7, 13), (400, 600)])
def test_pem_preserves_arbitrary_resolution(hw):
    h, w = hw
    p = pem_init(4, philox(1))
    x = Tensor(np.random.default_rng(3).standard_normal((1, 4, h, w)).astype(np.float32))
    out = pem_stack(x, [p])
    assert out.shape == (1, 4, h, w)


def test_pem_gradients_match_fd():
    # norms and layer scales away from their init too, so the gradients of
    # their folds are checked where they are not trivial
    p = perturbed_pem(16, 2, dtype=np.float64)
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 16, 4, 4)))
    names, tensors = zip(*named_parameters(p))

    def fwd():
        return pem_stack(x, [p]).sum()

    with Tape() as tape:
        tape.backward(fwd())
    numeric = numeric_grad(lambda: fwd().item(), [t.data for t in tensors], h=1e-5)
    for name, t, num in zip(names, tensors, numeric):
        assert_grads_close(t.grad, num, rtol=1e-4, atol=1e-8, label=name)


# ---------------------------------------------------------------------------
# whole branch


def local_branch_forward_reference(img: Tensor, p: LocalBranchParams) -> LocalMaps:
    """Both stacks first, then both heads, one `pem_stack` call per block:
    every block's input and the gain features stay alive to the end."""
    stem_out = p.stem(img)
    feat_gain = stem_out
    for blk in p.gain_blocks:
        feat_gain = pem_stack(feat_gain, [blk])
    feat_gain = feat_gain + stem_out
    feat_offset = stem_out
    for blk in p.offset_blocks:
        feat_offset = pem_stack(feat_offset, [blk])
    feat_offset = feat_offset + stem_out
    return LocalMaps(
        gain=relu(p.gain_head(feat_gain)),
        offset=tanh(p.offset_head(feat_offset)),
    )


def perturbed_branch(seed) -> LocalBranchParams:
    """The default branch with N(0, 0.1) added to every parameter."""
    p = local_branch_init(rng=philox(seed))
    rng = np.random.default_rng(seed)
    for _, t in named_parameters(p):
        t.data = (t.data + rng.normal(0, 0.1, t.shape)).astype(np.float32)
    return p


@pytest.mark.parametrize("hw", [(37, 53), (400, 600)])
def test_branch_forward_matches_reference_bits(hw):
    p = perturbed_branch(20)
    img = Tensor(np.random.default_rng(21).uniform(0, 1, (1, 3) + hw).astype(np.float32))
    got, want = local_branch_forward(img, p), local_branch_forward_reference(img, p)
    np.testing.assert_array_equal(got.gain.data, want.gain.data)
    np.testing.assert_array_equal(got.offset.data, want.offset.data)


def branch_grads(forward, p, img, r_gain, r_offset):
    for _, t in named_parameters(p):
        t.grad = None
    img.grad = None
    with Tape() as tape:
        maps = forward(img, p)
        tape.backward((maps.gain * Tensor(r_gain) + maps.offset * Tensor(r_offset)).sum())
    return [("img", img.grad)] + [(name, t.grad) for name, t in named_parameters(p)]


def test_branch_gradients_match_reference_bits():
    # stem_out's four gradient contributions arrive in the same order, so every
    # gradient is bit-identical, not merely close
    p = perturbed_branch(22)
    rng = np.random.default_rng(23)
    img = Tensor(rng.uniform(0, 1, (1, 3, 37, 53)), requires_grad=True, dtype=np.float32)
    r_gain = rng.standard_normal((1, 3, 37, 53)).astype(np.float32)
    r_offset = rng.standard_normal((1, 3, 37, 53)).astype(np.float32)
    got = branch_grads(local_branch_forward, p, img, r_gain, r_offset)
    want = branch_grads(local_branch_forward_reference, p, img, r_gain, r_offset)
    for (name, a), (_, b) in zip(got, want):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_forward_plane_budget():
    # an untaped forward holds stem_out plus at most three 16-channel planes in
    # flight (about 4.3 planes with the conv strips and the global branch);
    # keeping block inputs or the gain features alive would reach about 7
    h, w = 400, 600
    p = iat_init(rng=philox(24))
    img = Tensor(np.random.default_rng(25).uniform(0, 1, (1, 3, h, w)).astype(np.float32))
    tracemalloc.start()
    try:
        iat_forward(img, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plane = 16 * h * w * np.dtype(np.float32).itemsize
    assert peak <= 5 * plane, peak / plane


def test_identity_at_init_exact():
    p = local_branch_init(rng=philox(5))
    rng = np.random.default_rng(6)
    img = Tensor(rng.uniform(0, 1, (1, 3, 9, 11)).astype(np.float32))
    maps = local_branch_forward(img, p)
    np.testing.assert_array_equal(maps.gain.data, np.ones_like(img.data))
    np.testing.assert_array_equal(maps.offset.data, np.zeros_like(img.data))
    f_out = img * maps.gain + maps.offset
    np.testing.assert_array_equal(f_out.data, img.data)


def test_default_parameter_count_in_budget():
    p = local_branch_init(rng=philox(7))
    total = sum(t.size for _, t in named_parameters(p))
    assert 10_000 <= total <= 30_000, total


def test_ablation_configs_constructible():
    for blocks, channels in [(2, 24), (4, 12)]:
        p = local_branch_init(channels=channels, blocks=blocks, rng=philox(8))
        assert len(p.gain_blocks) == blocks
        assert p.stem.weight.shape[0] == channels


def test_same_seed_identical_parameters():
    a = local_branch_init(rng=philox(9))
    b = local_branch_init(rng=philox(9))
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 10), st.integers(3, 10))
def test_map_range_contracts(seed, h, w):
    # gain >= 0 and |offset| < 1 for any parameters and any input
    rng = philox(seed)
    p = local_branch_init(channels=6, blocks=1, rng=rng)
    for _, t in named_parameters(p):
        t.data = rng.normal(0, 0.5, t.data.shape).astype(np.float32)
    img = Tensor(rng.uniform(0, 1, (1, 3, h, w)).astype(np.float32))
    maps = local_branch_forward(img, p)
    assert (maps.gain.data >= 0).all()
    # mathematically |tanh| < 1; float32 rounds saturated values to 1.0
    assert (np.abs(maps.offset.data) <= 1).all()


def test_no_dead_parameters_after_one_step():
    # at init the zero-weight heads block gradient into the stacks; after one
    # optimizer step the heads are nonzero and everything must receive signal
    from iat.training import AdamState, adam_step

    p = local_branch_init(channels=8, blocks=2, rng=philox(10))
    rng = np.random.default_rng(11)
    img = Tensor(rng.uniform(0.1, 0.9, (1, 3, 6, 6)).astype(np.float32))
    target = Tensor(rng.uniform(0, 1, (1, 3, 6, 6)).astype(np.float32))
    named = list(named_parameters(p))

    def backward_pass():
        with Tape() as tape:
            maps = local_branch_forward(img, p)
            out = img * maps.gain + maps.offset
            diff = out - target
            tape.backward((diff * diff).mean())

    backward_pass()
    for name, t in named:
        assert t.grad is not None and t.grad.shape == t.data.shape, name
    assert np.any(p.gain_head.weight.grad != 0)
    assert np.any(p.offset_head.weight.grad != 0)

    adam_step(named, AdamState(), lr=1e-3, weight_decay=0.0)
    backward_pass()
    dead = [name for name, t in named if not np.any(t.grad != 0)]
    assert dead == [], f"dead parameters after one step: {dead}"