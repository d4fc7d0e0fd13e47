import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iat.errors import ShapeError
from iat import model_local
from iat.model import (
    IATConfig,
    IATParams,
    iat_forward,
    iat_init,
    named_parameters,
)
from iat.model_local import (
    Conv2d,
    LightNormParams,
    LocalBranchParams,
    PemParams,
    fold_norm,
    fold_pem,
    local_branch_forward,
    local_branch_init,
    local_halo,
    pem_init,
    pem_stack,
)
from iat.rng import philox
from iat.tensor import Tape, Tensor, conv2d, gelu, matmul, relu, reshape, tanh

from fdcheck import assert_grads_close, numeric_grad


DEFAULT = IATConfig()


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
        pem_stack(x, [fold_pem(pem_init(8, philox(0)))])


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
    # the block is the identity, so the stack returns it plus the skip: x + x
    rng = philox(0)
    p = pem_init(8, rng)
    for name, t in named_parameters(p):
        if name.endswith("weight") or name.endswith("bias"):
            t.data = np.zeros_like(t.data)
    x = Tensor(np.random.default_rng(2).standard_normal((1, 8, 4, 6)).astype(np.float32))
    out = pem_stack(x, [fold_pem(p)])
    np.testing.assert_array_equal(out.data, x.data + x.data)


@pytest.mark.parametrize("hw", [(1, 1), (37, 53), (64, 64)])
def test_pem_forward_matches_reference(hw):
    # float32; folding reorders the sums, so the outputs (|y| up to ~13) agree to
    # a few 1e-6 absolute
    p = perturbed_pem(16, 12)
    x = Tensor(np.random.default_rng(13).standard_normal((1, 16) + hw).astype(np.float32))
    want = pem_forward_reference(x, p) + x  # the stack's skip
    np.testing.assert_allclose(pem_stack(x, [fold_pem(p)]).data, want.data, rtol=1e-5, atol=1e-5)


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
    folded = pem_grads(lambda x, p: pem_stack(x, [fold_pem(p)]), p, x, r)
    reference = pem_grads(lambda x, p: pem_forward_reference(x, p) + x, p, x, r)
    for (name, got), (_, want) in zip(folded, reference):
        assert got.dtype == want.dtype == dtype, name
        np.testing.assert_allclose(
            got, want, rtol=0, atol=tol * np.abs(want).max(), err_msg=name
        )


def test_pem_plane_op_budget():
    # a plane may pass through the folded convs only: the residuals are added
    # inside the convs that end each sub-block, and each GELU inside the conv
    # that reads it
    p = pem_init(8, philox(16))
    x = Tensor(np.random.default_rng(17).standard_normal((1, 8, 16, 20)).astype(np.float32))
    with Tape() as tape:
        pem_stack(x, [fold_pem(p)])
        plane_ops = sum(out.shape == x.shape for out, _ in tape._ops)
    assert plane_ops == 6


@pytest.mark.parametrize("hw", [(1, 1), (7, 13), (400, 600)])
def test_pem_preserves_arbitrary_resolution(hw):
    h, w = hw
    p = pem_init(4, philox(1))
    x = Tensor(np.random.default_rng(3).standard_normal((1, 4, h, w)).astype(np.float32))
    out = pem_stack(x, [fold_pem(p)])
    assert out.shape == (1, 4, h, w)


def test_pem_gradients_match_fd():
    # norms and layer scales away from their init too, so the gradients of
    # their folds are checked where they are not trivial
    p = perturbed_pem(16, 2, dtype=np.float64)
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((1, 16, 4, 4)))
    names, tensors = zip(*named_parameters(p))

    def fwd():
        return pem_stack(x, [fold_pem(p)]).sum()

    with Tape() as tape:
        tape.backward(fwd())
    numeric = numeric_grad(lambda: fwd().item(), [t.data for t in tensors], h=1e-5)
    for name, t, num in zip(names, tensors, numeric):
        assert_grads_close(t.grad, num, rtol=1e-4, atol=1e-8, label=name)


# ---------------------------------------------------------------------------
# whole branch


def folded_block_reference(x: Tensor, p: PemParams) -> Tensor:
    """One folded block with each residual a plane add of its own, where
    `pem_stack` adds them inside its convs: (conv + bias) + u is the same
    IEEE sum as u + (conv + bias)."""
    p = fold_pem(p)
    u = p.pos_dw(x)
    v = u + p.pw2(gelu(p.dw(gelu(p.pw1(u)))))
    return v + p.mix2(gelu(p.mix1(v)))


def local_branch_forward_reference(img: Tensor, p: LocalBranchParams) -> Tensor:
    """Both stacks first, then both heads, every residual and each stack's
    skip a plane add: every block's input and the gain features stay alive
    to the end. Returns f = img * gain + offset."""
    stem_out = p.stem(img)
    feat_gain = stem_out
    for blk in p.gain_blocks:
        feat_gain = folded_block_reference(feat_gain, blk)
    feat_gain = feat_gain + stem_out
    feat_offset = stem_out
    for blk in p.offset_blocks:
        feat_offset = folded_block_reference(feat_offset, blk)
    feat_offset = feat_offset + stem_out
    gain = relu(p.gain_head(feat_gain))
    offset = tanh(p.offset_head(feat_offset))
    return img * gain + offset


def perturbed_model(seed) -> IATParams:
    """The default model with N(0, 0.1) added to every parameter: no head is
    the identity, so a band that read too few rows would show in f."""
    p = iat_init(rng=philox(seed))
    rng = np.random.default_rng(seed)
    for _, t in named_parameters(p):
        t.data = (t.data + rng.normal(0, 0.1, t.shape)).astype(np.float32)
    return p


@pytest.mark.parametrize("hw", [(37, 53), (400, 600)])
def test_branch_forward_matches_reference_bits(hw):
    p = perturbed_model(20).local
    img = Tensor(np.random.default_rng(21).uniform(0, 1, (1, 3) + hw).astype(np.float32))
    got, want = local_branch_forward(img, p), local_branch_forward_reference(img, p)
    np.testing.assert_array_equal(got.data, want.data)


def branch_grads(forward, p, img, r):
    for _, t in named_parameters(p):
        t.grad = None
    img.grad = None
    with Tape() as tape:
        tape.backward((forward(img, p) * Tensor(r)).sum())
    return [("img", img.grad)] + [(name, t.grad) for name, t in named_parameters(p)]


def test_branch_gradients_match_reference_bits():
    # stem_out's four gradient contributions arrive in the same order, so every
    # gradient is bit-identical, not merely close
    p = perturbed_model(22).local
    rng = np.random.default_rng(23)
    img = Tensor(rng.uniform(0, 1, (1, 3, 37, 53)), requires_grad=True, dtype=np.float32)
    r = rng.standard_normal((1, 3, 37, 53)).astype(np.float32)
    got = branch_grads(local_branch_forward, p, img, r)
    want = branch_grads(local_branch_forward_reference, p, img, r)
    for (name, a), (_, b) in zip(got, want):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_forward_plane_budget():
    # the untaped local branch runs in bands and writes only f's rows, so its
    # 16-channel planes and its gain and offset maps are band-sized: 1.63
    # planes at 400x600, mostly one band's. At 800x1200 the encoder sets the
    # peak (15.9 H W floats): 0.99 planes. The other stages stay below it:
    # the local branch's bands and f at 14.1 H W floats, compose_iat at 12.0
    # and the prediction module at 12.5, the encoder output plus kv, since its
    # pos_dw applies the encoder's output GELU as it reads it and K and V are
    # never planes (22.5 and 1.41 planes with both). One band reached 4.3,
    # and keeping block inputs or gain features alive about 7
    p = iat_init(rng=philox(24))
    for (h, w), planes in (((400, 600), 1.75), ((800, 1200), 1.05)):
        img = Tensor(np.random.default_rng(25).uniform(0, 1, (1, 3, h, w)).astype(np.float32))
        tracemalloc.start()
        try:
            iat_forward(img, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        plane = 16 * h * w * np.dtype(np.float32).itemsize
        assert peak <= planes * plane, (h, w, peak / plane)


# ---------------------------------------------------------------------------
# row bands


def forwards(p, img) -> list[np.ndarray]:
    out, f_out = iat_forward(img, p)
    return [out.data, f_out.data, local_branch_forward(img, p.local).data]


def test_banded_forward_matches_one_band_at_band_edges(monkeypatch):
    # 5-row bands with the 8-row halo: 4 to 6 rows are BAND_ROWS - 1 to + 1,
    # 17 leaves a last band of 2 rows (shorter than the halo), 23 and 37 are odd
    p = perturbed_model(31)
    rows = 5
    assert 2 * rows + local_halo(p.local) - 1 == 17
    for h in (4, 5, 6, 17, 23, 37):
        img = Tensor(np.random.default_rng(h).uniform(0, 1, (1, 3, h, 53)).astype(np.float32))
        monkeypatch.setattr(model_local, "BAND_ROWS", h)
        want = forwards(p, img)
        monkeypatch.setattr(model_local, "BAND_ROWS", rows)
        for got, ref in zip(forwards(p, img), want):
            np.testing.assert_array_equal(got, ref, err_msg=f"height {h}")


@pytest.mark.parametrize("hw", [(400, 600), (600, 400)])
def test_banded_forward_matches_one_band(monkeypatch, hw):
    # f_out is the local branch's output, so it checks the local bands as well
    p = perturbed_model(32)
    img = Tensor(np.random.default_rng(33).uniform(0, 1, (1, 3) + hw).astype(np.float32))
    assert hw[0] > model_local.BAND_ROWS
    out, f_out = iat_forward(img, p)
    monkeypatch.setattr(model_local, "BAND_ROWS", hw[0])
    want_out, want_f = iat_forward(img, p)
    np.testing.assert_array_equal(out.data, want_out.data)
    np.testing.assert_array_equal(f_out.data, want_f.data)


@pytest.mark.parametrize("blocks, halo", [(DEFAULT.blocks, 8), (2, 6)])
def test_halo_is_the_receptive_field(blocks, halo):
    # changing input row r changes f rows [r - halo, r + halo] and no other;
    # float64 so that changes at the field's edge do not round away
    p = local_branch_init(DEFAULT.channels, blocks, philox(34))
    rng = np.random.default_rng(35)
    for _, t in named_parameters(p):
        t.data = t.data.astype(np.float64) + rng.normal(0, 0.3, t.shape)
    assert local_halo(p) == halo
    h, w, r = 40, 12, 19
    a = rng.uniform(0, 1, (1, 3, h, w))
    b = a.copy()
    b[:, :, r] = rng.uniform(0, 1, (3, w))
    fa, fb = (local_branch_forward(Tensor(x), p) for x in (a, b))
    moved = fa.data != fb.data
    rows = np.flatnonzero(moved.any(axis=(0, 1, 3)))
    np.testing.assert_array_equal(rows, np.arange(r - halo, r + halo + 1))


def test_taped_forward_is_one_band(monkeypatch):
    # under a tape the forward is one band at any height: the same ops on the
    # tape and bit-identical gradients, whatever BAND_ROWS says
    p = perturbed_model(36)
    rng = np.random.default_rng(37)
    img = Tensor(rng.uniform(0, 1, (1, 3, 23, 17)).astype(np.float32))
    weights = Tensor(rng.standard_normal((1, 3, 23, 17)).astype(np.float32))
    runs = []
    for rows in (23, 5):
        monkeypatch.setattr(model_local, "BAND_ROWS", rows)
        for _, t in named_parameters(p):
            t.grad = None
        with Tape() as tape:
            out, _ = iat_forward(img, p)
            ops = len(tape)
            tape.backward((out * weights).sum())
        runs.append((ops, [t.grad for _, t in named_parameters(p)]))
    (ops_one, grads_one), (ops_banded, grads_banded) = runs
    assert ops_banded == ops_one
    for name, a, b in zip(dict(named_parameters(p)), grads_banded, grads_one):
        np.testing.assert_array_equal(a, b, err_msg=name)


def test_identity_at_init_exact():
    p = local_branch_init(DEFAULT.channels, DEFAULT.blocks, philox(5))
    rng = np.random.default_rng(6)
    img = Tensor(rng.uniform(0, 1, (1, 3, 9, 11)).astype(np.float32))
    np.testing.assert_array_equal(local_branch_forward(img, p).data, img.data)


def test_default_parameter_count_in_budget():
    p = local_branch_init(DEFAULT.channels, DEFAULT.blocks, philox(7))
    total = sum(t.size for _, t in named_parameters(p))
    assert 10_000 <= total <= 30_000, total


def test_ablation_configs_constructible():
    for blocks, channels in [(2, 24), (4, 12)]:
        p = local_branch_init(channels=channels, blocks=blocks, rng=philox(8))
        assert len(p.gain_blocks) == blocks
        assert p.stem.weight.shape[0] == channels


def test_same_seed_identical_parameters():
    a = local_branch_init(DEFAULT.channels, DEFAULT.blocks, philox(9))
    b = local_branch_init(DEFAULT.channels, DEFAULT.blocks, philox(9))
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(3, 10), st.integers(3, 10))
def test_map_range_contracts(seed, h, w):
    # gain >= 0 and |offset| < 1 for any parameters and any input, read
    # through f = img * gain + offset
    rng = philox(seed)
    p = local_branch_init(channels=6, blocks=1, rng=rng)
    for _, t in named_parameters(p):
        t.data = rng.normal(0, 0.5, t.data.shape).astype(np.float32)
    # at img = 0, f is the offset; mathematically |tanh| < 1, and float32
    # rounds saturated values to 1.0
    zero = Tensor(np.zeros((1, 3, h, w), dtype=np.float32))
    assert (np.abs(local_branch_forward(zero, p).data) <= 1).all()
    # with the offset head zeroed the offset is tanh(0) = 0, so for img > 0
    # f >= 0 exactly where gain >= 0
    for t in (p.offset_head.weight, p.offset_head.bias):
        t.data = np.zeros_like(t.data)
    img = Tensor(rng.uniform(0.01, 1, (1, 3, h, w)).astype(np.float32))
    assert (local_branch_forward(img, p).data >= 0).all()


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
            diff = local_branch_forward(img, p) - target
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