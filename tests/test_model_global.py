import numpy as np
import pytest

from iat.errors import InputError
from iat.isp import CLAMP_EPS, apply_global
from iat.model import IATConfig, named_parameters
from iat.model_global import (
    cross_attention,
    encoder_forward,
    global_branch_init,
    gpm_forward,
    shifted_softplus,
)
from iat.rng import philox
from iat.tensor import Tape, Tensor

from fdcheck import assert_grads_close, numeric_grad


def make_branch(d=16, seed=0, dtype=np.float32):
    return global_branch_init(d=d, rng=philox(seed), dtype=dtype)


# ---------------------------------------------------------------------------
# encoder


@pytest.mark.parametrize(
    "h,w,eh,ew", [(256, 256, 64, 64), (600, 400, 150, 100), (5, 4, 2, 1), (37, 53, 10, 14)]
)
def test_encoder_output_size(h, w, eh, ew):
    enc, _ = make_branch()
    img = Tensor(np.random.default_rng(0).random((1, 3, h, w)).astype(np.float32))
    out = encoder_forward(img, enc)
    assert out.shape == (1, enc.conv2.weight.shape[0], eh, ew)


def test_encoder_rejects_tiny_images():
    enc, _ = make_branch()
    with pytest.raises(InputError):
        encoder_forward(Tensor(np.zeros((1, 3, 3, 8))), enc)


def test_encoder_gradients_spot_check():
    enc, _ = make_branch(d=8, dtype=np.float64)
    rng = np.random.default_rng(1)
    img = Tensor(rng.random((1, 3, 5, 6)))

    def fwd():
        return encoder_forward(img, enc).sum()

    with Tape() as tape:
        tape.backward(fwd())
    w1, w2 = enc.conv1.weight, enc.conv2.weight
    n1, n2 = numeric_grad(lambda: fwd().item(), [w1.data, w2.data])
    assert_grads_close(w1.grad, n1, label="conv1")
    assert_grads_close(w2.grad, n2, label="conv2")


# ---------------------------------------------------------------------------
# cross attention


def test_attention_rows_sum_to_one():
    from iat.tensor import matmul, permute, reshape, softmax

    d = 16
    _, gpm = make_branch(d=d, seed=2)
    rng = np.random.default_rng(3)
    gpm.queries.data = rng.standard_normal((10, d)).astype(np.float32)
    feats = Tensor(rng.standard_normal((1, d, 4, 5)).astype(np.float32))
    kv = feats + gpm.pos_dw(feats)
    kv = permute(reshape(kv, (d, 20)), (1, 0))
    k = matmul(kv, gpm.w_k)
    scores = matmul(gpm.queries, permute(k, (1, 0))) * (1.0 / np.sqrt(d))
    attn = softmax(scores)
    np.testing.assert_allclose(attn.data.sum(axis=1), np.ones(10), atol=1e-6)


def test_attention_spatial_permutation_invariance_without_positional():
    # zero positional conv -> attention cannot see position -> permuting the
    # flattened feature columns leaves the output unchanged
    d = 16
    _, gpm = make_branch(d=d, seed=4)
    rng = np.random.default_rng(5)
    gpm.queries.data = rng.standard_normal((10, d)).astype(np.float32)
    feats_arr = rng.standard_normal((1, d, 3, 4)).astype(np.float32)

    def run(arr, zero_pos):
        if zero_pos:
            gpm.pos_dw.weight.data = np.zeros_like(gpm.pos_dw.weight.data)
            gpm.pos_dw.bias.data = np.zeros_like(gpm.pos_dw.bias.data)
        return cross_attention(gpm.queries, Tensor(arr), gpm).data

    perm = rng.permutation(12)
    permuted = feats_arr.reshape(1, d, 12)[:, :, perm].reshape(1, d, 3, 4).copy()

    with_pos_a = run(feats_arr, zero_pos=False)
    with_pos_b = run(permuted, zero_pos=False)
    assert not np.allclose(with_pos_a, with_pos_b, atol=1e-6)

    no_pos_a = run(feats_arr, zero_pos=True)
    no_pos_b = run(permuted, zero_pos=True)
    np.testing.assert_allclose(no_pos_a, no_pos_b, atol=1e-5)


# ---------------------------------------------------------------------------
# decoding


def test_identity_at_init_bit_exact():
    enc, gpm = make_branch(d=16, seed=6)
    rng = np.random.default_rng(7)
    for h, w in [(4, 4), (9, 17), (40, 30)]:
        img = Tensor(rng.random((1, 3, h, w)).astype(np.float32))
        gp = gpm_forward(encoder_forward(img, enc), gpm)
        np.testing.assert_array_equal(gp.color_matrix.data, np.eye(3, dtype=np.float32))
        assert gp.gamma.item() == 1.0  # bit-exact
    assert CLAMP_EPS == 1e-8  # the floor apply_global clamps to


def test_shifted_softplus_contract():
    zero = Tensor(np.zeros(()))
    assert shifted_softplus(zero).item() == 1.0
    xs = Tensor(np.linspace(-30, 30, 101))
    assert (shifted_softplus(xs).data > 0).all()
    # strictly increasing where increments are above float resolution
    mid = Tensor(np.linspace(-8, 8, 101))
    assert np.all(np.diff(shifted_softplus(mid).data) > 0)
    # slope 1 at 0
    h = 1e-5
    lo = shifted_softplus(Tensor(np.asarray(-h))).item()
    hi = shifted_softplus(Tensor(np.asarray(h))).item()
    assert abs((hi - lo) / (2 * h) - 1.0) < 1e-6


def test_gamma_positive_for_random_parameters():
    enc, gpm = make_branch(d=16, seed=8)
    rng = np.random.default_rng(9)
    for trial in range(10):
        for _, t in named_parameters(gpm):
            t.data = rng.normal(0, 1.0, t.data.shape).astype(np.float32)
        img = Tensor(rng.random((1, 3, 8, 8)).astype(np.float32))
        gp = gpm_forward(encoder_forward(img, enc), gpm)
        assert gp.gamma.item() > 0


def test_single_step_moves_gamma_toward_target():
    from iat.training import AdamState, adam_step

    enc, gpm = make_branch(d=16, seed=10)
    rng = np.random.default_rng(11)
    img = Tensor(rng.uniform(0.1, 0.9, (1, 3, 8, 8)).astype(np.float32))
    from iat.isp import GlobalParams

    target = apply_global(img, GlobalParams.from_values(np.eye(3), 2.0))
    target = Tensor(target.data.astype(np.float32))
    params = list(named_parameters(gpm)) + list(named_parameters(enc))
    state = AdamState()
    with Tape() as tape:
        gp = gpm_forward(encoder_forward(img, enc), gpm)
        out = apply_global(img, gp)
        diff = out - target
        tape.backward((diff * diff).mean())
    adam_step(params, state, lr=1e-3, weight_decay=0.0)
    gp_after = gpm_forward(encoder_forward(img, enc), gpm)
    assert gp_after.gamma.item() > 1.0  # moved strictly toward 2


def test_default_width_parameter_count():
    enc, gpm = global_branch_init(IATConfig().d, philox(12))
    total = sum(t.size for _, t in named_parameters(enc))
    total += sum(t.size for _, t in named_parameters(gpm))
    assert 50_000 <= total <= 90_000, total


def test_same_seed_identical():
    a_enc, a_gpm = make_branch(seed=13)
    b_enc, b_gpm = make_branch(seed=13)
    for (na, ta), (nb, tb) in zip(named_parameters(a_gpm), named_parameters(b_gpm)):
        np.testing.assert_array_equal(ta.data, tb.data)
