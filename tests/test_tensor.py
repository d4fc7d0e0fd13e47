import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iat import tensor
from iat.errors import ConfigurationError, ContractError, ShapeError
from iat.tensor import (
    Tape,
    Tensor,
    absolute,
    activation,
    conv2d,
    elementwise,
    matmul,
    narrow,
    parameter,
    permute,
    pow_clamped,
    reduce,
    reshape,
    softmax,
    softplus,
)

from fdcheck import assert_grads_close, numeric_grad

RNG = np.random.default_rng(0)


def p64(shape, rng=RNG, scale=1.0):
    return parameter(scale * rng.standard_normal(shape), dtype=np.float64)


def conv2d_loop(x, w, bias, stride, padding, groups):
    """Sextuple-loop reference convolution (the independent oracle)."""
    n_b, cin, h, wdt = x.shape
    cout, cpg, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wdt + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    dpg = cout // groups
    out = np.zeros((n_b, cout, ho, wo), dtype=x.dtype)
    for n in range(n_b):
        for co in range(cout):
            gi = co // dpg
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0 if bias is None else float(bias[co])
                    for c in range(cpg):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    w[co, c, ky, kx]
                                    * xp[n, gi * cpg + c, i * stride + ky, j * stride + kx]
                                )
                    out[n, co, i, j] = acc
    return out


def conv2d_taps_reference(x, w, bias, stride, padding, groups):
    """Per-tap NCHW forward convolution, the kernel before flat windows.

    Each tap is a 2-d strided slice of the padded input: depthwise multiplies
    it by a (C, 1, 1) weight and adds, full runs one tensordot per tap into
    (Cout, N, Ho, Wo). Both sum the taps in the order conv2d does, then add
    the bias, so depthwise results must match bit for bit.
    """
    n, cin, h, wdt = x.shape
    cout, cpg, kh, kw = w.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wdt + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    taps = [
        (dy, dx, np.s_[:, :, dy : dy + stride * ho : stride, dx : dx + stride * wo : stride])
        for dy in range(kh)
        for dx in range(kw)
    ]
    if groups != 1:
        wc = w[:, 0, :, :, None, None]
        (dy, dx, sl), *rest = taps
        data = wc[:, dy, dx] * xp[sl]
        for dy, dx, sl in rest:
            data += wc[:, dy, dx] * xp[sl]
    else:
        acc = None
        for dy, dx, sl in taps:
            c = np.tensordot(w[:, :, dy, dx], xp[sl], axes=([1], [1]))
            acc = c if acc is None else acc + c
        data = np.ascontiguousarray(np.moveaxis(acc, 0, 1))
    if bias is not None:
        data += bias[None, :, None, None]
    return data


# ---------------------------------------------------------------------------
# elementwise


def test_add_example():
    out = elementwise(Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 1.0, 1.0]), "add")
    np.testing.assert_array_equal(out.data, [2.0, 3.0, 4.0])


def test_mul_by_ones_is_identity():
    x = Tensor(RNG.random((2, 3, 4)))
    out = x * Tensor(np.ones((2, 3, 4), dtype=np.float32))
    np.testing.assert_array_equal(out.data, x.data)


def test_incompatible_shapes_name_both():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4,\)"):
        elementwise(Tensor(np.zeros((2, 3))), Tensor(np.zeros(4)), "add")


def test_grad_of_sum_a_mul_b_equals_b():
    a = p64((3, 4))
    b = p64((3, 4))
    with Tape() as tape:
        loss = (a * b).sum()
        tape.backward(loss)
    np.testing.assert_allclose(a.grad, b.data, rtol=0, atol=0)
    (num,) = numeric_grad(lambda: float((a.data * b.data).sum()), [a.data])
    assert_grads_close(a.grad, num, label="a*b sum")


def test_broadcast_grad_has_parameter_shape():
    a = p64((3, 1))
    b = p64((1, 4))
    with Tape() as tape:
        loss = (a * b).sum()
        tape.backward(loss)
    assert a.grad.shape == (3, 1)
    assert b.grad.shape == (1, 4)
    na, nb = numeric_grad(lambda: float((a.data * b.data).sum()), [a.data, b.data])
    assert_grads_close(a.grad, na, label="broadcast a")
    assert_grads_close(b.grad, nb, label="broadcast b")


def test_sub_gradients():
    a = p64((5,))
    b = p64((5,))
    with Tape() as tape:
        loss = (a - b).sum()
        tape.backward(loss)
    np.testing.assert_array_equal(a.grad, np.ones(5))
    np.testing.assert_array_equal(b.grad, -np.ones(5))


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(["add", "sub", "mul"]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_elementwise_matches_numpy(rows, cols, kind, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)).astype(np.float32)
    b = rng.standard_normal((rows, 1)).astype(np.float32)
    out = elementwise(Tensor(a), Tensor(b), kind)
    ref = {"add": a + b, "sub": a - b, "mul": a * b}[kind]
    np.testing.assert_array_equal(out.data, ref)


def test_absolute_subgradient():
    x = parameter([-2.0, 0.0, 3.0], dtype=np.float64)
    with Tape() as tape:
        loss = absolute(x).sum()
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [-1.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# conv2d


def test_conv1x1_identity_permutation():
    x = Tensor(RNG.random((1, 3, 4, 5)).astype(np.float32))
    w = np.zeros((3, 3, 1, 1), dtype=np.float32)
    w[0, 2], w[1, 0], w[2, 1] = 1, 1, 1  # out = (B, R, G)
    out = conv2d(x, Tensor(w))
    np.testing.assert_array_equal(out.data, x.data[:, [2, 0, 1]])


def test_depthwise_center_one_is_identity():
    c = 6
    x = Tensor(RNG.random((1, c, 5, 7)).astype(np.float32))
    w = np.zeros((c, 1, 3, 3), dtype=np.float32)
    w[:, 0, 1, 1] = 1.0
    out = conv2d(x, Tensor(w), padding=1, groups=c)
    np.testing.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize(
    "n,cin,cout,h,w,k,stride,padding,groups",
    [
        (2, 3, 4, 5, 5, 3, 1, 1, 1),  # full 3x3
        (1, 4, 6, 6, 7, 3, 2, 1, 1),  # full 3x3, stride 2
        (1, 5, 5, 4, 4, 3, 1, 1, 5),  # depthwise 3x3
        (2, 4, 4, 5, 6, 3, 1, 1, 4),  # depthwise 3x3, batch 2
        (2, 2, 3, 5, 6, 1, 1, 0, 1),  # 1x1
        (1, 3, 4, 7, 7, 3, 2, 0, 1),
    ],
)
def test_conv_matches_loop_oracle(n, cin, cout, h, w, k, stride, padding, groups):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, cin, h, w))
    wt = rng.standard_normal((cout, cin // groups, k, k))
    b = rng.standard_normal(cout)
    out = conv2d(
        Tensor(x), Tensor(wt), Tensor(b), stride=stride, padding=padding, groups=groups
    )
    ref = conv2d_loop(x, wt, b, stride, padding, groups)
    np.testing.assert_allclose(out.data, ref, atol=1e-6)


# (cin, cout, k, stride, padding, groups) of every conv the default model runs
MODEL_CONVS = [
    (3, 16, 3, 1, 1, 1),  # local stem
    (16, 16, 3, 1, 1, 16),  # PEM depthwise
    (16, 16, 1, 1, 0, 1),  # PEM 1x1 and light norm
    (16, 3, 3, 1, 1, 1),  # gain/offset heads
    (3, 40, 3, 2, 1, 1),  # encoder conv1
    (40, 80, 3, 2, 1, 1),  # encoder conv2
    (80, 80, 3, 1, 1, 80),  # query positional depthwise
]


@pytest.mark.parametrize(
    "n,h,w,conv,multi_strip",
    [(1, 64, 64, c, False) for c in MODEL_CONVS]
    + [(1, 37, 53, c, False) for c in MODEL_CONVS]
    + [
        (2, 37, 53, (16, 16, 3, 1, 1, 16), False),
        (2, 37, 53, (40, 80, 3, 2, 1, 1), False),
        # two or more strips, the last one ragged
        (1, 70, 130, (16, 16, 3, 1, 1, 16), True),
        (1, 70, 50, (40, 80, 3, 2, 1, 1), True),
        (1, 70, 130, (16, 16, 1, 1, 0, 1), True),
        (2, 33, 130, (16, 16, 3, 1, 1, 16), True),
    ],
)
def test_conv_matches_taps_reference(n, h, w, conv, multi_strip):
    cin, cout, k, stride, padding, groups = conv
    rng = np.random.default_rng(h * w + cin)
    x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
    wt = rng.standard_normal((cout, cin // groups, k, k)).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32)
    out = conv2d(
        Tensor(x), Tensor(wt), Tensor(b), stride=stride, padding=padding, groups=groups
    ).data
    ref = conv2d_taps_reference(x, wt, b, stride, padding, groups)
    if multi_strip:
        rows_per_strip = tensor._STRIP_FLOATS // (n * cout * (w + 2 * padding))
        ho = ref.shape[2]
        assert ho > rows_per_strip and ho % rows_per_strip, "want >= 2 strips, last ragged"
    if groups != 1:
        np.testing.assert_array_equal(out, ref)
    else:
        # BLAS may block the per-tap gemms differently from tensordot's
        np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-6)


def test_conv_group_mismatch():
    x = Tensor(np.zeros((1, 3, 4, 4)))
    w = Tensor(np.zeros((4, 3, 3, 3)))
    with pytest.raises(ConfigurationError):
        conv2d(x, w, groups=2)
    # a grouped conv that is neither full nor depthwise is not supported
    x = Tensor(np.zeros((1, 4, 6, 7)))
    w = Tensor(np.zeros((6, 2, 3, 3)))
    with pytest.raises(ConfigurationError, match="groups=2"):
        conv2d(x, w, padding=1, groups=2)


CONV_FD_CASES = [  # n, cin, cout, k, stride, padding, groups, width
    (1, 3, 4, 3, 1, 1, 1, 6),  # full 3x3
    (2, 3, 4, 3, 2, 1, 1, 6),  # full 3x3, stride 2, batch 2
    (1, 4, 4, 3, 2, 1, 4, 6),  # depthwise 3x3, stride 2
    (2, 4, 4, 3, 1, 1, 4, 6),  # depthwise 3x3, batch 2
    (1, 3, 5, 3, 1, 0, 1, 6),
    (1, 3, 5, 1, 1, 0, 1, 6),  # 1x1
    (1, 4, 4, 1, 1, 0, 4, 6),  # depthwise 1x1
    # an odd width leaves a partial last stride: its junk grid columns must not leak
    (2, 3, 4, 3, 2, 1, 1, 7),
    (2, 3, 3, 3, 2, 1, 3, 7),
]


@pytest.mark.parametrize(
    "n,cin,cout,k,stride,padding,groups,width",
    CONV_FD_CASES,
    # the default width 6 is left out of the ids
    ids=["-".join(map(str, c[:7] if c[7] == 6 else c)) for c in CONV_FD_CASES],
)
def test_conv_gradients_match_fd(n, cin, cout, k, stride, padding, groups, width):
    rng = np.random.default_rng(11)
    x = p64((n, cin, 5, width), rng)
    w = p64((cout, cin // groups, k, k), rng, 0.5)
    b = p64((cout,), rng)

    def fwd():
        y = conv2d(x, w, b, stride=stride, padding=padding, groups=groups)
        return (y * y).sum()

    with Tape() as tape:
        tape.backward(fwd())
    nx, nw, nb = numeric_grad(lambda: fwd().item(), [x.data, w.data, b.data])
    assert_grads_close(x.grad, nx, label="conv x")
    assert_grads_close(w.grad, nw, label="conv w")
    assert_grads_close(b.grad, nb, label="conv bias")


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    a = Tensor(RNG.random((3, 3)).astype(np.float32))
    out = matmul(a, Tensor(np.eye(3, dtype=np.float32)))
    np.testing.assert_allclose(out.data, a.data, atol=1e-7)


def test_matmul_example():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_inner_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_gradients_match_fd():
    a = p64((3, 4))
    b = p64((4, 2))
    with Tape() as tape:
        tape.backward((matmul(a, b) * matmul(a, b)).sum())
    na, nb = numeric_grad(
        lambda: float(((a.data @ b.data) ** 2).sum()), [a.data, b.data]
    )
    assert_grads_close(a.grad, na, label="matmul a")
    assert_grads_close(b.grad, nb, label="matmul b")


def test_matmul_batched_broadcast_gradients():
    a = p64((2, 3, 4))
    b = p64((4, 5))  # broadcast over the leading batch dim
    with Tape() as tape:
        tape.backward((matmul(a, b)).sum())
    na, nb = numeric_grad(lambda: float((a.data @ b.data).sum()), [a.data, b.data])
    assert b.grad.shape == (4, 5)
    assert_grads_close(a.grad, na, label="batched a")
    assert_grads_close(b.grad, nb, label="batched b")


# ---------------------------------------------------------------------------
# pow_clamped


def test_pow_clamped_values():
    g1 = Tensor(1.0)
    out = pow_clamped(Tensor([0.25]), g1, eps=1e-8)
    np.testing.assert_allclose(out.data, [0.25])
    out = pow_clamped(Tensor([0.5]), Tensor(2.0), eps=1e-8)
    np.testing.assert_allclose(out.data, [0.25])


def test_pow_clamped_clamp_branch_zero_grad():
    x = parameter([-0.1], dtype=np.float64)
    with Tape() as tape:
        out = pow_clamped(x, Tensor(2.0, dtype=np.float64), eps=1e-8)
        tape.backward(out.sum())
    np.testing.assert_allclose(out.data, [1e-16])
    np.testing.assert_array_equal(x.grad, [0.0])


def test_pow_clamped_bad_eps():
    with pytest.raises(ConfigurationError):
        pow_clamped(Tensor([1.0]), Tensor(1.0), eps=0.0)


def test_pow_clamped_gradients_match_fd():
    rng = np.random.default_rng(3)
    x = parameter(rng.uniform(0.05, 1.5, (3, 4)), dtype=np.float64)
    gamma = parameter(0.7, dtype=np.float64)

    def fwd():
        return pow_clamped(x, gamma, eps=1e-8).sum()

    with Tape() as tape:
        tape.backward(fwd())
    nx, ng = numeric_grad(lambda: fwd().item(), [x.data, gamma.data])
    assert_grads_close(x.grad, nx, label="pow x")
    assert_grads_close(gamma.grad, ng, label="pow gamma")


# ---------------------------------------------------------------------------
# activations / softmax / softplus


def test_activation_values():
    out = activation(Tensor([-1.0, 2.0]), "relu")
    np.testing.assert_array_equal(out.data, [0.0, 2.0])
    assert activation(Tensor([0.0]), "tanh").data[0] == 0.0
    with pytest.raises(ConfigurationError):
        activation(Tensor([0.0]), "sigmoid")


@pytest.mark.parametrize("kind", ["relu", "tanh", "gelu"])
def test_activation_gradients_match_fd(kind):
    rng = np.random.default_rng(5)
    x = parameter(rng.standard_normal((4, 5)) + 0.1, dtype=np.float64)

    def fwd():
        return activation(x, kind).sum()

    with Tape() as tape:
        tape.backward(fwd())
    (nx,) = numeric_grad(lambda: fwd().item(), [x.data])
    assert_grads_close(x.grad, nx, label=kind)


def test_softplus_stable_and_grad():
    big = softplus(Tensor([1000.0, -1000.0]))
    assert np.isfinite(big.data).all()
    np.testing.assert_allclose(big.data[0], 1000.0)
    x = p64((6,))
    with Tape() as tape:
        tape.backward(softplus(x).sum())
    (nx,) = numeric_grad(lambda: softplus(x).item() if x.data.size == 1 else float(np.logaddexp(0, x.data).sum()), [x.data])
    assert_grads_close(x.grad, nx, label="softplus")


def test_softmax_uniform_and_stability():
    out = softmax(Tensor([1.0, 1.0, 1.0, 1.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.25] * 4)
    out = softmax(Tensor([1000.0, 1000.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    x = Tensor(RNG.standard_normal((5, 7)).astype(np.float32))
    out = softmax(x, axis=1)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-6)
    assert (out.data > 0).all()


def test_softmax_gradients_match_fd():
    x = p64((3, 4))
    c = np.arange(12, dtype=np.float64).reshape(3, 4)  # break symmetry

    def fwd():
        return (softmax(x, axis=1) * Tensor(c)).sum()

    with Tape() as tape:
        tape.backward(fwd())
    (nx,) = numeric_grad(lambda: fwd().item(), [x.data])
    assert_grads_close(x.grad, nx, label="softmax")


# ---------------------------------------------------------------------------
# reductions, shape ops


def test_reduce_examples():
    np.testing.assert_allclose(reduce(Tensor([1.0, 2.0, 3.0]), "mean").data, 2.0)
    x = Tensor(RNG.random((2, 3)))
    np.testing.assert_array_equal(reduce(x, "sum", []).data, x.data)
    with pytest.raises(ConfigurationError):
        reduce(x, "sum", [0, 0])


def test_mean_grad_is_one_over_n():
    x = p64((2, 5))
    with Tape() as tape:
        tape.backward(x.mean())
    np.testing.assert_allclose(x.grad, np.full((2, 5), 0.1))


def test_partial_reduction_gradients():
    x = p64((2, 3, 4))
    with Tape() as tape:
        tape.backward((reduce(x, "mean", [1]) * reduce(x, "mean", [1])).sum())
    (nx,) = numeric_grad(lambda: float((x.data.mean(axis=1) ** 2).sum()), [x.data])
    assert_grads_close(x.grad, nx, label="partial mean")


def test_reshape_permute_narrow_gradients():
    x = p64((2, 3, 4))

    def fwd():
        y = permute(reshape(x, (6, 4)), (1, 0))  # (4, 6)
        z = narrow(y, 0, 1, 2)
        return (z * z).sum()

    with Tape() as tape:
        tape.backward(fwd())
    (nx,) = numeric_grad(lambda: fwd().item(), [x.data])
    assert_grads_close(x.grad, nx, label="shape ops")


def test_narrow_bounds():
    with pytest.raises(ShapeError):
        narrow(Tensor(np.zeros((3, 2))), 0, 2, 5)


# ---------------------------------------------------------------------------
# tape semantics


def test_backward_sum_gives_ones():
    x = parameter(np.zeros((2, 3)))
    with Tape() as tape:
        tape.backward(x.sum())
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_example():
    x = parameter([1.0, 2.0])
    with Tape() as tape:
        tape.backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = parameter([1.0, 2.0])
    with Tape() as tape:
        y = x * x
        with pytest.raises(ContractError):
            tape.backward(y)


def test_tape_consumed_once():
    x = parameter([1.0])
    with Tape() as tape:
        loss = (x * x).sum()
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)


def test_backward_on_empty_tape():
    x = parameter([1.0])
    with Tape() as tape:
        with pytest.raises(ContractError):
            tape.backward(x.sum() if False else x)  # nothing recorded


def test_unreachable_tensor_keeps_no_grad():
    x = parameter([1.0, 2.0])
    z = parameter([3.0])
    with Tape() as tape:
        loss = (x * x).sum()
        _ = z * z  # recorded but not reachable from loss
        tape.backward(loss)
    assert z.grad is None


def test_no_recording_without_tape():
    x = parameter([1.0, 2.0])
    y = (x * x).sum()
    assert y.grad is None
    tape = Tape()
    with pytest.raises(ContractError):
        tape.backward(y)


def test_constants_do_not_require_grad():
    a = Tensor([1.0])
    b = Tensor([2.0])
    with Tape() as tape:
        out = a * b
        assert not out.requires_grad
        assert len(tape) == 0


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        x = parameter(rng.standard_normal((1, 3, 6, 6)).astype(np.float32))
        w = parameter(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        with Tape() as tape:
            out = conv2d(x, w, padding=1)
            loss = (out * out).mean()
            tape.backward(loss)
        return loss.item(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_float64_propagates():
    x = Tensor(np.zeros((2, 2), dtype=np.float64))
    assert (x * x).dtype == np.float64
    assert activation(x, "gelu").dtype == np.float64
