import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iat import tensor
from iat.errors import ConfigurationError, ContractError, ShapeError
from iat.model import conv_layers, iat_init
from iat.tensor import (
    Tape,
    Tensor,
    absolute,
    conv2d,
    elementwise,
    gelu,
    matmul,
    narrow,
    parameter,
    permute,
    pow_clamped,
    reduce,
    relu,
    reshape,
    softmax,
    softplus,
    tanh,
)

from fdcheck import assert_grads_close, numeric_grad

RNG = np.random.default_rng(0)


def p64(shape, rng=RNG, scale=1.0):
    return parameter(scale * rng.standard_normal(shape), dtype=np.float64)


def conv2d_loop(x, w, bias, stride, padding):
    """Sextuple-loop reference convolution (the independent oracle)."""
    n_b, cin, h, wdt = x.shape
    cout, cpg, kh, kw = w.shape
    groups = cin // cpg
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


def conv2d_taps_reference(x, w, bias, stride, padding):
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
    if cpg != cin:  # depthwise
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
    out = conv2d(x, Tensor(w), Tensor(np.zeros(3, dtype=np.float32)))
    np.testing.assert_array_equal(out.data, x.data[:, [2, 0, 1]])


def test_depthwise_center_one_is_identity():
    c = 6
    x = Tensor(RNG.random((1, c, 5, 7)).astype(np.float32))
    w = np.zeros((c, 1, 3, 3), dtype=np.float32)
    w[:, 0, 1, 1] = 1.0
    out = conv2d(x, Tensor(w), Tensor(np.zeros(c, dtype=np.float32)), padding=1)
    np.testing.assert_array_equal(out.data, x.data)


@pytest.mark.parametrize(
    "n,cin,cout,h,w,k,stride,padding,groups",
    [
        (1, 3, 4, 5, 5, 3, 1, 1, 1),  # full 3x3
        (1, 4, 6, 6, 7, 3, 2, 1, 1),  # full 3x3, stride 2
        (1, 5, 5, 4, 4, 3, 1, 1, 5),  # depthwise 3x3
        (1, 2, 3, 5, 6, 1, 1, 0, 1),  # 1x1
        (1, 3, 4, 7, 7, 3, 2, 0, 1),
        (1, 1, 3, 5, 6, 3, 1, 1, 1),  # one input channel: full, not depthwise
    ],
)
def test_conv_matches_loop_oracle(n, cin, cout, h, w, k, stride, padding, groups):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((n, cin, h, w))
    wt = rng.standard_normal((cout, cin // groups, k, k))
    b = rng.standard_normal(cout)
    out = conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, padding=padding)
    ref = conv2d_loop(x, wt, b, stride, padding)
    np.testing.assert_allclose(out.data, ref, atol=1e-6)


# (weight shape, stride) of every distinct conv the default model runs
MODEL_CONVS = list(dict.fromkeys((c.weight.shape, c.stride) for c in conv_layers(iat_init())))
# six of them, for the multi-strip cases
DW16, FULL1X1_16, STEM = ((16, 1, 3, 3), 1), ((16, 16, 1, 1), 1), ((16, 3, 3, 3), 1)
ENC_CONV1, ENC_CONV2 = ((40, 3, 3, 3), 2), ((80, 40, 3, 3), 2)
HEAD = ((3, 16, 3, 3), 1)  # more input than output channels


@pytest.mark.parametrize(
    "n,h,w,conv,multi_strip",
    [(1, 64, 64, c, False) for c in MODEL_CONVS]
    + [(1, 37, 53, c, False) for c in MODEL_CONVS]
    + [
        # two or more strips, the last one ragged
        (1, 63, 130, DW16, True),  # the last strip is one row
        (1, 70, 130, ENC_CONV1, True),
        (1, 70, 130, DW16, True),
        (1, 70, 50, ENC_CONV2, True),
        (1, 70, 130, FULL1X1_16, True),  # no junk columns: taps accumulate in the output
        (1, 70, 130, STEM, True),
        (1, 70, 130, HEAD, True),
    ],
)
def test_conv_matches_taps_reference(n, h, w, conv, multi_strip):
    wshape, stride = conv
    cout, cpg, k, _ = wshape
    depthwise = cpg == 1  # no conv in the model is full with one input channel
    cin = cout if depthwise else cpg
    padding = k // 2  # as model_local.Conv2d pads
    rng = np.random.default_rng(h * w + cin)
    x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
    wt = rng.standard_normal(wshape).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32)
    out = conv2d(Tensor(x), Tensor(wt), Tensor(b), stride=stride, padding=padding).data
    ref = conv2d_taps_reference(x, wt, b, stride, padding)
    if multi_strip:
        rows_per_strip = tensor._strip_rows(cin, cout, w + 2 * padding)
        ho = ref.shape[2]
        assert ho > rows_per_strip and ho % rows_per_strip, "want >= 2 strips, last ragged"
    if depthwise:
        np.testing.assert_array_equal(out, ref)
    else:
        # BLAS may block the per-tap gemms differently from tensordot's
        np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize(
    "n,h,w,conv",
    [
        (1, 70, 130, DW16),
        (1, 70, 130, HEAD),
        (1, 70, 50, ENC_CONV2),
        (1, 70, 130, FULL1X1_16),
    ],
    ids=["depthwise", "full3x3", "full3x3-stride2", "1x1"],
)
def test_conv_gradients_across_strips_match_one_strip(monkeypatch, n, h, w, conv):
    wshape, stride = conv
    cout, cpg, k, _ = wshape
    cin = cout if cpg == 1 else cpg
    padding = k // 2
    rng = np.random.default_rng(h + w + cin)
    x = rng.standard_normal((n, cin, h, w)).astype(np.float32)
    wt = rng.standard_normal(wshape).astype(np.float32)
    b = rng.standard_normal(cout).astype(np.float32)
    ho = tensor.conv_output_size(h, k, stride, padding)
    assert tensor._strip_rows(cin, cout, w + 2 * padding) < ho, "want >= 2 strips"

    def grads():
        xt, wt_, bt = parameter(x), parameter(wt), parameter(b)
        with Tape() as tape:
            y = conv2d(xt, wt_, bt, stride=stride, padding=padding)
            # a fixed upstream gradient, so the rules see the same g on both runs
            gy = np.random.default_rng(3).standard_normal(y.shape).astype(np.float32)
            tape.backward((y * Tensor(gy)).sum())
        return y.data, xt.grad, wt_.grad, bt.grad

    y_strips, *g_strips = grads()
    monkeypatch.setattr(tensor, "_STRIP_FLOATS", 1 << 30)  # one strip
    y_whole, *g_whole = grads()
    # the rule runs the same arithmetic on the same padded plane: exact
    for label, a, ref in zip(("gx", "gw", "gb"), g_strips, g_whole):
        np.testing.assert_array_equal(a, ref, err_msg=label)
    # BLAS may block a strip's gemm differently from the whole grid's
    np.testing.assert_allclose(y_strips, y_whole, rtol=1e-6, atol=1e-6)


def test_conv_weight_shape_mismatch():
    # neither full (Cout, 4, k, k) nor depthwise (4, 1, k, k) on 4 input channels
    x = Tensor(np.zeros((1, 4, 6, 7)))
    for shape in [(6, 2, 3, 3), (5, 1, 3, 3)]:
        with pytest.raises(ShapeError) as exc:
            conv2d(x, Tensor(np.zeros(shape)), Tensor(np.zeros(shape[0])), padding=1)
        assert str(shape) in str(exc.value) and "(1, 4, 6, 7)" in str(exc.value)


def test_conv_takes_one_image():
    x = Tensor(np.zeros((2, 4, 6, 7)))
    with pytest.raises(ShapeError, match=r"\(2, 4, 6, 7\)"):
        conv2d(x, Tensor(np.zeros((4, 1, 3, 3))), Tensor(np.zeros(4)), padding=1)


CONV_FD_CASES = [  # n, cin, cout, k, stride, padding, groups, width
    (1, 3, 4, 3, 1, 1, 1, 6),  # full 3x3
    (1, 3, 4, 3, 2, 1, 1, 6),  # full 3x3, stride 2
    (1, 4, 4, 3, 2, 1, 4, 6),  # depthwise 3x3, stride 2
    (1, 4, 4, 3, 1, 1, 4, 6),  # depthwise 3x3
    (1, 3, 5, 3, 1, 0, 1, 6),
    (1, 3, 5, 1, 1, 0, 1, 6),  # 1x1
    (1, 4, 4, 1, 1, 0, 4, 6),  # depthwise 1x1
    # an odd width leaves a partial last stride: its junk grid columns must not leak
    (1, 3, 4, 3, 2, 1, 1, 7),
    (1, 3, 3, 3, 2, 1, 3, 7),
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
        y = conv2d(x, w, b, stride=stride, padding=padding)
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


def test_matmul_takes_two_matrices():
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\)"):
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 5))))


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
    np.testing.assert_array_equal(relu(Tensor([-1.0, 2.0])).data, [0.0, 2.0])
    assert tanh(Tensor([0.0])).data[0] == 0.0
    assert gelu(Tensor([0.0])).data[0] == 0.0


@pytest.mark.parametrize("op", [relu, tanh, gelu], ids=lambda op: op.__name__)
def test_activation_gradients_match_fd(op):
    rng = np.random.default_rng(5)
    x = parameter(rng.standard_normal((4, 5)) + 0.1, dtype=np.float64)

    def fwd():
        return op(x).sum()

    with Tape() as tape:
        tape.backward(fwd())
    (nx,) = numeric_grad(lambda: fwd().item(), [x.data])
    assert_grads_close(x.grad, nx, label=op.__name__)


def gelu_whole_array(xd, g):
    """GELU's output and input gradient in whole-array passes, the arithmetic
    gelu runs strip by strip."""
    a, c = tensor._GELU_A, tensor._GELU_C

    def tanh_part():
        t = a * xd
        t *= xd
        t *= xd
        t += xd
        t *= c
        return np.tanh(t, out=t)

    y = tanh_part()
    y += 1.0
    y *= 0.5 * xd
    t = tanh_part()
    d = xd * xd
    d *= 3.0 * a
    d += 1.0
    d *= c
    d *= xd
    d *= 0.5
    d *= 1.0 - t * t
    t += 1.0
    t *= 0.5
    d += t
    d *= g
    return y, d


S = tensor._STRIP_FLOATS


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "shape",
    [(2, 3, 5, 7), (2, 4, S // 16, 4), (1, 4, S // 8, 3)],  # 210 floats, 2 and 1.5 strips
    ids=["one-strip", "two-strips", "ragged-last-strip"],
)
def test_gelu_strips_match_whole_array(shape, dtype):
    rng = np.random.default_rng(len(shape) + shape[2])
    xd = (3.0 * rng.standard_normal(shape)).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    y_ref, gx_ref = gelu_whole_array(xd, g)
    x = parameter(xd, dtype=dtype)
    with Tape() as tape:
        y = gelu(x)
        tape.backward((y * Tensor(g)).sum())
    assert y.dtype == dtype and x.grad.dtype == dtype
    np.testing.assert_array_equal(y.data, y_ref)
    np.testing.assert_array_equal(x.grad, gx_ref)


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
    out = softmax(Tensor([1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out.data, [0.25] * 4)
    out = softmax(Tensor([1000.0, 1000.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    x = Tensor(RNG.standard_normal((5, 7)).astype(np.float32))
    out = softmax(x)
    np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), atol=1e-6)
    assert (out.data > 0).all()


def test_softmax_gradients_match_fd():
    x = p64((3, 4))
    c = np.arange(12, dtype=np.float64).reshape(3, 4)  # break symmetry

    def fwd():
        return (softmax(x) * Tensor(c)).sum()

    with Tape() as tape:
        tape.backward(fwd())
    (nx,) = numeric_grad(lambda: fwd().item(), [x.data])
    assert_grads_close(x.grad, nx, label="softmax")


# ---------------------------------------------------------------------------
# reductions, shape ops


def test_reduce_examples():
    np.testing.assert_allclose(reduce(Tensor([1.0, 2.0, 3.0]), "mean").data, 2.0)
    assert reduce(Tensor([[1.0, 2.0], [3.0, 4.0]]), "sum").data == 10.0
    with pytest.raises(ConfigurationError):
        reduce(Tensor([1.0]), "max")


def test_mean_grad_is_one_over_n():
    x = p64((2, 5))
    with Tape() as tape:
        tape.backward(x.mean())
    np.testing.assert_allclose(x.grad, np.full((2, 5), 0.1))


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


def test_backward_releases_op_outputs_and_leaves_keep_grads():
    x = parameter([1.0, 2.0])
    w = parameter([3.0, 4.0])
    with Tape() as tape:
        y = x * w
        z = y * y
        loss = z.sum()
        tape.backward(loss)
    assert len(tape) == 0
    assert y.grad is None and z.grad is None and loss.grad is None
    np.testing.assert_array_equal(x.grad, [18.0, 64.0])  # 2*y*w
    np.testing.assert_array_equal(w.grad, [6.0, 32.0])  # 2*y*x
    with Tape() as tape:  # a second tape adds into the leaves
        tape.backward((x * w).sum())
    np.testing.assert_array_equal(x.grad, [21.0, 68.0])
    np.testing.assert_array_equal(w.grad, [7.0, 34.0])


def test_rule_that_raises_consumes_the_tape():
    x = parameter([1.0])

    def rule(g):
        raise FloatingPointError("rule failed")

    with Tape() as tape:
        loss = tensor._emit(x.data * 2.0, (x,), rule).sum()
        with pytest.raises(FloatingPointError):
            tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)
    assert x.grad is None


def test_nested_tape_is_refused():
    x = parameter([1.0, 2.0])
    with Tape() as outer:
        with pytest.raises(ContractError):
            with Tape():
                pass
        loss = (x * x).sum()  # the outer tape still records
        outer.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])
    with Tape() as tape:  # and a new one opens once it has closed
        assert len(tape) == 0


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
        b = parameter(rng.standard_normal(4).astype(np.float32))
        with Tape() as tape:
            out = conv2d(x, w, b, padding=1)
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
    assert gelu(x).dtype == np.float64
