"""Global correction branch.

A two-convolution encoder (stride 2 twice, GELU) maps the image to a d-wide
feature grid at quarter resolution. Ten zero-initialized query embeddings
cross-attend to those features (single head; positional encoding for K/V is
a depthwise convolution), pass through a two-layer FFN, and two linear heads
decode nine of the query outputs into a residual on the identity color
matrix and the tenth into a residual on gamma = 1.

The module runs folded, as the local branch's blocks do (`fold_gpm`): K and
V are read only through the ten query rows, so W_k and W_v act on those rows
instead of on every feature pixel (`cross_attention`), and the positional
residual and the encoder's output GELU run inside pos_dw. So neither K, V
nor the GELU of the features is ever a plane.

With the queries and heads at zero the branch emits exactly (identity
matrix, gamma 1) for every input, so the whole model starts as the identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .isp import GlobalParams
from .model_local import Conv2d, fold_identity, kaiming_conv
from .tensor import (
    Tensor,
    gelu,
    matmul,
    narrow,
    permute,
    reshape,
    softmax,
    softplus,
)

NUM_QUERIES = 10  # 9 color-matrix slots + 1 gamma slot
MIN_SIZE = 4  # smallest image side the two stride-2 encoder convs take


@dataclass
class EncoderParams:
    conv1: Conv2d  # 3x3, 3 -> d/2, stride 2
    conv2: Conv2d  # 3x3, d/2 -> d, stride 2


@dataclass
class GpmParams:
    queries: Tensor  # (10, d), zero at init
    pos_dw: Conv2d  # 3x3 depthwise on encoder features
    w_k: Tensor  # (d, d)
    w_v: Tensor  # (d, d)
    w_out: Tensor  # (d, d)
    ffn1_w: Tensor  # (d, 2d)
    ffn1_b: Tensor  # (2d,)
    ffn2_w: Tensor  # (2d, d)
    ffn2_b: Tensor  # (d,)
    head_color_w: Tensor  # (d, 1), zero at init
    head_color_b: Tensor  # (1,), zero at init
    head_gamma_w: Tensor  # (d, 1), zero at init
    head_gamma_b: Tensor  # (1,), zero at init


def _linear_init(rng, fan_in, fan_out, dtype):
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, (fan_in, fan_out)), requires_grad=True, dtype=dtype)


def global_branch_init(d: int, rng, dtype=np.float32):
    """Encoder + prediction module; queries and decoding heads start at zero."""
    encoder = EncoderParams(
        conv1=kaiming_conv(rng, d // 2, 3, 3, dtype, stride=2),
        conv2=kaiming_conv(rng, d, d // 2, 3, dtype, stride=2),
    )

    def zeros(shape):
        return Tensor(np.zeros(shape), requires_grad=True, dtype=dtype)

    gpm = GpmParams(
        queries=zeros((NUM_QUERIES, d)),
        pos_dw=kaiming_conv(rng, d, 1, 3, dtype),
        w_k=_linear_init(rng, d, d, dtype),
        w_v=_linear_init(rng, d, d, dtype),
        w_out=_linear_init(rng, d, d, dtype),
        ffn1_w=_linear_init(rng, d, 2 * d, dtype),
        ffn1_b=zeros(2 * d),
        ffn2_w=_linear_init(rng, 2 * d, d, dtype),
        ffn2_b=zeros(d),
        head_color_w=zeros((d, 1)),
        head_color_b=zeros(1),
        head_gamma_w=zeros((d, 1)),
        head_gamma_b=zeros(1),
    )
    return encoder, gpm


def encoder_forward(img: Tensor, p: EncoderParams) -> Tensor:
    """(1, 3, H, W) -> (1, d, ceil(H/4), ceil(W/4)); needs H, W >= MIN_SIZE.

    Returns conv2's pre-activation: the features are its GELU, which the
    prediction module's first conv applies as it reads them (`cross_attention`).
    """
    if img.ndim != 4 or img.shape[1] != 3:
        raise InputError(f"encoder expects (1, 3, H, W), got {img.shape}")
    _, _, h, w = img.shape
    if h < MIN_SIZE or w < MIN_SIZE:
        raise InputError(f"image {h}x{w} is smaller than the {MIN_SIZE}x{MIN_SIZE} encoder minimum")
    return p.conv2(p.conv1(img), gelu_input=True)


@dataclass
class FoldedGpm:
    """The prediction module as its forward reads it (see `fold_gpm`)."""

    pos_dw: Conv2d  # 3x3 depthwise, +1 on the centre tap
    q_k: Tensor  # (10, d): queries W_k^T / sqrt(d)
    params: GpmParams  # unfolded; the queries, W_v, W_out, FFN and heads are read as they are


def fold_gpm(p: GpmParams | FoldedGpm) -> FoldedGpm:
    """The module with its parameter-only products formed, on the tape so
    gradients flow back: the positional residual as +1 on pos_dw's centre
    tap (`fold_identity`), and q W_k^T / sqrt(d). A folded module is
    returned as it is.
    """
    if isinstance(p, FoldedGpm):
        return p
    d = p.queries.shape[1]
    q_k = matmul(p.queries, permute(p.w_k, (1, 0))) * (1.0 / math.sqrt(d))
    return FoldedGpm(pos_dw=fold_identity(p.pos_dw), q_k=q_k, params=p)


def cross_attention(pre: Tensor, f: FoldedGpm) -> Tensor:
    """Single-head attention of the queries over the encoder features
    gelu(pre), reassociated (the weight absorption of multi-head latent
    attention):

        kv     = gelu(pre) + pos_dw(gelu(pre)), as (HW, d)     one conv
        scores = (q W_k^T / sqrt(d)) kv^T                      (10, HW)
        out    = (softmax(scores) kv) W_v W_out + q

    which is softmax(q K^T / sqrt(d)) V W_out + q for K = kv W_k and
    V = kv W_v, with the raw queries q as a residual.
    """
    d = f.q_k.shape[1]
    _, _, h, w = pre.shape
    kv_t = reshape(f.pos_dw(pre, gelu_input=True), (d, h * w))  # the conv's layout
    attn = softmax(matmul(f.q_k, kv_t))  # rows over the HW positions
    p = f.params
    return matmul(matmul(matmul(attn, permute(kv_t, (1, 0))), p.w_v), p.w_out) + p.queries


def shifted_softplus(delta: Tensor) -> Tensor:
    """Positive gamma mapping: softplus(2*delta) + (1 - ln 2).

    Value is exactly 1 at delta = 0 (the constant cancels bitwise), slope is
    2*sigmoid(0) = 1 there, and the output is bounded below by 1 - ln 2 > 0.
    """
    zero = delta.data.dtype.type(0)
    shift = 1.0 - float(np.logaddexp(zero, zero))
    return softplus(delta * 2.0) + shift


def gpm_forward(pre: Tensor, p: GpmParams | FoldedGpm) -> GlobalParams:
    """Decode (color matrix, gamma) from the encoder's output (conv2's
    pre-activation, see `encoder_forward`). The module is folded first
    (`fold_gpm`) unless it comes folded.
    """
    f = fold_gpm(p)
    t = cross_attention(pre, f)
    p = f.params
    t = matmul(gelu(matmul(t, p.ffn1_w) + p.ffn1_b), p.ffn2_w) + p.ffn2_b
    color_tokens = narrow(t, 0, 0, 9)
    gamma_token = narrow(t, 0, 9, 1)
    delta_color = reshape(matmul(color_tokens, p.head_color_w) + p.head_color_b, (3, 3))
    delta_gamma = reshape(matmul(gamma_token, p.head_gamma_w) + p.head_gamma_b, ())
    base = Tensor(np.eye(3, dtype=delta_color.data.dtype))
    gamma = shifted_softplus(delta_gamma)
    return GlobalParams(base + delta_color, gamma)
