"""Global correction branch.

A two-convolution encoder (stride 2 twice, GELU) maps the image to a d-wide
feature grid at quarter resolution. Ten zero-initialized query embeddings
cross-attend to those features (single head; positional encoding for K/V is
a depthwise convolution), pass through a two-layer FFN, and two linear heads
decode nine of the query outputs into a residual on the identity color
matrix and the tenth into a residual on gamma = 1.

With the queries and heads at zero the branch emits exactly (identity
matrix, gamma 1) for every input, so the whole model starts as the identity.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .isp import GlobalParams
from .model_local import Conv2d, kaiming_conv
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
    """(1, 3, H, W) -> (1, d, ceil(H/4), ceil(W/4)); needs H, W >= MIN_SIZE."""
    if img.ndim != 4 or img.shape[1] != 3:
        raise InputError(f"encoder expects (1, 3, H, W), got {img.shape}")
    _, _, h, w = img.shape
    if h < MIN_SIZE or w < MIN_SIZE:
        raise InputError(f"image {h}x{w} is smaller than the {MIN_SIZE}x{MIN_SIZE} encoder minimum")
    return gelu(p.conv2(p.conv1(img), gelu_input=True))


def cross_attention(queries: Tensor, feats: Tensor, p: GpmParams) -> Tensor:
    """Single-head attention of query embeddings over encoder features.

    K and V come from the features plus their depthwise positional encoding;
    the raw queries join the attended output through a residual.
    """
    d = queries.shape[1]
    _, _, h, w = feats.shape
    kv = feats + p.pos_dw(feats)
    kv = permute(reshape(kv, (d, h * w)), (1, 0))  # (HW, d)
    k = matmul(kv, p.w_k)
    v = matmul(kv, p.w_v)
    scores = matmul(queries, permute(k, (1, 0))) * (1.0 / math.sqrt(d))
    attn = softmax(scores)  # rows over the HW positions
    return matmul(matmul(attn, v), p.w_out) + queries


def shifted_softplus(delta: Tensor) -> Tensor:
    """Positive gamma mapping: softplus(2*delta) + (1 - ln 2).

    Value is exactly 1 at delta = 0 (the constant cancels bitwise), slope is
    2*sigmoid(0) = 1 there, and the output is bounded below by 1 - ln 2 > 0.
    """
    zero = delta.data.dtype.type(0)
    shift = 1.0 - float(np.logaddexp(zero, zero))
    return softplus(delta * 2.0) + shift


def gpm_forward(feats: Tensor, p: GpmParams) -> GlobalParams:
    """Decode (color matrix, gamma) from encoder features."""
    t = cross_attention(p.queries, feats, p)
    t = matmul(gelu(matmul(t, p.ffn1_w) + p.ffn1_b), p.ffn2_w) + p.ffn2_b
    color_tokens = narrow(t, 0, 0, 9)
    gamma_token = narrow(t, 0, 9, 1)
    delta_color = reshape(matmul(color_tokens, p.head_color_w) + p.head_color_b, (3, 3))
    delta_gamma = reshape(matmul(gamma_token, p.head_gamma_w) + p.head_gamma_b, ())
    base = Tensor(np.eye(3, dtype=delta_color.data.dtype))
    gamma = shifted_softplus(delta_gamma)
    return GlobalParams(base + delta_color, gamma)
