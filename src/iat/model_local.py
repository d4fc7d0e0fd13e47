"""Local correction branch.

A 3x3 stem expands the image to C channels, two independent stacks of
pixel-wise enhancement blocks (PEM) refine features at full resolution, and
two heads emit the per-pixel correction maps: a nonnegative gain (ReLU) and
a bounded offset (tanh), so the branch computes img * gain + offset.

Initialization realizes the exact identity map: the gain head starts as
constant 1, the offset head as constant 0, every normalization as identity,
and layer scales at 1e-2.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, ShapeError
from .tensor import Tensor, conv2d, gelu, matmul, relu, reshape, tanh

LAYER_SCALE_INIT = 1e-2


@dataclass
class Conv2d:
    """Convolution weights and stride; everything else follows from them.

    The weight's shape says the kind: (Cout, Cin, k, k) is full and
    (C, 1, k, k) depthwise (see `conv2d`). Padding is always k // 2, so a
    stride-1 conv keeps the input size.
    """

    weight: Tensor  # (out, in, k, k) full or (C, 1, k, k) depthwise
    bias: Tensor  # (out,)
    stride: int = 1

    @property
    def padding(self) -> int:
        return self.weight.shape[-1] // 2

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)


def kaiming_conv(rng, out_ch, in_ch, k, dtype, stride=1):
    """Fan-in scaled uniform init, zero bias.

    in_ch = 1 makes a depthwise conv on out_ch channels (see `conv2d`).
    """
    fan_in = in_ch * k * k
    bound = math.sqrt(6.0 / fan_in)
    w = rng.uniform(-bound, bound, size=(out_ch, in_ch, k, k))
    return Conv2d(
        weight=Tensor(w, requires_grad=True, dtype=dtype),
        bias=Tensor(np.zeros(out_ch), requires_grad=True, dtype=dtype),
        stride=stride,
    )


@dataclass
class LightNormParams:
    """Statistics-free normalization: per-channel affine, then channel mixing.

    Per pixel it maps x to mix @ (scale * x + bias). No mean/variance is
    computed, so it is resolution-independent and the identity at
    initialization (scale 1, bias 0, mix = I). It never runs as a pass over
    the pixels: `fold_norm` composes it into the 1x1 conv that follows it.
    """

    scale: Tensor  # (C,)
    bias: Tensor  # (C,)
    mix: Tensor  # (C, C)

    @classmethod
    def identity(cls, channels: int, dtype=np.float32) -> "LightNormParams":
        return cls(
            scale=Tensor(np.ones(channels), requires_grad=True, dtype=dtype),
            bias=Tensor(np.zeros(channels), requires_grad=True, dtype=dtype),
            mix=Tensor(np.eye(channels), requires_grad=True, dtype=dtype),
        )


def fold_norm(norm: LightNormParams, conv: Conv2d) -> Conv2d:
    """The 1x1 conv equal to `conv` applied after `norm`.

    With A = W @ mix, weight A @ diag(scale) and bias A @ bias + b: per pixel
    W @ (mix @ (scale * x + bias)) + b. Built from O(C^2) tape ops, so
    gradients flow back to the norm and the conv parameters.
    """
    c = norm.scale.shape[0]
    a = matmul(reshape(conv.weight, (c, c)), norm.mix)
    weight = reshape(a * reshape(norm.scale, (1, c)), (c, c, 1, 1))
    bias = reshape(matmul(a, reshape(norm.bias, (c, 1))), (c,)) + conv.bias
    return Conv2d(weight, bias)


def fold_scale(k: Tensor, conv: Conv2d) -> Conv2d:
    """The 1x1 conv equal to `k * conv(x)` with k per output channel."""
    c = k.shape[0]
    return Conv2d(reshape(k, (c, 1, 1, 1)) * conv.weight, k * conv.bias)


@dataclass
class LayerScaleParams:
    """Small per-channel multipliers on the two residual sub-blocks."""

    k_spatial: Tensor  # (C,)
    k_channel: Tensor  # (C,)

    @classmethod
    def default(cls, channels: int, dtype=np.float32) -> "LayerScaleParams":
        return cls(
            k_spatial=Tensor(
                np.full(channels, LAYER_SCALE_INIT), requires_grad=True, dtype=dtype
            ),
            k_channel=Tensor(
                np.full(channels, LAYER_SCALE_INIT), requires_grad=True, dtype=dtype
            ),
        )


@dataclass
class PemParams:
    """One pixel-wise enhancement block (channel-preserving, width C)."""

    pos_dw: Conv2d  # 3x3 depthwise positional encoding
    norm1: LightNormParams
    pw1: Conv2d  # 1x1 C->C
    dw: Conv2d  # 3x3 depthwise
    pw2: Conv2d  # 1x1 C->C
    norm2: LightNormParams
    mix1: Conv2d  # 1x1 C->C
    mix2: Conv2d  # 1x1 C->C
    scale: LayerScaleParams


def pem_init(channels: int, rng, dtype=np.float32) -> PemParams:
    return PemParams(
        pos_dw=kaiming_conv(rng, channels, 1, 3, dtype),
        norm1=LightNormParams.identity(channels, dtype),
        pw1=kaiming_conv(rng, channels, channels, 1, dtype),
        dw=kaiming_conv(rng, channels, 1, 3, dtype),
        pw2=kaiming_conv(rng, channels, channels, 1, dtype),
        norm2=LightNormParams.identity(channels, dtype),
        mix1=kaiming_conv(rng, channels, channels, 1, dtype),
        mix2=kaiming_conv(rng, channels, channels, 1, dtype),
        scale=LayerScaleParams.default(channels, dtype),
    )


def pem_stack(x: Tensor, blocks: list[PemParams]) -> Tensor:
    """Each pixel-wise enhancement block in turn: positional encoding,
    spatial sub-block, channel sub-block, all residual:

        u = x + pos_dw(x)
        v = u + k_spatial * pw2(gelu(dw(gelu(pw1(norm1(u))))))
        out = v + k_channel * mix2(gelu(mix1(norm2(v))))

    The linear pieces are folded into the convs' weights first (structural
    re-parameterization, on the tape): the residual is +1 on pos_dw's centre
    tap, each norm is composed into the 1x1 after it (`fold_norm`), and each
    layer scale into the 1x1 before it (`fold_scale`). A plane then passes
    through 6 convs, 3 GELUs and 2 adds per block.

    One name carries the plane from op to op, so an untaped forward frees
    each plane as soon as its last reader has run: a block's input once
    pos_dw has read it, u once the spatial residual add has. At most three
    planes of the stack are alive at a time, besides the caller's `x`.
    """
    for p in blocks:
        c = p.scale.k_spatial.shape[0]
        if x.ndim != 4 or x.shape[1] != c:
            raise ShapeError(f"pem_stack expects (1, {c}, H, W), got {x.shape}")
        w = p.pos_dw.weight
        centre = np.zeros(w.shape, dtype=w.dtype)
        centre[:, :, w.shape[2] // 2, w.shape[3] // 2] = 1
        x = replace(p.pos_dw, weight=w + Tensor(centre))(x)  # u
        pw1 = fold_norm(p.norm1, p.pw1)
        pw2 = fold_scale(p.scale.k_spatial, p.pw2)
        x = x + pw2(gelu(p.dw(gelu(pw1(x)))))  # v
        mix1 = fold_norm(p.norm2, p.mix1)
        mix2 = fold_scale(p.scale.k_channel, p.mix2)
        x = x + mix2(gelu(mix1(x)))
    return x


@dataclass
class LocalMaps:
    """Per-pixel correction maps: gain >= 0 (ReLU), offset in (-1, 1) (tanh)."""

    gain: Tensor
    offset: Tensor


@dataclass
class LocalBranchParams:
    stem: Conv2d  # 3x3, 3 -> C
    gain_blocks: list[PemParams] = field(default_factory=list)
    offset_blocks: list[PemParams] = field(default_factory=list)
    gain_head: Conv2d = None  # 3x3, C -> 3, + ReLU
    offset_head: Conv2d = None  # 3x3, C -> 3, + tanh


def local_branch_init(
    channels: int = 16, blocks: int = 3, rng=None, dtype=np.float32
) -> LocalBranchParams:
    """Random stem/blocks; heads pinned so the branch is the identity map."""
    if channels < 1 or blocks < 1:
        raise ConfigurationError(
            f"need channels >= 1 and blocks >= 1, got channels={channels}, blocks={blocks}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    gain_head = Conv2d(
        weight=Tensor(np.zeros((3, channels, 3, 3)), requires_grad=True, dtype=dtype),
        bias=Tensor(np.ones(3), requires_grad=True, dtype=dtype),
    )
    offset_head = Conv2d(
        weight=Tensor(np.zeros((3, channels, 3, 3)), requires_grad=True, dtype=dtype),
        bias=Tensor(np.zeros(3), requires_grad=True, dtype=dtype),
    )
    return LocalBranchParams(
        stem=kaiming_conv(rng, channels, 3, 3, dtype),
        gain_blocks=[pem_init(channels, rng, dtype) for _ in range(blocks)],
        offset_blocks=[pem_init(channels, rng, dtype) for _ in range(blocks)],
        gain_head=gain_head,
        offset_head=offset_head,
    )


def local_branch_forward(img: Tensor, p: LocalBranchParams) -> LocalMaps:
    """Full-resolution correction maps for an image in [0, 1].

    Each stack's head runs as soon as the stack ends, so the gain features
    are freed before the offset stack starts; only `stem_out` lives through
    both stacks and their skips.
    """
    stem_out = p.stem(img)
    gain = relu(p.gain_head(pem_stack(stem_out, p.gain_blocks) + stem_out))
    offset = tanh(p.offset_head(pem_stack(stem_out, p.offset_blocks) + stem_out))
    return LocalMaps(gain=gain, offset=offset)
