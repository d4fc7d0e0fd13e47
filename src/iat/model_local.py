"""Local correction branch.

A 3x3 stem expands the image to C channels, two independent stacks of
pixel-wise enhancement blocks (PEM) refine features at full resolution, and
two heads emit the per-pixel correction maps: a nonnegative gain (ReLU) and
a bounded offset (tanh). The branch returns the intermediate
f = img * gain + offset; the maps never leave it.

Initialization realizes the exact identity map: the gain head starts as
constant 1, the offset head as constant 0, every normalization as identity,
and layer scales at 1e-2.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ShapeError
from .tensor import Tensor, conv2d, matmul, recording, relu, reshape, tanh

LAYER_SCALE_INIT = 1e-2

# Map rows per band of an untaped forward (see `local_branch_forward`). At
# 400x600 on one BLAS thread, 100 ran fastest of 64, 80, 100 and 128; 64
# peaks 5 MB lower but computes 24% more rows than the image has, not 12%.
BAND_ROWS = 100


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

    def __call__(
        self, x: Tensor, residuals: tuple[Tensor, ...] = (), gelu_input: bool = False
    ) -> Tensor:
        return conv2d(
            x, self.weight, self.bias, self.stride, self.padding, residuals, gelu_input
        )


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


@dataclass
class FoldedPem:
    """One PEM with its linear pieces folded into six convs (see `fold_pem`)."""

    pos_dw: Conv2d  # 3x3 depthwise, +1 on the centre tap
    pw1: Conv2d  # 1x1, norm1 folded in
    dw: Conv2d  # 3x3 depthwise, as in the block
    pw2: Conv2d  # 1x1, k_spatial folded in
    mix1: Conv2d  # 1x1, norm2 folded in
    mix2: Conv2d  # 1x1, k_channel folded in


def fold_identity(conv: Conv2d) -> Conv2d:
    """The depthwise conv equal to x + conv(x): +1 on its centre tap."""
    w = conv.weight
    centre = np.zeros(w.shape, dtype=w.dtype)
    centre[:, :, w.shape[2] // 2, w.shape[3] // 2] = 1
    return replace(conv, weight=w + Tensor(centre))


def fold_pem(p: PemParams) -> FoldedPem:
    """The block's convs with its linear pieces folded into their weights
    (structural re-parameterization): the positional residual is +1 on
    pos_dw's centre tap (`fold_identity`), each norm is composed into the
    1x1 after it (`fold_norm`), and each layer scale into the 1x1 before it
    (`fold_scale`). Built from ops on (C, C) weights that read parameters
    only, so gradients flow back to every parameter of the block.
    """
    return FoldedPem(
        pos_dw=fold_identity(p.pos_dw),
        pw1=fold_norm(p.norm1, p.pw1),
        dw=p.dw,
        pw2=fold_scale(p.scale.k_spatial, p.pw2),
        mix1=fold_norm(p.norm2, p.mix1),
        mix2=fold_scale(p.scale.k_channel, p.mix2),
    )


def pem_stack(x: Tensor, blocks: list[FoldedPem]) -> Tensor:
    """Each pixel-wise enhancement block in turn, then the stack's skip of
    its input x0. A block is positional encoding, spatial sub-block, channel
    sub-block, all residual:

        u = x + pos_dw(x)
        v = u + k_spatial * pw2(gelu(dw(gelu(pw1(norm1(u))))))
        out = v + k_channel * mix2(gelu(mix1(norm2(v))))

    and the stack returns out + x0 after the last block. The blocks come
    folded (`fold_pem`), and the residuals are added inside the 1x1 convs
    that end them (`conv2d`'s residuals): the last block's mix2 adds v, then
    x0, the same sum in the same order as (mix2 + v) + x0. Each GELU is
    fused into the conv that reads it (`conv2d`'s gelu_input), so a plane
    passes through 6 convs per block and no GELU output is ever a plane:
    a tape keeps the pre-activations only.

    One name carries the plane from op to op, so an untaped forward frees
    each plane as soon as its last reader has run: a block's input once
    pos_dw has read it, u once pw2 has added it. At most three planes of the
    stack are alive at a time, besides the caller's x0.
    """
    skip = x
    for i, p in enumerate(blocks, 1):
        c = p.dw.weight.shape[0]
        if x.ndim != 4 or x.shape[1] != c:
            raise ShapeError(f"pem_stack expects (1, {c}, H, W), got {x.shape}")
        x = p.pos_dw(x)  # u
        x = p.pw2(p.dw(p.pw1(x), gelu_input=True), (x,), gelu_input=True)  # v
        x = p.mix2(p.mix1(x), (x, skip) if i == len(blocks) else (x,), gelu_input=True)
    return x


@dataclass
class LocalBranchParams:
    stem: Conv2d  # 3x3, 3 -> C
    gain_blocks: list[PemParams]  # or list[FoldedPem], see `fold_local`
    offset_blocks: list[PemParams]
    gain_head: Conv2d  # 3x3, C -> 3, + ReLU
    offset_head: Conv2d  # 3x3, C -> 3, + tanh


def local_branch_init(channels: int, blocks: int, rng, dtype=np.float32) -> LocalBranchParams:
    """Random stem/blocks; heads pinned so the branch is the identity map."""
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


def fold_local(p: LocalBranchParams) -> LocalBranchParams:
    """The branch with every block folded (`fold_pem`); a branch whose
    blocks are folded already is returned as it is. Folded once, a branch
    can run any number of images (bands, or a training step's samples) from
    one set of folded weights.
    """
    blocks = p.gain_blocks + p.offset_blocks
    if all(isinstance(b, FoldedPem) for b in blocks):
        return p
    return replace(
        p,
        gain_blocks=[fold_pem(b) for b in p.gain_blocks],
        offset_blocks=[fold_pem(b) for b in p.offset_blocks],
    )


def local_halo(p: LocalBranchParams) -> int:
    """Rows of context a map row reads above and below it: the summed
    padding of the stride-1 convs on one stack's path (stem, every conv of
    every block, head; both stacks have the same layers), 8 at the default
    sizes. Folded blocks have the same convs, so the same halo."""
    convs = [getattr(b, f.name) for b in p.gain_blocks for f in fields(b)]
    blocks = sum(c.padding for c in convs if isinstance(c, Conv2d))
    return p.stem.padding + blocks + p.gain_head.padding


def local_branch_forward(img: Tensor, p: LocalBranchParams) -> Tensor:
    """The local intermediate f = img * gain + offset of an image in [0, 1].

    With no tape recording, an image taller than `BAND_ROWS` runs in bands
    of `BAND_ROWS` rows, each with `local_halo` rows of context on either
    side, so the 16-channel planes and the maps are band-sized; each band
    writes only its own rows of f. An f row depends on no input row beyond
    the halo and every op computes each output element the same way at any
    height, so f is bit-identical to one band. A taped forward is one band:
    its graph keeps every plane anyway. The blocks are folded once
    (`fold_local`), before the first band.
    """
    p = fold_local(p)
    h = img.shape[2]
    if recording() or h <= BAND_ROWS:
        return _branch(img, p)
    halo = local_halo(p)
    f = None
    for r0 in range(0, h, BAND_ROWS):
        r1 = min(r0 + BAND_ROWS, h)
        a, b = max(0, r0 - halo), min(h, r1 + halo)
        band = _branch(Tensor(img.data[:, :, a:b]), p).data
        if f is None:
            f = np.empty(img.shape, band.dtype)
        f[:, :, r0:r1] = band[:, :, r0 - a : r1 - a]
    return Tensor(f)


def _branch(img: Tensor, p: LocalBranchParams) -> Tensor:
    """f of one band, all its rows.

    Each stack's head runs as soon as the stack ends, so the gain features
    are freed before the offset stack starts; only `stem_out` lives through
    both stacks, whose last convs add it as their skip (`pem_stack`).
    """
    stem_out = p.stem(img)
    gain = relu(p.gain_head(pem_stack(stem_out, p.gain_blocks)))
    offset = tanh(p.offset_head(pem_stack(stem_out, p.offset_blocks)))
    return img * gain + offset
