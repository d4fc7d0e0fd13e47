"""Whole-model composition, parameter accounting, FLOP estimates, checkpoints.

The checkpoint format is a custom versioned binary: magic "IATC", version,
a JSON header (config, step counter, tensor directory with byte offsets),
raw little-endian float32 payloads, and a trailing CRC-32 over everything
before it. Loads are bit-exact and never reshape silently.
"""

import dataclasses
import functools
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, CorruptionError, FormatError, InputError
from .fileio import atomic_open
from .isp import compose_iat
from .model_global import (
    EncoderParams,
    GpmParams,
    encoder_forward,
    global_branch_init,
    gpm_forward,
)
from .model_local import Conv2d, LocalBranchParams, local_branch_forward, local_branch_init
from .tensor import Tensor, conv_output_size

CHECKPOINT_MAGIC = b"IATC"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class IATConfig:
    channels: int = 16  # PEM width
    blocks: int = 3  # PEMs per local stack
    d: int = 80  # attention width

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        """Sizes from a mapping; each must be an int (a bool or 8.0 is not)."""
        sizes = {f.name: d[f.name] for f in dataclasses.fields(cls)}
        for key, v in sizes.items():
            if type(v) is not int:
                raise TypeError(f"model size {key!r} must be an integer, got {v!r}")
        return cls(**sizes)


@dataclass
class IATParams:
    local: LocalBranchParams
    encoder: EncoderParams
    gpm: GpmParams
    config: IATConfig


def iat_init(config: IATConfig | None = None, rng=None, dtype=np.float32) -> IATParams:
    if config is None:
        config = IATConfig()
    if rng is None:
        rng = np.random.default_rng(0)
    local = local_branch_init(config.channels, config.blocks, rng, dtype)
    encoder, gpm = global_branch_init(config.d, rng, dtype)
    return IATParams(local=local, encoder=encoder, gpm=gpm, config=config)


def iat_forward(img: Tensor, p: IATParams) -> tuple[Tensor, Tensor]:
    """Run both branches and compose them.

    Returns (out, f_out) where f_out = img * gain + offset is the local
    intermediate. The output is intentionally not clamped to [0, 1];
    clamping happens only at image export.
    """
    maps = local_branch_forward(img, p.local)
    gp = gpm_forward(encoder_forward(img, p.encoder), p.gpm)
    return compose_iat(img, maps.gain, maps.offset, gp)


def iat_forward_local(img: Tensor, p: IATParams) -> Tensor:
    """Local-only ablation path: skip the global branch entirely."""
    maps = local_branch_forward(img, p.local)
    return img * maps.gain + maps.offset


# ---------------------------------------------------------------------------
# parameter traversal and accounting


def _tree(obj, prefix: str = ""):
    """Yield (dotted name, node) for every node of a parameter tree, each
    parent before its children, dataclass fields in order."""
    yield prefix, obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            name = f"{prefix}.{f.name}" if prefix else f.name
            yield from _tree(getattr(obj, f.name), name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _tree(item, f"{prefix}.{i}")


def named_parameters(obj, prefix: str = ""):
    """Yield (dotted name, tensor) for every learnable tensor, field order."""
    for name, node in _tree(obj, prefix):
        if isinstance(node, Tensor) and node.requires_grad:
            yield name, node


def conv_layers(obj) -> list[Conv2d]:
    """Every Conv2d in a parameter tree, field order."""
    return [node for _, node in _tree(obj) if isinstance(node, Conv2d)]


def count_params(p: IATParams) -> dict:
    """Exact scalar counts per module plus the total."""
    report = {"local": 0, "encoder": 0, "gpm": 0}
    for name, t in named_parameters(p):
        report[name.split(".", 1)[0]] += t.size
    report["global"] = report["encoder"] + report["gpm"]
    report["total"] = report["local"] + report["global"]
    return report


@functools.lru_cache(maxsize=8)
def _size_tree(config: IATConfig) -> IATParams:
    """One parameter tree per config, built once; only its sizes are read."""
    return iat_init(config)


def estimate_flops_detail(config: IATConfig, height: int, width: int) -> dict:
    """Multiply-accumulate counts read off the parameter tree, reported as
    GFLOPs (1 MAC = 1 FLOP).

    Counts convolutions, linear projections and attention products, like
    standard profilers; activations are excluded. A conv costs its weight
    size per output pixel: every local conv keeps the image size, and each
    encoder conv's output size comes from its stride and kernel. The
    prediction module's matmuls cost their weight sizes per key/value pixel
    or per query token. Left out: the O(C^3) matmuls that fold each block's
    norms and layer scales into its convs (`pem_stack`; no per-pixel cost)
    and the 9 MACs per pixel of the color-matrix product in `compose_iat`.
    The published counting convention is unknown, so this estimator
    documents its own; `estimate_flops` is its "total".
    """
    if height < 4 or width < 4:
        raise InputError(f"resolution {height}x{width} below the 4x4 minimum")
    p = _size_tree(config)
    local_macs = height * width * sum(c.weight.size for c in conv_layers(p.local))
    enc_macs = 0
    h, w = height, width
    for conv in conv_layers(p.encoder):
        k = conv.weight.shape[-1]
        h, w = (conv_output_size(n, k, conv.stride, conv.padding) for n in (h, w))
        enc_macs += h * w * conv.weight.size
    g = p.gpm
    kv_px = h * w
    tokens = g.queries.shape[0]
    attn_macs = (
        kv_px * (g.pos_dw.weight.size + g.w_k.size + g.w_v.size)  # positional conv, K, V
        + 2 * kv_px * g.queries.size  # scores and attention-weighted values
        + tokens * (g.w_out.size + g.ffn1_w.size + g.ffn2_w.size)  # output projection, FFN
        + (tokens - 1) * g.head_color_w.size  # decoding heads: color tokens ...
        + g.head_gamma_w.size  # ... and the one gamma token
    )
    scale = 1e-9
    local_g = local_macs * scale
    global_g = (enc_macs + attn_macs) * scale
    return {"local": local_g, "global": global_g, "total": local_g + global_g}


def estimate_flops(config: IATConfig, height: int, width: int) -> float:
    return estimate_flops_detail(config, height, width)["total"]


# ---------------------------------------------------------------------------
# checkpoint serialization


def save_checkpoint(p: IATParams, path, step: int = 0) -> None:
    entries = []
    payload = bytearray()
    for name, t in named_parameters(p):
        blob = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        entries.append(
            {
                "name": name,
                "shape": list(t.shape),
                "offset": len(payload),
                "nbytes": len(blob),
            }
        )
        payload.extend(blob)
    header = json.dumps(
        {"config": p.config.to_dict(), "step": int(step), "tensors": entries}
    ).encode("utf-8")
    body = (
        CHECKPOINT_MAGIC
        + struct.pack("<I", CHECKPOINT_VERSION)
        + struct.pack("<I", len(header))
        + header
        + bytes(payload)
    )
    body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
    with atomic_open(path, "wb") as fh:
        fh.write(body)


def load_checkpoint(path) -> tuple[IATParams, int]:
    """Rebuild parameters bit-exactly; returns (params, stored step counter)."""
    buf = Path(path).read_bytes()
    if len(buf) < 16:
        raise CorruptionError(f"{path}: file too short to be a checkpoint")
    if buf[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {buf[:4]!r}")
    (version,) = struct.unpack("<I", buf[4:8])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (stored_crc,) = struct.unpack("<I", buf[-4:])
    if zlib.crc32(buf[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptionError(f"{path}: CRC mismatch, checkpoint is corrupt")
    (header_len,) = struct.unpack("<I", buf[8:12])
    header_end = 12 + header_len
    if header_end + 4 > len(buf):
        raise CorruptionError(f"{path}: truncated header")
    try:
        header = json.loads(buf[12:header_end].decode("utf-8"))
        config = IATConfig.from_dict(header["config"])
        step = header.get("step", 0)
        entries = header["tensors"]
    except (ValueError, KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed checkpoint header: {e}") from None
    if type(step) is not int or step < 0:
        raise FormatError(f"{path}: step must be a non-negative integer, got {step!r}")
    if not isinstance(entries, list):
        raise FormatError(f"{path}: tensor directory is not a list: {entries!r}")

    try:
        params = iat_init(config, rng=np.random.default_rng(0))
    except ConfigurationError as e:
        raise FormatError(f"{path}: model sizes out of range: {e}") from None
    expected = dict(named_parameters(params))
    seen = set()
    payload = buf[header_end:-4]
    for entry in entries:
        name, shape, off, nbytes = _tensor_entry(path, entry)
        if name not in expected:
            raise FormatError(f"{path}: unknown tensor name {name!r} for config {config}")
        t = expected[name]
        if shape != t.shape:
            raise FormatError(
                f"{path}: tensor {name!r} has shape {shape}, config expects {t.shape}"
            )
        if (
            nbytes != int(np.prod(shape, dtype=np.int64)) * 4
            or off < 0
            or off + nbytes > len(payload)
        ):
            raise CorruptionError(f"{path}: tensor {name!r} payload out of bounds")
        data = np.frombuffer(payload, dtype="<f4", count=nbytes // 4, offset=off)
        t.data = np.ascontiguousarray(data.reshape(shape), dtype=np.float32)
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise FormatError(f"{path}: checkpoint is missing tensors: {sorted(missing)[:4]}")
    return params, step


def _tensor_entry(path, entry) -> tuple[str, tuple, int, int]:
    """(name, shape, offset, nbytes) of one tensor-directory entry."""
    try:
        name, shape = entry["name"], tuple(entry["shape"])
        off, nbytes = entry["offset"], entry["nbytes"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed tensor entry {entry!r}: {e}") from None
    if type(name) is not str or not all(type(v) is int for v in (*shape, off, nbytes)):
        raise FormatError(f"{path}: malformed tensor entry {entry!r}")
    return name, shape, off, nbytes
