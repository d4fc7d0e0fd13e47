"""Whole-model composition, parameter accounting, FLOP estimates, checkpoints.

The checkpoint format is a custom versioned binary: magic "IATC", version,
a JSON header (config, step counter, tensor directory with byte offsets),
raw little-endian float32 payloads, and a trailing CRC-32 over everything
before it. Loads are bit-exact and never reshape silently.
"""

import dataclasses
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptionError, FormatError, InputError
from .fileio import atomic_open
from .isp import compose_iat
from .model_global import (
    EncoderParams,
    GpmParams,
    NUM_QUERIES,
    encoder_forward,
    global_branch_init,
    gpm_forward,
)
from .model_local import LocalBranchParams, local_branch_forward, local_branch_init
from .tensor import Tensor

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
        return cls(**{f.name: f.type(d[f.name]) for f in dataclasses.fields(cls)})


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


def named_parameters(obj, prefix: str = ""):
    """Yield (dotted name, tensor) for every learnable tensor, field order."""
    if isinstance(obj, Tensor):
        if obj.requires_grad:
            yield prefix, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            name = f"{prefix}.{f.name}" if prefix else f.name
            yield from named_parameters(getattr(obj, f.name), name)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from named_parameters(item, f"{prefix}.{i}")
    # ints, floats, arrays and None are not learnable


def count_params(p: IATParams) -> dict:
    """Exact scalar counts per module plus the total."""
    report = {"local": 0, "encoder": 0, "gpm": 0}
    for name, t in named_parameters(p):
        report[name.split(".", 1)[0]] += t.size
    report["global"] = report["encoder"] + report["gpm"]
    report["total"] = report["local"] + report["global"]
    return report


def _ceil_half(n: int) -> int:
    return (n + 1) // 2


def estimate_flops_detail(config: IATConfig, height: int, width: int) -> dict:
    """Analytic multiply-accumulate counts, reported as GFLOPs (1 MAC = 1 FLOP).

    Counts convolutions, linear projections and attention products, like
    standard profilers; activations are excluded. The local blocks' norms and
    layer scales are folded into their convs' weights (`pem_forward`), so
    they cost no per-pixel MACs and are not counted. The published counting
    convention is unknown, so this estimator documents its own.
    """
    if height < 4 or width < 4:
        raise InputError(f"resolution {height}x{width} below the 4x4 minimum")
    c, blocks, d = config.channels, config.blocks, config.d
    px = height * width
    per_block = 9 * c + 9 * c + 3 * c * c + c * c  # pos_dw, dw, pw1/pw2/mix1, mix2
    local_macs = px * (c * 3 * 9 + 2 * blocks * per_block + 2 * (3 * c * 9))
    h1, w1 = _ceil_half(height), _ceil_half(width)
    h2, w2 = _ceil_half(h1), _ceil_half(w1)
    enc_macs = h1 * w1 * (d // 2) * 3 * 9 + h2 * w2 * d * (d // 2) * 9
    kv_px = h2 * w2
    attn_macs = (
        kv_px * 9 * d  # positional depthwise conv
        + 2 * kv_px * d * d  # K and V projections
        + 2 * NUM_QUERIES * kv_px * d  # scores and attention-weighted values
        + NUM_QUERIES * d * d  # output projection
        + NUM_QUERIES * 4 * d * d  # FFN
        + NUM_QUERIES * d  # decoding heads
    )
    scale = 1e-9
    local_g = local_macs * scale
    global_g = (enc_macs + attn_macs) * scale
    return {"local": local_g, "global": global_g, "total": local_g + global_g}


def estimate_flops(p: IATParams | IATConfig, height: int, width: int) -> float:
    config = p.config if isinstance(p, IATParams) else p
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
        step = int(header.get("step", 0))
        entries = header["tensors"]
    except (ValueError, KeyError, TypeError) as e:
        raise FormatError(f"{path}: malformed checkpoint header: {e}") from None

    params = iat_init(config, rng=np.random.default_rng(0))
    expected = dict(named_parameters(params))
    seen = set()
    payload = buf[header_end:-4]
    for entry in entries:
        name = entry["name"]
        if name not in expected:
            raise FormatError(f"{path}: unknown tensor name {name!r} for config {config}")
        t = expected[name]
        shape = tuple(entry["shape"])
        if shape != t.shape:
            raise FormatError(
                f"{path}: tensor {name!r} has shape {shape}, config expects {t.shape}"
            )
        off, nbytes = entry["offset"], entry["nbytes"]
        if nbytes != int(np.prod(shape, dtype=np.int64)) * 4 or off + nbytes > len(payload):
            raise CorruptionError(f"{path}: tensor {name!r} payload out of bounds")
        data = np.frombuffer(payload, dtype="<f4", count=nbytes // 4, offset=off)
        t.data = np.ascontiguousarray(data.reshape(shape), dtype=np.float32)
        seen.add(name)
    missing = set(expected) - seen
    if missing:
        raise FormatError(f"{path}: checkpoint is missing tensors: {sorted(missing)[:4]}")
    return params, step
