"""Seeded inputs for the benchmark, built from numpy alone.

Nothing here calls the program under test, so a change to the program can
not change the inputs it is measured on. Every input is a pure function of
its pool index; `--seed` only chooses which pool members a run uses and in
which order, which is what lets the golden references in `golden/` cover
every seed.
"""

import struct
import zlib

import numpy as np

# Pool sizes; the goldens hold one entry per member.
POOLS = {
    "enhance_png_paeth_600x400": 8,
    "train_64_b8": 12,
}
SHAPES = {  # (height, width)
    "enhance_png_paeth_600x400": (400, 600),
}
TRAIN_PAIRS, TRAIN_SIZE = 8, 64
CHECKPOINT_SEED = 20220530


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def run_order(workload: str, seed: int) -> list[int]:
    """Pool indices in the order one run visits them (cycled if it runs out)."""
    return [int(i) for i in _rng(seed, 1).permutation(POOLS[workload])]


# ---------------------------------------------------------------------------
# images


def low_light_scene(index: int, height: int, width: int) -> np.ndarray:
    """A dark, noisy, piecewise-smooth photo as (H, W, 3) uint8 codes.

    Soft light pools and flat rectangles give edges and smooth shading; a
    per-image exposure between 0.04 and 0.12 and one code of sensor noise
    make it a low-light capture the model is meant to brighten.
    """
    rng = _rng(7, height, width, index)
    yy, xx = np.meshgrid(
        np.linspace(0.0, 1.0, height, dtype=np.float32),
        np.linspace(0.0, 1.0, width, dtype=np.float32),
        indexing="ij",
    )
    img = np.zeros((height, width, 3), np.float32) + rng.uniform(0.1, 0.3, 3).astype(np.float32)
    for _ in range(5):
        cy, cx = rng.uniform(0, 1, 2)
        sigma = rng.uniform(0.1, 0.4)
        blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / np.float32(2 * sigma**2))
        img += blob[:, :, None] * rng.uniform(0.1, 0.6, 3).astype(np.float32)
    for _ in range(6):
        y0, x0 = rng.integers(0, height - 8), rng.integers(0, width - 8)
        y1, x1 = y0 + rng.integers(8, height // 3), x0 + rng.integers(8, width // 3)
        img[y0:y1, x0:x1] = rng.uniform(0.05, 0.9, 3).astype(np.float32)
    img = np.clip(img, 0.0, 1.0) ** np.float32(2.2) * np.float32(rng.uniform(0.04, 0.12))
    img = img ** np.float32(1 / 2.2) + rng.normal(0.0, 1 / 255, img.shape).astype(np.float32)
    return np.floor(np.clip(img, 0.0, 1.0) * 255 + 0.5).astype(np.uint8)


def sample_positions(workload: str, index: int, count: int) -> np.ndarray:
    """Fixed flat pixel indices at which an output is compared with its golden."""
    height, width = SHAPES[workload]
    return _rng(13, index).choice(height * width, count, replace=False)


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(ctype + data) & 0xFFFFFFFF
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", crc)


def encode_png_paeth(codes: np.ndarray) -> bytes:
    """8-bit RGB PNG with filter type 4 (Paeth) on every scanline."""
    height, width, _ = codes.shape
    x = codes.reshape(height, width * 3).astype(np.int16)
    a = np.zeros_like(x)
    a[:, 3:] = x[:, :-3]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, 3:] = x[:-1, :-3]
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    pred = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    rows = ((x - pred) % 256).astype(np.uint8)
    raw = np.concatenate([np.full((height, 1), 4, np.uint8), rows], axis=1).tobytes()
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(raw, 6))
        + _png_chunk(b"IEND", b"")
    )


def enhance_input(workload: str, index: int) -> tuple[np.ndarray, bytes]:
    """(codes, PNG file bytes) of one enhance input."""
    codes = low_light_scene(index, *SHAPES[workload])
    return codes, encode_png_paeth(codes)


# ---------------------------------------------------------------------------
# training pairs


def train_pairs(index: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eight (input, target) float32 64x64 pairs, the c06 acceptance shapes.

    Targets are blocky natural-looking scenes; inputs are the same scenes
    through a zero-noise low-light camera model (linearize, scale by an
    exposure in [0.05, 0.5], white-balance error, re-encode with a sampled
    gamma), quantized to 8 bits.
    """
    rng = _rng(11, index)
    n = TRAIN_SIZE
    pairs = []
    for _ in range(TRAIN_PAIRS):
        luma = np.kron(rng.uniform(0.2, 1.0, (n // 4, n // 4, 1)), np.ones((4, 4, 1)))
        tint = np.kron(rng.uniform(-0.1, 0.1, (n // 8, n // 8, 3)), np.ones((8, 8, 1)))
        clean = np.clip(luma + tint, 0.0, 1.0)
        lin = clean**2.2 * rng.uniform(0.05, 0.5) / rng.uniform(0.7, 1.3, 3)
        dark = np.clip(lin, 0.0, 1.0) ** rng.uniform(1 / 2.6, 1 / 1.8)
        dark = np.floor(dark * 255 + 0.5) / 255
        pairs.append((dark.astype(np.float32), clean.astype(np.float32)))
    return pairs


# ---------------------------------------------------------------------------
# checkpoint


def perturbed_values(named_shapes) -> dict[str, np.ndarray]:
    """A seeded non-identity parameter set, keyed by parameter name.

    At initialization the heads and queries are zero and the model is the
    identity map, under which a broken fast path could still reproduce the
    input. These values make every branch matter: fan-in scaled weights,
    normalizations near identity, layer scales of 0.05-0.2, a gain head near
    1.6 and a global branch that tilts the color matrix and lowers gamma.
    Only names and shapes come from the program, so a change to its
    initializer does not move the goldens.
    """
    rng = _rng(CHECKPOINT_SEED)
    out = {}
    for name, shape in named_shapes:
        leaf = name.rsplit(".", 1)[-1]
        parent = name.split(".")[-2] if "." in name else ""
        if name.endswith("gain_head.bias"):
            v = rng.uniform(1.5, 1.7, shape)
        elif name.endswith("_head.weight"):
            v = rng.uniform(-0.03, 0.03, shape)
        elif name == "gpm.head_gamma_b":
            v = np.full(shape, -0.2)  # gamma = softplus(-0.4) + 1 - ln 2, about 0.82
        elif name.startswith("gpm.head_"):
            v = rng.uniform(-0.004, 0.004, shape)
        elif name == "gpm.queries":
            v = rng.normal(0.0, 0.5, shape)
        elif parent.startswith("norm"):
            base = {"scale": 1.0, "bias": 0.0}.get(leaf, np.eye(shape[0]))
            v = base + rng.uniform(-0.05, 0.05, shape)
        elif parent == "scale":  # layer scales
            v = rng.uniform(0.05, 0.2, shape)
        elif leaf == "weight" or (len(shape) == 2 and name.startswith("gpm.")):
            fan_in = int(np.prod(shape[1:])) if leaf == "weight" else shape[0]
            bound = np.sqrt(6.0 / fan_in)
            v = rng.uniform(-bound, bound, shape)
        else:  # biases
            v = rng.uniform(-0.02, 0.02, shape)
        out[name] = np.asarray(v, dtype=np.float32).reshape(shape)
    return out
