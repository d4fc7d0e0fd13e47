"""8-bit sRGB image I/O and image<->tensor layout conversion.

Two file formats, both implemented here on top of the standard library:
PNG (8-bit RGB, plus RGBA with the alpha dropped) and binary PPM (P6) as the
dependency-free fallback. 16-bit, palette, grayscale and interlaced PNGs are
rejected with a decode error rather than silently converted.

Pixel codes pass through untransformed: byte b maps to b/255 on load, and
saving quantizes with round-half-up after clamping to [0, 1], so a
load->save->load round trip is exact.

Both decoders refuse images of more than MAX_PIXELS pixels before any pixel
buffer is allocated or any IDAT data inflated.
"""

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DecodeError, InputError, ShapeError
from .tensor import Tensor

_PNG_SIG = b"\x89PNG\r\n\x1a\n"

MAX_PIXELS = 1 << 26  # width * height limit for decoding


@dataclass
class ImageRGB:
    """H x W x 3 float32 image, sRGB-encoded, values in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float32)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ShapeError(f"ImageRGB needs (H, W, 3) pixels, got {px.shape}")
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def quantize(values: np.ndarray) -> np.ndarray:
    """Clamp to [0,1] and map to bytes with round-half-up (deterministic).

    NaN and infinite values have no byte; they raise InputError.
    """
    bad = values.size - np.count_nonzero(np.isfinite(values))
    if bad:
        raise InputError(f"{bad} of {values.size} values are not finite")
    v = np.clip(values, 0.0, 1.0)
    return np.floor(v * 255.0 + 0.5).astype(np.uint8)


# ---------------------------------------------------------------------------
# PNG


def _png_chunks(buf: bytes):
    pos = 8
    n = len(buf)
    while pos < n:
        if pos + 8 > n:
            raise DecodeError(f"truncated chunk header at byte {pos}")
        (length,) = struct.unpack(">I", buf[pos : pos + 4])
        ctype = buf[pos + 4 : pos + 8]
        data_end = pos + 8 + length
        if data_end + 4 > n:
            raise DecodeError(f"truncated {ctype!r} chunk at byte {pos}")
        data = buf[pos + 8 : data_end]
        (crc,) = struct.unpack(">I", buf[data_end : data_end + 4])
        if zlib.crc32(ctype + data) & 0xFFFFFFFF != crc:
            raise DecodeError(f"CRC mismatch in {ctype!r} chunk at byte {pos}")
        yield ctype, data, pos
        pos = data_end + 4
        if ctype == b"IEND":
            return
    raise DecodeError("missing IEND chunk")


def _unfilter_scanlines(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """Undo the per-scanline PNG filters; returns (height, width, bpp) uint8 codes."""
    stride = width * bpp
    expected = (stride + 1) * height
    if len(raw) != expected:
        raise DecodeError(
            f"decompressed pixel data is {len(raw)} bytes, expected {expected}"
        )
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    bad = np.flatnonzero(rows[:, 0] > 4)
    if bad.size:
        y = int(bad[0])
        raise DecodeError(f"unknown filter type {rows[y, 0]} on scanline {y}")
    out = np.empty((height, width, bpp), dtype=np.uint8)
    # a band of n rows is skewed into (n + width) * n cells; n <= 2 * width keeps
    # that within 3x the band's pixels however tall the image is
    band = min(height, 2 * width)
    for y0 in range(0, height, band):
        up = out[y0 - 1] if y0 else np.zeros((width, bpp), dtype=np.uint8)
        out[y0 : y0 + band] = _unfilter_band(rows[y0 : y0 + band], up)
    return out


def _unfilter_band(rows: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Reconstruct filtered scanlines `rows` (filter byte first) lying below `up`.

    Byte (y, j, lane) depends only on the same lane of its left (y, j-1), up
    (y-1, j) and up-left (y-1, j-1) neighbours, so every pixel on the
    anti-diagonal y + j = k is reconstructed in one vectorized step from
    diagonals k-1 and k-2: rows + width - 1 steps for the whole band.
    """
    n = rows.shape[0]
    width, bpp = up.shape
    # Skewed layout: pixel (y, j) sits at [y + j + 2, y + 1]. Index 0 on the
    # second axis is the row above the band, and [k, k] is the zero column
    # left of the image, so a, b and c of diagonal k are contiguous slices.
    ys = np.arange(1, n + 1)[:, None]
    ks = ys + np.arange(1, width + 1)
    filtered = np.zeros((n + width + 1, n + 1, bpp), dtype=np.uint8)
    filtered[ks, ys] = rows[:, 1:].reshape(n, width, bpp)
    recon = np.zeros(filtered.shape, dtype=np.int16)
    recon[1 : width + 1, 0] = up
    kinds = np.zeros((n + 1, 1), dtype=np.intp)
    kinds[1:, 0] = rows[:, 0]
    for k in range(2, n + width + 1):
        lo, hi = max(1, k - width), min(n, k - 1) + 1
        a = recon[k - 1, lo:hi]  # left
        b = recon[k - 1, lo - 1 : hi - 1]  # up
        c = recon[k - 2, lo - 1 : hi - 1]  # up-left
        # Paeth: pa = |p - a| = |b - c|, pb = |a - c|, pc = |p - c|; ties prefer a, then b
        bc, ac = b - c, a - c
        pa, pb, pc = np.abs(bc), np.abs(ac), np.abs(bc + ac)
        paeth = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
        # filter types 0-4: None, Sub, Up, Average, Paeth
        pred = np.choose(kinds[lo:hi], (0, a, b, (a + b) >> 1, paeth))
        np.bitwise_and(filtered[k, lo:hi] + pred, 255, out=recon[k, lo:hi])
    return recon[ks, ys]


def _decode_png(buf: bytes) -> np.ndarray:
    if len(buf) < 8 or buf[:8] != _PNG_SIG:
        raise DecodeError("bad PNG signature at byte 0")
    header = None
    idat = []
    for ctype, data, pos in _png_chunks(buf):
        if ctype == b"IHDR":
            if header is not None:
                raise DecodeError(f"duplicate IHDR at byte {pos}")
            if len(data) != 13:
                raise DecodeError(f"IHDR length {len(data)} at byte {pos}")
            header = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            if header is None:
                raise DecodeError(f"IDAT before IHDR at byte {pos}")
            idat.append(data)
    if header is None:
        raise DecodeError("missing IHDR chunk")
    width, height, depth, color, compression, filt, interlace = header
    if width == 0 or height == 0:
        raise DecodeError(f"zero-sized image {width}x{height}")
    if width * height > MAX_PIXELS:
        raise DecodeError(f"{width}x{height} image exceeds the {MAX_PIXELS}-pixel limit")
    if depth != 8:
        raise DecodeError(f"{depth}-bit PNG not supported (8-bit only)")
    if color not in (2, 6):
        raise DecodeError(f"color type {color} not supported (RGB/RGBA only)")
    if compression != 0 or filt != 0:
        raise DecodeError("nonstandard compression/filter method")
    if interlace != 0:
        raise DecodeError("interlaced (Adam7) PNG not supported")
    if not idat:
        raise DecodeError("no IDAT chunks")
    bpp = 3 if color == 2 else 4
    expected = (width * bpp + 1) * height
    inflater = zlib.decompressobj()
    try:
        # one byte past the expected size is enough to tell a stream is too long
        raw = inflater.decompress(b"".join(idat), expected + 1)
    except zlib.error as e:
        raise DecodeError(f"corrupt IDAT stream: {e}") from None
    if len(raw) > expected:
        raise DecodeError(f"IDAT inflates to at least {len(raw)} bytes, expected {expected}")
    if not inflater.eof:
        raise DecodeError(f"truncated IDAT stream: {len(raw)} bytes, expected {expected}")
    px = _unfilter_scanlines(raw, width, height, bpp)
    return px[:, :, :3]  # drop alpha when present


def _encode_png(codes: np.ndarray) -> bytes:
    height, width, _ = codes.shape

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    rows = codes.reshape(height, width * 3)
    raw = b"".join(b"\x00" + rows[y].tobytes() for y in range(height))
    return (
        _PNG_SIG
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


# ---------------------------------------------------------------------------
# PPM (binary P6, maxval 255)


def _decode_ppm(buf: bytes) -> np.ndarray:
    pos = 0

    def token():
        nonlocal pos
        while pos < len(buf):
            ch = buf[pos : pos + 1]
            if ch == b"#":  # comment to end of line
                while pos < len(buf) and buf[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DecodeError(f"truncated PPM header at byte {start}")
        return buf[start:pos]

    if token() != b"P6":
        raise DecodeError("not a binary PPM (P6) file")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise DecodeError(f"malformed PPM header near byte {pos}") from None
    if maxval != 255:
        raise DecodeError(f"PPM maxval {maxval} not supported (255 only)")
    if width <= 0 or height <= 0:
        raise DecodeError(f"PPM size {width}x{height} is not positive")
    if width * height > MAX_PIXELS:
        raise DecodeError(f"{width}x{height} image exceeds the {MAX_PIXELS}-pixel limit")
    pos += 1  # single whitespace after maxval
    need = width * height * 3
    if len(buf) - pos < need:
        raise DecodeError(f"PPM pixel data truncated at byte {len(buf)}")
    px = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    return px.reshape(height, width, 3)


def _encode_ppm(codes: np.ndarray) -> bytes:
    height, width, _ = codes.shape
    return f"P6\n{width} {height}\n255\n".encode("ascii") + codes.tobytes()


# ---------------------------------------------------------------------------
# public API


def load_image(path) -> ImageRGB:
    """Load a PNG or PPM file (sniffed by magic bytes) as floats in [0, 1]."""
    buf = Path(path).read_bytes()
    if buf[:8] == _PNG_SIG:
        codes = _decode_png(buf)
    elif buf[:2] == b"P6":
        codes = _decode_ppm(buf)
    else:
        raise DecodeError(f"{path}: unrecognized image format at byte 0")
    return ImageRGB(codes.astype(np.float32) / 255.0)


def save_image(img: ImageRGB, path) -> None:
    """Write PNG or PPM depending on the file extension."""
    path = Path(path)
    codes = quantize(img.pixels)
    suffix = path.suffix.lower()
    if suffix == ".png":
        data = _encode_png(codes)
    elif suffix == ".ppm":
        data = _encode_ppm(codes)
    else:
        raise ValueError(f"unsupported image extension {suffix!r} (use .png or .ppm)")
    path.write_bytes(data)


def image_to_tensor(img: ImageRGB) -> Tensor:
    """(H, W, 3) image -> (1, 3, H, W) float32 tensor."""
    return Tensor(np.transpose(img.pixels, (2, 0, 1))[None])


def tensor_to_image(t: Tensor) -> ImageRGB:
    """(1, 3, H, W) tensor -> image, clamping values into [0, 1]."""
    if t.ndim != 4 or t.shape[0] != 1 or t.shape[1] != 3:
        raise ShapeError(f"expected tensor shape (1, 3, H, W), got {t.shape}")
    px = np.clip(np.transpose(t.data[0], (1, 2, 0)), 0.0, 1.0)
    return ImageRGB(px)
