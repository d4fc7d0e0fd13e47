import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iat.errors import DecodeError, InputError, ShapeError
from iat.image_io import (
    MAX_PIXELS,
    ImageRGB,
    _unfilter_scanlines,
    image_to_tensor,
    load_image,
    quantize,
    save_image,
    tensor_to_image,
)
from iat.tensor import Tensor


def random_image(rng, h=7, w=9):
    return ImageRGB(rng.random((h, w, 3)).astype(np.float32))


def test_byte_mapping():
    img = load_roundtrip_bytes(np.array([[[255, 0, 128]]], dtype=np.uint8))
    expected = np.array([1.0, 0.0, 128 / 255], dtype=np.float32)
    np.testing.assert_array_equal(img.pixels[0, 0], expected)


def load_roundtrip_bytes(codes, tmp_path=None, fmt=".png"):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / f"img{fmt}"
        save_image(ImageRGB(codes.astype(np.float32) / 255.0), p)
        return load_image(p)


def test_quantize_clamps():
    codes = quantize(np.array([1.2, -0.1, 0.5]))
    np.testing.assert_array_equal(codes, [255, 0, 128])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite(bad):
    values = np.full((2, 3, 3), 0.5, dtype=np.float32)
    values[1, 2, 0] = bad
    values[0, 0, 1] = np.nan
    with pytest.raises(InputError, match="2 of 18 values are not finite"):
        quantize(values)


def test_save_non_finite_writes_nothing(tmp_path):
    img = ImageRGB(np.full((2, 2, 3), 0.5, dtype=np.float32))
    img.pixels[0, 1, 2] = np.nan
    for name in ("nan.png", "nan.ppm"):
        with pytest.raises(InputError, match="1 of 12"):
            save_image(img, tmp_path / name)
    assert list(tmp_path.iterdir()) == []


def test_quantize_round_half_up():
    # 0.5/255 boundary rounds up, just below rounds down
    np.testing.assert_array_equal(quantize(np.array([0.5 / 255])), [1])
    np.testing.assert_array_equal(quantize(np.array([0.49 / 255])), [0])


def test_roundtrip_error_bound_exhaustive(tmp_path):
    # every code value survives, and arbitrary floats move by at most 1/510
    codes = np.arange(256, dtype=np.uint8).reshape(16, 16)
    img = ImageRGB(np.repeat(codes[:, :, None], 3, axis=2).astype(np.float32) / 255.0)
    p = tmp_path / "codes.png"
    save_image(img, p)
    back = load_image(p)
    np.testing.assert_array_equal(back.pixels, img.pixels)

    rng = np.random.default_rng(1)
    arbitrary = ImageRGB(rng.random((8, 8, 3)).astype(np.float32))
    save_image(arbitrary, p)
    again = load_image(p)
    assert np.abs(again.pixels - arbitrary.pixels).max() <= 1 / 510 + 1e-7


@pytest.mark.parametrize("fmt", [".png", ".ppm"])
def test_double_roundtrip_idempotent(tmp_path, fmt):
    rng = np.random.default_rng(2)
    p1 = tmp_path / f"a{fmt}"
    p2 = tmp_path / f"b{fmt}"
    save_image(random_image(rng), p1)
    first = load_image(p1)
    save_image(first, p2)
    second = load_image(p2)
    np.testing.assert_array_equal(first.pixels, second.pixels)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_png_roundtrip_property(h, w, seed):
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    back = load_roundtrip_bytes(codes)
    np.testing.assert_array_equal(quantize(back.pixels), codes)


def test_ppm_comment_and_whitespace(tmp_path):
    body = bytes(range(12))
    p = tmp_path / "c.ppm"
    p.write_bytes(b"P6 # comment\n# another\n 2\t2 \n255\n" + body)
    img = load_image(p)
    assert img.width == 2 and img.height == 2
    np.testing.assert_array_equal(quantize(img.pixels).reshape(-1), np.frombuffer(body, np.uint8))


def test_missing_file():
    with pytest.raises(OSError):
        load_image("/nonexistent/nothing.png")


def test_unknown_format(tmp_path):
    p = tmp_path / "x.png"
    p.write_bytes(b"not an image at all")
    with pytest.raises(DecodeError, match="byte 0"):
        load_image(p)


def test_truncated_png(tmp_path):
    rng = np.random.default_rng(3)
    p = tmp_path / "t.png"
    save_image(random_image(rng), p)
    buf = p.read_bytes()
    p.write_bytes(buf[: len(buf) - 12])
    with pytest.raises(DecodeError):
        load_image(p)


def test_png_crc_error_reports_offset(tmp_path):
    rng = np.random.default_rng(4)
    p = tmp_path / "crc.png"
    save_image(random_image(rng), p)
    buf = bytearray(p.read_bytes())
    buf[20] ^= 0xFF  # inside IHDR payload -> IHDR CRC mismatch at byte 8
    p.write_bytes(bytes(buf))
    with pytest.raises(DecodeError, match="byte 8"):
        load_image(p)


def _raw_png(width, height, depth, color, interlace, pixel_bytes, compress=True):
    def chunk(ctype, data):
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", width, height, depth, color, 0, 0, interlace)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(pixel_bytes) if compress else pixel_bytes)
        + chunk(b"IEND", b"")
    )


def test_16bit_png_rejected(tmp_path):
    p = tmp_path / "deep.png"
    row = b"\x00" + b"\x00\x01" * 3  # one 16-bit RGB pixel
    p.write_bytes(_raw_png(1, 1, 16, 2, 0, row))
    with pytest.raises(DecodeError, match="16-bit"):
        load_image(p)


def test_interlaced_png_rejected(tmp_path):
    p = tmp_path / "adam7.png"
    p.write_bytes(_raw_png(1, 1, 8, 2, 1, b"\x00\x01\x02\x03"))
    with pytest.raises(DecodeError, match="interlaced"):
        load_image(p)


def test_grayscale_png_rejected(tmp_path):
    p = tmp_path / "gray.png"
    p.write_bytes(_raw_png(1, 1, 8, 0, 0, b"\x00\x42"))
    with pytest.raises(DecodeError, match="color type"):
        load_image(p)


def test_rgba_alpha_dropped(tmp_path):
    p = tmp_path / "rgba.png"
    row = b"\x00" + bytes([10, 20, 30, 200, 40, 50, 60, 7])
    p.write_bytes(_raw_png(2, 1, 8, 6, 0, row))
    img = load_image(p)
    np.testing.assert_array_equal(quantize(img.pixels)[0, 0], [10, 20, 30])
    np.testing.assert_array_equal(quantize(img.pixels)[0, 1], [40, 50, 60])


def test_png_all_filter_types(tmp_path):
    # hand-build one PNG per filter type and compare against reference pixels
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 256, (4, 5, 3), dtype=np.uint8)
    stride = 5 * 3

    def filt(ftype, cur, prev):
        cur = cur.astype(np.int32)
        prev = prev.astype(np.int32)
        left = np.concatenate([np.zeros(3, np.int32), cur[:-3]])
        ul = np.concatenate([np.zeros(3, np.int32), prev[:-3]])
        if ftype == 0:
            return cur
        if ftype == 1:
            return (cur - left) % 256
        if ftype == 2:
            return (cur - prev) % 256
        if ftype == 3:
            return (cur - (left + prev) // 2) % 256
        p = left + prev - ul
        pa, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - ul)
        pred = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, prev, ul))
        return (cur - pred) % 256

    for ftype in range(5):
        raw = b""
        prev = np.zeros(stride, dtype=np.uint8)
        for y in range(4):
            cur = codes[y].reshape(-1)
            raw += bytes([ftype]) + filt(ftype, cur, prev).astype(np.uint8).tobytes()
            prev = cur
        p = tmp_path / f"f{ftype}.png"
        p.write_bytes(_raw_png(5, 4, 8, 2, 0, raw))
        img = load_image(p)
        np.testing.assert_array_equal(quantize(img.pixels), codes, err_msg=f"filter {ftype}")


def reference_unfilter(raw: bytes, width: int, height: int, bpp: int) -> np.ndarray:
    """PNG unfiltering one byte at a time, as the specification states it."""
    stride = width * bpp
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = [0] * stride
    for y in range(height):
        off = y * (stride + 1)
        ftype = raw[off]
        recon = [0] * stride
        for x in range(stride):
            filt = raw[off + 1 + x]
            a = recon[x - bpp] if x >= bpp else 0
            b = prev[x]
            c = prev[x - bpp] if x >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
            recon[x] = (filt + pred) % 256
        out[y] = recon
        prev = recon
    return out.reshape(height, width, bpp)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([3, 4]),
    st.sampled_from([256, 3]),  # 3 symbols make Paeth ties common
    st.integers(0, 2**31 - 1),
)
@example(1, 40, 3, 256, 0)
@example(40, 1, 4, 256, 1)
@example(1, 1, 3, 3, 2)
@example(40, 40, 4, 3, 3)
def test_unfilter_matches_reference(height, width, bpp, symbols, seed):
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 5, (height, 1), dtype=np.uint8)
    data = rng.integers(0, symbols, (height, width * bpp), dtype=np.uint8)
    raw = np.concatenate([kinds, data], axis=1).tobytes()
    got = _unfilter_scanlines(raw, width, height, bpp)
    assert got.dtype == np.uint8
    np.testing.assert_array_equal(got, reference_unfilter(raw, width, height, bpp))


def test_unknown_filter_type_names_first_bad_scanline(tmp_path):
    rows = [bytes([ftype]) + bytes(range(6)) for ftype in (0, 4, 5, 1, 9)]
    p = tmp_path / "filter5.png"
    p.write_bytes(_raw_png(2, 5, 8, 2, 0, b"".join(rows)))
    with pytest.raises(DecodeError, match="unknown filter type 5 on scanline 2$"):
        load_image(p)


def test_png_over_pixel_limit_rejected(tmp_path):
    p = tmp_path / "huge.png"
    p.write_bytes(_raw_png(100000, 100000, 8, 2, 0, b"\x00" * 64))
    assert len(p.read_bytes()) < 300
    with pytest.raises(DecodeError, match=f"100000x100000 image exceeds the {MAX_PIXELS}-pixel"):
        load_image(p)


def test_ppm_over_pixel_limit_rejected(tmp_path):
    p = tmp_path / "huge.ppm"
    p.write_bytes(b"P6\n100000 100000\n255\n" + bytes(300))
    with pytest.raises(DecodeError, match="100000x100000 image exceeds"):
        load_image(p)


@pytest.mark.parametrize("size", [b"0 2", b"2 0", b"-2 3"])
def test_ppm_non_positive_size_rejected(tmp_path, size):
    p = tmp_path / "empty.ppm"
    p.write_bytes(b"P6\n" + size + b"\n255\n" + bytes(18))
    with pytest.raises(DecodeError, match="is not positive"):
        load_image(p)


@pytest.mark.parametrize(
    "stream, message",
    [
        # 2x2 RGB needs 14 bytes; a megabyte of zeros compresses to about 1 kB
        (zlib.compress(bytes(1 << 20)), "at least 15 bytes, expected 14"),
        (zlib.compress(bytes(15)), "at least 15 bytes, expected 14"),
        (zlib.compress(bytes(13)), "13 bytes, expected 14"),
        (zlib.compress(bytes(14))[:-6], "truncated IDAT stream"),
    ],
    ids=["bomb", "one_byte_long", "short", "truncated"],
)
def test_idat_size_mismatch_rejected(tmp_path, stream, message):
    p = tmp_path / "idat.png"
    p.write_bytes(_raw_png(2, 2, 8, 2, 0, stream, compress=False))
    with pytest.raises(DecodeError, match=message):
        load_image(p)


def test_tensor_layout_roundtrip():
    rng = np.random.default_rng(6)
    img = random_image(rng, 2, 2)
    t = image_to_tensor(img)
    assert t.shape == (1, 3, 2, 2)
    # distinct values land at (c, h, w)
    for c in range(3):
        for h in range(2):
            for w in range(2):
                assert t.data[0, c, h, w] == img.pixels[h, w, c]
    back = tensor_to_image(t)
    np.testing.assert_array_equal(back.pixels, img.pixels)


def test_tensor_to_image_clamps():
    t = Tensor(np.full((1, 3, 2, 2), 1.5, dtype=np.float32))
    img = tensor_to_image(t)
    assert img.pixels.max() == 1.0


def test_tensor_to_image_shape_errors():
    with pytest.raises(ShapeError):
        tensor_to_image(Tensor(np.zeros((3, 4, 4))))
    with pytest.raises(ShapeError):
        tensor_to_image(Tensor(np.zeros((1, 4, 4, 4))))
    with pytest.raises(ShapeError):
        ImageRGB(np.zeros((4, 4)))


def test_save_unknown_extension(tmp_path):
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="extension"):
        save_image(random_image(rng), tmp_path / "img.jpg")
