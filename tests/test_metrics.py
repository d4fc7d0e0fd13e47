import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iat.errors import InputError, ShapeError
from iat.image_io import ImageRGB
from iat.metrics import MetricReport, psnr, ssim


def img(arr):
    return ImageRGB(np.asarray(arr, dtype=np.float32))


def checkerboard(h=24, w=24, lo=0.3, hi=0.7):
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    base = np.where((yy + xx) % 2 == 0, hi, lo).astype(np.float32)
    return img(np.repeat(base[:, :, None], 3, axis=2))


def test_psnr_identical_capped():
    a = checkerboard()
    assert psnr(a, a) == 99.0


def test_psnr_constant_difference_closed_form():
    base = np.full((8, 8, 3), 0.4, dtype=np.float32)
    assert abs(psnr(img(base), img(base + 0.1)) - 20.0) < 1e-5
    assert abs(psnr(img(base), img(base + 0.01)) - 40.0) < 1e-4


def test_psnr_symmetric_and_dimension_check():
    rng = np.random.default_rng(0)
    a = img(rng.random((12, 13, 3)))
    b = img(rng.random((12, 13, 3)))
    assert psnr(a, b) == psnr(b, a)
    with pytest.raises(ShapeError):
        psnr(a, img(rng.random((13, 12, 3))))


def test_ssim_identical_is_one():
    rng = np.random.default_rng(1)
    a = img(rng.random((16, 20, 3)))
    assert abs(ssim(a, a) - 1.0) < 1e-9


def test_ssim_negative_image_low_score():
    a = checkerboard()
    inverted = img(1.0 - a.pixels)
    assert ssim(a, inverted) < 0.5


def test_ssim_symmetric():
    rng = np.random.default_rng(2)
    a = img(rng.random((15, 15, 3)))
    b = img(np.clip(a.pixels + rng.normal(0, 0.1, a.pixels.shape), 0, 1))
    assert abs(ssim(a, b) - ssim(b, a)) < 1e-12


def test_ssim_rejects_small_images():
    rng = np.random.default_rng(3)
    with pytest.raises(InputError):
        ssim(img(rng.random((10, 30, 3))), img(rng.random((10, 30, 3))))


@pytest.mark.parametrize("metric", [psnr, ssim])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_non_finite_image_has_no_score(metric, bad, side):
    # min(99, nan) is 99, so a NaN output used to score as a perfect match
    pair = [checkerboard(), checkerboard()]
    pair[side].pixels[5, 7, 1] = bad
    with pytest.raises(InputError, match="not finite"):
        metric(*pair)


def test_ssim_bounds():
    rng = np.random.default_rng(4)
    for _ in range(5):
        a = img(rng.random((14, 14, 3)))
        b = img(rng.random((14, 14, 3)))
        v = ssim(a, b)
        assert -1.0 <= v <= 1.0


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans(), st.booleans())
def test_metrics_invariant_to_joint_flips(seed, fh, fv):
    rng = np.random.default_rng(seed)
    a = rng.random((13, 17, 3)).astype(np.float32)
    b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1).astype(np.float32)

    def flip(x):
        if fh:
            x = x[:, ::-1]
        if fv:
            x = x[::-1]
        return np.ascontiguousarray(x)

    assert abs(psnr(img(a), img(b)) - psnr(img(flip(a)), img(flip(b)))) < 1e-9
    assert abs(ssim(img(a), img(b)) - ssim(img(flip(a)), img(flip(b)))) < 1e-9


def test_report_aggregates_mean():
    rng = np.random.default_rng(5)
    report = MetricReport()
    pairs = []
    for i in range(3):
        a = img(rng.random((12, 12, 3)))
        b = img(np.clip(a.pixels + rng.normal(0, 0.02, a.pixels.shape), 0, 1))
        report.add(f"img{i}", a, b)
        pairs.append((a, b))
    assert report.mean_psnr == pytest.approx(np.mean([psnr(a, b) for a, b in pairs]))
    assert report.mean_ssim == pytest.approx(np.mean([ssim(a, b) for a, b in pairs]))
