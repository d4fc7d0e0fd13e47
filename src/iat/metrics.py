"""Full-reference image quality metrics: PSNR and SSIM.

PSNR uses the [0,1] dynamic range and is capped at 99 dB for identical
images so CSV aggregation never sees infinities. SSIM is the standard
single-scale form: 11x11 Gaussian window (sigma 1.5), K1=0.01, K2=0.03,
computed per channel over valid window positions and averaged. Numbers are
comparable run-to-run; cross-implementation SSIM comparisons are always
approximate since windowing choices differ in the wild. An image that
holds a NaN or an inf has neither metric: both raise InputError.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputError, ShapeError
from .image_io import ImageRGB

PSNR_CAP = 99.0
SSIM_WINDOW = 11  # SSIM's window side: images below it have no SSIM
_SIGMA = 1.5
_K1, _K2 = 0.01, 0.03


def _check_pair(a: ImageRGB, b: ImageRGB):
    if a.pixels.shape != b.pixels.shape:
        raise ShapeError(f"image sizes differ: {a.pixels.shape} vs {b.pixels.shape}")
    for img in (a, b):  # min(cap, nan) is the cap: a NaN would score as a perfect match
        if not np.isfinite(img.pixels).all():
            raise InputError("pixel values are not finite: the image has no PSNR or SSIM")


def psnr(a: ImageRGB, b: ImageRGB) -> float:
    """10*log10(1/MSE) in dB over all pixels and channels."""
    _check_pair(a, b)
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP
    return min(PSNR_CAP, 10.0 * math.log10(1.0 / mse))


def _gaussian_kernel() -> np.ndarray:
    half = (SSIM_WINDOW - 1) / 2.0
    x = np.arange(SSIM_WINDOW, dtype=np.float64) - half
    k = np.exp(-(x * x) / (2.0 * _SIGMA * _SIGMA))
    return k / k.sum()


_KERNEL = _gaussian_kernel()


def _filter_valid(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian filtering, valid positions only. img is (H, W)."""
    rows = sliding_window_view(img, SSIM_WINDOW, axis=0) @ _KERNEL  # (H-10, W)
    return sliding_window_view(rows, SSIM_WINDOW, axis=1) @ _KERNEL  # (H-10, W-10)


def ssim(a: ImageRGB, b: ImageRGB) -> float:
    """Mean structural similarity over channels and valid window positions."""
    _check_pair(a, b)
    h, w = a.pixels.shape[:2]
    if min(h, w) < SSIM_WINDOW:
        raise InputError(f"image {h}x{w} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} SSIM window")
    c1 = _K1 * _K1  # dynamic range is 1.0
    c2 = _K2 * _K2
    values = []
    for ch in range(3):
        x = a.pixels[:, :, ch].astype(np.float64)
        y = b.pixels[:, :, ch].astype(np.float64)
        mu_x = _filter_valid(x)
        mu_y = _filter_valid(y)
        var_x = _filter_valid(x * x) - mu_x * mu_x
        var_y = _filter_valid(y * y) - mu_y * mu_y
        cov = _filter_valid(x * y) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        values.append(np.mean(num / den))
    return float(np.mean(values))


@dataclass
class MetricReport:
    """Per-image values plus their arithmetic means."""

    names: list[str]
    psnr_values: list[float]
    ssim_values: list[float]

    @property
    def mean_psnr(self) -> float:
        return float(np.mean(self.psnr_values))

    @property
    def mean_ssim(self) -> float:
        return float(np.mean(self.ssim_values))

    def add(self, name: str, a: ImageRGB, b: ImageRGB):
        self.names.append(name)
        self.psnr_values.append(psnr(a, b))
        self.ssim_values.append(ssim(a, b))

    @classmethod
    def empty(cls) -> "MetricReport":
        return cls(names=[], psnr_values=[], ssim_values=[])
