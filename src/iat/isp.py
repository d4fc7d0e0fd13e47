"""Global ISP math and the synthetic degradation simulator.

The enhancement model's global correction is a 3x3 color transform followed
by a clamped power law:

    out[c_i] = max(sum_j W[c_i, c_j] * x[c_j], CLAMP_EPS) ** gamma

applied per pixel. The degradation simulator runs the inverse direction to
manufacture training pairs from clean sRGB images: linearize, scale exposure,
unwind the color pipeline to a pseudo-raw image, add sensor noise, then
re-render through white balance, color matrix and an output gamma.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ShapeError
from .image_io import ImageRGB
from .tensor import Tensor, matmul, pow_clamped, reshape

# Pure power-law linearization for clean sRGB inputs; keeps the simulator
# exactly invertible by the model's global operation.
LINEARIZE_EXPONENT = 2.2

# Floor of the power law's base: it keeps the base positive, so any gamma and
# the gamma gradient's log stay finite.
CLAMP_EPS = 1e-8

#: Linear-domain (pre-gamma) image: H x W x 3 floats >= 0, not bounded above.
LinearImage = np.ndarray


@dataclass
class GlobalParams:
    """3x3 color transform + gamma exponent (the clamp floor is CLAMP_EPS).

    color_matrix and gamma may be graph tensors (model outputs) or plain
    constants wrapped in tensors for analytic use.
    """

    color_matrix: Tensor
    gamma: Tensor

    def __post_init__(self):
        if tuple(self.color_matrix.shape) != (3, 3):
            raise ShapeError(f"color matrix must be 3x3, got {self.color_matrix.shape}")
        if self.gamma.size != 1:
            raise ShapeError(f"gamma must be scalar, got shape {self.gamma.shape}")

    @classmethod
    def from_values(cls, matrix, gamma: float) -> "GlobalParams":
        return cls(Tensor(np.asarray(matrix, dtype=np.float64)), Tensor(float(gamma)))


@dataclass
class DegradationParams:
    """Forward camera-pipeline parameters used to synthesize one pair."""

    wb_gains: np.ndarray  # 3 positive per-channel white-balance gains
    ccm: np.ndarray  # 3x3 color matrix, rows sum to 1
    gamma_d: float  # output gamma of the degraded rendering
    exposure: float  # scene brightness multiplier in linear domain
    noise_sigma: float  # Gaussian noise std added to the pseudo-raw image

    def __post_init__(self):
        self.wb_gains = np.asarray(self.wb_gains, dtype=np.float64)
        self.ccm = np.asarray(self.ccm, dtype=np.float64)
        if self.wb_gains.shape != (3,) or not (self.wb_gains > 0).all():
            raise ConfigurationError(f"wb_gains must be 3 positive values, got {self.wb_gains}")
        if self.ccm.shape != (3, 3):
            raise ShapeError(f"ccm must be 3x3, got {self.ccm.shape}")
        if not np.allclose(self.ccm.sum(axis=1), 1.0, atol=1e-6):
            raise ConfigurationError("ccm rows must sum to 1 (white-point preserving)")
        if self.gamma_d <= 0:
            raise ConfigurationError(f"gamma_d must be > 0, got {self.gamma_d}")
        if self.exposure <= 0:
            raise ConfigurationError(f"exposure must be > 0, got {self.exposure}")
        if self.noise_sigma < 0:
            raise ConfigurationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if abs(np.linalg.det(self.ccm)) < 1e-6:
            raise ConfigurationError("ccm is numerically singular")

    def to_dict(self) -> dict:
        """Plain JSON-ready values; `DegradationParams(**d)` rebuilds them."""
        return {
            "wb_gains": self.wb_gains.tolist(),
            "ccm": self.ccm.tolist(),
            "gamma_d": self.gamma_d,
            "exposure": self.exposure,
            "noise_sigma": self.noise_sigma,
        }


# ---------------------------------------------------------------------------
# differentiable global operation


def apply_color_matrix(x: Tensor, matrix: Tensor) -> Tensor:
    """Per-pixel 3-vector transform: out[c_i] = sum_j M[c_i, c_j] x[c_j]."""
    if tuple(matrix.shape) != (3, 3):
        raise ShapeError(f"color matrix must be 3x3, got {matrix.shape}")
    if x.ndim != 4 or x.shape[0] != 1 or x.shape[1] != 3:
        raise ShapeError(f"expected (1, 3, H, W) input, got {x.shape}")
    _, _, h, w = x.shape
    flat = reshape(x, (3, h * w))
    return reshape(matmul(matrix, flat), (1, 3, h, w))


def compose_iat(f: Tensor, gp: GlobalParams) -> Tensor:
    """The global operation on the local intermediate f: the color
    transform, then the clamped power law."""
    return pow_clamped(apply_color_matrix(f, gp.color_matrix), gp.gamma, CLAMP_EPS)


# ---------------------------------------------------------------------------
# degradation simulator


def degrade(
    clean: ImageRGB, dp: DegradationParams, rng: np.random.Generator
) -> tuple[ImageRGB, LinearImage]:
    """Synthesize (degraded sRGB, pseudo-raw linear) from a clean image.

    Deterministic given the generator state. Computed in float64 so the
    sigma=0 identity pipeline survives to quantization tolerance.
    """
    px = clean.pixels.astype(np.float64)
    lin = px**LINEARIZE_EXPONENT * dp.exposure
    inv_ccm = np.linalg.inv(dp.ccm)
    raw = lin @ inv_ccm.T  # inverse color transform
    raw = raw / dp.wb_gains  # inverse white-balance gains
    if dp.noise_sigma > 0:
        raw = raw + rng.normal(0.0, dp.noise_sigma, size=raw.shape)
    pseudo_raw = np.maximum(raw, 0.0)
    rendered = (pseudo_raw * dp.wb_gains) @ dp.ccm.T
    rendered = np.maximum(rendered, 0.0) ** dp.gamma_d
    degraded = ImageRGB(np.clip(rendered, 0.0, 1.0).astype(np.float32))
    return degraded, pseudo_raw.astype(np.float32)


def recovery_params(dp: DegradationParams) -> GlobalParams:
    """Analytic global correction undoing a sigma=0 degradation.

    With zero noise the wb/ccm round trip cancels, leaving
    degraded = (exposure * clean^2.2)^gamma_d, so scaling by
    exposure^-gamma_d and raising to 1/(2.2*gamma_d) recovers clean
    (exact wherever the degraded rendering did not clip).
    """
    gamma = 1.0 / (LINEARIZE_EXPONENT * dp.gamma_d)
    scale = dp.exposure ** (-dp.gamma_d)
    return GlobalParams.from_values(np.eye(3) * scale, gamma)


PROFILES = ("low_light", "over_exposure", "mixed")


def sample_degradation(rng: np.random.Generator, profile: str) -> DegradationParams:
    """Draw pipeline parameters for the named exposure profile."""
    if profile not in PROFILES:
        raise ConfigurationError(f"unknown profile {profile!r}, expected one of {PROFILES}")
    regime = profile
    if profile == "mixed":
        regime = "low_light" if rng.random() < 0.5 else "over_exposure"
    if regime == "low_light":
        exposure = rng.uniform(0.05, 0.5)
        noise_sigma = rng.uniform(0.0, 0.02)
    else:
        exposure = rng.uniform(2.0, 8.0)
        noise_sigma = rng.uniform(0.0, 0.005)
    wb_gains = rng.uniform(0.7, 1.3, size=3)
    ccm = np.eye(3)
    off = ~np.eye(3, dtype=bool)
    ccm[off] = rng.uniform(-0.1, 0.1, size=6)
    ccm = ccm / ccm.sum(axis=1, keepdims=True)  # rows back to sum 1
    gamma_d = rng.uniform(1 / 2.6, 1 / 1.8)
    return DegradationParams(
        wb_gains=wb_gains,
        ccm=ccm,
        gamma_d=gamma_d,
        exposure=exposure,
        noise_sigma=noise_sigma,
    )
