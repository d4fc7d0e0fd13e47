"""Illumination-adaptive image enhancement.

Two-branch model over a self-contained autodiff engine: a full-resolution
local branch applies per-pixel gain/offset correction maps to the image,
and a global branch decodes a 3x3 color transform and gamma exponent from
learned attention queries, which act on the local branch's output. Ships
with a camera-pipeline degradation simulator for synthesizing training
pairs, a desk-scale trainer, PSNR/SSIM metrics, and a batch CLI (`iat`).
"""

from .image_io import ImageRGB, image_to_tensor, load_image, save_image, tensor_to_image
from .isp import (
    DegradationParams,
    GlobalParams,
    apply_color_matrix,
    compose_iat,
    degrade,
    sample_degradation,
)
from .metrics import MetricReport, psnr, ssim
from .model import (
    IATConfig,
    IATParams,
    count_params,
    estimate_flops,
    iat_forward,
    iat_init,
    load_checkpoint,
    named_parameters,
    save_checkpoint,
)
from .tensor import Tape, Tensor, parameter
from .training import Sample, TrainConfig, train_loop

__version__ = "0.1.0"

__all__ = [
    "DegradationParams",
    "GlobalParams",
    "IATConfig",
    "IATParams",
    "ImageRGB",
    "MetricReport",
    "Sample",
    "Tape",
    "Tensor",
    "TrainConfig",
    "apply_color_matrix",
    "compose_iat",
    "count_params",
    "degrade",
    "estimate_flops",
    "iat_forward",
    "iat_init",
    "image_to_tensor",
    "load_checkpoint",
    "load_image",
    "named_parameters",
    "parameter",
    "psnr",
    "sample_degradation",
    "save_checkpoint",
    "save_image",
    "ssim",
    "tensor_to_image",
    "train_loop",
]
