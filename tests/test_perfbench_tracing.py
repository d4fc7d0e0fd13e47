"""The benchmark's tracer wraps program functions by name; these names must
keep resolving, and the traced image size must keep reading (H, W)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from iat.image_io import ImageRGB, image_to_tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracing):
    targets = [t for names in tracing.TARGETS.values() for t in names]
    assert "iat.training:image_to_tensor" in targets
    for target in targets:
        owner, attr = tracing.resolve(target)
        assert callable(getattr(owner, attr)), target


def test_traced_image_size_is_height_by_width(tracing):
    img = ImageRGB(np.zeros((5, 7, 3), dtype=np.float32))
    assert tracing._image_hw((image_to_tensor(img),)) == (5, 7)
