"""The benchmark's tracer wraps program functions by name; these names must
keep resolving, every traced layer must be reached by what the workloads
run, and the traced image size must keep reading (H, W)."""

import sys
from pathlib import Path

import numpy as np

import iat.image_io as image_io
import iat.model as model
import iat.training as training
from iat.image_io import ImageRGB, image_to_tensor
from iat.rng import philox

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = model.IATConfig(channels=4, blocks=1, d=8)


def test_every_traced_target_resolves():
    targets = [t for names in tracing.TARGETS.values() for t in names]
    assert "iat.training:image_to_tensor" in targets
    for target in targets:
        owner, attr = tracing.resolve(target)
        assert callable(getattr(owner, attr)), target


def test_traced_image_size_is_height_by_width():
    img = ImageRGB(np.zeros((5, 7, 3), dtype=np.float32))
    assert tracing._image_hw((image_to_tensor(img),)) == (5, 7)


def test_enhance_reaches_every_traced_layer(tmp_path):
    ckpt, src, dst = tmp_path / "m.iatc", tmp_path / "in.png", tmp_path / "out.png"
    model.save_checkpoint(model.iat_init(SMALL, rng=philox(0)), ckpt)
    rng = np.random.default_rng(0)
    image_io.save_image(ImageRGB(rng.uniform(0, 1, (10, 12, 3))), src)
    tracer = tracing.Tracer()
    with tracer.installed():
        params, _ = model.load_checkpoint(ckpt)
        x = image_io.image_to_tensor(image_io.load_image(src))
        out, _ = model.iat_forward(x, params)
        image_io.save_image(image_io.tensor_to_image(out), dst)
    reached = tracing.reduce_spans(tracer.spans)
    wanted = set(workloads.ENHANCE_LAYERS) | {"model.load_checkpoint"}
    assert sorted(wanted - set(reached)) == []


def test_train_reaches_every_traced_layer():
    rng = np.random.default_rng(1)
    samples = [
        training.Sample(
            input=ImageRGB(rng.uniform(0, 1, (10, 12, 3))),
            target=ImageRGB(rng.uniform(0, 1, (10, 12, 3))),
            name=f"p{i}",
        )
        for i in range(2)
    ]
    cfg = training.TrainConfig(steps=1, batch_size=2, crop_size=8, loss="mixed", eval_every=1)
    tracer = tracing.Tracer()
    with tracer.installed():
        training.train_loop(samples, cfg, config=SMALL)
    reached = tracing.reduce_spans(tracer.spans)
    assert sorted(set(workloads.TRAIN_LAYERS) - set(reached)) == []
