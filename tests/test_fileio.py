"""Writes are all or nothing: a failed write keeps the previous file and
leaves no temp file behind."""

import os
import stat

import numpy as np
import pytest

from iat.cli import main
from iat.image_io import ImageRGB, save_image
from iat.model import IATConfig, iat_init, save_checkpoint
from iat.rng import philox
from iat.training import LogRow, write_metrics_csv

OLD = b"previous contents\n"
SMALL = IATConfig(channels=8, blocks=1, d=16)


def _eval_csv(path):
    pairs = path.parent.parent / "pairs"
    pairs.mkdir(exist_ok=True)
    img = ImageRGB(np.random.default_rng(0).uniform(0.2, 0.8, (12, 12, 3)))
    save_image(img, pairs / "input_0.png")
    save_image(img, pairs / "target_0.png")
    ckpt = path.parent.parent / "model.iatc"
    save_checkpoint(iat_init(SMALL, rng=philox(0)), ckpt)
    return lambda: main(["eval", "--checkpoint", str(ckpt), "--pairs", str(pairs), "--csv", str(path)])


WRITERS = {
    "checkpoint.iatc": lambda path: lambda: save_checkpoint(iat_init(SMALL, rng=philox(0)), path),
    "image.png": lambda path: lambda: save_image(ImageRGB(np.full((4, 5, 3), 0.5)), path),
    "image.ppm": lambda path: lambda: save_image(ImageRGB(np.full((4, 5, 3), 0.5)), path),
    "metrics.csv": lambda path: lambda: write_metrics_csv([LogRow(0, 1e-3, 0.5, 20.0)], path),
    "eval.csv": _eval_csv,
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, name):
    out = tmp_path / "out"
    out.mkdir()
    target = out / name
    target.write_bytes(OLD)
    write = WRITERS[name](target)

    def refuse(src, dst):
        assert os.path.getsize(src) > 0  # the new bytes were written first
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    try:
        assert write() not in (None, 0)  # the CLI reports the error as an exit code
    except OSError as e:
        assert "replace refused" in str(e)
    assert target.read_bytes() == OLD
    assert [p.name for p in out.iterdir()] == [name]

    monkeypatch.undo()
    assert write() in (None, 0)
    assert target.read_bytes() != OLD
    assert [p.name for p in out.iterdir()] == [name]


def test_write_raising_midway_keeps_previous_file(tmp_path):
    target = tmp_path / "metrics.csv"
    target.write_bytes(OLD)
    rows = [LogRow(0, 1e-3, 0.5, 20.0), LogRow(1, 1e-3, 0.4, None), LogRow(2, 1e-3, 0.3, "bad")]
    with pytest.raises(ValueError):  # formatting the third row fails
        write_metrics_csv(rows, target)
    assert target.read_bytes() == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]


def test_write_through_symlink_replaces_the_linked_file(tmp_path):
    real = tmp_path / "real.csv"
    real.write_bytes(OLD)
    real.chmod(0o640)
    link = tmp_path / "metrics.csv"
    link.symlink_to(real)
    write_metrics_csv([LogRow(0, 1e-3, 0.5, 20.0)], link)
    assert link.is_symlink() and link.resolve() == real
    assert real.read_text().startswith("step,lr,loss,psnr_val\n")
    assert stat.S_IMODE(real.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.csv", "real.csv"]


def test_write_to_pipe_writes_directly(tmp_path):
    fifo = tmp_path / "metrics.csv"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open at once
    try:
        write_metrics_csv([LogRow(0, 1e-3, 0.5, 20.0)], fifo)
        data = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert data.startswith(b"step,lr,loss,psnr_val\n")
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
