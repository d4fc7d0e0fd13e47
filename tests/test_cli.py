import json
from pathlib import Path

import numpy as np
import pytest

from iat import cli, training
from iat.cli import main
from iat.errors import IATError, TrainingDiverged
from iat.image_io import ImageRGB, load_image, save_image
from iat.model import IATConfig, iat_init, load_checkpoint, save_checkpoint
from iat.rng import philox

from checkpoint_edit import rewrite_header

SMALL = {"channels": 8, "blocks": 1, "d": 16}


@pytest.fixture
def clean_dir(tmp_path):
    d = tmp_path / "clean"
    d.mkdir()
    rng = np.random.default_rng(0)
    for i in range(2):
        luma = rng.uniform(0.3, 0.9, (16, 16, 1))
        chroma = rng.uniform(-0.08, 0.08, (16, 16, 3))
        img = ImageRGB(np.clip(luma + chroma, 0, 1).astype(np.float32))
        save_image(img, d / f"clean_{i}.png")
    return d


@pytest.fixture
def identity_ckpt(tmp_path):
    path = tmp_path / "identity.iatc"
    save_checkpoint(iat_init(IATConfig(**SMALL), rng=philox(0)), path)
    return path


def tree_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_reproducible(clean_dir, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["synthesize", "--clean", str(clean_dir), "--count", "3", "--seed", "7"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_synthesize_low_light_sidecars(clean_dir, tmp_path):
    out = tmp_path / "synth"
    argv = [
        "synthesize", "--clean", str(clean_dir), "--out", str(out),
        "--profile", "low_light", "--count", "5", "--seed", "1",
    ]
    assert main(argv) == 0
    sidecars = sorted(out.glob("params_*.json"))
    assert len(sidecars) == 5
    sources = set()
    for sc in sidecars:
        data = json.loads(sc.read_text())
        assert data["degradation"]["exposure"] < 1
        sources.add(data["clean"])
    assert len(sources) == 2  # cycles through both clean images
    assert len(list(out.glob("input_*.png"))) == 5
    assert len(list(out.glob("target_*.png"))) == 5
    assert len(list(out.glob("raw_*.npy"))) == 5


@pytest.mark.parametrize(
    "flags,flag", [(["--count", "-3"], "--count"), (["--seed", "-1"], "--seed")]
)
def test_synthesize_bad_flag_value_is_usage_error(clean_dir, tmp_path, capsys, flags, flag):
    out = tmp_path / "synth"
    code = main(["synthesize", "--clean", str(clean_dir), "--out", str(out)] + flags)
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}")
    assert not out.exists()


def test_synthesize_empty_clean_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["synthesize", "--clean", str(empty), "--out", str(tmp_path / "o")])
    assert code == 1


def test_synthesize_missing_clean_is_usage_error(tmp_path, capsys):
    # refused before the output directory is made
    missing = str(tmp_path / "missing")
    code = main(["synthesize", "--clean", missing, "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --clean")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# enhance


def test_enhance_identity_checkpoint(clean_dir, identity_ckpt, tmp_path):
    out = tmp_path / "enhanced"
    code = main([
        "enhance", "--checkpoint", str(identity_ckpt),
        "--input", str(clean_dir), "--output", str(out),
    ])
    assert code == 0
    outputs = sorted(out.iterdir())
    assert len(outputs) == 2
    for src in sorted(clean_dir.iterdir()):
        a = load_image(src).pixels
        b = load_image(out / src.name).pixels
        assert np.abs(a - b).max() <= 1 / 255 + 1e-6


def test_enhance_local_only_matches_intermediate(clean_dir, identity_ckpt, tmp_path):
    out_full = tmp_path / "full"
    out_local = tmp_path / "local"
    base = ["enhance", "--checkpoint", str(identity_ckpt), "--input", str(clean_dir)]
    assert main(base + ["--output", str(out_full)]) == 0
    assert main(base + ["--output", str(out_local), "--local-only"]) == 0
    # at identity init both paths are the identity map
    for name in ("clean_0.png", "clean_1.png"):
        a = load_image(out_full / name).pixels
        b = load_image(out_local / name).pixels
        np.testing.assert_array_equal(a, b)


def test_enhance_skips_undecodable(clean_dir, identity_ckpt, tmp_path, capsys):
    (clean_dir / "broken.png").write_bytes(b"not a png")
    out = tmp_path / "enhanced"
    code = main([
        "enhance", "--checkpoint", str(identity_ckpt),
        "--input", str(clean_dir), "--output", str(out),
    ])
    assert code == 0  # some inputs succeeded
    assert "broken.png" in capsys.readouterr().err
    assert len(list(out.iterdir())) == 2


def test_enhance_all_fail(identity_ckpt, tmp_path):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "a.png").write_bytes(b"junk")
    code = main([
        "enhance", "--checkpoint", str(identity_ckpt),
        "--input", str(bad), "--output", str(tmp_path / "o"),
    ])
    assert code == 2


def test_enhance_non_finite_output_skipped(clean_dir, tmp_path, capsys):
    params = iat_init(IATConfig(**SMALL), rng=philox(0))
    params.local.offset_head.bias.data[:] = np.nan
    ckpt = tmp_path / "nan.iatc"
    save_checkpoint(params, ckpt)
    out = tmp_path / "enhanced"
    code = main([
        "enhance", "--checkpoint", str(ckpt), "--input", str(clean_dir), "--output", str(out),
    ])
    assert code == 2  # every image failed
    err = capsys.readouterr().err
    assert "clean_0.png" in err and "clean_1.png" in err and "not finite" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("form", ["directory", "file"])
def test_enhance_refuses_to_overwrite_inputs(clean_dir, identity_ckpt, form, capsys):
    before = tree_bytes(clean_dir)
    source = clean_dir if form == "directory" else clean_dir / "clean_1.png"
    code = main([
        "enhance", "--checkpoint", str(identity_ckpt),
        "--input", str(source), "--output", str(clean_dir / ".." / clean_dir.name),
    ])
    assert code == 1
    assert "directory of the inputs" in capsys.readouterr().err
    assert tree_bytes(clean_dir) == before


def test_enhance_threads_match_single(clean_dir, identity_ckpt, tmp_path):
    out1 = tmp_path / "t1"
    out4 = tmp_path / "t4"
    base = ["enhance", "--checkpoint", str(identity_ckpt), "--input", str(clean_dir)]
    assert main(base + ["--output", str(out1), "--threads", "1"]) == 0
    assert main(base + ["--output", str(out4), "--threads", "4"]) == 0
    assert tree_bytes(out1) == tree_bytes(out4)


def test_enhance_single_input_needs_image_suffix(clean_dir, identity_ckpt, tmp_path, capsys):
    # a valid PNG under another suffix is refused before the checkpoint is read
    photo = tmp_path / "photo.bin"
    photo.write_bytes((clean_dir / "clean_0.png").read_bytes())
    code = main([
        "enhance", "--checkpoint", str(tmp_path / "missing.iatc"), "--input", str(photo),
        "--output", str(tmp_path / "out"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --input")
    assert not (tmp_path / "out").exists()
    # the suffix check ignores case
    upper = tmp_path / "photo.PNG"
    upper.write_bytes(photo.read_bytes())
    code = main([
        "enhance", "--checkpoint", str(identity_ckpt), "--input", str(upper),
        "--output", str(tmp_path / "out"),
    ])
    assert code == 0
    assert load_image(tmp_path / "out" / "photo.PNG").pixels.shape == (16, 16, 3)


def test_enhance_missing_single_input_is_usage_error(tmp_path, capsys):
    # refused before the checkpoint loads and before the output directory is made
    code = main([
        "enhance", "--checkpoint", str(tmp_path / "missing.iatc"),
        "--input", str(tmp_path / "missing.png"), "--output", str(tmp_path / "o2"),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --input")
    assert not (tmp_path / "o2").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_enhance_threads_below_one_is_usage_error(
    clean_dir, identity_ckpt, tmp_path, capsys, threads
):
    code = main([
        "enhance", "--checkpoint", str(identity_ckpt), "--input", str(clean_dir),
        "--output", str(tmp_path / "out"), "--threads", threads,
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --threads")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train


def make_dataset(clean_dir, tmp_path, count=3, seed=5):
    data = tmp_path / "data"
    main([
        "synthesize", "--clean", str(clean_dir), "--out", str(data),
        "--count", str(count), "--seed", str(seed),
    ])
    return data


def write_cfg(tmp_path, **extra):
    cfg = dict(SMALL)
    cfg.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_writes_checkpoint_and_csv(clean_dir, tmp_path, capsys):
    data = make_dataset(clean_dir, tmp_path)
    cfg = write_cfg(tmp_path, steps=6, batch_size=2, crop_size=16, eval_every=3, lr0=1e-3)
    ckpt = tmp_path / "model.iatc"
    code = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(ckpt)])
    assert code == 0
    assert "final val PSNR" in capsys.readouterr().out
    assert ckpt.exists()
    csv_lines = (tmp_path / "model.iatc.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "step,lr,loss,psnr_val"
    assert len(csv_lines) == 7  # header + 6 steps
    params, step = load_checkpoint(ckpt)
    assert step == 6
    assert params.config == IATConfig(**SMALL)


def test_train_flags_override_config(clean_dir, tmp_path):
    data = make_dataset(clean_dir, tmp_path)
    cfg = write_cfg(tmp_path, steps=500, batch_size=2, crop_size=16)
    ckpt = tmp_path / "model.iatc"
    code = main([
        "train", "--data", str(data), "--config", str(cfg),
        "--out", str(ckpt), "--steps", "4", "--eval-every", "2",
    ])
    assert code == 0
    _, step = load_checkpoint(ckpt)
    assert step == 4  # the flag won


def test_train_mixed_raw_without_raw_files(clean_dir, tmp_path, capsys):
    data = make_dataset(clean_dir, tmp_path)
    for raw in data.glob("raw_*.npy"):
        raw.unlink()
    cfg = write_cfg(tmp_path, steps=3, batch_size=1, crop_size=16, loss="mixed_raw")
    code = main([
        "train", "--data", str(data), "--config", str(cfg),
        "--out", str(tmp_path / "m.iatc"),
    ])
    assert code == 1
    assert "input_00000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,key",
    [
        (["--eval-every", "0"], "eval_every"),
        (["--lr0", "nan"], "lr0"),
        (["--seed", "-1"], "seed"),
        (["--weight-decay", "-0.5"], "weight_decay"),
    ],
)
def test_train_bad_flag_value_is_usage_error(tmp_path, capsys, flags, key):
    code = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "o")] + flags)
    assert code == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,code",
    [("eval", 0), ("train-mixed", 0), ("train-mixed_raw", 2)],
)
def test_truncated_raw_file_fails_only_commands_that_read_it(
    clean_dir, identity_ckpt, tmp_path, capsys, command, code
):
    data = make_dataset(clean_dir, tmp_path)
    raw = data / "raw_00000.npy"
    raw.write_bytes(raw.read_bytes()[:100])
    if command == "eval":
        argv = ["eval", "--checkpoint", str(identity_ckpt), "--pairs", str(data)]
    else:
        cfg = write_cfg(tmp_path, steps=2, batch_size=1, crop_size=16)
        argv = [
            "train", "--data", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "m.iatc"), "--loss", command.split("-")[1],
        ]
    capsys.readouterr()
    assert main(argv) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error:") and "raw_00000.npy" in err


@pytest.mark.parametrize(
    "out,csv,flag",
    [
        ("nodir/m.iatc", None, "--out"),
        ("m.iatc", "nodir/m.csv", "--metrics-csv"),
        ("data", None, "--out"),  # a directory
        ("m.iatc", "data", "--metrics-csv"),
        ("data.iatc", None, "--metrics-csv"),  # the default data.iatc.csv is a directory
    ],
    ids=["out-nodir", "csv-nodir", "out-dir", "csv-dir", "default-csv-dir"],
)
def test_train_output_paths_checked_before_any_pair_is_read(
    clean_dir, tmp_path, monkeypatch, capsys, out, csv, flag
):
    # the checkpoint and the metrics are written after training, so a path
    # that cannot be written is refused before an image is decoded
    data = make_dataset(clean_dir, tmp_path)
    (tmp_path / "data.iatc.csv").mkdir()
    before = sorted(tmp_path.rglob("*"))
    decoded = []
    monkeypatch.setattr(cli, "load_image", lambda path: decoded.append(path))
    argv = ["train", "--data", str(data), "--steps", "1", "--out", str(tmp_path / out)]
    if csv:
        argv += ["--metrics-csv", str(tmp_path / csv)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ")
    assert decoded == []
    assert sorted(tmp_path.rglob("*")) == before
    cli._require_output_path("--metrics-csv", "/dev/null")  # not a regular file, but writable


def test_train_resume_continues_step_counter(clean_dir, tmp_path):
    data = make_dataset(clean_dir, tmp_path)
    cfg = write_cfg(tmp_path, batch_size=2, crop_size=16, eval_every=2, lr0=1e-3)
    first = tmp_path / "first.iatc"
    code = main([
        "train", "--data", str(data), "--config", str(cfg),
        "--out", str(first), "--steps", "4",
    ])
    assert code == 0
    second = tmp_path / "second.iatc"
    code = main([
        "train", "--data", str(data), "--config", str(cfg),
        "--out", str(second), "--steps", "6", "--resume", str(first),
    ])
    assert code == 0
    _, step = load_checkpoint(second)
    assert step == 6


def test_train_resume_takes_the_sizes_the_config_does_not_name(clean_dir, tmp_path):
    data = make_dataset(clean_dir, tmp_path)
    train_keys = {"batch_size": 2, "crop_size": 16, "eval_every": 2, "lr0": 1e-3}
    first = tmp_path / "first.iatc"
    assert main([
        "train", "--data", str(data), "--config", str(write_cfg(tmp_path, **train_keys)),
        "--out", str(first), "--steps", "2",
    ]) == 0
    only_train = tmp_path / "train_only.json"
    only_train.write_text(json.dumps(train_keys))
    second = tmp_path / "second.iatc"
    assert main([
        "train", "--data", str(data), "--config", str(only_train),
        "--out", str(second), "--steps", "3", "--resume", str(first),
    ]) == 0
    params, step = load_checkpoint(second)
    assert params.config == IATConfig(**SMALL) and step == 3


def test_train_resume_refuses_a_size_the_checkpoint_lacks(clean_dir, tmp_path, capsys):
    data = make_dataset(clean_dir, tmp_path)
    first = tmp_path / "first.iatc"
    cfg = write_cfg(tmp_path, batch_size=2, crop_size=16)
    assert main(["train", "--data", str(data), "--config", str(cfg), "--out", str(first),
                 "--steps", "2"]) == 0
    second = tmp_path / "second.iatc"
    capsys.readouterr()
    code = main([
        "train", "--data", str(data), "--config", str(write_cfg(tmp_path, channels=4)),
        "--out", str(second), "--steps", "3", "--resume", str(first),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --config {'channels': 4} differs from the --resume checkpoint")
    assert not second.exists()


def test_train_refuses_pairs_below_ssim_window(tmp_path, capsys):
    # 9x9 pairs crop to 8 and train, but the closing report has no SSIM for them
    clean = tmp_path / "clean9"
    clean.mkdir()
    rng = np.random.default_rng(1)
    save_image(ImageRGB(rng.uniform(0.2, 0.8, (9, 9, 3)).astype(np.float32)), clean / "c.png")
    data = make_dataset(clean, tmp_path, count=2)
    out = tmp_path / "m.iatc"
    capsys.readouterr()
    code = main([
        "train", "--data", str(data), "--config", str(write_cfg(tmp_path)), "--out", str(out),
        "--steps", "2", "--batch-size", "2", "--crop-size", "8",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pairs below the 11x11 SSIM window")
    assert "input_00000.png" in err and "input_00001.png" in err
    assert not out.exists()
    assert not (tmp_path / "m.iatc.csv").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("case", ["small", "mismatch"])
def test_unscorable_pair_refused_before_any_forward(
    clean_dir, identity_ckpt, tmp_path, monkeypatch, capsys, command, case
):
    # one pair among good ones is below SSIM's window, or its images differ in size
    data = make_dataset(clean_dir, tmp_path)
    rng = np.random.default_rng(2)
    if case == "small":
        shapes = {"input_00001.png": (9, 9, 3), "target_00001.png": (9, 9, 3)}
    else:
        shapes = {"target_00001.png": (16, 12, 3)}
    for name, shape in shapes.items():
        save_image(ImageRGB(rng.uniform(0.2, 0.8, shape).astype(np.float32)), data / name)
    forwards = []
    for module in (cli, training):
        monkeypatch.setattr(module, "iat_forward", lambda *a: forwards.append(a))
    csv = tmp_path / "out.csv"
    if command == "eval":
        argv = ["eval", "--checkpoint", str(identity_ckpt), "--pairs", str(data), "--csv", str(csv)]
    else:
        argv = [
            "train", "--data", str(data), "--config", str(write_cfg(tmp_path, crop_size=8)),
            "--out", str(tmp_path / "m.iatc"), "--metrics-csv", str(csv), "--steps", "2",
        ]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "input_00001.png" in line
    assert "input_00000.png" not in line and "input_00002.png" not in line
    assert forwards == []
    assert captured.out == ""
    assert not csv.exists() and not (tmp_path / "m.iatc").exists()


def test_train_determinism(clean_dir, tmp_path):
    data = make_dataset(clean_dir, tmp_path)
    cfg = write_cfg(tmp_path, steps=5, batch_size=2, crop_size=16, seed=9, lr0=1e-3)
    a, b = tmp_path / "a.iatc", tmp_path / "b.iatc"
    for out in (a, b):
        assert main([
            "train", "--data", str(data), "--config", str(cfg), "--out", str(out)
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# eval


def test_eval_targets_against_themselves(clean_dir, tmp_path, capsys):
    data = make_dataset(clean_dir, tmp_path)
    # rebuild pairs where input == target
    pairs = tmp_path / "selfpairs"
    pairs.mkdir()
    for i, target in enumerate(sorted(data.glob("target_*.png"))):
        buf = target.read_bytes()
        (pairs / f"input_{i:05d}.png").write_bytes(buf)
        (pairs / f"target_{i:05d}.png").write_bytes(buf)
    ckpt = tmp_path / "identity.iatc"
    save_checkpoint(iat_init(IATConfig(**SMALL), rng=philox(0)), ckpt)
    csv = tmp_path / "eval.csv"
    code = main(["eval", "--checkpoint", str(ckpt), "--pairs", str(pairs), "--csv", str(csv)])
    assert code == 0
    lines = csv.read_text().strip().split("\n")
    assert len(lines) == 3 + 2  # header + 3 pairs + mean
    assert lines[0] == "image,psnr,ssim"
    mean = lines[-1].split(",")
    assert mean[0] == "mean"
    assert float(mean[1]) == pytest.approx(99.0)
    assert float(mean[2]) == pytest.approx(1.0, abs=1e-6)


def test_eval_non_finite_output_is_an_error(clean_dir, tmp_path, capsys):
    data = make_dataset(clean_dir, tmp_path)
    params = iat_init(IATConfig(**SMALL), rng=philox(0))
    params.local.offset_head.bias.data[:] = np.nan
    ckpt = tmp_path / "nan.iatc"
    save_checkpoint(params, ckpt)
    csv = tmp_path / "eval.csv"
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--pairs", str(data), "--csv", str(csv)])
    assert code == 2
    captured = capsys.readouterr()
    assert "psnr" not in captured.out
    assert captured.err.startswith("error: ") and "not finite" in captured.err
    assert not csv.exists()


def test_eval_unpaired_files_skipped(clean_dir, identity_ckpt, tmp_path, capsys):
    data = make_dataset(clean_dir, tmp_path)
    some_target = next(iter(data.glob("target_00001*")))
    some_target.unlink()
    code = main(["eval", "--checkpoint", str(identity_ckpt), "--pairs", str(data)])
    assert code == 0
    assert "no matching target" in capsys.readouterr().err


def test_discover_pairs_matches_target_suffix_in_any_case(clean_dir, tmp_path, capsys):
    data = make_dataset(clean_dir, tmp_path, count=2)
    for name in ("input_00000.png", "target_00000.png"):
        (data / name).rename(data / name.replace(".png", ".PNG"))
    # with both a .png and a .ppm target, the .png one is read
    (data / "target_00001.png").rename(data / "target_00001.Png")
    save_image(ImageRGB(np.zeros((16, 16, 3), np.float32)), data / "target_00001.ppm")
    samples = cli.discover_pairs(data)
    assert [s.name for s in samples] == ["input_00000.PNG", "input_00001.png"]
    assert samples[1].target.pixels.max() > 0
    assert "no matching target" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# errors


class _FreshError(IATError):
    pass


@pytest.mark.parametrize(
    "error,line",
    [
        (_FreshError("no such thing"), "error: no such thing"),
        (
            TrainingDiverged(3, 1e-3, [0.5, float("nan")]),
            "error: training diverged: non-finite loss at step 3 (lr=0.001); "
            "recent losses: [0.5, nan]",
        ),
    ],
    ids=["fresh-subclass", "diverged"],
)
def test_package_errors_exit_2_with_one_line(identity_ckpt, monkeypatch, capsys, error, line):
    def fail(path):
        raise error

    monkeypatch.setattr(cli, "load_checkpoint", fail)
    assert main(["info", "--checkpoint", str(identity_ckpt)]) == 2
    assert capsys.readouterr().err == line + "\n"


# ---------------------------------------------------------------------------
# info


def test_info_default_config_budget(tmp_path, capsys):
    cfg = tmp_path / "default.json"
    cfg.write_text("{}")
    assert main(["info", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    total = int(out.split("params[total]: ")[1].split("\n")[0])
    assert 80_000 <= total <= 100_000


def test_info_resolution_scaling(tmp_path, capsys):
    cfg = tmp_path / "default.json"
    cfg.write_text("{}")
    locals_ = []
    for res in ("256x256", "400x600"):
        main(["info", "--config", str(cfg), "--resolution", res])
        out = capsys.readouterr().out
        locals_.append(float(out.split("local ")[1].split(",")[0]))
    ratio = locals_[1] / locals_[0]
    # exactness is asserted at API level; the CLI prints 3 decimals
    assert ratio == pytest.approx((400 * 600) / (256 * 256), rel=1e-2)


@pytest.mark.parametrize("res", ["2x2", "400x3", "0x600", "2x2x2", "big"])
def test_info_bad_resolution_is_usage_error(tmp_path, capsys, res):
    cfg = tmp_path / "default.json"
    cfg.write_text("{}")
    assert main(["info", "--config", str(cfg), "--resolution", res]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --resolution")
    assert captured.out == ""


def test_info_requires_exactly_one_source(tmp_path, identity_ckpt):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert main(["info"]) == 1
    assert main(["info", "--config", str(cfg), "--checkpoint", str(identity_ckpt)]) == 1


def test_info_malformed_checkpoint(tmp_path):
    bad = tmp_path / "bad.iatc"
    bad.write_bytes(b"IATC" + b"\x00" * 40)
    assert main(["info", "--checkpoint", str(bad)]) == 2


def test_info_malformed_tensor_directory(identity_ckpt, capsys):
    # the CRC is valid, but a directory entry lacks its offset
    rewrite_header(identity_ckpt, lambda header: header["tensors"][0].pop("offset"))
    assert main(["info", "--checkpoint", str(identity_ckpt)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_info_negative_checkpoint_step(identity_ckpt, capsys):
    rewrite_header(identity_ckpt, lambda header: header.update(step=-4))
    assert main(["info", "--checkpoint", str(identity_ckpt)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "step" in captured.err


@pytest.mark.parametrize("key,value", [("channels", 0), ("blocks", 0), ("d", 7)])
def test_info_model_size_out_of_range(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, **{key: value})
    assert main(["info", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_flag_is_usage_error(identity_ckpt, tmp_path):
    with pytest.raises(SystemExit) as exc_info:
        main([
            "enhance", "--checkpoint", str(identity_ckpt),
            "--input", "x", "--output", "y", "--wat",
        ])
    assert exc_info.value.code == 1


def test_unknown_config_key_rejected(clean_dir, tmp_path):
    data = make_dataset(clean_dir, tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text('{"channles": 8}')  # typo must not be ignored
    code = main(["train", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize(
    "key,value",
    [
        ("hflip", "false"),  # bool takes only true/false
        ("steps", 2.7),  # int takes no fraction
        ("seed", True),  # int takes no bool
        ("lr0", "abc"),  # float takes only numbers
        ("loss", 1),  # str takes only strings
    ],
)
def test_config_value_of_wrong_type_rejected(tmp_path, capsys, key, value):
    cfg = write_cfg(tmp_path, **{key: value})
    out = str(tmp_path / "o")
    code = main(["train", "--data", str(tmp_path), "--config", str(cfg), "--out", out])
    assert code == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "info"])
@pytest.mark.parametrize(
    "key,value",
    [("channels", 0), ("channels", "16"), ("lr0", -1.0), ("lr0", 10**400)],
    ids=["size", "type", "range", "huge"],
)
def test_config_value_rejected_before_any_pair_is_read(
    clean_dir, tmp_path, monkeypatch, capsys, command, key, value
):
    # each config checks itself when built, so every rejected value is one
    # usage error, raised before an image is decoded or an output made
    data = make_dataset(clean_dir, tmp_path)
    decoded = []
    monkeypatch.setattr(cli, "load_image", lambda path: decoded.append(path))
    cfg = write_cfg(tmp_path, **{key: value})
    out = tmp_path / "m.iatc"
    argv = {
        "train": ["train", "--data", str(data), "--config", str(cfg), "--out", str(out)],
        "info": ["info", "--config", str(cfg)],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err
    assert decoded == []
    assert not out.exists() and not Path(f"{out}.csv").exists()


def test_config_integer_accepted_for_float(tmp_path):
    cfg = write_cfg(tmp_path, lr0=1, lambda_raw=0)
    assert main(["info", "--config", str(cfg)]) == 0
