"""The benchmark's workloads, their correctness checks and their metrics.

Imported only after the thread environment is pinned (see worker.py). The
program is reached through module attributes (`model.iat_forward`, not a
name imported into this file), so the tracer's wrappers see every call.

Each workload is a closed loop with one caller: the next operation starts
only after the previous one has finished.

- enhance_*: one operation is one image through what `iat enhance` does per
  file: load_image -> image_to_tensor -> iat_forward -> tensor_to_image ->
  save_image, timed from the start of decode to the end of encode.
- train_64_b8: one operation is one `train_loop` call of TRAIN_STEPS
  optimizer steps over eight 64x64 pairs (batch 8, mixed loss, crop 64, one
  final eval). Each step is timed by a clock on `adam_step`, the last call
  of a step.
"""

import contextlib
import hashlib
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
import tracing
import iat.image_io as image_io
import iat.model as model
import iat.training as training
from iat.rng import philox

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SETUP_BLOCK_S = 0.1  # set-up repeats this long per block; untraced runs time one block before every op
TRAIN_STEPS = 8
TRAIN_SEED0 = 1000  # TrainConfig.seed of pool member i is TRAIN_SEED0 + i

# Output tolerances against the goldens. A fused or reordered fast path may
# move the float output by up to 1e-5. Such a drift moves an 8-bit code by at
# most one, and only for the ~0.5% of values within 1e-5 of a rounding edge.
FLOAT_ATOL = 5e-5  # float output at SAMPLES fixed pixels
BLOCK = 16  # code sums over 16x16 blocks, per channel
BLOCK_ATOL = 16  # 256 codes; 16 one-code flips in one block
LINE_ATOL_SHARE = 0.02  # row and column code sums: 2% of the line's codes
LINE_ATOL_MIN = 4
SAMPLES = 256
# The perturbed checkpoint must visibly change each image without clipping
# most of it; the identity map fails the first test.
MIN_MEAN_CHANGE = 0.02  # mean |out - in| in [0, 1] units
MAX_CLIPPED = 0.5  # share of output codes at 0 or 255
LOSS_RTOL = 1e-3  # a 1e-5 drift moved losses by < 1e-4; a 1% lr change by 1e-2
PSNR_ATOL_DB = 0.01

ENHANCE_LAYERS = (
    "image_io.load_image",
    "image_io.save_image",
    "image_io.convert",
    "model.iat_forward",
    "model_local.forward",
    "model_global.encoder",
    "model_global.gpm",
    "isp.compose",
)
TRAIN_LAYERS = (
    "image_io.convert",
    "training.forward",
    "model_local.forward",
    "model_global.encoder",
    "model_global.gpm",
    "isp.compose",
    "tensor.backward",
    "training.data",
    "training.loss",
    "training.adam",
    "training.eval",
    "metrics.psnr",
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run as defined (not a program failure)."""


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digest(codes: np.ndarray) -> dict:
    """Row, column and 16x16-block sums of (H, W, 3) codes, per channel."""
    h, w, _ = codes.shape
    c = codes.astype(np.int64)
    bh, bw = -(-h // BLOCK), -(-w // BLOCK)
    padded = np.zeros((bh * BLOCK, bw * BLOCK, 3), np.int64)
    padded[:h, :w] = c
    return {
        "rows": c.sum(axis=1),
        "cols": c.sum(axis=0),
        "blocks": padded.reshape(bh, BLOCK, bw, BLOCK, 3).sum(axis=(1, 3)),
    }


@dataclass
class Op:
    """One image or one train_loop call, with what went wrong in it."""

    pool_index: int
    seconds: float = 0.0  # the timed window
    step_seconds: list = field(default_factory=list)
    units: int = 1  # images, or optimizer steps
    failed_units: int = 0
    raised: bool = False
    problems: list = field(default_factory=list)
    out_path: Path | None = None
    floats: np.ndarray | None = None
    losses: list = field(default_factory=list)
    psnr: float | None = None


def _fail(op: Op, what: str, units: int | None = None):
    op.problems.append(what)
    op.failed_units = op.units if units is None else min(op.units, op.failed_units + units)


# ---------------------------------------------------------------------------
# enhance


class EnhanceBench:
    kind = "enhance"
    layers = ENHANCE_LAYERS

    def __init__(self, workload: str, order: list[int], work: Path):
        self.workload = workload
        self.order = order
        self.work = work
        self.inputs = {}
        for i in dict.fromkeys(order):
            codes, blob = gen.enhance_input(workload, i)
            path = work / f"in_{i}.png"
            path.write_bytes(blob)
            self.inputs[i] = (path, codes)
        h, w = gen.SHAPES[workload]
        self.mpix = h * w / 1e6
        self.decoded_mb = h * w * 3 / 1e6
        params = model.iat_init()
        self.expected = gen.perturbed_values((n, t.shape) for n, t in model.named_parameters(params))
        for name, t in model.named_parameters(params):
            t.data = self.expected[name]
        self.checkpoint = work / "perturbed.iatc"
        model.save_checkpoint(params, self.checkpoint)
        self.params = None

    def setup_once(self):
        self.params, _ = model.load_checkpoint(self.checkpoint)

    def setup_problems(self) -> list[str]:
        loaded = dict(model.named_parameters(self.params))
        if set(loaded) != set(self.expected):
            return ["checkpoint round trip changed the parameter names"]
        bad = [n for n, t in loaded.items() if not np.array_equal(t.data, self.expected[n])]
        return [f"checkpoint round trip changed {bad[:3]}"] if bad else []

    def run_op(self, k: int, i: int, timed) -> Op:
        path, codes = self.inputs[i]
        op = Op(pool_index=i, out_path=self.work / f"out_{k}{path.suffix}")
        with timed():
            t0 = time.perf_counter()
            img = image_io.load_image(path)
            x = image_io.image_to_tensor(img)
            out, _ = model.iat_forward(x, self.params)
            image_io.save_image(image_io.tensor_to_image(out), op.out_path)
            op.seconds = time.perf_counter() - t0
        if not np.array_equal(img.pixels, codes.astype(np.float32) / 255.0):
            _fail(op, "decoded input differs from the generated codes")
        if not np.isfinite(out.data).all():
            _fail(op, "non-finite model output")
        flat = out.data[0].reshape(3, -1)
        op.floats = flat[:, gen.sample_positions(self.workload, i, SAMPLES)].T.copy()
        return op

    def check(self, op: Op, golden) -> None:
        """Compare a finished op's output file with the golden of its input."""
        i = op.pool_index
        out = np.floor(image_io.load_image(op.out_path).pixels * 255.0 + 0.5).astype(np.int64)
        src = self.inputs[i][1].astype(np.int64)
        if out.shape != src.shape:
            return _fail(op, f"output shape {out.shape} != input shape {src.shape}")
        change = np.abs(out - src).mean() / 255.0
        if change < MIN_MEAN_CHANGE:
            _fail(op, f"output barely differs from input (mean change {change:.4f})")
        clipped = np.mean((out == 0) | (out == 255))
        if clipped > MAX_CLIPPED:
            _fail(op, f"{clipped:.0%} of output codes clipped")
        if golden is None:
            return
        h, w, _ = out.shape
        got = digest(out)
        tol = {"rows": LINE_ATOL_MIN + LINE_ATOL_SHARE * w, "cols": LINE_ATOL_MIN + LINE_ATOL_SHARE * h, "blocks": BLOCK_ATOL}
        for key, atol in tol.items():
            worst = np.abs(got[key] - golden[f"{key}_{i}"]).max()
            if worst > atol:
                _fail(op, f"{key} code sums off by up to {worst} (tolerance {atol:g})")
        pos = gen.sample_positions(self.workload, i, SAMPLES)
        worst = np.abs(out.reshape(-1, 3)[pos] - golden[f"codes_{i}"]).max()
        if worst > 1:
            _fail(op, f"sampled output codes off by up to {worst} (tolerance 1)")
        if op.floats is not None and np.isfinite(op.floats).all():
            worst = float(np.abs(op.floats - golden[f"floats_{i}"]).max())
            if worst > FLOAT_ATOL:
                _fail(op, f"sampled float output off by {worst:.3g} (tolerance {FLOAT_ATOL:g})")

    def golden_entry(self, op: Op) -> dict:
        i = op.pool_index
        out = np.floor(image_io.load_image(op.out_path).pixels * 255.0 + 0.5).astype(np.uint8)
        entry = {f"{k}_{i}": v for k, v in digest(out).items()}
        entry[f"codes_{i}"] = out.reshape(-1, 3)[gen.sample_positions(self.workload, i, SAMPLES)]
        entry[f"floats_{i}"] = op.floats
        return entry

    def input_hash(self, i: int) -> str:
        return sha256(self.inputs[i][1])


# ---------------------------------------------------------------------------
# train


def _step_clock(marks: list, fn):
    def adam_step(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.append(time.perf_counter())
        return result

    return adam_step


class TrainBench:
    kind = "train"
    layers = TRAIN_LAYERS

    def __init__(self, workload: str, order: list[int], work: Path):
        self.workload = workload
        self.order = order
        self.pairs = {i: gen.train_pairs(i) for i in dict.fromkeys(order)}
        self.mpix = gen.TRAIN_PAIRS * gen.TRAIN_SIZE**2 / 1e6  # per step

    def make(self, i: int):
        """What a training run needs before train_loop: samples and initial params."""
        samples = [
            training.Sample(input=image_io.ImageRGB(a), target=image_io.ImageRGB(b), name=f"p{j}")
            for j, (a, b) in enumerate(self.pairs[i])
        ]
        params = model.iat_init(rng=philox(TRAIN_SEED0 + i, 0))
        return samples, params

    def setup_once(self):
        self.make(self.order[0])

    def setup_problems(self) -> list[str]:
        return []

    def run_op(self, k: int, i: int, timed) -> Op:
        op = Op(pool_index=i, units=TRAIN_STEPS)
        samples, params = self.make(i)
        cfg = training.TrainConfig(
            lr0=1e-3,
            weight_decay=1e-4,
            batch_size=gen.TRAIN_PAIRS,
            steps=TRAIN_STEPS,
            crop_size=gen.TRAIN_SIZE,
            loss="mixed",
            seed=TRAIN_SEED0 + i,
            eval_every=TRAIN_STEPS,
        )
        marks = []
        clock = _step_clock(marks, training.adam_step)
        with tracing.patched([(training, "adam_step", clock)]), timed():
            t0 = time.perf_counter()
            _, rows = training.train_loop(samples, cfg, params=params)
            op.seconds = time.perf_counter() - t0
        op.step_seconds = list(np.diff([t0] + marks))
        op.losses = [r.loss for r in rows]
        op.psnr = rows[-1].psnr_val
        if len(rows) != TRAIN_STEPS or len(marks) != TRAIN_STEPS:
            _fail(op, f"{len(rows)} log rows and {len(marks)} Adam steps for {TRAIN_STEPS} steps")
        return op

    def check(self, op: Op, golden) -> None:
        i = op.pool_index
        want = golden["losses"][i] if golden is not None else None
        bad = 0
        for s, loss in enumerate(op.losses):
            if not np.isfinite(loss):
                bad += 1
            elif want is not None and abs(loss - want[s]) > LOSS_RTOL * abs(want[s]):
                bad += 1
        if bad:
            _fail(op, f"{bad} step losses non-finite or off the golden by more than {LOSS_RTOL:g} relative", bad)
        psnr = op.psnr
        if psnr is None or not np.isfinite(psnr):
            _fail(op, f"final eval PSNR is {psnr}", 1)
        elif golden is not None and abs(psnr - golden["psnr"][i]) > PSNR_ATOL_DB:
            _fail(op, f"final eval PSNR {psnr:.4f} dB, golden {golden['psnr'][i]:.4f} dB", 1)

    def input_hash(self, i: int) -> str:
        return sha256(*[a for pair in self.pairs[i] for a in pair])


BENCHES = {
    "enhance_png_paeth_600x400": EnhanceBench,
    "train_64_b8": TrainBench,
}


def make_bench(workload: str, order: list[int], work: Path):
    return BENCHES[workload](workload, order, work)


def load_golden(bench):
    path = GOLDEN_DIR / f"{bench.workload}.npz"
    if not path.exists():
        raise BenchError(f"golden references {path} are missing")
    golden = np.load(path)
    for i in dict.fromkeys(bench.order):
        if bench.input_hash(i) != str(golden["input_sha256"][i]):
            raise BenchError(f"input generator drifted: pool member {i} no longer matches its golden")
    return golden


# ---------------------------------------------------------------------------
# the run


def run_guarded(bench, k: int, i: int, timed=contextlib.nullcontext) -> Op:
    """One operation; an exception is a failed operation, not a crashed run."""
    try:
        return bench.run_op(k, i, timed)
    except Exception:  # the program under test raised; count it and go on
        traceback.print_exc(file=sys.stderr)
        op = Op(pool_index=i, units=TRAIN_STEPS if bench.kind == "train" else 1, raised=True)
        _fail(op, "raised " + traceback.format_exc(limit=1).strip().splitlines()[-1])
        return op


def setup_block(bench) -> float:
    """Mean seconds per set-up over SETUP_BLOCK_S of set-ups in a row.

    One set-up takes a few milliseconds, and the host's speed changes from
    one to the next; the mean over a block evens that out.
    """
    n = 0
    t0 = time.perf_counter()
    while True:
        bench.setup_once()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= SETUP_BLOCK_S:
            return elapsed / n


def _probe() -> float:
    """Seconds for a fixed slice of interpreter work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - t0


def pin_quietest_cpu() -> None:
    """Pin this process to the CPU that runs a short probe fastest.

    On a shared host the CPUs a process may use differ in speed by 10-20%,
    depending on what their hardware siblings run. Left to the scheduler, a
    run lands on either, and runs split into a fast and a slow cluster.
    """
    cpus = sorted(os.sched_getaffinity(0))
    best = {}
    for _ in range(3):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(best.get(cpu, float("inf")), _probe())
    os.sched_setaffinity(0, {min(cpus, key=lambda cpu: (best[cpu], cpu))})


def closed_loop(bench, seconds: float, tracer=None):
    """Operations back to back until `seconds` have passed.

    Untraced: before every op, a block of set-ups is timed and left out of
    the loop's wall time; spread over the run, the median of the blocks is
    steadier than one block, since machine speed drifts from second to
    second. Returns (ops, wall, seconds per set-up of each block).

    Traced: each input runs once untraced and once traced, the first of the
    two alternating between pairs, so that their difference is the tracing
    overhead; the last pair is always completed. Returns (untraced ops,
    traced ops, wall).
    """
    plain, traced, setups = [], [], []
    start = time.perf_counter()
    paused = 0.0
    k = 0
    while time.perf_counter() - start - paused < seconds or (tracer and k % 2):
        if tracer is None:
            t0 = time.perf_counter()
            setups.append(setup_block(bench))
            paused += time.perf_counter() - t0
            plain.append(run_guarded(bench, k, bench.order[k % len(bench.order)]))
            k += 1
            continue
        i = bench.order[(k // 2) % len(bench.order)]
        if (k % 2 == 0) == ((k // 2) % 2 == 0):
            plain.append(run_guarded(bench, k, i))
        else:
            with tracer.installed():
                traced.append(run_guarded(bench, k, i, lambda: tracer.span("op")))
        k += 1
    wall = time.perf_counter() - start - paused
    return (plain, wall, setups) if tracer is None else (plain, traced, wall)


def check_all(bench, ops, golden) -> tuple[int, int]:
    """Check every op against the goldens; returns (units attempted, units failed)."""
    attempted = failed = 0
    for op in ops:
        if not op.raised:
            try:
                bench.check(op, golden)
            except Exception:  # an unreadable output is a failed op
                traceback.print_exc(file=sys.stderr)
                _fail(op, "output could not be checked")
        attempted += op.units
        failed += op.failed_units
        for p in op.problems:
            print(f"# FAILED op on pool member {op.pool_index}: {p}", file=sys.stderr)
    return attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# metrics


def _metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(bench, ops, wall: float, setups: list[float]) -> dict:
    done = [op for op in ops if not op.raised]
    if bench.kind == "enhance":
        latencies = [op.seconds for op in done]
        mpix_per_s = bench.mpix * len(done) / wall
    else:
        latencies = [s for op in done for s in op.step_seconds]
        mpix_per_s = bench.mpix * len(latencies) / sum(op.seconds for op in done)
    if not latencies:
        raise BenchError("no operation completed, so there is no latency to report")
    p50, p75 = np.percentile(latencies, [50, 75])
    attempted = sum(op.units for op in ops)
    failed = sum(op.failed_units for op in ops)
    return {
        "latency_p50_s": _metric(p50, "s"),
        "latency_p75_s": _metric(p75, "s"),
        "mpix_per_s": _metric(mpix_per_s, "Mpix/s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "setup_s": _metric(np.median(setups), "s"),
        "ops_ok_ratio": _metric(1.0 - failed / attempted, "ratio"),
    }


# Span names whose self time the issue names differently.
SELF_TIME_NAMES = {"model.iat_forward": "model.iat_forward_self_s"}


def per_layer_metrics(bench, plain, traced, spans, setup_spans) -> dict:
    """Self seconds and calls per image or per optimizer step, from the spans.

    Raises TraceError when a layer this workload goes through was never
    called, so a renamed or bypassed layer cannot read as zero.
    """
    agg = tracing.reduce_spans(spans)
    setup_agg = tracing.reduce_spans(setup_spans)
    missing = [n for n in bench.layers if n not in agg]
    if bench.kind == "enhance" and "model.load_checkpoint" not in setup_agg:
        missing.append("model.load_checkpoint")
    if missing:
        raise tracing.TraceError(
            f"{bench.workload}: traced layers never called: {missing}. A refactor that "
            "renames or bypasses a layer must update perfbench/tracing.py."
        )
    root = agg.pop("op")
    units = sum(op.units for op in traced if not op.raised)
    pairs = [(p, t) for p, t in zip(plain, traced) if not (p.raised or t.raised)]
    if not pairs:
        raise BenchError("no traced operation completed next to an untraced one")
    self_sum = sum(a["self_s"] for a in agg.values()) + root["self_s"]
    if abs(self_sum - root["incl_s"]) > 1e-6 * max(1.0, root["incl_s"]):
        raise tracing.TraceError(f"self times sum to {self_sum}s, traced wall is {root['incl_s']}s")

    zero = {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "meta": []}
    m = {}
    for name in tracing.TARGETS:
        if name == "model.load_checkpoint":
            a = setup_agg.get(name, zero)
            m[f"{name}_s"] = _metric(a["self_s"] / max(1, a["calls"]), "s")
            m[f"{name}.calls"] = _metric(a["calls"], "count")
            continue
        a = agg.get(name, zero)
        m[SELF_TIME_NAMES.get(name, f"{name}_s")] = _metric(a["self_s"] / units, "s")
        m[f"{name}.calls"] = _metric(a["calls"] / units, "count")

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    load = agg.get("image_io.load_image", zero)
    decoded_mb = getattr(bench, "decoded_mb", 0.0) * load["calls"]
    m["image_io.decode_mb_per_s"] = _metric(rate(decoded_mb, load["self_s"]), "MB/s")

    config = model.IATConfig()
    local = agg["model_local.forward"]
    local_gmac = sum(model.estimate_flops_detail(config, h, w)["local"] for h, w in local["meta"])
    m["model_local.gmac_per_s"] = _metric(rate(local_gmac, local["self_s"]), "GMAC/s")
    enc, gpm = agg["model_global.encoder"], agg["model_global.gpm"]
    global_gmac = sum(model.estimate_flops_detail(config, h, w)["global"] for h, w in enc["meta"])
    m["model_global.gmac_per_s"] = _metric(rate(global_gmac, enc["self_s"] + gpm["self_s"]), "GMAC/s")

    backward = agg.get("tensor.backward", zero)
    m["tensor.tape_ops"] = _metric(np.median(backward["meta"]) if backward["meta"] else 0, "count")

    # Phase times of a train step, including the model layers they call.
    step_forward = sum(
        s[2] - s[1] for s in spans if s[0] == "training.forward" and s[3] >= 0 and spans[s[3]][0] == "op"
    )
    m["training.forward_incl_s"] = _metric(step_forward / units, "s")
    m["training.eval_incl_s"] = _metric(agg.get("training.eval", zero)["incl_s"] / units, "s")

    m["bench.unattributed_s"] = _metric(root["self_s"] / units, "s")
    m["trace.wall_s"] = _metric(root["incl_s"] / units, "s")
    m["trace.attributed_share"] = _metric(1.0 - root["self_s"] / root["incl_s"], "ratio")
    overhead = float(np.median([(t.seconds - p.seconds) / t.units for p, t in pairs]))
    untraced = float(np.median([p.seconds / p.units for p, _ in pairs]))
    m["trace.overhead_s"] = _metric(overhead, "s")
    m["trace.overhead_share"] = _metric(overhead / untraced, "ratio")
    return m
