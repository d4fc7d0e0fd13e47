"""Layer spans recorded from outside the program.

The program looks its layer functions up at call time (`iat_forward` calls
whatever `iat.model.local_branch_forward` names when it runs), so swapping a
module attribute for a timing wrapper puts a span around every call of that
layer without editing the program. Spans are kept in memory as
[name, start, end, parent index, meta] and reduced when the run ends.
"""

import contextlib
import functools
import importlib
import time

# span name -> the attributes the program calls it through. Every binding a
# caller uses is listed: training.py imported its own names.
TARGETS = {
    "image_io.load_image": ["iat.image_io:load_image"],
    "image_io.save_image": ["iat.image_io:save_image"],
    "image_io.convert": [
        "iat.image_io:image_to_tensor",
        "iat.image_io:tensor_to_image",
        "iat.training:image_to_tensor",
        "iat.training:tensor_to_image",
    ],
    "model.load_checkpoint": ["iat.model:load_checkpoint"],
    "model.iat_forward": ["iat.model:iat_forward"],
    "model_local.forward": ["iat.model:local_branch_forward"],
    "model_global.encoder": ["iat.model:encoder_forward"],
    "model_global.gpm": ["iat.model:gpm_forward"],
    "isp.compose": ["iat.model:compose_iat"],
    "tensor.backward": ["iat.tensor:Tape.backward"],
    "training.forward": ["iat.training:iat_forward"],
    "training.data": ["iat.training:_crop_and_flip"],
    "training.loss": ["iat.training:compute_loss"],
    "training.adam": ["iat.training:adam_step"],
    "training.eval": ["iat.training:_mean_psnr"],
    "metrics.psnr": ["iat.metrics:psnr"],
}


def _image_hw(args):
    return tuple(args[0].shape[2:])


def _tape_len(args):
    return len(args[0])


# What a span keeps besides its times: the image size for MAC counts, and the
# number of ops on the tape when backward starts.
META = {
    "model_local.forward": _image_hw,
    "model_global.encoder": _image_hw,
    "tensor.backward": _tape_len,
}


class TraceError(RuntimeError):
    """A layer the benchmark traces is missing or was never called."""


def resolve(target: str):
    """(owner, attribute) for "module:Attr.path"; raises TraceError if absent."""
    module, path = target.split(":")
    try:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if not callable(getattr(owner, attr)):
            raise AttributeError(f"{target} is not callable")
    except (ImportError, AttributeError) as e:
        raise TraceError(f"traced function {target} is missing: {e}") from None
    return owner, attr


@contextlib.contextmanager
def patched(replacements):
    """Set each (owner, attr, value) for the duration of the block."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, meta=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, meta(args) if meta else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one whole operation."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def installed(self):
        """Context manager that wraps every target in TARGETS."""
        replacements = []
        for name, targets in TARGETS.items():
            for target in targets:
                owner, attr = resolve(target)
                fn = getattr(owner, attr)
                replacements.append((owner, attr, self.wrap(name, fn, META.get(name))))
        return patched(replacements)


def reduce_spans(spans):
    """Per span name: {"self_s", "incl_s", "calls", "meta"}.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of a tree add up to its root's duration.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, parent, meta) in enumerate(spans):
        agg = out.setdefault(name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "meta": []})
        agg["self_s"] += (end - start) - child[i]
        agg["incl_s"] += end - start
        agg["calls"] += 1
        if meta is not None:
            agg["meta"].append(meta)
    return out
