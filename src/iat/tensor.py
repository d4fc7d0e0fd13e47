"""Reverse-mode automatic differentiation over dense float tensors.

The operation set is exactly what the enhancement model and its losses
need, at the shapes it needs: broadcast elementwise arithmetic, 2-d
convolution (full and depthwise) of one image with a bias, the product of two
matrices, a clamped power op, relu/tanh/gelu, softmax, whole-tensor sums and
means, and shape bookkeeping (reshape/permute/slice).

The plane-sized passes run in strips of about `_STRIP_FLOATS` floats per
array, so each pass rereads data in L2 instead of streaming whole planes:
GELU forward and backward over the flat array (see `gelu`), and the conv
forward in strips of output rows whose height counts both input and output
channels (see `conv2d`). Each conv strip zero-pads only its own input rows;
convolution taps read 1-d windows of that flat padded strip.

Recording model: each op computes its output one way, whether or not a tape
records it, and hands `_emit` one backward rule. The rule is the only
backward state: whatever it needs beyond the op's inputs and output (a relu
mask, a sign, GELU's tanh) it computes when backward runs. The thread's one
open `Tape` keeps the rule when any input requires grad; with no tape open
nothing is kept, so inference runs tape-free. A tape supports one
`Tape.backward` pass and is consumed by it: backward pops each entry and
moves its output's gradient into the rule, so an op's closure (its inputs,
padded planes) and that gradient are freed as soon as they are used.
Gradients land on leaves only (parameters and inputs) and accumulate across
tapes, so a batch can be differentiated one sample's tape at a time.

float32 is the working precision; building tensors from float64 arrays keeps
float64 throughout, which the finite-difference tests rely on.
"""

import math
import threading

import numpy as np

from .errors import ConfigurationError, ContractError, ShapeError

DEFAULT_DTYPE = np.float32

# tanh-form GELU constants: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _coerce(data, dtype=None):
    arr = np.asarray(data)
    if dtype is None:
        dtype = np.float64 if arr.dtype == np.float64 else DEFAULT_DTYPE
    arr = arr.astype(dtype, copy=False)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # 0-d arrays are already contiguous
    return arr


class Tensor:
    """Dense float array with an optional gradient slot.

    Tensors are immutable after creation except for `.data` updates made by
    the optimizer and `.grad` population by a backward pass.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _coerce(data, dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    # arithmetic sugar; scalars lift to constants of the same dtype
    def _lift(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return elementwise(self, self._lift(other), "add")

    def __sub__(self, other):
        return elementwise(self, self._lift(other), "sub")

    def __rsub__(self, other):
        return elementwise(self._lift(other), self, "sub")

    def __mul__(self, other):
        return elementwise(self, self._lift(other), "mul")

    def __rmul__(self, other):
        return elementwise(self._lift(other), self, "mul")

    def sum(self):
        return reduce(self, "sum")

    def mean(self):
        return reduce(self, "mean")

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


# ---------------------------------------------------------------------------
# tape


_tls = threading.local()  # .tape: the tape recording on this thread, if any


class Tape:
    """Ordered record of executed ops; one backward pass, then consumed.

    Each entry is (op output, backward rule). The rule's closure holds
    everything backward needs, so a tape's size is the graph's memory;
    backward releases it entry by entry, last op first. A thread records on
    one tape at a time: opening a second one inside it raises ContractError.
    """

    def __init__(self):
        self._ops = []  # (output tensor, backward rule) in execution order
        self._consumed = False

    def __enter__(self):
        if getattr(_tls, "tape", None) is not None:
            raise ContractError("a tape is already recording on this thread")
        _tls.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _tls.tape = None
        return False

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: Tensor):
        """Add d(loss)/d(leaf) into .grad of every leaf reachable from loss.

        Leaves are the requires_grad tensors no recorded op produced
        (parameters, inputs); their .grad accumulates across tapes. Each entry
        is popped and its output's gradient moved into its rule, so memory
        falls as the walk proceeds and no op output keeps a .grad. The
        tape is consumed before the first rule runs, so a rule that raises
        leaves a tape that refuses another backward.
        """
        if self._consumed:
            raise ContractError("tape already consumed by a previous backward pass")
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._ops:
            raise ContractError("backward on an empty tape")
        if not loss.requires_grad:
            raise ContractError("loss does not depend on any requires_grad tensor")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        ops = self._ops
        while ops:
            out, rule = ops.pop()
            g, out.grad = out.grad, None
            if g is not None:  # None: not reachable from the loss
                rule(g)


def _emit(data, inputs, rule) -> Tensor:
    """Wrap op output; record its backward rule if grads are being tracked."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    tape = getattr(_tls, "tape", None)
    if tape is not None and out.requires_grad:
        tape._ops.append((out, rule))
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    # grads are only ever rebound, never mutated in place, so views are safe
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce-sum g over broadcast dimensions so it matches `shape`."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    elif extra < 0:  # scalar-ish grad for a tensor of size-1 dims
        return g.reshape(shape)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def elementwise(a: Tensor, b: Tensor, kind: str) -> Tensor:
    """Broadcasting add/sub/mul. Gradients reduce-sum over broadcast dims."""
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"cannot broadcast {a.shape} with {b.shape}") from None
    if kind == "add":
        data = a.data + b.data
    elif kind == "sub":
        data = a.data - b.data
    elif kind == "mul":
        data = a.data * b.data
    else:
        raise ConfigurationError(f"unknown elementwise kind {kind!r}")

    def rule(g):
        if kind == "add":
            _accumulate(a, g)
            _accumulate(b, g)
        elif kind == "sub":
            _accumulate(a, g)
            _accumulate(b, -g)
        else:
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)

    return _emit(data, (a, b), rule)


def absolute(x: Tensor) -> Tensor:
    """|x|; subgradient 0 at x == 0."""
    data = np.abs(x.data)

    def rule(g):
        _accumulate(x, g * np.sign(x.data))

    return _emit(data, (x,), rule)


# ---------------------------------------------------------------------------
# matmul


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs two matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def rule(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _emit(data, (a, b), rule)


# ---------------------------------------------------------------------------
# convolution (direct shift-and-add over flat windows; no im2col, no FFT)

# A strip of a full-plane pass covers as many elements (GELU) or output rows
# (conv2d) as keep its working set near this many floats per array, so the
# pass rereads data that sits in L2 instead of streaming whole planes.
_STRIP_FLOATS = 1 << 17


def conv_output_size(n: int, k: int, stride: int, padding: int) -> int:
    """Output length along one axis of a conv over input length n."""
    return (n + 2 * padding - k) // stride + 1


def _strip_rows(cin: int, cout: int, wp: int) -> int:
    """Output rows per conv2d forward strip at padded row width wp.

    Both the accumulator (Cout channels) and each tap's input window (Cin
    channels) span the strip's rows, so the larger of the two sets the height.
    """
    return max(1, _STRIP_FLOATS // (max(cin, cout) * wp))


def _pad_rows(x: np.ndarray, buf: np.ndarray, r0: int, padding: int) -> None:
    """Fill buf (C, rows, W + 2*padding) with rows [r0, r0 + rows) of x's
    (C, H, W) zero-padded plane; buf's border columns must already be zero."""
    h, wdt = x.shape[1:]
    r1 = r0 + buf.shape[1]
    a = min(max(r0, padding), r1)  # padded rows [a, b) hold rows of x
    b = max(a, min(r1, padding + h))
    buf[:, : a - r0] = 0
    buf[:, a - r0 : b - r0, padding : padding + wdt] = x[:, a - padding : b - padding]
    buf[:, b - r0 :] = 0


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d convolution of one (1, C, H, W) image, plus a per-channel bias.

    The weight's shape says the kind, each with one code path at any stride:
    full, weights (Cout, Cin, kh, kw), and depthwise, weights (C, 1, kh, kw)
    on C = Cin = Cout channels. Any other weight shape, or more than one
    image, raises ShapeError. With Cin = 1 the weight is full; both kinds
    would compute the same thing. Padding is symmetric and zero.

    Every array inside is a 2-d (C, L) plane; rows are wp = W + 2*padding
    wide. Output (yo, xo) sits at j = yo*wp + xo of an (Ho, wp) grid whose
    columns xo >= Wo are junk, and tap (dy, dx) reads the (C, m) window of
    the flat padded plane at stride*j + dy*wp + dx: contiguous at stride 1,
    one uniform stride otherwise. Full taps are one gemm of the (Cout, Cin)
    tap weights with the window, depthwise taps one broadcast multiply.

    The forward runs in strips of output rows, `_strip_rows` high, so a
    strip's accumulator and every tap's input window stay in L2. Each strip
    pads its own input rows into one reused zero-bordered buffer; no padded
    copy of the whole input is made unless one strip covers the output, and
    then the backward rule reuses that buffer as its plane (otherwise it pads
    the plane when it runs). A strip writes its valid columns, plus bias,
    into the output; when the grid has no junk columns (Wo = wp, as in an
    unpadded 1x1 conv) the taps accumulate in the output itself.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d x and w, got {x.shape} and {w.shape}")
    if x.shape[0] != 1:
        raise ShapeError(f"conv2d takes one image (1, C, H, W), got {x.shape}")
    _, cin, h, wdt = x.shape
    cout, cpg, kh, kw = w.shape
    depthwise = cpg != cin
    if depthwise and not (cpg == 1 and cout == cin):
        raise ShapeError(
            f"weight {w.shape} is neither full (Cout, {cin}, kh, kw) nor depthwise "
            f"({cin}, 1, kh, kw) for input {x.shape}"
        )
    if bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} != ({cout},)")
    ho = conv_output_size(h, kh, stride, padding)
    wo = conv_output_size(wdt, kw, stride, padding)
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} with padding {padding} does not fit input {h}x{wdt}"
        )

    xd = x.data[0]
    wp = wdt + 2 * padding
    offsets = [dy * wp + dx for dy in range(kh) for dx in range(kw)]

    def rows_read(nrows):
        """Padded input rows the taps read for nrows output rows."""
        return -(-(stride * (nrows * wp - 1) + offsets[-1] + 1) // wp)

    # the whole padded plane, with enough zero rows for the last tap's window
    rows = max(h + 2 * padding, rows_read(ho))
    band = min(_strip_rows(cin, cout, wp), ho)
    if (rows, padding) == (h, 0):  # the taps read x itself
        plane = xd.reshape(cin, h * wdt)
    else:  # a strip's rows, padded into one reused zero-bordered buffer
        buf = np.zeros((cin, rows_read(band), wp), dtype=xd.dtype)
        plane = None

    def window(flat, j0, m, off):
        """The (C, m) window tap `off` reads for grid cells [j0, j0 + m)."""
        start = stride * j0 + off
        return flat[:, start : start + stride * (m - 1) + 1 : stride]

    # per-tap weights: (C, 1) broadcast over a window, or (Cout, Cin) for a gemm
    wt = np.ascontiguousarray(np.moveaxis(w.data.reshape(cout, cpg, kh * kw), 2, 0))
    dtype = np.result_type(x.data, w.data)

    data = np.empty((1, cout, ho, wo), dtype=dtype)
    direct = wo == wp  # no junk columns: accumulate in the output
    acc = np.empty(cout * band * wp, dtype=dtype)
    tmp = np.empty_like(acc)
    for y0 in range(0, ho, band):
        y1 = min(y0 + band, ho)
        m = (y1 - y0) * wp
        if plane is not None:
            src, j0 = plane, y0 * wp
        else:
            strip = buf[:, : rows_read(y1) - stride * y0]
            _pad_rows(xd, strip, stride * y0, padding)
            src, j0 = strip.reshape(cin, -1), 0
        out = data[0, :, y0:y1]
        a = out.reshape(cout, m) if direct else acc[: cout * m].reshape(cout, m)
        t = tmp[: cout * m].reshape(cout, m)
        for i, off in enumerate(offsets):
            win = window(src, j0, m, off)
            if depthwise:
                np.multiply(wt[i], win, out=t if i else a)
            else:
                np.matmul(wt[i], win, out=t if i else a)
            if i:
                a += t
        if direct:
            out += bias.data[:, None, None]
        else:
            valid = a.reshape(cout, y1 - y0, wp)[:, :, :wo]
            np.add(valid, bias.data[:, None, None], out=out)
    if band == ho:  # one strip padded the whole plane: the rule reuses it
        plane = src

    def rule(g):
        g = g[0]
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(1, 2)))
        need_x, need_w = x.requires_grad, w.requires_grad
        if not (need_x or need_w):
            return
        # a full 1x1 stride-1 unpadded conv has no junk columns and one gemm over all of x
        whole = not depthwise and (kh, kw, stride, padding) == (1, 1, 1, 0)
        m = ho * wp
        if whole:
            gf = g.reshape(cout, m)
        else:
            gf = np.zeros((cout, ho, wp), dtype=g.dtype)
            gf[:, :, :wo] = g
            gf = gf.reshape(cout, m)
        if need_w:
            xf = plane
            if xf is None:
                xpad = np.zeros((cin, rows, wp), dtype=xd.dtype)
                _pad_rows(xd, xpad, 0, padding)
                xf = xpad.reshape(cin, rows * wp)
            gw = np.empty((cout, cpg, kh * kw), dtype=w.data.dtype)
            for i, off in enumerate(offsets):
                win = window(xf, 0, m, off)
                if depthwise:  # one dot per channel
                    gw[:, :, i] = np.matmul(gf[:, None, :], win[:, :, None])[:, 0]
                else:
                    gw[:, :, i] = gf @ win.T
            _accumulate(w, gw.reshape(w.data.shape))
        if need_x and whole:
            _accumulate(x, (wt[0].T @ gf).reshape(x.data.shape))
        elif need_x:
            gxf = np.zeros((cin, rows * wp), dtype=xd.dtype)
            for i, off in enumerate(offsets):
                win = window(gxf, 0, m, off)
                if depthwise:
                    win += wt[i] * gf
                else:
                    win += wt[i].T @ gf
            gxp = gxf.reshape(1, cin, rows, wp)
            _accumulate(x, gxp[:, :, padding : padding + h, padding : padding + wdt])

    return _emit(data, (x, w, bias), rule)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def pow_clamped(x: Tensor, gamma: Tensor, eps: float) -> Tensor:
    """max(x, eps)**gamma with gradients to both x and the scalar gamma.

    The x-gradient is defined as 0 on the clamped region (x <= eps).
    """
    if eps <= 0:
        raise ConfigurationError(f"eps must be > 0, got {eps}")
    if gamma.data.size != 1:
        raise ShapeError(f"gamma must be scalar, got shape {gamma.shape}")
    xc = np.maximum(x.data, eps)
    gval = float(gamma.data.reshape(()))
    data = xc**gval

    def rule(g):
        if x.requires_grad:
            gx = g * gval * xc ** (gval - 1.0)
            gx = np.where(x.data > eps, gx, 0.0).astype(x.data.dtype, copy=False)
            _accumulate(x, gx)
        if gamma.requires_grad:
            gg = (g * data * np.log(xc)).sum()
            _accumulate(gamma, np.asarray(gg, dtype=gamma.data.dtype))

    return _emit(data, (x, gamma), rule)


def _gelu_strips(xd: np.ndarray, *flat: np.ndarray):
    """Yield (x, t, *strips of `flat`) for each `_STRIP_FLOATS`-element strip
    of x's flat view, where t = tanh(c*(x + a*x*x*x)) fills one reused
    buffer with that expression's left-to-right arithmetic, so forward and
    backward get the same bits."""
    xf = xd.reshape(-1)
    tb = np.empty(min(xf.size, _STRIP_FLOATS), dtype=xd.dtype)
    for s0 in range(0, xf.size, _STRIP_FLOATS):
        xs = xf[s0 : s0 + _STRIP_FLOATS]
        t = np.multiply(xs, _GELU_A, out=tb[: xs.size])
        t *= xs
        t *= xs
        t += xs
        t *= _GELU_C
        np.tanh(t, out=t)
        yield (xs, t, *(a[s0 : s0 + xs.size] for a in flat))


def relu(x: Tensor) -> Tensor:
    """max(x, 0); gradient 0 at x == 0."""
    xd = x.data
    data = np.maximum(xd, 0)

    def rule(g):
        _accumulate(x, g * (xd > 0).astype(xd.dtype))

    return _emit(data, (x,), rule)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def rule(g):
        _accumulate(x, g * (1.0 - data * data))

    return _emit(data, (x,), rule)


def gelu(x: Tensor) -> Tensor:
    """tanh-form GELU (the common transformer variant): 0.5*x*(1 + t).

    The forward and the backward rule run in `_STRIP_FLOATS`-element strips
    of the flat array (see `_gelu_strips`), so each pass stays in L2 and only
    the output is plane-sized. The rule recomputes t; the tape keeps no copy.
    """
    xd = x.data
    data = np.empty(xd.shape, dtype=xd.dtype)
    for xs, t, out in _gelu_strips(xd, data.reshape(-1)):
        t += 1.0
        np.multiply(xs, 0.5, out=out)
        out *= t

    def rule(g):
        # 0.5*(1+t) + 0.5*x*(1-t*t)*c*(1+3a*x*x), times g
        gx = np.empty(xd.shape, dtype=xd.dtype)
        db = np.empty(min(xd.size, _STRIP_FLOATS), dtype=xd.dtype)
        for xs, t, gs, out in _gelu_strips(xd, g.reshape(-1), gx.reshape(-1)):
            d = np.multiply(xs, xs, out=db[: xs.size])
            d *= 3.0 * _GELU_A
            d += 1.0
            d *= _GELU_C
            d *= xs
            d *= 0.5
            np.multiply(t, t, out=out)  # out is scratch until the last line
            np.subtract(1.0, out, out=out)
            d *= out
            t += 1.0
            t *= 0.5
            d += t
            np.multiply(d, gs, out=out)
        _accumulate(x, gx)

    return _emit(data, (x,), rule)


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; derivative is the logistic sigmoid."""
    data = np.logaddexp(0.0, x.data).astype(x.data.dtype, copy=False)

    def rule(g):
        # stable sigmoid: exp(-softplus(-x))
        sig = np.exp(-np.logaddexp(0.0, -x.data)).astype(x.data.dtype, copy=False)
        _accumulate(x, g * sig)

    return _emit(data, (x,), rule)


def softmax(x: Tensor) -> Tensor:
    """Max-subtracted softmax over the last axis (each row of a score matrix)."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=-1, keepdims=True)

    def rule(g):
        dot = (g * data).sum(axis=-1, keepdims=True)
        _accumulate(x, (g - dot) * data)

    return _emit(data, (x,), rule)


# ---------------------------------------------------------------------------
# reductions and shape ops


def reduce(x: Tensor, kind: str) -> Tensor:
    """Sum or mean of every element of x, as a 0-d tensor."""
    if kind not in ("sum", "mean"):
        raise ConfigurationError(f"unknown reduce kind {kind!r}")
    data = x.data.sum()
    if kind == "mean":
        data = data / x.size

    def rule(g):
        ge = np.broadcast_to(g, x.shape)
        if kind == "mean":
            ge = ge / x.size
        _accumulate(x, ge)

    return _emit(data, (x,), rule)


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)
    return _emit(data, (x,), lambda g: _accumulate(x, g.reshape(x.data.shape)))


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    data = np.transpose(x.data, axes)
    return _emit(data, (x,), lambda g: _accumulate(x, np.transpose(g, np.argsort(axes))))


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along one axis."""
    if not (0 <= start and start + length <= x.shape[axis]):
        raise ShapeError(
            f"slice [{start}:{start + length}) out of bounds for axis {axis} "
            f"of shape {x.shape}"
        )
    sl = tuple(
        slice(start, start + length) if i == axis else slice(None)
        for i in range(x.ndim)
    )
    data = x.data[sl]

    def rule(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        _accumulate(x, gx)

    return _emit(data, (x,), rule)
