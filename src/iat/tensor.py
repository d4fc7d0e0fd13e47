"""Reverse-mode automatic differentiation over dense float tensors.

The operation set is exactly what the enhancement model and its losses need:
broadcast elementwise arithmetic, direct 2-d convolution (full and depthwise),
matmul, a clamped power op, a small activation zoo, softmax, reductions, and
shape bookkeeping (reshape/transpose/slice). Convolution taps read 1-d
windows of a flat zero-padded input, and the forward runs in cache-sized
strips of output rows (see `conv2d`).

Recording model: each op computes its output one way, whether or not a tape
records it, and hands `_emit` one backward rule. The rule is the only
backward state: whatever it needs beyond the op's inputs and output (a relu
mask, a sign, GELU's tanh) it computes when backward runs. The innermost
active `Tape` (thread local) keeps the rule when any input requires grad;
with no active tape nothing is kept, so inference runs tape-free. A tape
supports one `backward()` pass and is consumed by it.

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

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self):
        self.grad = None

    # arithmetic sugar; scalars lift to constants of the same dtype
    def _lift(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        return elementwise(self, self._lift(other), "add")

    def __radd__(self, other):
        return elementwise(self._lift(other), self, "add")

    def __sub__(self, other):
        return elementwise(self, self._lift(other), "sub")

    def __rsub__(self, other):
        return elementwise(self._lift(other), self, "sub")

    def __mul__(self, other):
        return elementwise(self, self._lift(other), "mul")

    def __rmul__(self, other):
        return elementwise(self._lift(other), self, "mul")

    def __neg__(self):
        return elementwise(self, self._lift(-1.0), "mul")

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axes=None):
        return reduce(self, "sum", axes)

    def mean(self, axes=None):
        return reduce(self, "mean", axes)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return permute(self, axes)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype.name}{flag})"


def parameter(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=True, dtype=dtype)


# ---------------------------------------------------------------------------
# tape


_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def _active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of executed ops; one backward pass, then consumed."""

    def __init__(self):
        self._ops = []  # (output tensor, backward rule) in execution order
        self._consumed = False

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("tape stack corrupted: exiting a non-innermost tape")
        stack.pop()
        return False

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: Tensor):
        """Populate .grad for every requires_grad tensor reachable from loss."""
        if self._consumed:
            raise ContractError("tape already consumed by a previous backward pass")
        if loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._ops:
            raise ContractError("backward on an empty tape")
        if not loss.requires_grad:
            raise ContractError("loss does not depend on any requires_grad tensor")
        loss.grad = np.ones_like(loss.data)
        for out, rule in reversed(self._ops):
            if out.grad is None:
                continue  # not reachable from the loss
            rule(out.grad)
        self._ops.clear()
        self._consumed = True


def backward(loss: Tensor, tape: Tape | None = None):
    """Run the backward pass on `tape` (default: the innermost active tape)."""
    if tape is None:
        tape = _active_tape()
        if tape is None:
            raise ContractError("backward called with no active tape")
    tape.backward(loss)


def _emit(data, inputs, rule) -> Tensor:
    """Wrap op output; record its backward rule if grads are being tracked."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    tape = _active_tape()
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
    """Batched matrix product; leading dims broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    data = np.matmul(a.data, b.data)

    def rule(g):
        _accumulate(a, np.matmul(g, b.data.swapaxes(-1, -2)))
        _accumulate(b, np.matmul(a.data.swapaxes(-1, -2), g))

    return _emit(data, (a, b), rule)


# ---------------------------------------------------------------------------
# convolution (direct shift-and-add over flat windows; no im2col, no FFT)

# A forward strip covers as many output rows as keep its accumulator near
# this many floats, so a strip's taps reread a working set that fits in L2.
_STRIP_FLOATS = 1 << 17


def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2-d convolution on NCHW input with [Cout, Cin/groups, kh, kw] weights.

    Two kinds, each with one code path at any batch size and stride: full
    (groups=1) and depthwise (groups=Cin=Cout, weights [C, 1, kh, kw]). Any
    other `groups` raises ConfigurationError. Padding is symmetric and zero.

    x is zero-padded once into flat planes of row width wp = W + 2*padding.
    Output (yo, xo) sits at j = yo*wp + xo of an (Ho, wp) grid whose columns
    xo >= Wo are junk, and tap (dy, dx) reads the 1-d window of the flat
    plane at stride*j + dy*wp + dx: contiguous at stride 1, one uniform
    stride otherwise. Full taps are one matmul of the (Cout, Cin) tap weights
    on the window, depthwise taps one broadcast multiply. The forward runs in
    strips of output rows and writes each strip's valid columns, plus bias,
    straight into the output.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d x and w, got {x.shape} and {w.shape}")
    n, cin, h, wdt = x.shape
    cout, cpg, kh, kw = w.shape
    if groups != 1 and not groups == cin == cout:
        raise ConfigurationError(
            f"groups={groups} is neither 1 (full) nor Cin=Cout (depthwise) "
            f"for Cin={cin}, Cout={cout}"
        )
    if cpg != cin // groups:
        raise ConfigurationError(
            f"weight expects {cpg} channels per group, input provides {cin // groups}"
        )
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"bias shape {bias.shape} != ({cout},)")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wdt + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"kernel {kh}x{kw} with padding {padding} does not fit input {h}x{wdt}"
        )

    depthwise = groups != 1
    wp = wdt + 2 * padding
    offsets = [dy * wp + dx for dy in range(kh) for dx in range(kw)]
    # enough zero rows that the last tap's window over the whole grid fits
    rows = max(h + 2 * padding, -(-(stride * (ho * wp - 1) + offsets[-1] + 1) // wp))
    if (rows, padding) == (h, 0):
        xf = x.data.reshape(n, cin, h * wdt)
    else:
        xpad = np.zeros((n, cin, rows, wp), dtype=x.data.dtype)
        xpad[:, :, padding : padding + h, padding : padding + wdt] = x.data
        xf = xpad.reshape(n, cin, rows * wp)

    def window(flat, j0, m, off):
        """The (N, C, m) window tap `off` reads for grid cells [j0, j0 + m)."""
        start = stride * j0 + off
        return flat[:, :, start : start + stride * (m - 1) + 1 : stride]

    # per-tap weights: (C, 1) broadcast over a window, or (Cout, Cin) for matmul
    wt = np.ascontiguousarray(np.moveaxis(w.data.reshape(cout, cpg, kh * kw), 2, 0))
    dtype = np.result_type(x.data, w.data)

    data = np.empty((n, cout, ho, wo), dtype=dtype)
    band = max(1, _STRIP_FLOATS // (n * cout * wp))  # output rows per strip
    acc = np.empty(n * cout * min(band, ho) * wp, dtype=dtype)
    tmp = np.empty_like(acc)
    for y0 in range(0, ho, band):
        y1 = min(y0 + band, ho)
        m = (y1 - y0) * wp
        a = acc[: n * cout * m].reshape(n, cout, m)
        t = tmp[: n * cout * m].reshape(n, cout, m)
        for i, off in enumerate(offsets):
            win = window(xf, y0 * wp, m, off)
            if depthwise:
                np.multiply(wt[i], win, out=t if i else a)
            else:
                np.matmul(wt[i], win, out=t if i else a)
            if i:
                a += t
        valid = a.reshape(n, cout, y1 - y0, wp)[:, :, :, :wo]
        if bias is not None:
            np.add(valid, bias.data[:, None, None], out=data[:, :, y0:y1])
        else:
            data[:, :, y0:y1] = valid

    def rule(g):
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        need_x = x.requires_grad
        need_w = w.requires_grad
        if not (need_x or need_w):
            return
        # a full 1x1 stride-1 unpadded conv has no junk columns and one gemm over all of x
        whole = not depthwise and (kh, kw, stride, padding) == (1, 1, 1, 0)
        m = ho * wp
        if whole:
            gf = g.reshape(n, cout, m)
        else:
            gf = np.zeros((n, cout, ho, wp), dtype=g.dtype)
            gf[:, :, :, :wo] = g
            gf = gf.reshape(n, cout, m)
        if need_w:
            gw = np.empty((cout, cpg, kh * kw), dtype=w.data.dtype)
            for i, off in enumerate(offsets):
                win = window(xf, 0, m, off)
                if depthwise:  # one dot per channel
                    gwi = np.matmul(gf[:, :, None, :], win[:, :, :, None])
                else:
                    gwi = np.matmul(gf, win.transpose(0, 2, 1))
                gw[:, :, i] = gwi.sum(axis=0).reshape(cout, cpg)
            _accumulate(w, gw.reshape(w.data.shape))
        if need_x and whole:
            _accumulate(x, np.matmul(wt[0].T, gf).reshape(x.data.shape))
        elif need_x:
            gxf = np.zeros(xf.shape, dtype=x.data.dtype)
            for i, off in enumerate(offsets):
                win = window(gxf, 0, m, off)
                if depthwise:
                    win += wt[i] * gf
                else:
                    win += np.matmul(wt[i].T, gf)
            gxp = gxf.reshape(n, cin, rows, wp)
            _accumulate(x, gxp[:, :, padding : padding + h, padding : padding + wdt])

    inputs = (x, w) if bias is None else (x, w, bias)
    return _emit(data, inputs, rule)


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


def _gelu_tanh(xd: np.ndarray) -> np.ndarray:
    """tanh(c*(x + a*x*x*x)) in one fresh buffer, with that expression's
    left-to-right arithmetic, so forward and backward get the same bits."""
    t = _GELU_A * xd
    t *= xd
    t *= xd
    t += xd
    t *= _GELU_C
    return np.tanh(t, out=t)


def activation(x: Tensor, kind: str) -> Tensor:
    """Elementwise relu / tanh / gelu with exact derivatives."""
    xd = x.data
    if kind == "relu":
        data = np.maximum(xd, 0)

        def rule(g):
            _accumulate(x, g * (xd > 0).astype(xd.dtype))

    elif kind == "tanh":
        data = np.tanh(xd)

        def rule(g):
            _accumulate(x, g * (1.0 - data * data))

    elif kind == "gelu":
        # tanh form (the common transformer variant): 0.5*x*(1+t) with
        # t = _gelu_tanh(x); backward recomputes t so the tape holds no copy
        data = _gelu_tanh(xd)
        data += 1.0
        data *= 0.5 * xd

        def rule(g):
            t = _gelu_tanh(xd)
            deriv = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * _GELU_C * (
                1.0 + 3.0 * _GELU_A * xd * xd
            )
            _accumulate(x, g * deriv)

    else:
        raise ConfigurationError(f"unknown activation kind {kind!r}")
    return _emit(data, (x,), rule)


def relu(x: Tensor) -> Tensor:
    return activation(x, "relu")


def tanh(x: Tensor) -> Tensor:
    return activation(x, "tanh")


def gelu(x: Tensor) -> Tensor:
    return activation(x, "gelu")


def softplus(x: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; derivative is the logistic sigmoid."""
    data = np.logaddexp(0.0, x.data).astype(x.data.dtype, copy=False)

    def rule(g):
        # stable sigmoid: exp(-softplus(-x))
        sig = np.exp(-np.logaddexp(0.0, -x.data)).astype(x.data.dtype, copy=False)
        _accumulate(x, g * sig)

    return _emit(data, (x,), rule)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Max-subtracted softmax along `axis`."""
    if not -x.ndim <= axis < x.ndim:
        raise ConfigurationError(f"axis {axis} out of range for shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    data = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        dot = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(x, (g - dot) * data)

    return _emit(data, (x,), rule)


# ---------------------------------------------------------------------------
# reductions and shape ops


def reduce(x: Tensor, kind: str, axes=None) -> Tensor:
    """sum/mean over `axes` (None = all axes, [] = identity)."""
    if kind not in ("sum", "mean"):
        raise ConfigurationError(f"unknown reduce kind {kind!r}")
    if axes is None:
        ax = tuple(range(x.ndim))
    else:
        ax = tuple(int(a) % x.ndim if x.ndim else 0 for a in axes)
        if len(set(ax)) != len(ax):
            raise ConfigurationError(f"duplicate reduction axes in {axes}")
        for a in axes:
            if not -x.ndim <= int(a) < x.ndim:
                raise ConfigurationError(f"axis {a} out of range for shape {x.shape}")
    if not ax:
        return _emit(x.data, (x,), lambda g: _accumulate(x, g))

    count = 1
    for a in ax:
        count *= x.shape[a]
    data = x.data.sum(axis=ax)
    if kind == "mean":
        data = data / count

    def rule(g):
        shape_kept = list(x.shape)
        for a in ax:
            shape_kept[a] = 1
        ge = np.broadcast_to(g.reshape(shape_kept), x.shape)
        if kind == "mean":
            ge = ge / count
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
