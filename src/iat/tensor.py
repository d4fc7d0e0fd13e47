"""Reverse-mode automatic differentiation over dense float tensors.

The operation set is exactly what the enhancement model and its losses
need, at the shapes it needs: broadcast elementwise arithmetic, 2-d
convolution (full and depthwise) of one image with a bias, the product of two
matrices, a clamped power op, relu/tanh/gelu, softmax, whole-tensor sums and
means, and shape bookkeeping (reshape/permute/slice).

The conv forward runs in strips of output rows whose height counts both
input and output channels, about `_STRIP_FLOATS` floats per array, so each
pass rereads data in L2 instead of streaming whole planes (see `conv2d`).
Each strip zero-pads only its own input rows, split into stride x stride
phase planes; convolution taps read contiguous 1-d windows of those flat
planes. A conv can read the GELU of its input, applied as each strip fills
(`conv2d`'s gelu_input). The model reads every GELU over a plane that way,
so no GELU writes a plane and a tape keeps the pre-activation alone; the
`gelu` op is left to the small matrices of the prediction module's FFN.

Recording model: each op computes its output one way, whether or not a tape
records it, and hands `_emit` one backward rule. The rule is the only
backward state: whatever it needs beyond the op's inputs and output (a relu
mask, a sign, GELU's tanh, a power's clamped base, a conv's padded phase
planes and the GELU it reads) it computes when backward runs, so a tape
holds no plane-sized array besides op outputs and leaves. The thread's one open `Tape` keeps the
rule when any input requires grad; with no tape open nothing is kept, so
inference runs tape-free. A tape supports one `Tape.backward` pass and is
consumed by it: backward pops each entry and moves its output's gradient
into the rule, so an op's closure (its inputs, a conv's per-tap weights)
and that gradient are freed as soon as they are used.
Gradients land on a tape's leaves only (parameters, inputs, and outputs of
another tape) and accumulate across tapes, so a batch can be differentiated
one sample's tape at a time, and weights every sample reads can be built once
on a tape of their own whose backward runs last, with no loss (see
`Tape.backward`).

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

    def backward(self, loss: Tensor | None = None):
        """Add d(loss)/d(leaf) into .grad of every leaf reachable from loss.

        Leaves are the requires_grad tensors no op on this tape produced
        (parameters, inputs, outputs of another tape); their .grad
        accumulates across tapes. Each entry is popped and its output's
        gradient moved into its rule, so memory falls as the walk proceeds
        and no op output keeps a .grad. The tape is consumed before the
        first rule runs, so a rule that raises leaves a tape that refuses
        another backward.

        With no loss, the gradients start from what the tape's outputs
        already hold: a tape whose outputs other tapes read as leaves (say,
        weights built once and shared by several samples' tapes) runs after
        those tapes' backward passes have filled the outputs' .grad.
        """
        if self._consumed:
            raise ContractError("tape already consumed by a previous backward pass")
        if loss is not None and loss.data.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if not self._ops:
            raise ContractError("backward on an empty tape")
        if loss is None:
            if all(out.grad is None for out, _ in self._ops):
                raise ContractError("no output of the tape holds a gradient")
        elif not loss.requires_grad:
            raise ContractError("loss does not depend on any requires_grad tensor")
        self._consumed = True
        if loss is not None:
            loss.grad = np.ones_like(loss.data)
        ops = self._ops
        while ops:
            out, rule = ops.pop()
            g, out.grad = out.grad, None
            if g is not None:  # None: not reachable from the loss
                rule(g)


def recording() -> bool:
    """Whether a tape is recording on this thread."""
    return getattr(_tls, "tape", None) is not None


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

# A conv2d strip covers as many output rows as keep its working set near this
# many floats per array, so the pass rereads data that sits in L2 instead of
# streaming whole planes.
_STRIP_FLOATS = 1 << 17


def conv_output_size(n: int, k: int, stride: int, padding: int) -> int:
    """Output length along one axis of a conv over input length n."""
    return (n + 2 * padding - k) // stride + 1


def _strip_rows(cin: int, cout: int, wq: int) -> int:
    """Output rows per conv2d forward strip at phase-plane row width wq.

    Both the accumulator (Cout channels) and each tap's input window (Cin
    channels) span the strip's rows, so the larger of the two sets the height.
    """
    return max(1, _STRIP_FLOATS // (max(cin, cout) * wq))


def _phase_rows(x: np.ndarray, buf: np.ndarray, r0: int, padding: int) -> None:
    """Fill buf (s, s, C, rows, wq) with the stride-s phase planes of x's
    (C, H, W) zero-padded plane from padded row r0 on: buf[py, px, :, i, j]
    is the padded plane's element (r0 + s*i + py, s*j + px). The columns
    that hold no element of x are the same in every strip and must already
    be zero. At s = 1 the one phase plane is the padded rows themselves."""
    s = buf.shape[0]
    h, wdt = x.shape[1:]
    rows, wq = buf.shape[3:]
    for py in range(s):
        top = r0 + py - padding  # the row of x that phase row 0 holds
        a = min(max(0, -(top // s)), rows)  # phase rows [a, b) hold rows of x
        b = max(a, min(rows, -((top - h) // s)))
        for px in range(s):
            left = px - padding  # the column of x that phase column 0 holds
            ja = max(0, -(left // s))  # phase columns [ja, jb) hold columns of x
            jb = max(ja, min(wq, -((left - wdt) // s)))
            plane = buf[py, px]
            plane[:, :a] = 0
            cols = slice(left + s * ja, left + s * jb, s)
            plane[:, a:b, ja:jb] = x[:, top + s * a : top + s * b : s, cols]
            plane[:, b:] = 0


def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Tensor,
    stride: int = 1,
    padding: int = 0,
    residuals: tuple[Tensor, ...] = (),
    gelu_input: bool = False,
) -> Tensor:
    """2-d convolution of one (1, C, H, W) image, plus a per-channel bias and
    any residuals of the output's shape, added in order: conv + bias + r0 + r1.
    With gelu_input the conv reads gelu(x) in place of x.

    The weight's shape says the kind, each with one code path at any stride:
    full, weights (Cout, Cin, kh, kw), and depthwise, weights (C, 1, kh, kw)
    on C = Cin = Cout channels. Any other weight shape, or more than one
    image, raises ShapeError. With Cin = 1 the weight is full; both kinds
    would compute the same thing. Padding is symmetric and zero.

    The zero-padded input (rows wp = W + 2*padding wide) is split into
    stride x stride phase planes: phase (py, px) holds the padded elements
    (s*i + py, s*j + px), in rows wq = ceil(wp / s) wide. Every array inside
    is a 2-d (C, L) plane. Output (yo, xo) sits at j = yo*wq + xo of an
    (Ho, wq) grid whose columns xo >= Wo are junk (about one at stride 2),
    and tap (dy, dx) reads the contiguous (C, m) window of phase plane
    (dy % s, dx % s) at j + (dy // s)*wq + dx // s. At stride 1 the one
    phase plane is the padded plane itself. Full taps are one gemm of the
    (Cout, Cin) tap weights with the window, depthwise taps one broadcast
    multiply.

    The forward runs in strips of output rows, `_strip_rows` high, so a
    strip's accumulator and every tap's input window stay in L2. Each strip
    fills its own phase rows into one reused zero-bordered buffer, and no
    padded copy of the whole input is made. The buffer dies with the
    forward: the backward rule fills its phase planes from x when it runs,
    so a tape keeps no padded copy of an input it already holds. A strip
    writes its valid columns plus bias into the output, then adds each
    residual's rows in turn; when the grid has no junk columns (Wo = wq, as
    in an unpadded 1x1 conv) the taps accumulate in the output itself. The
    rule hands the output gradient to every residual unchanged, so a
    residual block's sum never exists as a plane of its own.

    With gelu_input every strip fills its buffer with GELU of its input
    rows (see `_gelu`): an unpadded 1x1 conv straight from x, any other in
    place after the copy, GELU(0) = 0 keeping the padding zero. So no GELU
    plane exists, taped or not. The rule rebuilds gelu(x) into its phase
    planes with GELU'(x) beside them, from the same tanh, and scales the
    phase gradients by it as `gelu`'s rule scales its input gradient: the
    output and every gradient are those of conv2d(gelu(x), ...), bit for
    bit. The rule's phase planes, once gw has read them, hold the phase
    gradients.
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
    for r in residuals:
        if r.shape != (1, cout, ho, wo):
            raise ShapeError(f"residual shape {r.shape} != {(1, cout, ho, wo)}")

    xd = x.data[0]
    s = stride
    wq = -(-(wdt + 2 * padding) // s)
    # (phase plane, flat offset) of each tap, in (dy, dx) order
    taps = [((dy % s, dx % s), dy // s * wq + dx // s) for dy in range(kh) for dx in range(kw)]
    reach = max(off for _, off in taps)

    def rows_read(nrows):
        """Phase rows the taps read for nrows output rows."""
        return -(-(nrows * wq + reach) // wq)

    # the whole padded plane's phase rows, with enough zero rows for the last tap's window
    rows = max(-(-(h + 2 * padding) // s), rows_read(ho))
    band = min(_strip_rows(cin, cout, wq), ho)
    rows_of_x = (s, padding, rows) == (1, 0, h)  # the phase rows are rows of x

    def fill(dst, r0, scratch, d=None):
        """dst's phase rows from padded row r0 on (see `_phase_rows`); with
        gelu_input, of gelu(x), and GELU'(x) into d (dst's shape) if given.
        scratch holds GELU's t (dst.size floats), and with d its tmp too."""
        if not gelu_input:
            _phase_rows(xd, dst, r0, padding)
            return
        t = scratch[: dst.size].reshape(dst.shape)
        tmp = None if d is None else scratch[dst.size : 2 * dst.size].reshape(dst.shape)
        if rows_of_x:  # GELU straight from x's rows
            _gelu(xd[None, None, :, r0 : r0 + dst.shape[3]], t, y=dst, d=d, tmp=tmp)
        else:  # in place; GELU(0) = 0, so the zero padding stays zero
            _phase_rows(xd, dst, r0, padding)
            _gelu(dst, t, y=dst, d=d, tmp=tmp)

    if rows_of_x and not gelu_input:  # the taps read x itself
        plane = xd.reshape(1, 1, cin, h * wdt)
    else:  # a strip's phase rows, filled into one reused zero-bordered buffer
        buf = np.zeros((s, s, cin, rows_read(band), wq), dtype=xd.dtype)
        plane = None

    # per-tap weights: (C, 1) broadcast over a window, or (Cout, Cin) for a gemm
    wt = np.ascontiguousarray(np.moveaxis(w.data.reshape(cout, cpg, kh * kw), 2, 0))
    dtype = np.result_type(x.data, w.data)

    data = np.empty((1, cout, ho, wo), dtype=dtype)
    direct = wo == wq  # no junk columns: accumulate in the output
    # each tap's product, and GELU's t while a strip's buffer fills
    tmp = np.empty(max(cout * band * wq, buf.size if gelu_input else 0), dtype=dtype)
    acc = None if direct else np.empty(cout * band * wq, dtype=dtype)
    for y0 in range(0, ho, band):
        y1 = min(y0 + band, ho)
        m = (y1 - y0) * wq
        if plane is not None:
            src, j0 = plane, y0 * wq
        else:  # the windows read only the rows filled for this strip
            fill(buf[:, :, :, : rows_read(y1 - y0)], s * y0, tmp.view(xd.dtype))
            src, j0 = buf.reshape(s, s, cin, -1), 0
        out = data[0, :, y0:y1]
        a = out.reshape(cout, m) if direct else acc[: cout * m].reshape(cout, m)
        t = tmp[: cout * m].reshape(cout, m)
        for i, ((py, px), off) in enumerate(taps):
            win = src[py, px, :, j0 + off : j0 + off + m]
            if depthwise:
                np.multiply(wt[i], win, out=t if i else a)
            else:
                np.matmul(wt[i], win, out=t if i else a)
            if i:
                a += t
        if direct:
            out += bias.data[:, None, None]
        else:
            valid = a.reshape(cout, y1 - y0, wq)[:, :, :wo]
            np.add(valid, bias.data[:, None, None], out=out)
        for r in residuals:
            out += r.data[0, :, y0:y1]

    def rule(g):
        for r in residuals:
            _accumulate(r, g)
        g = g[0]
        if bias.requires_grad:
            _accumulate(bias, g.sum(axis=(1, 2)))
        need_x, need_w = x.requires_grad, w.requires_grad
        if not (need_x or need_w):
            return
        # a full 1x1 stride-1 unpadded conv has no junk columns and one gemm over all of x
        whole = not depthwise and (kh, kw, s, padding) == (1, 1, 1, 0)
        m = ho * wq
        if whole:
            gf = g.reshape(cout, m)
        else:
            gf = np.zeros((cout, ho, wq), dtype=g.dtype)
            gf[:, :, :wo] = g
            gf = gf.reshape(cout, m)
        # the taps' input: x itself, or its phase planes rebuilt from x; of
        # gelu(x), with GELU'(x) at each phase element (`slope`) when x needs
        # a gradient
        xf, xph, slope = plane, None, None
        if xf is None and (need_w or gelu_input):
            xph = np.zeros((s, s, cin, rows, wq), dtype=xd.dtype)
            slope = np.empty_like(xph) if gelu_input and need_x else None
            k = rows_read(band)  # rows per fill, which bound GELU's scratch
            scratch = np.empty(2 * s * s * cin * k * wq if gelu_input else 0, dtype=xd.dtype)
            for r0 in range(0, rows, k):
                d = None if slope is None else slope[:, :, :, r0 : r0 + k]
                fill(xph[:, :, :, r0 : r0 + k], s * r0, scratch, d)
            xf = xph.reshape(s, s, cin, -1)
        if need_w:
            gw = np.empty((cout, cpg, kh * kw), dtype=w.data.dtype)
            for i, ((py, px), off) in enumerate(taps):
                win = xf[py, px, :, off : off + m]
                if depthwise:  # one dot per channel
                    gw[:, :, i] = np.matmul(gf[:, None, :], win[:, :, None])[:, 0]
                else:
                    gw[:, :, i] = gf @ win.T
            _accumulate(w, gw.reshape(w.data.shape))
        if not need_x:
            return
        # the phase gradients, in the phase planes' buffer once gw has read it
        if xph is None:
            gph = (np.empty if whole else np.zeros)((s, s, cin, rows * wq), dtype=xd.dtype)
        else:
            gph = xph.reshape(s, s, cin, rows * wq)
            if not whole:
                gph.fill(0)
        if whole:  # one gemm over all of x
            np.matmul(wt[0].T, gf, out=gph[0, 0])
        else:
            for i, ((py, px), off) in enumerate(taps):
                win = gph[py, px, :, off : off + m]
                if depthwise:
                    win += wt[i] * gf
                else:
                    win += wt[i].T @ gf
        if slope is not None:  # GELU'(x) * g, as `gelu`'s rule multiplies
            np.multiply(slope.reshape(gph.shape), gph, out=gph)
        # interleave the phase gradients into the padded plane's gradient
        gxp = gph.reshape(s, s, cin, rows, wq).transpose(2, 3, 0, 4, 1)
        gxp = gxp.reshape(1, cin, rows * s, wq * s)
        _accumulate(x, gxp[:, :, padding : padding + h, padding : padding + wdt])

    return _emit(data, (x, w, bias, *residuals), rule)


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
    gval = float(gamma.data.reshape(()))
    data = np.maximum(x.data, eps) ** gval

    def rule(g):
        xc = np.maximum(x.data, eps)
        if x.requires_grad:
            gx = g * gval * xc ** (gval - 1.0)
            gx = np.where(x.data > eps, gx, 0.0).astype(x.data.dtype, copy=False)
            _accumulate(x, gx)
        if gamma.requires_grad:
            gg = (g * data * np.log(xc)).sum()
            _accumulate(gamma, np.asarray(gg, dtype=gamma.data.dtype))

    return _emit(data, (x, gamma), rule)


def _gelu(x, t, y=None, d=None, tmp=None) -> None:
    """tanh-form GELU of x, elementwise, in the one order of operations
    that `gelu` and `conv2d` share, so every caller gets the same bits:

        t = tanh(c*(x + a*x*x*x))                          (t: scratch)
        y = 0.5*x * (1 + t)                                if y is given
        d = 0.5*x*c*(1 + 3a*x*x) * (1 - t*t) + 0.5*(1 + t)  if d is given

    d is GELU'(x), from the same tanh as y; tmp is its scratch and may be
    y unless y is x. Every array has x's shape, and y may be x itself.
    """
    np.multiply(x, _GELU_A, out=t)
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    if d is not None:
        np.multiply(x, x, out=d)
        d *= 3.0 * _GELU_A
        d += 1.0
        d *= _GELU_C
        d *= x
        d *= 0.5
        np.multiply(t, t, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        d *= tmp
    t += 1.0
    if y is not None:
        np.multiply(x, 0.5, out=y)
        y *= t
    if d is not None:
        t *= 0.5
        d += t


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

    The rule recomputes t (`_gelu`); the tape keeps no copy. A GELU whose
    reader is a conv is fused into it instead (`conv2d`'s gelu_input), so
    that its output plane never exists: this op is for small arrays.
    """
    xd = x.data
    data = np.empty_like(xd)
    _gelu(xd, np.empty_like(xd), y=data)

    def rule(g):
        d, gx = np.empty_like(xd), np.empty_like(xd)
        _gelu(xd, np.empty_like(xd), d=d, tmp=gx)  # gx is scratch until the next line
        np.multiply(d, g, out=gx)
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
