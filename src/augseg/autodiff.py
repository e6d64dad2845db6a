"""Dense tensors with tape-based reverse-mode differentiation.

A ``Tensor`` wraps a row-major numpy array plus an optional gradient
buffer.  Ops record their adjoint closures only inside a
``with use_tape(tape):`` block, and only when some input requires
gradients; ``tape.backward(loss)`` replays the tape in reverse and
accumulates gradients into every reachable leaf.  Outside any block an
op is plain numpy and its output never requires gradients.

Conventions:
  * default compute dtype is float32; tests typically run float64
  * convolution is cross-correlation (no kernel flip)
  * broadcasting is numpy-style singleton expansion only: shapes are
    right-aligned and each axis pair must match or be 1
  * the tape is cleared when its block exits, so its records never
    outlive the block
  * ``Tensor.assign`` raises while a tape is recording, so no tensor can
    change under a recorded graph

The recording slot is one per process, so concurrent trainings run in
separate processes.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32

_GRAD_DTYPES = (np.float32, np.float64)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


class GradTape:
    """Ordered record of primitive ops, replayed in reverse for adjoints."""

    def __init__(self):
        self._nodes = []          # (out, inputs, backward_fn)

    def __len__(self):
        return len(self._nodes)

    def backward(self, loss):
        """Accumulate d loss / d leaf into ``grad`` of every reachable leaf.

        Repeated calls within one block accumulate (each call adds one
        full gradient), in place into a preset ``grad`` such as the store
        view ``AdamState.for_params`` binds.  Adjoints of interior nodes
        live in a scratch table keyed by tensor identity; only leaves
        keep a ``grad``.

        An adjoint closure never writes into the ``g`` it receives, and
        interior adjoints are summed out of place, so a closure may
        return ``g`` itself, a view of it, or a read-only broadcast.
        """
        if loss.size != 1:
            raise ContractError(
                f"backward requires a scalar loss, got shape {loss.shape}")
        adjoint = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward_fn in reversed(self._nodes):
            g = adjoint.pop(id(out), None)
            if g is None:
                continue
            for t, dt in zip(inputs, backward_fn(g)):
                if dt is None or not t.requires_grad:
                    continue
                if t._leaf:
                    if t.grad is None:
                        t.grad = np.zeros_like(t.data)
                    t.grad += dt
                else:
                    acc = adjoint.get(id(t))
                    adjoint[id(t)] = dt if acc is None else acc + dt


_tape = None    # the recording tape; set only inside ``use_tape``


@contextmanager
def use_tape(tape: GradTape):
    """Record ops whose inputs require gradients on ``tape`` in this block.

    On exit the outer tape (if any) records again and ``tape`` is
    cleared; read gradients inside the block or from the leaves after.
    """
    global _tape
    outer, _tape = _tape, tape
    try:
        yield tape
    finally:
        _tape = outer
        tape._nodes.clear()


class Tensor:
    """Dense N-d array with optional gradient tracking.

    Feature maps follow the [batch, channels, height, width] layout.
    uint8 tensors never carry gradients.
    """

    __slots__ = ("data", "requires_grad", "grad", "_leaf")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64, np.uint8):
            arr = arr.astype(DEFAULT_DTYPE)
        if requires_grad and arr.dtype not in _GRAD_DTYPES:
            raise ContractError(
                f"requires_grad is only valid for float tensors, got {arr.dtype}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._leaf = True

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, shape, dtype=DEFAULT_DTYPE, requires_grad=False):
        return cls(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
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

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}{flag})"

    # ------------------------------------------------------------------
    # value access / mutation
    # ------------------------------------------------------------------
    def numpy(self) -> np.ndarray:
        """The underlying buffer; treat as read-only while on a tape."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def assign(self, new_data):
        """Rebind ``data`` to ``new_data``; only outside ``use_tape``.

        Not in place: the old buffer is left as it was, and ``new_data``
        is used as is when it already has this tensor's dtype (so
        ``AdamState.for_params`` can bind each parameter to a view of its
        store).  A preset ``grad`` stays and still accumulates in place.
        Rebinding a parameter that is such a view detaches it from the
        store, and ``adam_step`` then rejects it.
        """
        if _tape is not None:
            raise ContractError(
                "cannot mutate a tensor while a tape is recording")
        arr = np.asarray(new_data, dtype=self.data.dtype)
        if arr.shape != self.data.shape:
            raise DimensionError(
                f"assign shape {arr.shape} != tensor shape {self.data.shape}")
        self.data = arr

    # ------------------------------------------------------------------
    # operator sugar
    # ------------------------------------------------------------------
    def __add__(self, other):
        return ew_binary("add", self, other)

    def __mul__(self, other):
        return ew_binary("mul", self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def recording() -> bool:
    """Whether a ``use_tape`` block is open."""
    return _tape is not None


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype if dtype is not None else DEFAULT_DTYPE))


def _record(out: Tensor, inputs, backward_fn):
    """Mark ``out`` as an interior node and push the adjoint closure."""
    if _tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._leaf = False
        _tape._nodes.append((out, tuple(inputs), backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum-reduce a gradient back to the (possibly broadcast) input shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcastable(a_shape, b_shape):
    ra, rb = len(a_shape), len(b_shape)
    for i in range(1, min(ra, rb) + 1):
        na, nb = a_shape[-i], b_shape[-i]
        if na != nb and na != 1 and nb != 1:
            raise DimensionError(
                f"shapes {a_shape} and {b_shape} are not broadcast-compatible "
                "(axes must match or be 1)")


# ----------------------------------------------------------------------
# elementwise arithmetic
# ----------------------------------------------------------------------
def ew_binary(kind: str, a, b) -> Tensor:
    """Elementwise add/mul with singleton-extent broadcasting."""
    a = _as_tensor(a)
    b = _as_tensor(b, a.dtype)
    _check_broadcastable(a.shape, b.shape)
    if kind == "add":
        out = Tensor(a.data + b.data)
        back = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))
    elif kind == "mul":
        out = Tensor(a.data * b.data)
        back = lambda g: (_unbroadcast(g * b.data, a.shape),
                          _unbroadcast(g * a.data, b.shape))
    else:
        raise ContractError(f"unknown elementwise kind {kind!r}")
    return _record(out, (a, b), back)


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------
def matmul(a, b) -> Tensor:
    """Matrix product; leading batch axes broadcast numpy-style.

    The adjoint computes an operand's gradient only when that operand
    requires grad.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError("matmul requires rank >= 2 operands")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner extents differ: {a.shape} x {b.shape}")
    _check_broadcastable(a.shape[:-2], b.shape[:-2])
    out = Tensor(np.matmul(a.data, b.data))

    def back(g):
        da = db = None
        if a.requires_grad:
            da = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)),
                              a.shape)
        if b.requires_grad:
            db = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                              b.shape)
        return da, db

    return _record(out, (a, b), back)


# ----------------------------------------------------------------------
# reductions and shape ops
# ----------------------------------------------------------------------
def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(np.sum(x.data, axis=axis, keepdims=keepdims))

    def back(g):
        g = np.asarray(g)
        if axis is None:
            return (np.broadcast_to(g.reshape((1,) * x.ndim), x.shape),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, x.shape),)

    return _record(out, (x,), back)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.data.reshape(shape))
    return _record(out, (x,), lambda g: (g.reshape(x.shape),))


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor(x.data.transpose(axes))
    return _record(out, (x,), lambda g: (g.transpose(inv),))


# ----------------------------------------------------------------------
# nonlinearities
# ----------------------------------------------------------------------
def relu(x) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    return _record(Tensor(np.maximum(d, 0)), (x,), lambda g: (g * (d > 0),))


def gelu(x) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    phi = 0.5 * (1.0 + erf(d * _INV_SQRT2))
    out = Tensor((d * phi).astype(d.dtype, copy=False))
    return _record(out, (x,), lambda g: (
        g * (phi + d * np.exp(-0.5 * d * d) * _INV_SQRT2PI),))


def softmax_vjp(y: np.ndarray, g: np.ndarray, axis=-1) -> np.ndarray:
    """Adjoint of softmax at output ``y``: ``y * (g - sum(g * y))``.

    Computed in place on ``g``, a float buffer the caller owns; it is
    returned.
    """
    g -= np.sum(g * y, axis=axis, keepdims=True)
    g *= y
    return g


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------
def _conv_out_extent(n, k, stride, pad):
    return (n + 2 * pad - k) // stride + 1


@lru_cache(maxsize=256)
def _tap_slices(k, stride, pad, n_out, n_in):
    """(t, output slice, input slice) along one axis for each kernel tap
    ``t`` that reads inside the input: output index ``r`` reads input
    index ``t - pad + stride * r``, kept where that lies in [0, n_in).

    A negative ``pad`` crops: output ``r`` then starts reading at input
    ``t - pad``.  Memoised per geometry, as a tuple of tuples: a network
    convolves a few fixed geometries on every forward and backward.
    """
    taps = []
    for t in range(k):
        off = t - pad
        lo = max(0, -(off // stride))               # ceil(-off / stride)
        hi = min(n_out, (n_in - 1 - off) // stride + 1)
        if lo < hi:
            taps.append((t, slice(lo, hi),
                         slice(off + stride * lo, off + stride * (hi - 1) + 1,
                               stride)))
    return tuple(taps)


def _taps(kh, kw, stride, pad, oh, ow, h, w):
    """(i, j, output rows, output cols, input rows, input cols) for every
    tap of a kh x kw kernel that reads at least one input pixel; ``pad``
    is one int for both axes or a (rows, cols) pair."""
    ph, pw = pad if isinstance(pad, tuple) else (pad, pad)
    col_taps = _tap_slices(kw, stride, pw, ow, w)
    for i, orow, irow in _tap_slices(kh, stride, ph, oh, h):
        for j, ocol, icol in col_taps:
            yield i, j, orow, ocol, irow, icol


def _im2col(x, kh, kw, stride, pad, oh, ow):
    """Columns [N, C*kh*kw, oh*ow] of the zero-padded [N,C,H,W] input
    ``x``, or of the join along channels of a list of [N,C_i,H,W] blocks.

    Blocks are joined once; the padded copy is never built: each tap is
    one strided slice copy into a zeroed [N,C,kh,kw,oh,ow] buffer,
    clipped to the output positions that read inside the input; the
    border entries stay 0.  ``pad`` is one int or a (rows, cols) pair; a
    negative pad crops that many pixels from each side instead.
    """
    if isinstance(x, list):
        x = x[0] if len(x) == 1 else np.concatenate(x, axis=1)
    n, c, h, w = x.shape
    cols = np.zeros((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i, j, orow, ocol, irow, icol in _taps(kh, kw, stride, pad, oh, ow, h, w):
        cols[:, :, i, j, orow, ocol] = x[:, :, irow, icol]
    return cols.reshape(n, c * kh * kw, oh * ow)


def _dilate(g, stride):
    """[N,C,H,W] ``g`` with ``stride - 1`` zero rows and columns between
    its entries; ``g`` itself at stride 1."""
    if stride == 1:
        return g
    n, c, h, w = g.shape
    d = np.zeros((n, c, (h - 1) * stride + 1, (w - 1) * stride + 1), g.dtype)
    d[:, :, ::stride, ::stride] = g
    return d


def conv2d(x, weight, bias=None, stride=1, padding=0) -> Tensor:
    """2-d cross-correlation (no kernel flip).

    x: [N,C,H,W], or a list of [N,C_i,H,W] maps read as their join along
    channels; weight: [O,C,kh,kw]; optional bias [O].
    Output extent per axis: floor((n + 2*pad - k) / stride) + 1.

    The input gradient is a gather, not a scatter: the stride-1
    correlation of ``g``, dilated by ``stride``, with the kernel flipped
    along both spatial axes, ``W' im2col(g)`` at pad ``k - 1 - pad`` (a
    negative pad when ``pad >= k``, which crops) and the input's extent.
    ``W'`` is the [C, O*kh*kw] flipped kernel; each map that requires
    grad takes one GEMM over its own rows, the others none.
    """
    blocks = [_as_tensor(t) for t in (x if isinstance(x, (list, tuple))
                                      else (x,))]
    weight = _as_tensor(weight)
    if not blocks or any(t.ndim != 4 for t in blocks) or weight.ndim != 4:
        raise DimensionError("conv2d expects rank-4 input and kernel")
    n, _, h, w = blocks[0].shape
    if any(t.shape[0] != n or t.shape[2:] != (h, w) for t in blocks):
        raise DimensionError(
            "conv2d input maps differ outside the channel axis: "
            f"{[t.shape for t in blocks]}")
    c = sum(t.shape[1] for t in blocks)
    o, ck, kh, kw = weight.shape
    if ck != c:
        raise DimensionError(f"kernel channels {ck} != input channels {c}")
    if stride < 1:
        raise ContractError("stride must be >= 1")
    if padding < 0:
        raise ContractError(f"padding must be >= 0, got {padding}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input "
            f"{h + 2 * padding}x{w + 2 * padding}")
    oh = _conv_out_extent(h, kh, stride, padding)
    ow = _conv_out_extent(w, kw, stride, padding)
    cols = _im2col([t.data for t in blocks], kh, kw, stride, padding, oh, ow)
    w2 = weight.data.reshape(o, c * kh * kw)
    y = np.matmul(w2, cols).reshape(n, o, oh, ow)
    inputs = blocks + [weight]
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (o,):
            raise DimensionError(f"bias shape {bias.shape} != ({o},)")
        y += bias.data[None, :, None, None]
        inputs.append(bias)
    out = Tensor(y)

    def back(g):
        g2 = g.reshape(n, o, oh * ow)
        dw = np.matmul(cols, g2.swapaxes(1, 2)).sum(axis=0).T.reshape(
            weight.shape)
        dxs = [None] * len(blocks)
        if any(t.requires_grad for t in blocks):
            # the flipped kernel as [C, O*kh*kw] rows, against the
            # stride-1 columns of the dilated g at pad k-1-padding
            gcols = _im2col(_dilate(g, stride), kh, kw, 1,
                            (kh - 1 - padding, kw - 1 - padding), h, w)
            wf = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(
                c, o * kh * kw)
            c0 = 0
            for b, t in enumerate(blocks):
                c1 = c0 + t.shape[1]
                if t.requires_grad:
                    dxs[b] = np.matmul(wf[c0:c1], gcols).reshape(t.shape)
                c0 = c1
        if bias is not None:
            return (*dxs, dw, g.sum(axis=(0, 2, 3)))
        return (*dxs, dw)

    return _record(out, tuple(inputs), back)


def conv_transpose2d(x, weight, bias=None) -> Tensor:
    """Transposed convolution with stride equal to the kernel, no padding.

    x: [N,C,H,W]; weight: [C,O,kh,kw]; optional bias [O].  Output:
    [N,O,H*kh,W*kw].

    The output windows do not overlap: each input pixel stamps its own
    kh x kw block.  So the forward is the GEMM ``W2^T x`` followed by one
    depth-to-space reshape, and the input gradient is ``W2 gcols``, where
    ``gcols`` is ``g`` laid back out space-to-depth and W2 is the
    [C, O*kh*kw] kernel matrix.
    """
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError("conv_transpose2d expects rank-4 input and kernel")
    n, c, h, w = x.shape
    cw, o, kh, kw = weight.shape
    if cw != c:
        raise DimensionError(f"kernel in-channels {cw} != input channels {c}")
    w2 = weight.data.reshape(c, o * kh * kw)
    x2 = x.data.reshape(n, c, h * w)
    y = np.matmul(w2.T, x2).reshape(n, o, kh, kw, h, w).transpose(
        0, 1, 4, 2, 5, 3).reshape(n, o, h * kh, w * kw)
    inputs = [x, weight]
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (o,):
            raise DimensionError(f"bias shape {bias.shape} != ({o},)")
        y += bias.data[None, :, None, None]
        inputs.append(bias)
    out = Tensor(y)

    def back(g):
        gcols = g.reshape(n, o, h, kh, w, kw).transpose(
            0, 1, 3, 5, 2, 4).reshape(n, o * kh * kw, h * w)
        dx = np.matmul(w2, gcols).reshape(x.shape)
        dw = np.matmul(gcols, x2.swapaxes(1, 2)).sum(axis=0).T.reshape(
            weight.shape)
        if bias is not None:
            return dx, dw, g.sum(axis=(0, 2, 3))
        return dx, dw

    return _record(out, tuple(inputs), back)


# ----------------------------------------------------------------------
# bilinear resize
# ----------------------------------------------------------------------
@lru_cache(maxsize=64)
def _interp_matrix(n_in, n_out, dtype):
    """[n_out, n_in] linear-interpolation weights, half-pixel centers.

    Memoised per (n_in, n_out, dtype): a network resizes between a few
    fixed extents on every forward.  The cached arrays are read-only.
    """
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1.0)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    t = src - lo
    rows = np.arange(n_out)
    m = np.zeros((n_out, n_in))
    m[rows, lo] = 1.0 - t
    m[rows, hi] += t        # (row, hi) pairs are distinct, so += is safe
    m = m.astype(dtype)
    m.flags.writeable = False
    return m


def bilinear_resize(x, out_hw) -> Tensor:
    """Bilinear interpolation on [N,C,H,W] with half-pixel centers.

    Separable: with row and column interpolation matrices R and C the
    forward is ``R x C^T`` per channel and the adjoint ``R^T g C``.
    """
    x = _as_tensor(x)
    if x.ndim != 4:
        raise DimensionError("bilinear_resize expects a rank-4 tensor")
    n, c, h, w = x.shape
    oh, ow = out_hw
    if oh < 1 or ow < 1:
        raise ContractError("output extents must be >= 1")
    rm = _interp_matrix(h, oh, x.dtype)
    cm = _interp_matrix(w, ow, x.dtype)
    out = Tensor(rm @ x.data @ cm.T)
    return _record(out, (x,), lambda g: (rm.T @ g @ cm,))


# ----------------------------------------------------------------------
# gradient checking
# ----------------------------------------------------------------------
def finite_diff_check(f, x: Tensor, eps=1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor and must be deterministic.
    Error per coordinate is |a - n| / max(|a|, |n|, 1e-12).
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    probe = Tensor(x.data.astype(np.float64, copy=True), requires_grad=True)
    with use_tape(GradTape()) as tape:
        y = f(probe)
        tape.backward(y)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)
    flat = probe.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(Tensor(probe.data, requires_grad=False)).item()
        flat[i] = orig - eps
        lo = f(Tensor(probe.data, requires_grad=False)).item()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    a = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(a - numeric) / denom))
