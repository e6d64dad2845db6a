"""Dense tensors with tape-based reverse-mode differentiation.

A ``Tensor`` wraps a row-major numpy array plus an optional gradient
buffer.  Ops record their adjoint closures only inside a
``with use_tape(tape):`` block, and only when some input requires
gradients; ``tape.backward(out, grad)`` replays the tape in reverse from
the cotangent ``grad`` (1 for a scalar loss) and accumulates the
vector-Jacobian product into every reachable leaf.  Outside any block an
op is plain numpy and its output never requires gradients.

The module holds only the ops a training or eval step records; the fused
norm, attention, residual and loss ops build on ``_record`` elsewhere.

Conventions:
  * default compute dtype is float32; tests typically run float64
  * convolution is cross-correlation (no kernel flip)
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

from .errors import ContractError, DimensionError

DEFAULT_DTYPE = np.float32

_GRAD_DTYPES = (np.float32, np.float64)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# float32 erf(x) = x P(x^2) / Q(x^2), a rational minimax form (Eigen's
# ``generic_fast_erf``), highest power first.  Its error is under 3.5e-7
# against double erf.  x is clamped at erfinv(1 - 2^-24), past which erf
# is within one float32 ulp of +-1, and the quotient clipped to [-1, 1].
_ERF_CLAMP = np.float32(3.832506856900711)
_ERF_P = tuple(np.float32(c) for c in (
    2.2905065861350646e-4, 3.4082910107109506e-3, 5.0955695062380861e-2,
    1.8520832239976145e-1, 1.128379143519084))
_ERF_Q = tuple(np.float32(c) for c in (
    -1.1791602954361697e-7, 2.3547966471313185e-5, 1.0179625278914885e-3,
    1.4070470171167667e-2, 1.1098505178285362e-1, 4.9746925110067538e-1,
    1.0))
_erf64 = np.vectorize(math.erf, otypes=[np.float64])


class GradTape:
    """Ordered record of primitive ops, replayed in reverse for adjoints."""

    def __init__(self):
        self._nodes = []          # (out, inputs, backward_fn)

    def __len__(self):
        return len(self._nodes)

    def backward(self, out, grad=None):
        """Accumulate the vector-Jacobian product ``grad^T d out / d leaf``
        into the ``.grad`` buffer of every reachable leaf.

        ``grad`` is the cotangent that seeds the reverse sweep and must
        have ``out``'s shape; it is read, never written.  Without it
        ``out`` must be a scalar loss and the seed is 1, so each leaf
        receives d loss / d leaf.

        Repeated calls within one block accumulate (each call adds one
        full gradient), in place into a preset ``.grad`` such as the store
        view ``AdamState.for_params`` binds.  Adjoints of interior nodes
        live in a scratch table keyed by tensor identity; only leaves
        keep a ``grad``.

        An adjoint closure never writes into the ``g`` it receives, and
        interior adjoints are summed out of place, so a closure may
        return ``g`` itself, a view of it, or a read-only broadcast.

        ``out`` must be the output of an op recorded on this tape, or
        ``ContractError`` is raised and no gradient changes: a leaf, or a
        result computed outside the block, has no path to any leaf here.
        """
        if grad is None:
            if out.size != 1:
                raise ContractError(
                    f"backward requires a scalar loss, got shape {out.shape}")
            grad = np.ones_like(out.data)
        elif np.shape(grad) != out.shape:
            raise DimensionError(
                f"cotangent shape {np.shape(grad)} != output shape "
                f"{out.shape}")
        adjoint = {id(out): grad}
        for y, inputs, backward_fn in reversed(self._nodes):
            g = adjoint.pop(id(y), None)
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
        if id(out) in adjoint:
            # never popped: no recorded node produced ``out``, so the sweep
            # matched no node and touched no gradient
            raise ContractError(
                "backward: out is not the output of an op recorded on this "
                "tape")


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
    def zeros(cls, shape, requires_grad=False):
        return cls(np.zeros(shape, DEFAULT_DTYPE), requires_grad=requires_grad)

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


def recording() -> bool:
    """Whether a ``use_tape`` block is open."""
    return _tape is not None


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=DEFAULT_DTYPE))


def _record(out: Tensor, inputs, backward_fn):
    """Mark ``out`` as an interior node and push the adjoint closure."""
    if _tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._leaf = False
        _tape._nodes.append((out, tuple(inputs), backward_fn))
    return out


# ----------------------------------------------------------------------
# matmul
# ----------------------------------------------------------------------
def matmul(x, w, b=None) -> Tensor:
    """Tokens [..., T, K] times a 2-D weight [K, P], plus an optional
    bias [P]: the affine map ``x @ w + b`` as one node.

    The weight and bias gradients sum ``g`` over the leading axes.  The
    adjoint computes an operand's gradient only when that operand
    requires grad.
    """
    x = _as_tensor(x)
    w = _as_tensor(w)
    if x.ndim < 2 or w.ndim != 2:
        raise DimensionError(
            "matmul takes rank >= 2 tokens and a 2-D weight, got "
            f"{x.shape} x {w.shape}")
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(
            f"matmul inner extents differ: {x.shape} x {w.shape}")
    y = np.matmul(x.data, w.data)
    inputs = (x, w)
    if b is not None:
        b = _as_tensor(b)
        if b.shape != w.shape[1:]:
            raise DimensionError(f"bias shape {b.shape} != ({w.shape[1]},)")
        y += b.data
        inputs = (x, w, b)
    out = Tensor(y)
    lead = tuple(range(x.ndim - 2))

    def back(g):
        dx = dw = None
        if x.requires_grad:
            dx = np.matmul(g, w.data.T)
        if w.requires_grad:
            dw = np.matmul(np.swapaxes(x.data, -1, -2), g)
            if lead:
                dw = dw.sum(axis=lead)
        if b is not None:
            return dx, dw, g.sum(axis=lead + (x.ndim - 2,))
        return dx, dw

    return _record(out, inputs, back)


# ----------------------------------------------------------------------
# nonlinearities
# ----------------------------------------------------------------------
def relu(x) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    return _record(Tensor(np.maximum(d, 0)), (x,), lambda g: (g * (d > 0),))


def _horner(x2: np.ndarray, coeffs) -> np.ndarray:
    """The polynomial in ``x2`` with ``coeffs``, highest power first, in
    one new buffer."""
    acc = x2 * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= x2
    acc += coeffs[-1]
    return acc


def _erf(x: np.ndarray) -> np.ndarray:
    """erf, elementwise.  float32 runs the rational kernel in place;
    float64, which only gradient checks reach, takes ``math.erf`` per
    element, since the kernel's 3.5e-7 would show in a float64 check."""
    if x.dtype != np.float32:
        return _erf64(x)
    t = np.clip(x.reshape(-1), -_ERF_CLAMP, _ERF_CLAMP)
    t2 = t * t
    p = _horner(t2, _ERF_P)
    p *= t
    p /= _horner(t2, _ERF_Q)
    return np.clip(p, -1.0, 1.0, out=p).reshape(x.shape)


def gelu(x) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    phi = _erf(d * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
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


def conv2d(x, weight, bias=None, stride=1, padding=0) -> Tensor:
    """2-d cross-correlation (no kernel flip).

    x: [N,C,H,W], or a list of [N,C_i,H,W] maps read as their join along
    channels; weight: [O,C,kh,kw]; optional bias [O].
    Output extent per axis: floor((n + 2*pad - k) / stride) + 1.

    The input gradient exists at stride 1 only: only the frozen encoder
    convolves with a stride, and it never records.  A strided conv2d
    that would record with an input map that requires grad raises
    ``ContractError``; the weight and bias gradients take every stride.
    The input gradient is a gather, not a scatter: the correlation of
    ``g`` with the kernel flipped along both spatial axes, ``W'
    im2col(g)`` at pad ``k - 1 - pad`` (a negative pad when ``pad >= k``,
    which crops) and the input's extent.  ``W'`` is the [C, O*kh*kw]
    flipped kernel; each map that requires grad takes one GEMM over its
    own rows, the others none.
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
    if stride > 1 and _tape is not None and any(t.requires_grad
                                                for t in blocks):
        raise ContractError(
            f"conv2d has no input gradient at stride {stride}")
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
            # columns of g at pad k-1-padding
            gcols = _im2col(g, kh, kw, 1,
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
def finite_diff_check(f, x: Tensor, w=None, eps=1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a Tensor and must be deterministic.  With a
    cotangent ``w`` of ``f(x)``'s shape the check compares the
    vector-Jacobian product ``J^T w`` with central differences of
    ``sum(f(x) * w)``; without one ``f(x)`` must be a scalar.  Error per
    coordinate is |a - n| / max(|a|, |n|, 1e-12).

    An output no recorded op produced (``f`` ignores ``x``, or computes
    outside the tape) has analytic gradient zero; the differences then
    give 0 for a constant ``f`` and 1 for one that escaped the tape.
    """
    if eps <= 0:
        raise ContractError("eps must be positive")
    probe = Tensor(x.data.astype(np.float64, copy=True), requires_grad=True)
    with use_tape(GradTape()) as tape:
        y = f(probe)
        if any(node[0] is y for node in tape._nodes):
            tape.backward(y, w)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(probe.data)

    def value():
        y = f(Tensor(probe.data))
        return y.item() if w is None else float(np.sum(y.data * w))

    flat = probe.data.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = value()
        flat[i] = orig - eps
        lo = value()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    a = analytic.reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(a - numeric) / denom))
