"""Tensor core: arithmetic, convolution, reference ops, and gradient checks."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erf

from augseg import autodiff
from augseg.autodiff import (
    GradTape,
    Tensor,
    bilinear_resize,
    conv2d,
    conv_transpose2d,
    finite_diff_check,
    _erf,
    _im2col,
    _interp_matrix,
    _record,
    _tap_slices,
    gelu,
    matmul,
    relu,
    softmax_vjp,
    use_tape,
)
from augseg.errors import ContractError, DimensionError


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


# ----------------------------------------------------------------------
# Reference primitives: the add, multiply, sum, reshape, transpose,
# division, square root, (log-)softmax, concat and slicing ops that the
# composed token-norm, loss, attention, fusion and Haar chains were built
# from.  The fused ops and the shared Haar butterfly replaced those
# chains, so these live here, where the tests rebuild the chains as
# references.  add, mul and div broadcast numpy-style (shapes right-aligned,
# each axis pair equal or 1); add and mul take a number for ``b`` as a
# constant of ``a``'s dtype.
# ----------------------------------------------------------------------
def _check_broadcastable(a_shape, b_shape):
    for na, nb in zip(a_shape[::-1], b_shape[::-1]):
        if na != nb and na != 1 and nb != 1:
            raise DimensionError(
                f"shapes {a_shape} and {b_shape} are not broadcast-compatible "
                "(axes must match or be 1)")


def _unbroadcast(g, shape):
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


def _operands(a, b):
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    _check_broadcastable(a.shape, b.shape)
    return a, b


def add(a, b):
    a, b = _operands(a, b)
    return _record(Tensor(a.data + b.data), (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a, b):
    a, b = _operands(a, b)
    return _record(Tensor(a.data * b.data), (a, b), lambda g: (
        _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def tsum(x, axis=None, keepdims=False):
    def back(g):
        if axis is None:
            return (np.broadcast_to(g.reshape((1,) * x.ndim), x.shape),)
        axes = axis if isinstance(axis, tuple) else (axis,)
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, x.shape),)

    return _record(Tensor(np.sum(x.data, axis=axis, keepdims=keepdims)),
                   (x,), back)


def reshape(x, shape):
    return _record(Tensor(x.data.reshape(shape)), (x,),
                   lambda g: (g.reshape(x.shape),))


def transpose(x, axes):
    inv = tuple(np.argsort(axes))
    return _record(Tensor(x.data.transpose(axes)), (x,),
                   lambda g: (g.transpose(inv),))


def div(a, b):
    out = Tensor(a.data / b.data)
    return _record(out, (a, b), lambda g: (
        _unbroadcast(g / b.data, a.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def sqrt(x):
    r = np.sqrt(x.data)
    return _record(Tensor(r), (x,), lambda g: (g * (0.5 / r),))


def log_softmax(x, axis=-1):
    z = x.data - np.max(x.data, axis=axis, keepdims=True)
    y = z - np.log(np.sum(np.exp(z), axis=axis, keepdims=True))
    return _record(Tensor(y), (x,), lambda g: (
        g - np.exp(y) * np.sum(g, axis=axis, keepdims=True),))


def softmax(x, axis=-1):
    """Max-subtracted stable softmax; slices along ``axis`` sum to 1."""
    z = np.exp(x.data - np.max(x.data, axis=axis, keepdims=True))
    y = z / np.sum(z, axis=axis, keepdims=True)
    return _record(Tensor(y), (x,), lambda g: (
        softmax_vjp(y, g.astype(y.dtype), axis),))


def concat(tensors, axis=0):
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return _record(out, tuple(tensors),
                   lambda g: tuple(np.split(g, splits, axis=axis)))


def getitem(x, key):
    """Basic (slice / integer) indexing, e.g. ``getitem(x, np.s_[1:3, ::2])``."""
    def back(g):
        dx = np.zeros_like(x.data)
        dx[key] += g
        return (dx,)

    return _record(Tensor(x.data[key]), (x,), back)


class TestElementwise:
    def test_mul_identity_mask(self):
        out = mul(t64([[1, 2], [3, 4]]), t64(np.ones((2, 2))))
        np.testing.assert_array_equal(out.numpy(), [[1, 2], [3, 4]])

    def test_add(self):
        out = add(t64([1, 2, 3]), t64([1, 2, 3]))
        np.testing.assert_array_equal(out.numpy(), [2, 4, 6])

    def test_mul_binary_mask(self):
        out = mul(t64([[1, 2], [3, 4]]), t64([[0, 1], [1, 0]]))
        np.testing.assert_array_equal(out.numpy(), [[0, 2], [3, 0]])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(DimensionError):
            add(t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))

    def test_broadcast_then_reduce_adjoint_exact(self):
        # gradient of sum(A * b) wrt broadcast b is the per-axis sum of A
        rng = np.random.default_rng(7)
        a = t64(rng.normal(size=(4, 3, 5)))
        b = t64(rng.normal(size=(1, 3, 1)), requires_grad=True)
        with use_tape(GradTape()) as tape:
            tape.backward(tsum(mul(a, b)))
        expected = a.numpy().sum(axis=(0, 2), keepdims=True)
        np.testing.assert_array_equal(b.grad, expected)


class TestMatmul:
    def test_identity(self):
        out = matmul(t64(np.eye(2)), t64([[1, 2], [3, 4]]))
        np.testing.assert_array_equal(out.numpy(), [[1, 2], [3, 4]])

    def test_direct(self):
        out = matmul(t64([[1, 2], [3, 4]]), t64([[1], [1]]))
        np.testing.assert_array_equal(out.numpy(), [[3], [7]])

    def test_inner_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    @pytest.mark.parametrize("x_shape,w_shape", [
        ((2, 4, 3), (2, 3, 5)), ((2, 4, 3), (1, 3, 5)), ((4, 3), (3,)),
        ((3,), (3, 5))])
    def test_weight_is_2d_and_tokens_rank_2_or_more(self, x_shape, w_shape):
        with pytest.raises(DimensionError, match="2-D weight"):
            matmul(t64(np.zeros(x_shape)), t64(np.zeros(w_shape)))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        b = t64(rng.normal(size=(4, 3)))
        err = finite_diff_check(lambda a: tsum(matmul(a, b)),
                                t64(rng.normal(size=(2, 4))))
        assert err < 1e-6

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        lhs = matmul(matmul(t64(a), t64(b)), t64(c)).numpy()
        rhs = matmul(t64(a), matmul(t64(b), t64(c))).numpy()
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-10


# (tokens, weight) of cg_fuse's feed-forward maps at the default network's
# fusion levels 1 and 3 in a training batch of 2
FF_SHAPES = [((2, 256, 24), (24, 96)), ((2, 256, 96), (96, 24)),
             ((2, 16, 48), (48, 192)), ((2, 16, 192), (192, 48))]


class TestMatmulBias:
    """``matmul(x, w, b)`` is the affine map ``x @ w + b`` as one node."""

    @pytest.mark.parametrize("a_shape,b_shape", FF_SHAPES)
    def test_equals_matmul_then_add_bit_for_bit(self, a_shape, b_shape):
        rng = np.random.default_rng(sum(a_shape) + sum(b_shape))
        a0, b0 = (rng.normal(size=sh).astype(np.float32)
                  for sh in (a_shape, b_shape))
        c0 = rng.normal(size=b_shape[1:]).astype(np.float32)
        g = rng.normal(size=a_shape[:2] + b_shape[1:]).astype(np.float32)
        runs = []
        for fused in (True, False):
            a, b, c = (Tensor(v, requires_grad=True) for v in (a0, b0, c0))
            with use_tape(GradTape()) as tape:
                y = matmul(a, b, c) if fused else add(matmul(a, b), c)
                assert len(tape) == (1 if fused else 2)
                tape.backward(y, g)
            runs.append([y.numpy().tobytes()]
                        + [t.grad.tobytes() for t in (a, b, c)])
        assert runs[0] == runs[1]

    def test_finite_differences(self):
        rng = np.random.default_rng(19)
        a, b, c = (t64(rng.normal(size=sh)) for sh in ((2, 3, 4), (4, 5), (5,)))
        w = rng.normal(size=(2, 3, 5))
        assert finite_diff_check(lambda t: matmul(t, b, c), a, w) < 1e-6
        assert finite_diff_check(lambda t: matmul(a, t, c), b, w) < 1e-6
        assert finite_diff_check(lambda t: matmul(a, b, t), c, w) < 1e-6

    @pytest.mark.parametrize("bias_shape", [(4,), (1,), (1, 5), (3, 5), ()])
    def test_wrong_bias_shape_rejected(self, bias_shape):
        with pytest.raises(DimensionError, match="bias shape"):
            matmul(t64(np.zeros((3, 4))), t64(np.zeros((4, 5))),
                   t64(np.zeros(bias_shape)))


class TestFrozenMatmulOperand:
    """The adjoint skips the gradient of an operand that needs none."""

    @pytest.mark.parametrize("frozen", ["a", "b"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frozen_operand_gets_none_other_keeps_its_bits(self, frozen,
                                                           dtype):
        # [2, 256, 24] tokens against a [24, 32] weight: cg_fuse's frozen
        # encoder tokens times w_k at level 1
        rng = np.random.default_rng(40)
        a = rng.normal(size=(2, 256, 24)).astype(dtype)
        b = rng.normal(size=(24, 32)).astype(dtype)
        g = rng.normal(size=(2, 256, 32)).astype(dtype)
        at = Tensor(a, requires_grad=frozen != "a")
        bt = Tensor(b, requires_grad=frozen != "b")
        with use_tape(GradTape()) as tape:
            matmul(at, bt)
            (_, _, back), = tape._nodes
            da, db = back(g)
        want_da = np.matmul(g, b.swapaxes(-1, -2))
        want_db = np.matmul(a.swapaxes(-1, -2), g).sum(axis=0)
        if frozen == "a":
            assert da is None
            assert db.tobytes() == want_db.tobytes()
        else:
            assert db is None
            assert da.tobytes() == want_da.tobytes()


# (fused, skip, kernel) at the default network's ccu levels 3, 2 and 1 in
# a training batch of 2
CCU_SHAPES = [((2, 64, 4, 4), (2, 48, 4, 4), (48, 112, 3, 3)),
              ((2, 48, 8, 8), (2, 32, 8, 8), (32, 80, 3, 3)),
              ((2, 32, 16, 16), (2, 24, 16, 16), (24, 56, 3, 3))]


class TestConvChannelBlocks:
    """conv2d over a list of maps equals conv2d over their concat."""

    @staticmethod
    def run(x, w, b, g):
        with use_tape(GradTape()) as tape:
            y = conv2d(x, w, b, stride=1, padding=1)
            tape.backward(y, g)
        return y.numpy()

    @pytest.mark.parametrize("skip_grad", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shapes", CCU_SHAPES)
    def test_equals_concat_bit_for_bit(self, shapes, dtype, skip_grad):
        fused_shape, skip_shape, w_shape = shapes
        rng = np.random.default_rng(41)
        f, s = (rng.normal(size=sh).astype(dtype)
                for sh in (fused_shape, skip_shape))
        w0 = rng.normal(size=w_shape).astype(dtype)
        b0 = rng.normal(size=w_shape[:1]).astype(dtype)
        g = rng.normal(size=(2, w_shape[0]) + fused_shape[2:]).astype(dtype)

        def leaves():
            return (Tensor(f, requires_grad=True),
                    Tensor(s, requires_grad=skip_grad),
                    Tensor(w0, requires_grad=True),
                    Tensor(b0, requires_grad=True))

        fb, sb, wb, bb = leaves()
        got = self.run([fb, sb], wb, bb, g)
        fc, sc, wc, bc = leaves()
        with use_tape(GradTape()) as tape:
            y = conv2d(concat([fc, sc], axis=1), wc, bc, stride=1, padding=1)
            tape.backward(y, g)
        want = y.numpy()
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        for name, a, b in (("dW", wb, wc), ("db", bb, bc), ("dfused", fb, fc),
                           ("dskip", sb, sc)):
            if a.grad is None:
                assert name == "dskip" and not skip_grad and b.grad is None
                continue
            assert a.grad.tobytes() == b.grad.tobytes(), name

    @pytest.mark.parametrize("skip_grad", [False, True])
    def test_frozen_block_gets_no_input_gradient_gemm(self, monkeypatch,
                                                      skip_grad):
        """The input gradient's columns are gathered once, and only the
        blocks that require grad take a GEMM against them."""
        fused_shape, skip_shape, w_shape = CCU_SHAPES[2]
        o, _, kh, kw = w_shape
        rng = np.random.default_rng(42)
        fused = Tensor(rng.normal(size=fused_shape), requires_grad=True)
        skip = Tensor(rng.normal(size=skip_shape), requires_grad=skip_grad)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        gathered, gemm_rows = [], []
        im2col = autodiff._im2col

        def spy_im2col(x, *args):
            gathered.append(args)
            return im2col(x, *args)

        class SpyNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def matmul(a, b):
                if a.ndim == 2 and a.shape[1] == o * kh * kw:
                    gemm_rows.append(a.shape[0])     # a block of W'
                return np.matmul(a, b)

        monkeypatch.setattr(autodiff, "_im2col", spy_im2col)
        monkeypatch.setattr(autodiff, "np", SpyNumpy())
        g = rng.normal(size=(2, o) + fused_shape[2:])
        self.run([fused, skip], w, None, g)
        h, wd = fused_shape[2:]
        assert gathered[1:] == [(kh, kw, 1, (kh - 2, kw - 2), h, wd)]
        assert gemm_rows == [fused_shape[1]] + [skip_shape[1]] * skip_grad
        assert (skip.grad is None) != skip_grad
        assert fused.grad.shape == fused_shape

    def test_no_gather_without_an_input_that_requires_grad(self, monkeypatch):
        rng = np.random.default_rng(43)
        x = Tensor(rng.normal(size=(1, 3, 8, 8)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        calls = []
        im2col = autodiff._im2col
        monkeypatch.setattr(autodiff, "_im2col",
                            lambda *a: calls.append(a[1:]) or im2col(*a))
        with use_tape(GradTape()) as tape:
            tape.backward(tsum(conv2d(x, w, stride=2, padding=1)))
        assert len(calls) == 1                # the forward's columns only
        assert x.grad is None and w.grad.shape == w.shape

    def test_blocks_must_share_batch_and_extent(self):
        w = t64(np.zeros((1, 3, 1, 1)))
        with pytest.raises(DimensionError):
            conv2d([t64(np.zeros((1, 1, 4, 4))), t64(np.zeros((1, 2, 4, 5)))],
                   w)
        with pytest.raises(DimensionError):
            conv2d([t64(np.zeros((1, 1, 4, 4))), t64(np.zeros((2, 2, 4, 4)))],
                   w)
        with pytest.raises(DimensionError, match="kernel channels 3 != "
                           "input channels 4"):
            conv2d([t64(np.zeros((1, 2, 4, 4))), t64(np.zeros((1, 2, 4, 4)))],
                   w)


def assert_strided_input_gradient_refused(x, w, stride, padding):
    """conv2d at ``stride`` > 1 over ``x``, some map of which requires
    grad, raises ``ContractError`` in a tape block and records nothing."""
    with use_tape(GradTape()) as tape:
        with pytest.raises(ContractError,
                           match=f"no input gradient at stride {stride}"):
            conv2d(x, w, stride=stride, padding=padding)
        assert len(tape) == 0


class TestConv2d:
    def test_1x1_identity(self):
        x = t64(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
        out = conv2d(x, t64([[[[1.0]]]]))
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_sum_kernel(self):
        x = t64([[[[1, 2], [3, 4]]]])
        out = conv2d(x, t64(np.ones((1, 1, 2, 2))))
        np.testing.assert_array_equal(out.numpy(), [[[[10]]]])

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            conv2d(t64(np.zeros((1, 1, 2, 2))), t64(np.zeros((1, 1, 5, 5))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(2)
        k = t64(rng.normal(size=(2, 2, 3, 3)))
        b = t64(rng.normal(size=(2,)))
        w = rng.normal(size=(1, 2, 5, 5))
        err = finite_diff_check(
            lambda x: conv2d(x, k, b, stride=1, padding=1),
            t64(rng.normal(size=(1, 2, 5, 5))), w)
        assert err < 1e-6

    @pytest.mark.parametrize("h,w,k,s,p", [(4, 5, 3, 1, 3), (5, 4, 3, 2, 4),
                                           (7, 8, 2, 3, 0), (5, 5, 1, 2, 0)])
    def test_input_gradient_at_edge_geometries(self, h, w, k, s, p):
        """Padding at or past the kernel (the gather's pad k-1-p goes
        negative), gaps between windows, odd extents, 1x1 kernels.  At a
        stride the input gradient is refused and the kernel's is checked
        instead."""
        rng = np.random.default_rng(h * 1000 + w * 100 + k * 10 + s + p)
        kern = t64(rng.normal(size=(3, 2, k, k)))
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
        wt = rng.normal(size=(1, 3, oh, ow))
        x = t64(rng.normal(size=(1, 2, h, w)))
        if s == 1:
            err = finite_diff_check(
                lambda xx: conv2d(xx, kern, stride=s, padding=p), x, wt)
        else:
            assert_strided_input_gradient_refused(
                t64(x.data, requires_grad=True), kern, s, p)
            err = finite_diff_check(
                lambda kk: conv2d(x, kk, stride=s, padding=p), kern, wt)
        assert err < 1e-6

    @pytest.mark.parametrize("stride", [2, 3])
    def test_strided_input_gradient_is_refused(self, stride):
        """A strided conv2d with an input that requires grad raises inside
        a tape block before it records; it runs outside one, and records
        its kernel's gradient when the input is frozen."""
        rng = np.random.default_rng(stride)
        x = t64(rng.normal(size=(1, 2, 7, 7)), requires_grad=True)
        k = t64(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        assert_strided_input_gradient_refused(x, k, stride, 1)
        assert_strided_input_gradient_refused(
            [x, t64(rng.normal(size=(1, 1, 7, 7)))],
            t64(np.zeros((3, 3, 3, 3))), stride, 1)
        assert conv2d(x, k, stride=stride, padding=1).shape[2] == \
            6 // stride + 1
        x.requires_grad = False
        with use_tape(GradTape()) as tape:
            y = conv2d(x, k, stride=stride, padding=1)
            tape.backward(tsum(y))
            assert len(tape) == 2
        assert x.grad is None and k.grad.shape == k.shape

    def test_kernel_and_bias_gradients(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(2, 1, 5, 5)))
        w = rng.normal(size=(2, 2, 2, 2))
        err = finite_diff_check(lambda k: conv2d(x, k, stride=2),
                                t64(rng.normal(size=(2, 1, 3, 3))), w)
        assert err < 1e-6
        kf = t64(rng.normal(size=(2, 1, 3, 3)))
        err = finite_diff_check(lambda b: conv2d(x, kf, b, stride=2),
                                t64(rng.normal(size=(2,))), w)
        assert err < 1e-6


class TestConvTranspose2d:
    def test_unit_kernel_identity(self):
        x = t64(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
        out = conv_transpose2d(x, t64([[[[1.0]]]]))
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_kernel_stamping(self):
        out = conv_transpose2d(t64([[[[1.0]]]]), t64(np.ones((1, 1, 2, 2))))
        np.testing.assert_array_equal(out.numpy(), [[[[1, 1], [1, 1]]]])

    @pytest.mark.parametrize("h,w,k", [(5, 7, 3), (6, 6, 2), (8, 4, 1),
                                       (9, 9, 4)])
    def test_shape_contract_composition(self, h, w, k):
        """conv2d at stride = kernel reads whole windows; the transposed
        conv stamps each pixel back as one window."""
        rng = np.random.default_rng(h * 100 + w)
        x = t64(rng.normal(size=(1, 2, h, w)))
        kern = t64(rng.normal(size=(3, 2, k, k)))
        y = conv2d(x, kern, stride=k)
        oh, ow = h // k, w // k
        assert y.shape == (1, 3, oh, ow)
        kern_t = t64(rng.normal(size=(3, 2, k, k)))
        z = conv_transpose2d(y, kern_t)
        assert z.shape == (1, 2, oh * k, ow * k)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        k = t64(rng.normal(size=(2, 3, 2, 2)))
        w = rng.normal(size=(1, 3, 6, 6))
        err = finite_diff_check(lambda x: conv_transpose2d(x, k),
                                t64(rng.normal(size=(1, 2, 3, 3))), w)
        assert err < 1e-6
        x = t64(rng.normal(size=(1, 2, 3, 3)))
        err = finite_diff_check(lambda kk: conv_transpose2d(x, kk),
                                t64(rng.normal(size=(2, 3, 2, 2))), w)
        assert err < 1e-6


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax(t64([0, 0]), 0).numpy(), [0.5, 0.5])

    def test_scalar_evaluation(self):
        # e^1 / (e^1 + e^-1) = 0.88080...
        out = softmax(t64([1, -1]), 0).numpy()
        np.testing.assert_allclose(out, [0.88080, 0.11920], atol=1e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        a = softmax(t64(x), -1).numpy()
        b = softmax(t64(x + 123.456), -1).numpy()
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.normal(size=(4, 9)) * rng.uniform(0.1, 30)
            y = softmax(t64(x), -1).numpy()
            assert np.all(y >= 0)
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 5))
        err = finite_diff_check(lambda x: softmax(x, -1),
                                t64(rng.normal(size=(4, 5))), w)
        assert err < 1e-6

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 4))
        err = finite_diff_check(lambda x: log_softmax(x, -1),
                                t64(rng.normal(size=(3, 4))), w)
        assert err < 1e-6


class TestUnary:
    def test_relu(self):
        np.testing.assert_array_equal(relu(t64([-1, 0, 2])).numpy(), [0, 0, 2])

    def test_gelu_gradient(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(12,))
        err = finite_diff_check(gelu, t64(rng.normal(size=(12,))), w)
        assert err < 1e-5

    def test_gelu_values(self):
        # gelu(x) = x * Phi(x); spot values from the exact erf form
        out = gelu(t64([0.0, 1.0, -1.0])).numpy()
        np.testing.assert_allclose(out, [0.0, 0.8413447, -0.1586553], atol=1e-6)


class TestErfKernel:
    """GELU's ``_erf``: a float32 rational kernel, ``math.erf`` in float64."""

    GRID = np.linspace(-8.0, 8.0, 1_600_001, dtype=np.float32)

    def test_float32_within_4e7_of_double_erf(self):
        got = _erf(self.GRID)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - erf(self.GRID.astype(np.float64)))) <= 4e-7

    def test_float32_random_inputs_within_4e7(self):
        x = (np.random.default_rng(0).standard_normal(200_000) * 3
             ).astype(np.float32)
        assert np.max(np.abs(_erf(x) - erf(x.astype(np.float64)))) <= 4e-7

    def test_odd_bit_for_bit_and_bounded_by_one(self):
        assert _erf(-self.GRID).tobytes() == (-_erf(self.GRID)).tobytes()
        assert np.max(np.abs(_erf(self.GRID))) <= 1.0

    def test_special_values(self):
        tiny = np.finfo(np.float32).smallest_subnormal
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan], np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _erf(x)
        assert got[:2].tobytes() == x[:2].tobytes()    # signed zeros kept
        np.testing.assert_array_equal(got[2:4], [1.0, -1.0])
        assert np.isnan(got[4])
        sub = np.array([tiny, 7 * tiny, 1e-40, 1.1e-38], np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.concatenate([_erf(sub), _erf(-sub)])
        want = erf(np.concatenate([sub, -sub]).astype(np.float64))
        assert np.all(np.sign(got) == np.sign(want))
        assert np.max(np.abs(got - want)) <= tiny

    @pytest.mark.parametrize("shape", [(), (2, 256, 128), (2, 64, 192),
                                       (2, 16, 256)])
    def test_keeps_shape_and_reads_only(self, shape):
        x = np.random.default_rng(1).normal(size=shape).astype(np.float32)
        before = x.copy()
        assert _erf(x).shape == shape
        np.testing.assert_array_equal(x, before)

    def test_float64_is_math_erf(self):
        x = np.random.default_rng(2).normal(size=(3, 7)) * 3
        got = _erf(x)
        assert got.dtype == np.float64
        assert got.tolist() == [[math.erf(v) for v in row]
                                for row in x.tolist()]


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64(np.arange(12).reshape(3, 4), requires_grad=True)
        with use_tape(GradTape()) as tape:
            tape.backward(tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self):
        x = t64([1.0, -2.0, 3.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            tape.backward(tsum(mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.numpy())

    def test_composite_conv_relu_sum(self):
        rng = np.random.default_rng(10)
        k = t64(rng.normal(size=(2, 1, 3, 3)))
        err = finite_diff_check(
            lambda x: tsum(relu(conv2d(x, k, padding=1))),
            t64(rng.normal(size=(1, 1, 6, 6)) + 0.2))
        assert err < 1e-4

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            y = mul(x, x)
            with pytest.raises(ContractError, match="scalar loss"):
                tape.backward(y)
        assert x.grad is None

    def test_cotangent_seeds_the_vjp(self):
        x = t64([1.0, -2.0, 3.0], requires_grad=True)
        g = np.array([0.5, 2.0, -1.0])
        with use_tape(GradTape()) as tape:
            tape.backward(mul(x, x), g)
        np.testing.assert_array_equal(x.grad, 2 * x.numpy() * g)
        np.testing.assert_array_equal(g, [0.5, 2.0, -1.0])   # only read

    def test_output_computed_outside_the_block_rejected(self):
        x = t64([1.0, -2.0, 3.0], requires_grad=True)
        y = gelu(x)
        with use_tape(GradTape()) as tape:
            tsum(mul(x, x))
            with pytest.raises(ContractError, match="not the output"):
                tape.backward(y, np.ones(3))
        assert x.grad is None

    def test_bare_leaf_rejected(self):
        x = t64([1.0, -2.0, 3.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            tsum(mul(x, x))
            with pytest.raises(ContractError, match="not the output"):
                tape.backward(x, np.ones(3))
        assert x.grad is None

    @pytest.mark.parametrize("shape", [(2,), (3, 1), ()])
    def test_cotangent_of_another_shape_rejected(self, shape):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            y = mul(x, x)
            with pytest.raises(DimensionError, match="cotangent shape"):
                tape.backward(y, np.ones(shape))
        assert x.grad is None

    def test_cotangent_equals_product_and_sum_bit_for_bit(self):
        """Seeding with ``w`` gives the bits of ``sum(out * w)``'s backward,
        in float32 with a float64 ``w`` too."""
        rng = np.random.default_rng(17)
        for dtype in (np.float32, np.float64):
            x0 = rng.normal(size=(2, 3, 5, 5)).astype(dtype)
            k0 = rng.normal(size=(4, 3, 3, 3)).astype(dtype)
            w = rng.normal(size=(2, 4, 5, 5))
            grads = []
            for seeded in (True, False):
                x, k = (Tensor(v, requires_grad=True) for v in (x0, k0))
                with use_tape(GradTape()) as tape:
                    y = gelu(conv2d(x, k, padding=1))
                    if seeded:
                        tape.backward(y, w)
                    else:
                        tape.backward(tsum(mul(y, Tensor(w))))
                grads.append((x.grad.tobytes(), k.grad.tobytes()))
            assert grads[0] == grads[1]

    def test_accumulation_without_reset(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            loss = tsum(mul(x, x))
            tape.backward(loss)
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 4 * x.numpy())

    def test_ops_outside_any_tape_record_nothing(self):
        x = t64([1.0], requires_grad=True)
        y = tsum(mul(x, x))
        assert not y.requires_grad
        with use_tape(GradTape()) as tape:
            assert len(tape) == 0

    def test_mutation_while_recording_rejected(self):
        x = t64([1.0], requires_grad=True)
        unrecorded = t64([1.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            tsum(mul(x, x))
            assert len(tape) == 2
            for t in (x, unrecorded):
                with pytest.raises(ContractError):
                    t.assign([2.0])
        assert len(tape) == 0
        x.assign([2.0])  # fine once the block has exited
        np.testing.assert_array_equal(x.numpy(), [2.0])

    def test_nested_tape_restores_outer(self):
        x = t64([1.0], requires_grad=True)
        outer, inner = GradTape(), GradTape()
        with use_tape(outer):
            mul(x, x)
            with use_tape(inner):
                mul(x, x)
                mul(x, x)
                assert (len(outer), len(inner)) == (1, 2)
            assert len(inner) == 0
            mul(x, x)
            assert len(outer) == 2

    def test_uint8_never_tracks_gradient(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros(3, dtype=np.uint8), requires_grad=True)


class TestShapeOps:
    def test_reshape_transpose_concat_gradients(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(2, 12))

        def f(x):
            a = transpose(reshape(x, (2, 3, 4)), (0, 2, 1))
            b = concat([reshape(a, (2, 12)), reshape(a, (2, 12))], axis=1)
            return getitem(b, np.s_[:, :12])

        err = finite_diff_check(f, t64(rng.normal(size=(24,))), w)
        assert err < 1e-7

    def test_slice_gradient(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(2, 2))
        err = finite_diff_check(lambda x: getitem(x, np.s_[1:3, ::2]),
                                t64(rng.normal(size=(4, 4))), w)
        assert err < 1e-7


class TestBilinearResize:
    def test_constant_preserved(self):
        x = t64(np.full((1, 2, 4, 4), 3.5))
        out = bilinear_resize(x, (9, 7))
        np.testing.assert_allclose(out.numpy(), 3.5, atol=1e-12)

    def test_identity_when_same_size(self):
        rng = np.random.default_rng(13)
        x = t64(rng.normal(size=(1, 1, 5, 5)))
        np.testing.assert_allclose(bilinear_resize(x, (5, 5)).numpy(),
                                   x.numpy(), atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(1, 2, 7, 6))
        err = finite_diff_check(lambda x: bilinear_resize(x, (7, 6)),
                                t64(rng.normal(size=(1, 2, 3, 4))), w)
        assert err < 1e-7


# ----------------------------------------------------------------------
# Reference kernels: the per-tap einsum transposed convolution and the
# gather/scatter bilinear resize that the BLAS kernels replaced.  Each
# returns (forward output, vjp(g) -> input gradients).
# ----------------------------------------------------------------------
def ref_conv_transpose2d(x, wt):
    """At stride = kernel, tap (i, j) alone writes output rows i::kh and
    columns j::kw."""
    n, c, h, w = x.shape
    _, o, kh, kw = wt.shape
    y = np.zeros((n, o, h * kh, w * kw))
    for i in range(kh):
        for j in range(kw):
            y[:, :, i::kh, j::kw] = np.einsum("nchw,co->nohw", x,
                                              wt[:, :, i, j])

    def vjp(g):
        dx = np.zeros_like(x)
        dw = np.zeros_like(wt)
        for i in range(kh):
            for j in range(kw):
                gsub = g[:, :, i::kh, j::kw]
                dx += np.einsum("nohw,co->nchw", gsub, wt[:, :, i, j])
                dw[:, :, i, j] = np.einsum("nchw,nohw->co", x, gsub)
        return dx, dw

    return y, vjp


def ref_conv2d(x, wt, stride, padding):
    n, c, h, w = x.shape
    o, _, kh, kw = wt.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    pads = ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2)
    xp = np.pad(x, pads)

    def window(i, j):
        return np.s_[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]

    y = sum(np.einsum("nchw,oc->nohw", xp[window(i, j)], wt[:, :, i, j])
            for i in range(kh) for j in range(kw))

    def vjp(g):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(wt)
        for i in range(kh):
            for j in range(kw):
                dxp[window(i, j)] += np.einsum("nohw,oc->nchw", g,
                                               wt[:, :, i, j])
                dw[:, :, i, j] = np.einsum("nchw,nohw->oc",
                                           xp[window(i, j)], g)
        return dxp[:, :, padding:padding + h, padding:padding + w], dw

    return y, vjp


def ref_bilinear_resize(x, out_hw):
    h, w = x.shape[2:]
    oh, ow = out_hw

    def coords(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0.0, n_in - 1.0)
        lo = np.floor(src).astype(np.int64)
        return lo, np.minimum(lo + 1, n_in - 1), src - lo

    r0, r1, tr = coords(h, oh)
    c0, c1, tc = coords(w, ow)
    taps = [(r0, c0, np.outer(1 - tr, 1 - tc)), (r0, c1, np.outer(1 - tr, tc)),
            (r1, c0, np.outer(tr, 1 - tc)), (r1, c1, np.outer(tr, tc))]
    y = sum(x[:, :, r[:, None], cc[None, :]] * wt for r, cc, wt in taps)

    def vjp(g):
        dx = np.zeros_like(x)
        for r, cc, wt in taps:
            np.add.at(dx, (slice(None), slice(None), r[:, None], cc[None, :]),
                      g * wt)
        return (dx,)

    return y, vjp


def tape_vjp(fn, inputs, g):
    """Output and input gradients of ``fn(*inputs)`` at cotangent ``g``
    via the tape."""
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    with use_tape(GradTape()) as tape:
        y = fn(*leaves)
        tape.backward(y, g)
    return y.numpy(), [t.grad for t in leaves]


# The decoder's conv2d shapes (ccu levels 3, 2, 1, then the head's 3x3
# and 1x1) and its conv_transpose2d shapes (ccu levels 3, 2, 1) in a
# default-network training step at batch 2: (x, weight, padding); every
# conv here has stride 1 and the transposed ones stride 2, their kernel.
DECODER_CONV2D = [((2, 112, 4, 4), (48, 112, 3, 3), 1),
                  ((2, 80, 8, 8), (32, 80, 3, 3), 1),
                  ((2, 56, 16, 16), (24, 56, 3, 3), 1),
                  ((2, 24, 32, 32), (24, 24, 3, 3), 1),
                  ((2, 24, 32, 32), (3, 24, 1, 1), 0)]
DECODER_CONV_T = [((2, 48, 4, 4), (48, 48, 2, 2)),
                  ((2, 32, 8, 8), (32, 32, 2, 2)),
                  ((2, 24, 16, 16), (24, 24, 2, 2))]
# float32 rounding of sums over a few dozen terms of unit scale
F32_TOL = dict(rtol=1e-5, atol=1e-5)


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("n,c,o,h,w,kh,kw", [
        (2, 3, 4, 5, 6, 1, 1),
        (1, 5, 6, 6, 6, 2, 2),         # the decoder's up-sampling shape
        (2, 4, 2, 3, 3, 3, 3),
        (1, 2, 3, 4, 3, 3, 2),         # rectangular kernel
        (1, 1, 1, 1, 1, 3, 3),
    ])
    def test_conv_transpose2d(self, n, c, o, h, w, kh, kw):
        rng = np.random.default_rng(n * 1000 + c * 100 + kh * 10 + kw)
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        wt = rng.normal(size=(c, o, kh, kw)).astype(np.float32)
        want, vjp = ref_conv_transpose2d(x.astype(np.float64),
                                         wt.astype(np.float64))
        g = rng.normal(size=want.shape).astype(np.float32)
        got, grads = tape_vjp(conv_transpose2d, [x, wt], g)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, **F32_TOL)
        for gg, ref in zip(grads, vjp(g.astype(np.float64))):
            np.testing.assert_allclose(gg, ref, **F32_TOL)

    @pytest.mark.parametrize("x_shape,w_shape,s,p,frozen", [
        ((2, 3, 5, 6), (4, 3, 3, 3), 1, 1, 0),
        ((2, 2, 6, 6), (3, 2, 3, 3), 1, 0, 0),     # no padding
        ((2, 3, 8, 7), (4, 3, 3, 3), 2, 1, 0),     # (n + 2p - k) % s != 0
        ((1, 2, 7, 8), (3, 2, 2, 2), 3, 0, 0),     # stride > kernel (gaps)
        ((1, 2, 4, 5), (2, 2, 3, 3), 1, 3, 0),     # padding == kernel
        ((1, 2, 5, 4), (2, 2, 3, 3), 2, 4, 0),     # padding > kernel
        ((1, 1, 16, 16), (4, 1, 7, 7), 4, 3, 0),   # the encoder's stem
        ((1, 4, 8, 8), (6, 4, 3, 3), 2, 1, 0),     # an encoder stage
        ((1, 2, 6, 7), (3, 2, 3, 2), 2, 1, 0),     # rectangular kernel
        ((2, 3, 5, 5), (2, 3, 1, 1), 1, 0, 0),     # 1x1
        ((1, 3, 5, 4), (2, 3, 1, 1), 2, 0, 0),     # 1x1, stride 2
        ((1, 1, 1, 1), (1, 1, 3, 3), 1, 1, 0),     # 1x1 input
        ((2, 5, 6, 6), (3, 5, 3, 3), 2, 1, 2),     # two blocks, skip frozen
    ] + [(x, w, 1, p, 0) for x, w, p in DECODER_CONV2D]
      + [((f[0], f[1] + sk[1]) + f[2:], w, 1, 1, sk[1])
         for f, sk, w in CCU_SHAPES])
    def test_conv2d(self, x_shape, w_shape, s, p, frozen):
        """Output, input and weight gradients against the padded einsum
        reference; with ``frozen`` > 0 the last ``frozen`` channels are a
        second, frozen block, which gets no gradient.  At a stride the
        input gradient is refused, so the input is frozen there.  The
        kernel is drawn at fan-in scale and ``g`` at one over the root of
        its size, so that the output and both gradients are sums of unit
        scale."""
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape) + 10 * s + p)
        x = rng.normal(size=x_shape).astype(np.float32)
        wt = (rng.normal(size=w_shape)
              / math.sqrt(np.prod(w_shape[1:]))).astype(np.float32)
        want, vjp = ref_conv2d(x.astype(np.float64), wt.astype(np.float64),
                               s, p)
        g = (rng.normal(size=want.shape)
             / math.sqrt(want.size / want.shape[1])).astype(np.float32)
        c = x_shape[1] - frozen
        live = Tensor(x[:, :c], requires_grad=True)
        skip = Tensor(x[:, c:])
        w = Tensor(wt, requires_grad=True)
        blocks = [live, skip] if frozen else live
        if s > 1:
            assert_strided_input_gradient_refused(blocks, w, s, p)
            live.requires_grad = False
        with use_tape(GradTape()) as tape:
            y = conv2d(blocks, w, stride=s, padding=p)
            tape.backward(y, g)
        dx, dw = vjp(g.astype(np.float64))
        assert y.dtype == np.float32 and skip.grad is None
        np.testing.assert_allclose(y.numpy(), want, **F32_TOL)
        if s == 1:
            np.testing.assert_allclose(live.grad, dx[:, :c], **F32_TOL)
        else:
            assert live.grad is None
        np.testing.assert_allclose(w.grad, dw, **F32_TOL)

    @pytest.mark.parametrize("shape,out_hw", [
        ((2, 3, 4, 5), (9, 13)),       # up-sampling
        ((1, 2, 16, 16), (64, 64)),    # the seg head's 4x up-sampling
        ((2, 2, 9, 12), (4, 5)),       # down-sampling
        ((1, 1, 7, 3), (3, 8)),        # down along one axis, up the other
        ((1, 2, 1, 1), (3, 2)),
    ])
    def test_bilinear_resize(self, shape, out_hw):
        rng = np.random.default_rng(sum(shape) + sum(out_hw))
        x = rng.normal(size=shape).astype(np.float32)
        want, vjp = ref_bilinear_resize(x.astype(np.float64), out_hw)
        g = rng.normal(size=want.shape).astype(np.float32)
        got, (dx,) = tape_vjp(lambda a: bilinear_resize(a, out_hw), [x], g)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, **F32_TOL)
        np.testing.assert_allclose(dx, vjp(g.astype(np.float64))[0], **F32_TOL)

    @pytest.mark.parametrize("kh,kw", [(1, 1), (2, 2), (3, 3), (3, 2)])
    def test_conv_transpose2d_finite_differences(self, kh, kw):
        rng = np.random.default_rng(21 + 10 * kh + kw)
        k = t64(rng.normal(size=(2, 3, kh, kw)))
        b = t64(rng.normal(size=(3,)))
        x = t64(rng.normal(size=(1, 2, 3, 4)))
        w = rng.normal(size=(1, 3, 3 * kh, 4 * kw))
        assert finite_diff_check(lambda xx: conv_transpose2d(xx, k, b),
                                 x, w) < 1e-4
        assert finite_diff_check(lambda kk: conv_transpose2d(x, kk, b),
                                 k, w) < 1e-4
        assert finite_diff_check(lambda bb: conv_transpose2d(x, k, bb),
                                 b, w) < 1e-4

    def test_bilinear_downsampling_finite_differences(self):
        rng = np.random.default_rng(22)
        w = rng.normal(size=(1, 2, 3, 4))
        err = finite_diff_check(lambda x: bilinear_resize(x, (3, 4)),
                                t64(rng.normal(size=(1, 2, 8, 9))), w)
        assert err < 1e-4


DW_TOL = [(np.float32, 1e-5), (np.float64, 1e-12)]


class TestConvWeightGradient:
    """The per-sample matmul weight gradients against the one
    ``tensordot`` over batch and pixels that they replaced, relative to
    the largest reference entry."""

    @pytest.mark.parametrize("dtype,tol", DW_TOL)
    @pytest.mark.parametrize("x_shape,w_shape,pad", DECODER_CONV2D)
    def test_conv2d(self, x_shape, w_shape, pad, dtype, tol):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        n, _, h, wd = x_shape
        o, _, k, _ = w_shape
        g = rng.normal(size=(n, o, h, wd)).astype(dtype)
        _, (_, dw) = tape_vjp(lambda a, b: conv2d(a, b, padding=pad), [x, w], g)
        cols = _im2col(x, k, k, 1, pad, h, wd)
        want = np.tensordot(g.reshape(n, o, h * wd), cols,
                            axes=([0, 2], [0, 2])).reshape(w_shape)
        assert dw.dtype == dtype
        assert np.max(np.abs(dw - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("dtype,tol", DW_TOL)
    @pytest.mark.parametrize("x_shape,w_shape", DECODER_CONV_T)
    def test_conv_transpose2d(self, x_shape, w_shape, dtype, tol):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
        x = rng.normal(size=x_shape).astype(dtype)
        w = rng.normal(size=w_shape).astype(dtype)
        n, c, h, wd = x_shape
        _, o, k, _ = w_shape
        g = rng.normal(size=(n, o, k * h, k * wd)).astype(dtype)
        _, (_, dw) = tape_vjp(conv_transpose2d, [x, w], g)
        gcols = _im2col(g, k, k, k, 0, h, wd)
        want = np.tensordot(x.reshape(n, c, h * wd), gcols,
                            axes=([0, 2], [0, 2])).reshape(w_shape)
        assert dw.dtype == dtype
        assert np.max(np.abs(dw - want)) <= tol * np.max(np.abs(want))


# ----------------------------------------------------------------------
# Reference im2col/col2im: the padded-copy kernels that the pad-free tap
# copies replaced.  ``_im2col`` must agree with its reference bit for bit,
# and the transposed conv with the col2im path it replaced.
# ----------------------------------------------------------------------
def ref_im2col(x, kh, kw, stride, pad, oh, ow):
    xp = np.pad(x, ((0, 0), (0, 0), (pad,) * 2, (pad,) * 2))
    n, c = xp.shape[:2]
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]          # [N,C,oh,ow,kh,kw]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    return np.ascontiguousarray(cols)


def ref_col2im(cols, x_shape, kh, kw, stride, pad, oh, ow):
    n, c, h, w = x_shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += \
                cols[:, :, i, j]
    return xp[:, :, pad:pad + h, pad:pad + w]


# odd and even extents, square and not; includes the encoder's 64x64 stem
# input and a 16x16 stage map
IM2COL_EXTENTS = [(5, 8), (9, 4), (1, 3), (16, 16), (64, 64)]


class TestPadFreeIm2col:
    """``_im2col`` against the padded-copy reference, bit for bit, over
    kernel 1-7, stride 1-4 and padding 0-3 (pad >= k included), which
    covers the encoder's 7x7/s4/p3 and 3x3/s2/p1."""

    @pytest.mark.parametrize("pad", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_matches_padded_reference(self, k, stride, pad):
        rng = np.random.default_rng(k * 100 + stride * 10 + pad)
        checked = 0
        for h, w in IM2COL_EXTENTS:
            if k > h + 2 * pad or k > w + 2 * pad:
                continue
            oh = (h + 2 * pad - k) // stride + 1
            ow = (w + 2 * pad - k) // stride + 1
            for dtype in (np.float32, np.float64):
                x = rng.normal(size=(2, 3, h, w)).astype(dtype)
                got = _im2col(x, k, k, stride, pad, oh, ow)
                want = ref_im2col(x, k, k, stride, pad, oh, ow)
                assert got.dtype == dtype and got.flags.c_contiguous
                np.testing.assert_array_equal(got, want)
                checked += 1
        assert checked > 0

    def test_rectangular_kernel(self):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(1, 2, 6, 7)).astype(np.float32)
        np.testing.assert_array_equal(_im2col(x, 3, 2, 2, 1, 3, 4),
                                      ref_im2col(x, 3, 2, 2, 1, 3, 4))


    @pytest.mark.parametrize("k,crop", [(1, 1), (3, 1), (2, 2), (3, 3)])
    def test_negative_pad_crops(self, k, crop):
        """The input gradient's pad k-1-p is negative when p >= k: the
        columns are then those of the input cropped by -pad per side."""
        x = np.random.default_rng(31).normal(size=(2, 3, 9, 10))
        inner = x[:, :, crop:-crop, crop:-crop]
        oh, ow = inner.shape[2] - k + 1, inner.shape[3] - k + 1
        np.testing.assert_array_equal(
            _im2col(x, k, k, 1, (-crop, -crop), oh, ow),
            ref_im2col(inner, k, k, 1, 0, oh, ow))

    def test_tap_slices_are_memoised_tuples(self):
        taps = _tap_slices(3, 2, 1, 4, 8)
        assert taps is _tap_slices(3, 2, 1, 4, 8)
        assert isinstance(taps, tuple) and all(
            isinstance(t, tuple) for t in taps)


class TestConvTransposeMatchesCol2im:
    """On the decoder's up-conv shapes the depth-to-space transposed conv
    gives the bits of the col2im path it replaced: the output is
    ``col2im(W2^T x) + b`` and the input gradient ``W2 im2col(g)`` at
    stride = kernel, with W2 the [C, O*k*k] kernel matrix."""

    @pytest.mark.parametrize("zero_bias", [False, True])
    @pytest.mark.parametrize("x_shape,w_shape", DECODER_CONV_T)
    def test_bit_for_bit(self, x_shape, w_shape, zero_bias):
        rng = np.random.default_rng(sum(x_shape) + sum(w_shape))
        x = rng.normal(size=x_shape).astype(np.float32)
        w = rng.normal(size=w_shape).astype(np.float32)
        b = np.zeros(w_shape[1], np.float32) if zero_bias else \
            rng.normal(size=w_shape[1]).astype(np.float32)
        n, c, h, wd = x_shape
        _, o, k, _ = w_shape
        g = rng.normal(size=(n, o, k * h, k * wd)).astype(np.float32)
        got, (dx, _, _) = tape_vjp(conv_transpose2d, [x, w, b], g)
        w2 = w.reshape(c, o * k * k)
        want = ref_col2im(np.matmul(w2.T, x.reshape(n, c, h * wd)),
                          (n, o, k * h, k * wd), k, k, k, 0, h, wd)
        want += b[None, :, None, None]
        want_dx = np.matmul(w2, ref_im2col(g, k, k, k, 0, h, wd))
        assert got.dtype == dx.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(dx, want_dx.reshape(x_shape))


class TestNegativePaddingRejected:
    def test_conv2d(self):
        x = t64(np.ones((1, 2, 4, 4)))
        for k in (1, 3):
            with pytest.raises(ContractError, match="padding"):
                conv2d(x, t64(np.ones((3, 2, k, k))), padding=-1)


class TestInterpMatrixCache:
    def test_cached_matrix_is_read_only(self):
        m = _interp_matrix(4, 9, np.dtype(np.float32))
        assert m is _interp_matrix(4, 9, np.dtype(np.float32))
        with pytest.raises(ValueError):
            m[0, 0] = 2.0

    def test_resize_output_does_not_share_the_cache(self):
        x = t64(np.arange(20.0).reshape(1, 1, 4, 5))
        for out_hw in ((4, 5), (8, 3)):
            y = bilinear_resize(x, out_hw).numpy()
            for n_in, n_out in ((4, out_hw[0]), (5, out_hw[1])):
                assert not np.shares_memory(
                    y, _interp_matrix(n_in, n_out, x.dtype))
            y += 1.0
        np.testing.assert_array_equal(bilinear_resize(x, (4, 5)).numpy(),
                                      x.numpy())


class TestFiniteDiffCheck:
    def test_sum_is_exact(self):
        assert finite_diff_check(tsum, t64(np.ones((3, 3)))) < 1e-9

    def test_quadratic(self):
        rng = np.random.default_rng(15)
        assert finite_diff_check(lambda x: tsum(mul(x, x)),
                                 t64(rng.normal(size=(8,)))) < 1e-7

    def test_softmax_composite(self):
        rng = np.random.default_rng(16)
        w = rng.normal(size=(6,))
        err = finite_diff_check(lambda x: softmax(x, 0),
                                t64(rng.normal(size=(6,))), w)
        assert err < 1e-5

    def test_cotangent_equals_product_and_sum_bit_for_bit(self):
        """With ``w`` the check makes the numpy calls of the scalar
        ``sum(f(x) * w)`` check, so both return the same float."""
        rng = np.random.default_rng(18)
        w = rng.normal(size=(2, 7))
        x = t64(rng.normal(size=(2, 7)))
        for f in (lambda t: softmax(t, -1), gelu):
            assert finite_diff_check(f, x, w) == finite_diff_check(
                lambda t: tsum(mul(f(t), t64(w))), x)

    def test_non_scalar_output_needs_a_cotangent(self):
        with pytest.raises(ContractError, match="scalar loss"):
            finite_diff_check(gelu, t64([1.0, 2.0]))
        with pytest.raises(DimensionError, match="cotangent shape"):
            finite_diff_check(gelu, t64([1.0, 2.0]), np.ones(3))

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            finite_diff_check(tsum, t64([1.0]), eps=0.0)

    def test_output_no_op_recorded_has_zero_analytic_gradient(self):
        """A constant ``f`` checks clean; one that escapes the tape is
        caught by the differences, not by ``backward``."""
        x = t64([1.0, -2.0])
        assert finite_diff_check(lambda t: tsum(t64([1.0, 2.0])), x) == 0.0
        assert finite_diff_check(
            lambda t: Tensor(np.sum(t.numpy() ** 2)), x) == 1.0


class TestRandomizedGradientSweep:
    """Every differentiable op on randomized shapes up to 2x4x8x8."""

    @pytest.mark.parametrize("seed", range(3))
    def test_composite_pipeline(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, c = rng.integers(1, 3), rng.integers(1, 5)
        h = int(rng.integers(4, 9) // 2 * 2)
        w = int(rng.integers(4, 9) // 2 * 2)
        k = t64(rng.normal(size=(3, c, 3, 3)) * 0.5)
        wt = rng.normal(size=(n, 3, h, w))

        def f(x):
            y = conv2d(x, k, padding=1)
            y = gelu(y)
            y = bilinear_resize(y, (h, w))
            return softmax(y, 1)

        err = finite_diff_check(f, t64(rng.normal(size=(n, c, h, w))), wt)
        assert err < 1e-4
