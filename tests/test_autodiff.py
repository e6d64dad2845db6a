"""Tensor core: arithmetic, convolution, softmax, and gradient checks."""

import numpy as np
import pytest

from augseg.autodiff import (
    GradTape,
    Tensor,
    bilinear_resize,
    concat,
    conv2d,
    conv_transpose2d,
    ew_binary,
    finite_diff_check,
    gelu,
    log,
    log_softmax,
    matmul,
    relu,
    reshape,
    softmax,
    transpose,
    unary,
    use_tape,
)
from augseg.errors import ContractError, DimensionError, NumericDomainError


def t64(data, requires_grad=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestElementwise:
    def test_mul_identity_mask(self):
        out = ew_binary("mul", t64([[1, 2], [3, 4]]), Tensor.ones((2, 2), np.float64))
        np.testing.assert_array_equal(out.numpy(), [[1, 2], [3, 4]])

    def test_add(self):
        out = ew_binary("add", t64([1, 2, 3]), t64([1, 2, 3]))
        np.testing.assert_array_equal(out.numpy(), [2, 4, 6])

    def test_mul_binary_mask(self):
        out = ew_binary("mul", t64([[1, 2], [3, 4]]), t64([[0, 1], [1, 0]]))
        np.testing.assert_array_equal(out.numpy(), [[0, 2], [3, 0]])

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(DimensionError):
            ew_binary("add", t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))

    def test_broadcast_then_reduce_adjoint_exact(self):
        # gradient of sum(A * b) wrt broadcast b is the per-axis sum of A
        rng = np.random.default_rng(7)
        a = t64(rng.normal(size=(4, 3, 5)))
        b = t64(rng.normal(size=(1, 3, 1)), requires_grad=True)
        with use_tape(GradTape()) as tape:
            tape.backward((a * b).sum())
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

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(0)
        b = t64(rng.normal(size=(4, 3)))
        err = finite_diff_check(lambda a: matmul(a, b).sum(),
                                t64(rng.normal(size=(2, 4))))
        assert err < 1e-6

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
        lhs = matmul(matmul(t64(a), t64(b)), t64(c)).numpy()
        rhs = matmul(t64(a), matmul(t64(b), t64(c))).numpy()
        assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)) < 1e-10


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
        w = t64(rng.normal(size=(1, 2, 5, 5)))
        err = finite_diff_check(
            lambda x: (conv2d(x, k, b, stride=1, padding=1) * w).sum(),
            t64(rng.normal(size=(1, 2, 5, 5))))
        assert err < 1e-6

    def test_kernel_and_bias_gradients(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(2, 1, 5, 5)))
        w = t64(rng.normal(size=(2, 2, 2, 2)))
        err = finite_diff_check(lambda k: (conv2d(x, k, stride=2) * w).sum(),
                                t64(rng.normal(size=(2, 1, 3, 3))))
        assert err < 1e-6
        kf = t64(rng.normal(size=(2, 1, 3, 3)))
        err = finite_diff_check(lambda b: (conv2d(x, kf, b, stride=2) * w).sum(),
                                t64(rng.normal(size=(2,))))
        assert err < 1e-6


class TestConvTranspose2d:
    def test_unit_kernel_identity(self):
        x = t64(np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3))
        out = conv_transpose2d(x, t64([[[[1.0]]]]), stride=1)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_kernel_stamping(self):
        out = conv_transpose2d(t64([[[[1.0]]]]), t64(np.ones((1, 1, 2, 2))),
                               stride=2)
        np.testing.assert_array_equal(out.numpy(), [[[[1, 1], [1, 1]]]])

    @pytest.mark.parametrize("h,w,k,s,p", [(5, 7, 3, 1, 0), (6, 6, 3, 2, 1),
                                           (8, 4, 2, 2, 0), (9, 9, 4, 3, 1)])
    def test_shape_contract_composition(self, h, w, k, s, p):
        rng = np.random.default_rng(h * 100 + w)
        x = t64(rng.normal(size=(1, 2, h, w)))
        kern = t64(rng.normal(size=(3, 2, k, k)))
        y = conv2d(x, kern, stride=s, padding=p)
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        assert y.shape == (1, 3, oh, ow)
        kern_t = t64(rng.normal(size=(3, 2, k, k)))
        z = conv_transpose2d(y, kern_t, stride=s, padding=p)
        assert z.shape == (1, 2, (oh - 1) * s - 2 * p + k, (ow - 1) * s - 2 * p + k)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        k = t64(rng.normal(size=(2, 3, 2, 2)))
        w = t64(rng.normal(size=(1, 3, 6, 6)))
        err = finite_diff_check(
            lambda x: (conv_transpose2d(x, k, stride=2) * w).sum(),
            t64(rng.normal(size=(1, 2, 3, 3))))
        assert err < 1e-6
        x = t64(rng.normal(size=(1, 2, 3, 3)))
        err = finite_diff_check(
            lambda kk: (conv_transpose2d(x, kk, stride=2) * w).sum(),
            t64(rng.normal(size=(2, 3, 2, 2))))
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
        w = t64(rng.normal(size=(4, 5)))
        err = finite_diff_check(lambda x: (softmax(x, -1) * w).sum(),
                                t64(rng.normal(size=(4, 5))))
        assert err < 1e-6

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(8)
        w = t64(rng.normal(size=(3, 4)))
        err = finite_diff_check(lambda x: (log_softmax(x, -1) * w).sum(),
                                t64(rng.normal(size=(3, 4))))
        assert err < 1e-6


class TestUnary:
    def test_relu(self):
        np.testing.assert_array_equal(relu(t64([-1, 0, 2])).numpy(), [0, 0, 2])

    def test_exp(self):
        np.testing.assert_allclose(unary("exp", t64([0.0])).numpy(), [1.0])

    def test_log_domain(self):
        with pytest.raises(NumericDomainError):
            log(t64([1.0, 0.0]))

    def test_gelu_gradient(self):
        rng = np.random.default_rng(9)
        w = t64(rng.normal(size=(12,)))
        err = finite_diff_check(lambda x: (gelu(x) * w).sum(),
                                t64(rng.normal(size=(12,))))
        assert err < 1e-5

    def test_gelu_values(self):
        # gelu(x) = x * Phi(x); spot values from the exact erf form
        out = gelu(t64([0.0, 1.0, -1.0])).numpy()
        np.testing.assert_allclose(out, [0.0, 0.8413447, -0.1586553], atol=1e-6)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64(np.arange(12).reshape(3, 4), requires_grad=True)
        with use_tape(GradTape()) as tape:
            tape.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_quadratic_gradient(self):
        x = t64([1.0, -2.0, 3.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            tape.backward((x * x).sum())
        np.testing.assert_allclose(x.grad, 2 * x.numpy())

    def test_composite_conv_relu_sum(self):
        rng = np.random.default_rng(10)
        k = t64(rng.normal(size=(2, 1, 3, 3)))
        err = finite_diff_check(
            lambda x: relu(conv2d(x, k, padding=1)).sum(),
            t64(rng.normal(size=(1, 1, 6, 6)) + 0.2))
        assert err < 1e-4

    def test_non_scalar_loss_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            y = x * x
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_accumulation_without_reset(self):
        x = t64([1.0, 2.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            loss = (x * x).sum()
            tape.backward(loss)
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 4 * x.numpy())

    def test_ops_outside_any_tape_record_nothing(self):
        x = t64([1.0], requires_grad=True)
        y = (x * x).sum()
        assert not y.requires_grad
        with use_tape(GradTape()) as tape:
            assert len(tape) == 0

    def test_mutation_while_recording_rejected(self):
        x = t64([1.0], requires_grad=True)
        unrecorded = t64([1.0], requires_grad=True)
        with use_tape(GradTape()) as tape:
            (x * x).sum()
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
            x * x
            with use_tape(inner):
                x * x
                x * x
                assert (len(outer), len(inner)) == (1, 2)
            assert len(inner) == 0
            x * x
            assert len(outer) == 2

    def test_uint8_never_tracks_gradient(self):
        with pytest.raises(ContractError):
            Tensor(np.zeros(3, dtype=np.uint8), requires_grad=True)


class TestShapeOps:
    def test_reshape_transpose_concat_gradients(self):
        rng = np.random.default_rng(11)
        w = t64(rng.normal(size=(2, 12)))

        def f(x):
            a = transpose(reshape(x, (2, 3, 4)), (0, 2, 1))
            b = concat([reshape(a, (2, 12)), reshape(a, (2, 12))], axis=1)
            return (b[:, :12] * w).sum()

        err = finite_diff_check(f, t64(rng.normal(size=(24,))))
        assert err < 1e-7

    def test_slice_gradient(self):
        rng = np.random.default_rng(12)
        w = t64(rng.normal(size=(2, 2)))
        err = finite_diff_check(lambda x: (x[1:3, ::2] * w).sum(),
                                t64(rng.normal(size=(4, 4))))
        assert err < 1e-7


class TestBilinearResize:
    def test_constant_preserved(self):
        x = Tensor.full((1, 2, 4, 4), 3.5, np.float64)
        out = bilinear_resize(x, (9, 7))
        np.testing.assert_allclose(out.numpy(), 3.5, atol=1e-12)

    def test_identity_when_same_size(self):
        rng = np.random.default_rng(13)
        x = t64(rng.normal(size=(1, 1, 5, 5)))
        np.testing.assert_allclose(bilinear_resize(x, (5, 5)).numpy(),
                                   x.numpy(), atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        w = t64(rng.normal(size=(1, 2, 7, 6)))
        err = finite_diff_check(lambda x: (bilinear_resize(x, (7, 6)) * w).sum(),
                                t64(rng.normal(size=(1, 2, 3, 4))))
        assert err < 1e-7


# ----------------------------------------------------------------------
# Reference kernels: the per-tap einsum transposed convolution and the
# gather/scatter bilinear resize that the BLAS kernels replaced.  Each
# returns (forward output, vjp(g) -> input gradients).
# ----------------------------------------------------------------------
def ref_conv_transpose2d(x, wt, stride, padding):
    n, c, h, w = x.shape
    _, o, kh, kw = wt.shape
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (w - 1) * stride - 2 * padding + kw
    full = np.zeros((n, o, (h - 1) * stride + kh, (w - 1) * stride + kw))
    for i in range(kh):
        for j in range(kw):
            full[:, :, i:i + stride * h:stride, j:j + stride * w:stride] += \
                np.einsum("nchw,co->nohw", x, wt[:, :, i, j])
    y = full[:, :, padding:padding + oh, padding:padding + ow]

    def vjp(g):
        gp = np.pad(g, ((0, 0), (0, 0), (padding,) * 2, (padding,) * 2))
        dx = np.zeros_like(x)
        dw = np.zeros_like(wt)
        for i in range(kh):
            for j in range(kw):
                gsub = gp[:, :, i:i + stride * h:stride,
                          j:j + stride * w:stride]
                dx += np.einsum("nohw,co->nchw", gsub, wt[:, :, i, j])
                dw[:, :, i, j] = np.einsum("nchw,nohw->co", x, gsub)
        return dx, dw

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
    """Output and input gradients of ``sum(fn(*inputs) * g)`` via the tape."""
    leaves = [Tensor(a, requires_grad=True) for a in inputs]
    with use_tape(GradTape()) as tape:
        y = fn(*leaves)
        tape.backward((y * Tensor(g)).sum())
    return y.numpy(), [t.grad for t in leaves]


# float32 rounding of sums over a few dozen terms of unit scale
F32_TOL = dict(rtol=1e-5, atol=1e-5)


class TestKernelsAgainstReference:
    @pytest.mark.parametrize("n,c,o,h,w,k,s,p", [
        (2, 3, 4, 5, 6, 3, 2, 1),      # overlapping windows
        (1, 2, 3, 4, 3, 2, 3, 0),      # stride > kernel (gaps)
        (2, 4, 2, 3, 3, 4, 2, 2),      # padding > 0, cropped output
        (1, 5, 6, 6, 6, 2, 2, 0),      # the decoder's up-sampling shape
        (1, 1, 1, 1, 1, 3, 1, 1),
    ])
    def test_conv_transpose2d(self, n, c, o, h, w, k, s, p):
        rng = np.random.default_rng(n * 1000 + c * 100 + k * 10 + s)
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        wt = rng.normal(size=(c, o, k, k)).astype(np.float32)
        want, vjp = ref_conv_transpose2d(x.astype(np.float64),
                                         wt.astype(np.float64), s, p)
        g = rng.normal(size=want.shape).astype(np.float32)
        got, grads = tape_vjp(
            lambda a, b: conv_transpose2d(a, b, stride=s, padding=p),
            [x, wt], g)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, **F32_TOL)
        for gg, ref in zip(grads, vjp(g.astype(np.float64))):
            np.testing.assert_allclose(gg, ref, **F32_TOL)

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

    def test_conv_transpose2d_padding_finite_differences(self):
        rng = np.random.default_rng(21)
        k = t64(rng.normal(size=(2, 3, 3, 3)))
        b = t64(rng.normal(size=(3,)))
        x = t64(rng.normal(size=(1, 2, 3, 4)))
        w = t64(rng.normal(size=(1, 3, 5, 7)))
        f = lambda xx, kk, bb: (conv_transpose2d(xx, kk, bb, stride=2,
                                                 padding=1) * w).sum()
        assert finite_diff_check(lambda xx: f(xx, k, b), x) < 1e-4
        assert finite_diff_check(lambda kk: f(x, kk, b), k) < 1e-4
        assert finite_diff_check(lambda bb: f(x, k, bb), b) < 1e-4

    def test_bilinear_downsampling_finite_differences(self):
        rng = np.random.default_rng(22)
        w = t64(rng.normal(size=(1, 2, 3, 4)))
        err = finite_diff_check(lambda x: (bilinear_resize(x, (3, 4)) * w).sum(),
                                t64(rng.normal(size=(1, 2, 8, 9))))
        assert err < 1e-4


class TestFiniteDiffCheck:
    def test_sum_is_exact(self):
        assert finite_diff_check(lambda x: x.sum(), t64(np.ones((3, 3)))) < 1e-9

    def test_quadratic(self):
        rng = np.random.default_rng(15)
        assert finite_diff_check(lambda x: (x * x).sum(),
                                 t64(rng.normal(size=(8,)))) < 1e-7

    def test_softmax_composite(self):
        rng = np.random.default_rng(16)
        w = t64(rng.normal(size=(6,)))
        err = finite_diff_check(lambda x: (softmax(x, 0) * w).sum(),
                                t64(rng.normal(size=(6,))))
        assert err < 1e-5

    def test_eps_must_be_positive(self):
        with pytest.raises(ContractError):
            finite_diff_check(lambda x: x.sum(), t64([1.0]), eps=0.0)


class TestRandomizedGradientSweep:
    """Every differentiable op on randomized shapes up to 2x4x8x8."""

    @pytest.mark.parametrize("seed", range(3))
    def test_composite_pipeline(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, c = rng.integers(1, 3), rng.integers(1, 5)
        h = int(rng.integers(4, 9) // 2 * 2)
        w = int(rng.integers(4, 9) // 2 * 2)
        k = t64(rng.normal(size=(3, c, 3, 3)) * 0.5)
        wt = t64(rng.normal(size=(n, 3, h, w)))

        def f(x):
            y = conv2d(x, k, padding=1)
            y = gelu(y)
            y = bilinear_resize(y, (h, w))
            return (softmax(y, 1) * wt).sum()

        err = finite_diff_check(f, t64(rng.normal(size=(n, c, h, w))))
        assert err < 1e-4
