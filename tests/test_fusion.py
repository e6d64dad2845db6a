"""Cross-attention (one recorded op) and the fusion block."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from augseg.autodiff import (
    GradTape,
    Tensor,
    _record,
    finite_diff_check,
    matmul,
    gelu,
    use_tape,
)
from augseg.errors import ContractError
from augseg.fusion import (_NORM_EPS, FusionParams, _add_tokens, _norm_tokens,
                           cg_fuse, cross_attention)
from augseg.model import Network, NetworkConfig

from test_autodiff import (add, div, mul, reshape, softmax, sqrt, transpose,
                           tsum)

# (decoder map, encoder map) shapes at fusion levels 3, 2 and 1 of a
# default-network training batch of 2
LEVEL_SHAPES = [((2, 64, 4, 4), (2, 48, 4, 4)),
                ((2, 48, 8, 8), (2, 32, 8, 8)),
                ((2, 32, 16, 16), (2, 24, 16, 16))]


def rand_params(c_dec, c_enc, seed=0, **kw):
    return FusionParams.create(c_dec, c_enc, np.random.default_rng(seed), **kw)


def drawn_params(c_dec, c_enc, seed=0, head_count=4, dtype=np.float32):
    """A block whose every tensor is drawn at fan-in scale in ``dtype``, so
    that, unlike at the identity start, the output projection and the
    biases carry signal and gradient."""
    rng = np.random.default_rng(seed)
    params = FusionParams.create(c_dec, c_enc, rng, head_count=head_count)
    return replace(params, **{
        name: Tensor((rng.normal(size=t.shape) / np.sqrt(t.shape[0]))
                     .astype(dtype), requires_grad=True)
        for name, t in params.named_tensors().items()})


def batched_matmul(a, b):
    """Reference: ``a @ b`` over stacks of matrices of one batch shape, as
    one tape op; ``autodiff.matmul`` only multiplies by a 2-D weight."""
    return _record(Tensor(np.matmul(a.data, b.data)), (a, b), lambda g: (
        np.matmul(g, np.swapaxes(b.data, -1, -2)),
        np.matmul(np.swapaxes(a.data, -1, -2), g)))


def composed_attention(q, k, v, head_count):
    """Reference: the attention as a chain of primitive tape ops."""
    n, t_q, d = q.shape
    t_k = k.shape[1]
    d_k = d // head_count

    def split_heads(x, t):
        return transpose(reshape(x, (n, t, head_count, d_k)), (0, 2, 1, 3))

    logits = batched_matmul(split_heads(q, t_q),
                            transpose(split_heads(k, t_k), (0, 1, 3, 2)))
    attn = softmax(mul(logits, 1.0 / np.sqrt(d_k)), axis=-1)
    out = batched_matmul(attn, split_heads(v, t_k))
    return reshape(transpose(out, (0, 2, 1, 3)), (n, t_q, d))


def composed_norm_tokens(feat):
    """Reference: the map read as tokens and normalized by a chain of
    primitive tape ops."""
    n, c, h, w = feat.shape
    tokens = transpose(reshape(feat, (n, c, h * w)), (0, 2, 1))
    centered = add(tokens, mul(tsum(tokens, axis=-1, keepdims=True), -1.0 / c))
    var = mul(tsum(mul(centered, centered), axis=-1, keepdims=True), 1.0 / c)
    return div(centered, sqrt(add(var, _NORM_EPS)))


def composed_ff(proj, params):
    """Reference: the feed-forward block as the chain of primitive ops
    that the biased ``matmul`` replaced."""
    hidden = gelu(add(matmul(proj, params.ff_w1), params.ff_b1))
    return add(matmul(hidden, params.ff_w2), params.ff_b2)


def composed_add_tokens(feat, tokens):
    """Reference: the tokens laid out as a map by a transpose and a
    reshape, then added."""
    return add(feat, reshape(transpose(tokens, (0, 2, 1)), feat.shape))


def composed_cg_fuse(decoder_feat, aug_enc_feat, params):
    """Reference: ``cg_fuse`` with the composed norm and feed-forward
    block, and the residual added in token layout before the map is laid
    back out."""
    n, c_dec, h, w = decoder_feat.shape
    dec_n = composed_norm_tokens(decoder_feat)
    enc_n = composed_norm_tokens(aug_enc_feat)
    attn = cross_attention(matmul(dec_n, params.w_q),
                           matmul(enc_n, params.w_k),
                           matmul(enc_n, params.w_v), params.head_count)
    ff = composed_ff(matmul(attn, params.w_o), params)
    dec = transpose(reshape(decoder_feat, (n, c_dec, h * w)), (0, 2, 1))
    return reshape(transpose(add(dec, ff), (0, 2, 1)), (n, c_dec, h, w))


def composed_tail_cg_fuse(decoder_feat, aug_enc_feat, params):
    """Reference: ``cg_fuse`` up to the output projection, then its tail
    as the eight-node chain that the two fused ops replaced."""
    enc_n = _norm_tokens(aug_enc_feat)
    attn = cross_attention(matmul(_norm_tokens(decoder_feat), params.w_q),
                           matmul(enc_n, params.w_k), matmul(enc_n, params.w_v),
                           params.head_count)
    return composed_add_tokens(
        decoder_feat, composed_ff(matmul(attn, params.w_o), params))


def value_and_grads(fn, inputs, g):
    """Output of ``fn(*inputs)`` and its gradients at cotangent ``g``
    with respect to each input."""
    with use_tape(GradTape()) as tape:
        out = fn(*inputs)
        tape.backward(out, g)
    grads = [t.grad for t in inputs]
    for t in inputs:
        t.grad = None
    return out.numpy(), grads


def value_and_vjps(attention, q, k, v, g, head_count):
    """Output and (dQ, dK, dV) of ``attention(q, k, v)`` at cotangent
    ``g``."""
    leaves = [Tensor(x.copy(), requires_grad=True) for x in (q, k, v)]
    with use_tape(GradTape()) as tape:
        out = attention(*leaves, head_count)
        tape.backward(out, g)
    return [out.numpy()] + [t.grad for t in leaves]


class TestCrossAttention:
    def test_single_key_returns_value(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(1, 5, 4)).astype(np.float64))
        k = Tensor(rng.normal(size=(1, 1, 4)).astype(np.float64))
        v = Tensor(rng.normal(size=(1, 1, 4)).astype(np.float64))
        out = cross_attention(q, k, v, head_count=2).numpy()
        np.testing.assert_array_equal(out, np.repeat(v.numpy(), 5, axis=1))

    def test_identical_keys_give_value_mean(self):
        rng = np.random.default_rng(2)
        k_row = rng.normal(size=(1, 1, 6))
        k = Tensor(np.repeat(k_row, 4, axis=1))
        v = Tensor(rng.normal(size=(1, 4, 6)))
        q = Tensor(rng.normal(size=(1, 3, 6)))
        out = cross_attention(q, k, v, head_count=3).numpy()
        want = np.repeat(v.numpy().mean(axis=1, keepdims=True), 3, axis=1)
        np.testing.assert_allclose(out, want, atol=1e-6)

    def test_worked_scalar_example(self):
        # d_k = 1, logits (1, -1) -> weight e/(e + 1/e) = 0.88080
        q = Tensor(np.array([[[1.0]]]))
        k = Tensor(np.array([[[1.0], [-1.0]]]))
        v = Tensor(np.array([[[1.0], [0.0]]]))
        out = cross_attention(q, k, v, head_count=1).numpy()
        np.testing.assert_allclose(out, [[[0.88080]]], atol=1e-4)

    def test_matches_manual_computation(self):
        rng = np.random.default_rng(3)
        n, tq, tk, h, dk = 2, 5, 7, 2, 3
        d = h * dk
        q = rng.normal(size=(n, tq, d))
        k = rng.normal(size=(n, tk, d))
        v = rng.normal(size=(n, tk, d))
        got = cross_attention(Tensor(q), Tensor(k), Tensor(v), h).numpy()
        want = np.zeros((n, tq, d))
        for b in range(n):
            for head in range(h):
                sl = slice(head * dk, (head + 1) * dk)
                logits = q[b][:, sl] @ k[b][:, sl].T / np.sqrt(dk)
                e = np.exp(logits - logits.max(axis=1, keepdims=True))
                w = e / e.sum(axis=1, keepdims=True)
                want[b][:, sl] = w @ v[b][:, sl]
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_sharper_logits_reduce_entropy(self):
        # the 1/sqrt(d_k) scale is on the logits: doubling them must
        # concentrate the attention distribution
        rng = np.random.default_rng(4)
        q = rng.normal(size=(1, 6, 8))
        k = rng.normal(size=(1, 6, 8))

        def mean_entropy(scale):
            logits = (q * scale) @ k.transpose(0, 2, 1) / np.sqrt(8)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            p = e / e.sum(axis=-1, keepdims=True)
            return float(-(p * np.log(p + 1e-12)).sum(axis=-1).mean())

        assert mean_entropy(2.0) < mean_entropy(1.0)

    @pytest.mark.parametrize("n,t_q,t_k,heads,d_k", [
        (2, 5, 7, 1, 3),      # T_q != T_k, one head
        (1, 6, 4, 2, 2),      # two heads
        (2, 3, 9, 3, 2),      # three heads
        (2, 4, 1, 2, 3),      # a single key
        (1, 1, 5, 3, 1),      # a single query, d_k = 1
    ])
    def test_matches_composed_chain(self, n, t_q, t_k, heads, d_k):
        rng = np.random.default_rng(11)
        d = heads * d_k
        q = rng.normal(size=(n, t_q, d)) * 2
        k = rng.normal(size=(n, t_k, d)) * 2
        v = rng.normal(size=(n, t_k, d))
        g = rng.normal(size=(n, t_q, d))
        fused = value_and_vjps(cross_attention, q, k, v, g, heads)
        ref = value_and_vjps(composed_attention, q, k, v, g, heads)
        for name, a, b in zip(("out", "dQ", "dK", "dV"), fused, ref):
            assert a.shape == b.shape, name
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("shape", [(2, 64, 48), (2, 256, 32),
                                       (1, 256, 32)])
    @pytest.mark.parametrize("scale", [1.0, 4.0])
    def test_float32_within_1e_5_of_float64_composed_chain(self, shape, scale):
        # the op's float32 output and VJPs against the primitive chain run
        # in float64; (2, 256, 32) is the default network's level-1 block
        # in training and (1, 256, 32) in a batch-1 eval forward
        rng = np.random.default_rng(13)
        q, k, v = ((rng.normal(size=shape) * scale).astype(np.float32)
                   for _ in range(3))
        g = rng.normal(size=shape).astype(np.float32)
        fused = value_and_vjps(cross_attention, q, k, v, g, 4)
        ref = value_and_vjps(composed_attention,
                             *(x.astype(np.float64) for x in (q, k, v, g)), 4)
        for name, a, b in zip(("out", "dQ", "dK", "dV"), fused, ref):
            assert a.dtype == np.float32, name
            err = np.max(np.abs(a - b))
            assert err <= 1e-5 * np.max(np.abs(b)), (name, err)

    def test_peak_memory_is_about_one_score_block(self):
        # the op streams one sample's [h,T_q,T_k] slab at a time, in place,
        # so neither pass holds much more than the score block P itself
        rng = np.random.default_rng(14)
        n, t, d, heads = 2, 256, 32, 4
        q, k, v, g = (rng.normal(size=(n, t, d)).astype(np.float32)
                      for _ in range(4))
        p_bytes = n * heads * t * t * 4

        def peak_above_current(fn):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fn()
            return tracemalloc.get_traced_memory()[1] - before

        leaves = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        tracemalloc.start()
        try:
            forward = peak_above_current(
                lambda: cross_attention(*leaves, heads))
            with use_tape(GradTape()) as tape:
                out = cross_attention(*leaves, heads)
                backward = peak_above_current(lambda: tape.backward(out, g))
        finally:
            tracemalloc.stop()
        assert forward <= 1.5 * p_bytes, forward / p_bytes
        assert backward <= 1.5 * p_bytes, backward / p_bytes

    def test_records_one_tape_node(self):
        rng = np.random.default_rng(12)
        q, k, v = (Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
                   for _ in range(3))
        with use_tape(GradTape()) as tape:
            cross_attention(q, k, v, head_count=2)
            assert len(tape) == 1

    def test_head_count_must_divide_width(self):
        q = Tensor(np.zeros((1, 2, 6)))
        with pytest.raises(ContractError):
            cross_attention(q, q, q, head_count=4)

    def test_gradients(self):
        rng = np.random.default_rng(5)
        k = Tensor(rng.normal(size=(1, 4, 4)).astype(np.float64))
        v = Tensor(rng.normal(size=(1, 4, 4)).astype(np.float64))
        w = rng.normal(size=(1, 3, 4))
        err = finite_diff_check(lambda q: cross_attention(q, k, v, 2),
                                Tensor(rng.normal(size=(1, 3, 4))), w)
        assert err < 1e-6
        q = Tensor(rng.normal(size=(1, 3, 4)).astype(np.float64))
        err = finite_diff_check(lambda kk: cross_attention(q, kk, v, 2),
                                Tensor(rng.normal(size=(1, 4, 4))), w)
        assert err < 1e-6
        err = finite_diff_check(lambda vv: cross_attention(q, k, vv, 2),
                                Tensor(rng.normal(size=(1, 4, 4))), w)
        assert err < 1e-6


class TestTokenNorm:
    def test_float32_equals_composed_chain_bit_for_bit(self):
        rng = np.random.default_rng(20)
        for shape in [s for level in LEVEL_SHAPES for s in level]:
            x = rng.normal(size=shape).astype(np.float32) * 3 + 1
            got = _norm_tokens(Tensor(x)).numpy()
            want = composed_norm_tokens(Tensor(x)).numpy()
            assert got.dtype == np.float32
            assert got.shape == (shape[0], shape[2] * shape[3], shape[1])
            assert got.tobytes() == want.tobytes(), shape

    @pytest.mark.parametrize("shape", [(2, 64, 4, 4), (2, 32, 16, 16),
                                       (1, 3, 2, 5)])
    def test_float64_vjp_matches_composed_chain(self, shape):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=shape) * 3 + 1, requires_grad=True)
        g = rng.normal(size=(shape[0], shape[2] * shape[3], shape[1]))
        got, (dx,) = value_and_grads(_norm_tokens, [x], g)
        want, (dx_ref,) = value_and_grads(composed_norm_tokens, [x], g)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.max(np.abs(dx - dx_ref)) <= 1e-12 * np.max(np.abs(dx_ref))

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(22)
        w = rng.normal(size=(2, 6, 5))
        x = Tensor(rng.normal(size=(2, 5, 2, 3)))
        for norm in (_norm_tokens, composed_norm_tokens):
            err = finite_diff_check(norm, x, w)
            assert err < 1e-4, norm.__name__

    def test_tokens_have_zero_mean_unit_variance(self):
        rng = np.random.default_rng(23)
        out = _norm_tokens(Tensor(rng.normal(size=(2, 16, 3, 3)) * 5 + 2))
        np.testing.assert_allclose(out.numpy().mean(axis=-1), 0, atol=1e-12)
        np.testing.assert_allclose(out.numpy().var(axis=-1), 1, rtol=1e-5)

    def test_records_one_tape_node(self):
        x = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        with use_tape(GradTape()) as tape:
            _norm_tokens(x)
            assert len(tape) == 1


class TestAddTokens:
    @pytest.mark.parametrize("shape", [s for s, _ in LEVEL_SHAPES]
                             + [(1, 3, 2, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_composed_chain_bit_for_bit(self, shape, dtype):
        n, c, h, w = shape
        rng = np.random.default_rng(sum(shape))
        f0 = rng.normal(size=shape).astype(dtype)
        t0 = rng.normal(size=(n, h * w, c)).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        runs = []
        for op in (_add_tokens, composed_add_tokens):
            feat, tokens = (Tensor(x, requires_grad=True) for x in (f0, t0))
            out, grads = value_and_grads(op, [feat, tokens], g)
            runs.append([out.tobytes()] + [x.tobytes() for x in grads])
            assert out.dtype == dtype and grads[1].shape == t0.shape
        assert runs[0] == runs[1]

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(28)
        feat = Tensor(rng.normal(size=(2, 3, 2, 4)))
        tokens = Tensor(rng.normal(size=(2, 8, 3)))
        w = rng.normal(size=(2, 3, 2, 4))
        assert finite_diff_check(lambda t: _add_tokens(feat, t), tokens,
                                 w) < 1e-8
        assert finite_diff_check(lambda f: _add_tokens(f, tokens), feat,
                                 w) < 1e-8

    def test_records_one_tape_node(self):
        feat = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        with use_tape(GradTape()) as tape:
            _add_tokens(feat, Tensor(np.ones((1, 4, 2))))
            assert len(tape) == 1


class TestCgFuse:
    def test_float32_forward_equals_composed_chain_bit_for_bit(self):
        rng = np.random.default_rng(24)
        for level, (dec_shape, enc_shape) in enumerate(LEVEL_SHAPES):
            params = drawn_params(dec_shape[1], enc_shape[1], seed=level)
            dec = Tensor(rng.normal(size=dec_shape).astype(np.float32))
            enc = Tensor(rng.normal(size=enc_shape).astype(np.float32))
            got = cg_fuse(dec, enc, params).numpy()
            want = composed_cg_fuse(dec, enc, params).numpy()
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes(), dec_shape

    def test_float64_vjps_match_composed_chain(self):
        rng = np.random.default_rng(25)
        dec_shape, enc_shape = LEVEL_SHAPES[1]
        params = drawn_params(dec_shape[1], enc_shape[1], seed=26,
                              dtype=np.float64)
        dec = Tensor(rng.normal(size=dec_shape), requires_grad=True)
        enc = Tensor(rng.normal(size=enc_shape), requires_grad=True)
        inputs = [dec, enc] + list(params.named_tensors().values())
        g = rng.normal(size=dec_shape)
        fn = lambda d, e, *_: cg_fuse(d, e, params)
        ref = lambda d, e, *_: composed_cg_fuse(d, e, params)
        got, grads = value_and_grads(fn, inputs, g)
        want, grads_ref = value_and_grads(ref, inputs, g)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        names = ["decoder", "encoder"] + list(params.named_tensors())
        for name, a, b in zip(names, grads, grads_ref):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name

    @pytest.mark.parametrize("shapes", LEVEL_SHAPES)
    def test_float32_equals_composed_tail_bit_for_bit(self, shapes):
        """Forward and every gradient, against the tail as the chain of
        matmul, bias add, GELU, matmul, bias add, transpose, reshape and
        add that the biased matmuls and ``_add_tokens`` replaced."""
        dec_shape, enc_shape = shapes
        rng = np.random.default_rng(27 + dec_shape[1])
        params = drawn_params(dec_shape[1], enc_shape[1], seed=dec_shape[1])
        dec = Tensor(rng.normal(size=dec_shape).astype(np.float32),
                     requires_grad=True)
        enc = Tensor(rng.normal(size=enc_shape).astype(np.float32))
        inputs = [dec] + list(params.named_tensors().values())
        g = rng.normal(size=dec_shape).astype(np.float32)
        got, grads = value_and_grads(
            lambda d, *_: cg_fuse(d, enc, params), inputs, g)
        want, grads_ref = value_and_grads(
            lambda d, *_: composed_tail_cg_fuse(d, enc, params), inputs, g)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        names = ["decoder"] + list(params.named_tensors())
        for name, a, b in zip(names, grads, grads_ref):
            assert a.dtype == np.float32, name
            assert a.tobytes() == b.tobytes(), name

    def test_records_eleven_tape_nodes(self):
        # two norms, three projections, the attention, the output
        # projection, two biased matmuls, the GELU and the residual
        params = rand_params(4, 6, head_count=2)
        dec = Tensor(np.ones((1, 4, 2, 2), np.float32), requires_grad=True)
        enc = Tensor(np.ones((1, 6, 2, 2), np.float32), requires_grad=True)
        with use_tape(GradTape()) as tape:
            cg_fuse(dec, enc, params)
            assert len(tape) == 11

    def test_residual_identity_at_init(self):
        rng = np.random.default_rng(6)
        dec = Tensor(rng.normal(size=(1, 6, 4, 4)).astype(np.float32))
        enc = Tensor(rng.normal(size=(1, 8, 4, 4)).astype(np.float32))
        # w_o and the feed-forward biases start at zero
        params = rand_params(6, 8, seed=1, head_count=2)
        out = cg_fuse(dec, enc, params)
        np.testing.assert_array_equal(out.numpy(), dec.numpy())

    def test_output_shape_contract(self):
        rng = np.random.default_rng(7)
        for (n, cd, ce, h, w) in [(1, 4, 6, 2, 2), (2, 8, 8, 3, 5)]:
            dec = Tensor(rng.normal(size=(n, cd, h, w)).astype(np.float32))
            enc = Tensor(rng.normal(size=(n, ce, h, w)).astype(np.float32))
            params = drawn_params(cd, ce, seed=n, head_count=2)
            assert cg_fuse(dec, enc, params).shape == dec.shape

    def test_head_count_not_dividing_width_rejected_at_build(self):
        with pytest.raises(ContractError, match="head_count 5"):
            Network(NetworkConfig(head_count=5))

    def test_spatial_mismatch_rejected(self):
        dec = Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32))
        enc = Tensor(np.zeros((1, 4, 8, 8), dtype=np.float32))
        with pytest.raises(ContractError):
            cg_fuse(dec, enc, rand_params(4, 4))

    def test_kv_permutation_invariance(self):
        rng = np.random.default_rng(8)
        dec = Tensor(rng.normal(size=(1, 4, 3, 3)).astype(np.float64))
        enc = rng.normal(size=(1, 6, 3, 3))
        params = drawn_params(4, 6, seed=9, head_count=2)
        base = cg_fuse(dec, Tensor(enc), params).numpy()
        perm = rng.permutation(9)
        enc_perm = enc.reshape(1, 6, 9)[:, :, perm].reshape(1, 6, 3, 3)
        permuted = cg_fuse(dec, Tensor(enc_perm), params).numpy()
        assert np.max(np.abs(base - permuted)) < 1e-5

    def test_gradients_wrt_inputs_and_weights(self):
        rng = np.random.default_rng(10)
        params = drawn_params(4, 5, seed=11, head_count=2, dtype=np.float64)
        dec64 = Tensor(rng.normal(size=(1, 4, 2, 3)))
        enc64 = Tensor(rng.normal(size=(1, 5, 2, 3)))
        w = rng.normal(size=(1, 4, 2, 3))

        err = finite_diff_check(lambda d: cg_fuse(d, enc64, params), dec64, w)
        assert err < 1e-4
        err = finite_diff_check(lambda e: cg_fuse(dec64, e, params), enc64, w)
        assert err < 1e-4
        for name in params.named_tensors():
            original = getattr(params, name)

            def f(p, _name=name, _orig=original):
                setattr(params, _name, p)
                try:
                    return cg_fuse(dec64, enc64, params)
                finally:
                    setattr(params, _name, _orig)

            err = finite_diff_check(f, original, w)
            assert err < 1e-4, f"gradient mismatch for {name}: {err}"
