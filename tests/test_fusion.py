"""Cross-attention (one recorded op) and the fusion block."""

import numpy as np
import pytest

from augseg.autodiff import (
    GradTape,
    Tensor,
    finite_diff_check,
    matmul,
    reshape,
    softmax,
    transpose,
    use_tape,
)
from augseg.errors import ContractError
from augseg.fusion import FusionParams, cg_fuse, cross_attention
from augseg.model import Network, NetworkConfig


def rand_params(c_dec, c_enc, seed=0, **kw):
    return FusionParams.create(c_dec, c_enc, np.random.default_rng(seed), **kw)


def composed_attention(q, k, v, head_count):
    """Reference: the attention as a chain of primitive tape ops."""
    n, t_q, d = q.shape
    t_k = k.shape[1]
    d_k = d // head_count

    def split_heads(x, t):
        return transpose(reshape(x, (n, t, head_count, d_k)), (0, 2, 1, 3))

    logits = matmul(split_heads(q, t_q),
                    transpose(split_heads(k, t_k), (0, 1, 3, 2)))
    attn = softmax(logits * (1.0 / np.sqrt(d_k)), axis=-1)
    out = matmul(attn, split_heads(v, t_k))
    return reshape(transpose(out, (0, 2, 1, 3)), (n, t_q, d))


def value_and_vjps(attention, q, k, v, g, head_count):
    """Output and (dQ, dK, dV) of ``sum(attention(q, k, v) * g)``."""
    leaves = [Tensor(x.copy(), requires_grad=True) for x in (q, k, v)]
    with use_tape(GradTape()) as tape:
        out = attention(*leaves, head_count)
        tape.backward((out * Tensor(g)).sum())
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

    def test_float32_equals_composed_chain_bit_for_bit(self):
        # same numpy calls on the same layouts, so seeded training and
        # eval outputs do not depend on which form runs
        rng = np.random.default_rng(13)
        q, k, v, g = (rng.normal(size=(2, 64, 48)).astype(np.float32)
                      for _ in range(4))
        fused = value_and_vjps(cross_attention, q, k, v, g, 4)
        ref = value_and_vjps(composed_attention, q, k, v, g, 4)
        for a, b in zip(fused, ref):
            assert a.dtype == np.float32
            assert a.tobytes() == b.tobytes()

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
        w = Tensor(rng.normal(size=(1, 3, 4)).astype(np.float64))
        err = finite_diff_check(
            lambda q: (cross_attention(q, k, v, 2) * w).sum(),
            Tensor(rng.normal(size=(1, 3, 4))))
        assert err < 1e-6
        q = Tensor(rng.normal(size=(1, 3, 4)).astype(np.float64))
        err = finite_diff_check(
            lambda kk: (cross_attention(q, kk, v, 2) * w).sum(),
            Tensor(rng.normal(size=(1, 4, 4))))
        assert err < 1e-6
        err = finite_diff_check(
            lambda vv: (cross_attention(q, k, vv, 2) * w).sum(),
            Tensor(rng.normal(size=(1, 4, 4))))
        assert err < 1e-6


class TestCgFuse:
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
            params = rand_params(cd, ce, seed=n, head_count=2,
                                 zero_out_proj=False)
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
        params = rand_params(4, 6, seed=9, head_count=2, zero_out_proj=False)
        base = cg_fuse(dec, Tensor(enc), params).numpy()
        perm = rng.permutation(9)
        enc_perm = enc.reshape(1, 6, 9)[:, :, perm].reshape(1, 6, 3, 3)
        permuted = cg_fuse(dec, Tensor(enc_perm), params).numpy()
        assert np.max(np.abs(base - permuted)) < 1e-5

    def test_gradients_wrt_inputs_and_weights(self):
        rng = np.random.default_rng(10)
        params = FusionParams.create(4, 5, np.random.default_rng(11),
                                     head_count=2, zero_out_proj=False,
                                     dtype=np.float64)
        dec64 = Tensor(rng.normal(size=(1, 4, 2, 3)).astype(np.float64))
        enc64 = Tensor(rng.normal(size=(1, 5, 2, 3)).astype(np.float64))
        w = Tensor(rng.normal(size=(1, 4, 2, 3)).astype(np.float64))

        err = finite_diff_check(
            lambda d: (cg_fuse(d, enc64, params) * w).sum(), dec64)
        assert err < 1e-4
        err = finite_diff_check(
            lambda e: (cg_fuse(dec64, e, params) * w).sum(), enc64)
        assert err < 1e-4
        for name in params.named_tensors():
            original = getattr(params, name)

            def f(p, _name=name, _orig=original):
                setattr(params, _name, p)
                try:
                    return (cg_fuse(dec64, enc64, params) * w).sum()
                finally:
                    setattr(params, _name, _orig)

            err = finite_diff_check(f, original)
            assert err < 1e-4, f"gradient mismatch for {name}: {err}"
