"""Token adapters and cross-attention fusion."""

import numpy as np
import pytest

from augseg.autodiff import Tensor, finite_diff_check
from augseg.errors import ContractError
from augseg.fusion import (
    FusionParams,
    TokenMap,
    cg_fuse,
    cross_attention,
    flatten_tokens,
    unflatten,
)


def rand_params(c_dec, c_enc, seed=0, **kw):
    return FusionParams.create(c_dec, c_enc, np.random.default_rng(seed), **kw)


class TestTokenMap:
    def test_row_major_order(self):
        f = Tensor(np.array([[[[1, 2], [3, 4]]]], dtype=np.float32))
        tm = flatten_tokens(f)
        np.testing.assert_array_equal(tm.tokens.numpy(),
                                      [[[1], [2], [3], [4]]])
        assert tm.spatial == (2, 2)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        for shape in [(1, 3, 4, 5), (2, 1, 2, 2), (2, 8, 3, 7)]:
            f = Tensor(rng.normal(size=shape).astype(np.float32))
            np.testing.assert_array_equal(unflatten(flatten_tokens(f)).numpy(),
                                          f.numpy())

    def test_wrong_spatial_rejected(self):
        tm = TokenMap(tokens=Tensor(np.zeros((1, 6, 2))), spatial=(2, 2))
        with pytest.raises(ContractError):
            unflatten(tm)


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
