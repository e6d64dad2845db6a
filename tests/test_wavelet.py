"""Haar analysis/synthesis and wavelet-domain masking."""

import numpy as np
import pytest

from augseg.autodiff import GradTape, Tensor, finite_diff_check, use_tape
from augseg.errors import ContractError, DimensionError
from augseg.wavelet import (
    SubbandSet,
    WtAugConfig,
    haar_dwt2,
    haar_idwt2,
    make_masks,
    wt_aug,
)


def t4(data, dtype=np.float32):
    arr = np.asarray(data, dtype=dtype)
    return Tensor(arr.reshape((1, 1) + arr.shape))


class TestHaarDwt2:
    def test_constant_block(self):
        s = haar_dwt2(t4([[1, 1], [1, 1]]))
        np.testing.assert_allclose(s.LL.numpy(), [[[[2]]]])
        for band in (s.LH, s.HL, s.HH):
            np.testing.assert_allclose(band.numpy(), [[[[0]]]])

    def test_direct_2x2(self):
        s = haar_dwt2(t4([[1, 2], [3, 4]]))
        np.testing.assert_allclose(s.LL.numpy(), [[[[5]]]])
        np.testing.assert_allclose(s.LH.numpy(), [[[[-1]]]])
        np.testing.assert_allclose(s.HL.numpy(), [[[[-2]]]])
        np.testing.assert_allclose(s.HH.numpy(), [[[[0]]]])

    def test_rank_contract(self):
        with pytest.raises(ContractError):
            haar_dwt2(Tensor(np.zeros((4, 4))))

    def test_parseval_energy(self):
        rng = np.random.default_rng(0)
        f = Tensor(rng.normal(size=(1, 3, 8, 8)))
        s = haar_dwt2(f)
        band_energy = sum(float((b.numpy() ** 2).sum()) for b in s.bands())
        src_energy = float((f.numpy().astype(np.float64) ** 2).sum())
        assert abs(band_energy - src_energy) / src_energy < 1e-10

    def test_band_orientation(self):
        # columns alternate -> energy lands in LH (horizontal detail)
        stripes = np.tile([1.0, -1.0], 4)[None, :].repeat(8, axis=0)
        s = haar_dwt2(t4(stripes))
        assert np.abs(s.LH.numpy()).sum() > 1.0
        for band in (s.LL, s.HL, s.HH):
            np.testing.assert_allclose(band.numpy(), 0.0, atol=1e-6)
        # rows alternate -> energy lands in HL (vertical detail)
        s = haar_dwt2(t4(stripes.T))
        assert np.abs(s.HL.numpy()).sum() > 1.0
        for band in (s.LL, s.LH, s.HH):
            np.testing.assert_allclose(band.numpy(), 0.0, atol=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        f = Tensor(rng.normal(size=(1, 2, 6, 6)))
        g = Tensor(rng.normal(size=(1, 2, 6, 6)))
        sf, sg = haar_dwt2(f), haar_dwt2(g)
        combo = haar_dwt2(f * 2.0 + g * (-3.0))
        for got, bf, bg in zip(combo.bands(), sf.bands(), sg.bands()):
            want = 2.0 * bf.numpy() - 3.0 * bg.numpy()
            np.testing.assert_allclose(got.numpy(), want, atol=1e-5)


class TestHaarIdwt2:
    def test_inverse_of_direct_example(self):
        s = SubbandSet(t4([[5.0]]), t4([[-1.0]]), t4([[-2.0]]), t4([[0.0]]))
        np.testing.assert_allclose(haar_idwt2(s).numpy(),
                                   [[[[1, 2], [3, 4]]]], atol=1e-6)

    def test_zero_bands(self):
        z = Tensor.zeros((1, 1, 3, 3))
        out = haar_idwt2(SubbandSet(z, z, z, z))
        np.testing.assert_array_equal(out.numpy(), np.zeros((1, 1, 6, 6)))

    def test_mismatched_bands_rejected(self):
        z = Tensor.zeros((1, 1, 3, 3))
        bad = Tensor.zeros((1, 1, 2, 3))
        with pytest.raises(ContractError):
            haar_idwt2(SubbandSet(z, z, bad, z))

    def test_roundtrip_float32(self):
        rng = np.random.default_rng(2)
        f = Tensor(rng.normal(size=(2, 4, 6, 6)).astype(np.float32))
        out = haar_idwt2(haar_dwt2(f))
        assert np.max(np.abs(out.numpy() - f.numpy())) < 1e-5

    @pytest.mark.parametrize("h,w", [(5, 8), (8, 5), (7, 7), (2, 3)])
    def test_roundtrip_odd_extents(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        f = Tensor(rng.normal(size=(1, 2, h, w)).astype(np.float64))
        out = haar_idwt2(haar_dwt2(f))
        assert out.shape == f.shape
        assert np.max(np.abs(out.numpy() - f.numpy())) < 1e-10

    def test_roundtrip_float64_tight(self):
        rng = np.random.default_rng(3)
        f = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float64))
        out = haar_idwt2(haar_dwt2(f))
        assert np.max(np.abs(out.numpy() - f.numpy())) < 1e-10


class TestMakeMasks:
    def test_keep_prob_one(self):
        ms = make_masks((8, 8), WtAugConfig(keep_prob=(1, 1, 1, 1), seed=5))
        for m in ms.masks():
            np.testing.assert_array_equal(m.numpy(), np.ones((1, 1, 8, 8)))

    def test_keep_prob_zero(self):
        ms = make_masks((4, 4), WtAugConfig(keep_prob=(0, 0, 0, 0), seed=5))
        for m in ms.masks():
            np.testing.assert_array_equal(m.numpy(), np.zeros((1, 1, 4, 4)))

    def test_binary_entries_and_determinism(self):
        cfg = WtAugConfig(keep_prob=(0.3, 0.5, 0.7, 0.9), seed=42)
        a = make_masks((16, 16), cfg)
        b = make_masks((16, 16), cfg)
        for ma, mb in zip(a.masks(), b.masks()):
            assert set(np.unique(ma.numpy())) <= {0.0, 1.0}
            np.testing.assert_array_equal(ma.numpy(), mb.numpy())

    def test_ones_fraction_near_half(self):
        # Binomial(1024, 0.5): P(outside [0.40, 0.60]) < 1e-3
        ms = make_masks((32, 32), WtAugConfig(keep_prob=(0.5,) * 4, seed=7))
        for m in ms.masks():
            frac = float(m.numpy().mean())
            assert 0.40 <= frac <= 0.60

    def test_per_channel_masks(self):
        cfg = WtAugConfig(keep_prob=(0.5,) * 4, seed=11, channel_shared=False)
        ms = make_masks((3, 8, 8), cfg)
        assert ms.M_LL.shape == (1, 3, 8, 8)

    def test_invalid_keep_prob(self):
        with pytest.raises(ContractError):
            WtAugConfig(keep_prob=(1.2, 0, 0, 0))


class TestWtAug:
    def test_identity_when_all_kept(self):
        rng = np.random.default_rng(8)
        f = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        out = wt_aug(f, WtAugConfig(keep_prob=(1, 1, 1, 1), seed=0))
        np.testing.assert_array_equal(out.numpy(), f.numpy())

    def test_ll_only_gives_block_means(self):
        out = wt_aug(t4([[1.0, 2.0], [3.0, 4.0]]),
                     WtAugConfig(keep_prob=(1, 0, 0, 0), seed=0))
        np.testing.assert_allclose(out.numpy(), [[[[2.5, 2.5], [2.5, 2.5]]]],
                                   atol=1e-6)

    def test_all_dropped_gives_zero(self):
        rng = np.random.default_rng(9)
        f = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
        out = wt_aug(f, WtAugConfig(keep_prob=(0, 0, 0, 0), seed=0))
        np.testing.assert_allclose(out.numpy(), 0.0, atol=1e-6)

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(10)
        for shape in [(1, 1, 4, 4), (2, 3, 6, 10), (1, 2, 5, 7)]:
            f = Tensor(rng.normal(size=shape).astype(np.float32))
            out = wt_aug(f, WtAugConfig(keep_prob=(0.5,) * 4, seed=3))
            assert out.shape == f.shape

    def test_gradient_with_fixed_masks(self):
        rng = np.random.default_rng(11)
        cfg = WtAugConfig(keep_prob=(0.6, 0.6, 0.6, 0.6), seed=13)
        masks = make_masks((3, 3), cfg)
        w = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float64))
        err = finite_diff_check(
            lambda f: (wt_aug(f, cfg, masks=masks) * w).sum(),
            Tensor(rng.normal(size=(1, 2, 6, 6))))
        assert err < 1e-5

    def test_gradient_through_odd_extent_padding(self):
        rng = np.random.default_rng(12)
        cfg = WtAugConfig(keep_prob=(1, 0, 1, 0), seed=17)
        masks = make_masks((3, 3), cfg)
        w = Tensor(rng.normal(size=(1, 1, 5, 5)).astype(np.float64))
        err = finite_diff_check(
            lambda f: (wt_aug(f, cfg, masks=masks) * w).sum(),
            Tensor(rng.normal(size=(1, 1, 5, 5))))
        assert err < 1e-5


def reference_wt_aug(f, masks):
    """haar_idwt2(mask * haar_dwt2(f)), composed from primitive tape ops."""
    sub = haar_dwt2(f)
    bands = [b * m for b, m in zip(sub.bands(), masks.masks())]
    return haar_idwt2(SubbandSet(*bands, orig_hw=sub.orig_hw))


class TestFusedWtAug:
    @pytest.mark.parametrize("shape", [(2, 3, 8, 6), (1, 2, 7, 5),
                                       (2, 1, 6, 9), (1, 4, 2, 3)])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_subband_composition(self, shape, shared, dtype):
        rng = np.random.default_rng(sum(shape))
        cfg = WtAugConfig(keep_prob=(0.7, 0.5, 0.5, 0.3), seed=4,
                          channel_shared=shared)
        f = Tensor(rng.normal(size=shape).astype(dtype))
        h2, w2 = (shape[2] + 1) // 2, (shape[3] + 1) // 2
        masks = make_masks((h2, w2) if shared else (shape[1], h2, w2), cfg)
        got = wt_aug(f, cfg, masks=masks).numpy()
        want = reference_wt_aug(f, masks).numpy()
        assert got.dtype == dtype and got.shape == shape
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("shape", [(2, 3, 8, 6), (1, 2, 7, 5)])
    def test_gradient_matches_subband_composition(self, shape):
        rng = np.random.default_rng(5)
        cfg = WtAugConfig(keep_prob=(0.6,) * 4, seed=8, channel_shared=False)
        masks = make_masks((shape[1], (shape[2] + 1) // 2,
                            (shape[3] + 1) // 2), cfg)
        g = Tensor(rng.normal(size=shape))
        grads = []
        for fn in (lambda x: wt_aug(x, cfg, masks=masks),
                   lambda x: reference_wt_aug(x, masks)):
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            with use_tape(GradTape()) as tape:
                tape.backward((fn(x) * g).sum())
            grads.append(x.grad)
        assert np.max(np.abs(grads[0] - grads[1])) < 1e-12

    def test_self_adjoint(self):
        rng = np.random.default_rng(6)
        cfg = WtAugConfig(keep_prob=(0.8, 0.4, 0.4, 0.4), seed=9,
                          channel_shared=False)
        masks = make_masks((3, 4, 5), cfg)
        x = Tensor(rng.normal(size=(2, 3, 8, 10)))
        g = Tensor(rng.normal(size=(2, 3, 8, 10)))
        lhs = float(np.sum(wt_aug(x, cfg, masks=masks).numpy() * g.numpy()))
        rhs = float(np.sum(x.numpy() * wt_aug(g, cfg, masks=masks).numpy()))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_all_ones_returns_input_object(self):
        f = Tensor(np.ones((1, 2, 5, 6), dtype=np.float32), requires_grad=True)
        assert wt_aug(f, WtAugConfig(keep_prob=(1, 1, 1, 1))) is f

    def test_one_tape_node(self):
        f = Tensor(np.ones((1, 2, 5, 6)), requires_grad=True)
        with use_tape(GradTape()) as tape:
            wt_aug(f, WtAugConfig(keep_prob=(0.5,) * 4, seed=1))
            assert len(tape) == 1

    def test_mask_shape_mismatch_rejected(self):
        cfg = WtAugConfig(keep_prob=(0.5,) * 4, seed=2)
        f = Tensor(np.ones((1, 2, 8, 8), dtype=np.float32))
        with pytest.raises(DimensionError, match="mask shape"):
            wt_aug(f, cfg, masks=make_masks((3, 3), cfg))
        with pytest.raises(DimensionError, match="mask shape"):
            wt_aug(f, cfg, masks=make_masks((3, 4, 4), cfg))
