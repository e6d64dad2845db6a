"""Haar analysis/synthesis and wavelet-domain masking."""

import numpy as np
import pytest

from augseg.autodiff import (GradTape, Tensor, finite_diff_check, reshape,
                             use_tape)
from augseg.errors import ContractError
from augseg.wavelet import (
    SubbandSet,
    WtAugConfig,
    haar_dwt2,
    haar_idwt2,
    make_masks,
    wt_aug,
)

from test_autodiff import concat, getitem


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


def gen(seed):
    return np.random.default_rng(seed)


class TestMakeMasks:
    def test_keep_prob_one(self):
        m = make_masks((1, 8, 8), WtAugConfig(keep_prob=(1, 1, 1, 1)), gen(5))
        np.testing.assert_array_equal(m, np.ones((4, 1, 1, 8, 8)))

    def test_keep_prob_zero(self):
        m = make_masks((1, 4, 4), WtAugConfig(keep_prob=(0, 0, 0, 0)), gen(5))
        np.testing.assert_array_equal(m, np.zeros((4, 1, 1, 4, 4)))

    def test_binary_entries_and_determinism(self):
        cfg = WtAugConfig(keep_prob=(0.3, 0.5, 0.7, 0.9))
        a = make_masks((1, 16, 16), cfg, gen(42))
        b = make_masks((1, 16, 16), cfg, gen(42))
        assert set(np.unique(a)) <= {0.0, 1.0}
        np.testing.assert_array_equal(a, b)

    def test_ones_fraction_near_half(self):
        # Binomial(1024, 0.5): P(outside [0.40, 0.60]) < 1e-3
        m = make_masks((1, 32, 32), WtAugConfig(keep_prob=(0.5,) * 4), gen(7))
        for band in m:
            frac = float(band.mean())
            assert 0.40 <= frac <= 0.60

    @pytest.mark.parametrize("shape,shared", [((3, 5, 6), True),
                                              ((3, 4, 4), False)])
    @pytest.mark.parametrize("keep", [(1, 0, .5, 1), (0, 0, 0, 0),
                                      (1, 1, 1, 1), (.3, .7, 1, 0)])
    def test_stream_is_one_draw_per_band(self, shape, shared, keep):
        # every band draws random(shape) whatever its keep probability
        cfg = WtAugConfig(keep_prob=keep, channel_shared=shared)
        m = make_masks(shape, cfg, gen(19))
        drawn = ((1,) if shared else shape[:1]) + shape[1:]
        u = gen(19).random((4,) + drawn)
        assert m.dtype == np.float32
        assert m.shape == (4, 1) + drawn
        for band, ub, p in zip(m, u, keep):
            np.testing.assert_array_equal(band.reshape(drawn), ub < p)

    def test_per_channel_masks(self):
        cfg = WtAugConfig(keep_prob=(0.5,) * 4, channel_shared=False)
        assert make_masks((3, 8, 8), cfg, gen(11)).shape == (4, 1, 3, 8, 8)

    def test_invalid_keep_prob(self):
        with pytest.raises(ContractError):
            WtAugConfig(keep_prob=(1.2, 0, 0, 0))

    @pytest.mark.parametrize("keep_prob", [
        ("x", 1, 1, 1), (True, 1, 1, 1), (0.5,) * 3, 0.5,
        (float("nan"), 1, 1, 1)])
    def test_keep_prob_entry_type_and_count_checked(self, keep_prob):
        with pytest.raises(ContractError):
            WtAugConfig(keep_prob=keep_prob)


class TestWtAug:
    def test_identity_when_all_kept(self):
        rng = np.random.default_rng(8)
        f = Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
        out = wt_aug(f, WtAugConfig(keep_prob=(1, 1, 1, 1)), gen(0))
        np.testing.assert_array_equal(out.numpy(), f.numpy())

    def test_ll_only_gives_block_means(self):
        out = wt_aug(t4([[1.0, 2.0], [3.0, 4.0]]),
                     WtAugConfig(keep_prob=(1, 0, 0, 0)), gen(0))
        np.testing.assert_allclose(out.numpy(), [[[[2.5, 2.5], [2.5, 2.5]]]],
                                   atol=1e-6)

    def test_all_dropped_gives_zero(self):
        rng = np.random.default_rng(9)
        f = Tensor(rng.normal(size=(1, 2, 4, 4)).astype(np.float32))
        out = wt_aug(f, WtAugConfig(keep_prob=(0, 0, 0, 0)), gen(0))
        np.testing.assert_allclose(out.numpy(), 0.0, atol=1e-6)

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(10)
        for shape in [(1, 1, 4, 4), (2, 3, 6, 10), (1, 2, 5, 7)]:
            f = Tensor(rng.normal(size=shape).astype(np.float32))
            out = wt_aug(f, WtAugConfig(keep_prob=(0.5,) * 4), gen(3))
            assert out.shape == f.shape

    def test_draws_advance_the_callers_generator(self):
        # one random() of the band shape per call, so successive calls
        # on one generator draw fresh masks
        cfg = WtAugConfig(keep_prob=(0.5,) * 4, channel_shared=False)
        f = Tensor(np.ones((2, 3, 8, 7), dtype=np.float32))
        rng = gen(21)
        a, b = (wt_aug(f, cfg, rng).numpy() for _ in range(2))
        assert not np.array_equal(a, b)
        after = gen(21)
        after.random((2, 4, 1, 3, 4, 4))
        assert rng.random() == after.random()

    def test_gradient_with_fixed_masks(self):
        rng = np.random.default_rng(11)
        cfg = WtAugConfig(keep_prob=(0.6, 0.6, 0.6, 0.6))
        w = Tensor(rng.normal(size=(1, 2, 6, 6)).astype(np.float64))
        # a fresh generator per call draws the same masks each time
        err = finite_diff_check(
            lambda f: (wt_aug(f, cfg, gen(13)) * w).sum(),
            Tensor(rng.normal(size=(1, 2, 6, 6))))
        assert err < 1e-5

    def test_gradient_through_odd_extent_padding(self):
        rng = np.random.default_rng(12)
        cfg = WtAugConfig(keep_prob=(1, 0, 1, 0))
        w = Tensor(rng.normal(size=(1, 1, 5, 5)).astype(np.float64))
        err = finite_diff_check(
            lambda f: (wt_aug(f, cfg, gen(17)) * w).sum(),
            Tensor(rng.normal(size=(1, 1, 5, 5))))
        assert err < 1e-5


# ----------------------------------------------------------------------
# Reference Haar pair composed from primitive tape ops (slices, sums,
# concat and interleaving reshapes).  haar_dwt2/haar_idwt2 replaced it
# with the shared butterfly, which sums (a + b) + (c + d) where this
# chain sums ((a + b) + c) + d, so the two agree to rounding.
# ----------------------------------------------------------------------
def reference_haar_dwt2(f):
    n, c, h, w = f.shape
    if h % 2:       # append a mirrored row/column where the extent is odd
        f = concat([f, getitem(f, np.s_[:, :, h - 2:h - 1, :])], axis=2)
    if w % 2:
        f = concat([f, getitem(f, np.s_[:, :, :, w - 2:w - 1])], axis=3)
    a, b, cc, d = (getitem(f, np.s_[:, :, i::2, j::2])
                   for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    ll = (a + b + cc + d) * 0.5
    lh = (a - b + cc - d) * 0.5
    hl = (a + b - cc - d) * 0.5
    hh = (a - b - cc + d) * 0.5
    return SubbandSet(ll, lh, hl, hh,
                      orig_hw=(h, w) if h % 2 or w % 2 else None)


def reference_haar_idwt2(s):
    ll, lh, hl, hh = s.bands()
    a = (ll + lh + hl + hh) * 0.5
    b = (ll - lh + hl - hh) * 0.5
    c = (ll + lh - hl - hh) * 0.5
    d = (ll - lh - hl + hh) * 0.5
    n, ch, h2, w2 = ll.shape
    top = concat([reshape(a, (n, ch, h2, 1, w2, 1)),
                  reshape(b, (n, ch, h2, 1, w2, 1))], axis=5)
    bottom = concat([reshape(c, (n, ch, h2, 1, w2, 1)),
                     reshape(d, (n, ch, h2, 1, w2, 1))], axis=5)
    out = reshape(concat([top, bottom], axis=3), (n, ch, 2 * h2, 2 * w2))
    if s.orig_hw is not None:
        h, w = s.orig_hw
        out = getitem(out, np.s_[:, :, :h, :w])
    return out


def reference_wt_aug(f, masks):
    """idwt(mask * dwt(f)) with the composed reference pair; ``masks`` is
    make_masks' [4, 1, c|1, h, w] array."""
    sub = reference_haar_dwt2(f)
    bands = [b * Tensor(m) for b, m in zip(sub.bands(), masks)]
    return reference_haar_idwt2(SubbandSet(*bands, orig_hw=sub.orig_hw))


def criterion_1_shapes(rng, count):
    """Acceptance criterion 1's [N,C,H,W] generator, odd extents included."""
    for _ in range(count):
        yield (int(rng.integers(1, 3)), int(rng.integers(1, 9)),
               int(rng.integers(2, 17)), int(rng.integers(2, 17)))


class TestButterflyKernel:
    """haar_dwt2/haar_idwt2 run the butterfly that wt_aug runs."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_analysis_matches_composed_reference(self, dtype):
        rng = np.random.default_rng(60)
        for shape in criterion_1_shapes(rng, 200):
            x = (rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
                 ).astype(dtype)
            got, want = haar_dwt2(Tensor(x)), reference_haar_dwt2(Tensor(x))
            assert got.orig_hw == want.orig_hw
            bound = 2 * np.finfo(dtype).eps * np.max(np.abs(x))
            for g, r in zip(got.bands(), want.bands()):
                assert g.dtype == dtype and g.shape == r.shape
                assert np.max(np.abs(g.numpy() - r.numpy())) <= bound, shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_synthesis_matches_composed_reference(self, dtype):
        rng = np.random.default_rng(61)
        for n, c, h, w in criterion_1_shapes(rng, 200):
            band_shape = (n, c, (h + 1) // 2, (w + 1) // 2)
            scale = 10.0 ** rng.uniform(-3, 3)
            bands = [Tensor((rng.normal(size=band_shape) * scale).astype(dtype))
                     for _ in range(4)]
            orig_hw = (h, w) if h % 2 or w % 2 else None
            got = haar_idwt2(SubbandSet(*bands, orig_hw=orig_hw)).numpy()
            want = reference_haar_idwt2(
                SubbandSet(*bands, orig_hw=orig_hw)).numpy()
            bound = 2 * np.finfo(dtype).eps * max(
                np.max(np.abs(b.numpy())) for b in bands)
            assert got.dtype == dtype and got.shape == (n, c, h, w)
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= bound, (n, c, h, w)

    def test_tape_tracked_input_rejected(self):
        f = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        bands = SubbandSet(*(Tensor(np.full((1, 1, 2, 2), 2.0 - 2 * min(i, 1)),
                                    requires_grad=i == 2) for i in range(4)))
        with use_tape(GradTape()):
            with pytest.raises(ContractError, match="use wt_aug"):
                haar_dwt2(f)
            with pytest.raises(ContractError, match="use wt_aug"):
                haar_idwt2(bands)
            # an input that needs no gradient is read as a value
            haar_dwt2(Tensor(np.ones((1, 1, 4, 4))))
        # outside a tape nothing records, so any input is a value
        np.testing.assert_array_equal(haar_dwt2(f).LL.numpy(), 2.0)
        np.testing.assert_array_equal(haar_idwt2(bands).numpy(), 1.0)


class TestFusedWtAug:
    @pytest.mark.parametrize("shape", [(2, 3, 8, 6), (1, 2, 7, 5),
                                       (2, 1, 6, 9), (1, 4, 2, 3)])
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_subband_composition(self, shape, shared, dtype):
        rng = np.random.default_rng(sum(shape))
        cfg = WtAugConfig(keep_prob=(0.7, 0.5, 0.5, 0.3),
                          channel_shared=shared)
        f = Tensor(rng.normal(size=shape).astype(dtype))
        band_shape = (shape[1], (shape[2] + 1) // 2, (shape[3] + 1) // 2)
        got = wt_aug(f, cfg, gen(4)).numpy()
        want = reference_wt_aug(f, make_masks(band_shape, cfg, gen(4))).numpy()
        assert got.dtype == dtype and got.shape == shape
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("shape", [(2, 3, 8, 6), (1, 2, 7, 5)])
    def test_gradient_matches_subband_composition(self, shape):
        rng = np.random.default_rng(5)
        cfg = WtAugConfig(keep_prob=(0.6,) * 4, channel_shared=False)
        masks = make_masks((shape[1], (shape[2] + 1) // 2,
                            (shape[3] + 1) // 2), cfg, gen(8))
        g = Tensor(rng.normal(size=shape))
        grads = []
        for fn in (lambda x: wt_aug(x, cfg, gen(8)),
                   lambda x: reference_wt_aug(x, masks)):
            x = Tensor(rng.normal(size=shape), requires_grad=True)
            with use_tape(GradTape()) as tape:
                tape.backward((fn(x) * g).sum())
            grads.append(x.grad)
        assert np.max(np.abs(grads[0] - grads[1])) < 1e-12

    def test_self_adjoint(self):
        rng = np.random.default_rng(6)
        cfg = WtAugConfig(keep_prob=(0.8, 0.4, 0.4, 0.4),
                          channel_shared=False)
        x = Tensor(rng.normal(size=(2, 3, 8, 10)))
        g = Tensor(rng.normal(size=(2, 3, 8, 10)))
        lhs = float(np.sum(wt_aug(x, cfg, gen(9)).numpy() * g.numpy()))
        rhs = float(np.sum(x.numpy() * wt_aug(g, cfg, gen(9)).numpy()))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_all_ones_returns_input_object(self):
        f = Tensor(np.ones((1, 2, 5, 6), dtype=np.float32), requires_grad=True)
        assert wt_aug(f, WtAugConfig(keep_prob=(1, 1, 1, 1)), gen(0)) is f

    def test_one_tape_node(self):
        f = Tensor(np.ones((1, 2, 5, 6)), requires_grad=True)
        with use_tape(GradTape()) as tape:
            wt_aug(f, WtAugConfig(keep_prob=(0.5,) * 4), gen(1))
            assert len(tape) == 1
