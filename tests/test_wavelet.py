"""Haar analysis/synthesis and wavelet-domain masking."""

import numpy as np
import pytest

from augseg.autodiff import (GradTape, Tensor, finite_diff_check, reshape,
                             use_tape)
from augseg.errors import ContractError
from augseg.wavelet import (
    WtAugConfig,
    haar_dwt2,
    haar_idwt2,
    make_masks,
    wt_aug,
)

from test_autodiff import concat, getitem


def a4(data, dtype=np.float32):
    arr = np.asarray(data, dtype=dtype)
    return arr.reshape((1, 1) + arr.shape)


def t4(data, dtype=np.float32):
    return Tensor(a4(data, dtype))


def assert_bands_match_reference(got, x):
    """``got`` is the [4, N, C, h, w] stack of the composed reference's
    LL, LH, HL, HH bands of ``x``."""
    want = reference_haar_dwt2(Tensor(x))
    assert got.shape == (4,) + want[0].shape
    for g, r in zip(got, want):
        np.testing.assert_allclose(g, r.numpy(), atol=1e-6)


class TestHaarDwt2:
    def test_constant_block(self):
        s = haar_dwt2(a4([[1, 1], [1, 1]]))
        np.testing.assert_allclose(s, np.reshape([2, 0, 0, 0], (4, 1, 1, 1, 1)))
        assert_bands_match_reference(s, a4([[1, 1], [1, 1]]))

    def test_direct_2x2(self):
        s = haar_dwt2(a4([[1, 2], [3, 4]]))
        np.testing.assert_allclose(s, np.reshape([5, -1, -2, 0],
                                                 (4, 1, 1, 1, 1)))
        assert_bands_match_reference(s, a4([[1, 2], [3, 4]]))

    def test_rank_contract(self):
        with pytest.raises(ContractError):
            haar_dwt2(np.zeros((4, 4)))

    @pytest.mark.parametrize("value", [
        Tensor(np.ones((1, 1, 4, 4))), np.ones((1, 1, 4, 4), dtype=int),
        np.ones((1, 1, 4, 4), dtype=np.float16), [[[[1, 2], [3, 4]]]]])
    def test_only_float32_or_float64_arrays_accepted(self, value):
        with pytest.raises(ContractError, match="float32 or float64 array"):
            haar_dwt2(value)
        with pytest.raises(ContractError, match="float32 or float64 array"):
            haar_idwt2(value)

    def test_parseval_energy(self):
        rng = np.random.default_rng(0)
        f = rng.normal(size=(1, 3, 8, 8))
        s = haar_dwt2(f)
        assert s.dtype == np.float64 and s.shape == (4, 1, 3, 4, 4)
        band_energy = float((s ** 2).sum())
        src_energy = float((f ** 2).sum())
        assert abs(band_energy - src_energy) / src_energy < 1e-10

    def test_band_orientation(self):
        LL, LH, HL, HH = range(4)
        # columns alternate -> energy lands in LH (horizontal detail)
        stripes = np.tile([1.0, -1.0], 4)[None, :].repeat(8, axis=0)
        s = haar_dwt2(a4(stripes))
        assert_bands_match_reference(s, a4(stripes))
        assert np.abs(s[LH]).sum() > 1.0
        np.testing.assert_allclose(s[[LL, HL, HH]], 0.0, atol=1e-6)
        # rows alternate -> energy lands in HL (vertical detail)
        s = haar_dwt2(a4(stripes.T))
        assert_bands_match_reference(s, a4(stripes.T))
        assert np.abs(s[HL]).sum() > 1.0
        np.testing.assert_allclose(s[[LL, LH, HH]], 0.0, atol=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(1, 2, 6, 6))
        g = rng.normal(size=(1, 2, 6, 6))
        combo = haar_dwt2(f * 2.0 + g * (-3.0))
        np.testing.assert_allclose(
            combo, 2.0 * haar_dwt2(f) - 3.0 * haar_dwt2(g), atol=1e-12)


class TestHaarIdwt2:
    def test_inverse_of_direct_example(self):
        s = np.reshape([5.0, -1.0, -2.0, 0.0], (4, 1, 1, 1, 1))
        np.testing.assert_allclose(haar_idwt2(s), [[[[1, 2], [3, 4]]]],
                                   atol=1e-6)

    def test_zero_bands(self):
        out = haar_idwt2(np.zeros((4, 1, 1, 3, 3), dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros((1, 1, 6, 6)))

    @pytest.mark.parametrize("shape", [(4, 1, 3, 3), (3, 1, 1, 3, 3),
                                       (1, 4, 1, 3, 3), (4, 1, 1, 1, 3, 3)])
    def test_shape_other_than_four_bands_rejected(self, shape):
        with pytest.raises(ContractError, match=r"\[4, N, C, h, w\]"):
            haar_idwt2(np.zeros(shape))

    @pytest.mark.parametrize("hw", [(4, 6), (6, 4), (7, 6), (6, 8)])
    def test_crop_that_does_not_fit_rejected(self, hw):
        with pytest.raises(ContractError, match="does not fit"):
            haar_idwt2(np.zeros((4, 1, 1, 3, 3)), hw)

    def test_roundtrip_float32(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        out = haar_idwt2(haar_dwt2(f))
        assert out.dtype == np.float32
        assert np.max(np.abs(out - f)) < 1e-5

    @pytest.mark.parametrize("h,w", [(5, 8), (8, 5), (7, 7), (2, 3)])
    def test_roundtrip_odd_extents(self, h, w):
        rng = np.random.default_rng(h * 10 + w)
        f = rng.normal(size=(1, 2, h, w))
        bands = haar_dwt2(f)
        assert bands.shape == (4, 1, 2, (h + 1) // 2, (w + 1) // 2)
        assert haar_idwt2(bands).shape == (1, 2, h + h % 2, w + w % 2)
        out = haar_idwt2(bands, (h, w))
        assert out.shape == f.shape and out.flags.c_contiguous
        assert np.max(np.abs(out - f)) < 1e-10

    def test_roundtrip_float64_tight(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(2, 3, 8, 8))
        out = haar_idwt2(haar_dwt2(f))
        assert np.max(np.abs(out - f)) < 1e-10


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
    """[LL, LH, HL, HH] tape tensors of the [N,C,H,W] tensor ``f``."""
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
    return [ll, lh, hl, hh]


def reference_haar_idwt2(bands, hw=None):
    """Inverse of ``reference_haar_dwt2``, cropped to ``hw`` when given."""
    ll, lh, hl, hh = bands
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
    if hw is not None:
        h, w = hw
        out = getitem(out, np.s_[:, :, :h, :w])
    return out


def reference_wt_aug(f, masks):
    """idwt(mask * dwt(f)) with the composed reference pair; ``masks`` is
    make_masks' [4, 1, c|1, h, w] array."""
    bands = [b * Tensor(m) for b, m in zip(reference_haar_dwt2(f), masks)]
    return reference_haar_idwt2(bands, f.shape[2:])


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
            got, want = haar_dwt2(x), reference_haar_dwt2(Tensor(x))
            assert got.dtype == dtype and got.flags.c_contiguous
            assert got.shape == (4,) + want[0].shape
            bound = 2 * np.finfo(dtype).eps * np.max(np.abs(x))
            for g, r in zip(got, want):
                assert np.max(np.abs(g - r.numpy())) <= bound, shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_synthesis_matches_composed_reference(self, dtype):
        rng = np.random.default_rng(61)
        for n, c, h, w in criterion_1_shapes(rng, 200):
            band_shape = (n, c, (h + 1) // 2, (w + 1) // 2)
            scale = 10.0 ** rng.uniform(-3, 3)
            bands = (rng.normal(size=(4,) + band_shape) * scale).astype(dtype)
            got = haar_idwt2(bands, (h, w))
            want = reference_haar_idwt2(list(map(Tensor, bands)),
                                        (h, w)).numpy()
            bound = 2 * np.finfo(dtype).eps * np.max(np.abs(bands))
            assert got.dtype == dtype and got.shape == (n, c, h, w)
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - want)) <= bound, (n, c, h, w)


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
