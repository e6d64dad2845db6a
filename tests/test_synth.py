"""Synthetic sample generation, corruptions, and dataset files."""

import numpy as np
import pytest

from augseg.autodiff import Tensor
from augseg.errors import ContractError, FormatError
from augseg.synth import (
    CorruptionSpec,
    SynthConfig,
    corrupt,
    feature_spatial_aug,
    gen_sample,
    load_manifest,
    load_sample,
    motion_blur_kernel,
    random_corruption,
    write_dataset,
)


class TestGenSample:
    def test_deterministic(self):
        a = gen_sample(17)
        b = gen_sample(17)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)
        assert a.shapes == b.shapes

    def test_mask_classes_in_range(self):
        cfg = SynthConfig(num_classes=3)
        for seed in range(20):
            s = gen_sample(seed, cfg)
            assert s.mask.max() < cfg.num_classes
            assert s.mask.dtype == np.uint8

    def test_image_range_and_shape(self):
        s = gen_sample(3)
        assert s.image.shape == (1, 64, 64)
        assert s.image.dtype == np.float32
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0

    def test_foreground_fraction_band(self):
        cfg = SynthConfig()
        lo, hi = cfg.fg_fraction_range
        for seed in range(100):
            frac = (gen_sample(seed, cfg).mask > 0).mean()
            assert lo <= frac <= hi

    def test_each_class_appears_often_enough(self):
        # with 2 foreground classes each appears with prob >= 0.5 per sample
        cfg = SynthConfig(num_classes=3)
        present = {1: 0, 2: 0}
        n = 100
        for seed in range(n):
            mask = gen_sample(seed, cfg).mask
            for cls in (1, 2):
                present[cls] += int((mask == cls).any())
        for cls in (1, 2):
            assert present[cls] >= 0.5 * n


class TestCorrupt:
    def test_brightness_identity(self):
        s = gen_sample(0)
        out = corrupt(s.image, CorruptionSpec(kind="brightness", factor=1.0))
        np.testing.assert_array_equal(out, s.image)

    def test_brightness_scales_and_clamps(self):
        img = np.full((1, 8, 8), 0.6, dtype=np.float32)
        out = corrupt(img, CorruptionSpec(kind="brightness", factor=2.0))
        np.testing.assert_allclose(out, 1.0)

    def test_motion_blur_preserves_constants(self):
        img = np.full((1, 16, 16), 0.37, dtype=np.float32)
        out = corrupt(img, CorruptionSpec(kind="motion_blur", length=7, seed=1))
        np.testing.assert_allclose(out, 0.37, atol=1e-6)

    def test_motion_blur_kernel_normalized(self):
        for length in (3, 5, 9):
            k = motion_blur_kernel(length, 0.7)
            assert k.sum() == pytest.approx(1.0)
            assert (k >= 0).all()

    def test_poisson_mean_preserved(self):
        img = np.full((100, 100), 0.5, dtype=np.float32)
        out = corrupt(img, CorruptionSpec(kind="poisson", scale=255.0, seed=2))
        assert abs(out.mean() - 0.5) < 0.02

    def test_rand_mask_zeroes_fraction(self):
        img = np.ones((64, 64), dtype=np.float32)
        out = corrupt(img, CorruptionSpec(kind="rand_mask", drop_prob=0.25,
                                          seed=3))
        zero_frac = (out == 0).mean()
        assert 0.15 < zero_frac < 0.35

    def test_deterministic_per_seed(self):
        img = gen_sample(5).image
        spec = CorruptionSpec(kind="poisson", scale=50.0, seed=9)
        np.testing.assert_array_equal(corrupt(img, spec), corrupt(img, spec))

    def test_output_stays_in_range(self):
        img = gen_sample(6).image
        for kind in ("brightness", "motion_blur", "poisson", "rand_mask"):
            out = corrupt(img, CorruptionSpec(kind=kind, seed=4, factor=1.8))
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            CorruptionSpec(kind="solarize")


class TestFeatureSpatialAug:
    def test_brightness_identity(self):
        f = Tensor(np.random.default_rng(0).normal(size=(1, 3, 8, 8))
                   .astype(np.float32))
        out = feature_spatial_aug(f, CorruptionSpec(kind="brightness",
                                                    factor=1.0))
        np.testing.assert_array_equal(out.numpy(), f.numpy())

    def test_rand_mask_p0_identity(self):
        f = Tensor(np.random.default_rng(1).normal(size=(1, 2, 4, 4))
                   .astype(np.float32))
        out = feature_spatial_aug(f, CorruptionSpec(kind="rand_mask",
                                                    drop_prob=0.0))
        np.testing.assert_array_equal(out.numpy(), f.numpy())

    def test_rand_mask_p1_zeroes(self):
        f = Tensor(np.random.default_rng(2).normal(size=(1, 2, 4, 4))
                   .astype(np.float32))
        out = feature_spatial_aug(f, CorruptionSpec(kind="rand_mask",
                                                    drop_prob=1.0, seed=1))
        np.testing.assert_array_equal(out.numpy(), np.zeros((1, 2, 4, 4)))

    def test_blur_and_poisson_shapes(self):
        f = Tensor(np.random.default_rng(3).normal(size=(2, 3, 8, 8))
                   .astype(np.float32))
        for kind in ("motion_blur", "poisson"):
            out = feature_spatial_aug(f, CorruptionSpec(kind=kind, seed=5))
            assert out.shape == f.shape

    def test_random_corruption_is_seedable(self):
        a = random_corruption(np.random.default_rng(7))
        b = random_corruption(np.random.default_rng(7))
        assert a == b


class TestDatasetFiles:
    def test_write_and_load_roundtrip(self, tmp_path):
        path = write_dataset(tmp_path, train_seeds=range(3),
                             test_seeds=range(100, 104))
        manifest = load_manifest(path)
        assert manifest["num_classes"] == 3
        assert len(manifest["samples"]) == 7
        entry = manifest["samples"][0]
        image, mask = load_sample(tmp_path, entry)
        assert image.shape == (1, 64, 64)
        reference = gen_sample(entry["seed"])
        np.testing.assert_array_equal(mask, reference.mask)
        quantized = np.round(reference.image[0] * 255) / 255.0
        np.testing.assert_allclose(image[0], quantized, atol=1e-7)

    def test_splits_disjoint(self, tmp_path):
        with pytest.raises(ContractError):
            write_dataset(tmp_path, train_seeds=range(5), test_seeds=range(4, 8))

    def test_missing_manifest(self, tmp_path):
        from augseg.errors import InputError
        with pytest.raises(InputError):
            load_manifest(tmp_path / "nope.json")

    def test_malformed_manifest(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        with pytest.raises(FormatError):
            load_manifest(bad)
