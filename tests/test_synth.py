"""Synthetic sample generation, corruptions, and dataset files."""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.ndimage import convolve

from augseg.errors import ContractError, FormatError
from augseg.synth import (
    FG_FRACTION_RANGE,
    CorruptionSpec,
    _STRENGTH_RANGES,
    _motion_blur,
    _shape_coverage,
    SynthConfig,
    corrupt,
    feature_spatial_aug,
    gen_sample,
    load_manifest,
    load_sample,
    check_strengths,
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
        lo, hi = FG_FRACTION_RANGE
        for seed in range(100):
            frac = (gen_sample(seed).mask > 0).mean()
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


def full_grid_coverage(kind, size, cy, cx, ry, rx, angle):
    """Reference: the 3x3-supersampled coverage over every image pixel."""
    offs = (np.arange(3) + 0.5) / 3 - 0.5
    yy = np.arange(size)[:, None, None, None] + offs[None, None, :, None]
    xx = np.arange(size)[None, :, None, None] + offs[None, None, None, :]
    ca, sa = math.cos(angle), math.sin(angle)
    u = (yy - cy) * ca + (xx - cx) * sa
    v = -(yy - cy) * sa + (xx - cx) * ca
    if kind == "ellipse":
        inside = (u / ry) ** 2 + (v / rx) ** 2 <= 1.0
    else:
        inside = (np.abs(u) <= ry) & (np.abs(v) <= rx)
    return inside.mean(axis=(2, 3)), inside[:, :, 1, 1]


def boxed_coverage(kind, size, cy, cx, ry, rx, angle):
    """``_shape_coverage`` placed back on the full image, zero elsewhere."""
    box, coverage, center_in = _shape_coverage(kind, size, cy, cx, ry, rx,
                                               angle)
    full, center = np.zeros((size, size)), np.zeros((size, size), bool)
    full[box], center[box] = coverage, center_in
    return full, center


BELOW_PI = math.nextafter(math.pi, 0.0)
ANGLES = (0.0, math.pi / 2, BELOW_PI, math.pi / 4, 0.3)


def adversarial_shapes(size=24):
    """Shapes at each border, sub-pixel radii, rectangles reaching past
    the image, the end angles, and centers at every third of a pixel."""
    mid = size / 2
    for kind in ("ellipse", "rect"):
        for angle in ANGLES:
            # touching or crossing each border
            for cy, cx in ((0.4, mid), (size - 1.4, mid), (mid, 0.4),
                           (mid, size - 1.4), (0.0, 0.0),
                           (size - 1.0, size - 1.0)):
                for ry, rx in ((1.0, 3.3), (3.3, 1.0), (5.7, 5.7)):
                    yield kind, size, cy, cx, ry, rx, angle
            # sub-pixel radii
            for ry, rx in ((0.2, 0.4), (0.34, 0.34), (0.5, 0.1)):
                for frac in (0.0, 0.3, 0.5, 0.7, 0.99):
                    yield kind, size, mid + frac, mid - frac, ry, rx, angle
            # at most 0.45 * size per radius, so a rectangle's hypot reach
            # exceeds the image
            yield kind, size, mid, mid, 0.45 * size, 0.45 * size, angle
            yield kind, size, mid - 0.5, mid + 0.2, 0.45 * size, 0.2, angle
    # centers and radii whose ends fall at every fraction of a pixel, so
    # each side of the box is tested where a sub-sample just reaches in
    rng = np.random.default_rng(0)
    for _ in range(400):
        kind = "ellipse" if rng.random() < 0.5 else "rect"
        ry, rx = rng.uniform(0.1, 0.45 * size, size=2)
        yield (kind, size, float(rng.uniform(1, size - 1)),
               float(rng.uniform(1, size - 1)), float(ry), float(rx),
               float(rng.uniform(0, math.pi)))


class TestShapeCoverage:
    def test_box_equals_full_grid(self):
        shapes = list(adversarial_shapes())
        for shape in shapes:
            want, want_center = full_grid_coverage(*shape)
            got, got_center = boxed_coverage(*shape)
            np.testing.assert_array_equal(got, want, err_msg=str(shape))
            np.testing.assert_array_equal(got_center, want_center,
                                          err_msg=str(shape))
        assert len(shapes) > 500

    def test_box_is_clipped_to_the_image(self):
        box, coverage, _ = _shape_coverage("rect", 24, 12.0, 12.0, 10.8, 10.8,
                                           math.pi / 4)
        assert box == (slice(0, 24), slice(0, 24))
        assert coverage.shape == (24, 24)

    def test_small_shape_evaluates_a_small_box(self):
        box, coverage, center_in = _shape_coverage("ellipse", 64, 30.5, 40.2,
                                                   2.0, 1.0, 0.3)
        assert coverage.shape == center_in.shape == (6, 6)
        assert box == (slice(28, 34), slice(38, 44))


# sha256 over (image bytes, mask bytes, shapes JSON) of consecutive seeds,
# recorded with the full-grid renderer this module's reference keeps
GOLDEN = {
    "default": ({}, 300,
                "20298d969ffb0a43971fc899d2fcf542"
                "83767e4cbc60a57fcfa9d5ce8339d5ce"),
    "size20": ({"image_size": 20}, 100,
               "5ad5b4759abaaf3accfce3608a8252a8"
               "1d3a9f21595e3194d1a2a2909318f9e4"),
    "size96": ({"image_size": 96, "num_classes": 5, "max_shapes": 4}, 100,
               "2d5f9bae1bf6a3121f83a64390f865c0"
               "bfbf36dca79fd901f5b3bc8d33eb0666"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_samples_match_recorded_digest(name):
    kwargs, count, digest = GOLDEN[name]
    cfg = SynthConfig(**kwargs)
    h = hashlib.sha256()
    for seed in range(count):
        s = gen_sample(seed, cfg)
        h.update(s.image.tobytes())
        h.update(s.mask.tobytes())
        h.update(json.dumps(s.shapes).encode())
    assert h.hexdigest() == digest


class TestSynthConfig:
    @pytest.mark.parametrize("kwargs", [
        {"image_size": 0}, {"image_size": 19}, {"num_classes": 1},
        {"num_classes": 0}, {"num_classes": 257}, {"num_classes": 300}])
    def test_rejected(self, kwargs):
        with pytest.raises(ContractError, match=next(iter(kwargs))):
            SynthConfig(**kwargs)

    def test_smallest_size_generates(self):
        # at 19 pixels some seeds leave no room for a shape's centre
        cfg = SynthConfig(image_size=20)
        for seed in range(300):
            assert gen_sample(seed, cfg).mask.shape == (20, 20)

    def test_largest_class_count_fits_the_mask(self):
        cfg = SynthConfig(num_classes=256)
        for seed in range(50):
            s = gen_sample(seed, cfg)
            drawn = {shape["class"] for shape in s.shapes}
            assert max(drawn) <= 255
            assert set(np.unique(s.mask)) - {0} <= drawn


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
        img = np.full((1, 100, 100), 0.5, dtype=np.float32)
        out = corrupt(img, CorruptionSpec(kind="poisson", scale=255.0, seed=2))
        assert abs(out.mean() - 0.5) < 0.02

    def test_rand_mask_zeroes_fraction(self):
        img = np.ones((1, 64, 64), dtype=np.float32)
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

    @pytest.mark.parametrize("shape", [(8, 8), (2, 8, 8), (1, 1, 8, 8)])
    def test_only_single_channel_images(self, shape):
        with pytest.raises(ContractError, match=r"\[1,H,W\]"):
            corrupt(np.zeros(shape, np.float32),
                    CorruptionSpec(kind="brightness"))


# each strength field, the corruption that reads it, and values outside the
# range it has in _STRENGTH_RANGES
BAD_STRENGTHS = [
    ("factor", "brightness", [-0.5, math.nan, math.inf, "1.3"]),
    ("length", "motion_blur", [0, 2.5, 256, 1000, True]),
    ("scale", "poisson", [0.0, -30.0, 1e300, math.nan]),
    ("drop_prob", "rand_mask", [-0.1, 1.5, math.nan, None]),
]


class TestCorruptionSpecStrengths:
    """A spec holds only strengths ``check_strengths`` accepts as a range
    end, so no corruption builds an oversized blur kernel or draws from an
    oversized Poisson mean."""

    @pytest.mark.parametrize("field,kind,value", [
        (field, kind, value) for field, kind, values in BAD_STRENGTHS
        for value in values])
    def test_strength_outside_its_range_rejected(self, field, kind, value):
        with pytest.raises(ContractError):
            corrupt(np.zeros((1, 8, 8), np.float32),
                    CorruptionSpec(kind=kind, **{field: value}))

    @pytest.mark.parametrize("key", sorted(_STRENGTH_RANGES))
    def test_spec_agrees_with_check_strengths(self, key):
        field = _STRENGTH_RANGES[key][0]
        for value in (-1, 0, 0.5, 1, 1.5, 255, 255.0, 256, 1e6, 1.5e6,
                      math.nan, math.inf, True):
            try:
                check_strengths({key: [value, value]})
                as_range = True
            except ContractError:
                as_range = False
            try:
                CorruptionSpec(kind="brightness", **{field: value})
                as_spec = True
            except ContractError:
                as_spec = False
            assert as_spec == as_range, (key, value)


class TestFeatureSpatialAug:
    def test_brightness_identity(self):
        f = (np.random.default_rng(0).normal(size=(1, 3, 8, 8))
             .astype(np.float32))
        out = feature_spatial_aug(f, CorruptionSpec(kind="brightness",
                                                    factor=1.0))
        np.testing.assert_array_equal(out, f)

    def test_rand_mask_p0_identity(self):
        f = (np.random.default_rng(1).normal(size=(1, 2, 4, 4))
             .astype(np.float32))
        out = feature_spatial_aug(f, CorruptionSpec(kind="rand_mask",
                                                    drop_prob=0.0))
        np.testing.assert_array_equal(out, f)

    def test_rand_mask_p1_zeroes(self):
        f = (np.random.default_rng(2).normal(size=(1, 2, 4, 4))
             .astype(np.float32))
        out = feature_spatial_aug(f, CorruptionSpec(kind="rand_mask",
                                                    drop_prob=1.0, seed=1))
        np.testing.assert_array_equal(out, np.zeros((1, 2, 4, 4)))

    def test_blur_and_poisson_shapes(self):
        f = (np.random.default_rng(3).normal(size=(2, 3, 8, 8))
             .astype(np.float32))
        for kind in ("motion_blur", "poisson"):
            out = feature_spatial_aug(f, CorruptionSpec(kind=kind, seed=5))
            assert out.shape == f.shape and out.dtype == f.dtype

    @pytest.mark.parametrize("shape", [(2, 24, 16, 16), (2, 32, 8, 8),
                                       (2, 48, 4, 4), (2, 64, 2, 2),
                                       (1, 3, 9, 7), (3, 1, 5, 11)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blur_equals_per_channel_loop(self, shape, dtype):
        data = np.random.default_rng(4).normal(size=shape).astype(dtype)
        for length in (1, 2, 5, 11):
            spec = CorruptionSpec(kind="motion_blur", seed=length,
                                  length=length)
            out = feature_spatial_aug(data, spec)
            angle = np.random.default_rng(spec.seed).uniform(0, math.pi)
            kernel = motion_blur_kernel(length, angle)
            blurred = np.stack([
                np.stack([convolve(data[n, c], kernel, mode="nearest")
                          for c in range(shape[1])])
                for n in range(shape[0])])
            want = data + (blurred - data).astype(dtype)
            assert out.dtype == dtype
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 64, 64), (2, 24, 16, 16)])
    @pytest.mark.parametrize("length", range(3, 10))
    def test_motion_blur_equals_scipy_convolve(self, shape, length):
        # the numpy blur sums the taps as scipy.ndimage does, so the bytes
        # match, on corrupt's [1,H,W] images and on stage-1 features
        rng = np.random.default_rng(length)
        for _ in range(4):
            data = rng.normal(size=shape).astype(np.float32)
            angle = rng.uniform(0, math.pi)
            kernel = motion_blur_kernel(length, angle)
            kernel = kernel.reshape((1,) * (len(shape) - 2) + kernel.shape)
            want = convolve(data, kernel, mode="nearest")
            got = _motion_blur(data, length, angle)
            assert got.dtype == np.float32
            assert got.tobytes() == want.tobytes()

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
        image, mask = load_sample(tmp_path, entry, manifest)
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
