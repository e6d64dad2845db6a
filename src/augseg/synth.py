"""Seeded synthetic segmentation data and the four corruption families.

Samples are grayscale [1,H,W] images in [0, 1] over a low-frequency
textured background, with 1-3 anti-aliased ellipses/rectangles of
distinct foreground classes.  The label mask is the exact center-in-shape
rasterization (the image edges are anti-aliased, the mask is crisp).

Corruptions (brightness, motion blur, Poisson noise, random pixel
masking) are pure functions of (values, spec); they never touch masks.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import convolve

from .autodiff import Tensor
from .errors import ContractError, FormatError, InputError, is_int, is_real
from .netpbm import read_pgm, write_pgm

CORRUPTION_KINDS = ("brightness", "motion_blur", "poisson", "rand_mask")

FG_FRACTION_RANGE = (0.05, 0.40)      # total foreground share of a sample
BACKGROUND_RANGE = (0.15, 0.45)       # background texture intensities
BACKGROUND_CELLS = 8                  # coarse noise grid extent


@dataclass
class SynthConfig:
    image_size: int = 64
    num_classes: int = 3                  # background + 2 foreground
    max_shapes: int = 3

    def __post_init__(self):
        # below 20 pixels the radius cap (0.45 * size) and the 1-pixel
        # margin can leave no room for a shape's centre
        if self.image_size < 20:
            raise ContractError(
                f"image_size must be at least 20, got {self.image_size}")
        # class indices are stored in uint8 masks
        if not 2 <= self.num_classes <= 256:
            raise ContractError(
                f"num_classes must be in [2, 256], got {self.num_classes}")


@dataclass
class Sample:
    image: np.ndarray     # [1,H,W] float32 in [0,1]
    mask: np.ndarray      # [H,W] uint8 class indices
    seed: int
    shapes: list          # generation parameters, for provenance


@dataclass
class CorruptionSpec:
    kind: str
    seed: int = 0
    factor: float = 1.3       # brightness multiplier
    length: int = 5           # motion blur extent in pixels
    scale: float = 60.0       # poisson photon scale
    drop_prob: float = 0.2    # rand_mask zeroing probability

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ContractError(f"unknown corruption kind {self.kind!r}")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ContractError("drop_prob outside [0, 1]")
        if self.length < 1 or self.scale <= 0 or self.factor < 0:
            raise ContractError("corruption strength outside documented range")


@lru_cache(maxsize=16)
def _noise_taps(size, cells):
    """Bilinear source indices and weights for ``_coarse_noise``.

    Memoised per (size, cells) like ``autodiff._interp_matrix``: every
    sample of a dataset upsamples the same grid extent.  The cached
    arrays are read-only.
    """
    src = (np.arange(size) + 0.5) * (cells / size) - 0.5
    src = np.clip(src, 0, cells - 1)
    i0 = np.floor(src).astype(int)
    i1 = np.minimum(i0 + 1, cells - 1)
    t = src - i0
    taps = (i0, i1,
            (1 - t)[:, None] * (1 - t)[None, :], (1 - t)[:, None] * t[None, :],
            t[:, None] * (1 - t)[None, :], t[:, None] * t[None, :])
    for a in taps:
        a.flags.writeable = False
    return taps


def _coarse_noise(rng, size, cells, lo, hi):
    """Low-frequency texture: bilinear upsample of a coarse uniform grid."""
    grid = rng.uniform(lo, hi, size=(cells, cells))
    i0, i1, w00, w01, w10, w11 = _noise_taps(size, cells)
    return grid[i0][:, i0] * w00 + grid[i0][:, i1] * w01 \
        + grid[i1][:, i0] * w10 + grid[i1][:, i1] * w11


def _reach(center, radius, size):
    """Pixels whose center lies within ``radius`` of ``center``, widened by
    one pixel for the sub-samples a third of a pixel off-center."""
    return slice(max(math.ceil(center - radius) - 1, 0),
                 min(math.floor(center + radius) + 2, size))


def _shape_coverage(kind, size, cy, cx, ry, rx, angle):
    """Anti-aliased coverage in [0,1] plus the exact center-inside mask,
    over the box of pixels the shape can reach.

    The center must lie inside the image.  Returns ``(box, coverage,
    center_in)``; the shape covers nothing outside ``box``, a pair of
    slices into the ``[size, size]`` image.  An ellipse reaches
    ``max(ry, rx)`` from its center and a rectangle ``hypot(ry, rx)``.  Each pixel is sampled on a 3x3 grid, laid out
    ``[3, 3, rows, cols]`` so the inner loops run along image columns;
    the middle offset is exactly 0, so the middle sample is the pixel
    center.
    """
    reach = max(ry, rx) if kind == "ellipse" else math.hypot(ry, rx)
    rows, cols = _reach(cy, reach, size), _reach(cx, reach, size)
    offs = (np.arange(3) + 0.5) / 3 - 0.5
    yy = np.arange(rows.start, rows.stop)[None, None, :, None] \
        + offs[:, None, None, None]
    xx = np.arange(cols.start, cols.stop)[None, None, None, :] \
        + offs[None, :, None, None]
    ca, sa = math.cos(angle), math.sin(angle)
    u = (yy - cy) * ca + (xx - cx) * sa
    v = -(yy - cy) * sa + (xx - cx) * ca
    if kind == "ellipse":
        inside = (u / ry) ** 2 + (v / rx) ** 2 <= 1.0
    else:
        inside = (np.abs(u) <= ry) & (np.abs(v) <= rx)
    return (rows, cols), inside.mean(axis=(0, 1)), inside[1, 1]


def gen_sample(seed: int, config: SynthConfig | None = None) -> Sample:
    """Deterministic sample for a seed; retries (seeded) until the total
    foreground fraction lands inside ``FG_FRACTION_RANGE``."""
    config = config or SynthConfig()
    size = config.image_size
    n_fg = config.num_classes - 1
    for attempt in range(64):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        bg = _coarse_noise(rng, size, BACKGROUND_CELLS, *BACKGROUND_RANGE)
        image = bg.astype(np.float64)
        mask = np.zeros((size, size), dtype=np.uint8)
        count = int(rng.integers(1, min(config.max_shapes, n_fg) + 1))
        classes = rng.choice(np.arange(1, n_fg + 1), size=count, replace=False)
        lo, hi = FG_FRACTION_RANGE
        shapes = []
        for cls in classes:
            kind = "ellipse" if rng.random() < 0.6 else "rect"
            area_target = rng.uniform(lo / count, hi / count) * size * size
            aspect = rng.uniform(0.5, 2.0)
            if kind == "ellipse":
                ry = math.sqrt(area_target * aspect / math.pi)
                rx = area_target / (math.pi * ry)
            else:
                ry = math.sqrt(area_target * aspect) / 2.0
                rx = area_target / (4.0 * ry)
            ry = min(ry, size * 0.45)
            rx = min(rx, size * 0.45)
            cy = rng.uniform(ry + 1, size - ry - 1)
            cx = rng.uniform(rx + 1, size - rx - 1)
            angle = rng.uniform(0, math.pi)
            box, coverage, center_in = _shape_coverage(kind, size, cy, cx,
                                                       ry, rx, angle)
            intensity = 0.55 + 0.17 * int(cls) + rng.normal(0, 0.02)
            # outside the box coverage is 0 and the blend leaves the
            # image exactly as it is
            image[box] = image[box] * (1 - coverage) + intensity * coverage
            mask[box][center_in] = cls
            shapes.append({"kind": kind, "class": int(cls), "cy": cy, "cx": cx,
                           "ry": ry, "rx": rx, "angle": angle,
                           "intensity": float(intensity)})
        frac = float((mask > 0).mean())
        if lo <= frac <= hi:
            image = np.clip(image, 0.0, 1.0).astype(np.float32)
            return Sample(image=image[None], mask=mask, seed=seed, shapes=shapes)
    raise ContractError(
        f"could not satisfy foreground band {FG_FRACTION_RANGE} "
        f"for seed {seed}")


# ----------------------------------------------------------------------
# corruptions
# ----------------------------------------------------------------------
def motion_blur_kernel(length: int, angle: float) -> np.ndarray:
    """Normalized line kernel: unit-weight samples splatted bilinearly."""
    size = length if length % 2 else length + 1
    k = np.zeros((size, size))
    c = size // 2
    steps = np.linspace(-(length - 1) / 2, (length - 1) / 2, 2 * length + 1)
    for t in steps:
        y = c + t * math.sin(angle)
        x = c + t * math.cos(angle)
        i0, j0 = int(math.floor(y)), int(math.floor(x))
        fy, fx = y - i0, x - j0
        for di, wy in ((0, 1 - fy), (1, fy)):
            for dj, wx in ((0, 1 - fx), (1, fx)):
                i, j = i0 + di, j0 + dj
                if 0 <= i < size and 0 <= j < size:
                    k[i, j] += wy * wx
    return k / k.sum()


def corrupt(image: np.ndarray, spec: CorruptionSpec) -> np.ndarray:
    """Apply one corruption to a [1,H,W] image in [0,1]."""
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 3 or img.shape[0] != 1:
        raise ContractError("corrupt expects a [1,H,W] image")
    img = img[0]
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "brightness":
        out = np.clip(img * spec.factor, 0.0, 1.0)
    elif spec.kind == "motion_blur":
        kernel = motion_blur_kernel(spec.length, rng.uniform(0, math.pi))
        out = convolve(img, kernel, mode="nearest").astype(np.float32)
        out = np.clip(out, 0.0, 1.0)
    elif spec.kind == "poisson":
        counts = rng.poisson(np.clip(img, 0, 1) * spec.scale)
        out = np.clip(counts / spec.scale, 0.0, 1.0).astype(np.float32)
    elif spec.kind == "rand_mask":
        keep = rng.random(img.shape) >= spec.drop_prob
        out = img * keep
    else:  # pragma: no cover - guarded by CorruptionSpec
        raise ContractError(f"unknown corruption kind {spec.kind!r}")
    return out[None].astype(np.float32)


def feature_spatial_aug(f: Tensor, spec: CorruptionSpec) -> Tensor:
    """The same four transforms applied per channel to a feature map.

    This is the ablation baseline arm; it acts on frozen encoder outputs,
    so only the brightness/rand_mask paths keep exact gradients (blur and
    Poisson noise enter as additive constants).  Feature values are not
    clamped.
    """
    if f.ndim != 4:
        raise ContractError("feature_spatial_aug expects a rank-4 tensor")
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "brightness":
        return f * float(spec.factor)
    if spec.kind == "rand_mask":
        if spec.drop_prob <= 0:
            return f
        keep = (rng.random((1, 1) + f.shape[2:]) >= spec.drop_prob)
        return f * Tensor(keep.astype(np.float32))
    if spec.kind == "motion_blur":
        kernel = motion_blur_kernel(spec.length, rng.uniform(0, math.pi))
        data = f.numpy()
        # a [1, 1, k, k] kernel blurs every (sample, channel) plane at once
        blurred = convolve(data, kernel[None, None], mode="nearest")
        return f + Tensor((blurred - data).astype(data.dtype))
    if spec.kind == "poisson":
        data = f.numpy()
        shifted = data - data.min(axis=(2, 3), keepdims=True)
        noisy = rng.poisson(shifted * spec.scale) / spec.scale
        return f + Tensor((noisy - shifted).astype(data.dtype))
    raise ContractError(f"unknown corruption kind {spec.kind!r}")


def random_corruption(rng, *, length_range=(3, 9), factor_range=(0.6, 1.5),
                      scale_range=(30.0, 120.0), drop_range=(0.05, 0.35),
                      kinds=CORRUPTION_KINDS) -> CorruptionSpec:
    """Draw a corruption kind and strength for one training application."""
    kind = kinds[int(rng.integers(0, len(kinds)))]
    return CorruptionSpec(
        kind=kind,
        seed=int(rng.integers(0, 2 ** 31)),
        factor=float(rng.uniform(*factor_range)),
        length=int(rng.integers(length_range[0], length_range[1] + 1)),
        scale=float(rng.uniform(*scale_range)),
        drop_prob=float(rng.uniform(*drop_range)),
    )


# random_corruption's range keywords, and what each end must be for every
# draw to be a valid CorruptionSpec
_STRENGTH_RANGES = {
    "length_range": ("integers >= 1", lambda x: is_int(x) and x >= 1),
    "factor_range": ("finite numbers >= 0", lambda x: 0 <= x < math.inf),
    "scale_range": ("finite numbers > 0", lambda x: 0 < x < math.inf),
    "drop_range": ("numbers in [0, 1]", lambda x: 0 <= x <= 1),
}


def check_strengths(strengths) -> None:
    """Reject ``TrainConfig.corruption_strengths`` that ``random_corruption``
    cannot take or cannot draw a valid spec from."""
    if not isinstance(strengths, dict):
        raise ContractError(
            f"corruption_strengths must be a dict, got {strengths!r}")
    for key, value in strengths.items():
        if key == "kinds":
            if (not isinstance(value, (list, tuple)) or not value
                    or not all(k in CORRUPTION_KINDS for k in value)):
                raise ContractError(
                    "corruption_strengths.kinds must be a non-empty list of "
                    f"{list(CORRUPTION_KINDS)}, got {value!r}")
        elif key in _STRENGTH_RANGES:
            what, ok = _STRENGTH_RANGES[key]
            if (not isinstance(value, (list, tuple)) or len(value) != 2
                    or not all(is_real(x) and ok(x) for x in value)
                    or value[0] > value[1]):
                raise ContractError(
                    f"corruption_strengths.{key} must be two {what} with "
                    f"low <= high, got {value!r}")
        else:
            raise ContractError(
                f"unknown corruption_strengths key {key!r}; expected one of "
                f"{[*_STRENGTH_RANGES, 'kinds']}")


# ----------------------------------------------------------------------
# dataset emission / loading
# ----------------------------------------------------------------------
def write_dataset(out_dir, train_seeds, test_seeds, config: SynthConfig | None = None):
    """Render seeded samples to PGM pairs plus a JSON manifest.

    Images are quantized to 8 bits on write; mask pixel value is the
    class index.  Train/test seed ranges must not overlap.
    """
    config = config or SynthConfig()
    if set(train_seeds) & set(test_seeds):
        raise ContractError("train and test seed ranges overlap")
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for split, seeds in (("train", train_seeds), ("test", test_seeds)):
        for seed in seeds:
            sample = gen_sample(seed, config)
            sid = f"{split}_{seed:06d}"
            img_name = f"{sid}.pgm"
            mask_name = f"{sid}_mask.pgm"
            write_pgm(os.path.join(out_dir, img_name),
                      np.round(sample.image[0] * 255).astype(np.uint8))
            write_pgm(os.path.join(out_dir, mask_name), sample.mask)
            entries.append({"id": sid, "split": split, "seed": seed,
                            "image": img_name, "mask": mask_name})
    manifest = {"image_size": config.image_size,
                "num_classes": config.num_classes,
                "samples": entries}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)
    return path


def load_manifest(path):
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"manifest not found: {path}")
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})")
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: the manifest must be a JSON object")
    for key in ("image_size", "num_classes", "samples"):
        if key not in manifest:
            raise FormatError(f"{path}: missing manifest key {key!r}")
    for key in ("image_size", "num_classes"):
        value = manifest[key]
        if not is_int(value):
            raise FormatError(f"{path}: {key} must be an integer, got "
                              f"{json.dumps(value)}")
    if not isinstance(manifest["samples"], list):
        raise FormatError(f"{path}: samples must be a list")
    for i, entry in enumerate(manifest["samples"]):
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: samples[{i}] must be an object")
        for key in ("id", "split", "image", "mask"):
            if not isinstance(entry.get(key), str):
                raise FormatError(
                    f"{path}: samples[{i}] needs a string {key!r}")
    return manifest


def load_sample(manifest_dir, entry, manifest=None):
    """Read one manifest entry back as float image in [0,1] plus mask.

    The mask must have the image's shape and, when the dataset
    ``manifest`` is given, the image must be its ``image_size`` square and
    every mask label below its ``num_classes``; otherwise a
    ``FormatError`` names the file.
    """
    image_path = os.path.join(manifest_dir, entry["image"])
    mask_path = os.path.join(manifest_dir, entry["mask"])
    image, mask = read_pgm(image_path), read_pgm(mask_path)
    if manifest is not None:
        size = manifest["image_size"]
        if image.shape != (size, size):
            raise FormatError(f"{image_path}: image is {_hw(image)}, the "
                              f"manifest says {size}x{size}")
    if mask.shape != image.shape:
        raise FormatError(f"{mask_path}: mask is {_hw(mask)}, its image "
                          f"{image_path} is {_hw(image)}")
    if manifest is not None:
        top = int(mask.max())
        if top >= manifest["num_classes"]:
            raise FormatError(f"{mask_path}: mask label {top}, the manifest "
                              f"says {manifest['num_classes']} classes")
    return image.astype(np.float32)[None] / 255.0, mask


def _hw(array):
    return "x".join(map(str, array.shape))
