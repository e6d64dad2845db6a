"""Single-level 2-d Haar analysis/synthesis and wavelet-domain masking.

The transform uses the orthonormal convention: for each disjoint 2x2
block [[a, b], [c, d]] (b right of a, c below a)

    LL = (a + b + c + d) / 2      low-pass both axes
    LH = (a - b + c - d) / 2      high-pass along the horizontal axis
    HL = (a + b - c - d) / 2      high-pass along the vertical axis
    HH = (a - b - c + d) / 2      diagonal detail

so synthesis is the transpose and reconstruction is exact, and the
total squared energy of the four sub-bands equals that of the source.
Odd spatial extents are reflect-padded to even before analysis and the
synthesis output is cropped back.  The map is its own inverse, so one
butterfly, ``_butterfly``, computes both analysis and synthesis.

The augmentation zeroes a random subset of coefficients per sub-band
(Bernoulli keep masks drawn from the caller's generator, shared across
batch, and across channels by default) and reconstructs.  With W the
orthonormal analysis and M the 0/1 mask, the map is W^T M W.  It acts on
the frozen encoder's stage maps, which carry no gradient, so ``wt_aug``
takes and returns plain arrays and is not a tape op.
``haar_dwt2``/``haar_idwt2`` expose the sub-bands as one plain numpy
array, [4, N, C, h, w] in LL, LH, HL, HH order: the layout ``make_masks``
draws and ``_as_blocks`` reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, is_real


@dataclass
class WtAugConfig:
    """Masking configuration: per-sub-band keep probabilities.

    ``channel_shared=True`` draws one [h,w] mask per sub-band that
    applies to every channel; False draws per-channel masks.
    """

    keep_prob: tuple = (0.8, 0.8, 0.8, 0.8)
    channel_shared: bool = True

    def __post_init__(self):
        if not isinstance(self.keep_prob, (tuple, list)) or \
                len(self.keep_prob) != 4:
            raise ContractError("keep_prob needs one value per sub-band")
        self.keep_prob = tuple(self.keep_prob)
        for p in self.keep_prob:
            if not (is_real(p) and 0.0 <= p <= 1.0):
                raise ContractError(f"keep_prob {p!r} is not a number in [0, 1]")


def _float_array(x) -> np.ndarray:
    """``x`` as an array, which must be float32 or float64."""
    arr = np.asarray(x)
    if arr.dtype not in (np.float32, np.float64):
        raise ContractError(f"expected a float32 or float64 array, got "
                            f"{type(x).__name__} of dtype {arr.dtype}")
    return arr


def haar_dwt2(x) -> np.ndarray:
    """Orthonormal single-level Haar analysis of a [N,C,H,W] array.

    Returns the [4, N, C, ceil(H/2), ceil(W/2)] sub-bands in LL, LH, HL,
    HH order.  Odd extents are reflect-padded; pass the source (H, W) to
    ``haar_idwt2`` to crop them back.
    """
    x = _float_array(x)
    if x.ndim != 4:
        raise ContractError(f"haar_dwt2 expects rank 4, got rank {x.ndim}")
    n, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ContractError("spatial extents must be >= 2")
    ph, pw = h % 2, w % 2
    x = np.pad(x, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
    y = _butterfly(x.reshape(n, c, (h + ph) // 2, 2, (w + pw) // 2, 2))
    return np.ascontiguousarray(
        y.transpose(3, 5, 0, 1, 2, 4).reshape((4, n, c) + y.shape[2:5:2]))


def haar_idwt2(bands, hw=None) -> np.ndarray:
    """Exact inverse of :func:`haar_dwt2`: a [N,C,2h,2w] array from
    [4, N, C, h, w] sub-bands, cropped to ``hw`` = (H, W) when given."""
    bands = _float_array(bands)
    if bands.ndim != 5 or bands.shape[0] != 4:
        raise ContractError(
            f"haar_idwt2 expects [4, N, C, h, w] sub-bands, got shape "
            f"{list(bands.shape)}")
    _, n, c, h2, w2 = bands.shape
    x = _butterfly(_as_blocks(bands)).reshape(n, c, 2 * h2, 2 * w2)
    if hw is not None:
        h, w = hw
        if not (2 * h2 - 1 <= h <= 2 * h2 and 2 * w2 - 1 <= w <= 2 * w2):
            raise ContractError(
                f"crop {h}x{w} does not fit {h2}x{w2} sub-bands")
        x = np.ascontiguousarray(x[:, :, :h, :w])
    return x


def make_masks(band_shape, cfg: WtAugConfig, rng) -> np.ndarray:
    """Draw one Bernoulli(keep_prob) mask per sub-band from ``rng``.

    ``band_shape`` is (c, h, w) of the sub-bands.  Returns a float32
    [4, 1, c|1, h, w] array in LL, LH, HL, HH order, with one mask per
    channel or, when ``cfg.channel_shared``, one for all channels.  The
    masks are one ``rng.random`` draw, the four bands in turn.
    """
    c, h, w = band_shape
    shape = (4, 1, 1 if cfg.channel_shared else c, h, w)
    keep = np.reshape(cfg.keep_prob, (4, 1, 1, 1, 1))
    # random() draws from [0, 1), so p = 1 keeps all and p = 0 none
    return (rng.random(shape) < keep).astype(np.float32)


def _as_blocks(stack):
    """Lay a [4, ..., h, w] stack (LL, LH, HL, HH) out as contiguous
    (..., h, 2, w, 2) blocks [[LL, LH], [HL, HH]]."""
    return np.ascontiguousarray(
        stack.reshape((2, 2) + stack.shape[1:]).transpose(2, 3, 4, 0, 5, 1))


def _butterfly(x6):
    """Orthonormal 2x2 Haar on (n, c, h/2, 2, w/2, 2) blocks; its own inverse.

    Block [[a, b], [c, d]] maps to [[LL, LH], [HL, HH]].
    """
    s = x6[..., 0] + x6[..., 1]          # a + b, c + d
    d = x6[..., 0] - x6[..., 1]          # a - b, c - d
    out = np.empty_like(x6)
    out[:, :, :, 0, :, 0] = s[:, :, :, 0] + s[:, :, :, 1]
    out[:, :, :, 1, :, 0] = s[:, :, :, 0] - s[:, :, :, 1]
    out[:, :, :, 0, :, 1] = d[:, :, :, 0] + d[:, :, :, 1]
    out[:, :, :, 1, :, 1] = d[:, :, :, 0] - d[:, :, :, 1]
    out *= 0.5
    return out


def _masked_haar(x, m6):
    """W^T M W on an even-extent [N,C,H,W] array."""
    n, c, h, w = x.shape
    x6 = x.reshape(n, c, h // 2, 2, w // 2, 2)
    return _butterfly(_butterfly(x6) * m6).reshape(x.shape)


def wt_aug(f, cfg: WtAugConfig, rng) -> np.ndarray:
    """Decompose a float [N,C,H,W] array, mask each sub-band with masks
    drawn from ``rng``, reconstruct.

    Output shape and dtype equal the input's.  When every mask is
    all-ones the input is returned unchanged, which makes the identity
    configuration exact rather than merely within float rounding.  Odd
    extents are reflect-padded before the transform and cropped after it.
    """
    f = _float_array(f)
    if f.ndim != 4:
        raise ContractError(f"wt_aug expects rank 4, got rank {f.ndim}")
    n, c, h, w = f.shape
    if h < 2 or w < 2:
        raise ContractError("spatial extents must be >= 2")
    ph, pw = h % 2, w % 2
    m = make_masks((c, (h + ph) // 2, (w + pw) // 2), cfg, rng)
    if m.all():
        return f
    if ph or pw:
        f = np.pad(f, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
    return np.ascontiguousarray(_masked_haar(f, _as_blocks(m))[:, :, :h, :w])
