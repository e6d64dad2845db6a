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
synthesis output is cropped back.

The augmentation zeroes a random subset of coefficients per sub-band
(Bernoulli keep masks shared across batch, and across channels by
default) and reconstructs.  With W the orthonormal analysis and M the
0/1 mask, the map is W^T M W, which is symmetric, so ``wt_aug`` is one
recorded op whose adjoint is the same map applied to the gradient.
``haar_dwt2``/``haar_idwt2`` are the differentiable reference that
composes it from primitive tape ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _record, concat, reshape
from .errors import ContractError, DimensionError


@dataclass
class SubbandSet:
    """The LL/LH/HL/HH sub-bands of one feature map.

    ``orig_hw`` records the pre-padding spatial extents so that
    synthesis can crop; ``None`` means no padding was applied.
    """

    LL: Tensor
    LH: Tensor
    HL: Tensor
    HH: Tensor
    orig_hw: tuple | None = None

    def bands(self):
        return (self.LL, self.LH, self.HL, self.HH)


@dataclass
class MaskSet:
    """Binary keep-masks, one per sub-band, broadcastable to the bands."""

    M_LL: Tensor
    M_LH: Tensor
    M_HL: Tensor
    M_HH: Tensor

    def masks(self):
        return (self.M_LL, self.M_LH, self.M_HL, self.M_HH)

    def all_ones(self) -> bool:
        return all(np.all(m.numpy() == 1) for m in self.masks())


@dataclass
class WtAugConfig:
    """Masking configuration: per-sub-band keep probabilities and seed.

    ``channel_shared=True`` draws one [1,1,h,w] mask per sub-band that
    applies to every channel; False draws per-channel masks.
    """

    keep_prob: tuple = (0.8, 0.8, 0.8, 0.8)
    seed: int = 0
    channel_shared: bool = True

    def __post_init__(self):
        if len(self.keep_prob) != 4:
            raise ContractError("keep_prob needs one value per sub-band")
        for p in self.keep_prob:
            if not 0.0 <= p <= 1.0:
                raise ContractError(f"keep_prob {p} outside [0, 1]")


def _reflect_pad_to_even(f: Tensor):
    """Append a mirrored row/column where the extent is odd."""
    n, c, h, w = f.shape
    pad_h = h % 2
    pad_w = w % 2
    if pad_h:
        f = concat([f, f[:, :, h - 2:h - 1, :]], axis=2)
    if pad_w:
        f = concat([f, f[:, :, :, w - 2:w - 1]], axis=3)
    return f, (pad_h or pad_w)


def haar_dwt2(f: Tensor) -> SubbandSet:
    """Orthonormal single-level Haar analysis of a [N,C,H,W] map."""
    if f.ndim != 4:
        raise ContractError(f"haar_dwt2 expects rank 4, got rank {f.ndim}")
    n, c, h, w = f.shape
    if h < 2 or w < 2:
        raise ContractError("spatial extents must be >= 2")
    padded, was_padded = _reflect_pad_to_even(f)
    a = padded[:, :, 0::2, 0::2]
    b = padded[:, :, 0::2, 1::2]
    cc = padded[:, :, 1::2, 0::2]
    d = padded[:, :, 1::2, 1::2]
    ll = (a + b + cc + d) * 0.5
    lh = (a - b + cc - d) * 0.5
    hl = (a + b - cc - d) * 0.5
    hh = (a - b - cc + d) * 0.5
    return SubbandSet(ll, lh, hl, hh, orig_hw=(h, w) if was_padded else None)


def haar_idwt2(s: SubbandSet) -> Tensor:
    """Exact inverse of :func:`haar_dwt2`; crops any analysis padding."""
    shapes = {band.shape for band in s.bands()}
    if len(shapes) != 1:
        raise ContractError(f"sub-band shapes differ: {sorted(shapes)}")
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
        out = out[:, :, :h, :w]
    return out


def make_masks(spatial_shape, cfg: WtAugConfig, rng=None) -> MaskSet:
    """Draw one Bernoulli(keep_prob) mask per sub-band.

    ``spatial_shape`` is (h, w) of the sub-bands, or (c, h, w) when
    per-channel masks are wanted.  Deterministic given (cfg.seed, shape)
    when no rng is supplied.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if len(spatial_shape) == 2:
        shape = (1, 1) + tuple(spatial_shape)
    elif len(spatial_shape) == 3:
        shape = (1,) + tuple(spatial_shape)
    else:
        raise ContractError("spatial_shape must be (h, w) or (c, h, w)")
    drawn = []
    for p in cfg.keep_prob:
        if p >= 1.0:
            m = np.ones(shape, dtype=np.float32)
            rng.random(shape)  # keep the stream position independent of p
        elif p <= 0.0:
            m = np.zeros(shape, dtype=np.float32)
            rng.random(shape)
        else:
            m = (rng.random(shape) < p).astype(np.float32)
        drawn.append(Tensor(m))
    return MaskSet(*drawn)


def _check_mask_shape(mask_shape, band_shape):
    """Reject a mask that does not broadcast to the sub-band shape."""
    if len(mask_shape) > len(band_shape) or any(
            m not in (1, b) for m, b in zip(mask_shape[::-1], band_shape[::-1])):
        raise DimensionError(
            f"mask shape {mask_shape} does not broadcast to sub-band shape "
            f"{band_shape}")


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


def _pad_adjoint(gp, h, w):
    """Adjoint of appending a mirrored last row/column (odd extents)."""
    g = gp[:, :, :h, :w].copy()
    if gp.shape[3] > w:
        g[:, :, :, w - 2] += gp[:, :, :h, w]
    if gp.shape[2] > h:
        g[:, :, h - 2, :] += gp[:, :, h, :w]
        if gp.shape[3] > w:
            g[:, :, h - 2, w - 2] += gp[:, :, h, w]
    return g


def wt_aug(f: Tensor, cfg: WtAugConfig, rng=None, masks: MaskSet | None = None) -> Tensor:
    """Decompose, mask each sub-band, reconstruct.

    Output shape equals input shape and gradients flow through to ``f``.
    When every mask is all-ones the input is returned unchanged, which
    makes the identity configuration exact rather than merely within
    float rounding.  Odd extents are reflect-padded before the transform
    and cropped after it; the adjoint folds the padding back.
    """
    if f.ndim != 4:
        raise ContractError(f"wt_aug expects rank 4, got rank {f.ndim}")
    n, c, h, w = f.shape
    if h < 2 or w < 2:
        raise ContractError("spatial extents must be >= 2")
    ph, pw = h % 2, w % 2
    h2, w2 = (h + ph) // 2, (w + pw) // 2
    if masks is None:
        if cfg.channel_shared:
            masks = make_masks((h2, w2), cfg, rng)
        else:
            masks = make_masks((c, h2, w2), cfg, rng)
    for m in masks.masks():
        _check_mask_shape(m.shape, (n, c, h2, w2))
    if masks.all_ones():
        return f
    m_ll, m_lh, m_hl, m_hh = np.broadcast_arrays(
        *(m.numpy() for m in masks.masks()))
    m6 = np.stack([np.stack([m_ll, m_lh], axis=-1),
                   np.stack([m_hl, m_hh], axis=-1)], axis=-3)
    pad = ((0, 0), (0, 0), (0, ph), (0, pw))
    if ph or pw:
        y = _masked_haar(np.pad(f.data, pad, mode="reflect"), m6)[:, :, :h, :w]
        back = lambda g: (_pad_adjoint(_masked_haar(np.pad(g, pad), m6), h, w),)
    else:
        y = _masked_haar(f.data, m6)
        back = lambda g: (_masked_haar(g, m6),)
    return _record(Tensor(np.ascontiguousarray(y)), (f,), back)
