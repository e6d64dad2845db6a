"""Evaluation metrics: per-class Dice, 95th-percentile Hausdorff surface
distance, and the Wilcoxon signed-rank test.

Conventions (the degenerate cases are not standardized anywhere, so they
are pinned here):
  * Dice with both masks empty is 1.
  * HD95 is symmetric: both directed boundary-distance lists are pooled
    and the nearest-rank ceil(0.95 * n) entry of the sorted pool is
    returned.  Both masks empty -> 0; exactly one empty -> the image
    diagonal ``hypot(H, W)`` as a finite sentinel.
  * Boundary pixels are foreground pixels with at least one of their 4
    neighbors background, or lying on the image border.

Only numpy is used: HD95 works on integer squared distances and the
Wilcoxon ranks come from ``np.unique``, so both equal the scipy
``cdist``/``rankdata`` results bit for bit without loading those modules.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError

EXACT_WILCOXON_LIMIT = 20
# squared distances HD95 holds at once: 16 MB of int32 per block
HD95_BLOCK = 1 << 22


@dataclass
class MetricsRecord:
    """Per-sample evaluation result."""

    sample_id: str
    dice: dict            # class -> Dice in [0, 1]
    hd95: dict            # class -> distance in pixels
    mean_dice: float      # mean over foreground classes


def dice_score(pred: np.ndarray, gt: np.ndarray, cls: int) -> float:
    """2|P & G| / (|P| + |G|) for one class; both empty -> 1."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    p = pred == cls
    g = gt == cls
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int(np.logical_and(p, g).sum()) / denom


def mean_foreground_dice(pred, gt, num_classes) -> float:
    scores = [dice_score(pred, gt, c) for c in range(1, num_classes)]
    return float(np.mean(scores))


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Coordinates [k, 2] of foreground pixels on the object surface, in
    row-major order.

    Every foreground pixel on the image border is on the surface.  The
    rest, the pixels of ``[1:-1, 1:-1]``, are eroded in place with four
    shifted slices of the mask, so no padded copy is built.  The
    coordinates are split from flat indices, which is faster than
    ``np.argwhere`` on small masks.
    """
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise DimensionError("boundary extraction expects a 2-d mask")
    on_surface = m.copy()
    on_surface[1:-1, 1:-1] &= ~(m[:-2, 1:-1] & m[2:, 1:-1] &
                                m[1:-1, :-2] & m[1:-1, 2:])
    return np.stack(np.divmod(np.flatnonzero(on_surface), m.shape[1]),
                    axis=1)


def _min_squared_distances(a, b):
    """Row and column minima of the squared distances between the integer
    points ``a`` [k, 2] and ``b`` [m, 2].

    ``dy*dy + dx*dx`` is formed from two broadcasts over blocks of rows of
    ``a``, each of at most ``max(HD95_BLOCK, m)`` entries; the column
    minimum is kept across blocks.
    """
    ay, ax = a[:, 0], a[:, 1]
    by, bx = b[:, 0], b[:, 1]
    rows = max(1, HD95_BLOCK // len(b))
    row_min = np.empty(len(a), dtype=a.dtype)
    col_min = None
    for i in range(0, len(a), rows):
        sq = np.subtract.outer(ay[i:i + rows], by)
        sq *= sq
        dx = np.subtract.outer(ax[i:i + rows], bx)
        dx *= dx
        sq += dx
        sq.min(axis=1, out=row_min[i:i + rows])
        block_min = sq.min(axis=0)
        col_min = (block_min if col_min is None
                   else np.minimum(col_min, block_min, out=col_min))
        del sq, dx          # free this block before the next is formed
    return row_min, col_min


def hd95(pred: np.ndarray, gt: np.ndarray, cls: int) -> float:
    """Pooled symmetric 95th-percentile boundary distance for one class.

    The minima are taken over exact integer squared distances and only the
    selected one is square-rooted; ``sqrt`` is correctly rounded, so the
    result equals the float64 Euclidean distance bit for bit.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    bp = boundary_pixels(pred == cls)
    bg = boundary_pixels(gt == cls)
    if len(bp) == 0 and len(bg) == 0:
        return 0.0
    h, w = pred.shape
    if len(bp) == 0 or len(bg) == 0:
        return math.hypot(h, w)
    # int32 holds dy*dy + dx*dx while both offsets are below 2^15
    itype = np.int32 if max(h, w) <= 1 << 15 else np.int64
    pooled = np.concatenate(_min_squared_distances(bp.astype(itype),
                                                   bg.astype(itype)))
    pooled.sort()
    rank = math.ceil(0.95 * pooled.size)      # nearest-rank, 1-indexed
    return math.sqrt(pooled[rank - 1])


@dataclass
class WilcoxonResult:
    n: int                # pairs remaining after dropping zero differences
    statistic: float      # W = min(W+, W-)
    p_value: float
    method: str           # "exact" | "normal-approximation" | "degenerate"


def _average_ranks(a) -> np.ndarray:
    """Ranks 1..n of ``a`` in float64, ties sharing their average rank
    (scipy's ``rankdata``).  A run of ``c`` equal values ending at
    position ``e`` gets ``e - (c - 1)/2``, a whole or half number."""
    _, inverse, counts = np.unique(a, return_inverse=True,
                                   return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _exact_p(ranks: np.ndarray, w_obs: float) -> float:
    """P(W+ <= w or W+ >= S - w) over all 2^n sign assignments.

    Ranks are whole or half numbers, so doubled they are integers ``r_i``.
    The number of assignments with each value ``t`` of 2W+ is counted by
    adding one rank at a time, ``c'[t] = c[t] + c[t - r_i]``; p is the
    count in the two tails over 2^n.
    """
    doubled = np.rint(2 * ranks).astype(np.int64)
    top = int(doubled.sum())
    counts = np.zeros(top + 1, dtype=np.int64)
    counts[0] = 1
    for r in doubled:
        counts[r:] = counts[r:] + counts[:-r]
    t = np.arange(top + 1)
    w2 = round(2 * w_obs)
    hits = int(counts[(t <= w2) | (t >= top - w2)].sum())
    return hits / (1 << ranks.size)


def wilcoxon_signed_rank(differences) -> WilcoxonResult:
    """Two-sided signed-rank test on paired differences.

    Zero differences are dropped; ties in |d| get average ranks.  The
    exact null distribution is counted for n <= 20, above that a
    normal approximation with continuity and tie corrections is used.
    All differences zero gives the degenerate result p = 1.
    """
    d = np.asarray(differences, dtype=np.float64)
    if d.ndim != 1:
        raise ContractError("differences must be a 1-d sequence")
    d = d[d != 0]
    n = d.size
    if n == 0:
        return WilcoxonResult(n=0, statistic=0.0, p_value=1.0,
                              method="degenerate")
    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_WILCOXON_LIMIT:
        return WilcoxonResult(n=n, statistic=w, p_value=_exact_p(ranks, w),
                              method="exact")
    mu = n * (n + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(((counts ** 3 - counts)).sum()) / 48.0
    sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_term)
    z = (w - mu + 0.5) / sigma        # W <= mu, continuity-corrected
    p = 2.0 * 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return WilcoxonResult(n=n, statistic=w, p_value=min(1.0, p),
                          method="normal-approximation")


# ----------------------------------------------------------------------
# report emission
# ----------------------------------------------------------------------
def write_metrics_csv(path, records):
    """One row per (sample, class): sample_id, class, dice, hd95."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "class", "dice", "hd95"])
        for rec in records:
            for cls in sorted(rec.dice):
                writer.writerow([rec.sample_id, cls,
                                 f"{rec.dice[cls]:.6f}", f"{rec.hd95[cls]:.6f}"])

