"""Evaluation metrics: per-class Dice, 95th-percentile Hausdorff surface
distance, and the Wilcoxon signed-rank test.

Conventions (the degenerate cases are not standardized anywhere, so they
are pinned here):
  * Dice with both masks empty is 1.
  * HD95 is symmetric: both directed boundary-distance lists are pooled
    and the nearest-rank ceil(0.95 * n) entry of the sorted pool is
    returned.  Both masks empty -> 0; exactly one empty -> the image
    diagonal ``spacing * hypot(H, W)`` as a finite sentinel.
  * Boundary pixels are foreground pixels with at least one of their 4
    neighbors background, or lying on the image border.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.stats import rankdata

from .errors import ContractError, DimensionError

EXACT_WILCOXON_LIMIT = 20


@dataclass
class MetricsRecord:
    """Per-sample evaluation result."""

    sample_id: str
    dice: dict            # class -> Dice in [0, 1]
    hd95: dict            # class -> distance (pixels * spacing)
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
    """Coordinates [k, 2] of foreground pixels on the object surface."""
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise DimensionError("boundary extraction expects a 2-d mask")
    padded = np.pad(m, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1] &
                padded[1:-1, :-2] & padded[1:-1, 2:])
    border = np.zeros_like(m)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    on_surface = m & (~interior | border)
    return np.argwhere(on_surface)


def hd95(pred: np.ndarray, gt: np.ndarray, cls: int, spacing: float = 1.0) -> float:
    """Pooled symmetric 95th-percentile boundary distance for one class."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    bp = boundary_pixels(pred == cls)
    bg = boundary_pixels(gt == cls)
    if len(bp) == 0 and len(bg) == 0:
        return 0.0
    if len(bp) == 0 or len(bg) == 0:
        h, w = pred.shape
        return spacing * math.hypot(h, w)
    d = cdist(bp.astype(np.float64), bg.astype(np.float64))
    pooled = np.concatenate([d.min(axis=1), d.min(axis=0)])
    pooled.sort()
    rank = math.ceil(0.95 * pooled.size)      # nearest-rank, 1-indexed
    return spacing * float(pooled[rank - 1])


@dataclass
class WilcoxonResult:
    n: int                # pairs remaining after dropping zero differences
    statistic: float      # W = min(W+, W-)
    p_value: float
    method: str           # "exact" | "normal-approximation" | "degenerate"

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "W": self.statistic,
                           "p": self.p_value, "method": self.method})


def _exact_p(ranks: np.ndarray, w_obs: float) -> float:
    """P(W+ <= w or W+ >= S - w) over all 2^n sign assignments."""
    n = ranks.size
    s = float(ranks.sum())
    total = 1 << n
    hits = 0
    chunk = 1 << 16
    bits = (1 << np.arange(n, dtype=np.uint64))
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        signs = (idx[:, None] & bits[None, :]) != 0
        w_plus = signs @ ranks
        hits += int(np.count_nonzero((w_plus <= w_obs + 1e-9) |
                                     (w_plus >= s - w_obs - 1e-9)))
    return hits / total


def wilcoxon_signed_rank(differences) -> WilcoxonResult:
    """Two-sided signed-rank test on paired differences.

    Zero differences are dropped; ties in |d| get average ranks.  The
    exact null distribution is enumerated for n <= 20, above that a
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
    ranks = rankdata(np.abs(d))
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

