"""Dice / HD95 against brute-force oracles; exact Wilcoxon vs enumeration."""

import itertools
import math

import numpy as np
import pytest

from augseg.errors import DimensionError
from augseg.metrics import (
    MetricsRecord,
    WilcoxonResult,
    boundary_pixels,
    dice_score,
    hd95,
    wilcoxon_signed_rank,
    write_metrics_csv,
)


# ----------------------------------------------------------------------
# independent oracles
# ----------------------------------------------------------------------
def oracle_boundary(mask):
    """Foreground pixel with any 4-neighbor background or out of bounds."""
    h, w = mask.shape
    pts = []
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if not (0 <= ni < h and 0 <= nj < w) or not mask[ni, nj]:
                    pts.append((i, j))
                    break
    return pts


def oracle_hd95(pred, gt, cls, spacing=1.0):
    bp = oracle_boundary(pred == cls)
    bg = oracle_boundary(gt == cls)
    if not bp and not bg:
        return 0.0
    if not bp or not bg:
        h, w = pred.shape
        return spacing * math.hypot(h, w)
    dists = []
    for p in bp:
        dists.append(min(math.dist(p, g) for g in bg))
    for g in bg:
        dists.append(min(math.dist(p, g) for p in bp))
    dists.sort()
    return spacing * dists[math.ceil(0.95 * len(dists)) - 1]


def oracle_wilcoxon_p(diffs):
    """Enumerate min(W+, W-) over every sign assignment."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    n = d.size
    order = np.argsort(np.abs(d), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(d)[order]
    i = 0
    while i < n:
        j = i
        while j < n and sorted_abs[j] == sorted_abs[i]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0
        i = j
    w_obs = min(ranks[d > 0].sum(), ranks[d < 0].sum())
    hits = 0
    for signs in itertools.product((1, -1), repeat=n):
        w_plus = sum(r for r, s in zip(ranks, signs) if s > 0)
        if min(w_plus, ranks.sum() - w_plus) <= w_obs + 1e-9:
            hits += 1
    return hits / 2 ** n


# ----------------------------------------------------------------------
# Dice
# ----------------------------------------------------------------------
class TestDiceScore:
    def test_identical_masks(self):
        m = np.zeros((6, 6), dtype=np.uint8)
        m[1:4, 1:4] = 1
        assert dice_score(m, m, 1) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((6, 6), dtype=np.uint8)
        b = np.zeros((6, 6), dtype=np.uint8)
        a[0:2, 0:2] = 1
        b[4:6, 4:6] = 1
        assert dice_score(a, b, 1) == 0.0

    def test_partial_overlap(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[0, 0:4] = 1          # |P| = 4
        b[0:2, 0:2] = 1        # |G| = 4, overlap = 2
        assert dice_score(a, b, 1) == 0.5

    def test_both_empty_is_one(self):
        z = np.zeros((3, 3), dtype=np.uint8)
        assert dice_score(z, z, 1) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.integers(0, 3, size=(12, 12)).astype(np.uint8)
            b = rng.integers(0, 3, size=(12, 12)).astype(np.uint8)
            for cls in (1, 2):
                assert dice_score(a, b, cls) == dice_score(b, a, cls)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            dice_score(np.zeros((2, 2)), np.zeros((3, 3)), 1)

    def test_counting_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = (rng.random((12, 12)) < 0.4).astype(np.uint8)
            b = (rng.random((12, 12)) < 0.4).astype(np.uint8)
            inter = int(((a == 1) & (b == 1)).sum())
            tot = int((a == 1).sum() + (b == 1).sum())
            want = 1.0 if tot == 0 else 2 * inter / tot
            assert dice_score(a, b, 1) == want


# ----------------------------------------------------------------------
# HD95
# ----------------------------------------------------------------------
class TestHd95:
    def test_identical_masks(self):
        m = np.zeros((8, 8), dtype=np.uint8)
        m[2:6, 2:6] = 1
        assert hd95(m, m, 1) == 0.0

    def test_single_pixels_three_apart(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.zeros((8, 8), dtype=np.uint8)
        a[4, 1] = 1
        b[4, 4] = 1
        assert hd95(a, b, 1) == 3.0

    def test_offset_squares_match_oracle(self):
        a = np.zeros((16, 16), dtype=np.uint8)
        b = np.zeros((16, 16), dtype=np.uint8)
        a[4:9, 4:9] = 1
        b[6:11, 4:9] = 1       # offset (2, 0)
        assert hd95(a, b, 1) == oracle_hd95(a, b, 1)

    def test_both_empty(self):
        z = np.zeros((10, 10), dtype=np.uint8)
        assert hd95(z, z, 1) == 0.0

    def test_one_empty_sentinel(self):
        a = np.zeros((10, 12), dtype=np.uint8)
        b = np.zeros((10, 12), dtype=np.uint8)
        b[3, 3] = 1
        assert hd95(a, b, 1) == pytest.approx(math.hypot(10, 12))

    def test_spacing_scales_distances(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.zeros((8, 8), dtype=np.uint8)
        a[2, 2] = 1
        b[2, 6] = 1
        assert hd95(a, b, 1, spacing=2.5) == pytest.approx(10.0)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = (rng.random((12, 12)) < 0.3).astype(np.uint8)
            b = (rng.random((12, 12)) < 0.3).astype(np.uint8)
            assert hd95(a, b, 1) == hd95(b, a, 1)

    def test_random_masks_match_oracle_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = (rng.random((12, 12)) < rng.uniform(0.05, 0.5)).astype(np.uint8)
            b = (rng.random((12, 12)) < rng.uniform(0.05, 0.5)).astype(np.uint8)
            assert hd95(a, b, 1) == oracle_hd95(a, b, 1)

    def test_boundary_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.random((10, 10)) < 0.5
            got = {tuple(p) for p in boundary_pixels(m)}
            assert got == set(oracle_boundary(m))


# ----------------------------------------------------------------------
# Wilcoxon signed-rank
# ----------------------------------------------------------------------
class TestWilcoxon:
    def test_all_positive_n5(self):
        res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0])
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(2 / 32)
        assert res.method == "exact"

    def test_symmetric_differences_center(self):
        res = wilcoxon_signed_rank([1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
        # W+ = W- = S/2: the union region covers everything
        assert res.p_value == pytest.approx(1.0)

    def test_all_zero_degenerate(self):
        res = wilcoxon_signed_rank([0.0, 0.0, 0.0])
        assert res.p_value == 1.0
        assert res.method == "degenerate"
        assert res.n == 0

    def test_zeros_dropped(self):
        res = wilcoxon_signed_rank([0.0, 1.0, 2.0, 0.0, 3.0])
        assert res.n == 3

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        for n in range(1, 13):
            for _ in range(4):
                d = np.round(rng.normal(size=n) * 3, 1)
                res = wilcoxon_signed_rank(d)
                if res.method == "degenerate":
                    continue
                assert res.p_value == pytest.approx(oracle_wilcoxon_p(d),
                                                    abs=1e-12), f"n={n} d={d}"

    def test_ties_get_average_ranks(self):
        res = wilcoxon_signed_rank([1.0, 1.0, -1.0, 2.0])
        # |d| ranks: (2+2+2)/... ties among three 1s -> rank 2 each; 2 -> 4
        assert res.statistic == pytest.approx(2.0)
        assert res.p_value == pytest.approx(oracle_wilcoxon_p([1, 1, -1, 2]))

    def test_normal_approximation_close_to_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            d = rng.normal(loc=0.3, size=15)
            exact = wilcoxon_signed_rank(d)
            assert exact.method == "exact"
            mu = 15 * 16 / 4.0
            sigma = math.sqrt(15 * 16 * 31 / 24.0)
            z = (exact.statistic - mu + 0.5) / sigma
            approx_p = min(1.0, 2 * 0.5 * (1 + math.erf(z / math.sqrt(2))))
            assert abs(exact.p_value - approx_p) < 0.02

    def test_large_n_uses_normal_approximation(self):
        rng = np.random.default_rng(7)
        res = wilcoxon_signed_rank(rng.normal(loc=1.0, size=40))
        assert res.method == "normal-approximation"
        assert 0.0 <= res.p_value <= 1.0


class TestEmission:
    def test_csv_roundtrip(self, tmp_path):
        rec = MetricsRecord(sample_id="s0", dice={1: 0.5, 2: 1.0},
                            hd95={1: 2.0, 2: 0.0}, mean_dice=0.75)
        path = tmp_path / "m.csv"
        write_metrics_csv(path, [rec])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sample_id,class,dice,hd95"
        assert lines[1].startswith("s0,1,0.5")
        assert len(lines) == 3

    def test_wilcoxon_json(self):
        res = WilcoxonResult(n=5, statistic=0.0, p_value=0.0625, method="exact")
        import json
        data = json.loads(res.to_json())
        assert data == {"n": 5, "W": 0.0, "p": 0.0625, "method": "exact"}
