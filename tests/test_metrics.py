"""Dice / HD95 against brute-force oracles and scipy references; exact
Wilcoxon vs enumeration."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import rankdata, wilcoxon

from augseg import metrics
from augseg.errors import DimensionError
from augseg.metrics import (
    EXACT_WILCOXON_LIMIT,
    HD95_BLOCK,
    MetricsRecord,
    _average_ranks,
    _exact_p,
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


def padded_boundary(mask):
    """The padded-copy boundary extraction that the pad-free one replaced:
    coordinates in row-major order, as an array."""
    m = np.asarray(mask, dtype=bool)
    padded = np.pad(m, 1, constant_values=False)
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1] &
                padded[1:-1, :-2] & padded[1:-1, 2:])
    border = np.zeros_like(m)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    return np.argwhere(m & (~interior | border))


def oracle_hd95(pred, gt, cls):
    bp = oracle_boundary(pred == cls)
    bg = oracle_boundary(gt == cls)
    if not bp and not bg:
        return 0.0
    if not bp or not bg:
        h, w = pred.shape
        return math.hypot(h, w)
    dists = []
    for p in bp:
        dists.append(min(math.dist(p, g) for g in bg))
    for g in bg:
        dists.append(min(math.dist(p, g) for p in bp))
    dists.sort()
    return dists[math.ceil(0.95 * len(dists)) - 1]


def cdist_hd95(pred, gt, cls, rows=512):
    """HD95 from scipy's float64 Euclidean distances, the reference for
    ``hd95``'s integer squared distances.  ``cdist`` runs on ``rows``
    boundary points at a time so that noise masks fit in memory; the
    minima it pools are the same."""
    bp = boundary_pixels(pred == cls).astype(np.float64)
    bg = boundary_pixels(gt == cls).astype(np.float64)
    if len(bp) == 0 and len(bg) == 0:
        return 0.0
    if len(bp) == 0 or len(bg) == 0:
        h, w = pred.shape
        return math.hypot(h, w)
    row_min, col_min = [], np.inf
    for i in range(0, len(bp), rows):
        d = cdist(bp[i:i + rows], bg)
        row_min.append(d.min(axis=1))
        col_min = np.minimum(col_min, d.min(axis=0))
    pooled = np.concatenate(row_min + [col_min])
    pooled.sort()
    return float(pooled[math.ceil(0.95 * pooled.size) - 1])


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


def enumerated_exact_p(ranks, w_obs):
    """The 2^n sign enumeration that ``_exact_p`` replaced by counting."""
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

    @staticmethod
    def reference_cases():
        """Mask pairs: one-pixel objects, objects on the border and in the
        corners, 1-row and 1-column masks, one or both masks empty, and
        random masks."""
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(20):                       # one-pixel objects
            a = np.zeros((16, 20), np.uint8)
            b = np.zeros((16, 20), np.uint8)
            a[tuple(rng.integers(0, (16, 20)))] = 1
            b[tuple(rng.integers(0, (16, 20)))] = 1
            cases.append((a, b))
            blob = b.copy()
            blob[3:9, 5:14] = 1
            cases.append((a, blob))
        for sl in (np.s_[0:4, :], np.s_[:, -3:], np.s_[-1:, 2:9],
                   np.s_[0:5, 0:5], np.s_[-6:, -6:], np.s_[:, :]):
            a = np.zeros((12, 15), np.uint8)
            a[sl] = 1                             # touches the border
            b = (rng.random((12, 15)) < 0.3).astype(np.uint8)
            cases += [(a, b), (b, a)]
        for n in (1, 2, 9, 64):                  # 1-row and 1-column masks
            for _ in range(5):
                a = (rng.random((1, n)) < 0.4).astype(np.uint8)
                b = (rng.random((1, n)) < 0.4).astype(np.uint8)
                cases += [(a, b), (a.T, b.T)]
        z = np.zeros((9, 11), np.uint8)
        one = z.copy()
        one[4, 0] = 1
        cases += [(z, z), (z, one), (one, z)]
        for _ in range(40):
            p = rng.uniform(0.02, 0.7)
            cases.append(((rng.random((32, 24)) < p).astype(np.uint8),
                          (rng.random((32, 24)) < p).astype(np.uint8)))
        return cases

    def test_matches_cdist_reference_bit_for_bit(self):
        for a, b in self.reference_cases():
            got = hd95(a, b, 1)
            assert type(got) is float
            assert got.hex() == cdist_hd95(a, b, 1).hex(), (a, b)

    def test_wide_mask_distances_beyond_int32_squares(self):
        # 46,341^2 overflows int32, so masks this wide take int64 points
        a = np.zeros((2, 50_000), np.uint8)
        b = np.zeros((2, 50_000), np.uint8)
        a[0, [0, 1, 7]] = 1
        b[1, [46_341, 49_999]] = 1
        assert hd95(a, b, 1) == cdist_hd95(a, b, 1)
        assert hd95(a, b, 1) > 46_341

    def test_noise_pair_spanning_blocks_matches_cdist_with_bounded_memory(self):
        rng = np.random.default_rng(12)
        a = (rng.random((128, 128)) < 0.5).astype(np.uint8)
        b = (rng.random((128, 128)) < 0.5).astype(np.uint8)
        k, m = len(boundary_pixels(a)), len(boundary_pixels(b))
        assert k * m > 8 * HD95_BLOCK               # several blocks
        tracemalloc.start()
        try:
            got = hd95(a, b, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.hex() == cdist_hd95(a, b, 1).hex()
        # two int32 blocks and the minima, not the k x m matrix
        assert peak < 2 * 4 * HD95_BLOCK + (1 << 20), peak
        assert peak < k * m, peak

    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_block_size_does_not_change_the_result(self, monkeypatch, block):
        rng = np.random.default_rng(13)
        pairs = [((rng.random((20, 17)) < 0.4).astype(np.uint8),
                  (rng.random((20, 17)) < 0.2).astype(np.uint8))
                 for _ in range(10)]
        want = [hd95(a, b, 1) for a, b in pairs]
        monkeypatch.setattr(metrics, "HD95_BLOCK", block)
        assert [hd95(a, b, 1) for a, b in pairs] == want

    def test_boundary_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            m = rng.random((10, 10)) < 0.5
            got = {tuple(p) for p in boundary_pixels(m)}
            assert got == set(oracle_boundary(m))

    def test_boundary_matches_padded_reference_exactly(self):
        rng = np.random.default_rng(5)
        masks = [rng.random(shape) < rng.uniform(0.1, 0.9)
                 for shape in [(12, 12), (7, 10), (2, 5), (3, 3)] * 25]
        for n in (1, 2, 7):
            masks += [rng.random((1, n)) < 0.5, rng.random((n, 1)) < 0.5,
                      np.ones((1, n), bool), np.ones((n, 1), bool)]
        masks += [np.ones((1, 1), bool), np.zeros((1, 1), bool),
                  np.ones((6, 9), bool), np.zeros((6, 9), bool)]
        for m in masks:
            got = boundary_pixels(m)
            want = padded_boundary(m)
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_boundary_leaves_mask_unchanged(self):
        m = np.ones((5, 5), bool)
        boundary_pixels(m)
        assert m.all()


# ----------------------------------------------------------------------
# Wilcoxon signed-rank
# ----------------------------------------------------------------------
class TestAverageRanks:
    @staticmethod
    def assert_equals_rankdata(a):
        got = _average_ranks(a)
        want = rankdata(a)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes(), a

    def test_tie_heavy_inputs(self):
        rng = np.random.default_rng(14)
        for n in range(1, 63):
            for distinct in (1, 2, 3, 5):
                self.assert_equals_rankdata(
                    rng.integers(0, distinct, size=n).astype(np.float64))
                self.assert_equals_rankdata(
                    np.abs(np.round(rng.normal(size=n), 1)))

    def test_all_equal_and_single(self):
        for n in (1, 2, 3, 20, 62):
            self.assert_equals_rankdata(np.full(n, 0.25))
        self.assert_equals_rankdata(np.array([7.0]))

    def test_distinct_values(self):
        rng = np.random.default_rng(15)
        for n in (1, 5, 21, 62):
            self.assert_equals_rankdata(rng.normal(size=n))


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

    def test_counting_equals_enumeration_with_ties(self):
        rng = np.random.default_rng(8)
        for n in range(1, 17):
            for _ in range(8):
                # few distinct magnitudes, so most draws have tied ranks
                d = rng.integers(1, 5, size=n) * rng.choice((-1.0, 1.0),
                                                            size=n)
                ranks = rankdata(np.abs(d))
                w = min(ranks[d > 0].sum(), ranks[d < 0].sum())
                assert _exact_p(ranks, w) == enumerated_exact_p(ranks, w), d

    def test_counting_peak_memory_at_the_exact_limit(self):
        n = EXACT_WILCOXON_LIMIT
        ranks = rankdata(np.arange(1, n + 1) // 2)
        tracemalloc.start()
        try:
            p = _exact_p(ranks, 40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < p < 1.0
        assert peak < 1 << 20, peak

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

    @pytest.mark.parametrize("n", [21, 30, 45, 62])
    def test_exact_p_matches_scipy_above_twenty(self, n):
        # untied magnitudes, so scipy's exact method applies too
        rng = np.random.default_rng(n)
        for loc in (0.0, 0.2, 0.5):
            d = rng.normal(loc=loc, size=n)
            res = wilcoxon_signed_rank(d)
            want = wilcoxon(d, method="exact")
            assert res.method == "exact"
            assert res.statistic == want.statistic
            assert res.p_value == pytest.approx(want.pvalue, rel=1e-11)

    def test_int64_counts_exact_at_the_limit(self):
        # the same recurrence in Python integers, which cannot overflow
        n = EXACT_WILCOXON_LIMIT
        ranks = rankdata(np.arange(1, n + 1) // 3)
        doubled = [round(2 * r) for r in ranks]
        counts = [1] + [0] * sum(doubled)
        for r in doubled:
            counts = counts[:r] + [a + b for a, b in zip(counts[r:], counts)]
        top = len(counts) - 1
        for w in (0.0, 100.5, 700.0, ranks.sum() / 2):
            w2 = round(2 * w)
            hits = sum(c for t, c in enumerate(counts)
                       if t <= w2 or t >= top - w2)
            assert _exact_p(ranks, w) == hits / (1 << n), w

    def test_large_n_uses_normal_approximation(self):
        rng = np.random.default_rng(7)
        res = wilcoxon_signed_rank(rng.normal(loc=1.0, size=80))
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

