"""Cross-entropy and Dice training objectives."""

import math

import numpy as np
import pytest

from augseg.autodiff import Tensor, finite_diff_check, softmax
from augseg.errors import ContractError, DimensionError
from augseg.losses import DICE_EPS, ce_loss, combined_loss, dice_loss, one_hot


class TestCeLoss:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 3, 5):
            logits = Tensor.zeros((1, k, 4, 4))
            labels = np.random.default_rng(k).integers(0, k, size=(1, 4, 4))
            loss = ce_loss(logits, labels).item()
            assert loss == pytest.approx(math.log(k), rel=1e-6)

    def test_saturated_correct_class(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=(1, 4, 4))
        logits = np.zeros((1, 3, 4, 4), dtype=np.float32)
        np.put_along_axis(logits, labels[:, None].astype(np.int64), 20.0, axis=1)
        assert ce_loss(Tensor(logits), labels).item() < 1e-6

    def test_invalid_label_rejected(self):
        with pytest.raises(ContractError):
            ce_loss(Tensor.zeros((1, 2, 2, 2)), np.full((1, 2, 2), 5))

    def test_gradient(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, size=(1, 3, 3))
        err = finite_diff_check(
            lambda x: ce_loss(x, labels),
            Tensor(rng.normal(size=(1, 3, 3, 3))))
        assert err < 1e-5


class TestDiceLoss:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 3, size=(2, 4, 4))
        target = one_hot(labels, 3)
        loss = dice_loss(target, target).item()
        assert loss < 1e-4

    def test_uniform_probs_equal_areas(self):
        # 4x4 target, half class 0 / half class 1, uniform probs 1/2:
        # evaluated directly from the written formula
        labels = np.zeros((1, 4, 4), dtype=np.int64)
        labels[0, 2:, :] = 1
        target = one_hot(labels, 2)
        probs = Tensor.full((1, 2, 4, 4), 0.5)
        inter = float((0.5 * target.numpy()[0, 1]).sum())
        psum = 0.5 * 16
        tsum = 8.0
        want = 1.0 - (2 * inter + DICE_EPS) / (psum + tsum + DICE_EPS)
        assert dice_loss(probs, target).item() == pytest.approx(want, rel=1e-5)

    def test_all_background_target(self):
        # foreground term collapses to eps / (sum p + eps)
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        target = one_hot(labels, 2)
        probs = Tensor.full((1, 2, 2, 2), 0.5)
        want = 1.0 - DICE_EPS / (2.0 + DICE_EPS)
        assert dice_loss(probs, target).item() == pytest.approx(want, rel=1e-4)

    def test_gradient(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 3, size=(1, 3, 3))
        target = one_hot(labels, 3)
        err = finite_diff_check(
            lambda x: dice_loss(softmax(x, axis=1), target),
            Tensor(rng.normal(size=(1, 3, 3, 3))))
        assert err < 1e-5


class TestCombinedLoss:
    def test_equals_sum_of_parts(self):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(1, 3, 4, 4)).astype(np.float32))
        labels = rng.integers(0, 3, size=(1, 4, 4))
        ce = ce_loss(logits, labels).item()
        dl = dice_loss(softmax(logits, axis=1), one_hot(labels, 3)).item()
        assert combined_loss(logits, labels).item() == pytest.approx(
            ce + dl, rel=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            logits = Tensor(rng.normal(size=(1, 3, 4, 4)).astype(np.float32) * 5)
            labels = rng.integers(0, 3, size=(1, 4, 4))
            assert combined_loss(logits, labels).item() >= 0.0

    def test_gradient(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 2, size=(1, 4, 4))
        err = finite_diff_check(lambda x: combined_loss(x, labels),
                                Tensor(rng.normal(size=(1, 2, 4, 4))))
        assert err < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ce_loss(Tensor.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3), dtype=int))
