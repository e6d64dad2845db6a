"""Cross-entropy and Dice training objectives.

``combined_loss`` is one recorded op; ``ce_loss`` and ``dice_loss``
below are the chain of primitive ops that it replaced, kept as its
reference.
"""

import math

import numpy as np
import pytest

from augseg.autodiff import GradTape, Tensor, finite_diff_check, use_tape
from augseg.errors import ContractError, DimensionError
from augseg.losses import DICE_EPS, combined_loss, one_hot

from test_autodiff import add, div, getitem, log_softmax, mul, softmax, tsum


def ce_loss(logits, labels):
    """Reference: mean over pixels of -log softmax(logits)[target class]."""
    labels = np.asarray(labels)
    if logits.ndim != 4 or labels.ndim != 3:
        raise DimensionError("expect logits [N,K,H,W] and labels [N,H,W]")
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise DimensionError(
            f"labels shape {labels.shape} does not match logits {logits.shape}")
    picked = tsum(mul(log_softmax(logits, axis=1), one_hot(labels, k)))
    return mul(picked, -1.0 / (n * h * w))


def dice_loss(probs, target_one_hot):
    """Reference: 1 - mean over foreground classes of the smoothed Dice
    coefficient, with sums over batch and spatial axes per class."""
    k = probs.shape[1]
    inter = tsum(mul(probs, target_one_hot), axis=(0, 2, 3))
    psum = tsum(probs, axis=(0, 2, 3))
    tsum_ = tsum(Tensor(target_one_hot), axis=(0, 2, 3))
    dice = div(add(mul(inter, 2.0), DICE_EPS),
               add(add(psum, tsum_), DICE_EPS))
    return add(mul(tsum(getitem(dice, np.s_[1:])), -1.0 / (k - 1)), 1.0)


def composed_loss(logits, labels):
    """Reference: the loss as the chain of primitive tape ops."""
    target = one_hot(np.asarray(labels), logits.shape[1])
    return add(ce_loss(logits, labels),
               dice_loss(softmax(logits, axis=1), target))


def loss_and_vjp(loss_fn, logits, labels):
    leaf = Tensor(logits.copy(), requires_grad=True)
    with use_tape(GradTape()) as tape:
        loss = loss_fn(leaf, labels)
        tape.backward(loss)
    return loss.numpy(), leaf.grad


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
        probs = Tensor(np.full((1, 2, 4, 4), 0.5, np.float32))
        inter = float((0.5 * target[0, 1]).sum())
        psum = 0.5 * 16
        tsum = 8.0
        want = 1.0 - (2 * inter + DICE_EPS) / (psum + tsum + DICE_EPS)
        assert dice_loss(probs, target).item() == pytest.approx(want, rel=1e-5)

    def test_all_background_target(self):
        # foreground term collapses to eps / (sum p + eps)
        labels = np.zeros((1, 2, 2), dtype=np.int64)
        target = one_hot(labels, 2)
        probs = Tensor(np.full((1, 2, 2, 2), 0.5, np.float32))
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
            combined_loss(Tensor.zeros((1, 2, 4, 4)),
                          np.zeros((1, 3, 3), dtype=int))

    @pytest.mark.parametrize("shape", [(2, 3, 64, 64), (1, 2, 4, 4),
                                       (3, 5, 7, 9)])
    def test_float32_equals_composed_chain_bit_for_bit(self, shape):
        # (2, 3, 64, 64) is a default-network training batch
        rng = np.random.default_rng(sum(shape))
        logits = (rng.normal(size=shape) * 3).astype(np.float32)
        labels = rng.integers(0, shape[1], size=(shape[0],) + shape[2:])
        got, dz = loss_and_vjp(combined_loss, logits, labels)
        want, dz_ref = loss_and_vjp(composed_loss, logits, labels)
        assert got.dtype == np.float32 and dz.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(dz, dz_ref, rtol=1e-4, atol=1e-9)

    @pytest.mark.parametrize("shape", [(2, 3, 64, 64), (1, 2, 4, 4),
                                       (3, 5, 7, 9)])
    def test_float64_vjp_matches_composed_chain(self, shape):
        rng = np.random.default_rng(sum(shape) + 1)
        logits = rng.normal(size=shape) * 3
        labels = rng.integers(0, shape[1], size=(shape[0],) + shape[2:])
        # one class absent: its Dice term is the degenerate eps / (P + eps)
        labels[labels == shape[1] - 1] = 0
        got, dz = loss_and_vjp(combined_loss, logits, labels)
        want, dz_ref = loss_and_vjp(composed_loss, logits, labels)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert np.max(np.abs(dz - dz_ref)) <= 1e-12 * np.max(np.abs(dz_ref))

    def test_gradient_three_classes_batch_two(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, size=(2, 4, 4))
        err = finite_diff_check(lambda x: combined_loss(x, labels),
                                Tensor(rng.normal(size=(2, 3, 4, 4))))
        assert err < 1e-4


class TestLabelValidation:
    """Labels outside [0, K) or not whole numbers are refused, not wrapped
    into another class or truncated."""

    @pytest.mark.parametrize("fn", [
        lambda labels: one_hot(labels, 3),
        lambda labels: combined_loss(Tensor.zeros((1, 3, 1, 2)), labels)])
    def test_negative_label_rejected(self, fn):
        with pytest.raises(ContractError):
            fn(np.array([[[-1, 0]]]))

    @pytest.mark.parametrize("fn", [
        lambda labels: one_hot(labels, 3),
        lambda labels: combined_loss(Tensor.zeros((1, 3, 1, 2)), labels)])
    def test_non_integer_label_rejected(self, fn):
        for bad in (1.7, np.nan):
            with pytest.raises(ContractError):
                fn(np.array([[[bad, 0.0]]]))

    def test_whole_float_labels_accepted(self):
        np.testing.assert_array_equal(
            one_hot(np.array([[[2.0, 0.0]]]), 3),
            one_hot(np.array([[[2, 0]]]), 3))
