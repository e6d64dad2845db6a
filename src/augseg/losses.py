"""Training objective: equal-weight cross-entropy + soft Dice loss.

``combined_loss`` is one tape op.  With ``p = softmax(z)`` over the
class axis, ``t`` the one-hot target and sums over batch and pixels per
class ``k``, the loss is

    CE + Dice = -sum(t log p) / NHW
                + 1 - mean_{k>=1} (2 I_k + eps) / (P_k + T_k + eps)

with ``I_k = sum(p_k t_k)``, ``P_k = sum(p_k)`` and ``T_k = sum(t_k)``.
Its logits gradient is closed form: the CE term ``(p - t) / NHW`` plus
the soft-Dice quotient-rule term (Milletari et al. 2016) pulled back
through the softmax Jacobian.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _record, softmax_vjp
from .errors import ContractError, DimensionError

DICE_EPS = 1e-5


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """[N,H,W] class indices -> [N,K,H,W] float32 one-hot array.

    Labels must be integers in ``[0, num_classes)``; float labels must
    hold whole numbers.
    """
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biuf" or (
            labels.dtype.kind == "f" and not np.all(np.floor(labels) == labels)):
        raise ContractError("labels must be integer class indices")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ContractError(
            f"labels span [{labels.min()}, {labels.max()}], outside the range "
            f"[0, {num_classes}) of {num_classes} classes")
    n, h, w = labels.shape
    oh = np.zeros((n, num_classes, h, w), dtype=np.float32)
    np.put_along_axis(oh, labels[:, None, :, :].astype(np.int64), 1.0, axis=1)
    return oh


def combined_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy + soft Dice, both with coefficient 1, as one op.

    logits [N,K,H,W], labels [N,H,W].  CE is the mean over pixels of
    ``-log softmax(logits)[target]``; Dice is 1 minus the mean over the
    foreground classes of the smoothed Dice coefficient, summed over
    batch and spatial axes per class.  With an all-background target a
    class's coefficient degenerates to ``eps / (P_k + eps)``, which
    rewards predicting no foreground.  The forward makes the same numpy
    calls as the chain of primitive ops that the tests keep as its
    reference, so in float32 the two agree bit for bit.
    """
    labels = np.asarray(labels)
    if logits.ndim != 4 or labels.ndim != 3:
        raise DimensionError("expect logits [N,K,H,W] and labels [N,H,W]")
    n, k, h, w = logits.shape
    if labels.shape != (n, h, w):
        raise DimensionError(
            f"labels shape {labels.shape} does not match logits {logits.shape}")
    if k < 2:
        raise ContractError("need background + at least one foreground class")
    t = one_hot(labels, k)
    z = logits.data - np.max(logits.data, axis=1, keepdims=True)
    e = np.exp(z)
    s = np.sum(e, axis=1, keepdims=True)
    p = e / s
    f = p.dtype.type
    ce = np.sum((z - np.log(s)) * t) * f(-1.0 / (n * h * w))
    num = np.sum(p * t, axis=(0, 2, 3)) * f(2.0) + f(DICE_EPS)
    den = np.sum(p, axis=(0, 2, 3)) + np.sum(t, axis=(0, 2, 3)) + f(DICE_EPS)
    dice = f(1.0) - np.sum((num / den)[1:]) * f(1.0 / (k - 1))

    def back(g):
        # d Dice / d p_k = (num_k / den_k^2 - 2 t_k / den_k) / (K - 1), k >= 1
        gp = np.zeros_like(p)
        gp[:, 1:] = ((num / (den * den))[1:, None, None]
                     - t[:, 1:] * (2.0 / den[1:])[:, None, None])
        gp *= f(1.0 / (k - 1))
        dz = softmax_vjp(p, gp, axis=1)
        dz += (p - t) * f(1.0 / (n * h * w))
        dz *= g
        return (dz,)

    return _record(Tensor(ce + dice), (logits,), back)
