"""Adam training loop, evaluation, and the augmentation-ablation harness.

Training is a pure function of (train config, network config, dataset):
the few-shot subset, per-epoch shuffling, and every augmentation draw
derive from named seed streams, so loss curves replay exactly.  Only
decoder/fusion/head parameters are updated; the encoder stays frozen.

Augmentation arms:
  * ``none``             no augmentation at all
  * ``image_level``      corrupt the input image before encoding
  * ``feature_spatial``  apply the same corruption families to each
                         encoder stage feature map
  * ``feature_wavelet``  wavelet-domain sub-band masking per stage
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import synth
from .autodiff import GradTape, Tensor, recording, use_tape
from .errors import (AugsegError, ContractError, InputError, check_seed,
                     is_int, is_real)
from .losses import combined_loss
from .metrics import (
    MetricsRecord,
    dice_score,
    hd95,
    mean_foreground_dice,
    wilcoxon_signed_rank,
    write_metrics_csv,
)
from .model import Network, NetworkConfig, load_checkpoint, save_checkpoint
from .synth import (check_strengths, feature_spatial_aug, load_manifest,
                    load_sample, random_corruption)
from .wavelet import wt_aug

ARMS = ("none", "image_level", "feature_spatial", "feature_wavelet")


class TrainingError(AugsegError):
    """Training aborted (e.g. non-finite loss)."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    batch_size: int = 2
    epochs: int = 300
    shots: int = 2
    seed: int = 0
    augmentation: str = "none"
    corruption_strengths: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (is_real(self.learning_rate)
                and 0 < self.learning_rate < math.inf):
            raise ContractError(
                "learning rate must be a positive finite number, got "
                f"{self.learning_rate!r}")
        for name in ("batch_size", "epochs", "shots"):
            value = getattr(self, name)
            if not is_int(value):
                raise ContractError(
                    f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ContractError(f"{name} must be at least 1, got {value}")
        check_seed(self.seed, "seed")
        if self.augmentation not in ARMS:
            raise ContractError(f"unknown augmentation arm {self.augmentation!r}")
        if not (is_real(self.eps) and 0 < self.eps < math.inf):
            raise ContractError(
                f"eps must be a positive finite number, got {self.eps!r}")
        if (not isinstance(self.betas, (tuple, list)) or len(self.betas) != 2
                or not all(is_real(b) and 0 <= b < 1 for b in self.betas)):
            raise ContractError(
                f"betas must be two numbers in [0, 1), got {self.betas!r}")
        self.betas = tuple(self.betas)
        check_strengths(self.corruption_strengths)


@dataclass
class AdamState:
    """Adam's moments and the gradients over one flat store.

    ``store`` is a [5, N] array of the parameters' dtype whose rows are
    the parameters, the first and second moments, the gradients and a
    scratch vector.  ``for_params`` rebinds each trainable's ``data`` to
    its slice of the parameter row and its ``grad`` to its zeroed slice
    of the gradient row, so ``GradTape.backward`` accumulates straight
    into the store.  ``tensors`` keeps the trainables; ``params`` and
    ``grads`` map the same names to their row views.
    """
    params: dict
    grads: dict
    tensors: dict
    store: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        dtypes = {p.dtype for p in params.values()}
        if len(dtypes) > 1:
            raise ContractError("parameters of one dtype expected, got "
                                f"{sorted(map(str, dtypes))}")
        sizes = [p.size for p in params.values()]
        store = np.zeros((5, sum(sizes)), dtype=next(iter(dtypes), np.float32))
        ends = np.cumsum(sizes)

        def views(row):
            return {name: row[end - p.size:end].reshape(p.shape)
                    for (name, p), end in zip(params.items(), ends)}

        flat, grads = views(store[0]), views(store[3])
        for name, p in params.items():
            flat[name][...] = p.data
            p.assign(flat[name])
            p.grad = grads[name]
        return cls(params=flat, grads=grads, tensors=dict(params),
                   store=store)


def adam_step(state: AdamState, cfg: TrainConfig):
    """One bias-corrected Adam update of the whole store, in place.

    Reads the gradients that backward accumulated into the store's
    gradient row and leaves that row zeroed for the next step.  Each
    ufunc call is one operation of the per-tensor expressions
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)`` and
    ``p = p - lr*m_hat/(sqrt(v_hat)+eps)``, taken in their order, so
    every element gets the bits a per-tensor update gives it.
    """
    if recording():
        raise ContractError(
            "cannot update parameters while a tape is recording")
    stale = [k for k, p in state.tensors.items()
             if p.data is not state.params[k] or p.grad is not state.grads[k]]
    if stale:
        raise ContractError(
            f"parameters {stale} are not bound to the optimizer store's views")
    p, m, v, g, a = state.store
    state.step += 1
    t = state.step
    b1, b2 = cfg.betas
    np.multiply(m, b1, out=m)
    np.add(m, np.multiply(g, 1 - b1, out=a), out=m)
    # past the first moment g is scratch: (1-b2)*(g*g), then sqrt(v_hat)+eps
    np.multiply(np.multiply(g, g, out=g), 1 - b2, out=g)
    np.add(np.multiply(v, b2, out=v), g, out=v)
    np.divide(m, 1 - b1 ** t, out=a)
    np.add(np.sqrt(np.divide(v, 1 - b2 ** t, out=g), out=g), cfg.eps, out=g)
    np.divide(np.multiply(a, cfg.learning_rate, out=a), g, out=a)
    np.subtract(p, a, out=p)
    g.fill(0)


def _rng(seed, epoch, stream):
    return np.random.default_rng(np.random.SeedSequence((seed, epoch, stream)))


def _make_feature_aug(arm, net_cfg, aug_rng, strengths):
    """forward's ``feature_aug`` for the arm; None if it augments none."""
    if arm == "feature_wavelet":
        return lambda f, i: wt_aug(f, net_cfg.wt_aug[i], rng=aug_rng)
    if arm == "feature_spatial":
        return lambda f, i: feature_spatial_aug(
            f, random_corruption(aug_rng, **strengths))
    return None


def few_shot_subset(entries, shots, seed):
    """First ``shots`` entries of a seeded shuffle of the training split."""
    if shots > len(entries):
        raise ContractError(
            f"{shots}-shot subset exceeds training split of {len(entries)}")
    order = np.random.default_rng(
        np.random.SeedSequence((seed, 0xF5))).permutation(len(entries))
    return [entries[i] for i in order[:shots]]


def _load_dataset(data_dir, net_cfg):
    """The dataset manifest, checked against the network's class count and
    image size before any sample is read."""
    path = os.path.join(data_dir, "manifest.json")
    manifest = load_manifest(path)
    if manifest["num_classes"] != net_cfg.num_classes:
        raise InputError(
            f"dataset has {manifest['num_classes']} classes, network expects "
            f"{net_cfg.num_classes}")
    if manifest["image_size"] != net_cfg.image_size:
        raise InputError(
            f"{path}: image_size {manifest['image_size']}, the network takes "
            f"{net_cfg.image_size}")
    return manifest


def train(train_cfg: TrainConfig, net_cfg: NetworkConfig, data_dir,
          out_dir=None, *, monitor=True):
    """Train on a few-shot subset; returns (network, log rows, chosen ids).

    Log rows are (epoch, mean train-mode loss, train_dice, step_dice).

    ``step_dice`` is the mean over the subset, in subset order, of each
    sample's foreground Dice from the argmax of the logits the epoch's
    loss saw: train mode, augmentation included.

    ``train_dice`` is the eval-mode Dice on the subset under the
    parameters the epoch's updates left.  The final row runs one batched
    eval forward for it.  When the arm is ``none`` and one batch covers
    the subset (``shots <= batch_size``), the next epoch's step forwards
    the whole subset under those same parameters with no augmentation, so
    row e takes row e+1's ``step_dice``; it is the eval forward's value
    bit for bit, since every op of the forward is per-sample.  The other
    rows carry NaN.

    With ``monitor=False`` both columns are NaN before the final row; the
    training itself is the same.  When ``out_dir`` is given, writes
    ``train_log.csv`` and a ``checkpoint/`` directory there.
    """
    deepest = net_cfg.encoder.strides[-1]
    if train_cfg.augmentation == "feature_wavelet" and \
            net_cfg.image_size < 2 * deepest:
        # the Haar step of WT-Aug needs every stage at least 2x2
        raise ContractError(
            f"feature_wavelet needs image_size >= {2 * deepest}: at image_size "
            f"{net_cfg.image_size} stage 4 (stride {deepest}) is 1x1")
    manifest = _load_dataset(data_dir, net_cfg)
    train_entries = [e for e in manifest["samples"] if e["split"] == "train"]
    chosen = few_shot_subset(train_entries, train_cfg.shots, train_cfg.seed)
    images, masks = (np.stack(a) for a in zip(*[
        load_sample(data_dir, e, manifest) for e in chosen]))
    net = Network(net_cfg)
    state = AdamState.for_params(net.trainable_parameters())
    # The encoder is frozen and a pure function of the image, so the clean
    # subset is encoded once per run, in one call; only image_level, whose
    # images change every epoch, re-encodes its training batches.
    stages = net.encode(Tensor(images))
    last = train_cfg.epochs - 1
    backfill = monitor and train_cfg.augmentation == "none" and \
        len(images) <= train_cfg.batch_size
    sample_dice = np.empty(len(images))
    log_rows = []
    tape = GradTape()
    for epoch in range(train_cfg.epochs):
        measure = monitor or epoch == last
        order = _rng(train_cfg.seed, epoch, 0).permutation(len(images))
        aug_rng = _rng(train_cfg.seed, epoch, 1)
        feature_aug = _make_feature_aug(
            train_cfg.augmentation, net_cfg, aug_rng,
            train_cfg.corruption_strengths)
        epoch_losses = []
        for start in range(0, len(order), train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            if train_cfg.augmentation == "image_level":
                # ``synth.corrupt`` is looked up at call time, so that
                # perfbench's tracer, which wraps it there, times each call
                batch = Tensor(np.stack([synth.corrupt(img, random_corruption(
                    aug_rng, **train_cfg.corruption_strengths))
                    for img in images[idx]]))
                batch_stages = None
            else:
                batch = Tensor(images[idx])
                batch_stages = [Tensor(s.data[idx]) for s in stages]
            with use_tape(tape):
                logits = net.forward(batch, mode="train",
                                     feature_aug=feature_aug,
                                     stages=batch_stages)
                loss = combined_loss(logits, masks[idx])
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise TrainingError(
                        f"non-finite loss {loss_val} at epoch {epoch}, "
                        f"batch {start // train_cfg.batch_size}")
                tape.backward(loss)
            adam_step(state, train_cfg)
            epoch_losses.append(loss_val)
            if measure:
                sample_dice[idx] = _sample_dice(logits.numpy(), masks[idx],
                                                net_cfg.num_classes)
        step_dice = float(np.mean(sample_dice)) if measure else math.nan
        if backfill and epoch > 0:
            log_rows[-1] = log_rows[-1][:2] + (step_dice, log_rows[-1][3])
        dice = math.nan
        if epoch == last:
            dice = _subset_dice(net, images, masks, stages,
                                net_cfg.num_classes)
        log_rows.append((epoch, float(np.mean(epoch_losses)), dice, step_dice))
    chosen_ids = [e["id"] for e in chosen]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "train_log.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "train_dice", "step_dice"])
            for epoch, *values in log_rows:
                writer.writerow([epoch] + [f"{v:.6f}" for v in values])
        save_checkpoint(os.path.join(out_dir, "checkpoint"), net,
                        epoch=train_cfg.epochs, seed=train_cfg.seed,
                        extra={"few_shot_ids": chosen_ids,
                               "augmentation": train_cfg.augmentation})
    return net, log_rows, chosen_ids


def _subset_dice(net, images, masks, stages, num_classes) -> float:
    """Eval-mode mean foreground Dice of the samples, in one batched forward.

    ``stages`` is the encoding of the stacked ``images``.
    """
    logits = net.forward(Tensor(images), mode="eval", stages=stages)
    return float(np.mean(_sample_dice(logits.numpy(), masks, num_classes)))


def _class_argmax(logits) -> np.ndarray:
    """``np.argmax(logits, axis=1)`` of [N, C, H, W] logits, as uint8.

    A running max over the classes, taking a class only where it is
    strictly greater, so ties go to the first class as in ``np.argmax``;
    C passes over [N, H, W] maps are cheaper than numpy's strided
    reduction along axis 1.  NaN makes the running max NaN, and then
    ``np.argmax`` decides, so its rule (the first NaN wins) holds.
    """
    best = logits[:, 0].copy()
    pred = np.zeros(best.shape, np.uint8)
    for c in range(1, logits.shape[1]):
        pred[logits[:, c] > best] = c
        np.maximum(best, logits[:, c], out=best)
    if np.isnan(best).any():
        return np.argmax(logits, axis=1).astype(np.uint8)
    return pred


def _sample_dice(logits, masks, num_classes) -> list:
    """Foreground Dice of the argmax of each sample of ``logits``
    [N, C, H, W] against ``masks`` [N, H, W], in that order."""
    return [mean_foreground_dice(pred, mask, num_classes)
            for pred, mask in zip(_class_argmax(logits), masks)]


def evaluate(net_or_ckpt, data_dir, split="test", csv_path=None):
    """Eval-mode metrics per sample; returns (records, summary dict)."""
    if isinstance(net_or_ckpt, Network):
        net = net_or_ckpt
    else:
        net, _ = load_checkpoint(net_or_ckpt)
    num_classes = net.config.num_classes
    manifest = _load_dataset(data_dir, net.config)
    entries = [e for e in manifest["samples"] if e["split"] == split]
    if not entries:
        raise InputError(f"no samples in split {split!r}")
    records = []
    for entry in entries:
        image, mask = load_sample(data_dir, entry, manifest)
        logits = net.forward(Tensor(image[None]), mode="eval")
        pred = _class_argmax(logits.numpy())[0]
        dice = {c: dice_score(pred, mask, c) for c in range(1, num_classes)}
        hd = {c: hd95(pred, mask, c) for c in range(1, num_classes)}
        records.append(MetricsRecord(
            sample_id=entry["id"], dice=dice, hd95=hd,
            mean_dice=float(np.mean(list(dice.values())))))
    summary = {
        "split": split,
        "count": len(records),
        "mean_dice": float(np.mean([r.mean_dice for r in records])),
        "mean_hd95": float(np.mean([v for r in records
                                    for v in r.hd95.values()])),
    }
    if csv_path:
        write_metrics_csv(csv_path, records)
    return records, summary


@dataclass
class ArmSpec:
    name: str
    augmentation: str = "none"
    use_cg_fuse: bool = True


def table6_arms():
    """The augmentation-strategy comparison arms."""
    return [ArmSpec("none", "none"),
            ArmSpec("image_level", "image_level"),
            ArmSpec("feature_spatial", "feature_spatial"),
            ArmSpec("feature_wavelet", "feature_wavelet")]


def table8_arms():
    """The module-toggle comparison arms (wavelet aug x fusion)."""
    return [ArmSpec("wtaug+cgfuse", "feature_wavelet", True),
            ArmSpec("cgfuse_only", "none", True),
            ArmSpec("wtaug_only", "feature_wavelet", False),
            ArmSpec("neither", "none", False)]


def ablation_run(arms, seeds, train_cfg: TrainConfig, net_cfg: NetworkConfig,
                 data_dir, out_dir=None):
    """Train/evaluate every (arm, seed) pair and compare arms.

    Per arm: mean and sd (over seeds) of the test-set mean Dice and mean
    HD95.  Pairwise Wilcoxon signed-rank tests run on per-sample Dice
    (averaged over seeds, paired by test sample).  A single arm yields a
    one-row table and no tests.
    """
    if not arms:
        raise ContractError("need at least one arm")
    if not seeds:
        raise ContractError("need at least one seed")
    results = {}
    for arm in arms:
        seed_means, seed_hd95s, sample_dices = [], [], []
        for seed in seeds:
            cfg = replace(train_cfg, seed=int(seed),
                          augmentation=arm.augmentation)
            run_net_cfg = replace(net_cfg, param_seed=int(seed),
                                  use_cg_fuse=arm.use_cg_fuse)
            net, _, _ = train(cfg, run_net_cfg, data_dir, monitor=False)
            records, summary = evaluate(net, data_dir, split="test")
            seed_means.append(summary["mean_dice"])
            seed_hd95s.append(summary["mean_hd95"])
            sample_dices.append([r.mean_dice for r in records])
        results[arm.name] = {
            "mean_dice": float(np.mean(seed_means)),
            "sd_dice": float(np.std(seed_means)),
            "mean_hd95": float(np.mean(seed_hd95s)),
            "sd_hd95": float(np.std(seed_hd95s)),
            "per_seed_dice": seed_means,
            "per_sample_dice": np.mean(np.asarray(sample_dices), axis=0),
        }
    tests = {}
    names = [a.name for a in arms]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            diffs = (results[names[i]]["per_sample_dice"] -
                     results[names[j]]["per_sample_dice"])
            tests[f"{names[i]}_vs_{names[j]}"] = wilcoxon_signed_rank(diffs)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "ablation.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["arm", "mean_dice", "sd_dice", "mean_hd95",
                             "sd_hd95", "seeds"])
            for name in names:
                r = results[name]
                writer.writerow([name, f"{r['mean_dice']:.6f}",
                                 f"{r['sd_dice']:.6f}", f"{r['mean_hd95']:.6f}",
                                 f"{r['sd_hd95']:.6f}", len(seeds)])
        with open(os.path.join(out_dir, "wilcoxon.json"), "w") as fh:
            json.dump({k: {"n": t.n, "W": t.statistic, "p": t.p_value,
                           "method": t.method} for k, t in tests.items()},
                      fh, indent=1)
    return results, tests
