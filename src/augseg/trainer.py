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
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import GradTape, Tensor, use_tape
from .errors import AugsegError, ContractError, InputError
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
from .synth import feature_spatial_aug, load_manifest, load_sample, random_corruption
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
        if self.learning_rate <= 0:
            raise ContractError("learning rate must be positive")
        for name in ("batch_size", "epochs", "shots"):
            if getattr(self, name) < 1:
                raise ContractError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        if self.augmentation not in ARMS:
            raise ContractError(f"unknown augmentation arm {self.augmentation!r}")


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(p.numpy()) for k, p in params.items()},
                   v={k: np.zeros_like(p.numpy()) for k, p in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState, cfg: TrainConfig):
    """One bias-corrected Adam update, in place on the parameter tensors."""
    missing = [k for k in params if k not in grads or grads[k] is None]
    if missing:
        raise ContractError(f"missing gradients for {missing}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.betas
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1 - b1) * g
        state.v[name] = b2 * state.v[name] + (1 - b2) * (g * g)
        m_hat = state.m[name] / (1 - b1 ** t)
        v_hat = state.v[name] / (1 - b2 ** t)
        p.assign(p.numpy() - cfg.learning_rate * m_hat /
                 (np.sqrt(v_hat) + cfg.eps))


def _rng(seed, epoch, stream):
    return np.random.default_rng(np.random.SeedSequence((seed, epoch, stream)))


def _make_feature_aug(arm, net_cfg, aug_rng, strengths):
    if arm == "feature_wavelet":
        return lambda f, i: wt_aug(f, net_cfg.wt_aug[i], rng=aug_rng)
    if arm == "feature_spatial":
        return lambda f, i: feature_spatial_aug(
            f, random_corruption(aug_rng, **strengths))
    return lambda f, i: f


def few_shot_subset(entries, shots, seed):
    """First ``shots`` entries of a seeded shuffle of the training split."""
    if shots > len(entries):
        raise ContractError(
            f"{shots}-shot subset exceeds training split of {len(entries)}")
    order = np.random.default_rng(
        np.random.SeedSequence((seed, 0xF5))).permutation(len(entries))
    return [entries[i] for i in order[:shots]]


def train(train_cfg: TrainConfig, net_cfg: NetworkConfig, data_dir,
          out_dir=None):
    """Train on a few-shot subset; returns (network, log rows, chosen ids).

    Log rows are (epoch, mean train-mode loss, eval-mode Dice on the
    training subset).  When ``out_dir`` is given, writes
    ``train_log.csv`` and a ``checkpoint/`` directory there.
    """
    manifest = load_manifest(os.path.join(data_dir, "manifest.json"))
    if manifest["num_classes"] != net_cfg.num_classes:
        raise InputError(
            f"dataset has {manifest['num_classes']} classes, network expects "
            f"{net_cfg.num_classes}")
    train_entries = [e for e in manifest["samples"] if e["split"] == "train"]
    chosen = few_shot_subset(train_entries, train_cfg.shots, train_cfg.seed)
    data = [load_sample(data_dir, e) for e in chosen]
    net = Network(net_cfg)
    trainables = net.trainable_parameters()
    if not net_cfg.use_cg_fuse:
        trainables = {k: v for k, v in trainables.items()
                      if not k.startswith("fusion.")}
    state = AdamState.for_params(trainables)
    # The encoder is frozen and a pure function of the image, so each
    # clean sample is encoded once per run; only image_level, whose
    # images change every epoch, re-encodes its training batches.
    stages = [net.encode(Tensor(image[None])) for image, _ in data]
    log_rows = []
    tape = GradTape()
    for epoch in range(train_cfg.epochs):
        order = _rng(train_cfg.seed, epoch, 0).permutation(len(data))
        aug_rng = _rng(train_cfg.seed, epoch, 1)
        epoch_losses = []
        for start in range(0, len(order), train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            images = [data[i][0] for i in idx]
            if train_cfg.augmentation == "image_level":
                images = [
                    _corrupt_image(img, aug_rng, train_cfg.corruption_strengths)
                    for img in images]
                batch_stages = None
            else:
                batch_stages = _stack_stages([stages[i] for i in idx])
            batch = Tensor(np.stack(images))
            labels = np.stack([data[i][1] for i in idx])
            feature_aug = _make_feature_aug(
                train_cfg.augmentation, net_cfg, aug_rng,
                train_cfg.corruption_strengths)
            with use_tape(tape):
                logits = net.forward(batch, mode="train",
                                     feature_aug=feature_aug,
                                     stages=batch_stages)
                loss = combined_loss(logits, labels)
                loss_val = loss.item()
                if not np.isfinite(loss_val):
                    raise TrainingError(
                        f"non-finite loss {loss_val} at epoch {epoch}, "
                        f"batch {start // train_cfg.batch_size}")
                tape.backward(loss)
            grads = {k: p.grad for k, p in trainables.items()}
            adam_step(trainables, grads, state, train_cfg)
            for p in trainables.values():
                p.zero_grad()
            epoch_losses.append(loss_val)
        log_rows.append((epoch, float(np.mean(epoch_losses)),
                         _subset_dice(net, data, stages, net_cfg.num_classes)))
    chosen_ids = [e["id"] for e in chosen]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "train_log.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss", "train_dice"])
            for row in log_rows:
                writer.writerow([row[0], f"{row[1]:.6f}", f"{row[2]:.6f}"])
        save_checkpoint(os.path.join(out_dir, "checkpoint"), net,
                        epoch=train_cfg.epochs, seed=train_cfg.seed,
                        optimizer_state=state,
                        extra={"few_shot_ids": chosen_ids,
                               "augmentation": train_cfg.augmentation})
    return net, log_rows, chosen_ids


def _corrupt_image(image, rng, strengths):
    from .synth import corrupt
    return corrupt(image, random_corruption(rng, **strengths))


def _stack_stages(per_sample):
    """Concatenate per-sample encoder stages into batch stages."""
    return [Tensor(np.concatenate([t.numpy() for t in stage]))
            for stage in zip(*per_sample)]


def _subset_dice(net, data, stages, num_classes) -> float:
    """Eval-mode mean foreground Dice of the samples, in one batched forward.

    ``stages`` are the per-sample encodings of ``data``'s images.
    """
    logits = net.forward(Tensor(np.stack([image for image, _ in data])),
                         mode="eval", stages=_stack_stages(stages))
    preds = np.argmax(logits.numpy(), axis=1).astype(np.uint8)
    return float(np.mean([mean_foreground_dice(pred, mask, num_classes)
                          for pred, (_, mask) in zip(preds, data)]))


def evaluate(net_or_ckpt, data_dir, split="test", csv_path=None):
    """Eval-mode metrics per sample; returns (records, summary dict)."""
    if isinstance(net_or_ckpt, Network):
        net = net_or_ckpt
    else:
        net, _ = load_checkpoint(net_or_ckpt)
    manifest = load_manifest(os.path.join(data_dir, "manifest.json"))
    num_classes = manifest["num_classes"]
    entries = [e for e in manifest["samples"] if e["split"] == split]
    if not entries:
        raise InputError(f"no samples in split {split!r}")
    records = []
    for entry in entries:
        image, mask = load_sample(data_dir, entry)
        logits = net.forward(Tensor(image[None]), mode="eval")
        pred = np.argmax(logits.numpy()[0], axis=0).astype(np.uint8)
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
            net, _, _ = train(cfg, run_net_cfg, data_dir)
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
