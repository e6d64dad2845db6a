"""Command-line interface.

Exit codes: 0 success; 1 input/format errors (one-line diagnostic on
stderr); 2 internal invariant violations.  ``AUGSEG_SEED`` provides the
default for every ``--seed`` flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__, daug
from .errors import AugsegError, InputError, InvariantError
from .model import EncoderSpec, NetworkConfig
from .netpbm import read_pgm, write_ppm
from .pca import feature_pca, pca_to_image
from .synth import SynthConfig, write_dataset
from .trainer import (
    TrainConfig,
    ablation_run,
    evaluate,
    table6_arms,
    table8_arms,
    train,
)
from .wavelet import WtAugConfig


def _default_seed() -> int:
    env = os.environ.get("AUGSEG_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise InputError(f"AUGSEG_SEED must be an integer, got {env!r}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="augseg",
                     description="Wavelet-augmented few-shot segmentation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("--count", type=int, required=True,
                   help="number of training samples")
    p.add_argument("--test-count", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--classes", type=int, default=3)

    p = sub.add_parser("train", help="train on a few-shot subset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with train/network sections")
    p.add_argument("--epochs", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--arm", choices=("none", "image_level", "feature_spatial",
                                     "feature_wavelet"))
    p.add_argument("--no-cg-fuse", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", help="per-sample metrics CSV")

    p = sub.add_parser("ablate", help="run the ablation harness")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("table6", "table8"), default="table6")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--shots", type=int, default=2)

    p = sub.add_parser("dwt", help="Haar-decompose a DAUG tensor")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("wt-aug", help="wavelet-domain mask augmentation")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--keep-prob", default="0.8,0.8,0.8,0.8",
                   help="per-sub-band keep probabilities, comma separated")

    p = sub.add_parser("metrics", help="Dice/HD95 between PGM mask files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("featviz", help="PCA color rendering of a feature map")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=None)

    sub.add_parser("selftest", help="run the built-in invariant suite")
    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = SynthConfig(image_size=args.size, num_classes=args.classes)
    train_seeds = range(seed, seed + args.count)
    test_seeds = range(seed + 1_000_000, seed + 1_000_000 + args.test_count)
    path = write_dataset(args.out, train_seeds, test_seeds, cfg)
    print(f"wrote {args.count}+{args.test_count} samples; manifest {path}")
    return 0


def _check_keys(path, where, blob, known):
    """Reject a config level that is not an object or has unknown keys."""
    if not isinstance(blob, dict):
        raise InputError(f"{path}: {where} must be a JSON object")
    unknown = sorted(set(blob) - set(known))
    if unknown:
        raise InputError(f"{path}: unknown key {unknown[0]!r} in {where}")


def _check_section(path, section, blob, cls):
    """Reject a config section whose keys are not fields of ``cls``."""
    _check_keys(path, f"section {section!r}", blob,
                [f.name for f in fields(cls)])


def _load_configs(args):
    train_kwargs, net_kwargs = {}, {}
    if args.config:
        try:
            with open(args.config) as fh:
                blob = json.load(fh)
        except FileNotFoundError:
            raise InputError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise InputError(f"{args.config}: invalid JSON ({exc})")
        _check_keys(args.config, "the top level", blob, ("train", "network"))
        train_kwargs = blob.get("train", {})
        net_kwargs = blob.get("network", {})
        _check_section(args.config, "train", train_kwargs, TrainConfig)
        _check_section(args.config, "network", net_kwargs, NetworkConfig)
        if "encoder" in net_kwargs:
            _check_section(args.config, "network.encoder",
                           net_kwargs["encoder"], EncoderSpec)
        wt_aug = net_kwargs.get("wt_aug", [])
        if not isinstance(wt_aug, list):
            raise InputError(
                f"{args.config}: section 'network.wt_aug' must be a JSON list")
        for i, entry in enumerate(wt_aug):
            _check_section(args.config, f"network.wt_aug[{i}]", entry,
                           WtAugConfig)
        if "betas" in train_kwargs:
            train_kwargs["betas"] = tuple(train_kwargs["betas"])
    for flag, key in (("epochs", "epochs"), ("shots", "shots"),
                      ("lr", "learning_rate"), ("batch_size", "batch_size"),
                      ("arm", "augmentation")):
        if getattr(args, flag) is not None:
            train_kwargs[key] = getattr(args, flag)
    if args.no_cg_fuse:
        net_kwargs["use_cg_fuse"] = False
    train_kwargs["seed"] = args.seed if args.seed is not None else _default_seed()
    return TrainConfig(**train_kwargs), NetworkConfig(**net_kwargs)


def _cmd_train(args) -> int:
    train_cfg, net_cfg = _load_configs(args)
    net, log_rows, chosen = train(train_cfg, net_cfg, args.data, args.out)
    last = log_rows[-1]
    print(f"trained {train_cfg.epochs} epochs on {chosen}; "
          f"final loss {last[1]:.4f}, train dice {last[2]:.4f}; "
          f"checkpoint in {os.path.join(args.out, 'checkpoint')}")
    return 0


def _cmd_eval(args) -> int:
    records, summary = evaluate(args.checkpoint, args.data, split=args.split,
                                csv_path=args.out)
    print(f"{summary['count']} samples: mean dice {summary['mean_dice']:.4f}, "
          f"mean hd95 {summary['mean_hd95']:.4f}")
    return 0


def _cmd_ablate(args) -> int:
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        raise InputError(f"--seeds must be comma-separated integers: {args.seeds}")
    arms = table6_arms() if args.mode == "table6" else table8_arms()
    train_cfg = TrainConfig(epochs=args.epochs, shots=args.shots)
    results, tests = ablation_run(arms, seeds, train_cfg, NetworkConfig(),
                                  args.data, args.out)
    for name, r in results.items():
        print(f"{name:18s} dice {r['mean_dice']:.4f} +/- {r['sd_dice']:.4f}  "
              f"hd95 {r['mean_hd95']:.2f}")
    for pair, t in tests.items():
        print(f"wilcoxon {pair}: W={t.statistic:.1f} p={t.p_value:.4f}")
    return 0


def _read_rank4(path):
    if not os.path.exists(path):
        raise InputError(f"tensor file not found: {path}")
    arr = daug.read_tensor(path)
    if arr.ndim != 4:
        raise InputError(f"{path}: expected a rank-4 tensor, got rank {arr.ndim}")
    return arr


def _cmd_dwt(args) -> int:
    from .autodiff import Tensor
    from .wavelet import haar_dwt2
    arr = _read_rank4(args.infile)
    bands = haar_dwt2(Tensor(arr.astype(np.float32, copy=False)))
    for name, band in zip(("LL", "LH", "HL", "HH"), bands.bands()):
        out = f"{args.out_prefix}_{name}.daug"
        daug.write_tensor(out, band.numpy())
        print(f"wrote {out}")
    return 0


def _cmd_wt_aug(args) -> int:
    from .autodiff import Tensor
    from .wavelet import wt_aug
    arr = _read_rank4(args.infile)
    try:
        probs = tuple(float(p) for p in args.keep_prob.split(","))
    except ValueError:
        raise InputError(f"--keep-prob must be comma-separated floats: "
                         f"{args.keep_prob}")
    if len(probs) != 4:
        raise InputError("--keep-prob needs exactly four values")
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = WtAugConfig(keep_prob=probs, seed=seed)
    out = wt_aug(Tensor(arr.astype(np.float32, copy=False)), cfg)
    daug.write_tensor(args.out, out.numpy())
    print(f"wrote {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    from .metrics import MetricsRecord, dice_score, hd95, write_metrics_csv
    if not os.path.exists(args.pred):
        raise InputError(f"prediction mask not found: {args.pred}")
    if not os.path.exists(args.gt):
        raise InputError(f"ground-truth mask not found: {args.gt}")
    pred = read_pgm(args.pred)
    gt = read_pgm(args.gt)
    dice = {c: dice_score(pred, gt, c) for c in range(1, args.classes)}
    hd = {c: hd95(pred, gt, c) for c in range(1, args.classes)}
    rec = MetricsRecord(sample_id=os.path.basename(args.pred), dice=dice,
                        hd95=hd, mean_dice=float(np.mean(list(dice.values()))))
    for c in sorted(dice):
        print(f"class {c}: dice {dice[c]:.4f} hd95 {hd[c]:.4f}")
    print(f"mean foreground dice {rec.mean_dice:.4f}")
    if args.out:
        write_metrics_csv(args.out, [rec])
    return 0


def _cmd_featviz(args) -> int:
    arr = _read_rank4(args.infile)
    if arr.shape[0] != 1:
        raise InputError("featviz expects a single [1,C,H,W] feature map")
    if arr.shape[1] < args.k:
        raise InputError(
            f"need at least k={args.k} channels, got {arr.shape[1]}")
    seed = args.seed if args.seed is not None else _default_seed()
    scores, eigvals, comps = feature_pca(arr, k=args.k, seed=seed)
    image = pca_to_image(scores, eigvals)
    if args.k < 3:
        pad = np.full(image.shape[:2] + (3 - args.k,), 128, dtype=np.uint8)
        image = np.concatenate([image, pad], axis=2)
    write_ppm(args.out, image[:, :, :3])
    print(f"wrote {args.out} (explained mass "
          f"{eigvals / max(eigvals.sum(), 1e-12)})")
    return 0


def _cmd_selftest(_args) -> int:
    from .selftest import run_selftest
    failures = run_selftest()
    if failures:
        raise InvariantError(f"{failures} selftest check(s) failed")
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "dwt": _cmd_dwt,
    "wt-aug": _cmd_wt_aug,
    "metrics": _cmd_metrics,
    "featviz": _cmd_featviz,
    "selftest": _cmd_selftest,
}


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("augseg: a subcommand is required", file=sys.stderr)
            return 1
        return _HANDLERS[args.command](args)
    except AugsegError as exc:
        print(f"augseg: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"augseg: invariant violation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # unexpected: treat as internal failure
        if os.environ.get("AUGSEG_DEBUG"):
            raise
        print(f"augseg: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
