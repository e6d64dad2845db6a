"""Command-line interface.

Exit codes: 0 success; 1 input/format errors and paths that cannot be
read or written (one-line diagnostic on stderr); 2 internal invariant
violations.  ``AUGSEG_SEED`` provides the default for every ``--seed``
flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, daug
from .autodiff import Tensor
from .errors import (AugsegError, InputError, InvariantError,
                     NumericDomainError, check_seed)
from .metrics import MetricsRecord, dice_score, hd95, write_metrics_csv
from .model import NetworkConfig
from .netpbm import read_pgm, write_ppm
from .pca import feature_pca, pca_to_image
from .schema import check_keys, check_section
from .synth import SynthConfig, write_dataset
from .trainer import (
    ARMS,
    TrainConfig,
    ablation_run,
    evaluate,
    table6_arms,
    table8_arms,
    train,
)
from .wavelet import WtAugConfig, haar_dwt2, wt_aug


def _seed(args) -> int:
    """``--seed``, else ``AUGSEG_SEED``, else 0."""
    if args.seed is not None:
        return check_seed(args.seed, "--seed")
    env = os.environ.get("AUGSEG_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        raise InputError(f"AUGSEG_SEED must be an integer, got {env!r}")
    return check_seed(seed, "AUGSEG_SEED")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="augseg",
                     description="Wavelet-augmented few-shot segmentation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--count", type=int, required=True,
                   help="number of training samples")
    p.add_argument("--test-count", type=int, default=0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--classes", type=int, default=3)

    p = sub.add_parser("train", help="train on a few-shot subset")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with train/network sections")
    p.add_argument("--epochs", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--arm", choices=ARMS)
    p.add_argument("--no-cg-fuse", action="store_true")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", help="per-sample metrics CSV")

    p = sub.add_parser("ablate", help="run the ablation harness")
    p.set_defaults(run=_cmd_ablate)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("table6", "table8"), default="table6")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--shots", type=int, default=2)

    p = sub.add_parser("dwt", help="Haar-decompose a DAUG tensor")
    p.set_defaults(run=_cmd_dwt)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("wt-aug", help="wavelet-domain mask augmentation")
    p.set_defaults(run=_cmd_wt_aug)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--keep-prob", default="0.8,0.8,0.8,0.8",
                   help="per-sub-band keep probabilities, comma separated")

    p = sub.add_parser("metrics", help="Dice/HD95 between PGM mask files")
    p.set_defaults(run=_cmd_metrics)
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("featviz", help="PCA color rendering of a feature map")
    p.set_defaults(run=_cmd_featviz)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=3)

    sub.add_parser("selftest", help="run the built-in invariant suite"
                   ).set_defaults(run=_cmd_selftest)
    return parser


# ----------------------------------------------------------------------
# subcommand implementations
# ----------------------------------------------------------------------
def _cmd_synth(args) -> int:
    seed = _seed(args)
    for flag, count in (("--count", args.count),
                        ("--test-count", args.test_count)):
        if count < 0:
            raise InputError(f"{flag} must be at least 0, got {count}")
    cfg = SynthConfig(image_size=args.size, num_classes=args.classes)
    train_seeds = range(seed, seed + args.count)
    test_seeds = range(seed + 1_000_000, seed + 1_000_000 + args.test_count)
    path = write_dataset(args.out, train_seeds, test_seeds, cfg)
    print(f"wrote {args.count}+{args.test_count} samples; manifest {path}")
    return 0


def _load_configs(args):
    train_kwargs, net_kwargs = {}, {}
    if args.config:
        try:
            with open(args.config) as fh:
                blob = json.load(fh)
        except FileNotFoundError:
            raise InputError(f"config file not found: {args.config}")
        except ValueError as exc:    # JSONDecodeError, UnicodeDecodeError
            raise InputError(f"{args.config}: invalid JSON ({exc})")
        check_keys(args.config, "the top level", blob, ("train", "network"))
        train_kwargs = blob.get("train", {})
        net_kwargs = blob.get("network", {})
        check_section(args.config, "train", train_kwargs, TrainConfig)
        check_section(args.config, "network", net_kwargs, NetworkConfig)
    for flag, key in (("epochs", "epochs"), ("shots", "shots"),
                      ("lr", "learning_rate"), ("batch_size", "batch_size"),
                      ("arm", "augmentation")):
        if getattr(args, flag) is not None:
            train_kwargs[key] = getattr(args, flag)
    if args.no_cg_fuse:
        net_kwargs["use_cg_fuse"] = False
    train_kwargs["seed"] = _seed(args)
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
    for s in seeds:
        check_seed(s, "--seeds entry")
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


_F32_MAX = float(np.finfo(np.float32).max)
# the Haar butterfly sums up to four values, so |x| <= max/4 keeps every
# sum of dwt and wt-aug finite in float32
_HAAR_LIMIT = _F32_MAX / 4


def _read_rank4(path, limit=_F32_MAX):
    if not os.path.exists(path):
        raise InputError(f"tensor file not found: {path}")
    arr = daug.read_tensor(path)
    if arr.ndim != 4:
        raise InputError(f"{path}: expected a rank-4 tensor, got rank {arr.ndim}")
    # NaN fails the comparison too; no float32 cast, so no overflow warning
    if not np.all(np.abs(arr) <= limit):
        raise NumericDomainError(f"{path}: tensor values must be finite and "
                                 f"at most {limit:.7g} in magnitude")
    return arr


def _cmd_dwt(args) -> int:
    arr = _read_rank4(args.infile, _HAAR_LIMIT)
    bands = haar_dwt2(arr.astype(np.float32, copy=False))
    for name, band in zip(("LL", "LH", "HL", "HH"), bands):
        out = f"{args.out_prefix}_{name}.daug"
        daug.write_tensor(out, band)
        print(f"wrote {out}")
    return 0


def _cmd_wt_aug(args) -> int:
    arr = _read_rank4(args.infile, _HAAR_LIMIT)
    try:
        probs = tuple(float(p) for p in args.keep_prob.split(","))
    except ValueError:
        raise InputError(f"--keep-prob must be comma-separated floats: "
                         f"{args.keep_prob}")
    if len(probs) != 4:
        raise InputError("--keep-prob needs exactly four values")
    out = wt_aug(Tensor(arr.astype(np.float32, copy=False)),
                 WtAugConfig(keep_prob=probs),
                 np.random.default_rng(_seed(args)))
    daug.write_tensor(args.out, out.numpy())
    print(f"wrote {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    if args.classes < 2:
        raise InputError(
            f"--classes must be at least 2 (background and one foreground "
            f"class), got {args.classes}")
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
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    arr = _read_rank4(args.infile)
    if arr.shape[0] != 1:
        raise InputError("featviz expects a single [1,C,H,W] feature map")
    if arr.shape[1] < args.k:
        raise InputError(
            f"need at least k={args.k} channels, got {arr.shape[1]}")
    scores, eigvals, comps = feature_pca(arr, k=args.k)
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


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("augseg: a subcommand is required", file=sys.stderr)
            return 1
        return args.run(args)
    except AugsegError as exc:
        print(f"augseg: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"augseg: invariant violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:    # a path that cannot be read or written
        print(f"augseg: {exc.filename}: {exc.strerror}"
              if exc.filename else f"augseg: {exc}", file=sys.stderr)
        return 1
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
