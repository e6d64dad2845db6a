"""Run the seeded recipe and digest its outputs, or compare two runs.

    PYTHONPATH=src python tools/recipe.py --out DIR
    PYTHONPATH=src python tools/recipe.py --compare A B

``--out`` drives the ``augseg`` CLI in-process through one fixed, seeded
recipe: ``synth --count 8 --test-count 12 --seed 5``; every augmentation
arm with CG-Fuse on and off, each ``train --epochs 20 --seed 3 --lr
0.003`` then ``eval --out``; ``ablate`` for table6 and table8 with
``--seeds 0,1 --epochs 10``; and ``dwt`` and ``wt-aug`` on two fixed
tensors.  What the commands print goes to ``stdout.txt`` with ``DIR``
written as ``$OUT``, and ``SHA256SUMS`` lists the sha256 of every file in
``DIR``.  Two runs of one tree give equal digests; two trees whose seeded
outputs are byte-identical do too.

``--compare A B`` reads both ``SHA256SUMS`` and lists the files that are
only in one run or that differ.  For a differing DAUG tensor or CSV table
it gives the largest absolute difference of the numbers, and for a JSON
object the dotted paths of the keys only one side has, nested objects
included (``config.ccu_skip_augmented``).  It exits 1 if anything
differs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys

# augseg pins BLAS to one thread, which must happen before numpy loads
from augseg import daug
from augseg.cli import dispatch
from augseg.trainer import ARMS

import numpy as np

SUMS = "SHA256SUMS"


def run(out, train_epochs=20, ablate_epochs=10):
    """Run the recipe into ``out`` and write its ``SHA256SUMS``."""
    out = os.path.abspath(out)
    os.makedirs(out, exist_ok=True)
    data = os.path.join(out, "data")
    rng = np.random.default_rng(0)
    tensors = {"even": rng.normal(size=(1, 4, 8, 8)).astype(np.float32),
               "odd": rng.normal(size=(2, 3, 7, 9)).astype(np.float32)}
    steps = [["synth", "--count", "8", "--test-count", "12", "--seed", "5",
              "--out", data]]
    for arm in ARMS:
        for fuse in ("fuse", "nofuse"):
            run_dir = os.path.join(out, "train", f"{arm}_{fuse}")
            steps.append(["train", "--data", data, "--out", run_dir,
                          "--epochs", str(train_epochs), "--seed", "3",
                          "--lr", "0.003", "--arm", arm]
                         + (["--no-cg-fuse"] if fuse == "nofuse" else []))
            steps.append(["eval", "--checkpoint",
                          os.path.join(run_dir, "checkpoint"), "--data", data,
                          "--out", os.path.join(run_dir, "metrics.csv")])
    for mode in ("table6", "table8"):
        steps.append(["ablate", "--data", data, "--out",
                      os.path.join(out, "ablate", mode), "--mode", mode,
                      "--seeds", "0,1", "--epochs", str(ablate_epochs)])
    wave = os.path.join(out, "wavelet")
    os.makedirs(wave, exist_ok=True)
    for name, arr in tensors.items():
        path = os.path.join(wave, f"{name}.daug")
        daug.write_tensor(path, arr)
        steps.append(["dwt", "--in", path, "--out-prefix",
                      os.path.join(wave, f"{name}_sub")])
        steps.append(["wt-aug", "--in", path, "--out",
                      os.path.join(wave, f"{name}_aug.daug"), "--seed", "7",
                      "--keep-prob", "0.9,0.6,0.6,0.6"])
    log = []
    for argv in steps:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = dispatch(argv)
        if code != 0:
            raise SystemExit(f"recipe step failed ({code}): augseg "
                             + " ".join(argv))
        log.append("$ augseg " + " ".join(argv) + "\n" + printed.getvalue())
    with open(os.path.join(out, "stdout.txt"), "w") as fh:
        fh.write("".join(log).replace(out, "$OUT"))
    write_sums(out)


def write_sums(root):
    lines = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            if rel == SUMS:
                continue
            with open(path, "rb") as fh:
                lines.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {rel}\n")
    with open(os.path.join(root, SUMS), "w") as fh:
        fh.writelines(lines)


def read_sums(root):
    sums = {}
    with open(os.path.join(root, SUMS)) as fh:
        for line in fh:
            digest, rel = line.rstrip("\n").split("  ", 1)
            sums[rel] = digest
    return sums


def _numbers(cells):
    out = []
    for cell in cells:
        try:
            out.append(float(cell))
        except ValueError:
            out.append(cell)
    return out


def describe(a, b, rel):
    """How file ``rel`` differs between runs ``a`` and ``b``."""
    pa, pb = os.path.join(a, rel), os.path.join(b, rel)
    if rel.endswith(".daug"):
        x, y = daug.read_tensor(pa), daug.read_tensor(pb)
        if x.shape != y.shape or x.dtype != y.dtype:
            return f"{x.dtype}{list(x.shape)} vs {y.dtype}{list(y.shape)}"
        delta = np.abs(x.astype(np.float64) - y.astype(np.float64)).max()
        return f"max |delta| {delta:.3g}"
    if rel.endswith(".csv"):
        with open(pa, newline="") as fa, open(pb, newline="") as fb:
            ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
        if [len(r) for r in ra] != [len(r) for r in rb]:
            return f"{len(ra)} vs {len(rb)} rows of other widths"
        deltas, text = [], 0
        for row_a, row_b in zip(ra, rb):
            for x, y in zip(_numbers(row_a), _numbers(row_b)):
                if isinstance(x, float) and isinstance(y, float):
                    if x != y and not (math.isnan(x) and math.isnan(y)):
                        deltas.append(abs(x - y))
                elif x != y:
                    text += 1
        notes = []
        if deltas:
            notes.append(f"max |delta| {max(deltas):.3g} over {len(deltas)} "
                         "cells")
        if text:
            notes.append(f"{text} text cells")
        return ", ".join(notes) or "bytes differ"
    if rel.endswith(".json"):
        with open(pa) as fa, open(pb) as fb:
            ja, jb = json.load(fa), json.load(fb)
        if isinstance(ja, dict) and isinstance(jb, dict):
            only = {"A": [], "B": []}
            _key_diff(ja, jb, "", only)
            notes = [f"keys only in {side}: {', '.join(keys)}"
                     for side, keys in only.items() if keys]
            if notes:
                return "; ".join(notes)
    return "bytes differ"


def _key_diff(ja, jb, prefix, only):
    """Append to ``only["A"]``/``only["B"]`` the dotted paths of the keys
    that only ``ja``/``jb`` has, recursing into objects both sides have."""
    for key in sorted(set(ja) | set(jb)):
        if key not in jb:
            only["A"].append(prefix + key)
        elif key not in ja:
            only["B"].append(prefix + key)
        elif isinstance(ja[key], dict) and isinstance(jb[key], dict):
            _key_diff(ja[key], jb[key], f"{prefix}{key}.", only)


def compare(a, b):
    """Print the files that differ between runs ``a`` and ``b``; return
    how many do."""
    sa, sb = read_sums(a), read_sums(b)
    only_a = sorted(set(sa) - set(sb))
    only_b = sorted(set(sb) - set(sa))
    changed = sorted(r for r in set(sa) & set(sb) if sa[r] != sb[r])
    for rel in only_a:
        print(f"only in A: {rel}")
    for rel in only_b:
        print(f"only in B: {rel}")
    for rel in changed:
        print(f"differs: {rel}: {describe(a, b, rel)}")
    same = len(set(sa) & set(sb)) - len(changed)
    print(f"{same} equal, {len(changed)} differ, {len(only_a)} only in A, "
          f"{len(only_b)} only in B")
    return len(changed) + len(only_a) + len(only_b)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="run the recipe into this directory")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"),
                       help="list the files that differ between two runs")
    args = parser.parse_args(argv)
    if args.out:
        run(args.out)
        return 0
    return 1 if compare(*args.compare) else 0


if __name__ == "__main__":
    sys.exit(main())
