"""Run perfbench on two trees in interleaved pairs and summarize them.

    python tools/pairs.py PARENT CHANGE --workload W --pairs N --seconds S
        [--trace 0] [--set A] [--out F]

Run from the repository root.  PARENT and CHANGE are commits, or ``.`` for
the working tree with its untracked files (ignored ones left out).  Each
is exported with ``git archive`` into its own directory under one
temporary directory, removed after, so both sides run from sibling
directories.  Pair ``i`` runs ``perfbench/run.py --workload W --seed 7+i
--seconds S --trace T`` once in each tree; a coin seeded with 0 picks
which side runs first, and the pair records that order.

``--out`` writes the pairs in the BENCH format (``format``, ``parent``,
``change``, ``command``, ``env``, ``pairs``); if the file exists and holds
the same two trees, the new pairs are appended.  Each pair keeps both
sides' last perfbench line unedited, and for untraced runs the ungated
metrics of the report line before it as ``reported``.

For every gated metric of ``BENCHMARK.json`` the summary prints each
side's median and quartiles, how many pairs the change wins (ties count
for neither side) and the exact two-sided sign-test p over the pairs
that are not ties.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

FORMAT = (
    "One entry per parent/change pair of perfbench runs, in the order they "
    "ran, written by tools/pairs.py.  'order' is the order a seeded coin "
    "chose and the runs followed; 'parent' and 'change' are each side's "
    "last output line of perfbench/run.py, unedited, and 'reported' holds "
    "each side's ungated metrics from the report line before it (untraced "
    "runs only).")
COMMAND = ("python3 perfbench/run.py --workload <workload> --seed <seed> "
           "--seconds {seconds:g} --trace <trace>")
SIDES = ("parent", "change")
SEED = 7        # pair i runs perfbench seed SEED + i


def git(*args, env=None) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True, env=env).stdout.strip()


def resolve(ref: str) -> tuple[str, str]:
    """(tree-ish to export, label for the BENCH file) of a commit or ``.``."""
    if ref != ".":
        return ref, git("rev-parse", "--short", f"{ref}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        # a throwaway index, so the repository's own index is not touched
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git("add", "-A", env=env)
        tree = git("write-tree", env=env)
    return tree, f"working tree over {git('rev-parse', '--short', 'HEAD')}"


def export(treeish: str, dest: str) -> None:
    data = subprocess.run(["git", "archive", treeish], check=True,
                          capture_output=True).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def perfbench(tree, workload, seed, seconds, trace) -> tuple[dict, dict]:
    """(report, result): the last two output lines of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}",
         "--trace", str(trace)], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def run_pairs(trees, *, workload, pairs, seconds, trace=0, coin=0,
              label="A", run=perfbench) -> tuple[list, dict]:
    """Run ``pairs`` pairs; ``trees`` maps each side to its directory.

    Returns the BENCH pair records and the environment of the first run.
    """
    flip = random.Random(coin)
    records, env = [], None
    for i in range(pairs):
        order = list(SIDES) if flip.random() < 0.5 else list(SIDES[::-1])
        record = {"set": label, "workload": workload, "seed": SEED + i,
                  "trace": trace, "order": order}
        reported = {}
        for side in order:
            report, result = run(trees[side], workload, SEED + i, seconds,
                                 trace)
            record[side] = result
            reported[side] = {k: v for k, v in report["metrics"].items()
                              if k not in result["metrics"]}
            if env is None:
                env = {k: v for k, v in report["env"].items() if k != "seed"}
        if not trace:
            record["reported"] = {side: reported[side] for side in SIDES}
        records.append(record)
    return records, env


def sign_test_p(wins: int, n: int) -> float:
    """Exact two-sided sign-test p of ``wins`` out of ``n`` untied pairs."""
    k = min(wins, n - wins)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n)


def summarize(records, gated) -> list[dict]:
    """Per gated metric in both sides of every record: each side's median
    and quartiles, the change's wins, the untied pairs and the sign-test p.

    ``gated`` is ``BENCHMARK.json``'s ``end_to_end`` list.
    """
    rows = []
    for metric in gated:
        name = metric["name"]
        values = {side: [r[side]["metrics"][name]["value"] for r in records
                         if name in r["parent"]["metrics"]
                         and name in r["change"]["metrics"]]
                  for side in SIDES}
        if not values["parent"]:
            continue
        sign = 1 if metric["better"] == "lower" else -1
        deltas = [sign * (p - c) for p, c in zip(values["parent"],
                                                 values["change"])]
        wins = sum(d > 0 for d in deltas)
        untied = sum(d != 0 for d in deltas)
        row = {"metric": name, "better": metric["better"], "wins": wins,
               "untied": untied, "p": sign_test_p(wins, untied)}
        for side in SIDES:
            q1, med, q3 = np.percentile(values[side], [25, 50, 75])
            row[side] = {"median": float(med), "q1": float(q1),
                         "q3": float(q3)}
        rows.append(row)
    return rows


def print_summary(workload, records, gated) -> None:
    first = sum(r["order"][0] == "parent" for r in records)
    print(f"{workload}: {len(records)} pairs, parent first in {first}")
    for row in summarize(records, gated):
        sides = "  ".join(
            f"{side} {row[side]['median']:.6g} "
            f"[{row[side]['q1']:.6g}, {row[side]['q3']:.6g}]"
            for side in SIDES)
        print(f"  {row['metric']:<20} {sides}  change wins "
              f"{row['wins']}/{row['untied']}  p={row['p']:.4g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", default="A", help="label of these pairs")
    parser.add_argument("--out", help="BENCH file to write or extend")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    with open("BENCHMARK.json") as fh:
        gated = json.load(fh)["end_to_end"]

    refs = {side: resolve(ref) for side, ref in
            zip(SIDES, (args.parent, args.change))}
    bench = {"format": FORMAT, "parent": refs["parent"][1],
             "change": refs["change"][1],
             "command": COMMAND.format(seconds=args.seconds),
             "env": None, "pairs": []}
    if args.out and os.path.exists(args.out):
        with open(args.out) as fh:
            held = json.load(fh)
        for key in ("parent", "change", "command"):
            if held[key] != bench[key]:
                parser.error(f"{args.out} holds {key} {held[key]!r}, "
                             f"not {bench[key]!r}")
        bench = held
    with tempfile.TemporaryDirectory() as root:
        trees = {side: os.path.join(root, side) for side in SIDES}
        for side in SIDES:
            export(refs[side][0], trees[side])
        records, env = run_pairs(
            trees, workload=args.workload, pairs=args.pairs,
            seconds=args.seconds, trace=args.trace, label=args.set)
    print_summary(args.workload, records, gated)
    if args.out:
        bench["env"] = bench["env"] or env
        bench["pairs"].extend(records)
        with open(args.out, "w") as fh:
            json.dump(bench, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
