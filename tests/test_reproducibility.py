"""Seeded outputs do not depend on the BLAS thread count the shell asks
for, and ``tools/recipe.py`` tells two runs apart.

Each run is a fresh interpreter, since the thread count is fixed when
numpy loads.  The runs of one test go concurrently.
"""

import json
import os
import subprocess
import sys

import numpy as np

import augseg
from augseg import daug
from augseg.synth import write_dataset

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(augseg.__file__)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _env(threads):
    """The environment with the BLAS thread variables unset or set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env.update(dict.fromkeys(THREAD_VARS, str(threads)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return env


def _run_all(jobs):
    """Start every (argv, env) job, then wait for all; each must exit 0."""
    procs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
             for argv, env in jobs]
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, out


def _tree(root):
    """Relative path -> bytes of every file under ``root``."""
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def test_train_outputs_equal_whatever_the_thread_variables(tmp_path):
    data = tmp_path / "data"
    write_dataset(data, range(4), range(100, 102))
    runs = {"unset": None, "one": 1, "two": 2}
    _run_all([([sys.executable, "-m", "augseg.cli", "train", "--data",
                str(data), "--out", str(tmp_path / name), "--epochs", "3",
                "--shots", "2", "--seed", "0", "--lr", "0.003", "--arm",
                "feature_wavelet"], _env(threads))
              for name, threads in runs.items()])
    trees = [_tree(tmp_path / name) for name in runs]
    assert "checkpoint/checkpoint.json" in trees[0]
    assert trees[0] == trees[1] == trees[2]


def test_reduced_recipe_digests_repeat(tmp_path):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import recipe; "
            "recipe.run(sys.argv[2], train_epochs=3, ablate_epochs=1)")
    runs = {"unset": None, "one": 1, "two": 2}
    _run_all([([sys.executable, "-c", code, os.path.join(REPO, "tools"),
                str(tmp_path / name)], _env(threads))
              for name, threads in runs.items()])
    sums = [(tmp_path / name / "SHA256SUMS").read_text() for name in runs]
    assert len(sums[0].splitlines()) > 300
    assert sums[0] == sums[1] == sums[2]


def test_compare_names_each_difference(tmp_path, capsys):
    sys.path.insert(0, os.path.join(REPO, "tools"))
    try:
        import recipe
    finally:
        sys.path.pop(0)
    runs = []
    for name, bump in (("a", 0.0), ("b", 0.25)):
        root = tmp_path / name
        root.mkdir()
        daug.write_tensor(root / "t.daug", np.arange(6.0).reshape(2, 3) + bump)
        (root / "log.csv").write_text(f"epoch,loss\n0,{1.5 + bump}\n")
        # nested keys only one side has are named by their dotted path
        config = {"use_cg_fuse": True, "encoder": {"seed": 0}}
        if name == "a":
            config["ccu_skip_augmented"] = False
        else:
            config["encoder"]["kind"] = "image"
        manifest = {"epoch": 1, "config": config} | (
            {"optimizer": {}} if name == "a" else {})
        (root / "checkpoint.json").write_text(json.dumps(manifest))
        (root / "same.txt").write_text("x")
        (root / f"only_{name}.txt").write_text(name)
        recipe.write_sums(root)
        runs.append(root)
    assert recipe.compare(*runs) == 5
    out = capsys.readouterr().out.splitlines()
    assert out == ["only in A: only_a.txt", "only in B: only_b.txt",
                   "differs: checkpoint.json: keys only in A: "
                   "config.ccu_skip_augmented, optimizer; "
                   "keys only in B: config.encoder.kind",
                   "differs: log.csv: max |delta| 0.25 over 1 cells",
                   "differs: t.daug: max |delta| 0.25",
                   "1 equal, 3 differ, 1 only in A, 1 only in B"]
    assert recipe.compare(runs[0], runs[0]) == 0
