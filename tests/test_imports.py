"""The program loads only the scipy modules it runs, and its tensor core
defines only the functions the program uses."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import augseg


def test_runtime_loads_neither_scipy_stats_nor_scipy_spatial():
    # a fresh interpreter: this test process has the tests' scipy imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(augseg.__file__)))
    code = ("import json, sys\n"
            "import augseg, augseg.cli, augseg.selftest\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "augseg.selftest" in loaded
    heavy = [m for m in loaded
             if m.split(".")[:2] in (["scipy", "stats"], ["scipy", "spatial"])]
    assert heavy == []


def test_every_public_autodiff_function_is_used_by_the_library():
    # a tape op that only the tests use lives in the tests: each public
    # top-level function of augseg.autodiff is named in another module of
    # the package or called inside autodiff itself
    pkg = pathlib.Path(augseg.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in pkg.glob("*.py")}
    own = trees.pop("autodiff")
    public = [node.name for node in own.body
              if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")]
    used = {node.func.id for node in ast.walk(own)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert {"matmul", "gelu", "conv2d", "finite_diff_check"} <= set(public)
    assert [name for name in public if name not in used] == []
