"""The program runs on its declared dependencies alone, loads no scipy,
and its tensor core defines only the functions the program uses."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import augseg

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_runtime_loads_no_scipy_module():
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
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_third_party_imports_equal_declared_dependencies():
    # every import in the package, function-level ones included, is the
    # standard library, the package itself or a declared dependency, and
    # every declared dependency is imported
    tomllib = pytest.importorskip("tomllib")
    pkg = pathlib.Path(augseg.__file__).parent
    imported = set()
    for path in pkg.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"augseg"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", d).group()
                           for d in declared}


def test_every_public_autodiff_function_is_used_by_the_library():
    # a tape op or helper that only the tests use lives in the tests: each
    # public top-level function of augseg.autodiff is named in another
    # module of the package or called inside autodiff itself, and each
    # private one is named anywhere in the package
    pkg = pathlib.Path(augseg.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in pkg.glob("*.py")}
    own = trees.pop("autodiff")
    functions = [node.name for node in own.body
                 if isinstance(node, ast.FunctionDef)]
    public = [name for name in functions if not name.startswith("_")]
    private = [name for name in functions if name.startswith("_")]
    called = {node.func.id for node in ast.walk(own)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    named_in_own = {node.id for node in ast.walk(own)
                    if isinstance(node, ast.Name)}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    assert {"matmul", "gelu", "conv2d", "finite_diff_check"} <= set(public)
    assert {"_record", "_im2col", "_erf"} <= set(private)
    assert [name for name in public if name not in called | named] == []
    assert [name for name in private
            if name not in named_in_own | named] == []


def _json_parsers(tree):
    """``json.load``/``json.loads`` references and ``from json import``
    statements under ``tree``."""
    return [node for node in ast.walk(tree)
            if (isinstance(node, ast.Attribute)
                and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json")
            or (isinstance(node, ast.ImportFrom) and node.module == "json")]


def test_json_is_parsed_only_by_read_json():
    # every JSON input goes through schema.read_json, so a missing,
    # non-UTF-8 or unparseable file fails the same way wherever it enters
    pkg = pathlib.Path(augseg.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in pkg.glob("*.py")}
    reader = next(node for node in trees["schema"].body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "read_json")
    inside = {id(node) for node in _json_parsers(reader)}
    assert len(inside) == 1
    outside = [f"{stem}.py:{node.lineno}" for stem, tree in sorted(trees.items())
               for node in _json_parsers(tree) if id(node) not in inside]
    assert outside == []
