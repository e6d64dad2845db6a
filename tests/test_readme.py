"""Every test file, test and BENCH file that README.md cites exists."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
CITED = sorted(set(re.findall(r"tests/\w+\.py|BENCH_\d+\.json", README)))
# tests/<file>.py::<Class>[::<test>]
NODE_IDS = sorted(set(re.findall(r"tests/\w+\.py(?:::\w+)+", README)))


def test_readme_cites_tests_and_bench_files():
    assert any(c.startswith("tests/") for c in CITED)
    assert any(c.startswith("BENCH_") for c in CITED)
    assert NODE_IDS


@pytest.mark.parametrize("path", CITED)
def test_cited_file_exists(path):
    assert (ROOT / path).is_file(), path


@pytest.mark.parametrize("node_id", NODE_IDS)
def test_cited_test_exists(node_id):
    # resolved in the parsed file, without importing it: each name is a
    # class or function defined in the body the previous name opens
    path, *names = node_id.split("::")
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in body
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        assert node is not None, node_id
        body = node.body
