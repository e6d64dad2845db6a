"""Every test file and BENCH file that README.md cites exists."""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
CITED = sorted(set(re.findall(r"tests/\w+\.py|BENCH_\d+\.json",
                              (ROOT / "README.md").read_text())))


def test_readme_cites_tests_and_bench_files():
    assert any(c.startswith("tests/") for c in CITED)
    assert any(c.startswith("BENCH_") for c in CITED)


@pytest.mark.parametrize("path", CITED)
def test_cited_file_exists(path):
    assert (ROOT / path).is_file(), path
