"""Tests of the benchmark's own tracing: self time, coverage guard, names.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
import types

import pytest

import layers
from tracer import CoverageError, Tracer, check_coverage, inside, summarize


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_ms_subtracts_direct_children_only():
    clock = FakeClock()
    t = Tracer(clock=clock)
    t.open("outer")             # 0 .. 10 s
    clock.now = 1.0
    t.open("mid")               # 1 .. 6 s
    clock.now = 2.0
    t.open("leaf")              # 2 .. 4 s
    clock.now = 4.0
    t.close()
    clock.now = 6.0
    t.close()
    clock.now = 7.0
    t.open("leaf")              # 7 .. 8 s
    clock.now = 8.0
    t.close()
    clock.now = 10.0
    t.close()
    stats = summarize(t.spans)
    assert stats["outer"] == {"calls": 1, "ms": 10000.0, "self_ms": 4000.0}
    assert stats["mid"] == {"calls": 1, "ms": 5000.0, "self_ms": 3000.0}
    assert stats["leaf"] == {"calls": 2, "ms": 3000.0, "self_ms": 3000.0}
    assert inside(t.spans, "leaf", "mid") == 2000.0
    assert inside(t.spans, "leaf", "outer") == 3000.0
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0]


def test_overlapping_children_are_covered_once():
    # Spans from one thread never overlap, but the union must not
    # double-count if a caller hands in hand-built spans that do.
    spans = [["p", 0.0, 10.0, -1, ""], ["c", 1.0, 5.0, 0, ""],
             ["c", 3.0, 6.0, 0, ""]]
    assert summarize(spans)["p"]["self_ms"] == pytest.approx(5000.0)


@pytest.fixture
def fake_layer(monkeypatch):
    """A layer module plus a caller that imported the function by name."""
    lib = types.ModuleType("fake_layer_lib")
    lib.work = lambda x: x + 1
    caller = types.ModuleType("fake_layer_caller")
    caller.work = lib.work          # ``from fake_layer_lib import work``
    caller.run = lambda x: caller.work(x)
    monkeypatch.setitem(sys.modules, "fake_layer_lib", lib)
    monkeypatch.setitem(sys.modules, "fake_layer_caller", caller)
    return caller


def test_guard_fails_on_wrapper_at_stale_import_site(fake_layer):
    t = Tracer()
    t.wrap("fake_layer_lib", "work", "lib.work")
    assert fake_layer.run(1) == 2
    t.uninstall()
    with pytest.raises(CoverageError, match="lib.work"):
        check_coverage(summarize(t.spans), ["lib.work"])


def test_guard_passes_where_the_caller_looks_the_function_up(fake_layer):
    t = Tracer()
    original = fake_layer.work
    t.wrap("fake_layer_caller", "work", "lib.work")
    assert fake_layer.run(1) == 2
    t.uninstall()
    assert fake_layer.work is original
    check_coverage(summarize(t.spans), ["lib.work"])


def test_benchmark_json_lists_every_per_layer_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    assert declared == layers.per_layer_names()


def test_every_layer_names_its_predictions_per_workload():
    for name, spec in {**layers.LAYERS, **layers.DERIVED}.items():
        assert set(spec["runs_on"]) <= set(layers.ALL), name
        assert set(spec["moves"]) <= set(layers.ALL), name
