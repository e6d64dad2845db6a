"""Every call site the benchmark's tracer wraps still exists in augseg.

``perfbench/layers.py`` names each traced function by the module where
its callers look it up and the attribute path there.  A refactor that
drops or renames one of those names fails here instead of in a traced
benchmark run.
"""

import importlib
import importlib.util
import pathlib

import pytest

LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


SITES = sorted({site for layer in _layers().values()
                for site in layer["sites"]})


def test_layers_name_sites():
    assert len(SITES) > 10


@pytest.mark.parametrize("module,attr", SITES,
                         ids=[f"{m}:{a}" for m, a in SITES])
def test_site_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        assert hasattr(owner, part), f"{module}.{attr}: no {part!r}"
        owner = getattr(owner, part)
    assert callable(owner), f"{module}.{attr} is not callable"
