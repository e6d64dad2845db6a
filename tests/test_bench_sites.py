"""Every call site the benchmark patches still exists in augseg.

``perfbench/layers.py`` names each traced function by the module where
its callers look it up and the attribute path there, and
``perfbench/workloads.py``'s ``Probe`` wraps trainer and tape names for
the end-to-end timings.  A refactor that drops or renames one of those
names fails here instead of in a benchmark run.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

from augseg import autodiff, trainer
from augseg.model import Network

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
LAYERS_PY = PERFBENCH / "layers.py"


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


def _workloads():
    """``perfbench/workloads.py``, which imports its siblings by name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_probe_installs_and_restores_every_patch():
    owners = (trainer, autodiff.GradTape)
    before = [dict(vars(owner)) for owner in owners]
    probe = _workloads().Probe()
    try:
        probe.install()
        patched = list(probe._restore)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        probe.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys()
        assert all(after[k] is v for k, v in names.items())


def test_forward_takes_mode_third():
    # the tracer names forward spans by args[2] when mode is positional
    params = list(inspect.signature(Network.forward).parameters)
    assert params[:3] == ["self", "image", "mode"]
