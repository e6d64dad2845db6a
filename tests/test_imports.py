"""The program loads only the scipy modules it runs."""

import json
import os
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
