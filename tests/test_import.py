"""``import edgeblock`` in a fresh interpreter stays light: scipy's graph
and dense linear-algebra modules load on first use, numba never.  The
benchmark's checked probes name functions that still exist."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import edgeblock

_PROBE = r"""
import json
import sys
import edgeblock
print(json.dumps({"numba": edgeblock.NUMBA_ENABLED, "modules": sorted(sys.modules)}))
"""


def _run_probe():
    env = dict(os.environ)
    # the child imports the same edgeblock as this process, installed or not
    src = str(Path(edgeblock.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_heavy_modules():
    got = _run_probe()
    assert got["numba"] is False
    for name in ("numba", "scipy.sparse.csgraph", "scipy.linalg"):
        assert not any(m == name or m.startswith(name + ".") for m in got["modules"]), name


def test_checked_benchmark_probes_exist():
    # a checked probe on a removed function would be listed as absent, and
    # the benchmark check it feeds would silently stop running
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    checked = [(mod, fn) for mod, fn, *_, is_checked in tracing.PROBES if is_checked]
    assert checked
    for mod, fn in checked:
        assert callable(getattr(importlib.import_module(f"edgeblock.{mod}"), fn, None)), (mod, fn)
