"""The numba path and the pure-Python fallback must agree bit for bit."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import edgeblock
from edgeblock._accel import DISABLE_ENV_VAR, NUMBA_ENABLED

# computed in whichever mode the current process runs, and re-computed in a
# child process running the other mode
_PROBE = r"""
import json
import numpy as np
import edgeblock as eb
from edgeblock._accel import NUMBA_ENABLED
from edgeblock.community import SweepParams, resolution_sweep
from edgeblock.generators import gnm_random_graph, with_random_weights
from edgeblock.seeding import rng_for

g = with_random_weights(gnm_random_graph(12, 22, 5), 5)
mean, se = eb.estimate_spread(g, [0, 3], 400, master_seed=42)
small = with_random_weights(gnm_random_graph(7, 11, 2), 2)
out = {
    "numba": NUMBA_ENABLED,
    "estimate": [repr(mean), repr(se)],
    "enumerate": repr(eb.enumerate_spread_exact(small, [1])),
    "bet": [repr(float(x)) for x in eb.edge_betweenness(g)],
    "wbet": [repr(float(x)) for x in eb.edge_betweenness(g, weighted=True)],
    "girth": repr(eb.girth(g)),
    "louvain": eb.louvain_partition(g, 1.0, rng_for(3, 1)).labels.tolist(),
    "sweep": resolution_sweep(
        g, SweepParams(resolution=0.05, factor=1.3, h1=2, h2=2, budget=5,
                       master_seed=9)).tolist(),
    "stats": repr(eb.graph_stats(g)),
}
print(json.dumps(out))
"""


def _run_probe(disable: bool):
    env = dict(os.environ)
    env[DISABLE_ENV_VAR] = "1" if disable else "0"
    # the child imports the same edgeblock as this process, installed or not
    src = str(Path(edgeblock.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fallback_flag_respected():
    got = _run_probe(disable=True)
    assert got["numba"] is False


@pytest.mark.skipif(not NUMBA_ENABLED, reason="already running on the fallback path")
def test_paths_agree_bitwise():
    jit = _run_probe(disable=False)
    plain = _run_probe(disable=True)
    assert jit["numba"] and not plain["numba"]
    for key in ("estimate", "enumerate", "bet", "wbet", "girth",
                "louvain", "sweep", "stats"):
        assert jit[key] == plain[key], key
