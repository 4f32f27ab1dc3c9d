"""``import edgeblock`` in a fresh interpreter stays light: it loads no
scipy module, and neither do the hardness lab and Jaccard weights;
``scipy.sparse`` loads at the first sparse kernel call, numba never.  The benchmark's checked probes
name functions that still exist, and still read the arguments and results
they check."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import edgeblock
from edgeblock.evaluation import budget_to_edge_count

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_PROBE = r"""
import json
import sys
import edgeblock
print(json.dumps({"numba": edgeblock.NUMBA_ENABLED, "modules": sorted(sys.modules)}))
"""

# the hardness sweep through the CLI, Jaccard weights, then a first sparse
# kernel call
_HARDNESS_PROBE = r"""
import contextlib
import io
import json
import sys
from edgeblock import cli
from edgeblock.graph import assign_jaccard_weights, from_edge_arrays, graph_stats

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.dispatch(["hardness", "verify", "--sweep-all-small", "3"])
after_hardness = scipy_modules()
g = assign_jaccard_weights(from_edge_arrays(3, [0, 1], [1, 2]))
after_jaccard = scipy_modules()
graph_stats(g)
print(json.dumps({"code": code, "after_hardness": after_hardness,
                  "after_jaccard": after_jaccard, "after_stats": scipy_modules()}))
"""

# runs a small grid under the benchmark's recorder, as perfbench/child.py
# does, and prints what the checked probes kept
_CHECKED_PROBES = r"""
import importlib.util
import json
import sys
from edgeblock.community import SweepParams
from edgeblock.evaluation import ExperimentConfig, run_experiment
from edgeblock.generators import planted_partition

spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
rec = tracing.Recorder(timed=False)
rec.install()
g = planted_partition(3, 10, 0.6, 0.05, 2)
run_experiment(g, ExperimentConfig(
    strategies=("community", "rndm", "clo", "bet"), budget_fractions=(0.05, 0.1),
    seed_fraction=0.1, seed_set_reps=1, cascade_reps=2,
    sweep=SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2)))
kept = rec.take_kept()
print(json.dumps({
    "absent": rec.absent, "m": g.m,
    "blocked": {span: [[k, ids.tolist()] for k, ids in kept.get(span, [])]
                for span in ("community.sweep", "strategies.select")},
    "scored": {span: len(kept.get(span, []))
               for span in ("centrality.closeness", "centrality.betweenness")},
}))
"""


def _run_probe(script=_PROBE, *args):
    env = dict(os.environ)
    # the child imports the same edgeblock as this process, installed or not
    src = str(Path(edgeblock.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_heavy_modules():
    got = _run_probe()
    assert got["numba"] is False
    for name in ("numba", "scipy"):
        assert not any(m == name or m.startswith(name + ".") for m in got["modules"]), name


def test_hardness_lab_loads_no_scipy():
    got = _run_probe(_HARDNESS_PROBE)
    assert got["code"] == 0
    assert got["after_hardness"] == []
    # common neighbors are a popcount over packed bits, not a sparse product
    assert got["after_jaccard"] == []
    # the control: the probe would see scipy once a sparse kernel loads it
    assert "scipy.sparse" in got["after_stats"]


def test_checked_benchmark_probes_exist():
    # a checked probe on a removed function would be listed as absent, and
    # the benchmark check it feeds would silently stop running
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    checked = [(mod, fn) for mod, fn, *_, is_checked in tracing.PROBES if is_checked]
    assert checked
    for mod, fn in checked:
        assert callable(getattr(importlib.import_module(f"edgeblock.{mod}"), fn, None)), (mod, fn)


def test_checked_benchmark_probes_read_what_they_check():
    # a probe that reads a renamed or moved argument breaks the benchmark
    # run; one that no longer sees a call leaves its check with nothing
    got = _run_probe(_CHECKED_PROBES, str(_TRACING))
    assert got["absent"] == []
    ks = [budget_to_edge_count(frac, got["m"]) for frac in (0.05, 0.1)]
    # one sweep per community budget; one top-k per (rndm, clo, bet) budget
    assert [k for k, _ in got["blocked"]["community.sweep"]] == ks
    assert [k for k, _ in got["blocked"]["strategies.select"]] == ks * 3
    for observations in got["blocked"].values():
        for k, ids in observations:
            assert len(ids) <= k and len(set(ids)) == len(ids)
    assert got["scored"] == {"centrality.closeness": 1, "centrality.betweenness": 1}
