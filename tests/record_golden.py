"""Golden outputs: exact results on two small seeded planted partitions.

``golden_outputs`` recomputes them and ``tests/test_golden.py`` compares
them with ``tests/golden.json``, so any change that moves an output byte
fails that test.  Rewrite the file only for a change that is meant to move
bytes, and say so where the change is described:

    PYTHONPATH=src python tests/record_golden.py

The file holds one line per output, keyed by graph and output, for each
graph (Jaccard weights, master seed ``SEED``):

* ``blocked <strategy>``: the blocked edge ids for every budget in ``KS``;
* ``trace``: the community walk behind those sets, ``(resolution, cut)``;
* ``reach_sums``: the integer reach-count sums behind one
  ``estimate_spreads`` call over the baseline and every blocked set;
* ``evaluate threads=<t>``: the sha256 of the ``evaluate`` details CSV,
  aggregates CSV and SVG for the ``STRATEGIES`` grid, at ``--threads`` 1
  and 2.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from edgeblock.cascade import estimate_spreads
from edgeblock.cli import dispatch
from edgeblock.community import SweepParams, sweep_walk
from edgeblock.generators import planted_partition
from edgeblock.graph import assign_jaccard_weights, write_edge_list
from edgeblock.seeding import TAG_SWEEP, seed_sequence
from edgeblock.strategies import blocked_sets

GOLDEN = Path(__file__).with_name("golden.json")
GRAPHS = {"pp-a": (3, 10, 0.6, 0.1, 1), "pp-b": (4, 8, 0.5, 0.05, 2)}
STRATEGIES = ("rndm", "hwt", "deg", "community")
KS = (0, 1, 2, 4, 8, 16, 32)
SEED = 7
SAMPLES = 16       # a power of two, so each mean times SAMPLES is its exact sum


def _graph_outputs(name, blocks, work: Path) -> dict:
    h = planted_partition(*blocks)
    g = assign_jaccard_weights(h)
    blocked = {s: [ids.tolist() for ids in blocked_sets(g, s, KS, SEED)] for s in STRATEGIES}
    out = {f"blocked {s}": sets for s, sets in blocked.items()}
    walk_seed = int(seed_sequence(SEED, TAG_SWEEP).generate_state(1)[0])
    trace, _ = sweep_walk(g, SweepParams(), KS, walk_seed)
    out["trace"] = [[r, cut] for r, cut in trace]
    sets = [()] + [ids for s in STRATEGIES for ids in blocked[s]]
    means, _ = estimate_spreads(g, [0, g.n // 2], SAMPLES, SEED, sets)
    out["reach_sums"] = [round(mean * SAMPLES) for mean in means]
    path = work / f"{name}.txt"
    write_edge_list(h, path)      # evaluate recomputes the Jaccard weights
    for threads in ("1", "2"):
        target = work / f"out-{threads}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = dispatch(["evaluate", "--graph", str(path), "--strategies", ",".join(STRATEGIES),
                           "--budgets", "1..10", "--seed-sets", "3", "--cascades", "8",
                           "--seed", str(SEED), "--threads", threads, "--out", str(target)])
        assert rc == 0, f"evaluate exited {rc}"
        out[f"evaluate threads={threads}"] = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(target.iterdir())}
    return out


def golden_outputs(work: Path) -> dict:
    """Every recorded output, recomputed, keyed ``"<graph> <output>"``; ``work``
    is an empty scratch directory."""
    out = {}
    for name, blocks in GRAPHS.items():
        (work / name).mkdir()
        out.update((f"{name} {key}", value)
                   for key, value in _graph_outputs(name, blocks, work / name).items())
    return out


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden_outputs(Path(tmp))
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in outputs.items())
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
