#!/usr/bin/env python3
"""Write reference.json: the exact outputs the checks compare against.

    python3 perfbench/record_reference.py

Records the four centrality vectors of the mid-central job's graph at the
default seed (with the input's sha256) and the optima of every hardness-lab
check.
Run it only on a commit whose outputs are known to be right.
"""

import json
import sys
import tempfile
from pathlib import Path

from child import import_edgeblock
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    eb = import_edgeblock()
    ref = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        mid = dict(WORKLOADS["evaluate-suite"])["mid-central"]
        path = Path(tmp) / "mid-central.txt"
        sha256 = mid.generate(eb, DEFAULT_SEED, path)["sha256"]
        g = eb.graph.assign_jaccard_weights(eb.graph.parse_edge_list(path))
        ref["mid-central"] = {
            "sha256": sha256,
            "centrality.closeness": eb.centrality.node_closeness(g).tolist(),
            "centrality.closeness_w": eb.centrality.node_closeness(g, weighted=True).tolist(),
            "centrality.betweenness": eb.centrality.edge_betweenness(g).tolist(),
            "centrality.betweenness_w": eb.centrality.edge_betweenness(g, weighted=True).tolist(),
        }
        hard = dict(WORKLOADS["hardness-lab"])["hardness-lab"]
        path = Path(tmp) / "hardness-lab.txt"
        hard.generate(eb, DEFAULT_SEED, path)
        out = hard.run(eb, "hardness-lab", DEFAULT_SEED, path, Path(tmp))
        ref["hardness-lab"] = [[c.k, c.mode, c.opt_ds, c.opt_eb] for c in out["checks"]]
    Path(__file__).with_name("reference.json").write_text(json.dumps(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
