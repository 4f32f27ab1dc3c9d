"""Output checks and per-layer metrics for one measured pass.

An operation is a detail cell, an observed blocked set or a centrality
vector in the evaluate workloads, and a ReductionCheck in hardness-lab.
Each failed operation counts once.  No check compares Monte Carlo output
bytes; cf values outside [0, 100] are a known defect and are counted, not
failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

REFERENCE = Path(__file__).with_name("reference.json")
CENTRALITY_RTOL = 1e-9
CF_SLACK = 1e-9          # the slack ContainmentReport.out_of_range_rows uses


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list = []

    def record(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def check_evaluate(out: dict, kept: dict, sha256: str, tally: Tally) -> dict:
    """Detail rows, blocked sets and (when scored) centrality vectors."""
    g, cfg = out["graph"], out["config"]
    lines = Path(out["details"]).read_text().splitlines()
    header = "network,strategy,budget_pct,seed_set_id,phi_before,phi_after,cf"
    if not lines or lines[0] != header:
        tally.record(False, "details CSV header differs")
        lines = [header]
    rows = {}
    for line in lines[1:]:
        _, strat, pct, sid, pb, pa, cf = line.split(",")
        key = (strat, round(float(pct), 6), int(sid))
        rows.setdefault(key, []).append((float(pb), float(pa), float(cf)))

    lo = min(max(1, round(cfg.seed_fraction * g.n)), g.n)
    cf_out = 0
    for strat in cfg.strategies:
        for frac in cfg.budget_fractions:
            for sid in range(cfg.seed_set_reps):
                key = (strat, round(frac * 100.0, 6), sid)
                found = rows.pop(key, [])
                if len(found) != 1:
                    tally.record(False, f"{len(found)} detail rows for {key}")
                    continue
                pb, pa, cf = found[0]
                ok = all(math.isfinite(v) and lo <= v <= g.n for v in (pb, pa))
                tally.record(ok, f"phi outside [{lo}, {g.n}] for {key}: {pb}, {pa}")
                cf_out += not (-CF_SLACK <= cf <= 100.0 + CF_SLACK)
    for key in rows:
        tally.record(False, f"unexpected detail row {key}")

    for span, layer in (("strategies.select", "strategies"), ("community.sweep", "community")):
        for k, ids in kept.get(span, []):
            ok = (ids.size <= k and np.unique(ids).size == ids.size
                  and bool(np.all((ids >= 0) & (ids < g.m))))
            tally.record(ok, f"{layer} blocked set of {ids.size} ids for k={k} is invalid")

    _check_centrality(g, kept, sha256, tally)
    return {"evaluation.cells": len(lines) - 1, "evaluation.cf_out_of_range": cf_out}


def _check_centrality(g, kept: dict, sha256, tally: Tally) -> None:
    """Recorded values on the default-seed graph; exact identities elsewhere."""
    names = ("centrality.closeness", "centrality.closeness_w",
             "centrality.betweenness", "centrality.betweenness_w")
    seen = {name: kept[name] for name in names if name in kept}
    if not seen:
        return
    ref = json.loads(REFERENCE.read_text())["mid-central"]
    if sha256 == ref["sha256"]:
        for name, values in seen.items():
            want = np.array(ref[name])
            for got in values:
                ok = got.shape == want.shape and np.allclose(
                    got, want, rtol=CENTRALITY_RTOL, atol=0.0)
                tally.record(ok, f"{name} differs from the recorded values")
        return
    hops = _distances(g, weighted=False)
    pairs = np.triu(np.isfinite(hops), k=1)
    for name, values in seen.items():
        for got in values:
            if name.startswith("centrality.closeness"):
                want = _closeness(_distances(g, name.endswith("_w")))
                ok = np.allclose(got, want, rtol=CENTRALITY_RTOL, atol=0.0)
            elif name == "centrality.betweenness":
                # each reachable pair spreads 1 over its hop-shortest paths
                ok = (math.isclose(got.sum(), hops[pairs].sum(), rel_tol=CENTRALITY_RTOL)
                      and got.min() >= 1.0 - CENTRALITY_RTOL)
            else:
                ok = (bool(np.all(np.isfinite(got) & (got >= 0.0)))
                      and got.sum() >= pairs.sum() * (1.0 - CENTRALITY_RTOL))
            tally.record(ok, f"{name} fails its independent check")


def _distances(g, weighted: bool) -> np.ndarray:
    # explicit zero lengths (Jaccard weight 1) stay edges in csgraph
    length = 1.0 - g.w if weighted else np.ones(g.m)
    a = csr_matrix((length, (g.eu, g.ev)), shape=(g.n, g.n))
    return shortest_path(a, directed=False, unweighted=not weighted)


def _closeness(dist: np.ndarray) -> np.ndarray:
    n = dist.shape[0]
    finite = np.isfinite(dist)
    reach = finite.sum(axis=1).astype(np.float64)
    total = np.where(finite, dist, 0.0).sum(axis=1)
    out = np.zeros(n)
    pos = total > 0.0
    out[pos] = (reach[pos] - 1.0) ** 2 / ((n - 1.0) * total[pos])
    return out


def check_hardness(out: dict, tally: Tally) -> dict:
    """Exact optima against the values recorded for these inputs."""
    want = json.loads(REFERENCE.read_text())["hardness-lab"]
    got = [[c.k, c.mode, c.opt_ds, c.opt_eb] for c in out["checks"]]
    for i, expected in enumerate(want):
        actual = got[i] if i < len(got) else None
        tally.record(actual == expected, f"check {i}: {actual} != {expected}")
    for extra in got[len(want):]:
        tally.record(False, f"unexpected check {extra}")
    return {"hardness.identity_holds": sum(1 for c in out["checks"] if c.passed)}


def layer_metrics(totals: dict, kept: dict, counts: dict, jobs) -> dict:
    """Per-layer metrics of a traced pass; absent spans read 0.

    ``kept`` holds the observations of every job of the pass, ``counts``
    the summed counts of their checks, and ``jobs`` names every job of
    every workload (each gets a ``job.<name>_s`` metric).
    """
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    replicates = sum(kept.get("cascade.estimate", []))
    subsets = sum(kept.get("hardness.blocking", []))
    m = {
        "graph.parse_s": secs("graph.parse"),
        "graph.jaccard_s": secs("graph.jaccard"),
        "graph.stats_s": secs("graph.stats"),
        "graph.remove_edges_s": secs("graph.remove_edges"),
        "graph.remove_edges_calls": calls("graph.remove_edges"),
        "centrality.betweenness_s": secs("centrality.betweenness"),
        "centrality.betweenness_w_s": secs("centrality.betweenness_w"),
        "centrality.closeness_s": secs("centrality.closeness"),
        "centrality.closeness_w_s": secs("centrality.closeness_w"),
        "centrality.pagerank_s": secs("centrality.pagerank"),
        "strategies.score_s": secs("strategies.score"),
        "strategies.select_s": secs("strategies.select"),
        "community.sweeps": calls("community.sweep"),
        "community.sweep_s": secs("community.sweep"),
        "community.louvain_runs": calls("community.louvain"),
        "community.louvain_s": secs("community.louvain"),
        "cascade.calls": calls("cascade.estimate"),
        "cascade.replicates": replicates,
        "cascade.estimate_s": secs("cascade.estimate"),
        "cascade.replicates_per_s": replicates / secs("cascade.estimate") if replicates else 0.0,
        "evaluation.run_experiment_s": secs("evaluation.run_experiment"),
        "evaluation.self_s": totals.get("evaluation.run_experiment", (0, 0.0, 0.0))[2],
        "evaluation.export_s": secs("evaluation.export"),
        "hardness.checks": calls("hardness.verify"),
        "hardness.verify_s": secs("hardness.verify"),
        "hardness.blocking_s": secs("hardness.blocking"),
        "hardness.densest_s": secs("hardness.densest"),
        "hardness.subsets": subsets,
        "hardness.subsets_per_s": subsets / secs("hardness.blocking") if subsets else 0.0,
    }
    for span, layer in (("strategies.select", "strategies"), ("community.sweep", "community")):
        sets = kept.get(span, [])
        budget = sum(k for k, _ in sets)
        m[f"{layer}.budget_fill"] = sum(ids.size for _, ids in sets) / budget if budget else 0.0
        m[f"{layer}.empty_sets"] = sum(1 for k, ids in sets if k > 0 and ids.size == 0)
    for name in ("evaluation.cells", "evaluation.cf_out_of_range", "hardness.identity_holds"):
        m[name] = counts.get(name, 0)
    for job in jobs:
        m[f"job.{job}_s"] = secs(f"job.{job}")
    return m
