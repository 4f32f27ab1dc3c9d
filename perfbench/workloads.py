"""The benchmark workloads: seeded inputs and the jobs each pass runs.

A workload is a tuple of named jobs, and one pass runs each job once, in
order.  Each job's input is an edge-list file ``<job>.txt``, written by a
seeded generator before the measured process starts.  A job makes the same
public calls as
``edgeblock evaluate --graph`` (parse, Jaccard weights, run_experiment, CSV
and SVG export) or ``edgeblock hardness verify`` (the small-graph sweep and
one ``--graph``/``--k`` check).  Every call goes through a module attribute,
so the probes in ``tracing.py`` see it.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Evaluate:
    """Planted-partition graph, then an ``evaluate`` run on it."""

    blocks: tuple            # planted_partition(n_blocks, block_size, p_intra, p_inter)
    seed_offset: int         # graph seed = benchmark seed + offset
    stats: bool              # run graph_stats first, as ``edgeblock stats`` does
    strategies: tuple
    budget_pcts: tuple       # budgets as percent of m
    seed_sets: int
    cascades: int

    def generate(self, eb, seed: int, path: Path) -> dict:
        g = eb.generators.planted_partition(*self.blocks, seed + self.seed_offset)
        eb.graph.write_edge_list(g, path)
        return _describe(path, g.n, g.m, int(g.degrees.max()))

    def budgets(self) -> tuple:
        return tuple(p / 100.0 for p in self.budget_pcts)

    def run(self, eb, name: str, seed: int, path: Path, out: Path) -> dict:
        g = eb.graph.parse_edge_list(path)
        g = eb.graph.assign_jaccard_weights(g)
        if self.stats:
            eb.graph.graph_stats(g)
        cfg = eb.evaluation.ExperimentConfig(
            network=name, strategies=self.strategies, budget_fractions=self.budgets(),
            seed_set_reps=self.seed_sets, cascade_reps=self.cascades,
            master_seed=seed, threads=1)
        report = eb.evaluation.run_experiment(g, cfg)
        out.mkdir(exist_ok=True)
        details = out / f"{name}_details.csv"
        eb.evaluation.export_csv(report, details, out / f"{name}_aggregates.csv")
        eb.evaluation.export_svg(report, out / f"{name}_cf.svg")
        return {"graph": g, "config": cfg, "details": details}


@dataclass(frozen=True)
class Hardness:
    """``hardness verify --sweep-all-small N`` plus ``--graph K_n --k K``."""

    max_n: int
    complete: int
    k: int

    def generate(self, eb, seed: int, path: Path) -> dict:
        # the seed shuffles edge order and orientation; the graph stays K_n
        rng = eb.seeding.rng_for(seed)
        pairs = np.array(list(itertools.combinations(range(self.complete), 2)))
        pairs = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        return _describe(path, self.complete, len(pairs), self.complete - 1)

    def run(self, eb, name: str, seed: int, path: Path, out: Path) -> dict:
        checks = list(eb.hardness.sweep_small_instances(self.max_n))
        h = eb.graph.parse_edge_list(path)
        checks.append(eb.hardness.verify_reduction(h, self.k))
        return {"checks": checks}


WORKLOADS = {
    # The three evaluate jobs share one workload so that each run can span
    # about a minute of passes: a shared host's speed drifts over tens of
    # seconds, and shorter runs carry that drift whole into their figure.
    "evaluate-suite": (
        ("mid-central", Evaluate((4, 40, 0.3, 0.02), 0, True,
                                 ("clo", "wclo", "bet", "wbet", "rndm"), tuple(range(1, 11)), 2, 2)),
        # below 15 % the sweep's length hinges on whether the 4-block split fits
        # the budget, which flips with the seed and doubles the Louvain runs
        ("small-sweep", Evaluate((4, 20, 0.6, 0.02), 104, False, ("community", "rndm"),
                                 (15, 20), 4, 10)),
        ("desk-cascade", Evaluate((10, 100, 0.4, 0.004), 0, False, ("rndm", "deg", "pgrk"),
                                  tuple(range(1, 6)), 1, 8)),
    ),
    "hardness-lab": (("hardness-lab", Hardness(4, 6, 4)),),
}


def generate(eb, name: str, seed: int, workdir: Path) -> dict:
    """Write each job's input file; return {job: {file, n, m, d_max, sha256}}."""
    return {job: spec.generate(eb, seed, workdir / f"{job}.txt") for job, spec in WORKLOADS[name]}


def _describe(path: Path, n: int, m: int, d_max: int) -> dict:
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"file": path.name, "n": n, "m": m, "d_max": d_max, "sha256": digest}
