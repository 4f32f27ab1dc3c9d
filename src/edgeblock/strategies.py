"""Edge-blocking strategies: score-based baselines plus dispatch.

Strategies own their seeding: :func:`blocked_sets` derives every stream
from the master seed and answers a list of budgets.  A baseline scores
every edge once on the original graph and blocks the top k per budget, ties
broken by ascending canonical edge id.  The community strategy has no edge
scores; one resolution walk keeps every budget's pick as it goes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import community as community_mod
from .centrality import edge_betweenness, node_closeness, node_pagerank
from .graph import Graph
from .seeding import TAG_STRATEGY, TAG_SWEEP, as_rng, rng_for, seed_sequence

STRATEGIES = ("rndm", "hwt", "deg", "wdeg", "clo", "wclo", "bet", "wbet", "pgrk", "community")
SCORE_STRATEGIES = STRATEGIES[:-1]


def strategy_code(name: str) -> int:
    """Stable integer code, used as an RNG stream coordinate."""
    try:
        return STRATEGIES.index(name)
    except ValueError:
        raise ValueError(f"unknown strategy {name!r}; expected one of {', '.join(STRATEGIES)}") from None


def _endpoint_sum(g: Graph, node_scores: np.ndarray) -> np.ndarray:
    return node_scores[g.eu] + node_scores[g.ev]


# scorer registry: token -> f(graph, rng) -> per-edge scores.
# New strategies plug in here; "community" stays out on purpose (it selects
# an edge set directly instead of ranking).
_SCORERS = {
    "rndm": lambda g, rng: as_rng(rng).random(g.m),
    "hwt": lambda g, rng: g.w.astype(np.float64, copy=True),
    "deg": lambda g, rng: _endpoint_sum(g, g.degrees.astype(np.float64)),
    "wdeg": lambda g, rng: _endpoint_sum(g, g.weighted_degrees),
    "clo": lambda g, rng: _endpoint_sum(g, node_closeness(g)),
    "wclo": lambda g, rng: _endpoint_sum(g, node_closeness(g, weighted=True)),
    "bet": lambda g, rng: edge_betweenness(g),
    "wbet": lambda g, rng: edge_betweenness(g, weighted=True),
    "pgrk": lambda g, rng: _endpoint_sum(g, node_pagerank(g)),
}


def score_edges(g: Graph, strategy: str, rng=None) -> np.ndarray:
    """Per-edge scores for a score-based strategy (higher = blocked first)."""
    strategy_code(strategy)
    if strategy == "community":
        raise ValueError("the community strategy has no edge scores; use blocked_edges")
    return _SCORERS[strategy](g, rng)


def top_k_edges(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest-scoring edges, ties by ascending edge id."""
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    m = scores.shape[0]
    order = np.argsort(-scores, kind="stable")   # stable keeps id order on ties
    return np.sort(order[: min(k, m)]).astype(np.int64)


def check_sweep(sweep) -> None:
    """Reject a sweep that sets budget or master_seed: :func:`blocked_sets` sets both."""
    unset = community_mod.SweepParams()
    if sweep is not None and (sweep.budget, sweep.master_seed) != (unset.budget, unset.master_seed):
        raise ValueError("blocked_sets sets a sweep's budget and master_seed; leave them unset")


def blocked_sets(g: Graph, strategy: str, ks, master_seed: int, sweep=None) -> list:
    """Blocked edge ids for each budget in ``ks``, seeding derived internally.

    A score strategy scores once, on the stream (TAG_STRATEGY, code), and
    takes the top k for each k.  The community strategy walks the resolution
    sweep once for all k, seeded from (TAG_SWEEP,) with ``sweep``'s
    parameters (defaults otherwise), and looks each k's pick up in that
    walk: the same ids as a one-budget sweep on that seed.
    """
    code = strategy_code(strategy)
    check_sweep(sweep)
    if any(k < 0 for k in ks):
        raise ValueError("k must be nonnegative")
    if strategy == "community":
        seed = int(seed_sequence(master_seed, TAG_SWEEP).generate_state(1)[0])
        base = replace(sweep if sweep is not None else community_mod.SweepParams(), master_seed=seed)
        walk = community_mod.sweep_walk(g, base, ks)
        return [community_mod.resolution_sweep(g, replace(base, budget=k), walk) for k in ks]
    scores = score_edges(g, strategy, rng=rng_for(master_seed, TAG_STRATEGY, code))
    return [top_k_edges(scores, k) for k in ks]


def blocked_edges(g: Graph, strategy: str, k: int, master_seed: int, sweep=None) -> np.ndarray:
    """Blocked edge ids for one budget: see :func:`blocked_sets`."""
    return blocked_sets(g, strategy, [k], master_seed, sweep)[0]
