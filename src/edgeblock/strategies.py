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
from .community import SweepParams
from .graph import Graph
from .seeding import TAG_STRATEGY, TAG_SWEEP, as_rng, rng_for, seed_sequence

STRATEGIES = ("rndm", "hwt", "deg", "wdeg", "clo", "wclo", "bet", "wbet", "pgrk", "community")


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


def rank_edges(scores: np.ndarray) -> np.ndarray:
    """Edge ids by descending score, ties by ascending edge id."""
    return np.argsort(-scores, kind="stable")   # stable keeps id order on ties


def top_k_edges(order: np.ndarray, k: int) -> np.ndarray:
    """Sorted ids of the first k edges of ``order``, a :func:`rank_edges`."""
    return np.sort(order[:max(k, 0)]).astype(np.int64, copy=False)


def check_sweep(sweep) -> None:
    """Reject a sweep that sets a budget: :func:`blocked_sets` sets it."""
    if sweep.budget != SweepParams().budget:
        raise ValueError("blocked_sets sets a sweep's budget; leave it unset")


def blocked_sets(g: Graph, strategy: str, ks, master_seed: int, sweep=SweepParams()) -> list:
    """Blocked edge ids for each budget in ``ks``, seeding derived internally.

    A score strategy scores and ranks once, on the stream (TAG_STRATEGY,
    code), and takes the top k for each k.  The community strategy walks
    the resolution sweep once for all k, seeded from (TAG_SWEEP,) with
    ``sweep``'s parameters, and looks each k's pick up in that walk.
    ValueError when a set is not strictly ascending edge ids in [0, m) or
    holds more than k of them.
    """
    code = strategy_code(strategy)
    check_sweep(sweep)
    if any(k < 0 for k in ks):
        raise ValueError("k must be nonnegative")
    if strategy == "community":
        seed = int(seed_sequence(master_seed, TAG_SWEEP).generate_state(1)[0])
        walk = community_mod.sweep_walk(g, sweep, ks, seed)
        sets = [community_mod.resolution_sweep(g, replace(sweep, budget=k), walk) for k in ks]
    else:
        order = rank_edges(score_edges(g, strategy, rng=rng_for(master_seed, TAG_STRATEGY, code)))
        sets = [top_k_edges(order, k) for k in ks]
    for k, ids in zip(ks, sets):
        # both paths return sorted ids: strictly ascending rules out a repeat
        inside = ids.size == 0 or (ids[0] >= 0 and ids[-1] < g.m)
        if ids.size > k or np.any(ids[1:] <= ids[:-1]) or not inside:
            raise ValueError(f"{strategy} set for budget {k} is not at most {k} "
                             f"ascending edge ids in [0, {g.m})")
    return sets


def blocked_edges(g: Graph, strategy: str, k: int, master_seed: int,
                  sweep=SweepParams()) -> np.ndarray:
    """Blocked edge ids for one budget: see :func:`blocked_sets`."""
    return blocked_sets(g, strategy, [k], master_seed, sweep)[0]
