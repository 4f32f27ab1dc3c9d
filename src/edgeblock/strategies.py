"""Edge-blocking strategies: score-based baselines plus dispatch.

All baselines score every edge once on the original graph and block the
top-k, ties broken by ascending canonical edge id.  The community strategy
has no per-edge scores; it delegates to the resolution sweep and is only
reachable through :func:`blocked_edges`.
"""

from __future__ import annotations

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


# scorer registry: token -> f(graph, rng, **params) -> per-edge scores.
# New strategies plug in here; "community" stays out on purpose (it selects
# an edge set directly instead of ranking).
_SCORERS = {
    "rndm": lambda g, rng, **kw: as_rng(rng).random(g.m),
    "hwt": lambda g, rng, **kw: g.w.astype(np.float64, copy=True),
    "deg": lambda g, rng, **kw: _endpoint_sum(g, g.degrees.astype(np.float64)),
    "wdeg": lambda g, rng, **kw: _endpoint_sum(g, g.weighted_degrees),
    "clo": lambda g, rng, **kw: _endpoint_sum(g, node_closeness(g)),
    "wclo": lambda g, rng, **kw: _endpoint_sum(g, node_closeness(g, weighted=True)),
    "bet": lambda g, rng, **kw: edge_betweenness(g),
    "wbet": lambda g, rng, **kw: edge_betweenness(g, weighted=True),
    "pgrk": lambda g, rng, damping=0.85, pagerank_tol=1e-10, **kw: _endpoint_sum(
        g, node_pagerank(g, damping=damping, tol=pagerank_tol)),
}


def score_edges(g: Graph, strategy: str, rng=None, **params) -> np.ndarray:
    """Per-edge scores for a score-based strategy (higher = blocked first)."""
    strategy_code(strategy)
    if strategy == "community":
        raise ValueError("the community strategy has no edge scores; use blocked_edges")
    return _SCORERS[strategy](g, rng, **params)


def top_k_edges(scores: np.ndarray, k: int) -> np.ndarray:
    """Ids of the k highest-scoring edges, ties by ascending edge id."""
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    m = scores.shape[0]
    order = np.argsort(-scores, kind="stable")   # stable keeps id order on ties
    return np.sort(order[: min(k, m)]).astype(np.int64)


def select_blocked_edges(g: Graph, strategy: str, k: int, rng=None, **score_kw) -> np.ndarray:
    """Top-k edge ids for a score-based strategy on the original graph."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return top_k_edges(score_edges(g, strategy, rng=rng, **score_kw), k)


def blocked_edges(g: Graph, strategy: str, k: int, master_seed: int,
                  sweep=None, **score_kw) -> np.ndarray:
    """Blocked edge ids for any strategy, with seeding derived internally.

    ``sweep`` supplies resolution-sweep parameters for the community
    strategy (defaults otherwise).
    """
    code = strategy_code(strategy)
    if strategy == "community":
        base = sweep if sweep is not None else community_mod.SweepParams()
        derived = int(seed_sequence(master_seed, TAG_SWEEP, k).generate_state(1)[0])
        params = community_mod.SweepParams(
            resolution=base.resolution, factor=base.factor,
            h1=base.h1, h2=base.h2, budget=k, master_seed=derived,
        )
        return community_mod.resolution_sweep(g, params)
    rng = rng_for(master_seed, TAG_STRATEGY, code)
    return select_blocked_edges(g, strategy, k, rng=rng, **score_kw)
