"""Louvain community detection and the budgeted resolution sweep.

Louvain greedily maximizes modularity with a resolution parameter:

    Q = sum over communities c of [ e_c / m  -  resolution * (d_c / 2m)^2 ]

where e_c counts intra-community edges and d_c sums member degrees.  Only
the unweighted structure is used: edge weights do not enter Q.

The sweep grows the resolution geometrically, re-running Louvain several
times per step (the algorithm is seeded-random), and keeps the largest
inter-community edge set that still fits the blocking budget.  One walk
answers every budget: each run's cut replaces the pick of every open budget
it beats, and each budget keeps its own stop counter.

Every Louvain level is plain Python lists, per node its ``(neighbor,
weight)`` pairs and its degree; a walk builds level 0 once and shares it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, checked_ids
from .seeding import as_rng, rng_for


def _level0(g: Graph):
    """Louvain's level 0 of g, ``(adj, node_k, two_m)``: v's ``(neighbor, 1.0)``
    pairs in CSR slot order, the degrees and 2m.  Read only, so runs share it."""
    indptr, nbrs = g.indptr.tolist(), g.nbrs.tolist()
    adj = [[(u, 1.0) for u in nbrs[indptr[v]:indptr[v + 1]]] for v in range(g.n)]
    return adj, [float(len(row)) for row in adj], 2.0 * g.m


def _aggregate(adj, node_k, labels, nc):
    """One node per community: links summed between communities, each row
    sorted by community id, and each community's degree the sum of its
    members'.  Weights are sums of units, so any summation order is exact."""
    rows, k = [{} for _ in range(nc)], [0.0] * nc
    for v, row in enumerate(adj):
        cv = labels[v]
        k[cv] += node_k[v]
        links = rows[cv]
        for u, w in row:
            cu = labels[u]
            if cu != cv:
                links[cu] = links.get(cu, 0.0) + w
    return [sorted(links.items()) for links in rows], k


def _local_moving(adj, node_k, order, gamma, two_m) -> list:
    """Greedy moves of single nodes, visiting ``order`` cyclically, until
    ``len(order)`` visits in a row have moved nothing.

    Returns each node's community, numbered densely by first occurrence in
    node order; moves start from singletons.  Node v
    goes to the community c with the largest w(v, c) - gamma * tot_c * k_v
    / two_m (terms shared by all c dropped), and leaves its own only for a
    gain larger by more than 1e-12.  Link weights are summed per community
    in the order v's neighbors are listed, and ties go to the community
    touched first.  Stopping after n quiet visits gives the partition that
    repeating whole passes until one moves nothing gives: a quiet visit
    leaves the state as it was (tot holds integer-valued floats, so taking
    k_v out and putting it back is exact), so once every node has been
    visited quietly, every later visit would see the same state again.
    """
    comm = list(range(len(node_k)))
    tot = list(node_k)
    quiet = 0
    for v in itertools.cycle(order):
        cv, kv = comm[v], node_k[v]
        links = {}
        for u, w in adj[v]:
            c = comm[u]
            links[c] = links.get(c, 0.0) + w
        tot[cv] -= kv
        best, bc = links.pop(cv, 0.0) - gamma * tot[cv] * kv / two_m, cv
        for c, wc in links.items():
            gain = wc - gamma * tot[c] * kv / two_m
            if gain > best + 1e-12:
                best, bc = gain, c
        tot[bc] += kv
        if bc != cv:
            comm[v] = bc
            quiet = 0
        else:
            quiet += 1
            if quiet == len(order):
                break
    ids = {}
    return [ids.setdefault(c, len(ids)) for c in comm]


def louvain_partition(g: Graph, resolution: float, rng, *, level0=None) -> np.ndarray:
    """Two-phase Louvain: greedy local moves, then graph aggregation,
    repeated until the community count stops shrinking.  Returns each
    node's community as int64 labels, dense 0..c-1 by first occurrence.

    The node visit order at every level is a fresh shuffle from ``rng``,
    so distinct seeds explore distinct local optima while a fixed seed is
    fully reproducible.  ``level0`` is g's :func:`_level0`, shared by the
    runs of one walk; built here when absent.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError("resolution must be finite and positive")
    rng = as_rng(rng)
    if g.m == 0:
        return np.arange(g.n, dtype=np.int64)

    adj, node_k, two_m = level0 if level0 is not None else _level0(g)
    mapping = range(g.n)
    while True:
        order = rng.permutation(len(adj)).tolist()
        labels = _local_moving(adj, node_k, order, float(resolution), two_m)
        nc = max(labels) + 1
        mapping = [labels[c] for c in mapping]
        if nc == len(adj) or nc == 1:
            break
        adj, node_k = _aggregate(adj, node_k, labels, nc)
    # level l + 1's nodes are numbered by first occurrence in node order, so
    # its first-occurrence ids keep mapping dense by first occurrence too
    return np.array(mapping, dtype=np.int64)


def inter_community_edges(g: Graph, labels: np.ndarray) -> np.ndarray:
    """Sorted ids of edges whose endpoints lie in different communities."""
    if labels.shape[0] != g.n:
        raise ValueError("label count does not match node count")
    return np.flatnonzero(labels[g.eu] != labels[g.ev]).astype(np.int64)


@dataclass(frozen=True)
class SweepParams:
    resolution: float = 0.01     # starting resolution
    factor: float = 1.05         # geometric growth per outer step
    h1: int = 5                  # outer overflow repetitions before stopping
    h2: int = 5                  # Louvain retries per resolution
    budget: int = 0              # max edges to block

    def __post_init__(self):
        if not 0.0 < self.resolution < math.inf:
            raise ValueError("resolution must be finite and positive")
        if not 1.0 < self.factor < math.inf:
            raise ValueError("factor must be finite and exceed 1")
        if self.h1 < 1 or self.h2 < 1:
            raise ValueError("h1 and h2 must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


def sweep_walk(g: Graph, params: SweepParams, ks, master_seed: int) -> tuple:
    """One resolution walk for every budget in ``ks``: ``(trace, picks)``.

    Walks the resolution upward by ``factor``; at each step runs Louvain
    ``h2`` times, run ``inner`` of step ``outer`` on the stream
    (master_seed, outer, inner), every run sharing one :func:`_level0` of g.
    ``trace`` is each run's ``(resolution, cut size)`` in walk order.  Each
    run's cut becomes budget k's pick when it is larger than k's pick so far
    and at most k, so k keeps the first largest cut and never an empty one.
    Budget k's stop counter advances each step whose last run cut more than
    k edges, and k closes once the counter exceeds ``h1``.  The walk ends
    when every budget has closed, or at the first resolution that is not
    finite (there every node is alone, so the cut is all m edges and can
    only overflow).  ``picks[k]`` is sorted edge ids: every edge when k is m
    or more, none when no cut fits.  ``params.budget`` is not read.
    ValueError when a budget is not a nonnegative integer (a float or bool
    budget included).
    """
    ks = checked_ids(ks, math.inf, "budget").tolist()
    picks = {k: np.arange(g.m if k >= g.m else 0, dtype=np.int64) for k in ks}
    counts = {k: 0 for k in picks if k < g.m}   # stop counter of each open budget
    trace, r = [], params.resolution
    level0 = _level0(g) if counts else None
    while counts and math.isfinite(r):
        outer = len(trace) // params.h2
        for inner in range(params.h2):
            rng = rng_for(master_seed, outer, inner)
            cut = inter_community_edges(g, louvain_partition(g, r, rng, level0=level0))
            trace.append((r, cut.size))
            for k in counts:
                if picks[k].size < cut.size <= k:
                    picks[k] = cut
        for k in list(counts):
            counts[k] += cut.size > k
            if counts[k] > params.h1:
                del counts[k]
        r *= params.factor
    return trace, picks


def resolution_sweep(g: Graph, params: SweepParams, walk) -> np.ndarray:
    """Largest inter-community edge set within ``params.budget``: the
    budget's pick from ``walk``, a :func:`sweep_walk` on the same graph and
    parameters.  Sorted edge ids, at most the budget and possibly none;
    every edge when the budget is m or more.
    """
    _, picks = walk
    if params.budget not in picks:
        raise ValueError(f"the walk does not answer budget {params.budget}")
    return picks[params.budget]
