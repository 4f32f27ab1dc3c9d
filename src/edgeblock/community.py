"""Louvain community detection and the budgeted resolution sweep.

Louvain greedily maximizes modularity with a resolution parameter:

    Q = sum over communities c of [ e_c / m  -  resolution * (d_c / 2m)^2 ]

where e_c counts intra-community edges and d_c sums member degrees.  Only
the unweighted structure is used: edge weights do not enter Q.

The sweep grows the resolution geometrically, re-running Louvain several
times per step (the algorithm is seeded-random), and keeps the largest
inter-community edge set that still fits the blocking budget.  One walk,
keeping only each run's resolution and cut size, answers every budget up to
the largest; each answer reruns the one Louvain run it picks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, csr_index
from .seeding import DEFAULT_SEED, as_rng, rng_for


@dataclass(frozen=True)
class Partition:
    """Community id per node; ids are dense 0..c-1."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size:
            c = int(labels.max()) + 1
            if labels.min() < 0 or np.unique(labels).size != c:
                raise ValueError("community ids must be dense 0..c-1")

    @property
    def n_communities(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0


def _dense_relabel(labels: np.ndarray) -> np.ndarray:
    """Relabel community ids densely by first occurrence in node order."""
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv]


def modularity(g: Graph, partition: Partition, resolution: float = 1.0) -> float:
    """Direct evaluation of Q for the given partition."""
    labels = partition.labels
    if labels.shape[0] != g.n:
        raise ValueError("partition size does not match node count")
    if g.m == 0:
        return 0.0
    ew = np.ones(g.m)
    total = float(g.m)
    c = partition.n_communities
    intra = np.zeros(c)
    same = labels[g.eu] == labels[g.ev]
    np.add.at(intra, labels[g.eu[same]], ew[same])
    dtot = np.zeros(c)
    np.add.at(dtot, labels[g.eu], ew)
    np.add.at(dtot, labels[g.ev], ew)
    return float((intra / total - resolution * (dtot / (2.0 * total)) ** 2).sum())


def _aggregate(labels, eu, ev, w, loops):
    nc = int(labels.max()) + 1
    cu = labels[eu]
    cv = labels[ev]
    new_loops = np.zeros(nc)
    np.add.at(new_loops, labels, loops)
    same = cu == cv
    np.add.at(new_loops, cu[same], w[same])
    keys = np.minimum(cu[~same], cv[~same]) * nc + np.maximum(cu[~same], cv[~same])
    uniq, inv = np.unique(keys, return_inverse=True)
    new_w = np.zeros(uniq.size)
    np.add.at(new_w, inv, w[~same])
    return uniq // nc, uniq % nc, new_w, new_loops


def _local_moving(indptr, nbrs, w, node_k, order, gamma, two_m) -> np.ndarray:
    """Greedy moves of single nodes, in ``order``, until a pass moves none.

    Returns the community of each node, starting from singletons.  Node v
    goes to the community c with the largest w(v, c) - gamma * tot_c * k_v
    / two_m (terms shared by all c dropped), and leaves its own only for a
    gain larger by more than 1e-12.  Link weights are summed per community
    in the order v's neighbors are listed, and ties go to the community
    touched first.
    """
    indptr, nbrs, w = indptr.tolist(), nbrs.tolist(), w.tolist()
    node_k, order = node_k.tolist(), order.tolist()
    comm = list(range(len(node_k)))
    tot = list(node_k)
    moved = True
    while moved:
        moved = False
        for v in order:
            cv, kv = comm[v], node_k[v]
            links = {}
            for j in range(indptr[v], indptr[v + 1]):
                c = comm[nbrs[j]]
                links[c] = links.get(c, 0.0) + w[j]
            tot[cv] -= kv
            best, bc = links.get(cv, 0.0) - gamma * tot[cv] * kv / two_m, cv
            for c, wc in links.items():
                gain = wc - gamma * tot[c] * kv / two_m
                if c != cv and gain > best + 1e-12:
                    best, bc = gain, c
            tot[bc] += kv
            if bc != cv:
                comm[v] = bc
                moved = True
    return np.array(comm, dtype=np.int64)


def louvain_partition(g: Graph, resolution: float, rng) -> Partition:
    """Two-phase Louvain: greedy local moves, then graph aggregation,
    repeated until the community count stops shrinking.

    The node visit order at every level is a fresh shuffle from ``rng``,
    so distinct seeds explore distinct local optima while a fixed seed is
    fully reproducible.
    """
    if not 0.0 < resolution < math.inf:
        raise ValueError("resolution must be finite and positive")
    rng = as_rng(rng)
    if g.m == 0:
        return Partition(np.arange(g.n, dtype=np.int64))

    eu = g.eu.astype(np.int64)
    ev = g.ev.astype(np.int64)
    w = np.ones(g.m)
    loops = np.zeros(g.n)
    mapping = np.arange(g.n, dtype=np.int64)
    size = g.n

    while True:
        indptr, nbrs, slot = csr_index(size, np.concatenate([eu, ev]), np.concatenate([ev, eu]))
        node_k = np.zeros(size)
        np.add.at(node_k, eu, w)
        np.add.at(node_k, ev, w)
        node_k += 2.0 * loops
        two_m = float(node_k.sum())
        if two_m == 0.0:
            break
        order = rng.permutation(size)
        labels = _dense_relabel(_local_moving(indptr, nbrs, w[slot % w.size], node_k,
                                              order, float(resolution), two_m))
        ncomm = int(labels.max()) + 1
        mapping = labels[mapping]
        if ncomm == size:
            break
        eu, ev, w, loops = _aggregate(labels, eu, ev, w, loops)
        size = ncomm
        if size == 1:
            break
    return Partition(_dense_relabel(mapping))


def inter_community_edges(g: Graph, partition: Partition) -> np.ndarray:
    """Sorted ids of edges whose endpoints lie in different communities."""
    labels = partition.labels
    if labels.shape[0] != g.n:
        raise ValueError("partition size does not match node count")
    return np.flatnonzero(labels[g.eu] != labels[g.ev]).astype(np.int64)


@dataclass(frozen=True)
class SweepParams:
    resolution: float = 0.01     # starting resolution
    factor: float = 1.05         # geometric growth per outer step
    h1: int = 5                  # outer overflow repetitions before stopping
    h2: int = 5                  # Louvain retries per resolution
    budget: int = 0              # max edges to block
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0.0 < self.resolution < math.inf:
            raise ValueError("resolution must be finite and positive")
        if not 1.0 < self.factor < math.inf:
            raise ValueError("factor must be finite and exceed 1")
        if self.h1 < 1 or self.h2 < 1:
            raise ValueError("h1 and h2 must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


def sweep_trace(g: Graph, params: SweepParams) -> list:
    """``(resolution, cut size)`` of each Louvain run of the sweep, in walk order.

    Walks the resolution upward by ``factor``; at each step runs Louvain
    ``h2`` times, run ``inner`` of step ``outer`` on the stream
    (master_seed, outer, inner).  The stop counter advances each step
    whose last run cut more than ``params.budget`` edges, and the walk
    ends once it exceeds ``h1``, or at the first resolution that is not
    finite (there every node is alone, so the cut is all m edges and can
    only overflow).  A budget of m or more walks nothing.
    """
    k, trace, r, count = params.budget, [], params.resolution, 0
    while k < g.m and count <= params.h1 and math.isfinite(r):
        outer = len(trace) // params.h2
        for inner in range(params.h2):
            part = louvain_partition(g, r, rng_for(params.master_seed, outer, inner))
            trace.append((r, int(inter_community_edges(g, part).shape[0])))
        count += trace[-1][1] > k
        r *= params.factor
    return trace


def resolution_sweep(g: Graph, params: SweepParams, trace=None) -> np.ndarray:
    """Largest inter-community edge set within the budget.

    Picks the largest cut within the budget, the first on ties, from the
    :func:`sweep_trace` walk up to ``params.budget``'s stop, then reruns
    that Louvain run for its edge ids.  ``trace`` may be the walk of any
    larger budget on the same parameters: a step that overflows it
    overflows this budget too, so this walk is its prefix.  Without
    ``trace`` the sweep walks its own.  Returns sorted edge ids, at most
    the budget and possibly none; every edge when the budget is m or more.
    """
    k = params.budget
    if k >= g.m:
        return np.arange(g.m, dtype=np.int64)
    if trace is None:
        trace = sweep_trace(g, params)
    best, best_size, count = None, 0, 0
    for i, (_, size) in enumerate(trace):
        if best_size < size <= k:
            best, best_size = i, size
        if i % params.h2 == params.h2 - 1:
            count += size > k
            if count > params.h1:
                break
    else:   # no stop: the walk must have reached a non-finite resolution
        if not trace or math.isfinite(trace[-1][0] * params.factor):
            raise ValueError("trace ends before this budget's sweep stops")
    if best is None:
        return np.zeros(0, dtype=np.int64)
    rng = rng_for(params.master_seed, best // params.h2, best % params.h2)
    return inter_community_edges(g, louvain_partition(g, trace[best][0], rng))
