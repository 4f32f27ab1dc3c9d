"""Graph generators for experiments and randomized testing."""

from __future__ import annotations

import functools
from itertools import combinations, permutations

import numpy as np

from .cascade import is_connected
from .graph import Graph, checked_count, from_edge_arrays
from .seeding import as_rng


def planted_partition(n_blocks: int, block_size: int, p_intra: float, p_inter: float, rng) -> Graph:
    """Planted-partition graph: Bernoulli edges, dense inside blocks."""
    rng = as_rng(rng)
    n = n_blocks * block_size
    iu, jv = np.triu_indices(n, k=1)
    same = (iu // block_size) == (jv // block_size)
    p = np.where(same, p_intra, p_inter)
    keep = rng.random(iu.shape[0]) < p
    return from_edge_arrays(n, iu[keep], jv[keep])


def gnm_random_graph(n: int, m: int, rng) -> Graph:
    """Uniform graph with exactly m edges (m <= C(n, 2))."""
    rng = as_rng(rng)
    iu, jv = np.triu_indices(n, k=1)
    if m > iu.shape[0]:
        raise ValueError("too many edges requested")
    idx = np.sort(rng.choice(iu.shape[0], size=m, replace=False))
    return from_edge_arrays(n, iu[idx], jv[idx])


def random_connected_graph(n: int, extra_edges: int, rng) -> Graph:
    """Random tree by sequential attachment plus extra distinct edges."""
    rng = as_rng(rng)
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    ncomb = n * (n - 1) // 2
    extra_edges = min(extra_edges, ncomb - len(edges))
    while extra_edges > 0:
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in edges:
            continue
        edges.add(key)
        extra_edges -= 1
    if not edges:
        return from_edge_arrays(n, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    eu, ev = zip(*sorted(edges))
    return from_edge_arrays(n, np.array(eu), np.array(ev))


def with_random_weights(g: Graph, rng) -> Graph:
    """Uniform weights in (0, 1]."""
    rng = as_rng(rng)
    return g.with_weights(1.0 - rng.random(g.m))


# ---------------------------------------------------------------------------
# exhaustive small-graph enumeration (up to isomorphism)
# ---------------------------------------------------------------------------

MAX_ENUM_NODES = 6


@functools.lru_cache(maxsize=None, typed=True)    # typed: a float n never hits an int n's entry
def connected_graphs_upto_iso(n: int) -> list[Graph]:
    """All connected graphs on n nodes, one per isomorphism class.

    Canonicalizes every edge bitmask as the minimum over all node
    relabelings; exponential, guarded to n <= 6 (143 graphs in total for
    n in 1..6).
    """
    n = checked_count(n, 1, MAX_ENUM_NODES, "n")
    pairs = list(combinations(range(n), 2))
    lookup = {p: e for e, p in enumerate(pairs)}
    ecount = len(pairs)
    masks = np.arange(1 << ecount, dtype=np.int64)
    canon = masks.copy()
    for perm in permutations(range(n)):
        mapped = np.zeros_like(masks)
        for e, (i, j) in enumerate(pairs):
            pi, pj = perm[i], perm[j]
            target = lookup[(pi, pj) if pi < pj else (pj, pi)]
            mapped |= ((masks >> e) & 1) << target
        np.minimum(canon, mapped, out=canon)

    # one row per isomorphism class: which pairs are edges
    present = (np.unique(canon)[:, None] >> np.arange(ecount)) & 1 == 1
    ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    graphs = [from_edge_arrays(n, ends[row, 0], ends[row, 1]) for row in present]
    return [g for g in graphs if is_connected(g)]
