"""Graph generators: seeded planted partitions and small-graph enumeration."""

from __future__ import annotations

import functools
from itertools import combinations, permutations

import numpy as np

from .cascade import is_connected
from .graph import Graph, checked_count, checked_unit_real, from_edge_arrays
from .seeding import as_rng


def planted_partition(n_blocks: int, block_size: int, p_intra: float, p_inter: float, rng) -> Graph:
    """Planted partition: n_blocks blocks of block_size consecutive nodes, each node pair an
    edge with probability p_intra inside a block, p_inter across.  ValueError naming the argument
    unless both counts are integers >= 1 and both probabilities numbers in [0, 1], not bools."""
    n_blocks = checked_count(n_blocks, 1, np.inf, "n_blocks")
    block_size = checked_count(block_size, 1, np.inf, "block_size")
    p_intra = checked_unit_real(p_intra, "p_intra")
    p_inter = checked_unit_real(p_inter, "p_inter")
    rng = as_rng(rng)
    n = n_blocks * block_size
    iu, jv = np.triu_indices(n, k=1)
    same = (iu // block_size) == (jv // block_size)
    p = np.where(same, p_intra, p_inter)
    keep = rng.random(iu.shape[0]) < p
    return from_edge_arrays(n, iu[keep], jv[keep])


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
