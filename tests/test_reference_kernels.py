"""The plain-Python sequential helpers against the array kernels they
replaced (kept in ``oracle_utils``): same bits, same labels, same witnesses."""

import math

import numpy as np
import pytest

from edgeblock.centrality import edge_betweenness
from edgeblock.community import louvain_partition
from edgeblock.generators import planted_partition
from edgeblock.graph import assign_jaccard_weights, from_edge_arrays, girth
from edgeblock.hardness import brute_force_densest_subgraph
from edgeblock.seeding import rng_for
from oracle_utils import (
    densest_reference,
    edge_betweenness_weighted,
    girth_bfs,
    gnm_random_graph,
    louvain_partition_reference,
)

# Jaccard weights make every edge of a complete graph length 0 (1 - weight)
GRAPHS = {
    **{f"gnm-{n}-{m}-{s}": (n, m, s) for n, m, s in [
        (5, 6, 0), (6, 9, 1), (7, 12, 2), (7, 21, 3), (9, 14, 4), (12, 30, 5),
        (17, 40, 6), (23, 60, 7), (29, 100, 8)]},
    **{f"K{n}": (n, n * (n - 1) // 2, 0) for n in (4, 5, 7)},
    "planted-small": (4, 20, 0.6, 0.02, 105),
    "planted-mid": (4, 40, 0.3, 0.02, 1),
}


def _graph(args):
    gen = gnm_random_graph if len(args) == 3 else planted_partition
    return assign_jaccard_weights(gen(*args))


@pytest.mark.parametrize("name", GRAPHS)
def test_helpers_match_array_kernels(name):
    g = _graph(GRAPHS[name])
    assert girth(g) == (girth_bfs(g.indptr, g.nbrs) or math.inf)

    ref = edge_betweenness_weighted(g.indptr, g.nbrs, 1.0 - g.w[g.adj_eid], g.adj_eid, g.m)
    assert edge_betweenness(g, weighted=True).tobytes() == ref.tobytes()

    for i, r in enumerate((0.5, 1.0, 2.0)):
        got = louvain_partition(g, r, rng_for(7, i))
        assert np.array_equal(got, louvain_partition_reference(g, r, rng_for(7, i)))

    if g.n <= 7:
        for k in range(g.n + 1):
            res = brute_force_densest_subgraph(g, k)
            assert (res.value, res.witness) == densest_reference(g, k)


def test_louvain_matches_array_reference_across_resolutions():
    # ties between communities of an aggregated level are rare; unsorted
    # aggregated rows change one of these 240 runs
    for s in range(60):
        g = gnm_random_graph(8 + s % 22, 12 + 2 * (s % 20), s)
        for i, r in enumerate((0.05, 0.3, 1.0, 3.0)):
            got = louvain_partition(g, r, rng_for(s, i))
            assert np.array_equal(got, louvain_partition_reference(g, r, rng_for(s, i)))


def test_louvain_matches_array_reference_with_isolated_nodes_and_one_edge():
    # an isolated node has k = 0 and never moves; a lone edge merges or not
    # by resolution
    graphs = [from_edge_arrays(2, [0], [1]), from_edge_arrays(5, [1], [3])]
    for s in range(12):
        h = gnm_random_graph(6 + s % 9, 6 + s % 9 + s % 7, s)
        spread = 3 * np.arange(h.n) + 1     # ids 0, 2, 3, 5, ... stay isolated
        graphs.append(from_edge_arrays(3 * h.n + 1, spread[h.eu], spread[h.ev]))
    for s, g in enumerate(graphs):
        for i, r in enumerate((0.05, 0.5, 1.0, 3.0)):
            got = louvain_partition(g, r, rng_for(s, i))
            assert np.array_equal(got, louvain_partition_reference(g, r, rng_for(s, i))), (s, r)


def test_louvain_labels_dense_by_first_occurrence():
    # labels 0..c-1, numbered in the order of each community's first node
    for name, args in GRAPHS.items():
        g = _graph(args)
        for i, r in enumerate((0.01, 0.3, 1.0, 3.0, 40.0)):
            labels = louvain_partition(g, r, rng_for(11, i))
            assert labels.dtype == np.int64 and labels.shape == (g.n,), (name, r)
            values, first = np.unique(labels, return_index=True)
            assert np.array_equal(values, np.arange(values.size)), (name, r)
            assert np.all(np.diff(first) > 0), (name, r)
