import numpy as np
import pytest

from edgeblock.generators import (
    MAX_ENUM_NODES,
    connected_graphs_upto_iso,
    gnm_random_graph,
    planted_partition,
    random_connected_graph,
    with_random_weights,
)
from edgeblock.graph import graph_stats


def test_gnm_exact_edge_count():
    g = gnm_random_graph(12, 30, 0)
    assert (g.n, g.m) == (12, 30)
    assert np.array_equal(gnm_random_graph(12, 30, 0).eu, g.eu)
    with pytest.raises(ValueError):
        gnm_random_graph(4, 10, 0)


def test_random_connected_graph_is_connected():
    for seed in range(6):
        g = random_connected_graph(9, seed, seed)
        assert graph_stats(g).connected
        assert g.m == 8 + seed


def test_planted_partition_shape():
    g = planted_partition(4, 20, 0.6, 0.02, 3)
    assert g.n == 80
    same = (g.eu // 20) == (g.ev // 20)
    # dense blocks, sparse between them
    assert same.sum() > (~same).sum()
    assert np.array_equal(planted_partition(4, 20, 0.6, 0.02, 3).eu, g.eu)


def test_random_weights_in_range():
    g = with_random_weights(gnm_random_graph(10, 20, 1), 1)
    assert np.all(g.w > 0) and np.all(g.w <= 1)


def test_isomorphism_class_counts():
    # connected graphs per node count, a classical sequence
    assert [len(connected_graphs_upto_iso(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_enumerated_graphs_are_connected_and_distinct():
    # the hardness sweep relies on every generated graph being connected
    # and does not check it again
    for n in range(1, MAX_ENUM_NODES + 1):
        graphs = connected_graphs_upto_iso(n)
        sigs = set()
        for g in graphs:
            assert g.n == n and graph_stats(g).connected, (n, g.m)
            sigs.add((g.n, g.m, tuple(sorted(g.degrees.tolist()))))
        if n == 5:
            # degree sequences alone distinguish most classes; at least no huge collapse
            assert len(sigs) >= 15


def test_enumeration_guard():
    for n in (7, 3.0):
        with pytest.raises(ValueError):
            connected_graphs_upto_iso(n)
