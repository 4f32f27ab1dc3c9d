import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, shortest_path

from edgeblock import cascade as cascade_mod
from edgeblock.cascade import (
    estimate_spread,
    estimate_spreads,
    is_connected,
    reach_counts,
    sample_seed_set,
)
from edgeblock.generators import connected_graphs_upto_iso
from edgeblock.graph import checked_ids, from_edge_arrays
from edgeblock.hardness import expand_to_blocking_instance
from edgeblock.seeding import rng_for
from oracle_utils import (
    brute_expected_spread,
    enumerate_spread_exact,
    exact_spread_unit_weights,
    gnm_random_graph,
    random_connected_graph,
    remove_edges,
    round_model_expected_spread,
    with_random_weights,
)

P3 = from_edge_arrays(3, [0, 1], [1, 2])
HALF_P3 = P3.with_weights(np.array([0.5, 0.5]))


def test_round_single_red_neighbor_probability():
    g = from_edge_arrays(2, [0], [1], [0.7])
    # node 1 is red after round 1 exactly when it is ever reached
    mean, _ = estimate_spread(g, [0], 20000, master_seed=0)
    hits = round(mean * 20000) - 20000
    # binomial(20000, 0.7): four sigma is ~260
    assert abs(hits - 14000) < 260


def test_round_two_red_neighbors_combine():
    g = from_edge_arrays(3, [0, 1], [2, 2], [0.5, 0.5])
    mean, _ = estimate_spread(g, [0, 1], 20000, master_seed=1)
    hits = round(mean * 20000) - 2 * 20000
    # p* = 1 - 0.25 = 0.75; four sigma is ~245
    assert abs(hits - 15000) < 245


def test_estimate_unit_weights_exact():
    mean, se = estimate_spread(P3, [0], 64, master_seed=11)
    assert mean == 3.0 and se == 0.0


def test_estimate_matches_enumeration_on_half_path():
    exact = enumerate_spread_exact(HALF_P3, [0])
    assert exact == 1.75
    mean, se = estimate_spread(HALF_P3, [0], 10000, master_seed=17)
    assert abs(mean - exact) <= 4 * se


def test_estimate_independent_of_chunking(monkeypatch):
    g = with_random_weights(gnm_random_graph(15, 30, 4), 4)
    whole = estimate_spread(g, [1, 2], 500, master_seed=77, blocked=[3, 8])
    monkeypatch.setattr(cascade_mod, "_CHUNK_ELEMENTS", 150 * g.m)
    assert 2 * cascade_mod._chunk_rows(g) < 500     # more than two chunks
    assert repr(estimate_spread(g, [1, 2], 500, master_seed=77, blocked=[3, 8])) == repr(whole)


def _reference_counts(g, seeds, samples, master_seed, blocked):
    """Per-replicate reach counts: one scipy BFS per live-edge graph."""
    live = rng_for(master_seed).random((samples, g.m)) < g.w
    live[:, np.asarray(blocked, dtype=np.int64)] = False
    counts = []
    for row in live:
        a = csr_matrix((np.ones(row.sum()), (g.eu[row], g.ev[row])), shape=(g.n, g.n))
        dist = shortest_path(a, directed=False, unweighted=True, indices=seeds)
        counts.append(int(np.isfinite(dist).any(axis=0).sum()))
    return np.array(counts)


def test_estimate_spreads_share_replicates_across_sets(monkeypatch):
    g = with_random_weights(gnm_random_graph(15, 30, 4), 4)
    order = np.random.default_rng(5).permutation(g.m)
    sets = [(), order[:3], [7], order[:10], order, order[5:12], order[:3]]
    whole = estimate_spreads(g, [1, 2], 40, 77, sets)
    for ids, mean, se in zip(sets, *whole):
        assert estimate_spreads(g, [1, 2], 40, 77, [ids]) == ([mean], [se])
        assert estimate_spread(g, [1, 2], 40, master_seed=77, blocked=ids) == (mean, se)
        counts = _reference_counts(g, [1, 2], 40, 77, ids)
        assert mean == counts.sum() / 40
        assert se == pytest.approx(counts.std(ddof=1) / np.sqrt(40), rel=1e-12, abs=1e-15)
    assert whole[0][-1] == whole[0][1] and whole[0][4] == 2.0
    # rows split (one set per chunk), then whole rows with sets in threes
    masks = []
    real = cascade_mod.reach_counts

    def counted(g, live, seeds, arcs=None):
        masks.append(live.shape[1])
        return real(g, live, seeds, arcs)

    monkeypatch.setattr(cascade_mod, "reach_counts", counted)
    for rows, calls in ((16, [16, 16, 8] * 7), (120, [120, 120, 40])):
        monkeypatch.setattr(cascade_mod, "_CHUNK_ELEMENTS", rows * g.m)
        masks.clear()
        assert repr(estimate_spreads(g, [1, 2], 40, 77, sets)) == repr(whole)
        assert sorted(masks) == sorted(calls)
    assert estimate_spreads(g, [1, 2], 40, 77, []) == ([], [])
    assert estimate_spreads(g, [1, 2], 1, 77, sets)[1] == [0.0] * len(sets)
    # ids outside [0, m), and non-integer ids, which must not be truncated
    for bad in ([g.m], [0.9], [True], np.array([1.0])):
        with pytest.raises(ValueError):
            estimate_spreads(g, [1, 2], 40, 77, [(), bad])


def test_estimate_non_increasing_over_nested_blocked_sets():
    for seed in range(6):
        g = with_random_weights(gnm_random_graph(12, 26, seed + 80), seed)
        order = np.random.default_rng(seed).permutation(g.m)
        values = [estimate_spread(g, [0, 5], 300, master_seed=seed, blocked=order[:k])[0]
                  for k in (0, 3, 8, 15, 26)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 2.0
    for bad in ([2], [-1]):
        with pytest.raises(ValueError):
            estimate_spread(P3, [0], 10, master_seed=1, blocked=bad)


def test_estimate_empty_seed_set():
    mean, se = estimate_spread(P3, [], 10, master_seed=1)
    assert mean == 0.0 and se == 0.0
    # a full seed set is all of the spread, whatever the weights
    assert estimate_spread(HALF_P3, [0, 1, 2], 10, master_seed=1) == (3.0, 0.0)


def test_estimate_rejects_zero_samples():
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError):
            estimate_spread(P3, [0], bad, master_seed=1)


def test_estimate_deterministic():
    g = with_random_weights(gnm_random_graph(15, 30, 4), 4)
    a = estimate_spread(g, [1, 2], 500, master_seed=77)
    b = estimate_spread(g, [1, 2], 500, master_seed=77)
    c = estimate_spread(g, [1, 2], 500, master_seed=78)
    assert a == b
    assert a != c


def test_enumeration_trivials():
    # single edge with weight p: expected reach 1 + p
    for p in (0.2, 0.6, 1.0):
        g = from_edge_arrays(2, [0], [1], [p])
        assert enumerate_spread_exact(g, [0]) == pytest.approx(1 + p)
    # all unit weights equals reachability
    g = gnm_random_graph(8, 12, 5)
    assert enumerate_spread_exact(g, [0]) == exact_spread_unit_weights(g, [0])


def test_enumeration_matches_independent_oracle():
    for seed in range(6):
        g = with_random_weights(gnm_random_graph(7, 10, seed + 20), seed)
        seeds = [seed % 7]
        assert enumerate_spread_exact(g, seeds) == pytest.approx(
            brute_expected_spread(g, seeds), abs=1e-12)


def test_enumeration_guard():
    g = gnm_random_graph(10, 26, 1)
    with pytest.raises(ValueError):
        enumerate_spread_exact(g, [0])


def test_exact_unit_weights():
    star = from_edge_arrays(5, [0, 0, 0, 0], [1, 2, 3, 4])
    assert exact_spread_unit_weights(star, [0]) == 5
    two = from_edge_arrays(5, [0, 1], [1, 2])  # component {0,1,2} and isolated 3, 4
    assert exact_spread_unit_weights(two, [0]) == 3
    inst = expand_to_blocking_instance(from_edge_arrays(3, [0, 0, 1], [1, 2, 2]))
    assert exact_spread_unit_weights(inst.graph, [inst.hub]) == 7
    with pytest.raises(ValueError):
        exact_spread_unit_weights(HALF_P3, [0])


def test_reach_counts_match_bfs_oracle():
    rng = np.random.default_rng(8)
    cases = [(gnm_random_graph(14, 24, 1), None), (gnm_random_graph(6, 0, 2), None)]
    for seed in range(3):
        inst = expand_to_blocking_instance(random_connected_graph(5, seed + 1, seed), "directed")
        cases.append((inst.graph, inst.arcs))
    for g, arcs in cases:
        tails, heads = (g.eu, g.ev) if arcs is None else (arcs[:, 0], arcs[:, 1])
        # mask counts on each side of the 64-mask word boundaries
        for masks in (0, 1, 13, 16, 63, 64, 65, 130):
            live = rng.random((g.m, masks)) < 0.6
            seeds = rng.choice(g.n, 2, replace=False)
            # with every edge dead a mask reaches only the seeds, so no
            # padding lane past ``masks`` is counted
            assert reach_counts(g, np.zeros_like(live), seeds, arcs).tolist() == [2] * masks
            oracle = []
            for col in live.T:
                a = csr_matrix((np.ones(col.sum()), (tails[col], heads[col])), shape=(g.n, g.n))
                reached = set()
                for s in seeds:
                    reached.update(breadth_first_order(a, s, directed=arcs is not None,
                                                       return_predecessors=False).tolist())
                oracle.append(len(reached))
            assert reach_counts(g, live, seeds, arcs).tolist() == oracle, (g.m, masks)


def test_is_connected_matches_csgraph_oracle():
    # sparse gnm graphs leave isolated nodes and several components; the
    # trivial sizes, two components and one isolated node (node 0 in the
    # path or apart from it) are pinned by hand
    cases = [gnm_random_graph(n, m, seed) for seed, (n, m) in enumerate(
        [(9, 3), (9, 8), (9, 12), (12, 11), (12, 20), (15, 14), (15, 40), (6, 15)])]
    cases += [from_edge_arrays(1, [], []), from_edge_arrays(5, [], []),
              from_edge_arrays(6, [0, 1, 3, 4], [1, 2, 4, 5]),
              from_edge_arrays(4, [0, 1], [1, 2]), from_edge_arrays(4, [1, 2], [2, 3]),
              random_connected_graph(10, 3, 4)]
    got = [is_connected(g) for g in cases]
    oracle = [connected_components(csr_matrix((np.ones(g.m), (g.eu, g.ev)), shape=(g.n, g.n)),
                                   directed=False, return_labels=False) <= 1 for g in cases]
    assert got == oracle
    assert True in got and False in got
    assert is_connected(from_edge_arrays(0, [], []))    # no nodes: no second component
    for n in range(1, 6):
        assert all(is_connected(g) for g in connected_graphs_upto_iso(n)), n


def test_in_arcs_of_directed_k4_expansion():
    h = from_edge_arrays(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
    inst = expand_to_blocking_instance(h, "directed")
    indptr, tails, eids = cascade_mod._in_arcs(inst.graph, inst.arcs)
    for v in range(inst.graph.n):
        row = slice(indptr[v], indptr[v + 1])
        assert sorted(eids[row]) == np.flatnonzero(inst.arcs[:, 1] == v).tolist()
        assert tails[row].tolist() == inst.arcs[eids[row], 0].tolist()
        assert tails[row].tolist() == sorted(tails[row])


def test_spread_bounds():
    for seed in range(8):
        g = with_random_weights(gnm_random_graph(9, 14, seed + 40), seed)
        seeds = [0, 3]
        mean, _ = estimate_spread(g, seeds, 300, master_seed=seed)
        exact = enumerate_spread_exact(g, seeds)
        assert len(seeds) <= mean <= g.n
        assert len(seeds) <= exact <= g.n


def test_monotone_under_blocking():
    for seed in range(10):
        g = gnm_random_graph(9, 13, seed + 60)
        seeds = [0]
        s1 = [0, 3]
        s2 = [0, 3, 7]
        base = enumerate_spread_exact(g, seeds)
        v1 = enumerate_spread_exact(remove_edges(g, s1), seeds)
        v2 = enumerate_spread_exact(remove_edges(g, s2), seeds)
        assert base >= v1 >= v2


def test_sample_seed_set_sizes():
    big = from_edge_arrays(4039, [0], [1])
    drawn = sample_seed_set(big, 0.001, 1)
    assert drawn.dtype == np.int64 and drawn.size == 4
    assert np.all(np.diff(drawn) > 0) and 0 <= drawn[0] and drawn[-1] < big.n
    g1000 = from_edge_arrays(1000, [0], [1])
    assert sample_seed_set(g1000, 0.001, 1).size == 1
    g5 = from_edge_arrays(5, [0], [1])
    assert sample_seed_set(g5, 1.0, 1).size == 5
    with pytest.raises(ValueError):
        sample_seed_set(g5, 0.0, 1)
    for bad in (1.5, True, "0.5"):
        with pytest.raises(ValueError):
            sample_seed_set(g5, bad, 1)


def test_seed_validation():
    for bad in ([99], [3], [-1], [0, 3]):
        with pytest.raises(ValueError):
            estimate_spread(P3, bad, 10, master_seed=1)
    # non-integer node ids must not be truncated (0.9 would seed node 0,
    # True node 1)
    live = np.ones((P3.m, 1), dtype=bool)
    for bad in ([0.9], [True], np.array([1.7, 2.2]), np.array([0.0]), np.array([True, False])):
        with pytest.raises(ValueError):
            estimate_spread(P3, bad, 4, 1)
        with pytest.raises(ValueError):
            estimate_spreads(P3, bad, 4, 1, [()])
        with pytest.raises(ValueError):
            reach_counts(P3, live, bad)
    for empty in ([], np.array([], dtype=float)):
        assert estimate_spread(P3, empty, 4, 1) == (0.0, 0.0)
        assert reach_counts(P3, live, empty).tolist() == [0]
    for bad in ([3], [-1], [0, 3]):
        with pytest.raises(ValueError):
            reach_counts(P3, live, bad)
    # live must be 2-D with one row per edge: extra rows are not ignored
    for bad in (np.ones((5, 2), dtype=bool), np.ones((1, 2), dtype=bool),
                np.ones(P3.m, dtype=bool), np.ones((P3.m, 1, 1), dtype=bool)):
        with pytest.raises(ValueError):
            reach_counts(P3, bad, [0])
    # repeated seeds collapse: node 0 and 2 once each, whatever the dtype
    for repeated in (np.array([2, 0, 2], dtype=np.uint8), [0, 0, 2, 2, 2]):
        assert estimate_spread(HALF_P3, repeated, 50, 3) == estimate_spread(HALF_P3, [0, 2], 50, 3)
        assert reach_counts(P3, live, repeated).tolist() == reach_counts(P3, live, [2, 0]).tolist() == [3]
        assert checked_ids(repeated, P3.n, "seed node").tolist() == list(repeated)


def _random_weighted_graph(rng):
    n = int(rng.integers(2, 8))
    m = int(rng.integers(1, min(12, n * (n - 1) // 2) + 1))
    g = with_random_weights(gnm_random_graph(n, m, rng), rng)
    # some certain edges, so that rounds with a sure firing occur too
    w = g.w.copy()
    w[rng.random(m) < 0.2] = 1.0
    seeds = rng.choice(n, size=int(rng.integers(1, min(n, 3) + 1)), replace=False)
    return g.with_weights(w), seeds


def test_round_model_oracle_matches_live_edge_routes():
    assert round_model_expected_spread(HALF_P3, [0]) == 1.75
    two_red = from_edge_arrays(3, [0, 1], [2, 2], [0.5, 0.5])
    assert round_model_expected_spread(two_red, [0, 1]) == 2.75
    assert round_model_expected_spread(HALF_P3, []) == 0.0
    # a node with no red neighbor stays white: node 2 is isolated
    lone = from_edge_arrays(3, [0], [1], [1.0])
    assert round_model_expected_spread(lone, [0]) == 2.0
    assert estimate_spread(lone, [0], 10, master_seed=2) == (2.0, 0.0)
    rng = np.random.default_rng(2024)
    for i in range(200):
        g, seeds = _random_weighted_graph(rng)
        exact = round_model_expected_spread(g, seeds)
        assert enumerate_spread_exact(g, seeds) == pytest.approx(exact, abs=1e-12), i
        if i % 5:
            continue
        # the Monte Carlo route, with and without a blocked set (40 graphs)
        blocked = np.flatnonzero(rng.random(g.m) < 0.3)
        means, ses = estimate_spreads(g, seeds, 4000, i, [(), blocked])
        for mean, se, h in zip(means, ses, (g, remove_edges(g, blocked))):
            assert abs(mean - round_model_expected_spread(h, seeds)) <= 4 * se + 1e-12, i
