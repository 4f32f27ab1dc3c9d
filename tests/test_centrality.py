import numpy as np
import pytest

from edgeblock import centrality as centrality_mod
from edgeblock import graph as graph_mod
from edgeblock.centrality import (
    edge_betweenness,
    node_closeness,
    node_pagerank,
)
from edgeblock.graph import from_edge_arrays, row_blocks
from oracle_utils import (
    brute_edge_betweenness,
    dense_pagerank,
    dijkstra_closeness,
    edge_betweenness_weighted,
    gnm_random_graph,
    heap_dijkstra,
    with_random_weights,
)

P3 = from_edge_arrays(3, [0, 1], [1, 2])
K3 = from_edge_arrays(3, [0, 0, 1], [1, 2, 2])


def test_closeness_path_values():
    clo = node_closeness(P3)
    assert clo[1] == pytest.approx(1.0)
    assert clo[0] == pytest.approx(2 / 3)
    assert clo[2] == pytest.approx(2 / 3)


def test_closeness_unit_weight_degenerate_distances():
    # every weighted distance is zero, so every node gets the same score
    g = P3.with_weights(np.ones(2))
    clo = node_closeness(g, weighted=True)
    assert np.all(clo == clo[0])


def test_closeness_isolated_node_zero():
    g = from_edge_arrays(3, [0], [1])
    assert node_closeness(g)[2] == 0.0
    for n in (0, 1, 2, 5):
        for weighted in (False, True):
            clo = node_closeness(from_edge_arrays(n, [], []), weighted)
            assert clo.dtype == np.float64 and clo.tolist() == [0.0] * n


def test_closeness_matches_direct_formula():
    for seed in range(6):
        g = gnm_random_graph(11, 16, seed)  # usually disconnected
        clo = node_closeness(g)
        import collections
        for v in range(g.n):
            dist = {v: 0}
            queue = collections.deque([v])
            while queue:
                u = queue.popleft()
                for w in g.nbrs[g.indptr[u]:g.indptr[u + 1]].tolist():
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            total = sum(dist.values())
            r = len(dist)
            expect = 0.0 if total == 0 else (r - 1) ** 2 / ((g.n - 1) * total)
            assert clo[v] == pytest.approx(expect, abs=1e-12)


def test_closeness_weighted_uses_one_minus_weight():
    g = P3.with_weights(np.array([0.5, 0.75]))
    clo = node_closeness(g, weighted=True)
    # distances from 0: to 1 is .5, to 2 is .75; from 1: .5 and .25; from 2: .75 and .25
    assert clo[0] == pytest.approx(4 / (2 * 1.25))
    assert clo[1] == pytest.approx(4 / (2 * 0.75))
    assert clo[2] == pytest.approx(4 / (2 * 1.0))


def test_closeness_weighted_matches_dijkstra_oracle():
    # weight-1 (zero-length) edges, isolated nodes and several components
    seen = {"unit": 0, "isolated": 0, "split": 0}
    for seed in range(12):
        g = gnm_random_graph(14, 9 + seed % 4, seed + 70)
        rng = np.random.default_rng(seed)
        g = g.with_weights(np.where(rng.random(g.m) < 0.3, 1.0, 1.0 - rng.random(g.m)))
        seen["unit"] += int(np.any(g.w == 1.0))
        seen["isolated"] += int(np.any(g.degrees == 0))
        comps = {frozenset(heap_dijkstra(g, v, np.ones(g.m))) for v in range(g.n)}
        seen["split"] += int(sum(len(c) > 1 for c in comps) > 1)
        got = node_closeness(g, weighted=True)
        assert np.allclose(got, dijkstra_closeness(g), rtol=1e-12, atol=0.0)
    assert min(seen.values()) >= 6, seen


def test_pagerank_symmetry_and_trivials():
    pr = node_pagerank(K3)
    assert np.allclose(pr, 1 / 3)
    single = from_edge_arrays(1, [], [])
    assert node_pagerank(single).tolist() == [1.0]
    assert node_pagerank(from_edge_arrays(0, [], [])).shape == (0,)


def test_pagerank_star_and_dense_oracle():
    star = from_edge_arrays(4, [0, 0, 0], [1, 2, 3])
    pr = node_pagerank(star)
    assert pr[0] > pr[1]
    assert abs(pr.sum() - 1.0) < 1e-9
    assert np.allclose(pr, dense_pagerank(star, 0.85), atol=1e-8)


def test_pagerank_random_graphs():
    for seed in range(5):
        g = gnm_random_graph(13, 20, seed)  # may contain isolated nodes
        pr = node_pagerank(g)
        assert abs(pr.sum() - 1.0) < 1e-9
        assert np.allclose(pr, dense_pagerank(g), atol=1e-8)


def test_betweenness_trivials():
    assert edge_betweenness(P3).tolist() == [2.0, 2.0]
    assert edge_betweenness(K3).tolist() == [1.0, 1.0, 1.0]
    for n in (0, 1, 2, 5):
        for weighted in (False, True):
            bet = edge_betweenness(from_edge_arrays(n, [], []), weighted)
            assert bet.dtype == np.float64 and bet.shape == (0,)


def test_betweenness_matches_bruteforce_unweighted():
    for seed in range(8):
        g = gnm_random_graph(8, 13, seed + 10)
        got = edge_betweenness(g)
        want = brute_edge_betweenness(g)
        assert np.allclose(got, want, atol=1e-9)


def test_betweenness_matches_bruteforce_weighted():
    for seed in range(8):
        g = with_random_weights(gnm_random_graph(8, 13, seed + 30), seed)
        got = edge_betweenness(g, weighted=True)
        want = brute_edge_betweenness(g, weighted=True)
        assert np.allclose(got, want, atol=1e-9)


def test_betweenness_weighted_zero_length_edges_finite():
    # unit weights give all-zero distances; scores must stay finite
    g = gnm_random_graph(7, 12, 3)
    bc = edge_betweenness(g.with_weights(np.ones(g.m)), weighted=True)
    assert np.all(np.isfinite(bc))
    assert np.all(bc >= 0)


def _weighted_oracle_bytes(g):
    return edge_betweenness_weighted(g.indptr, g.nbrs, 1.0 - g.w[g.adj_eid], g.adj_eid, g.m).tobytes()


def test_betweenness_weighted_zero_length_chain_takes_heap_order():
    # the chain 0 - 3 - 1 - 2 has length 0 (weight 1) edges and hangs 4 and 5
    # off its ends; from 0 the heap pops 3, 1, 2 at distance 0, higher ids
    # before lower, where a (distance, id) order would put 1 before 3
    g = from_edge_arrays(6, [0, 1, 1, 0, 2], [3, 3, 2, 4, 5], [1.0, 1.0, 1.0, 0.5, 0.25])
    lengths = (1.0 - g.w[g.adj_eid]).tolist()
    assert centrality_mod._heap_order(g.indptr.tolist(), g.nbrs.tolist(), lengths, 0)[:4] == [0, 3, 1, 2]
    assert edge_betweenness(g, weighted=True).tobytes() == _weighted_oracle_bytes(g)


def test_betweenness_weighted_disconnected_matches_oracle():
    # two random weighted components, one of them a lone edge, and isolated nodes
    h = with_random_weights(gnm_random_graph(7, 12, 8), 8)
    g = from_edge_arrays(12, np.r_[h.eu + 2, 10], np.r_[h.ev + 2, 11], np.r_[h.w, 0.5])
    assert edge_betweenness(g, weighted=True).tobytes() == _weighted_oracle_bytes(g)


def test_betweenness_weighted_small_source_blocks_match_oracle(monkeypatch):
    # shares join each edge in source order, so block seams change no bit
    graphs = [with_random_weights(gnm_random_graph(11, 25, s), s) for s in range(3)]
    graphs.append(graphs[0].with_weights(np.ones(graphs[0].m)))   # every source ties
    for g in graphs:
        whole = edge_betweenness(g, weighted=True).tobytes()
        assert whole == _weighted_oracle_bytes(g)
        with monkeypatch.context() as patch:
            patch.setattr(graph_mod, "_BLOCK_ELEMENTS", 3 * 2 * g.m)
            assert len(list(row_blocks(g.n, 2 * g.m))) > 2
            assert edge_betweenness(g, weighted=True).tobytes() == whole


def test_betweenness_weighted_deep_dags_match_oracle(monkeypatch):
    # a 130-node path and cycle run the depth relaxation for many rounds;
    # four-level weights include 1.0, so zero-length runs tie sources
    rng = np.random.default_rng(26)
    path = np.arange(129)
    cycle = from_edge_arrays(130, np.r_[path, 129], np.r_[path + 1, 0])
    for h in (from_edge_arrays(130, path, path + 1), cycle):
        for w in (rng.random(h.m), rng.choice([0.25, 0.5, 0.75, 1.0], h.m)):
            g = h.with_weights(w)
            whole = edge_betweenness(g, weighted=True).tobytes()
            assert whole == _weighted_oracle_bytes(g)
            with monkeypatch.context() as patch:
                patch.setattr(graph_mod, "_BLOCK_ELEMENTS", 1)     # one source per block
                assert len(list(row_blocks(g.n, 2 * g.m))) == g.n
                assert edge_betweenness(g, weighted=True).tobytes() == whole


def test_betweenness_pair_mass_conservation():
    # contributions over all edges equal the per-pair path-length masses
    for seed in range(4):
        g = gnm_random_graph(7, 11, seed + 50)
        got = edge_betweenness(g)
        want = brute_edge_betweenness(g)
        assert got.sum() == pytest.approx(want.sum(), abs=1e-9)
