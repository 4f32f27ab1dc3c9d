import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracle_utils import edge_blocking_reference, same_structure, white_count_after_blocking

from edgeblock import hardness as hardness_mod
from edgeblock.generators import (
    connected_graphs_upto_iso,
    gnm_random_graph,
    random_connected_graph,
)
from edgeblock.graph import from_edge_arrays, girth
from edgeblock.hardness import (
    _BLOCKING_CHUNK,
    CONSTRUCTIONS,
    _binomial_table,
    _lex_columns,
    brute_force_densest_subgraph,
    brute_force_edge_blocking,
    expand_to_blocking_instance,
    sweep_small_instances,
    verify_reduction,
)

K3 = from_edge_arrays(3, [0, 0, 1], [1, 2, 2])
K4 = from_edge_arrays(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])
P3 = from_edge_arrays(3, [0, 1], [1, 2])


def test_expansion_counts_single_edge():
    inst = expand_to_blocking_instance(from_edge_arrays(2, [0], [1]))
    assert inst.graph.n == 4 and inst.graph.m == 4


def test_expansion_counts_k3():
    inst = expand_to_blocking_instance(K3)
    assert inst.graph.n == 7 and inst.graph.m == 9


def test_expansion_structure_invariants():
    for seed in range(5):
        h = random_connected_graph(6, 4, seed)
        inst = expand_to_blocking_instance(h)
        g = inst.graph
        assert g.n == h.n + h.m + 1
        assert g.m == 2 * h.m + h.n
        assert np.all(g.w == 1.0)
        deg = g.degrees
        assert np.all(deg[h.n:h.n + h.m] == 2)
        assert deg[inst.hub] == h.n
        hub_nbrs = set(g.nbrs[g.indptr[inst.hub]:g.indptr[inst.hub + 1]].tolist())
        assert hub_nbrs == set(range(h.n))
        assert inst.hub == h.n + h.m


def test_expansion_requires_connected():
    with pytest.raises(ValueError):
        expand_to_blocking_instance(from_edge_arrays(4, [0], [1]))
    with pytest.raises(ValueError, match="empty source graph"):
        expand_to_blocking_instance(from_edge_arrays(0, [], []))


def test_densest_trivials():
    assert brute_force_densest_subgraph(K4, 3).value == 3
    p4 = from_edge_arrays(4, [0, 1, 2], [1, 2, 3])
    assert brute_force_densest_subgraph(p4, 2).value == 1
    c5 = from_edge_arrays(5, [0, 1, 2, 3, 0], [1, 2, 3, 4, 4])
    assert brute_force_densest_subgraph(c5, 4).value == 3


def test_densest_witness_reproduces_value():
    for seed in range(6):
        h = gnm_random_graph(9, 16, seed)
        for k in (2, 4, 6):
            res = brute_force_densest_subgraph(h, k)
            assert len(res.witness) == k
            inside = np.isin(h.eu, res.witness) & np.isin(h.ev, res.witness)
            assert np.count_nonzero(inside) == res.value


def test_densest_guards():
    with pytest.raises(ValueError):
        brute_force_densest_subgraph(gnm_random_graph(20, 30, 1), 3)
    with pytest.raises(ValueError):
        brute_force_densest_subgraph(K4, 5)


def test_blocking_path_example():
    res = brute_force_edge_blocking(P3, 1, [0])
    assert res.value == 2           # blocking (0, 1) strands nodes 1 and 2
    assert res.witness == (0,)


def test_blocking_zero_budget_connected():
    assert brute_force_edge_blocking(K4, 0, [0]).value == 0


def test_blocking_k3_expansion_full_budget():
    inst = expand_to_blocking_instance(K3)
    res = brute_force_edge_blocking(inst.graph, 3, [inst.hub])
    assert res.value == 6
    assert white_count_after_blocking(inst.graph, res.witness, [inst.hub]) == 6


def test_blocking_witness_reproduces_value():
    for seed in range(4):
        g = gnm_random_graph(8, 11, seed + 5)
        res = brute_force_edge_blocking(g, 2, [0, 1])
        assert white_count_after_blocking(g, res.witness, [0, 1]) == res.value


def test_blocking_guards():
    half = P3.with_weights(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        brute_force_edge_blocking(half, 1, [0])
    big = gnm_random_graph(40, 200, 2)
    with pytest.raises(ValueError):
        brute_force_edge_blocking(big, 10, [0])
    for k in (-1, P3.m + 1):
        with pytest.raises(ValueError, match="0 <= k <= m"):
            brute_force_edge_blocking(P3, k, [0])


def _blocking_cases():
    for n in range(2, 6):
        for h in connected_graphs_upto_iso(n):
            for construction in CONSTRUCTIONS:
                inst = expand_to_blocking_instance(h, construction)
                for k in range(min(n, 4) + 1):
                    yield inst.graph, k, [inst.hub], inst.arcs
    for seed in range(5):
        g = gnm_random_graph(9, 14, seed)
        for k in (0, 1, 2, 3, g.m):
            yield g, k, [0, 1], None


def test_blocking_matches_loop_reference():
    largest = 0
    for g, k, seeds, arcs in _blocking_cases():
        res = brute_force_edge_blocking(g, k, seeds, arcs)
        assert (res.value, res.witness) == edge_blocking_reference(g, k, seeds, arcs), (g.m, k)
        largest = max(largest, math.comb(g.m, k))
    assert largest > 2 * _BLOCKING_CHUNK    # K5 expansion, k = 4: 12,650 subsets


def _lex_rows(table, m, k, start, s):
    """The columns of ``_lex_columns`` as int64[s, k] rows."""
    return np.array(list(_lex_columns(table, m, k, start, s)), dtype=np.int64).reshape(k, s).T


def test_lex_subsets_match_combinations():
    # chunks of 7 rows, so seams fall mid-list, against itertools' own order
    for m in range(13):
        for k in range(m + 1):
            total = math.comb(m, k)
            table = _binomial_table(m, k)
            assert table.shape == (k + 1, m - k + 1)
            assert table.max() <= total
            rows = np.concatenate([_lex_rows(table, m, k, done, min(7, total - done))
                                   for done in range(0, total, 7)])
            want = np.array(list(itertools.combinations(range(m), k)), dtype=np.int64)
            assert np.array_equal(rows, want.reshape(total, k)), (m, k)


def test_blocking_matches_loop_reference_across_chunk_seams(monkeypatch):
    monkeypatch.setattr(hardness_mod, "_BLOCKING_CHUNK", 7)
    for g, k, seeds, arcs in _blocking_cases():
        res = brute_force_edge_blocking(g, k, seeds, arcs)
        assert (res.value, res.witness) == edge_blocking_reference(g, k, seeds, arcs), (g.m, k)


def test_blocking_memory_stays_near_live_block():
    # 19,900 subsets of 198 edges: the old int64[k, s] subsets block alone
    # took 8k bytes per mask; writing columns straight into `live` keeps
    # the peak near m bytes per mask plus O(chunk) int64 temporaries
    path = from_edge_arrays(201, np.arange(200), np.arange(1, 201))
    brute_force_edge_blocking(path, 1, [0])
    tracemalloc.start()
    try:
        res = brute_force_edge_blocking(path, 198, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.value, res.witness) == (200, tuple(range(198)))
    assert peak < 8 * 198 * _BLOCKING_CHUNK, peak


def test_blocking_near_full_budget_on_many_edges():
    # m = 70 and k >= 68: C(x, k - j) over every x in 0..m would need
    # C(70, 35) ~ 1.1e20, past int64; only the reachable x range fits
    path = from_edge_arrays(71, np.arange(70), np.arange(1, 71))
    star = from_edge_arrays(71, np.zeros(70, dtype=np.int64), np.arange(1, 71))
    for g, seeds in ((path, [70]), (path, [35]), (star, [0]), (star, [64])):
        for k in (68, 69, 70):
            assert _binomial_table(g.m, k).max() <= math.comb(g.m, k)
            res = brute_force_edge_blocking(g, k, seeds)
            assert (res.value, res.witness) == edge_blocking_reference(g, k, seeds), (k, seeds)


def test_verify_below_girth_cases():
    check = verify_reduction(K3, 2)
    assert check.mode == "below_girth" and check.passed
    assert check.opt_ds == 1
    tree = from_edge_arrays(6, [0, 0, 1, 1, 2], [1, 2, 3, 4, 5])
    for k in range(1, 6):
        c = verify_reduction(tree, k)
        assert c.mode == "below_girth" and c.passed


def test_verify_full_node_count_identity_holds():
    # blocking every hub edge isolates the hub: identity holds at k = n
    for h in (K3, K4):
        c = verify_reduction(h, h.n)
        assert c.mode == "expansion" and c.passed
        assert c.opt_eb == c.opt_ds + h.n


def test_known_identity_counterexample_pinned():
    # For girth <= k < n the expansion identity fails: incidence nodes
    # conduct spread back toward copy nodes, so a blocked copy node is
    # re-infected whenever its original has a neighbor outside the chosen
    # subset.  K4 with k=3 is the smallest case; the true brute-force
    # optima are pinned here.
    c = verify_reduction(K4, 3)
    assert c.mode == "expansion"
    assert c.opt_ds == 3
    assert c.opt_eb == 1
    assert not c.passed


def test_directed_identity_k4():
    # directed arcs hub -> copy -> incidence: blocking the hub arcs of three
    # copies leaves them and the three incidence nodes between them white
    inst = expand_to_blocking_instance(K4, "directed")
    res = brute_force_edge_blocking(inst.graph, 3, [inst.hub], inst.arcs)
    assert res.value == 6 == 3 + 3
    g = inst.graph
    assert all(inst.hub in (int(g.eu[e]), int(g.ev[e])) for e in res.witness)
    assert white_count_after_blocking(g, res.witness, [inst.hub], inst.arcs) == 6
    c = verify_reduction(K4, 3, construction="directed")
    assert (c.mode, c.opt_ds, c.opt_eb, c.passed) == ("expansion", 3, 6, True)
    assert c.construction == "directed"


def test_directed_expansion_keeps_edge_ids():
    for h in (K3, K4, random_connected_graph(6, 4, 2)):
        und = expand_to_blocking_instance(h)
        dirx = expand_to_blocking_instance(h, "directed")
        assert und.arcs is None
        assert same_structure(dirx.graph, und.graph)
        tails, heads = dirx.arcs[:, 0], dirx.arcs[:, 1]
        assert np.array_equal(np.minimum(tails, heads), und.graph.eu)
        assert np.array_equal(np.maximum(tails, heads), und.graph.ev)
        # every arc leads away from the hub: into a copy, or into an incidence node
        hub_arc = tails == dirx.hub
        copies, incidence = np.arange(h.n), np.arange(h.n, h.n + h.m)
        assert np.all(np.isin(heads[hub_arc], copies))
        assert np.all(np.isin(tails[~hub_arc], copies))
        assert np.all(np.isin(heads[~hub_arc], incidence))


def test_directed_witnesses_recount():
    for seed in range(3):
        h = random_connected_graph(5, 3, seed + 20)
        inst = expand_to_blocking_instance(h, "directed")
        for k in (1, 2, 3):
            res = brute_force_edge_blocking(inst.graph, k, [inst.hub], inst.arcs)
            assert white_count_after_blocking(
                inst.graph, res.witness, [inst.hub], inst.arcs) == res.value


def test_undirected_default_unchanged_beside_directed():
    verify_reduction(K4, 3, construction="directed")
    c = verify_reduction(K4, 3)
    assert c.construction == "undirected"
    assert (c.mode, c.opt_ds, c.opt_eb, c.passed) == ("expansion", 3, 1, False)


def test_arcs_must_orient_own_edges():
    inst = expand_to_blocking_instance(K3, "directed")
    with pytest.raises(ValueError):
        brute_force_edge_blocking(inst.graph, 1, [inst.hub], inst.arcs[:-1])
    bad = inst.arcs.copy()
    bad[0] = bad[1]
    with pytest.raises(ValueError):
        brute_force_edge_blocking(inst.graph, 1, [inst.hub], bad)
    for bad in ([-1], [0.9], [True]):
        with pytest.raises(ValueError):
            white_count_after_blocking(inst.graph, bad, [inst.hub], inst.arcs)
    with pytest.raises(ValueError):
        brute_force_edge_blocking(inst.graph, 1, [inst.hub], inst.arcs + 0.5)   # float arcs


def test_construction_validation():
    with pytest.raises(ValueError):
        expand_to_blocking_instance(K3, "bidirected")
    with pytest.raises(ValueError):
        verify_reduction(K3, 3, construction="bidirected")
    with pytest.raises(ValueError):
        sweep_small_instances(3, construction="bidirected")


def test_below_girth_densest_is_k_minus_one():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(4, 11))
        extra = int(rng.integers(0, 4))
        h = random_connected_graph(n, extra, int(rng.integers(0, 1 << 30)))
        gr = girth(h)
        top = n if math.isinf(gr) else min(int(gr), n)
        for k in range(1, top):
            res = brute_force_densest_subgraph(h, k)
            assert res.value == k - 1


def test_relabeling_leaves_optima_unchanged():
    rng = np.random.default_rng(3)
    for seed in range(4):
        h = random_connected_graph(6, 3, seed + 9)
        perm = rng.permutation(h.n)
        h2 = from_edge_arrays(h.n, perm[h.eu], perm[h.ev])
        for k in (2, 3):
            assert (brute_force_densest_subgraph(h, k).value
                    == brute_force_densest_subgraph(h2, k).value)
        inst, inst2 = expand_to_blocking_instance(h), expand_to_blocking_instance(h2)
        assert (brute_force_edge_blocking(inst.graph, 2, [inst.hub]).value
                == brute_force_edge_blocking(inst2.graph, 2, [inst2.hub]).value)


def test_verify_validation():
    with pytest.raises(ValueError):
        verify_reduction(K3, 0)
    with pytest.raises(ValueError):
        verify_reduction(K3, 4)


def test_verify_requires_connected_source():
    two_edges = from_edge_arrays(4, [0, 2], [1, 3])     # acyclic: below girth for any k
    with pytest.raises(ValueError, match="connected"):
        verify_reduction(two_edges, 3)


def test_one_connectivity_check_per_verify(monkeypatch):
    # verify_reduction checks connectivity once and hands its graph to the
    # per-graph helper, which checks none, so the sweep over generated
    # (connected) graphs checks none; expand_to_blocking_instance still
    # checks when called directly
    calls, helper_ks = [], []
    real, real_helper = hardness_mod.is_connected, hardness_mod._graph_checks
    monkeypatch.setattr(hardness_mod, "is_connected", lambda h: calls.append(h) or real(h))
    monkeypatch.setattr(hardness_mod, "_graph_checks",
                        lambda h, ks, c: helper_ks.append(list(ks)) or real_helper(h, ks, c))
    checks = sweep_small_instances(4)
    assert sum(c.mode == "expansion" for c in checks) > 0
    assert len(checks) == 32 and calls == []
    assert len(helper_ks) == 9          # one helper call per graph, all its k at once
    for k in (1, 3, 4):
        verify_reduction(K4, k)
    assert len(calls) == 3 and helper_ks[9:] == [[1], [3], [4]]
    with pytest.raises(ValueError, match="connected"):
        expand_to_blocking_instance(from_edge_arrays(4, [0], [1]))
    assert len(calls) == 4


def test_sweep_size_rejected_before_any_check(monkeypatch):
    calls = []
    real = hardness_mod._graph_checks
    monkeypatch.setattr(hardness_mod, "_graph_checks", lambda *a: calls.append(a) or real(*a))
    for max_n in (7, 1, 0):
        with pytest.raises(ValueError):
            sweep_small_instances(max_n)
    assert calls == []
    assert len(sweep_small_instances(2)) == 2 and len(calls) == 1


def test_sweep_does_each_graphs_work_once(monkeypatch):
    # n <= 4 gives 9 graphs, 5 of them with a cycle: one girth per graph,
    # one expansion per cyclic graph, and every k at or above its girth
    # enumerates on that one expansion
    counted = {"girth": [], "_hub_expansion": [], "brute_force_edge_blocking": []}
    for name, seen in counted.items():
        real = getattr(hardness_mod, name)
        monkeypatch.setattr(hardness_mod, name,
                            lambda *a, _real=real, _seen=seen: _seen.append(a) or _real(*a))
    checks = sweep_small_instances(4)
    girths, expansions, blocking = counted.values()
    assert (len(girths), len(expansions)) == (9, 5)
    assert len(blocking) == sum(c.mode == "expansion" for c in checks)
    assert len({id(a[0]) for a in blocking}) == 5
    assert [a[1] for a in blocking[-2:]] == [3, 4]      # K4: girth 3, k in 3..4
    assert blocking[-2][0] is blocking[-1][0]


def test_sweep_matches_one_verify_per_k():
    for construction in CONSTRUCTIONS:
        want = [verify_reduction(h, k, construction)
                for n in range(2, 6) for h in connected_graphs_upto_iso(n) for k in range(1, n + 1)]
        assert sweep_small_instances(5, construction) == want, construction


def test_sweep_small_instances_runs():
    checks = sweep_small_instances(4)
    # graphs with 2..4 nodes: 1 + 2 + 6 classes, k ranges 1..n
    assert len(checks) == 1 * 2 + 2 * 3 + 6 * 4
    assert all(c.passed for c in checks if c.mode == "below_girth")
    assert all(c.passed for c in checks if c.mode == "expansion" and c.k == 4)
    assert all(c.construction == "undirected" for c in checks)


def test_sweep_small_instances_directed():
    und = sweep_small_instances(4)
    checks = sweep_small_instances(4, construction="directed")
    assert [(c.k, c.mode, c.opt_ds) for c in checks] == [(c.k, c.mode, c.opt_ds) for c in und]
    assert all(c.passed and c.construction == "directed" for c in checks)
