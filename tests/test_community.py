import math
from dataclasses import replace

import numpy as np
import pytest

from edgeblock import community
from edgeblock.community import (
    SweepParams,
    inter_community_edges,
    louvain_partition,
    resolution_sweep,
    sweep_walk,
)
from edgeblock.generators import planted_partition
from edgeblock.graph import from_edge_arrays
from edgeblock.seeding import rng_for
from edgeblock.strategies import blocked_sets
from oracle_utils import (
    best_modularity_exhaustive,
    gnm_random_graph,
    modularity,
    random_connected_graph,
    resolution_sweep_reference,
)

# two triangles joined by one bridge: nodes 0-2 and 3-5, bridge (2, 3)
TT = from_edge_arrays(6, [0, 0, 1, 2, 3, 3, 4], [1, 2, 2, 3, 4, 5, 5])
K4 = from_edge_arrays(4, [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3])


def _same_partition(a, b):
    # equality up to community renaming
    return len({(int(x), int(y)) for x, y in zip(a, b)}) == len(set(map(int, a))) == len(set(map(int, b)))


def _sweep(g, params, master_seed):
    # the budget's pick from a walk of its own
    return resolution_sweep(g, params, sweep_walk(g, params, [params.budget], master_seed))


def test_modularity_single_community_zero():
    for g in (K4, TT):
        q = modularity(g, np.zeros(g.n, dtype=np.int64), 1.0)
        assert q == pytest.approx(0.0, abs=1e-15)


def test_modularity_singletons():
    g = K4
    q = modularity(g, np.arange(4), 1.0)
    deg = g.degrees
    expect = -float(((deg / (2.0 * g.m)) ** 2).sum())
    assert q == pytest.approx(expect, abs=1e-15)


def test_modularity_two_triangles():
    q = modularity(TT, np.array([0, 0, 0, 1, 1, 1]), 1.0)
    assert q == pytest.approx(5 / 14, abs=1e-12)


def test_louvain_edgeless_graph():
    g = from_edge_arrays(5, [], [])
    labels = louvain_partition(g, 1.0, rng_for(1, 0))
    assert labels.dtype == np.int64 and labels.tolist() == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        louvain_partition(g, 1.0, None)


def test_louvain_k4_single_community():
    # exhaustive check over all 15 partitions: the single block is optimal
    best_q, _ = best_modularity_exhaustive(K4, 1.0)
    for seed in range(5):
        labels = louvain_partition(K4, 1.0, rng_for(seed, 0))
        assert labels.tolist() == [0] * K4.n
        assert modularity(K4, labels, 1.0) == pytest.approx(best_q, abs=1e-12)


def test_louvain_recovers_triangles():
    best_q, best_labels = best_modularity_exhaustive(TT, 1.0)
    assert _same_partition(best_labels, [0, 0, 0, 1, 1, 1])
    for seed in range(5):
        labels = louvain_partition(TT, 1.0, rng_for(seed, 1))
        assert _same_partition(labels, [0, 0, 0, 1, 1, 1])
        assert modularity(TT, labels, 1.0) == pytest.approx(best_q, abs=1e-12)


def test_louvain_improves_on_singletons():
    for seed in range(6):
        g = gnm_random_graph(16, 32, seed)
        labels = louvain_partition(g, 1.0, rng_for(seed, 2))
        q0 = modularity(g, np.arange(g.n), 1.0)
        assert modularity(g, labels, 1.0) >= q0 - 1e-12


def test_louvain_deterministic_per_seed():
    g = planted_partition(3, 8, 0.7, 0.05, 4)
    a = louvain_partition(g, 1.0, rng_for(9, 0))
    b = louvain_partition(g, 1.0, rng_for(9, 0))
    assert np.array_equal(a, b)


def test_louvain_high_resolution_singletons():
    g = gnm_random_graph(10, 20, 7)
    labels = louvain_partition(g, float(4 * g.m), rng_for(3, 0))
    assert labels.tolist() == list(range(g.n))


def test_inter_community_edges_trivials():
    assert inter_community_edges(TT, np.zeros(6, dtype=np.int64)).size == 0
    assert inter_community_edges(TT, np.arange(6)).size == TT.m
    bridge_only = inter_community_edges(TT, np.array([0, 0, 0, 1, 1, 1]))
    assert bridge_only.tolist() == [3]
    assert (TT.eu[3], TT.ev[3]) == (2, 3)
    for labels in (np.zeros(5, dtype=np.int64), np.zeros(7, dtype=np.int64)):
        with pytest.raises(ValueError, match="label count"):
            inter_community_edges(TT, labels)


def test_sweep_finds_bridge():
    params = SweepParams(resolution=0.1, factor=1.05, h1=5, h2=5, budget=1)
    assert _sweep(TT, params, 21).tolist() == [3]


def test_sweep_guard_paths():
    assert _sweep(TT, SweepParams(budget=0), 1).size == 0
    assert _sweep(TT, SweepParams(budget=TT.m), 1).tolist() == list(range(TT.m))
    assert _sweep(TT, SweepParams(budget=99), 1).size == TT.m


def test_sweep_param_validation():
    # 10**400 is past the float range, where float() overflows
    for bad in (0.0, -1.0, math.nan, math.inf, True, "1", 10**400):
        with pytest.raises(ValueError):
            SweepParams(resolution=bad)
        with pytest.raises(ValueError):
            louvain_partition(TT, bad, rng_for(1, 0))
    for bad in (1.0, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            SweepParams(factor=bad)
    for bad in (dict(h1=0), dict(h1=1.5), dict(h1=True), dict(h2=2.5), dict(budget=-1),
                dict(budget=2.5)):
        with pytest.raises(ValueError):
            SweepParams(**bad)


def test_sweep_contract_randomized():
    rng = np.random.default_rng(5)
    for trial in range(12):
        n = int(rng.integers(6, 24))
        m = int(rng.integers(n - 1, min(n * (n - 1) // 2, 3 * n)))
        g = gnm_random_graph(n, m, int(rng.integers(0, 1 << 30)))
        k = int(rng.integers(0, g.m + 2))
        params = SweepParams(resolution=0.05, factor=1.3, h1=2, h2=2, budget=k)
        out = _sweep(g, params, trial)
        assert out.size <= k or k >= g.m
        assert np.all(out >= 0) and np.all(out < g.m)
        assert np.array_equal(np.unique(out), out)


def test_sweep_returns_max_within_budget():
    g = planted_partition(3, 6, 0.8, 0.1, 13)
    params = SweepParams(resolution=0.05, factor=1.2, h1=3, h2=3, budget=g.m // 3)
    trace, picks = sweep_walk(g, params, [params.budget], 5)
    out = resolution_sweep(g, params, (trace, picks))
    sizes_ok = [s for _, s in trace if s <= params.budget]
    assert out.size == max(sizes_ok, default=0)


def _acceptance09_graph(trial, rng):
    # acceptance-09's three graph families, by trial mod 3
    if trial % 3 == 0:
        n = int(rng.integers(5, 30))
        m = int(rng.integers(4, min(50, n * (n - 1) // 2) + 1))
        return gnm_random_graph(n, m, int(rng.integers(1 << 30)))
    if trial % 3 == 1:
        return planted_partition(int(rng.integers(2, 4)), int(rng.integers(4, 8)),
                                 0.7, 0.05, int(rng.integers(1 << 30)))
    return random_connected_graph(int(rng.integers(4, 20)),
                                  int(rng.integers(0, 6)), int(rng.integers(1 << 30)))


def test_shared_walk_matches_one_budget_sweeps():
    # acceptance-09's three graph families: every pick of one walk over all
    # budgets equals that budget's sweep run by run, each budget's own walk
    # runs what that sweep runs and is a prefix of the shared walk, and the
    # shared walk is the largest budget below m's own
    rng = np.random.default_rng(9)
    for trial in range(30):
        g = _acceptance09_graph(trial, rng)
        base = SweepParams(resolution=0.05, factor=1.3, h1=2, h2=2)
        ks = sorted({0, g.m - 1, g.m, g.m + 3, *(int(k) for k in rng.integers(1, g.m, 3))})
        trace, picks = sweep_walk(g, base, ks, trial)
        assert len(trace) % base.h2 == 0 and sorted(picks) == ks
        assert trace == sweep_walk(g, base, [max(k for k in ks if k < g.m)], trial)[0]
        for k in ks:
            params = replace(base, budget=k)
            own, own_picks = sweep_walk(g, base, [k], trial)
            assert own == trace[:len(own)] and (own == []) == (k >= g.m)
            ref_trace, ref = resolution_sweep_reference(g, params, trial)
            assert own == ref_trace
            for shared in (picks[k], own_picks[k], _sweep(g, params, trial)):
                assert shared.dtype == np.int64
                assert np.array_equal(shared, ref)


def test_shared_level0_walk_matches_fresh_runs():
    # the walk's runs all read one level 0; each equals a run that builds
    # its own
    rng = np.random.default_rng(14)
    for trial in range(30):
        g = _acceptance09_graph(trial, rng)
        params = SweepParams(resolution=0.05, factor=1.3, h1=2, h2=2,
                             budget=int(rng.integers(0, g.m)))
        trace, _ = sweep_walk(g, params, [params.budget], trial)
        runs = [louvain_partition(g, r, rng_for(trial, i // 2, i % 2))
                for i, (r, _) in enumerate(trace)]
        fresh = [(r, inter_community_edges(g, labels).size) for (r, _), labels in zip(trace, runs)]
        assert trace == fresh and len(trace) >= 2


def test_blocked_sets_walk_builds_level0_once(monkeypatch):
    builds, walks, shared = [], [], []
    real_level0, real_walk = community._level0, community.sweep_walk
    real_run = community.louvain_partition

    def walk(g, params, ks, master_seed):
        before = len(builds)
        trace, picks = real_walk(g, params, ks, master_seed)
        walks.append((len(builds) - before, len(trace)))
        return trace, picks

    monkeypatch.setattr(community, "_level0", lambda g: builds.append(g) or real_level0(g))
    monkeypatch.setattr(community, "sweep_walk", walk)
    monkeypatch.setattr(community, "louvain_partition",
                        lambda *a, **kw: shared.append(kw.get("level0")) or real_run(*a, **kw))
    g = planted_partition(4, 20, 0.6, 0.02, 105)
    sweep = SweepParams(resolution=0.05, factor=1.3, h1=2, h2=2)
    sets = blocked_sets(g, "community", [g.m // 10, g.m // 5, g.m], 1, sweep)
    # one build for the whole walk, every run of the walk reads it, and no
    # run happens outside the walk
    reruns = shared.count(None)
    assert walks == [(1, len(shared))] and len(shared) > 2
    assert all(x is shared[0] for x in shared)
    assert reruns == 0 and len(builds) == 1
    assert sum(0 < ids.size < g.m for ids in sets) == 2


def test_sweep_stops_at_non_finite_resolution():
    # 1e307 * 100 overflows to inf after one step; at 1e307 every node is
    # alone, so that step cuts all m > k edges and nothing fits
    params = SweepParams(resolution=1e307, factor=100.0, h1=5, h2=3, budget=2)
    trace, picks = sweep_walk(TT, params, [params.budget], 4)
    assert trace == [(1e307, TT.m)] * 3
    assert _sweep(TT, params, 4).size == 0
    assert resolution_sweep(TT, params, (trace, picks)).size == 0


def test_sweep_rejects_a_walk_without_its_budget():
    g = planted_partition(3, 6, 0.8, 0.1, 13)
    params = SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2, budget=g.m // 3)
    walk = sweep_walk(g, params, [params.budget, g.m], 5)
    assert resolution_sweep(g, params, walk).size <= params.budget
    for others in ([], [params.budget + 1], [g.m]):
        with pytest.raises(ValueError):
            resolution_sweep(g, params, sweep_walk(g, params, others, 5))
    # a budget that is not a nonnegative integer is refused, not walked
    for bad in ([1.5], [True], [2, -1]):
        with pytest.raises(ValueError):
            sweep_walk(g, params, bad, 5)


def test_sweep_deterministic():
    g = planted_partition(3, 6, 0.8, 0.1, 13)
    params = SweepParams(budget=5)
    a = _sweep(g, params, 33)
    b = _sweep(g, params, 33)
    assert np.array_equal(a, b)


def test_weighted_modularity_switch():
    g = TT.with_weights(np.array([0.5, 0.5, 0.5, 0.1, 0.5, 0.5, 0.5]))
    labels = np.array([0, 0, 0, 1, 1, 1])
    q_struct = modularity(g, labels, 1.0)
    assert q_struct == pytest.approx(5 / 14, abs=1e-12)
