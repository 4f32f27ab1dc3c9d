from dataclasses import replace

import numpy as np
import pytest

from edgeblock import community, strategies
from edgeblock.community import SweepParams, resolution_sweep, sweep_walk
from edgeblock.generators import planted_partition
from edgeblock.graph import assign_jaccard_weights, from_edge_arrays, parse_edge_list
from edgeblock.seeding import TAG_STRATEGY, TAG_SWEEP, rng_for, seed_sequence
from edgeblock.strategies import (
    STRATEGIES,
    blocked_edges,
    blocked_sets,
    rank_edges,
    score_edges,
    strategy_code,
    top_k_edges,
)
from oracle_utils import gnm_random_graph, with_random_weights

SCORE_STRATEGIES = tuple(s for s in STRATEGIES if s != "community")

P4 = assign_jaccard_weights(parse_edge_list(b"0 1\n1 2\n2 3"))
STAR = from_edge_arrays(4, [0, 0, 0], [1, 2, 3])


def test_strategy_tokens():
    assert STRATEGIES == ("rndm", "hwt", "deg", "wdeg", "clo", "wclo",
                          "bet", "wbet", "pgrk", "community")
    with pytest.raises(ValueError):
        strategy_code("ieed")


def test_hwt_scores_on_jaccard_path():
    # edges (0,1) and (2,3) weigh 2/3, middle edge 1/2
    assert np.allclose(score_edges(P4, "hwt"), [2 / 3, 1 / 2, 2 / 3])


def test_hwt_tie_break_canonical():
    assert blocked_edges(P4, "hwt", 1, master_seed=0).tolist() == [0]


def test_deg_star_scores():
    assert score_edges(STAR, "deg").tolist() == [4.0, 4.0, 4.0]


def test_wdeg_scores():
    g = P4
    wdeg = np.zeros(4)
    for e in range(g.m):
        wdeg[g.eu[e]] += g.w[e]
        wdeg[g.ev[e]] += g.w[e]
    expect = [wdeg[int(g.eu[e])] + wdeg[int(g.ev[e])] for e in range(g.m)]
    assert np.allclose(score_edges(g, "wdeg"), expect)


def test_hwt_unit_weights_all_equal():
    g = gnm_random_graph(9, 16, 3)
    scores = score_edges(g, "hwt")
    assert np.all(scores == scores[0])


def test_rndm_deterministic_and_uniform():
    g = gnm_random_graph(10, 20, 1)
    a = score_edges(g, "rndm", rng=7)
    b = score_edges(g, "rndm", rng=7)
    c = score_edges(g, "rndm", rng=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0) & (a < 1))
    with pytest.raises(ValueError):
        score_edges(g, "rndm")


def test_scores_finite_and_positive_where_promised():
    g = with_random_weights(gnm_random_graph(12, 24, 5), 5)
    for strat in SCORE_STRATEGIES:
        scores = score_edges(g, strat, rng=3)
        assert scores.shape == (g.m,)
        assert np.all(np.isfinite(scores))
    for strat in ("deg", "wdeg", "hwt"):
        assert np.all(score_edges(assign_jaccard_weights(g), strat) > 0)


def test_select_sizes_and_bounds():
    g = gnm_random_graph(10, 18, 2)
    assert blocked_edges(g, "deg", 0, master_seed=0).size == 0
    assert blocked_edges(g, "deg", g.m, master_seed=0).size == g.m
    assert blocked_edges(g, "deg", g.m + 5, master_seed=0).tolist() == list(range(g.m))
    picked = blocked_edges(g, "deg", 7, master_seed=0)
    assert picked.size == 7
    assert np.all((picked >= 0) & (picked < g.m))
    with pytest.raises(ValueError):
        blocked_edges(g, "deg", -1, master_seed=0)


def test_top_k_scale_invariance():
    rng = np.random.default_rng(4)
    scores = rng.random(40)
    for k in (1, 5, 17, 40):
        base = top_k_edges(rank_edges(scores), k)
        assert np.array_equal(base, top_k_edges(rank_edges(scores * 3.7), k))
        assert np.array_equal(base, top_k_edges(rank_edges(scores * 1e-9), k))


def test_top_k_is_actually_top_k():
    rng = np.random.default_rng(9)
    scores = rng.random(30)
    picked = top_k_edges(rank_edges(scores), 10)
    thresh = np.sort(scores)[-10]
    assert np.all(scores[picked] >= thresh)


def test_community_rejected_by_score_paths():
    g = gnm_random_graph(8, 12, 1)
    with pytest.raises(ValueError):
        score_edges(g, "community", rng=1)
    # blocked_edges is the entry point that takes the community strategy
    sweep = SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2)
    assert blocked_edges(g, "community", 2, master_seed=1, sweep=sweep).size <= 2


def test_blocked_edges_dispatch():
    g = assign_jaccard_weights(planted_partition(3, 6, 0.8, 0.08, 6))
    for strat in ("hwt", "deg", "rndm"):
        ids = blocked_edges(g, strat, 4, master_seed=10)
        assert ids.size == 4
        assert np.array_equal(ids, blocked_edges(g, strat, 4, master_seed=10))
    comm = blocked_edges(g, "community", 6, master_seed=10,
                         sweep=SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2))
    assert comm.size <= 6
    assert np.array_equal(comm, blocked_edges(
        g, "community", 6, master_seed=10,
        sweep=SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2)))


def test_preset_sweep_budget_and_seed_rejected():
    g = planted_partition(3, 6, 0.8, 0.08, 6)
    for strategy in ("community", "deg"):
        with pytest.raises(ValueError):
            blocked_edges(g, strategy, 6, 10, sweep=SweepParams(budget=40))
    # the walk's seed is an argument of sweep_walk, not a sweep field
    with pytest.raises(TypeError):
        SweepParams(master_seed=123)
    assert blocked_edges(g, "community", 6, 10, sweep=SweepParams(h1=2)).size <= 6


def test_blocked_sets_match_single_budget_calls():
    # a graph whose community sweeps depend on their seed
    g = assign_jaccard_weights(gnm_random_graph(20, 45, 4))
    sweep = SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2)
    ks = [0, 3, 11, 16, 16, 22, g.m + 2]
    for strat in STRATEGIES:
        sets = blocked_sets(g, strat, ks, 10, sweep=sweep)
        assert len(sets) == len(ks)
        for k, ids in zip(ks, sets):
            assert np.array_equal(ids, blocked_edges(g, strat, k, 10, sweep=sweep))
            if strat == "community":
                seed = int(seed_sequence(10, TAG_SWEEP).generate_state(1)[0])
                ref = resolution_sweep(g, replace(sweep, budget=k), sweep_walk(g, sweep, [k], seed))
            else:
                rng = rng_for(10, TAG_STRATEGY, strategy_code(strat))
                order = np.argsort(-score_edges(g, strat, rng=rng), kind="stable")
                ref = np.sort(order[:k])
            assert np.array_equal(ids, ref)
    for strat in ("deg", "community"):
        for bad in ([2, -1], [2.5], [True]):
            with pytest.raises(ValueError):
                blocked_sets(g, strat, bad, 10, sweep=sweep)


def test_community_walks_once_for_all_budgets(monkeypatch):
    # one walk's runs and no more, where per-budget sweeps walk once per
    # budget
    g = planted_partition(4, 20, 0.6, 0.02, 105)   # the acceptance-08 graph
    sweep = SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2)
    ks = [0, 5, 26, 51, 77, 103]
    runs = []
    real = community.louvain_partition

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(community, "louvain_partition", counted)
    sets = blocked_sets(g, "community", ks, 10, sweep=sweep)
    shared_runs = len(runs)
    seed = int(seed_sequence(10, TAG_SWEEP).generate_state(1)[0])
    trace, _ = sweep_walk(g, sweep, ks, seed)
    picked = sum(ids.size > 0 for ids in sets)
    assert 0 < picked < len(ks) and shared_runs == len(trace)
    runs.clear()
    for k in ks:
        resolution_sweep(g, replace(sweep, budget=k), sweep_walk(g, sweep, [k], seed))
    assert shared_runs < len(runs)


def test_deterministic_for_fixed_strategy_and_seed():
    g = with_random_weights(gnm_random_graph(14, 30, 8), 8)
    for strat in SCORE_STRATEGIES:
        a = blocked_edges(g, strat, 5, master_seed=3)
        b = blocked_edges(g, strat, 5, master_seed=3)
        assert np.array_equal(a, b)


def test_score_strategies_rank_once_for_all_budgets(monkeypatch):
    g = with_random_weights(gnm_random_graph(14, 30, 8), 8)
    ranks = []
    real = strategies.rank_edges
    monkeypatch.setattr(strategies, "rank_edges", lambda scores: ranks.append(1) or real(scores))
    for strat in SCORE_STRATEGIES:
        sets = blocked_sets(g, strat, [0, 3, 7, 7, g.m + 1], 5)
        assert [ids.size for ids in sets] == [0, 3, 7, 7, g.m]
        assert set(sets[1]) <= set(sets[2]) and np.array_equal(sets[2], sets[3])
    assert len(ranks) == len(SCORE_STRATEGIES)


def _breaking(pick, k, m):
    # a set that breaks one rule of budget k on a graph of m edges
    return {"over_budget": np.arange(k + 1), "repeat": np.array([1, 1]),
            "unsorted": np.array([2, 1]), "negative": np.array([-1, 0]),
            "past_m": np.array([0, m])}[pick]


@pytest.mark.parametrize("pick", ["over_budget", "repeat", "unsorted", "negative", "past_m"])
def test_blocked_sets_reject_a_set_that_breaks_the_budget(monkeypatch, pick):
    g = planted_partition(3, 6, 0.8, 0.08, 6)
    sweep = SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2)
    assert [ids.size for ids in blocked_sets(g, "deg", [2, 3], 1)] == [2, 3]
    monkeypatch.setattr(strategies, "top_k_edges", lambda order, k: _breaking(pick, k, g.m))
    with pytest.raises(ValueError, match="budget 3"):
        blocked_sets(g, "deg", [3], 1)
    real_walk = community.sweep_walk

    def walk(g, params, ks, master_seed):
        trace, picks = real_walk(g, params, ks, master_seed)
        return trace, {k: _breaking(pick, k, g.m) for k in picks}

    monkeypatch.setattr(community, "sweep_walk", walk)
    with pytest.raises(ValueError, match="budget 3"):
        blocked_sets(g, "community", [3], 1, sweep)
