import numpy as np
import pytest

from edgeblock import cascade as cascade_mod
from edgeblock import evaluation as evaluation_mod
from edgeblock.cascade import estimate_spread, sample_seed_set
from edgeblock.community import SweepParams
from edgeblock.evaluation import (
    AGGREGATE_HEADER,
    DETAIL_HEADER,
    AggregateRow,
    ContainmentReport,
    DetailRow,
    ExperimentConfig,
    budget_to_edge_count,
    containment_factor,
    export_csv,
    export_svg,
    load_aggregate_csv,
    run_experiment,
    summarize_report,
)
from edgeblock.generators import planted_partition, with_random_weights
from edgeblock.graph import from_edge_arrays
from edgeblock.seeding import TAG_CASCADE, TAG_SEED_SETS, replicate_seed_bits, rng_for
from edgeblock.strategies import blocked_edges

P3 = from_edge_arrays(3, [0, 1], [1, 2])


def test_containment_factor_values():
    assert containment_factor(100.0, 40.0) == 60.0
    assert containment_factor(7.5, 7.5) == 0.0
    # unit path, block (1,2): reach drops from 3 to 2
    assert containment_factor(3.0, 2.0) == pytest.approx(100.0 / 3.0)
    with pytest.raises(ValueError):
        containment_factor(0.0, 0.0)


def test_budget_to_edge_count():
    assert budget_to_edge_count(0.01, 88234) == 882
    assert budget_to_edge_count(0.2, 88234) == 17646
    assert budget_to_edge_count(0.29, 300) == 87
    assert budget_to_edge_count(0.01, 5) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(budget_fractions=(0.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(seed_set_reps=0)
    with pytest.raises(ValueError):
        ExperimentConfig(strategies=("nope",))
    with pytest.raises(ValueError):
        ExperimentConfig(strategies=("rndm", "deg", "rndm"))
    with pytest.raises(ValueError):
        ExperimentConfig(budget_fractions=(0.01, 0.05, 1 / 100))
    with pytest.raises(ValueError):
        ExperimentConfig(threads=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(network="")
    for empty in (dict(strategies=()), dict(budget_fractions=())):
        with pytest.raises(ValueError):
            ExperimentConfig(**empty)
    for preset in (SweepParams(budget=5), SweepParams(master_seed=9),
                   SweepParams(budget=5, master_seed=9)):
        with pytest.raises(ValueError):
            ExperimentConfig(sweep=preset)
    ExperimentConfig(sweep=SweepParams(resolution=0.05, h1=2))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            ExperimentConfig(seed_fraction=bad)
    ExperimentConfig(seed_fraction=1.0, threads=0)


def _small_report(**kw):
    g = planted_partition(3, 6, 0.7, 0.1, 2)
    defaults = dict(network="t", strategies=("hwt", "deg"),
                    budget_fractions=(0.05, 0.1, 0.2), seed_fraction=0.1,
                    seed_set_reps=2, cascade_reps=4, master_seed=9)
    defaults.update(kw)
    return g, run_experiment(g, ExperimentConfig(**defaults))


def test_experiment_cardinality():
    _, rep = _small_report()
    assert len(rep.details) == 2 * 3 * 2
    assert len(rep.aggregates) == 2 * 3
    for agg in rep.aggregates:
        assert agg.n_seed_sets == 2


def test_zero_budget_gives_zero_cf():
    g = from_edge_arrays(40, list(range(39)), list(range(1, 40)))  # unit path
    cfg = ExperimentConfig(network="p", strategies=("rndm",),
                           budget_fractions=(0.01,),   # floor(0.01 * 39) = 0 edges
                           seed_fraction=0.05, seed_set_reps=3, cascade_reps=3,
                           master_seed=4)
    rep = run_experiment(g, cfg)
    assert all(r.cf == 0.0 for r in rep.details)


def test_aggregates_match_details():
    _, rep = _small_report(seed_set_reps=4)
    for agg in rep.aggregates:
        cells = [r.cf for r in rep.details
                 if r.strategy == agg.strategy and r.budget_fraction == agg.budget_fraction]
        assert agg.cf_mean == pytest.approx(np.mean(cells), rel=1e-12)
        assert agg.cf_std == pytest.approx(np.std(cells, ddof=1), rel=1e-12)


def test_summarize_std_rules():
    rows = [DetailRow("s", 0.1, 0, 10.0, 7.0, 30.0),
            DetailRow("s", 0.1, 1, 10.0, 5.0, 50.0)]
    (agg,) = summarize_report(rows)
    assert agg.cf_mean == 40.0
    assert agg.cf_std == pytest.approx(np.std([30.0, 50.0], ddof=1))
    (single,) = summarize_report(rows[:1])
    assert single.cf_std == 0.0
    with pytest.raises(ValueError):
        summarize_report([])


def test_determinism_across_threads_and_runs():
    g = planted_partition(3, 6, 0.7, 0.1, 2)
    cfg = dict(network="t", strategies=("hwt", "rndm"), budget_fractions=(0.1, 0.2),
               seed_fraction=0.1, seed_set_reps=2, cascade_reps=5, master_seed=11)
    a = run_experiment(g, ExperimentConfig(**cfg, threads=1))
    b = run_experiment(g, ExperimentConfig(**cfg, threads=4))
    c = run_experiment(g, ExperimentConfig(**cfg, threads=1))
    assert a.details == b.details == c.details
    assert a.aggregates == b.aggregates


def test_common_random_numbers_keep_cf_in_range():
    from edgeblock.graph import assign_jaccard_weights

    for s in range(1, 6):
        g = assign_jaccard_weights(planted_partition(3, 8, 0.6, 0.1, s))
        rep = run_experiment(g, ExperimentConfig(
            network="crn", strategies=("rndm", "hwt"), budget_fractions=(0.05, 0.1),
            seed_set_reps=3, cascade_reps=4, master_seed=s))
        assert all(0.0 <= r.cf <= 100.0 for r in rep.details)
        assert all(r.phi_after <= r.phi_before for r in rep.details)


def test_grid_matches_per_cell_estimates(monkeypatch):
    g = with_random_weights(planted_partition(3, 6, 0.7, 0.1, 2), 3)
    sweep = SweepParams(resolution=0.05, factor=1.2, h1=2, h2=2)
    cfg = dict(network="t", strategies=("hwt", "community", "rndm"),
               budget_fractions=(0.05, 0.1, 0.2), seed_fraction=0.1, seed_set_reps=3,
               cascade_reps=7, master_seed=5, sweep=sweep)
    seeds = [sample_seed_set(g, 0.1, rng_for(5, TAG_SEED_SETS, i)) for i in range(3)]
    streams = replicate_seed_bits(5, TAG_CASCADE, count=3)
    before = [estimate_spread(g, seeds[i], 7, streams[i])[0] for i in range(3)]
    expected = {}
    for strat in cfg["strategies"]:
        for frac in cfg["budget_fractions"]:
            ids = blocked_edges(g, strat, budget_to_edge_count(frac, g.m), 5, sweep=sweep)
            for i in range(3):
                after = estimate_spread(g, seeds[i], 7, streams[i], blocked=ids)[0]
                expected[(strat, frac, i)] = (before[i], after)
    # 10 blocked sets of 7 rows per seed set: rows split with one set
    # per chunk, then whole rows with sets in pairs
    for rows in (3, 14):
        monkeypatch.setattr(cascade_mod, "_CHUNK_ELEMENTS", rows * max(g.m, g.n))
        for threads in (1, 3):
            rep = run_experiment(g, ExperimentConfig(**cfg, threads=threads))
            assert expected == {
                (r.strategy, r.budget_fraction, r.seed_set_index): (r.phi_before, r.phi_after)
                for r in rep.details}
        monkeypatch.undo()


def test_one_estimate_pass_per_seed_set(monkeypatch):
    calls = []
    real = evaluation_mod.estimate_spreads

    def counted(g, seeds, samples, master_seed, blocked_sets):
        calls.append(len(blocked_sets))
        return real(g, seeds, samples, master_seed, blocked_sets)

    monkeypatch.setattr(evaluation_mod, "estimate_spreads", counted)
    for threads in (1, 3):
        calls.clear()
        _small_report(seed_set_reps=4, threads=threads)
        assert calls == [1 + 2 * 3] * 4


def test_csv_export_and_roundtrip(tmp_path):
    _, rep = _small_report()
    d = tmp_path / "d.csv"
    a = tmp_path / "a.csv"
    export_csv(rep, d, a)
    dlines = d.read_text().splitlines()
    alines = a.read_text().splitlines()
    assert dlines[0] == DETAIL_HEADER
    assert alines[0] == AGGREGATE_HEADER
    assert len(dlines) == 1 + len(rep.details)
    assert len(alines) == 1 + len(rep.aggregates)
    loaded = load_aggregate_csv(a)
    assert [row for _, row in loaded] == list(rep.aggregates)


def test_csv_header_only_for_empty_report(tmp_path):
    rep = ContainmentReport("empty", (), (), None)
    export_csv(rep, tmp_path / "d.csv", tmp_path / "a.csv")
    assert (tmp_path / "d.csv").read_text() == DETAIL_HEADER + "\n"
    assert (tmp_path / "a.csv").read_text() == AGGREGATE_HEADER + "\n"


def test_svg_polyline_per_strategy(tmp_path):
    aggs = tuple(AggregateRow("solo", i / 100.0, float(i), 0.0, 1) for i in range(1, 21))
    rep = ContainmentReport("n", (), aggs, None)
    path = tmp_path / "plot.svg"
    export_svg(rep, path)
    text = path.read_text()
    assert text.count("<polyline") == 1
    points = text.split('points="')[1].split('"')[0].split()
    assert len(points) == 20


def test_community_strategy_in_grid():
    g = planted_partition(3, 6, 0.8, 0.05, 5)
    cfg = ExperimentConfig(network="c", strategies=("community",),
                           budget_fractions=(0.1,), seed_fraction=0.1,
                           seed_set_reps=2, cascade_reps=4, master_seed=6)
    rep = run_experiment(g, cfg)
    assert len(rep.details) == 2
    assert all(np.isfinite(r.cf) for r in rep.details)
