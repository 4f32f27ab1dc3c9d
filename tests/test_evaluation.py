import numpy as np
import pytest

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
    export_report,
    export_svg,
    load_aggregate_csv,
    run_experiment,
    summarize_report,
)
from edgeblock.generators import planted_partition
from edgeblock.graph import from_edge_arrays

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


def test_common_random_numbers_flag():
    from edgeblock.generators import with_random_weights

    g = with_random_weights(planted_partition(3, 6, 0.7, 0.1, 2), 8)
    base = dict(network="t", strategies=("rndm",), budget_fractions=(0.15,),
                seed_fraction=0.1, seed_set_reps=2, cascade_reps=6, master_seed=3)
    with_crn = run_experiment(g, ExperimentConfig(**base))
    without = run_experiment(g, ExperimentConfig(**base, common_random_numbers=False))
    assert [r.phi_before for r in with_crn.details] == [r.phi_before for r in without.details]
    assert any(x.phi_after != y.phi_after for x, y in zip(with_crn.details, without.details))


def test_common_random_numbers_keep_cf_in_range():
    from edgeblock.graph import assign_jaccard_weights

    for s in range(1, 6):
        g = assign_jaccard_weights(planted_partition(3, 8, 0.6, 0.1, s))
        rep = run_experiment(g, ExperimentConfig(
            network="crn", strategies=("rndm", "hwt"), budget_fractions=(0.05, 0.1),
            seed_set_reps=3, cascade_reps=4, master_seed=s))
        assert rep.out_of_range_rows() == ()
        assert all(r.phi_after <= r.phi_before for r in rep.details)


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


def test_export_report_dispatch(tmp_path):
    _, rep = _small_report()
    export_report(rep, "csv", tmp_path)
    assert (tmp_path / "t_details.csv").exists()
    assert (tmp_path / "t_aggregates.csv").exists()
    export_report(rep, "svg-plot", tmp_path)
    assert (tmp_path / "t_cf.svg").exists()
    with pytest.raises(ValueError):
        export_report(rep, "xml", tmp_path)


def test_community_strategy_in_grid():
    g = planted_partition(3, 6, 0.8, 0.05, 5)
    cfg = ExperimentConfig(network="c", strategies=("community",),
                           budget_fractions=(0.1,), seed_fraction=0.1,
                           seed_set_reps=2, cascade_reps=4, master_seed=6)
    rep = run_experiment(g, cfg)
    assert len(rep.details) == 2
    assert all(np.isfinite(r.cf) for r in rep.details)
