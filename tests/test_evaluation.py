import numpy as np
import pytest

from edgeblock import cascade as cascade_mod
from edgeblock import evaluation as evaluation_mod
from edgeblock.cascade import estimate_spread, sample_seed_set
from edgeblock.community import SweepParams
from edgeblock.evaluation import (
    AGGREGATE_HEADER,
    DETAIL_HEADER,
    ContainmentReport,
    ExperimentConfig,
    budget_to_edge_count,
    export_csv,
    export_svg,
    run_experiment,
)
from edgeblock.generators import planted_partition
from edgeblock.graph import from_edge_arrays
from edgeblock.seeding import TAG_CASCADE, TAG_SEED_SETS, replicate_seed_bits, rng_for
from edgeblock.strategies import blocked_edges
from oracle_utils import load_aggregate_csv, with_random_weights

P3 = from_edge_arrays(3, [0, 1], [1, 2])


def _fixed_report(before, after):
    """Report of given spreads: one rndm row per budget of 1, 2, ... percent."""
    cfg = ExperimentConfig(strategies=("rndm",), seed_set_reps=len(before),
                           budget_fractions=tuple(c / 100.0 for c in range(1, len(after) + 1)))
    return ContainmentReport(cfg, before, after)


def test_containment_factor_values():
    # the third seed set: unit path, block (1,2): reach drops from 3 to 2
    cf = _fixed_report([100.0, 7.5, 3.0], [[40.0, 7.5, 2.0]]).cf
    assert cf.shape == (1, 3)
    assert cf[0, 0] == 60.0
    assert cf[0, 1] == 0.0
    assert cf[0, 2] == pytest.approx(100.0 / 3.0)
    with pytest.raises(ValueError):
        _fixed_report([0.0], [[0.0]])
    with pytest.raises(ValueError):
        _fixed_report([5.0, -1.0], [[1.0, 1.0]])


def test_budget_to_edge_count():
    assert budget_to_edge_count(0.01, 88234) == 882
    assert budget_to_edge_count(0.2, 88234) == 17646
    assert budget_to_edge_count(0.29, 300) == 87
    assert budget_to_edge_count(0.01, 5) == 0


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(budget_fractions=(0.0,))
    for bad in (dict(seed_set_reps=0), dict(seed_set_reps=2.5), dict(cascade_reps=True),
                dict(threads=1.5)):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
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
    with pytest.raises(ValueError):
        ExperimentConfig(sweep=SweepParams(budget=5))
    ExperimentConfig(sweep=SweepParams(resolution=0.05, h1=2))
    for bad in (0.0, -0.1, 1.5, True, "0.5"):
        with pytest.raises(ValueError):
            ExperimentConfig(seed_fraction=bad)
    # no float, bool or string seed is truncated, no seed past uint64 masked,
    # and no bool read as the fraction 1
    for bad in (dict(master_seed=1.5), dict(master_seed=True), dict(master_seed="1"),
                dict(master_seed=2**64), dict(budget_fractions=(True,))):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
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
    assert rep.cells == tuple((s, f) for s in ("hwt", "deg") for f in (0.05, 0.1, 0.2))
    assert rep.phi_before.shape == (2,)
    assert rep.phi_after.shape == rep.cf.shape == (2 * 3, 2)
    assert [a.shape for a in rep.summary()] == [(2 * 3,)] * 2
    for a in (rep.phi_before, rep.phi_after):
        assert a.dtype == np.float64 and not a.flags.writeable
    with pytest.raises(ValueError):    # a cell short
        ContainmentReport(rep.config, rep.phi_before, rep.phi_after[1:])
    with pytest.raises(ValueError):    # a seed set short
        ContainmentReport(rep.config, rep.phi_before[1:], rep.phi_after[:, 1:])


def test_zero_budget_gives_zero_cf():
    g = from_edge_arrays(40, list(range(39)), list(range(1, 40)))  # unit path
    cfg = ExperimentConfig(network="p", strategies=("rndm",),
                           budget_fractions=(0.01,),   # floor(0.01 * 39) = 0 edges
                           seed_fraction=0.05, seed_set_reps=3, cascade_reps=3,
                           master_seed=4)
    rep = run_experiment(g, cfg)
    assert np.all(rep.cf == 0.0)


def test_aggregates_match_details():
    _, rep = _small_report(seed_set_reps=4)
    mean, std = rep.summary()
    for c, (strat, frac) in enumerate(rep.cells):
        cells = [100.0 * (rep.phi_before[i] - rep.phi_after[c, i]) / rep.phi_before[i]
                 for i in range(4)]
        assert mean[c] == pytest.approx(np.mean(cells), rel=1e-12)
        assert std[c] == pytest.approx(np.std(cells, ddof=1), rel=1e-12)


def test_summarize_std_rules():
    (mean,), (std,) = _fixed_report([10.0, 10.0], [[7.0, 5.0]]).summary()
    assert mean == 40.0
    assert std == pytest.approx(np.std([30.0, 50.0], ddof=1))
    (single,), (single_std,) = _fixed_report([10.0], [[7.0]]).summary()
    assert single == pytest.approx(30.0) and single_std == 0.0
    with pytest.raises(ValueError):    # no seed set
        ContainmentReport(ExperimentConfig(strategies=("rndm",), budget_fractions=(0.1,),
                                           seed_set_reps=1), [], np.empty((1, 0)))


def test_determinism_across_threads_and_runs():
    g = planted_partition(3, 6, 0.7, 0.1, 2)
    cfg = dict(network="t", strategies=("hwt", "rndm"), budget_fractions=(0.1, 0.2),
               seed_fraction=0.1, seed_set_reps=2, cascade_reps=5, master_seed=11)
    a = run_experiment(g, ExperimentConfig(**cfg, threads=1))
    b = run_experiment(g, ExperimentConfig(**cfg, threads=4))
    c = run_experiment(g, ExperimentConfig(**cfg, threads=1))
    for r in (b, c):
        assert r.phi_before.tobytes() == a.phi_before.tobytes()
        assert r.phi_after.tobytes() == a.phi_after.tobytes()


def test_common_random_numbers_keep_cf_in_range():
    from edgeblock.graph import assign_jaccard_weights

    for s in range(1, 6):
        g = assign_jaccard_weights(planted_partition(3, 8, 0.6, 0.1, s))
        rep = run_experiment(g, ExperimentConfig(
            network="crn", strategies=("rndm", "hwt"), budget_fractions=(0.05, 0.1),
            seed_set_reps=3, cascade_reps=4, master_seed=s))
        assert np.all((0.0 <= rep.cf) & (rep.cf <= 100.0))
        assert np.all(rep.phi_after <= rep.phi_before)


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
                (strat, frac, i): (rep.phi_before[i], rep.phi_after[c, i])
                for c, (strat, frac) in enumerate(rep.cells) for i in range(3)}
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
    assert len(dlines) == 1 + rep.phi_after.size
    assert len(alines) == 1 + len(rep.cells)
    mean, std = rep.summary()
    assert load_aggregate_csv(a) == [("t", strat, frac, mean[c], std[c], 2)
                                     for c, (strat, frac) in enumerate(rep.cells)]


def test_details_csv_rows_are_the_report_arrays(tmp_path):
    _, rep = _small_report(seed_set_reps=3)
    d = tmp_path / "d.csv"
    export_csv(rep, d, tmp_path / "a.csv")
    rows = [line.split(",") for line in d.read_text().splitlines()[1:]]
    expected = [(c, i) for c in range(len(rep.cells)) for i in range(3)]
    assert len(rows) == len(expected)
    for (net, strat, pct, i, before, after, cf), (c, j) in zip(rows, expected):
        assert (net, strat, float(pct) / 100.0, int(i)) == ("t",) + rep.cells[c] + (j,)
        assert float(before) == rep.phi_before[j]
        assert float(after) == rep.phi_after[c, j]
        assert float(cf) == rep.cf[c, j]


def test_svg_polyline_per_strategy(tmp_path):
    for budgets in (20, 1):     # one budget: a zero-width x range
        rep = _fixed_report([100.0], [[100.0 - i] for i in range(1, budgets + 1)])
        path = tmp_path / "plot.svg"
        export_svg(rep, path)
        text = path.read_text()
        assert text.count("<polyline") == 1
        points = text.split('points="')[1].split('"')[0].split()
        assert len(points) == budgets


def test_community_strategy_in_grid():
    g = planted_partition(3, 6, 0.8, 0.05, 5)
    cfg = ExperimentConfig(network="c", strategies=("community",),
                           budget_fractions=(0.1,), seed_fraction=0.1,
                           seed_set_reps=2, cascade_reps=4, master_seed=6)
    rep = run_experiment(g, cfg)
    assert rep.cf.shape == (1, 2)
    assert np.all(np.isfinite(rep.cf))
