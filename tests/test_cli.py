import numpy as np
import pytest

from edgeblock import cli
from edgeblock.cli import EXIT_CHECK_FAILED, dispatch
from edgeblock.evaluation import AGGREGATE_HEADER, DETAIL_HEADER, ExperimentConfig
from edgeblock.generators import planted_partition
from edgeblock.graph import parse_edge_list, write_edge_list


@pytest.fixture()
def path3(tmp_path):
    p = tmp_path / "path3.txt"
    p.write_text("0 1\n1 2\n")
    return str(p)


@pytest.fixture()
def planted(tmp_path):
    g = planted_partition(3, 8, 0.7, 0.05, 4)
    p = tmp_path / "pp.txt"
    write_edge_list(g, p)
    return str(p)


def test_stats_table(path3, capsys):
    assert dispatch(["stats", "--graph", path3]) == 0
    out = capsys.readouterr().out
    assert "n          3" in out
    assert "m          2" in out
    assert "diameter   2" in out


def test_weights_roundtrip(path3, tmp_path, capsys):
    out = tmp_path / "weighted.txt"
    assert dispatch(["weights", "--graph", path3, "--out", str(out)]) == 0
    g = parse_edge_list(out)
    assert np.allclose(g.w, [2 / 3, 2 / 3])


def test_simulate_file_weights_match_jaccard_on_a_weights_output(tmp_path, capsys):
    # compared on the written file: re-parsing it numbers nodes by first
    # appearance in its own line order, so the source file draws other seeds
    src, out = tmp_path / "pp.txt", tmp_path / "w.txt"
    write_edge_list(planted_partition(4, 40, 0.3, 0.02, 1), src)
    assert dispatch(["weights", "--graph", str(src), "--out", str(out)]) == 0
    capsys.readouterr()
    simulate = ["simulate", "--graph", str(out), "--samples", "300", "--seed", "3"]
    assert dispatch(simulate + ["--weights", "file"]) == 0
    assert dispatch(simulate) == 0
    from_file, jaccard = capsys.readouterr().out.splitlines()
    assert from_file == jaccard
    assert from_file.startswith("seeds=1 samples=300 phi_hat=")   # max(1, round(0.001 * 160)) seeds
    assert dispatch(simulate + ["--weights", "unit"]) == 0
    assert capsys.readouterr().out.strip() != jaccard


def test_simulate_seed_nodes_are_file_labels(tmp_path, monkeypatch, capsys):
    p = tmp_path / "labels.txt"
    p.write_text("10 20\n20 30\n")
    seen = []

    def fake_estimate(g, seeds, samples, seed):
        seen.append([g.label_of(int(v)) for v in seeds])
        return 1.0, 0.0

    monkeypatch.setattr(cli, "estimate_spread", fake_estimate)
    assert dispatch(["simulate", "--graph", str(p), "--seed-nodes", "10"]) == 0
    assert dispatch(["simulate", "--graph", str(p), "--seed-nodes", "30,20"]) == 0
    # a repeated label seeds its node once
    assert dispatch(["simulate", "--graph", str(p), "--seed-nodes", "30,20,30"]) == 0
    assert seen == [[10], [20, 30], [20, 30]]
    assert [ln.split()[0] for ln in capsys.readouterr().out.splitlines()] == [
        "seeds=1", "seeds=2", "seeds=2"]
    assert dispatch(["simulate", "--graph", str(p), "--seed-nodes", "2"]) == 1
    assert "unknown seed node" in capsys.readouterr().err
    # an empty token is named too
    for nodes in ("", "10,,20"):
        assert dispatch(["simulate", "--graph", str(p), "--seed-nodes", nodes]) == 1
        assert "unknown seed node label(s): ''" in capsys.readouterr().err


def test_block_zero_budget(path3, capsys):
    assert dispatch(["block", "--graph", path3, "--strategy", "hwt",
                     "--budget-frac", "0.0"]) == 0
    assert capsys.readouterr().out == ""


def test_block_writes_edges(planted, tmp_path, capsys):
    out = tmp_path / "blocked.txt"
    assert dispatch(["block", "--graph", planted, "--strategy", "deg",
                     "--k", "5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5


def test_block_community_stops_at_non_finite_resolution(planted, capsys):
    # 1e307 * 100 overflows to inf: the sweep stops there, and the one
    # step before it cut every edge, so nothing fits k = 20
    assert dispatch(["block", "--graph", planted, "--strategy", "community", "--k", "20",
                     "--resolution", "1e307", "--factor", "100"]) == 0
    assert capsys.readouterr().out == ""


def test_block_requires_one_budget_form(path3, capsys):
    assert dispatch(["block", "--graph", path3, "--strategy", "hwt"]) == 1
    assert "usage: edgeblock block" in capsys.readouterr().err
    assert dispatch(["block", "--graph", path3, "--strategy", "hwt",
                     "--k", "1", "--budget-frac", "0.5"]) == 1
    # a flag that fails its rule prints the subcommand's usage too
    capsys.readouterr()
    assert dispatch(["block", "--graph", path3, "--strategy", "hwt", "--budget-frac", "1.5"]) == 1
    err = capsys.readouterr().err
    assert "--budget-frac must be a number in [0, 1], got 1.5" in err
    assert "usage: edgeblock block" in err


def test_simulate_output(path3, capsys):
    rc = dispatch(["simulate", "--graph", path3, "--weights", "unit",
                   "--seed-nodes", "0", "--samples", "50", "--seed", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "phi_hat=3.0" in out
    assert "stderr=0.0" in out


def test_evaluate_writes_wellformed_files(planted, tmp_path, capsys):
    outdir = tmp_path / "results"
    rc = dispatch(["evaluate", "--graph", planted, "--strategies", "hwt,rndm",
                   "--budgets", "5,10", "--seed-sets", "2", "--cascades", "3",
                   "--seed", "7", "--seed-fraction", "0.05",
                   "--out", str(outdir), "--network", "toy"])
    assert rc == 0
    details = (outdir / "toy_details.csv").read_text().splitlines()
    aggregates = (outdir / "toy_aggregates.csv").read_text().splitlines()
    assert details[0] == DETAIL_HEADER
    assert aggregates[0] == AGGREGATE_HEADER
    assert len(details) == 1 + 2 * 2 * 2
    assert len(aggregates) == 1 + 2 * 2
    svg = (outdir / "toy_cf.svg").read_text()
    assert svg.count("<polyline") == 2


def test_evaluate_budget_range_syntax(planted, tmp_path):
    outdir = tmp_path / "r"
    rc = dispatch(["evaluate", "--graph", planted, "--strategies", "hwt",
                   "--budgets", "1..3", "--seed-sets", "1", "--cascades", "2",
                   "--seed", "1", "--seed-fraction", "0.05",
                   "--out", str(outdir), "--network", "t"])
    assert rc == 0
    lines = (outdir / "t_aggregates.csv").read_text().splitlines()
    assert [l.split(",")[2] for l in lines[1:]] == ["1", "2", "3"]


@pytest.mark.parametrize("text, fractions", [
    ("0.5%", (0.005,)), ("0.5", (0.5,)), ("5", (0.05,)), ("5%", (0.05,)),
    ("100%", (1.0,)), ("0.05, 10%, 20", (0.05, 0.1, 0.2)),
    ("1..3", (0.01, 0.02, 0.03)), ("1%..3", (0.01, 0.02, 0.03)),
    ("1..3%", (0.01, 0.02, 0.03)), ("1%..3%", (0.01, 0.02, 0.03)),
])
def test_parse_budgets_trailing_percent_means_percent(text, fractions):
    assert cli._parse_budgets(text) == fractions


def test_budgets_default_is_the_config_default():
    args = cli.build_parser().parse_args(["evaluate", "--graph", "g.txt", "--out", "out"])
    assert cli._parse_budgets(args.budgets) == ExperimentConfig.budget_fractions


def test_hardness_verify(tmp_path, capsys):
    p = tmp_path / "k3.txt"
    p.write_text("0 1\n0 2\n1 2\n")
    assert dispatch(["hardness", "verify", "--graph", str(p), "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "below_girth" in out


def test_hardness_disconnected_source_exits_2(tmp_path, capsys):
    p = tmp_path / "two_edges.txt"
    p.write_text("0 1\n2 3\n")
    assert dispatch(["hardness", "verify", "--graph", str(p), "--k", "3"]) == 2
    captured = capsys.readouterr()
    assert "source graph must be connected" in captured.err
    assert "FAIL" not in captured.out


def test_hardness_sweep(capsys):
    assert dispatch(["hardness", "verify", "--sweep-all-small", "3"]) == 0
    out = capsys.readouterr().out
    assert "checks" in out


def test_hardness_failed_check_exits_nonzero(tmp_path, capsys):
    p = tmp_path / "k4.txt"
    p.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    args = ["hardness", "verify", "--graph", str(p), "--k", "3"]
    assert dispatch(args) == EXIT_CHECK_FAILED != 0
    out = capsys.readouterr().out
    assert "FAIL" in out and "construction=undirected" in out
    assert dispatch(args + ["--construction", "directed"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out and "construction=directed" in out


def test_hardness_sweep_exit_code_follows_failures(capsys):
    assert dispatch(["hardness", "verify", "--sweep-all-small", "4"]) == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out
    assert dispatch(["hardness", "verify", "--sweep-all-small", "4",
                     "--construction", "directed"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "0 failures" in out


def test_hardness_requires_args(capsys):
    assert dispatch(["hardness", "verify"]) == 1


def test_usage_and_runtime_errors(tmp_path, capsys):
    assert dispatch(["nonsense"]) == 1
    assert dispatch(["stats", "--graph", "/does/not/exist"]) == 2
    for bad in (["--bogus-flag"], ["--weights", "jaccard"]):
        assert dispatch(["stats", "--graph", __file__, *bad]) == 1, bad
    # invalid flags are usage errors, found before the (missing) graph is read
    missing = ["--graph", "/does/not/exist"]
    evaluate = ["evaluate", *missing, "--out", str(tmp_path / "out")]
    for bad in (["--threads", "-1"], ["--strategies", "rndm,rndm"], ["--strategies", "nope"],
                ["--strategies", ","], ["--seed-sets", "0"], ["--budgets", "5..3"],
                ["--budgets", "0.5..5"],
                *(["--network", name] for name in ("a,b", "a\nb", "a\rb", "../x", "a<b",
                                                   "a>b", "a&b", ""))):
        assert dispatch(evaluate + bad) == 1, bad
    # a zero budget is caught by the config's real rule, before the graph is read
    assert dispatch(evaluate + ["--budgets", "0,5"]) == 1
    assert "budget fraction must be a finite number in (0, 1], got 0.0" in capsys.readouterr().err
    assert dispatch(evaluate + ["--seed", "18446744073709551616"]) == 1
    sweep = (["--resolution", "nan"], ["--resolution", "inf"], ["--resolution", "0"],
             ["--factor", "nan"], ["--factor", "inf"], ["--factor", "1"])
    for bad in sweep:
        assert dispatch(evaluate + bad) == 1, bad
    for bad in (["--k", "-1"], ["--k", "2", "--h1", "0"], ["--budget-frac", "2"],
                ["--budget-frac", "nan"], ["--budget-frac", "-0.5"],
                *(["--k", "20", *flags] for flags in sweep)):
        assert dispatch(["block", *missing, "--strategy", "community", *bad]) == 1, bad
    for bad in (["--samples", "0"], ["--seed-fraction", "0"]):
        assert dispatch(["simulate", *missing, *bad]) == 1, bad
    for bad in ([*missing, "--k", "0"], ["--sweep-all-small", "2", "--k", "2"]):
        assert dispatch(["hardness", "verify", *bad]) == 1, bad
    for n in ("7", "1"):
        assert dispatch(["hardness", "verify", "--sweep-all-small", n]) == 1, n
    # a dot file's stem is the empty network name
    hidden = tmp_path / ".hid"
    hidden.write_text("0 1\n1 2\n")
    assert dispatch(["evaluate", "--graph", str(hidden), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0
    assert dispatch(["evaluate", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--h1" in out and "1.05" in out


def test_identical_invocations_identical_bytes(planted, tmp_path):
    args = ["evaluate", "--graph", planted, "--strategies", "community,hwt",
            "--budgets", "4,8", "--seed-sets", "2", "--cascades", "3",
            "--seed", "5", "--seed-fraction", "0.05", "--network", "same"]
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert dispatch(args + ["--out", str(d1)]) == 0
    assert dispatch(args + ["--out", str(d2), "--threads", "3"]) == 0
    for name in ("same_details.csv", "same_aggregates.csv", "same_cf.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
