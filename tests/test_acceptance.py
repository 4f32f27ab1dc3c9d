"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
Criteria 1 and 11 need the ego-Facebook edge list (see README: data/); they
skip with instructions when the file is absent.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import edgeblock as eb
from edgeblock.cli import dispatch
from edgeblock.community import SweepParams, resolution_sweep, sweep_walk
from edgeblock.evaluation import ExperimentConfig, run_experiment
from edgeblock.generators import (
    connected_graphs_upto_iso,
    gnm_random_graph,
    planted_partition,
    random_connected_graph,
    with_random_weights,
)
from edgeblock.graph import write_edge_list
from oracle_utils import enumerate_spread_exact, exact_spread_unit_weights, remove_edges


def _report(num, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE-{num:02d} {name}: {status}{suffix}")
    return ok


def _facebook_path():
    env = os.environ.get("EDGEBLOCK_FACEBOOK")
    if env and Path(env).exists():
        return Path(env)
    root = Path(__file__).resolve().parents[1]
    for name in ("facebook_combined.txt", "facebook_combined.txt.gz"):
        p = root / "data" / name
        if p.exists():
            return p
    return None


FACEBOOK_SKIP = (
    "ego-Facebook edge list not found; place the SNAP facebook_combined.txt "
    "under data/ or set EDGEBLOCK_FACEBOOK (see README)"
)


def test_acceptance_01_structural_statistics():
    path = _facebook_path()
    if path is None:
        print("ACCEPTANCE-01 table-statistics: SKIP (dataset not available)")
        pytest.skip(FACEBOOK_SKIP)
    t0 = time.time()
    g = eb.parse_edge_list(path)
    s = eb.graph_stats(g)
    ok = (
        s.n == 4039
        and s.m == 88234
        and s.d_max == 1045
        and s.diameter == 8
        and s.triangles == 1612010
        and abs(s.d_avg - 43.691) <= 0.001
        and abs(s.k_avg - 0.6055) <= 0.0005
    )
    assert _report(1, "table-statistics", ok,
                   f"n={s.n} m={s.m} d_avg={s.d_avg:.3f} d_max={s.d_max} "
                   f"D={s.diameter} K={s.k_avg:.4f} T={s.triangles} "
                   f"{time.time() - t0:.1f}s")


def test_acceptance_02_cascade_oracle_equivalence():
    rng = np.random.default_rng(20240)
    hits = 0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(3, min(12, n * (n - 1) // 2) + 1))
        g = with_random_weights(gnm_random_graph(n, m, int(rng.integers(1 << 30))),
                                int(rng.integers(1 << 30)))
        seeds = np.sort(rng.choice(n, size=int(rng.integers(1, 3)), replace=False))
        exact = enumerate_spread_exact(g, seeds)
        mean, se = eb.estimate_spread(g, seeds, 100_000, master_seed=trial)
        if abs(mean - exact) <= 4.0 * se + 1e-12:
            hits += 1
    assert _report(2, "cascade-oracle-equivalence", hits >= 49, f"{hits}/50 within 4 SE")


def test_acceptance_03_unit_weight_exactness():
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(100):
        n = int(rng.integers(4, 20))
        m = int(rng.integers(0, n * (n - 1) // 2 + 1))
        g = gnm_random_graph(n, m, int(rng.integers(1 << 30)))
        seeds = np.sort(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
        mean, se = eb.estimate_spread(g, seeds, 32, master_seed=trial)
        if se != 0.0 or mean != exact_spread_unit_weights(g, seeds):
            ok = False
            break
    assert _report(3, "unit-weight-exactness", ok, "100/100 exact")


def test_acceptance_04_reduction_identity():
    failures = []
    total = 0
    for n in range(3, 7):
        for h in connected_graphs_upto_iso(n):
            gr = eb.girth(h)
            if math.isinf(gr):
                continue
            for k in range(int(gr), n):
                total += 1
                check = eb.verify_reduction(h, k, construction="directed")
                if not check.passed:
                    failures.append((n, h.m, k, check.opt_ds, check.opt_eb))
    ok = not failures
    extra = f"{total - len(failures)}/{total} identities hold"
    if failures:
        n, m, k, ds, ebv = failures[0]
        extra += (f"; first counterexample: n={n} m={m} k={k} gives "
                  f"densest={ds} but blocking={ebv} on the directed hub expansion "
                  "(need densest == blocking - k)")
    assert _report(4, "reduction-identity", ok, extra)


def test_acceptance_05_below_girth_identity():
    t0 = time.time()
    rng = np.random.default_rng(11)
    checked = 0
    ok = True
    for trial in range(200):
        n = int(rng.integers(4, 11))
        extra = int(rng.integers(0, 5))
        h = random_connected_graph(n, extra, int(rng.integers(1 << 30)))
        gr = eb.girth(h)
        top = n if math.isinf(gr) else min(int(gr), n)
        for k in range(1, top):
            checked += 1
            if eb.brute_force_densest_subgraph(h, k).value != k - 1:
                ok = False
    assert _report(5, "below-girth-identity", ok,
                   f"{checked} (graph,k) pairs over 200 graphs, {time.time()-t0:.1f}s")


def test_acceptance_06_blocking_monotonicity():
    rng = np.random.default_rng(23)
    ok = True
    for trial in range(50):
        n = int(rng.integers(6, 16))
        m = int(rng.integers(n, min(3 * n, n * (n - 1) // 2) + 1))
        g = gnm_random_graph(n, m, int(rng.integers(1 << 30)))
        ids = rng.permutation(g.m)
        s1 = ids[: g.m // 4].tolist()
        s2 = ids[: g.m // 2].tolist()
        s3 = ids[: 3 * g.m // 4].tolist()
        seeds = [int(rng.integers(n))]
        values = [exact_spread_unit_weights(remove_edges(g, s), seeds)
                  for s in ([], s1, s2, s3)]
        if not all(a >= b for a, b in zip(values, values[1:])):
            ok = False
    assert _report(6, "blocking-monotonicity", ok, "50/50 chains non-increasing")


def test_acceptance_07_centrality_oracles():
    from oracle_utils import brute_edge_betweenness, dense_pagerank

    rng = np.random.default_rng(31)
    bet_ok = True
    for trial in range(10):
        n = int(rng.integers(5, 9))
        m = int(rng.integers(n - 1, min(13, n * (n - 1) // 2) + 1))
        g = gnm_random_graph(n, m, int(rng.integers(1 << 30)))
        if not np.allclose(eb.edge_betweenness(g), brute_edge_betweenness(g), atol=1e-9):
            bet_ok = False
        gw = with_random_weights(g, int(rng.integers(1 << 30)))
        if not np.allclose(eb.edge_betweenness(gw, weighted=True),
                           brute_edge_betweenness(gw, weighted=True), atol=1e-9):
            bet_ok = False
    pr_ok = True
    for trial in range(10):
        n = int(rng.integers(5, 30))
        m = int(rng.integers(4, min(40, n * (n - 1) // 2) + 1))
        g = gnm_random_graph(n, m, trial)
        pr = eb.node_pagerank(g)
        if abs(pr.sum() - 1.0) > 1e-9:
            pr_ok = False
        if not np.allclose(pr, dense_pagerank(g), atol=1e-8):
            pr_ok = False
    assert _report(7, "centrality-oracles", bet_ok and pr_ok,
                   f"betweenness {'ok' if bet_ok else 'BAD'}, pagerank {'ok' if pr_ok else 'BAD'}")


def test_acceptance_08_community_strategy_dominance():
    t0 = time.time()
    g = eb.assign_jaccard_weights(planted_partition(4, 20, 0.6, 0.02, 105))
    cfg = ExperimentConfig(
        network="planted", strategies=("community", "rndm", "deg"),
        budget_fractions=(0.05,), seed_fraction=1.0 / g.n,   # |R| = 1
        seed_set_reps=20, cascade_reps=100, master_seed=105,
    )
    rep = run_experiment(g, cfg)
    samples = dict(zip(cfg.strategies, rep.cf))    # one budget: a row per strategy

    def dominates(a, b):
        xa, xb = samples[a], samples[b]
        se = math.sqrt(xa.var(ddof=1) / xa.size + xb.var(ddof=1) / xb.size)
        return xa.mean() - xb.mean() > 2.0 * se, xa.mean() - xb.mean(), se

    over_rndm, diff_r, se_r = dominates("community", "rndm")
    over_deg, diff_d, se_d = dominates("community", "deg")
    assert _report(
        8, "community-dominance", over_rndm and over_deg,
        f"cf means comm={samples['community'].mean():.1f} "
        f"rndm={samples['rndm'].mean():.1f} deg={samples['deg'].mean():.1f}; "
        f"margins {diff_r:.1f}>{2*se_r:.1f} and {diff_d:.1f}>{2*se_d:.1f}; "
        f"{time.time()-t0:.0f}s")


def test_acceptance_09_sweep_contract():
    t0 = time.time()
    rng = np.random.default_rng(77)
    ok = True
    for trial in range(100):
        kind = trial % 3
        if kind == 0:
            n = int(rng.integers(5, 30))
            m = int(rng.integers(4, min(50, n * (n - 1) // 2) + 1))
            g = gnm_random_graph(n, m, int(rng.integers(1 << 30)))
        elif kind == 1:
            g = planted_partition(int(rng.integers(2, 4)), int(rng.integers(4, 8)),
                                  0.7, 0.05, int(rng.integers(1 << 30)))
        else:
            g = random_connected_graph(int(rng.integers(4, 20)),
                                       int(rng.integers(0, 6)), int(rng.integers(1 << 30)))
        if trial % 10 == 0:
            k, expect = g.m + int(rng.integers(0, 3)), "all"
        elif trial % 10 == 1:
            k, expect = 0, "empty"
        else:
            k, expect = int(rng.integers(1, g.m + 1)), None
        params = SweepParams(resolution=0.05, factor=1.3, h1=2, h2=2, budget=k)
        out = resolution_sweep(g, params, sweep_walk(g, params, [k], trial))
        if not (out.size <= max(k, g.m if k >= g.m else k)
                and np.all((out >= 0) & (out < g.m))
                and np.array_equal(np.unique(out), out)):
            ok = False
        if expect == "all" and out.size != g.m:
            ok = False
        if expect == "empty" and out.size != 0:
            ok = False
        if k < g.m and out.size > k:
            ok = False
    assert _report(9, "sweep-contract", ok, f"100 runs, {time.time()-t0:.1f}s")


def test_acceptance_10_determinism(tmp_path):
    g = planted_partition(3, 10, 0.6, 0.05, 55)
    gpath = tmp_path / "g.txt"
    write_edge_list(g, gpath)
    args = ["evaluate", "--graph", str(gpath), "--strategies", "community,hwt,rndm",
            "--budgets", "2,5", "--seed-sets", "2", "--cascades", "4",
            "--seed", "99", "--seed-fraction", "0.05", "--network", "det"]
    outs = []
    for sub, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        od = tmp_path / sub
        assert dispatch(args + ["--out", str(od), "--threads", threads]) == 0
        outs.append(tuple((od / f"det_{kind}.csv").read_bytes()
                          for kind in ("details", "aggregates")))
    ok = outs[0] == outs[1] == outs[2]
    assert _report(10, "evaluate-determinism", ok,
                   "byte-identical across reruns and thread counts")


def test_acceptance_11_desk_scale_end_to_end(tmp_path):
    path = _facebook_path()
    if path is None:
        print("ACCEPTANCE-11 desk-scale-end-to-end: SKIP (dataset not available)")
        pytest.skip(FACEBOOK_SKIP)
    t0 = time.time()
    outdir = tmp_path / "fb"
    rc = dispatch([
        "evaluate", "--graph", str(path),
        "--strategies", "rndm,hwt,deg,wdeg,pgrk,bet,community",
        "--budgets", "1..20", "--seed-sets", "3", "--cascades", "3",
        "--seed", "1", "--out", str(outdir), "--network", "facebook",
    ])
    elapsed = time.time() - t0
    details = (outdir / "facebook_details.csv").read_text().splitlines()
    aggregates = (outdir / "facebook_aggregates.csv").read_text().splitlines()
    svg = (outdir / "facebook_cf.svg").read_text()
    ok = (
        rc == 0
        and elapsed < 3600
        and len(details) == 1 + 7 * 20 * 3
        and len(aggregates) == 1 + 7 * 20
        and svg.count("<polyline") == 7
    )
    assert _report(11, "desk-scale-end-to-end", ok, f"{elapsed:.0f}s")
