"""Command-line front end.

Subcommands: stats, weights, simulate, block, evaluate, hardness.
Exit codes: 0 success, 1 usage error (bad flags, found before the graph
is read), 2 runtime error, 3 a `hardness verify` check failed (printed as
FAIL).  All randomness flows from --seed (default 42, never wall clock),
so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .cascade import estimate_spread, sample_seed_set
from .community import SweepParams
from .evaluation import (
    ExperimentConfig,
    budget_to_edge_count,
    export_csv,
    export_svg,
    run_experiment,
)
from .graph import (
    Graph,
    assign_jaccard_weights,
    checked_count,
    checked_real,
    checked_unit_real,
    graph_stats,
    label_of_token,
    parse_edge_list,
    write_edge_list,
)
from .hardness import CONSTRUCTIONS, SWEEP_SIZES, sweep_small_instances, verify_reduction
from .seeding import DEFAULT_SEED, TAG_SIMULATE_SEEDS, checked_seed, rng_for
from .strategies import STRATEGIES, blocked_edges


EXIT_CHECK_FAILED = 3


class UsageError(Exception):
    """A bad flag (exit 1); _Parser.error raises it with the usage of the parser that failed."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


@contextlib.contextmanager
def _flag_errors(args):
    """Report a ValueError raised while checking flags as a usage error of args' subcommand."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


def _add_graph_arg(p):
    p.add_argument("--graph", required=True, help="edge-list file (.gz ok)")
    p.add_argument(
        "--weights", choices=("jaccard", "unit", "file"), default="jaccard",
        help="edge weights: recompute by shared-neighbor similarity, force 1, "
             "or keep the file's third column (default: %(default)s)")


def _load_graph(args) -> Graph:
    g = parse_edge_list(args.graph)
    if args.weights == "jaccard":
        return assign_jaccard_weights(g)
    if args.weights == "unit":
        return g.with_weights(np.ones(g.m))
    return g


def _parse_budgets(text: str):
    """Either 'LO..HI' integer percents or a comma list of percents/fractions.

    A trailing '%' always means percent; a bare value below 1 is a fraction.
    """
    text = text.strip()
    if ".." in text:
        lo, hi = (int(t.strip().removesuffix("%")) for t in text.split("..", 1))
        return tuple(i / 100.0 for i in range(lo, hi + 1))
    toks = [t.strip() for t in text.split(",")]
    vals = [float(t.removesuffix("%")) for t in toks]
    return tuple(v / 100 if t.endswith("%") or v >= 1 else v for t, v in zip(toks, vals))


def build_parser() -> _Parser:
    parser = _Parser(prog="edgeblock", description=__doc__)
    parser.add_argument("--version", action="version", version=f"edgeblock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="structural summary of a graph")
    p.add_argument("--graph", required=True, help="edge-list file (.gz ok)")

    p = sub.add_parser("weights", help="write a shared-neighbor-weighted edge list")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True, help="output edge-list path")

    p = sub.add_parser("simulate", help="Monte Carlo spread estimate")
    _add_graph_arg(p)
    p.add_argument("--seed-fraction", type=float, default=0.001,
                   help="seed-set size as a fraction of n (default: %(default)s)")
    p.add_argument("--seed-nodes", default=None,
                   help="comma list of seed node labels as in the file (overrides --seed-fraction)")
    p.add_argument("--samples", type=int, default=1000,
                   help="replicates (default: %(default)s)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="master seed (default: %(default)s)")

    p = sub.add_parser("block", help="edge ids blocked by a strategy")
    _add_graph_arg(p)
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    budget = p.add_mutually_exclusive_group(required=True)
    budget.add_argument("--budget-frac", type=float, help="budget as a fraction of m")
    budget.add_argument("--k", type=int, help="budget as an edge count")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default=None, help="write blocked edges here instead of stdout")
    _add_sweep_args(p)

    p = sub.add_parser("evaluate", help="containment-factor experiment grid")
    _add_graph_arg(p)
    p.add_argument("--strategies", default=",".join(ExperimentConfig.strategies),
                   help="comma list of strategy tokens (default: %(default)s)")
    p.add_argument("--budgets", default="1..20",
                   help="'LO..HI' integer percents or comma percents/fractions "
                        "(default: %(default)s)")
    p.add_argument("--seed-sets", type=int, default=ExperimentConfig.seed_set_reps,
                   help="seed-set repetitions (default: %(default)s)")
    p.add_argument("--cascades", type=int, default=ExperimentConfig.cascade_reps,
                   help="cascade replicates per seed set (default: %(default)s)")
    p.add_argument("--seed-fraction", type=float, default=ExperimentConfig.seed_fraction,
                   help="seed-set size fraction (default: %(default)s)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="master seed (default: %(default)s)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--network", default=None,
                   help="network name for reports (default: graph file stem)")
    p.add_argument("--threads", type=int, default=ExperimentConfig.threads,
                   help="worker threads, 0 = auto (default: %(default)s)")
    _add_sweep_args(p)

    p = sub.add_parser("hardness", help="brute-force optimum identity checks")
    p.add_argument("action", choices=("verify",))
    p.add_argument("--graph", default=None, help="edge-list file of the source graph")
    p.add_argument("--k", type=int, default=None, help="subset/budget size")
    p.add_argument("--sweep-all-small", type=int, choices=SWEEP_SIZES, default=None, metavar="N",
                   help="check every connected graph up to isomorphism with <= N nodes")
    p.add_argument("--construction", choices=CONSTRUCTIONS, default="undirected",
                   help="hub expansion: every edge conducts both ways, or only away "
                        "from the hub (default: %(default)s)")
    for p in sub.choices.values():
        p.set_defaults(parser=p)
    return parser


# SweepParams field -> what its flag sets
_SWEEP_FLAGS = {"resolution": "starting resolution", "factor": "resolution growth factor",
                "h1": "overflow repetitions", "h2": "retries per resolution"}


def _add_sweep_args(p):
    for name, what in _SWEEP_FLAGS.items():
        default = getattr(SweepParams, name)
        p.add_argument(f"--{name}", type=type(default), default=default,
                       help=f"community sweep: {what} (default: %(default)s)")


def _sweep_from_args(args) -> SweepParams:
    return SweepParams(**{name: getattr(args, name) for name in _SWEEP_FLAGS})


def _cmd_stats(args) -> int:
    s = graph_stats(parse_edge_list(args.graph))
    d = s.diameter if s.connected else f"inf (largest component: {s.diameter})"
    print(f"n          {s.n}")
    print(f"m          {s.m}")
    print(f"d_avg      {s.d_avg:.6g}")
    print(f"d_max      {s.d_max}")
    print(f"diameter   {d}")
    print(f"k_avg      {s.k_avg:.6g}")
    print(f"triangles  {s.triangles}")
    return 0


def _cmd_weights(args) -> int:
    g = assign_jaccard_weights(parse_edge_list(args.graph))
    write_edge_list(g, args.out)
    print(f"wrote {g.m} weighted edges to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    with _flag_errors(args):
        checked_count(args.samples, 1, math.inf, "--samples")
        checked_real(args.seed_fraction, 0, 1, "--seed-fraction")
        checked_seed(args.seed)
    g = _load_graph(args)
    if args.seed_nodes is not None:
        keys = [label_of_token(t.strip()) for t in args.seed_nodes.split(",")]
        index = {label: v for v, label in enumerate(g.labels)}
        unknown = [repr(t) for t in keys if t not in index]
        if unknown:
            args.parser.error(f"unknown seed node label(s): {', '.join(unknown)}")
        seeds = np.unique([index[t] for t in keys])
    else:
        seeds = sample_seed_set(g, args.seed_fraction, rng_for(args.seed, TAG_SIMULATE_SEEDS))
    mean, stderr = estimate_spread(g, seeds, args.samples, args.seed)
    print(f"seeds={seeds.size} samples={args.samples} phi_hat={mean!r} stderr={stderr!r}")
    return 0


def _cmd_block(args) -> int:
    with _flag_errors(args):
        if args.k is None:
            checked_unit_real(args.budget_frac, "--budget-frac")
        else:
            checked_count(args.k, 0, math.inf, "--k")
        checked_seed(args.seed)
        sweep = _sweep_from_args(args)
    g = _load_graph(args)
    k = args.k if args.k is not None else budget_to_edge_count(args.budget_frac, g.m)
    ids = blocked_edges(g, args.strategy, k, args.seed, sweep=sweep)
    lines = [f"{g.label_of(int(g.eu[e]))} {g.label_of(int(g.ev[e]))}" for e in ids]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        Path(args.out).write_text(text)
        print(f"blocked {len(ids)} edges -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_evaluate(args) -> int:
    network = Path(args.graph).name.split(".")[0] if args.network is None else args.network
    with _flag_errors(args):
        cfg = ExperimentConfig(
            network=network,
            strategies=tuple(t.strip() for t in args.strategies.split(",") if t.strip()),
            budget_fractions=_parse_budgets(args.budgets),
            seed_fraction=args.seed_fraction,
            seed_set_reps=args.seed_sets,
            cascade_reps=args.cascades,
            master_seed=args.seed,
            sweep=_sweep_from_args(args),
            threads=args.threads,
        )
    g = _load_graph(args)
    report = run_experiment(g, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    details = out / f"{network}_details.csv"
    aggregates = out / f"{network}_aggregates.csv"
    svg = out / f"{network}_cf.svg"
    export_csv(report, details, aggregates)
    export_svg(report, svg)
    print(f"wrote {details}")
    print(f"wrote {aggregates}")
    print(f"wrote {svg}")
    return 0


def _print_check(check) -> None:
    gr = "inf" if math.isinf(check.girth_value) else int(check.girth_value)
    eb = "-" if check.opt_eb is None else check.opt_eb
    status = "pass" if check.passed else "FAIL"
    print(f"k={check.k:<3d} girth={gr:<4} mode={check.mode:<12} "
          f"construction={check.construction:<10} "
          f"opt_ds={check.opt_ds:<4d} opt_eb={eb:<4} {status}")


def _cmd_hardness(args) -> int:
    if args.graph is None and args.sweep_all_small is None:
        args.parser.error("give --graph with --k, or --sweep-all-small N")
    if args.graph is not None and (args.k is None or args.k < 1):
        args.parser.error("--graph needs --k >= 1")
    if args.graph is None and args.k is not None:
        args.parser.error("--k needs --graph")
    failed = 0
    if args.sweep_all_small is not None:
        checks = sweep_small_instances(args.sweep_all_small, args.construction)
        for c in checks:
            _print_check(c)
        failed += sum(1 for c in checks if not c.passed)
        print(f"{len(checks)} checks, {failed} failures")
    if args.graph is not None:
        h = parse_edge_list(args.graph)
        check = verify_reduction(h, args.k, args.construction)
        _print_check(check)
        failed += 0 if check.passed else 1
    return EXIT_CHECK_FAILED if failed else 0


_COMMANDS = {
    "stats": _cmd_stats,
    "weights": _cmd_weights,
    "simulate": _cmd_simulate,
    "block": _cmd_block,
    "evaluate": _cmd_evaluate,
    "hardness": _cmd_hardness,
}


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:      # --help / --version
        return 0 if exc.code in (0, None) else 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
