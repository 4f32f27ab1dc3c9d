"""Containment-factor experiments: strategies x budgets x random seed sets.

The containment factor of a blocked edge set is the percentage reduction
of the expected final orange count:

    cf = 100 * (phi_before - phi_after) / phi_before

For each seed set the baseline phi_before is estimated once and shared
across strategies and budgets.  phi_after is estimated on the baseline's
own stream (common random numbers): every replicate keeps its uniform per
edge, and the blocked edges are forced dead.  The coupling is pathwise, so
phi_after <= phi_before in every replicate and cf lies in [0, 100]; it cuts
variance out of the comparison without biasing it.
Blocking is an edge mask, so no pruned graph copy is built.  Every stream
derives from the master seed plus grid coordinates, so output is
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import strategies as strategies_mod
from .cascade import estimate_spreads, sample_seed_set
from .community import SweepParams
from .graph import Graph, checked_count, checked_real
from .seeding import (DEFAULT_SEED, TAG_CASCADE, TAG_SEED_SETS, checked_seed,
                      replicate_seed_bits, rng_for)

DEFAULT_BUDGET_FRACTIONS = tuple(i / 100.0 for i in range(1, 21))


@dataclass(frozen=True)
class ExperimentConfig:
    network: str = "network"
    strategies: tuple = ("community", "rndm")
    budget_fractions: tuple = DEFAULT_BUDGET_FRACTIONS
    seed_fraction: float = 0.001
    seed_set_reps: int = 10
    cascade_reps: int = 10
    master_seed: int = DEFAULT_SEED
    sweep: SweepParams = field(default_factory=SweepParams)
    threads: int = 1           # worker threads, 0 = one per CPU

    def __post_init__(self):
        # the name goes unquoted into file names, CSV fields and SVG text
        if not self.network or any(ch in self.network for ch in ",\r\n/<>&"):
            raise ValueError(f"network name {self.network!r} may not be empty or contain "
                             ", / < > & or a line break")
        for f in self.budget_fractions:
            checked_real(f, 0, 1, "budget fraction")
        checked_real(self.seed_fraction, 0, 1, "seed fraction")
        checked_seed(self.master_seed)
        for name, low in (("seed_set_reps", 1), ("cascade_reps", 1), ("threads", 0)):
            checked_count(getattr(self, name), low, math.inf, name)
        for s in self.strategies:
            strategies_mod.strategy_code(s)
        for values in (self.strategies, self.budget_fractions):
            if not values:
                raise ValueError("the grid needs at least one strategy and one budget")
            if len(set(values)) < len(values):
                raise ValueError(f"duplicate grid entries in {values}")
        strategies_mod.check_sweep(self.sweep)


def _frozen(values) -> np.ndarray:
    # C order: a row's mean and std then sum in the order of the 1-D call,
    # which a column-major copy of a transposed view would not
    a = np.array(values, dtype=np.float64, order="C")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ContainmentReport:
    """The grid's spread estimates, read-only float64 arrays:
    ``phi_before[i]`` for seed set i and ``phi_after[c, i]`` for cell c of
    :attr:`cells` on seed set i.  ValueError on any other shape or on a
    phi_before <= 0, where the containment factor is undefined.
    """

    config: ExperimentConfig
    phi_before: np.ndarray
    phi_after: np.ndarray

    def __post_init__(self):
        before, after = _frozen(self.phi_before), _frozen(self.phi_after)
        if before.shape != (self.config.seed_set_reps,) or \
                after.shape != (len(self.cells), before.size):
            raise ValueError("phi_before must be shaped (seed sets,) and "
                             "phi_after (cells, seed sets)")
        if np.any(before <= 0.0):
            raise ValueError("containment factor undefined for phi_before <= 0")
        object.__setattr__(self, "phi_before", before)
        object.__setattr__(self, "phi_after", after)

    @property
    def cells(self) -> tuple:
        """(strategy, budget fraction) per row, strategies major, budgets minor."""
        return tuple((s, f) for s in self.config.strategies for f in self.config.budget_fractions)

    @property
    def cf(self) -> np.ndarray:
        """Containment factor per cell and seed set, in percent."""
        return 100.0 * (self.phi_before - self.phi_after) / self.phi_before

    def summary(self) -> tuple:
        """Per-cell mean and sample std (n-1; zero for one seed set) of :attr:`cf`."""
        cf = self.cf
        std = cf.std(axis=1, ddof=1) if cf.shape[1] > 1 else np.zeros(cf.shape[0])
        return cf.mean(axis=1), std


def budget_to_edge_count(fraction: float, m: int) -> int:
    # tiny epsilon compensates binary rounding of fraction * m
    return max(0, int(math.floor(fraction * m + 1e-9)))


def _blocked_sets(g: Graph, cfg: ExperimentConfig) -> list:
    """Blocked edge ids per grid cell, strategies major, budgets minor."""
    ks = [budget_to_edge_count(frac, g.m) for frac in cfg.budget_fractions]
    return [ids for strat in cfg.strategies
            for ids in strategies_mod.blocked_sets(g, strat, ks, cfg.master_seed, sweep=cfg.sweep)]


def run_experiment(g: Graph, cfg: ExperimentConfig) -> ContainmentReport:
    """Full grid: draw seed sets, estimate the baseline and post-blocking
    spread of every cell on each.

    Each seed set takes one :func:`estimate_spreads` pass for its baseline
    and every cell.  Worker threads run over seed sets.
    """
    blocked = _blocked_sets(g, cfg)
    reps = cfg.seed_set_reps
    # element i: master seed of seed set i's cascade stream
    streams = replicate_seed_bits(cfg.master_seed, TAG_CASCADE, count=reps)

    def spreads(i):
        """phi_before, then phi_after per cell, for seed set i."""
        seeds = sample_seed_set(g, cfg.seed_fraction, rng_for(cfg.master_seed, TAG_SEED_SETS, i))
        return estimate_spreads(g, seeds, cfg.cascade_reps, streams[i], [()] + blocked)[0]

    workers = cfg.threads or os.cpu_count() or 1
    if workers > 1 and reps > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            phi = np.array(list(pool.map(spreads, range(reps))))
    else:
        phi = np.array(list(map(spreads, range(reps))))
    return ContainmentReport(cfg, phi[:, 0], phi[:, 1:].T)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

DETAIL_HEADER = "network,strategy,budget_pct,seed_set_id,phi_before,phi_after,cf"
AGGREGATE_HEADER = "network,strategy,budget_pct,cf_mean,cf_std,n_seed_sets"

_SVG_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _fmt_pct(fraction: float) -> str:
    return f"{fraction * 100.0:.10g}"


def export_csv(report: ContainmentReport, details_path, aggregates_path) -> None:
    """Two CSV files with fixed schemas; floats use exact shortest repr."""
    labels = [f"{report.config.network},{strat},{_fmt_pct(frac)}" for strat, frac in report.cells]
    before = report.phi_before.tolist()
    with open(details_path, "w", newline="") as fh:
        fh.write(DETAIL_HEADER + "\n")
        for label, after, cf in zip(labels, report.phi_after.tolist(), report.cf.tolist()):
            for i in range(len(before)):
                fh.write(f"{label},{i},{before[i]!r},{after[i]!r},{cf[i]!r}\n")
    mean, std = (a.tolist() for a in report.summary())
    with open(aggregates_path, "w", newline="") as fh:
        fh.write(AGGREGATE_HEADER + "\n")
        for label, m, sd in zip(labels, mean, std):
            fh.write(f"{label},{m!r},{sd!r},{len(before)}\n")


def export_svg(report: ContainmentReport, path) -> None:
    """Mean containment factor vs budget percentage, one polyline per strategy."""
    width, height = 860, 520
    x0, y0, x1, y1 = 70.0, 30.0, 820.0, 470.0
    cfg = report.config
    xs = [f * 100.0 for f in cfg.budget_fractions]
    means = report.summary()[0].reshape(len(cfg.strategies), len(xs)).tolist()
    xmin, xmax = min(xs), max(xs)
    if xmax == xmin:
        xmax = xmin + 1.0
    ymin = min(0.0, min(map(min, means)))
    ymax = max(map(max, means))
    if ymax <= ymin:
        ymax = ymin + 1.0
    span_y = (ymax - ymin) * 1.05

    def sx(v):
        return x0 + (v - xmin) / (xmax - xmin) * (x1 - x0)

    def sy(v):
        return y1 - (v - ymin) / span_y * (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-size="14">edges blocked (%)</text>',
        f'<text x="16" y="{(y0 + y1) / 2:.1f}" font-size="14" '
        f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})" text-anchor="middle">'
        f'containment factor</text>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="20" text-anchor="middle" font-size="15">'
        f'{cfg.network}</text>',
    ]
    for t in range(6):
        yv = ymin + span_y * t / 5.0
        parts.append(
            f'<line x1="{x0 - 4}" y1="{sy(yv):.2f}" x2="{x0}" y2="{sy(yv):.2f}" stroke="black"/>'
            f'<text x="{x0 - 8}" y="{sy(yv) + 4:.2f}" text-anchor="end" font-size="11">{yv:.1f}</text>'
        )
        xv = xmin + (xmax - xmin) * t / 5.0
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{y1}" x2="{sx(xv):.2f}" y2="{y1 + 4}" stroke="black"/>'
            f'<text x="{sx(xv):.2f}" y="{y1 + 18}" text-anchor="middle" font-size="11">{xv:.1f}</text>'
        )
    for idx, (strat, ys) in enumerate(zip(cfg.strategies, means)):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in sorted(zip(xs, ys)))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
        )
        ly = y0 + 18 * idx + 10
        parts.append(
            f'<line x1="{x1 - 130}" y1="{ly:.1f}" x2="{x1 - 105}" y2="{ly:.1f}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{x1 - 100}" y="{ly + 4:.1f}" font-size="12">{strat}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")

