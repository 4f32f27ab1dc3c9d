"""Spans and observations around calls into edgeblock's public functions.

Probes work from outside the package: every ``edgeblock.*`` module attribute
that refers to a probed function is rebound to a wrapper, so calls made
through ``from .cascade import estimate_spread`` style copies are seen too.
A probed function that no longer exists is listed as absent; the metrics
derived from it read 0 and nothing fails.

A span is ``[name, start, end, parent]``, where ``parent`` is the index of
the enclosing span or ``None``.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time

import numpy as np


def _weighted(args, kwargs):
    return bool(kwargs.get("weighted", args[1] if len(args) > 1 else False))


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _suffix_w(base):
    return lambda args, kwargs: base + "_w" if _weighted(args, kwargs) else base


# (module, function, span name or namer(args, kwargs),
#  keep(args, kwargs, result) -> value stored under the span name, or None,
#  needed by the output checks, so installed on untraced passes too)
PROBES = (
    ("graph", "parse_edge_list", "graph.parse", None, False),
    ("graph", "assign_jaccard_weights", "graph.jaccard", None, False),
    ("graph", "graph_stats", "graph.stats", None, False),
    ("graph", "remove_edges", "graph.remove_edges", None, False),
    ("centrality", "node_closeness", _suffix_w("centrality.closeness"),
     lambda a, kw, r: np.array(r, dtype=np.float64), True),
    ("centrality", "edge_betweenness", _suffix_w("centrality.betweenness"),
     lambda a, kw, r: np.array(r, dtype=np.float64), True),
    ("centrality", "node_pagerank", "centrality.pagerank", None, False),
    ("strategies", "score_edges", "strategies.score", None, False),
    ("strategies", "top_k_edges", "strategies.select",
     lambda a, kw, r: (int(_arg(a, kw, 1, "k")), np.array(r)), True),
    ("community", "resolution_sweep", "community.sweep",
     lambda a, kw, r: (int(_arg(a, kw, 1, "params").budget),
                       np.array(r[0] if isinstance(r, tuple) else r)), True),
    ("community", "louvain_partition", "community.louvain", None, False),
    ("cascade", "estimate_spread", "cascade.estimate",
     lambda a, kw, r: int(_arg(a, kw, 2, "samples")), False),
    ("evaluation", "run_experiment", "evaluation.run_experiment", None, False),
    ("evaluation", "export_csv", "evaluation.export", None, False),
    ("evaluation", "export_svg", "evaluation.export", None, False),
    ("hardness", "verify_reduction", "hardness.verify", None, False),
    ("hardness", "brute_force_edge_blocking", "hardness.blocking",
     lambda a, kw, r: math.comb(_arg(a, kw, 0, "g").m, int(_arg(a, kw, 1, "k"))), False),
    ("hardness", "brute_force_densest_subgraph", "hardness.densest", None, False),
)


class Recorder:
    """Installs the probes; times calls only when ``timed``."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.absent: list = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and observations of the previous pass."""
        self.spans: list = []
        self.kept: dict = {}
        self._open: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "edgeblock" or name.startswith("edgeblock.")]
        for mod, fn, name, keep, checked in PROBES:
            if not (self.timed or checked):
                continue
            target = getattr(sys.modules.get(f"edgeblock.{mod}"), fn, None)
            if target is None:
                self.absent.append(f"edgeblock.{mod}.{fn}")
                continue
            wrapper = self._wrap(target, name, keep)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is target:
                        setattr(m, attr, wrapper)

    def _wrap(self, fn, name, keep):
        namer = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs)
            with self.span(span_name):
                result = fn(*args, **kwargs)
            if keep is not None:
                self.kept.setdefault(span_name, []).append(keep(args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the block when ``timed``; else do nothing."""
        if not self.timed:
            yield
            return
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def take_kept(self) -> dict:
        """Hand over the observations made so far and start afresh."""
        kept, self.kept = self.kept, {}
        return kept

    def totals(self) -> dict:
        """Span name -> (calls, total seconds, self seconds)."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - child))
        return out

    def span_records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
