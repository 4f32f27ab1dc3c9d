"""Exhaustive cross-checks relating densest-subgraph and edge-blocking optima.

For a connected graph H the hub expansion builds a unit-weight instance G:
one copy node per node of H, one incidence node per edge of H wired to the
copies of its endpoints, and a hub adjacent to every copy node; the hub is
the only initial spreader.  It comes in two constructions with the same
nodes, edges and edge ids:

* ``"directed"``: spread follows each edge away from the hub only, along
  the arcs hub -> copy and copy -> incidence (reachability along live arcs,
  as in Kempe, Kleinberg & Tardos, KDD 2003).  Blocking the hub arcs of a
  k-set S of H leaves exactly S and the incidence nodes of the edges inside
  S white, so blocking k edges to maximize the white nodes mirrors picking
  k nodes of H to maximize induced edges:

      densest(H, k) = best_blocking(G, k, {hub}) - k        for k >= girth(H)

* ``"undirected"`` (the default): every edge conducts both ways.  Spread
  then runs from the hub through an unblocked copy u and the incidence
  node of an edge (u, v) back into v, even after v's hub edge is blocked,
  and the identity fails whenever girth(H) <= k < n(H); the complete graph
  on 4 nodes with k = 3 gives densest 3 but blocking 1.  It holds at
  k = n(H), where blocking every hub edge isolates the hub.

Below the girth the densest optimum is exactly k - 1 in either case (any k
nodes induce at most k - 1 edges without closing a short cycle, and a
connected k-subgraph achieves it).  The paper's abstract states only that
blocking is hard; it does not say which construction its reduction uses.
Everything here is brute force with hard size guards; witnesses are
re-checkable first lexicographic maximizers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cascade import is_connected, reach_counts
from .generators import MAX_ENUM_NODES, connected_graphs_upto_iso
from .graph import Graph, checked_count, from_edge_arrays, girth

_MAX_DS_NODES = 18
_MAX_BLOCKING_SUBSETS = 5_000_000
_BLOCKING_CHUNK = 4096        # subsets per bit-parallel sweep
CONSTRUCTIONS = ("undirected", "directed")
SWEEP_SIZES = range(2, MAX_ENUM_NODES + 1)     # max_n of sweep_small_instances


@dataclass(frozen=True)
class BlockingInstance:
    # unit weights; of a source graph with n nodes and m edges, nodes
    # 0..n-1 copy its nodes, n..n+m-1 stand for its edges, n + m is the hub
    graph: Graph
    hub: int                    # the only seed
    # int64[m, 2]: edge id e conducts only arcs[e, 0] -> arcs[e, 1] (the
    # directed construction); None when every edge conducts both ways
    arcs: np.ndarray | None = None


@dataclass(frozen=True)
class BruteForceResult:
    value: int
    witness: tuple


def _check_construction(construction: str) -> None:
    if construction not in CONSTRUCTIONS:
        raise ValueError(f"construction must be one of {CONSTRUCTIONS}, got {construction!r}")


def expand_to_blocking_instance(h: Graph, construction: str = "undirected") -> BlockingInstance:
    """Hub expansion of a connected graph (see module docstring)."""
    _check_construction(construction)
    if h.n == 0:
        raise ValueError("empty source graph")
    if not is_connected(h):
        raise ValueError("source graph must be connected")
    return _hub_expansion(h, construction)


def _hub_expansion(h: Graph, construction: str) -> BlockingInstance:
    """:func:`expand_to_blocking_instance` of a graph already checked."""
    n, m = h.n, h.m
    hub = n + m
    incidence = np.arange(n, hub, dtype=np.int64)    # node n + j stands for edge j of h
    g = from_edge_arrays(hub + 1, np.concatenate([incidence, incidence, np.arange(n)]),
                         np.concatenate([h.eu, h.ev, np.full(n, hub)]))
    arcs = None
    if construction == "directed":
        # canonical edges have eu < ev: a hub edge is (copy, hub) and runs
        # hub -> copy; an incidence edge is (copy, incidence) and runs forward
        to_hub = g.ev == hub
        arcs = np.stack([np.where(to_hub, g.ev, g.eu), np.where(to_hub, g.eu, g.ev)], axis=1)
        arcs.flags.writeable = False
    return BlockingInstance(graph=g, hub=hub, arcs=arcs)


def brute_force_densest_subgraph(h: Graph, k: int) -> BruteForceResult:
    """Max induced edge count over all k-node subsets, by enumeration;
    ValueError unless k is an integer in [0, n] (a float or bool k raises)."""
    k = checked_count(k, 0, h.n, "k")
    if h.n > _MAX_DS_NODES:
        raise ValueError(f"densest-subgraph enumeration is limited to n <= {_MAX_DS_NODES}")
    bits = [0] * h.n
    for u, v in zip(h.eu.tolist(), h.ev.tolist()):
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    # subsets come in lexicographic order, and only a strictly larger count
    # replaces the witness
    best, witness = -1, ()
    for comb in itertools.combinations(range(h.n), k):
        chosen = sum(1 << v for v in comb)
        count = sum((bits[v] & chosen).bit_count() for v in comb) // 2
        if count > best:
            best, witness = count, comb
    return BruteForceResult(best, witness)


def _binomial_table(m: int, k: int) -> np.ndarray:
    """int64[k + 1, m - k + 1] with entry [i, t] = C(i - 1 + t, i).

    Row i is the column of C(x, i) over the x that position k - i of a
    k-subset of range(m) can reach in :func:`_lex_columns`, so no entry
    exceeds C(m - 1, k).  A table over every x in 0..m would not fit int64
    at m = 70 and k = 68, where it holds C(70, 35) ~ 1.1e20 while
    C(70, 68) = 2,415 is far under the enumeration guard.
    """
    table = np.ones((k + 1, m - k + 1), dtype=np.int64)
    table[0, 0] = 0                     # C(-1, 0), taken as 0 so every row starts at 0
    for i in range(1, k + 1):
        np.cumsum(table[i - 1], out=table[i])       # hockey stick: C(x, i) = sum C(y, i - 1)
    return table


def _lex_columns(table: np.ndarray, m: int, k: int, start: int, s: int):
    """Positions 0 .. k - 1 of rows start .. start + s - 1 of
    ``itertools.combinations(range(m), k)``, one fresh int64[s] column per
    position, unranked from their ranks with the combinatorial number
    system (Knuth, TAOCP 4A, 7.2.1.3); ``table`` is ``_binomial_table(m, k)``.

    Lexicographic rank r of (c_0 < ... < c_(k-1)) is C(m, k) - 1 - N with
    N = sum_j C(m - 1 - c_j, k - j), and the terms of N are read off
    greedily: position j takes the largest C(x, k - j) <= N by one
    ``searchsorted`` over every row at once, then subtracts it.  The last
    term is C(x, 1) = x = N itself.
    """
    n_rest = math.comb(m, k) - 1 - np.arange(start, start + s, dtype=np.int64)
    for j in range(k - 1):
        col = table[k - j]
        t = np.searchsorted(col, n_rest, side="right") - 1
        n_rest -= col[t]
        yield np.subtract(m - k + j, t)      # x = k - j - 1 + t and c_j = m - 1 - x
    if k:
        yield np.subtract(m - 1, n_rest)


def brute_force_edge_blocking(g: Graph, k: int, seeds, arcs=None) -> BruteForceResult:
    """Max white (unreachable) node count over all k-edge removals.

    Requires unit weights, where expected spread is plain reachability.
    ``arcs`` (an instance's ``arcs``) is as in :func:`cascade.reach_counts`.

    Bit-parallel: the subsets come in the order of
    ``itertools.combinations(range(m), k)``, in chunks of
    ``_BLOCKING_CHUNK``, and each subset is one live-edge mask of
    :func:`cascade.reach_counts` (its edges dead, all others live), so a
    chunk costs one sweep per hop of the longest shortest path.  A chunk's
    subsets are built from their lexicographic ranks in k vectorised steps
    (:func:`_lex_columns`), with no Python work per subset, and each step's
    column is written straight into the live-edge block; only the winning
    rank is unranked again for the witness.  Memory is about
    m * ``_BLOCKING_CHUNK`` bytes, the live-edge block, plus O(chunk)
    int64 temporaries, whatever k and C(m, k) are.  Only a strict
    improvement replaces the best, so the witness is the first
    lexicographic maximizer.  ValueError unless k is an integer in
    [0, m]: a float or bool k raises.
    """
    if g.m and not np.all(g.w == 1.0):
        raise ValueError("edge-blocking optima require unit weights")
    m = g.m
    k = checked_count(k, 0, m, "k")
    total = math.comb(m, k)
    if total > _MAX_BLOCKING_SUBSETS:
        raise ValueError(
            f"C({m}, {k}) subsets exceed the enumeration guard of {_MAX_BLOCKING_SUBSETS}")
    table = _binomial_table(m, k)
    best, best_rank = -1, 0
    for done in range(0, total, _BLOCKING_CHUNK):
        s = min(_BLOCKING_CHUNK, total - done)
        live = np.ones(m * s, dtype=bool)    # live[e * s + lane], bool[m, s] flattened
        lanes = np.arange(s, dtype=np.int64)
        for col in _lex_columns(table, m, k, done, s):
            col *= s
            col += lanes
            live[col] = False
        white = g.n - reach_counts(g, live.reshape(m, s), seeds, arcs)
        j = int(np.argmax(white))
        if white[j] > best:
            best, best_rank = int(white[j]), done + j
    witness = tuple(int(col[0]) for col in _lex_columns(table, m, k, best_rank, 1))
    return BruteForceResult(best, witness)


@dataclass(frozen=True)
class ReductionCheck:
    k: int
    girth_value: float
    mode: str                 # "below_girth" or "expansion"
    opt_ds: int
    opt_eb: int | None
    passed: bool
    construction: str = "undirected"


def verify_reduction(h: Graph, k: int, construction: str = "undirected") -> ReductionCheck:
    """Check the optimum identity for one (graph, k) instance of a
    connected graph h (ValueError otherwise).

    Below the girth: densest optimum must equal k - 1.  Otherwise: build
    the hub expansion in the given construction and check
    densest(H, k) == blocking(G, k, hub) - k.  ValueError unless k is an
    integer in [1, n]: a float or bool k raises.
    """
    _check_construction(construction)
    k = checked_count(k, 1, h.n, "k")
    if not is_connected(h):
        raise ValueError("source graph must be connected")
    return _graph_checks(h, [k], construction)[0]


def _graph_checks(h: Graph, ks, construction: str) -> list[ReductionCheck]:
    """:func:`verify_reduction` of a connected graph h for every k in
    ``ks``, with one girth and at most one hub expansion, shared by every
    k at or above the girth."""
    gr = girth(h)
    inst = _hub_expansion(h, construction) if any(k >= gr for k in ks) else None
    checks = []
    for k in ks:
        ds = brute_force_densest_subgraph(h, k).value
        if k < gr:
            checks.append(ReductionCheck(k, gr, "below_girth", ds, None, ds == k - 1, construction))
        else:
            eb = brute_force_edge_blocking(inst.graph, k, [inst.hub], inst.arcs).value
            checks.append(ReductionCheck(k, gr, "expansion", ds, eb, ds == eb - k, construction))
    return checks


def sweep_small_instances(max_n: int, construction: str = "undirected") -> list[ReductionCheck]:
    """verify_reduction over every connected graph up to isomorphism with
    n <= max_n and every k in 1..n.

    The work is done per graph: one girth and at most one hub expansion,
    shared by every k at or above the girth.
    Connectivity is not checked again, since ``connected_graphs_upto_iso``
    yields connected graphs only.  The k = n boundary is included because
    it is where the expansion-mode identity holds on either construction
    (blocking every hub edge isolates the hub)."""
    _check_construction(construction)
    max_n = checked_count(max_n, SWEEP_SIZES[0], SWEEP_SIZES[-1], "max_n")
    checks = []
    for n in range(2, max_n + 1):
        for h in connected_graphs_upto_iso(n):
            checks.extend(_graph_checks(h, range(1, n + 1), construction))
    return checks
