"""Immutable undirected weighted graph: construction, ingestion, statistics.

Nodes are dense integers ``0..n-1`` (original file ids are kept in a side
label map).  Edges are stored once with ``u < v`` in lexicographic order;
the position in that order is the canonical edge id used everywhere.  A CSR
adjacency index (neighbor rows sorted by id, each slot holding its edge id)
backs the kernels; per-edge values such as weights stay in edge order and
are gathered through the slot ids.  Instances are frozen and their arrays
are marked read-only, so they are safe to share across threads.
"""

from __future__ import annotations

import gzip
import io
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)

# elements per block (rows x row width) of the common-neighbor products,
# the shortest-path source blocks and the Brandes source batches; bounds
# memory only, since no result depends on where the blocks split
_BLOCK_ELEMENTS = 1 << 16


class ParseError(ValueError):
    """Malformed edge-list input; carries the 1-based line number."""

    def __init__(self, message, line_number=None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


def _freeze(a):
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Graph:
    n: int
    eu: np.ndarray          # int64[m], u endpoint, u < v
    ev: np.ndarray          # int64[m]
    w: np.ndarray           # float64[m], weights in (0, 1]
    indptr: np.ndarray      # int64[n+1] CSR row pointers
    nbrs: np.ndarray        # int64[2m] neighbor ids, sorted within each row
    adj_eid: np.ndarray     # int64[2m] edge id per adjacency slot
    labels: tuple | None = field(default=None, compare=False)

    @property
    def m(self) -> int:
        return int(self.eu.shape[0])

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def weighted_degrees(self) -> np.ndarray:
        out = np.zeros(self.n)
        np.add.at(out, self.eu, self.w)
        np.add.at(out, self.ev, self.w)
        return out

    def edge_tuple(self, e: int) -> tuple[int, int, float]:
        (e,) = checked_edge_ids(self, [e])
        return int(self.eu[e]), int(self.ev[e]), float(self.w[e])

    def neighbors(self, v: int) -> np.ndarray:
        return self.nbrs[self.indptr[v]:self.indptr[v + 1]]

    def with_weights(self, w: np.ndarray) -> "Graph":
        """Same structure, new per-edge weights; the read-only structure
        arrays are shared, not copied."""
        return replace(self, w=_freeze(np.array(_checked_weights(w, self.m))))

    def same_structure(self, other: "Graph") -> bool:
        """Structural equality: node count, edge pairs and exact weights."""
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self.eu, other.eu))
            and bool(np.array_equal(self.ev, other.ev))
            and bool(np.array_equal(self.w, other.w))
        )

    def label_of(self, v: int):
        return self.labels[v] if self.labels is not None else v


def csr_index(n, rows, cols):
    """CSR over n rows of the pairs (rows[i], cols[i]): ``(indptr, cols
    sorted within each row, the pair index of each slot)``.

    A slot holds only its pair index, so per-pair values stay in pair order
    and are gathered through it.  An undirected graph lists each edge twice,
    once from each endpoint.
    """
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order], order


def _checked_weights(w, m) -> np.ndarray:
    """w as float64; ValueError unless it holds one weight per edge, each in
    (0, 1], which NaN is not."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (m,):
        raise ValueError("weight array must have one entry per edge")
    if not np.all((w > 0.0) & (w <= 1.0)):
        raise ValueError("edge weights must lie in (0, 1]")
    return w


def from_edge_arrays(n, eu, ev, w=None, labels=None) -> Graph:
    """Build a Graph from endpoint arrays.

    Validates simplicity (no self-loops, no duplicates) and weight range,
    canonicalizes to u < v with lexicographic edge order, and builds the
    CSR index.
    """
    eu = np.asarray(eu, dtype=np.int64)
    ev = np.asarray(ev, dtype=np.int64)
    m = eu.shape[0]
    if ev.shape[0] != m:
        raise ValueError("endpoint arrays differ in length")
    w = np.ones(m) if w is None else _checked_weights(w, m)
    if m > 0:
        if eu.min() < 0 or max(eu.max(), ev.max()) >= n:
            raise ValueError("endpoint out of range")
        if np.any(eu == ev):
            raise ValueError("self-loops are not allowed")
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    if m > 1:
        dup = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if np.any(dup):
            raise ValueError("duplicate edges are not allowed")

    indptr, nbrs, slot = csr_index(n, np.concatenate([lo, hi]), np.concatenate([hi, lo]))
    return Graph(
        n=int(n),
        eu=_freeze(lo),
        ev=_freeze(hi),
        w=_freeze(w),
        indptr=_freeze(indptr),
        nbrs=_freeze(nbrs),
        adj_eid=_freeze(slot % m),
        labels=tuple(labels) if labels is not None else None,
    )


# ---------------------------------------------------------------------------
# ingestion / serialization
# ---------------------------------------------------------------------------

def _open_text(source):
    if isinstance(source, (str, Path)):
        p = Path(source)
        if p.suffix == ".gz":
            return gzip.open(p, "rt")
        return open(p, "r")
    if isinstance(source, bytes):
        return io.StringIO(source.decode())
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode()
        return io.StringIO(data)
    raise TypeError(f"unsupported edge-list source: {type(source)!r}")


def label_of_token(token: str):
    """The label an edge-list node token gets: an int when the token is one
    written canonically (``str(int(token)) == token``), else the token, so
    tokens such as ``05`` and ``5`` stay distinct nodes."""
    try:
        value = int(token)
    except ValueError:
        return token
    return value if str(value) == token else token


def parse_edge_list(source) -> Graph:
    """Parse a whitespace-separated edge list into a Graph.

    Lines starting with '#' or '%' are comments, so no node token may start
    with either.  Each data line holds two node tokens and optionally a
    weight in (0, 1]; without a weight column all weights are 1.  Duplicate
    (including reversed) edges and self-loops are dropped; their counts go
    to one INFO line of this module's logger.
    Node ids may be arbitrary integers or strings; dense internal ids
    follow first appearance and original ids are kept as labels.
    """
    self_loops = duplicate_edges = 0
    node_index: dict[str, int] = {}
    tokens_in_order: list[str] = []
    seen_pairs: set[tuple[int, int]] = set()
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    any_weight = False

    with _open_text(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line[0] in "#%":
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(f"expected 2 or 3 fields, got {len(parts)}", lineno)
            ua, va = parts[0], parts[1]
            weight = 1.0
            if len(parts) == 3:
                try:
                    weight = float(parts[2])
                except ValueError:
                    raise ParseError(f"bad weight {parts[2]!r}", lineno) from None
                if not 0.0 < weight <= 1.0:
                    raise ParseError(f"weight {weight} outside (0, 1]", lineno)
                any_weight = True
            for tok in (ua, va):
                if tok not in node_index:
                    if tok[0] in "#%":   # written first on a line, it would read as a comment
                        raise ParseError(f"node {tok!r} starts with a comment character", lineno)
                    node_index[tok] = len(tokens_in_order)
                    tokens_in_order.append(tok)
            iu, iv = node_index[ua], node_index[va]
            if iu == iv:
                self_loops += 1
                continue
            key = (iu, iv) if iu < iv else (iv, iu)
            if key in seen_pairs:
                duplicate_edges += 1
                continue
            seen_pairs.add(key)
            us.append(iu)
            vs.append(iv)
            ws.append(weight)

    if not tokens_in_order:
        raise ParseError("empty edge list")
    if self_loops or duplicate_edges:
        log.info("dropped %d self-loop(s) and %d duplicate edge(s)", self_loops, duplicate_edges)

    labels: tuple = tuple(label_of_token(t) for t in tokens_in_order)
    return from_edge_arrays(
        len(tokens_in_order),
        np.array(us, dtype=np.int64),
        np.array(vs, dtype=np.int64),
        np.array(ws) if any_weight else None,
        labels=labels,
    )


def _format_weight(w: float) -> str:
    # shortest exact decimal, padded to at least 9 significant digits
    lead = 0 if w >= 1.0 else -int(math.floor(math.log10(w))) - 1
    return np.format_float_positional(w, unique=True, min_digits=9 + lead)


def write_edge_list(g: Graph, sink) -> None:
    """Write 'u v weight' lines in canonical edge order.

    Weights are exact decimals (at least 9 significant digits), so a parse
    round-trip reproduces them bit for bit.
    """
    own = isinstance(sink, (str, Path))
    fh = open(sink, "w") if own else sink
    try:
        fh.write(f"# nodes {g.n} edges {g.m}\n")
        for e in range(g.m):
            lu = g.label_of(int(g.eu[e]))
            lv = g.label_of(int(g.ev[e]))
            fh.write(f"{lu} {lv} {_format_weight(float(g.w[e]))}\n")
    finally:
        if own:
            fh.close()


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def row_blocks(rows: int, width: int):
    """Consecutive ``(lo, hi)`` row ranges of at most _BLOCK_ELEMENTS
    elements when each row holds ``width``."""
    step = max(1, _BLOCK_ELEMENTS // max(width, 1))
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def adjacency(g: Graph, data) -> sp.csr_array:
    """g's CSR index as an n x n sparse array with per-slot values ``data``."""
    return sp.csr_array((data, g.nbrs, g.indptr), shape=(g.n, g.n))


def _common_neighbors(g: Graph) -> np.ndarray:
    """Per-edge count of common neighbors: (A @ A)[eu, ev], by node-row
    blocks; eu is sorted, so each block owns a contiguous run of edge ids."""
    a = adjacency(g, np.ones(2 * g.m, dtype=np.int32))
    out = np.zeros(g.m, dtype=np.int64)
    for lo, hi in row_blocks(g.n, g.n):
        e0, e1 = np.searchsorted(g.eu, [lo, hi])
        if e0 < e1:
            out[e0:e1] = (a[lo:hi] @ a)[g.eu[e0:e1] - lo, g.ev[e0:e1]]
    return out


def distance_stats(g: Graph, lengths=None):
    """Per source: (reachable node count, distance sum, eccentricity).

    Hop distances by default, else shortest paths over the per-slot edge
    ``lengths`` (zero is a legal length).  Sources run in blocks.
    """
    from scipy.sparse import csgraph

    a = adjacency(g, np.ones(2 * g.m) if lengths is None else lengths)
    reach = np.zeros(g.n, dtype=np.int64)
    sumd = np.zeros(g.n)
    ecc = np.zeros(g.n)
    for lo, hi in row_blocks(g.n, g.n):
        dist = csgraph.shortest_path(a, method="D", unweighted=lengths is None,
                                     indices=np.arange(lo, hi))
        finite = np.isfinite(dist)
        dist[~finite] = 0.0
        reach[lo:hi] = finite.sum(axis=1)
        sumd[lo:hi] = dist.sum(axis=1)
        ecc[lo:hi] = dist.max(axis=1)
    return reach, sumd, ecc


def is_connected(g: Graph) -> bool:
    """Whether g has at most one connected component.

    The CSR lists each edge in both endpoint rows, so the strong components
    of its directed view are g's components; scipy finds those without the
    transpose its undirected mode builds, which dominates on small graphs.
    """
    from scipy.sparse import csgraph

    a = adjacency(g, np.ones(2 * g.m))
    return csgraph.connected_components(a, connection="strong", return_labels=False) <= 1


def assign_jaccard_weights(g: Graph) -> Graph:
    """Reweight every edge (u, v) by |N̂(u) ∩ N̂(v)| / |N(u) ∪ N(v)|.

    The closed-neighborhood numerator always contains both endpoints, so
    weights land in (0, 1]; weight 1 means the closed neighborhoods agree.
    """
    if g.m == 0:
        raise ValueError("graph has no edges to weight")
    common = _common_neighbors(g)
    deg = g.degrees
    numer = common + 2
    denom = deg[g.eu] + deg[g.ev] - common
    return g.with_weights(numer / denom)


@dataclass(frozen=True)
class GraphStats:
    n: int
    m: int
    d_avg: float
    d_max: int
    diameter: int            # of the largest component when disconnected
    connected: bool
    k_avg: float             # average local clustering, degree<2 counts as 0
    triangles: int


def graph_stats(g: Graph) -> GraphStats:
    """Structural summary; the diameter comes from hop distances between
    all node pairs, the triangle count from common neighbors per edge."""
    n, m = g.n, g.m
    deg = g.degrees
    d_max = int(deg.max()) if n else 0
    d_avg = 2.0 * m / n if n else 0.0

    if n:
        reach, _, ecc = distance_stats(g)
        largest = int(reach.max())
        connected = largest == n
        diameter = int(ecc[reach == largest].max())
    else:
        connected, diameter = True, 0

    triangles = 0
    k_avg = 0.0
    if m:
        common = _common_neighbors(g)
        triangles = int(common.sum()) // 3
        tri2 = np.zeros(n, dtype=np.int64)   # 2x triangles through each node
        np.add.at(tri2, g.eu, common)
        np.add.at(tri2, g.ev, common)
        mask = deg >= 2
        local = np.zeros(n)
        local[mask] = tri2[mask] / (deg[mask] * (deg[mask] - 1.0))
        k_avg = float(local.sum() / n)

    return GraphStats(
        n=n, m=m, d_avg=d_avg, d_max=d_max, diameter=diameter,
        connected=connected, k_avg=k_avg, triangles=triangles,
    )


def girth(g: Graph):
    """Length of the shortest cycle, math.inf for acyclic graphs.

    BFS from every root; any scanned non-tree edge (x, y) closes a walk of
    length dist[x] + dist[y] + 1 through the root, which never undershoots
    the girth, and roots on a shortest cycle realize it exactly.  A plain
    loop: the hardness lab's graphs are too small to repay array setup.
    """
    indptr, nbrs = g.indptr.tolist(), g.nbrs.tolist()
    best = math.inf
    for s in range(g.n):
        dist, parent = {s: 0}, {s: -1}
        queue = [s]
        for u in queue:
            for v in nbrs[indptr[u]:indptr[u + 1]]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    best = min(best, dist[u] + dist[v] + 1)
        if best == 3:
            break
    return best


def integer_ids(ids, what: str) -> np.ndarray:
    """Flat int64 array of ``ids``, order and repeats kept; ValueError when a
    non-empty array is not of an integer dtype (bools included), so an id
    is never truncated."""
    arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids)).reshape(-1)
    if arr.size and (arr.dtype == bool or not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def checked_edge_ids(g: Graph, edge_ids) -> np.ndarray:
    """:func:`integer_ids` of the edge ids; ValueError on one outside [0, m)."""
    ids = integer_ids(edge_ids, "edge ids")
    bad = ids[(ids < 0) | (ids >= g.m)]
    if bad.size:
        raise ValueError(f"edge id {bad[0]} out of range [0, {g.m})")
    return ids


def remove_edges(g: Graph, edge_ids) -> Graph:
    """New Graph without the given canonical edge ids; nodes unchanged."""
    keep = np.ones(g.m, dtype=bool)
    keep[checked_edge_ids(g, edge_ids)] = False
    return from_edge_arrays(g.n, g.eu[keep], g.ev[keep], g.w[keep], labels=g.labels)
