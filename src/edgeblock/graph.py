"""Immutable undirected weighted graph: construction, ingestion, statistics.

Nodes are dense integers ``0..n-1`` (original file ids are kept in a side
label map).  Edges are stored once with ``u < v`` in lexicographic order;
the position in that order is the canonical edge id used everywhere.  A CSR
adjacency index (neighbor rows sorted by id, each slot holding its edge id)
backs the kernels; per-edge values such as weights stay in edge order and
are gathered through the slot ids.  Instances are frozen and their arrays
are marked read-only, so they are safe to share across threads.

Distances run on ``scipy.sparse``, which :func:`adjacency` imports on the
first such call; construction, ingestion, girth and the common-neighbor
counts behind Jaccard weights and triangles (a popcount over packed
neighbor bits) need only numpy.  Connectivity is a reachability
query, ``cascade.is_connected``, on the one spread primitive.
"""

from __future__ import annotations

import gzip
import io
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

# elements per block (rows x row width) of the common-neighbor edge blocks,
# the shortest-path source blocks and both Brandes kernels' source blocks;
# bounds memory only, since no result depends on where the blocks split
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

    def with_weights(self, w: np.ndarray) -> "Graph":
        """Same structure, new per-edge weights; the read-only structure
        arrays are shared, not copied."""
        return replace(self, w=_freeze(np.array(_checked_weights(w, self.m))))

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
    CSR index.  Endpoints go through :func:`checked_ids` with bound n, so
    a non-integer endpoint raises ValueError rather than being truncated.
    """
    eu = checked_ids(eu, n, "endpoint")
    ev = checked_ids(ev, n, "endpoint")
    m = eu.shape[0]
    if ev.shape[0] != m:
        raise ValueError("endpoint arrays differ in length")
    w = np.ones(m) if w is None else _checked_weights(w, m)
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

    ``source`` is a path, a ``.gz`` path or ``bytes``.  Lines starting with
    '#' or '%' are comments, so no node token may start with either.  Each
    data line holds two node tokens and optionally a weight in (0, 1];
    without a weight column all weights are 1.  Self-loops and repeated
    (including reversed) pairs are dropped, the first listing of a pair
    keeping its weight; their counts go to one INFO line of this module's
    logger.  Node ids may be arbitrary integers or strings; dense internal
    ids follow first appearance and original ids are kept as labels.
    """
    node_index: dict[str, int] = {}     # insertion order is id order
    pairs: list[int] = []               # u0, v0, u1, v1, ... in line order
    ws: list[float] = []
    any_weight = False

    with _open_text(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0][0] in "#%":
                continue
            if len(parts) not in (2, 3):
                raise ParseError(f"expected 2 or 3 fields, got {len(parts)}", lineno)
            weight = 1.0
            if len(parts) == 3:
                try:
                    weight = float(parts[2])
                except ValueError:
                    raise ParseError(f"bad weight {parts[2]!r}", lineno) from None
                if not 0.0 < weight <= 1.0:
                    raise ParseError(f"weight {weight} outside (0, 1]", lineno)
                any_weight = True
            if parts[1][0] in "#%":   # written first on a line, it would read as a comment
                raise ParseError(f"node {parts[1]!r} starts with a comment character", lineno)
            pairs.append(node_index.setdefault(parts[0], len(node_index)))
            pairs.append(node_index.setdefault(parts[1], len(node_index)))
            ws.append(weight)

    if not node_index:
        raise ParseError("empty edge list")
    n = len(node_index)
    lo, hi = np.sort(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=1).T
    keep = np.flatnonzero(lo != hi)
    # np.unique's index is each key's first listing
    keep = keep[np.unique(lo[keep] * n + hi[keep], return_index=True)[1]]
    if keep.size < lo.size:
        self_loops = int(np.count_nonzero(lo == hi))
        log.info("dropped %d self-loop(s) and %d duplicate edge(s)",
                 self_loops, lo.size - self_loops - keep.size)
    return from_edge_arrays(n, lo[keep], hi[keep], np.array(ws)[keep] if any_weight else None,
                            labels=[label_of_token(t) for t in node_index])


def _format_weight(w: float) -> str:
    # shortest exact decimal, padded to at least 9 significant digits
    lead = 0 if w >= 1.0 else -int(math.floor(math.log10(w))) - 1
    return np.format_float_positional(w, unique=True, min_digits=9 + lead)


def _check_writable_labels(labels) -> None:
    """ValueError naming the first label whose token would not parse back
    to it: an empty token, one holding whitespace or starting with '#' or
    '%', a token already written for another node, or one
    :func:`label_of_token` reads as a different label (such as the string
    '5' or the float 5.0)."""
    seen = set()
    for label in labels:
        token = str(label)
        if (not token or token[0] in "#%" or any(c.isspace() for c in token)
                or token in seen or label_of_token(token) != label):
            raise ValueError(f"node label {label!r} would not parse back from an edge list")
        seen.add(token)


def write_edge_list(g: Graph, sink) -> None:
    """Write 'u v weight' lines in canonical edge order.

    Weights are exact decimals (at least 9 significant digits), so a parse
    round-trip reproduces them bit for bit.  Labels are written as tokens,
    and each is checked before ``sink`` is opened or written (see
    :func:`_check_writable_labels`).
    """
    if g.labels is not None:
        _check_writable_labels(g.labels)
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


def adjacency(g: Graph, data):
    """g's CSR index as an n x n ``scipy.sparse.csr_array`` with per-slot
    values ``data``.  scipy is imported here, on the first sparse kernel
    call, so that ``import edgeblock`` loads only numpy."""
    import scipy.sparse as sp

    return sp.csr_array((data, g.nbrs, g.indptr), shape=(g.n, g.n))


def _common_neighbors(g: Graph) -> np.ndarray:
    """Per-edge count of common neighbors, by bit popcount.

    Each node's neighbor set is packed into ``ceil(n / 64)`` uint64 words
    (bit ``u % 64`` of word ``u // 64``), so the table takes n^2 / 8 bytes;
    edge (u, v) counts the set bits of ``bits[u] & bits[v]``, in edge
    blocks.  Integer counts, so exact; needs numpy only.
    """
    words = (g.n + 63) >> 6
    bits = np.zeros(g.n * words, dtype=np.uint64)
    row_start = np.repeat(np.arange(g.n, dtype=np.int64) * words, g.degrees)
    np.bitwise_or.at(bits, row_start + (g.nbrs >> 6),
                     np.left_shift(np.uint64(1), (g.nbrs & 63).astype(np.uint64)))
    bits = bits.reshape(g.n, words)
    out = np.empty(g.m, dtype=np.int64)
    for lo, hi in row_blocks(g.m, words):
        out[lo:hi] = np.bitwise_count(bits[g.eu[lo:hi]] & bits[g.ev[lo:hi]]).sum(axis=1)
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


def checked_ids(ids, bound, what: str) -> np.ndarray:
    """Flat int64 array of ``ids``, order and repeats kept.

    The one rule for every id array (and budget list) the library takes
    in: ValueError when a non-empty array is not of an integer dtype (bools
    included), so an id is never truncated, or when an id lies outside
    [0, ``bound``).  ``what`` names one id in the messages.
    """
    arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids)).reshape(-1)
    if arr.size and (arr.dtype == bool or not np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"each {what} must be an integer, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    bad = arr[(arr < 0) | (arr >= bound)]
    if bad.size:
        raise ValueError(f"{what} out of range [0, {bound}): {bad[0]}")
    return arr
