"""Node and edge centrality kernels used by the blocking baselines."""

from __future__ import annotations

import heapq
import math

import numpy as np

from .graph import Graph, adjacency, distance_stats, row_blocks

PAGERANK_DAMPING = 0.85
PAGERANK_TOL = 1e-10         # L1 step that ends the power iteration
PAGERANK_MAX_ITER = 10_000


class ConvergenceError(RuntimeError):
    """Iteration cap reached; carries the last residual."""

    def __init__(self, message, residual, iterations):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def node_pagerank(g: Graph) -> np.ndarray:
    """PageRank by power iteration on the unweighted structure.

    Degree-zero nodes redistribute their mass uniformly, so the vector sums
    to 1.  Damping is PAGERANK_DAMPING; stops when the L1 step falls below
    PAGERANK_TOL, and raises after PAGERANK_MAX_ITER steps.
    """
    n = g.n
    if n == 0:
        return np.zeros(0)
    deg = g.degrees.astype(np.float64)
    dangling = deg == 0.0
    # column-stochastic transition: y[u] = sum over neighbors v of x[v]/d(v)
    trans = adjacency(g, 1.0 / deg[g.nbrs])
    x = np.full(n, 1.0 / n)
    teleport = (1.0 - PAGERANK_DAMPING) / n
    residual = np.inf
    for _ in range(PAGERANK_MAX_ITER):
        mass = x[dangling].sum()
        x_new = PAGERANK_DAMPING * (trans @ x + mass / n) + teleport
        residual = float(np.abs(x_new - x).sum())
        x = x_new
        if residual < PAGERANK_TOL:
            return x
    raise ConvergenceError("pagerank did not converge", residual, PAGERANK_MAX_ITER)


def node_closeness(g: Graph, weighted: bool = False) -> np.ndarray:
    """Component-corrected closeness: (r-1)^2 / ((n-1) * sum of distances).

    r is the number of reachable nodes.  Hop distances by default; with
    ``weighted`` the edge length is 1 - weight (zero-length edges are
    legal).  Nodes with zero total distance score 0, which covers isolated
    nodes and fully zero-distance neighborhoods alike.
    """
    n = g.n
    reach, sumd, _ = distance_stats(g, 1.0 - g.w[g.adj_eid] if weighted else None)
    out = np.zeros(n)
    pos = sumd > 0.0
    out[pos] = (reach[pos] - 1.0) ** 2 / ((n - 1.0) * sumd[pos])
    return out


def edge_betweenness(g: Graph, weighted: bool = False) -> np.ndarray:
    """Brandes edge betweenness over unordered node pairs.

    Each pair contributes 1 split evenly across its shortest paths.  With
    ``weighted`` the path length is the sum of 1 - weight per edge.
    """
    if weighted:
        return _betweenness_weighted(g)
    return _betweenness_by_levels(g)


def _betweenness_weighted(g: Graph) -> np.ndarray:
    """Brandes with edge length 1 - weight, over blocks of sources.

    Distances come from ``csgraph.dijkstra``.  Each source finalizes its
    reached nodes in the order a Dijkstra heap of (distance, node) keys
    pops them: by (distance, node id), unless an arc joins two nodes at
    equal distance on a shortest path (a zero length, or one the sum
    absorbs), which can pop a higher id first; such a source takes its
    order from :func:`_heap_order`.  v is a predecessor of w when it is
    finalized first and dist[v] + len(v, w) equals dist[w] exactly, which
    keeps the shortest-path DAG acyclic.  Arcs go in groups by the depth
    of their tail, its longest arc chain from the source, so each node's
    predecessors are shallower than it.  Path counts go forward a group at
    a time; being integer-valued, their sums are exact in any order.
    Dependencies go backward, deepest group first, and each tail adds its
    shares in descending head rank, as a per-source heap loop does.  Each
    edge's shares join ``bc`` in source order, so the result does not
    depend on the block size.
    """
    from scipy.sparse import csgraph

    n = g.n
    length = 1.0 - g.w[g.adj_eid]
    tail = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    a = adjacency(g, length)
    bc = np.zeros(g.m)
    for lo, hi in row_blocks(n, max(2 * g.m, n)):
        rows = np.arange(hi - lo)
        dist = csgraph.dijkstra(a, indices=np.arange(lo, hi))
        pos = np.empty(dist.shape, dtype=np.int32)
        pos[rows[:, None], np.argsort(dist, axis=1, kind="stable")] = np.arange(n)
        d_tail, d_head = dist[:, tail], dist[:, g.nbrs]
        on_path = d_tail + length == d_head
        on_path &= np.isfinite(d_head)
        tied = np.flatnonzero((on_path & (d_tail == d_head)).any(axis=1))
        del d_tail, d_head
        lists = (g.indptr.tolist(), g.nbrs.tolist(), length.tolist()) if tied.size else None
        for row in tied:
            reached = _heap_order(*lists, lo + row)
            pos[row, reached] = np.arange(len(reached))
        src, slot = np.nonzero(on_path & (pos[:, tail] < pos[:, g.nbrs]))
        # arcs v -> w in source order; flat indices into the (source, node) arrays
        v, w = src * n + tail[slot], src * n + g.nbrs[slot]
        depth = np.zeros(dist.size, dtype=np.int64)
        while np.any(depth[w] <= depth[v]):
            np.maximum.at(depth, w, depth[v] + 1)
        # tail depth (longest arc chain from the source), then head rank descending
        by_depth = np.argsort(depth[v] * n - pos.ravel()[w], kind="stable")
        v, w = v[by_depth], w[by_depth]
        bounds = np.searchsorted(depth[v], np.arange(depth.max() + 2))
        groups = [slice(i, j) for i, j in zip(bounds[:-1], bounds[1:])]
        sigma = np.zeros(dist.size)
        sigma[rows * n + lo + rows] = 1.0
        for s in groups:
            np.add.at(sigma, w[s], sigma[v[s]])
        delta, share = np.zeros(dist.size), np.empty(v.size)
        for s in reversed(groups):
            c = sigma[v[s]] * ((1.0 + delta[w[s]]) / sigma[w[s]])
            np.add.at(delta, v[s], c)
            share[by_depth[s]] = c
        np.add.at(bc, g.adj_eid[slot], share)
    return bc * 0.5


def _heap_order(indptr, nbrs, length, s) -> list:
    """Nodes reached from s in the order a Dijkstra heap of (distance,
    node) keys finalizes them; CSR lists with per-slot ``length``."""
    dist, done, order = {s: 0.0}, set(), []
    heap = [(0.0, s)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        order.append(v)
        for j in range(indptr[v], indptr[v + 1]):
            w, nd = nbrs[j], d + length[j]
            if w not in done and nd < dist.get(w, math.inf):
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return order


def _betweenness_by_levels(g: Graph) -> np.ndarray:
    """Unweighted Brandes, level-synchronous over batches of sources.

    Column s of the n x batch arrays belongs to one source.  The forward
    pass advances the frontier with A @ front and counts shortest paths in
    sigma; the backward pass walks the levels down, giving each node the
    dependency delta[v] = sigma[v] * sum over children w of
    (1 + delta[w]) / sigma[w].  Edge (v, w) with w one level below v
    then carries sigma[v] * (1 + delta[w]) / sigma[w].  Batches are sized
    by n alone, and edge shares are gathered in edge blocks.
    """
    a = adjacency(g, np.ones(2 * g.m))
    bc = np.zeros(g.m)
    for lo, hi in row_blocks(g.n, g.n):
        cols = np.arange(hi - lo)
        dist = np.full((g.n, cols.size), -1, dtype=np.int32)
        sigma = np.zeros((g.n, cols.size))
        dist[lo + cols, cols] = 0
        sigma[lo + cols, cols] = 1.0
        front, level = sigma.copy(), 0
        while front.any():
            paths = a @ front
            new = (paths > 0.0) & (dist < 0)
            level += 1
            dist[new] = level
            front = np.where(new, paths, 0.0)
            sigma += front
        delta = np.zeros_like(sigma)
        for d in range(level, 0, -1):
            coef = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist == d)
            delta += np.where(dist == d - 1, sigma * (a @ coef), 0.0)
        coef = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=dist >= 0)
        for e_lo, e_hi in row_blocks(g.m, cols.size):
            eu, ev = g.eu[e_lo:e_hi], g.ev[e_lo:e_hi]
            for u, v in ((eu, ev), (ev, eu)):
                below = dist[v] == dist[u] + 1
                bc[e_lo:e_hi] += np.einsum("ij,ij->i", np.where(below, sigma[u], 0.0), coef[v])
    return bc * 0.5

