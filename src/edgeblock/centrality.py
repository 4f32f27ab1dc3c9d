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
    """Brandes with edge length 1 - weight, one Dijkstra per source.

    The heap holds (distance, node) keys, which never repeat, since a node
    is pushed again only at a strictly smaller distance; so nodes are
    finalized in a fixed order even across zero-length edges.  v is a
    predecessor of w when it was finalized first and dist[v] + len(v, w)
    equals dist[w] exactly, which keeps the shortest-path DAG acyclic.
    """
    indptr, nbrs, eids = g.indptr.tolist(), g.nbrs.tolist(), g.adj_eid.tolist()
    length = (1.0 - g.w[g.adj_eid]).tolist()
    bc = [0.0] * g.m
    for s in range(g.n):
        dist, sigma, pos = [math.inf] * g.n, [0.0] * g.n, [-1] * g.n
        dist[s], sigma[s] = 0.0, 1.0
        order = []
        heap = [(0.0, s)]
        while heap:
            d, v = heapq.heappop(heap)
            if pos[v] >= 0:
                continue
            pos[v] = len(order)
            order.append(v)
            for j in range(indptr[v], indptr[v + 1]):
                w = nbrs[j]
                if pos[w] >= 0:
                    continue
                nd = d + length[j]
                if nd < dist[w]:
                    dist[w], sigma[w] = nd, sigma[v]
                    heapq.heappush(heap, (nd, w))
                elif nd == dist[w]:
                    sigma[w] += sigma[v]
        delta = [0.0] * g.n
        for w in reversed(order):
            coef = (1.0 + delta[w]) / sigma[w]
            for j in range(indptr[w], indptr[w + 1]):
                v = nbrs[j]
                if pos[v] < pos[w] and dist[v] + length[j] == dist[w]:
                    c = sigma[v] * coef
                    bc[eids[j]] += c
                    delta[v] += c
    return np.array(bc) * 0.5


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

