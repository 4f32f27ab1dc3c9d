"""Independent brute-force oracles used to pin expected values.

Everything here recomputes quantities from first principles (path
enumeration, triple loops, dense linear algebra, exhaustive partitions)
and stays independent of the library's own algorithms.
"""

import heapq
import itertools
import math

import numpy as np


def brute_triangles(g):
    count = 0
    nbr = [set(map(int, g.neighbors(v))) for v in range(g.n)]
    for a, b, c in itertools.combinations(range(g.n), 3):
        if b in nbr[a] and c in nbr[a] and c in nbr[b]:
            count += 1
    return count


def brute_girth(g):
    """Shortest cycle through each edge: dist(u, v) in G - e, plus one."""
    best = math.inf
    for e in range(g.m):
        u, v, _ = g.edge_tuple(e)
        dist = _bfs_dist_without_edge(g, u, e)
        if dist[v] < math.inf:
            best = min(best, dist[v] + 1)
    return best


def _bfs_dist_without_edge(g, src, banned_edge):
    dist = [math.inf] * g.n
    dist[src] = 0
    queue = [src]
    while queue:
        nxt = []
        for u in queue:
            for j in range(g.indptr[u], g.indptr[u + 1]):
                if g.adj_eid[j] == banned_edge:
                    continue
                v = int(g.nbrs[j])
                if dist[v] == math.inf:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        queue = nxt
    return dist


def heap_dijkstra(g, src, lengths):
    """Distances from src by a textbook heapq Dijkstra over edge-id lengths;
    unreached nodes are absent."""
    dist = {}
    heap = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for j in range(g.indptr[u], g.indptr[u + 1]):
            v = int(g.nbrs[j])
            if v not in dist:
                heapq.heappush(heap, (d + lengths[g.adj_eid[j]], v))
    return dist


def dijkstra_closeness(g):
    """(r-1)^2 / ((n-1) * distance sum) per node on edge lengths 1 - weight,
    0 on a zero sum."""
    out = np.zeros(g.n)
    for v in range(g.n):
        dist = heap_dijkstra(g, v, 1.0 - g.w)
        total = sum(dist.values())
        if total > 0:
            out[v] = (len(dist) - 1) ** 2 / ((g.n - 1) * total)
    return out


def brute_diameter(g):
    """(diameter of the largest component, connected) by BFS from every
    node; among equally large components the longest distance counts."""
    comps = []
    for v in range(g.n):
        dist = _bfs_dist_without_edge(g, v, -1)
        comps.append((sum(d < math.inf for d in dist),
                      max(d for d in dist if d < math.inf)))
    largest = max(size for size, _ in comps)
    return max(ecc for size, ecc in comps if size == largest), largest == g.n


def _all_simple_paths(g, s, t, lengths):
    """Yield (path edge ids, total length) for all simple s-t paths."""
    path_nodes = [s]
    path_edges = []

    def rec(u, total):
        if u == t:
            yield list(path_edges), total
            return
        for j in range(g.indptr[u], g.indptr[u + 1]):
            v = int(g.nbrs[j])
            if v in path_nodes:
                continue
            e = int(g.adj_eid[j])
            path_nodes.append(v)
            path_edges.append(e)
            yield from rec(v, total + lengths[e])
            path_nodes.pop()
            path_edges.pop()

    yield from rec(s, 0.0)


def brute_edge_betweenness(g, weighted=False, tol=1e-12):
    """Enumerate all simple paths per pair, keep the minimal ones, split."""
    lengths = (1.0 - g.w) if weighted else np.ones(g.m)
    bc = np.zeros(g.m)
    for s, t in itertools.combinations(range(g.n), 2):
        paths = list(_all_simple_paths(g, s, t, lengths))
        if not paths:
            continue
        dmin = min(total for _, total in paths)
        shortest = [edges for edges, total in paths if total <= dmin + tol]
        share = 1.0 / len(shortest)
        for edges in shortest:
            for e in edges:
                bc[e] += share
    return bc


def dense_pagerank(g, damping=0.85, tol=1e-12, max_iter=100000):
    n = g.n
    a = np.zeros((n, n))
    for e in range(g.m):
        u, v, _ = g.edge_tuple(e)
        a[u, v] = 1.0
        a[v, u] = 1.0
    deg = a.sum(axis=0)
    p = np.zeros((n, n))
    nz = deg > 0
    p[:, nz] = a[:, nz] / deg[nz]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        mass = x[~nz].sum()
        x_new = damping * (p @ x + mass / n) + (1.0 - damping) / n
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    return x


def set_partitions(items):
    """All partitions of a list, as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def best_modularity_exhaustive(g, resolution=1.0):
    """Max modularity over every partition of the node set (tiny n only)."""
    from edgeblock.community import Partition, modularity

    best_q = -math.inf
    best_labels = None
    for blocks in set_partitions(range(g.n)):
        labels = np.zeros(g.n, dtype=np.int64)
        for c, block in enumerate(blocks):
            for v in block:
                labels[v] = c
        # relabel densely by first occurrence
        remap, nxt = {}, 0
        for v in range(g.n):
            if labels[v] not in remap:
                remap[labels[v]] = nxt
                nxt += 1
        dense = np.array([remap[c] for c in labels], dtype=np.int64)
        q = modularity(g, Partition(dense), resolution)
        if q > best_q:
            best_q = q
            best_labels = dense
    return best_q, best_labels


def brute_expected_spread(g, seeds):
    """Expected reach by direct enumeration with python BFS (m small)."""
    seeds = list(seeds)
    total = 0.0
    for live in itertools.product([0, 1], repeat=g.m):
        prob = 1.0
        for e, flag in enumerate(live):
            prob *= g.w[e] if flag else (1.0 - g.w[e])
        seen = set(seeds)
        queue = list(seeds)
        while queue:
            u = queue.pop()
            for j in range(g.indptr[u], g.indptr[u + 1]):
                if not live[g.adj_eid[j]]:
                    continue
                v = int(g.nbrs[j])
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        total += prob * len(seen)
    return total


def best_edge_blocking(indptr, nbrs, adj_eid, m, k, seeds):
    """Max count of nodes unreachable from the seeds over all k-edge
    removals, one BFS per subset in lexicographic order (unit weights:
    spread is plain reachability).  Returns the optimum and the first
    lexicographic witness subset of edge ids.  ``indptr``/``nbrs``/
    ``adj_eid`` form an out-arc CSR carrying edge ids."""
    n = len(indptr) - 1
    comb = list(range(k))
    blocked = [False] * m
    best = -1
    best_comb = ()
    while True:
        for e in comb:
            blocked[e] = True
        visited = set(int(s) for s in seeds)
        queue = list(visited)
        while queue:
            u = queue.pop()
            for j in range(indptr[u], indptr[u + 1]):
                if blocked[adj_eid[j]]:
                    continue
                v = int(nbrs[j])
                if v not in visited:
                    visited.add(v)
                    queue.append(v)
        white = n - len(visited)
        if white > best:
            best = white
            best_comb = tuple(comb)
        for e in comb:
            blocked[e] = False
        i = k - 1
        while i >= 0 and comb[i] == m - k + i:
            i -= 1
        if i < 0:
            break
        comb[i] += 1
        for j in range(i + 1, k):
            comb[j] = comb[j - 1] + 1
    return best, best_comb


def edge_blocking_reference(g, k, seeds, arcs=None):
    """``best_edge_blocking`` on g's edges, both ways, or on ``arcs``
    (edge e only from arcs[e, 0] to arcs[e, 1])."""
    if arcs is None:
        pairs = [(int(g.eu[e]), int(g.ev[e]), e) for e in range(g.m)]
        pairs += [(v, u, e) for u, v, e in pairs]
    else:
        pairs = [(int(arcs[e][0]), int(arcs[e][1]), e) for e in range(g.m)]
    out = [[] for _ in range(g.n)]
    for t, h, e in pairs:
        out[t].append((h, e))
    indptr, nbrs, eids = [0], [], []
    for row in out:
        nbrs += [h for h, _ in row]
        eids += [e for _, e in row]
        indptr.append(len(nbrs))
    return best_edge_blocking(indptr, nbrs, eids, g.m, k, seeds)
