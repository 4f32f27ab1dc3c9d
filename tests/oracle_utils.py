"""Independent brute-force oracles used to pin expected values.

The oracles recompute quantities from first principles (path
enumeration, triple loops, dense linear algebra, exhaustive partitions,
the cascade's round-by-round states) and stay independent of the
library's own algorithms.  The helpers section after them holds graph
surgery, modularity, the aggregates CSV reader and the exact spreads,
which only the tests use; those deliberately call the library's
``reach_counts`` and ``from_edge_arrays``, so the exact spreads exercise
the one spread primitive rather than a second reachability.  The last
section keeps the array kernels that the library's sequential helpers
replaced, as bit-identity references.
"""

import functools
import heapq
import itertools
import math

import numpy as np

from edgeblock.cascade import reach_counts
from edgeblock.evaluation import AGGREGATE_HEADER
from edgeblock.graph import checked_ids, from_edge_arrays


def brute_triangles(g):
    count = 0
    nbr = [set(neighbors(g, v).tolist()) for v in range(g.n)]
    for a, b, c in itertools.combinations(range(g.n), 3):
        if b in nbr[a] and c in nbr[a] and c in nbr[b]:
            count += 1
    return count


def brute_girth(g):
    """Shortest cycle through each edge: dist(u, v) in G - e, plus one."""
    best = math.inf
    for e in range(g.m):
        u, v = int(g.eu[e]), int(g.ev[e])
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
        u, v = int(g.eu[e]), int(g.ev[e])
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
        q = modularity(g, dense, resolution)
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


def round_model_expected_spread(g, seeds):
    """Exact expected final orange count of the synchronous round model.

    From a (red, orange) state, each white node with red neighbors turns
    red, independently, with probability 1 - prod(1 - w) over those
    neighbors, and every red node turns orange; the recursion sums over
    every subset of newly red nodes.  No live-edge view is used, so this
    checks the live-edge equivalence rather than assuming it (n small).
    """
    nbrs = [[(int(g.nbrs[j]), float(g.w[g.adj_eid[j]])) for j in range(g.indptr[v], g.indptr[v + 1])]
            for v in range(g.n)]

    @functools.cache
    def expected(red, orange):
        if not red:
            return float(len(orange))
        done = red | orange
        miss = {}      # white node with a red neighbor -> P(no red neighbor fires)
        for v in range(g.n):
            hits = [1.0 - w for u, w in nbrs[v] if u in red]
            if v not in done and hits:
                miss[v] = math.prod(hits)
        total = 0.0
        for r in range(len(miss) + 1):
            for new in itertools.combinations(miss, r):
                prob = math.prod(1.0 - q if v in new else q for v, q in miss.items())
                if prob:
                    total += prob * expected(frozenset(new), done)
        return total

    return expected(frozenset(int(s) for s in seeds), frozenset())


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


# ---------------------------------------------------------------------------
# Helpers only the tests use.  They build on the library's from_edge_arrays
# and reach_counts, so they are not independent oracles.
# ---------------------------------------------------------------------------

_MAX_ENUM_EDGES = 25
_ENUM_MASKS = 1 << 12      # live-edge masks per reach_counts call


def edge_tuple(g, e):
    """(u, v, weight) of edge id e; ValueError on an id outside [0, m)."""
    (e,) = checked_ids([e], g.m, "edge id")
    return int(g.eu[e]), int(g.ev[e]), float(g.w[e])


def neighbors(g, v):
    return g.nbrs[g.indptr[v]:g.indptr[v + 1]]


def same_structure(g, h):
    """Structural equality: node count, edge pairs and exact weights."""
    return (
        g.n == h.n
        and g.m == h.m
        and bool(np.array_equal(g.eu, h.eu))
        and bool(np.array_equal(g.ev, h.ev))
        and bool(np.array_equal(g.w, h.w))
    )


def remove_edges(g, edge_ids):
    """New Graph without the given canonical edge ids; nodes unchanged."""
    keep = np.ones(g.m, dtype=bool)
    keep[checked_ids(edge_ids, g.m, "edge id")] = False
    return from_edge_arrays(g.n, g.eu[keep], g.ev[keep], g.w[keep], labels=g.labels)


def modularity(g, labels, resolution=1.0):
    """Direct evaluation of the unweighted Q for the partition given as
    community labels, dense 0..c-1."""
    if labels.shape[0] != g.n:
        raise ValueError("label count does not match node count")
    if g.m == 0:
        return 0.0
    ew = np.ones(g.m)
    total = float(g.m)
    c = int(labels.max()) + 1
    intra = np.zeros(c)
    same = labels[g.eu] == labels[g.ev]
    np.add.at(intra, labels[g.eu[same]], ew[same])
    dtot = np.zeros(c)
    np.add.at(dtot, labels[g.eu], ew)
    np.add.at(dtot, labels[g.ev], ew)
    return float((intra / total - resolution * (dtot / (2.0 * total)) ** 2).sum())


def load_aggregate_csv(path):
    """Parse an aggregates CSV back into (network, strategy, budget fraction,
    cf mean, cf std, seed sets) tuples."""
    rows = []
    with open(path) as fh:
        if fh.readline().strip() != AGGREGATE_HEADER:
            raise ValueError("unexpected aggregate CSV header")
        for line in fh:
            net, strat, pct, mean, std, nss = line.strip().split(",")
            rows.append((net, strat, float(pct) / 100.0, float(mean), float(std), int(nss)))
    return rows


def white_count_after_blocking(g, edge_ids, seeds, arcs=None):
    """Nodes ``seeds`` do not reach once ``edge_ids`` are dead (unit weights
    only), to re-check a blocking witness; ``arcs`` as in ``reach_counts``."""
    if g.m and not np.all(g.w == 1.0):
        raise ValueError("reachability spread requires all weights equal to 1")
    live = np.ones((g.m, 1), dtype=bool)
    live[checked_ids(edge_ids, g.m, "edge id")] = False
    return g.n - int(reach_counts(g, live, seeds, arcs)[0])


def exact_spread_unit_weights(g, seeds):
    """Exact expected spread when every weight is 1: plain reachability."""
    return g.n - white_count_after_blocking(g, (), seeds)


def enumerate_spread_exact(g, seeds):
    """Exact expected spread by summing over all live-edge subsets.

    Each edge is independently live with probability equal to its weight;
    the expected spread is sum over subsets of P(subset) * |reachable|.
    Mask j has edge e live when bit e of j is set.  Guarded to m <= 25.
    """
    if g.m > _MAX_ENUM_EDGES:
        raise ValueError(f"live-edge enumeration is limited to m <= {_MAX_ENUM_EDGES}")
    total = 0.0
    for lo in range(0, 1 << g.m, _ENUM_MASKS):
        masks = np.arange(lo, min(lo + _ENUM_MASKS, 1 << g.m), dtype=np.int64)
        live = (masks[:, None] >> np.arange(g.m)) & 1 == 1
        prob = np.where(live, g.w, 1.0 - g.w).prod(axis=1)
        total += float(prob @ reach_counts(g, live.T, seeds))
    return total


# ---------------------------------------------------------------------------
# References for the sequential helpers in graph, centrality, community and
# hardness: the array kernels those helpers replaced, kept verbatim (scalar
# numpy indexing, a hand-written (distance, node id) heap, preallocated
# scratch arrays).  The helpers must match them bit for bit.
# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------

def girth_bfs(indptr, nbrs):
    """Length of the shortest cycle; 0 when the graph is acyclic.

    BFS from every node; any scanned non-tree edge (x, y) closes a walk of
    length dist[x]+dist[y]+1 through the root, which never undershoots the
    girth, and roots on a shortest cycle realize it exactly.
    """
    n = indptr.shape[0] - 1
    dist = np.empty(n, np.int64)
    parent = np.empty(n, np.int64)
    queue = np.empty(n, np.int64)
    best = 0
    for s in range(n):
        for i in range(n):
            dist[i] = -1
            parent[i] = -1
        dist[s] = 0
        queue[0] = s
        head = 0
        tail = 1
        while head < tail:
            u = queue[head]
            head += 1
            for j in range(indptr[u], indptr[u + 1]):
                v = nbrs[j]
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue[tail] = v
                    tail += 1
                elif v != parent[u]:
                    cand = dist[u] + dist[v] + 1
                    if best == 0 or cand < best:
                        best = cand
        if best == 3:
            break
    return best


# ---------------------------------------------------------------------------
# weighted edge betweenness
# ---------------------------------------------------------------------------

def _heap_push(hdist, hnode, size, d, v):
    i = size
    hdist[i] = d
    hnode[i] = v
    while i > 0:
        p = (i - 1) >> 1
        if hdist[p] > hdist[i] or (hdist[p] == hdist[i] and hnode[p] > hnode[i]):
            hdist[p], hdist[i] = hdist[i], hdist[p]
            hnode[p], hnode[i] = hnode[i], hnode[p]
            i = p
        else:
            break
    return size + 1


def _heap_pop(hdist, hnode, size):
    d = hdist[0]
    v = hnode[0]
    size -= 1
    hdist[0] = hdist[size]
    hnode[0] = hnode[size]
    i = 0
    while True:
        left = 2 * i + 1
        if left >= size:
            break
        small = left
        right = left + 1
        if right < size and (
            hdist[right] < hdist[left]
            or (hdist[right] == hdist[left] and hnode[right] < hnode[left])
        ):
            small = right
        if hdist[small] < hdist[i] or (hdist[small] == hdist[i] and hnode[small] < hnode[i]):
            hdist[i], hdist[small] = hdist[small], hdist[i]
            hnode[i], hnode[small] = hnode[small], hnode[i]
            i = small
        else:
            break
    return d, v, size


def _dijkstra_paths(indptr, nbrs, dlen, src, dist, done, sigma, ordseq, ordpos, hdist, hnode):
    """Dijkstra with path counting.  Heap keys are (distance, node id), so
    the finalization order is deterministic even with zero-length edges.
    Returns the number of reached nodes; fills dist/sigma/ordseq/ordpos.
    """
    n = dist.shape[0]
    for i in range(n):
        dist[i] = np.inf
        done[i] = 0
        sigma[i] = 0.0
        ordpos[i] = -1
    dist[src] = 0.0
    sigma[src] = 1.0
    size = _heap_push(hdist, hnode, 0, 0.0, src)
    cnt = 0
    while size > 0:
        d, v, size = _heap_pop(hdist, hnode, size)
        if done[v] == 1:
            continue
        done[v] = 1
        ordseq[cnt] = v
        ordpos[v] = cnt
        cnt += 1
        for j in range(indptr[v], indptr[v + 1]):
            w = nbrs[j]
            if done[w] == 1:
                continue
            nd = d + dlen[j]
            if nd < dist[w]:
                dist[w] = nd
                sigma[w] = sigma[v]
                size = _heap_push(hdist, hnode, size, nd, w)
            elif nd == dist[w]:
                sigma[w] += sigma[v]
    return cnt


def edge_betweenness_weighted(indptr, nbrs, dlen, adj_eid, m):
    """Brandes edge betweenness with nonnegative edge lengths.

    Predecessor test combines exact distance equality with finalization
    order, which keeps the shortest-path DAG acyclic when zero-length
    edges are present.
    """
    n = indptr.shape[0] - 1
    m2 = nbrs.shape[0]
    bc = np.zeros(m, np.float64)
    dist = np.empty(n, np.float64)
    done = np.empty(n, np.uint8)
    sigma = np.empty(n, np.float64)
    delta = np.empty(n, np.float64)
    ordseq = np.empty(n, np.int64)
    ordpos = np.empty(n, np.int64)
    cap = n + m2 + 1
    hdist = np.empty(cap, np.float64)
    hnode = np.empty(cap, np.int64)
    for s in range(n):
        cnt = _dijkstra_paths(indptr, nbrs, dlen, s, dist, done, sigma, ordseq, ordpos, hdist, hnode)
        for i in range(n):
            delta[i] = 0.0
        for idx in range(cnt - 1, -1, -1):
            w = ordseq[idx]
            coef = (1.0 + delta[w]) / sigma[w]
            pw = ordpos[w]
            for j in range(indptr[w], indptr[w + 1]):
                v = nbrs[j]
                if ordpos[v] >= 0 and ordpos[v] < pw and dist[v] + dlen[j] == dist[w]:
                    c = sigma[v] * coef
                    bc[adj_eid[j]] += c
                    delta[v] += c
    for e in range(m):
        bc[e] *= 0.5
    return bc


# ---------------------------------------------------------------------------
# Louvain local moving
# ---------------------------------------------------------------------------

def louvain_local_pass(indptr, nbrs, w, node_k, comm, comm_tot, order, gamma, two_m):
    """One pass of greedy community moves in the given node order.

    Gains are compared as  w(v, c) - gamma * tot_c * k_v / two_m  (shared
    terms dropped); a move needs a strictly positive improvement.  Returns
    the number of moves.
    """
    n = order.shape[0]
    wtc = np.zeros(n, np.float64)
    touched = np.zeros(n, np.uint8)
    tlist = np.empty(n, np.int64)
    moves = 0
    for oi in range(n):
        v = order[oi]
        cv = comm[v]
        kv = node_k[v]
        ncnt = 0
        for j in range(indptr[v], indptr[v + 1]):
            c = comm[nbrs[j]]
            if touched[c] == 0:
                touched[c] = 1
                tlist[ncnt] = c
                ncnt += 1
            wtc[c] += w[j]
        comm_tot[cv] -= kv
        best = wtc[cv] - gamma * comm_tot[cv] * kv / two_m
        bc = cv
        for t in range(ncnt):
            c = tlist[t]
            if c == cv:
                continue
            gain = wtc[c] - gamma * comm_tot[c] * kv / two_m
            if gain > best + 1e-12:
                best = gain
                bc = c
        comm_tot[bc] += kv
        if bc != cv:
            comm[v] = bc
            moves += 1
        for t in range(ncnt):
            c = tlist[t]
            wtc[c] = 0.0
            touched[c] = 0
    return moves


# ---------------------------------------------------------------------------
# exhaustive densest-subgraph search (small instances)
# ---------------------------------------------------------------------------

def best_k_subgraph(adj_bits, n, k):
    """Max induced edge count over k-node subsets, with the first
    lexicographic maximizer.  adj_bits[v] holds v's neighborhood bitmask."""
    comb = np.empty(k, np.int64)
    for i in range(k):
        comb[i] = i
    best = -1
    best_comb = np.empty(k, np.int64)
    while True:
        count = 0
        for a in range(k):
            va = comb[a]
            bits = adj_bits[va]
            for b in range(a + 1, k):
                count += (bits >> comb[b]) & 1
        if count > best:
            best = count
            for i in range(k):
                best_comb[i] = comb[i]
        i = k - 1
        while i >= 0 and comb[i] == n - k + i:
            i -= 1
        if i < 0:
            break
        comb[i] += 1
        for j in range(i + 1, k):
            comb[j] = comb[j - 1] + 1
    return best, best_comb


def louvain_moving_reference(indptr, nbrs, w, node_k, order, gamma, two_m):
    """``louvain_local_pass`` from singletons until a pass moves nothing:
    the local moving of ``louvain_partition_reference``."""
    comm = np.arange(node_k.shape[0], dtype=np.int64)
    comm_tot = node_k.copy()
    while louvain_local_pass(indptr, nbrs, w, node_k, comm, comm_tot,
                             np.asarray(order, dtype=np.int64), gamma, two_m):
        pass
    return comm


def _dense_relabel(labels):
    """Relabel community ids densely by first occurrence in node order."""
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inv]


def _aggregate_edges(labels, eu, ev, w, loops):
    """Edge arrays of the community graph: inter-community weights summed
    per community pair, intra-community weight folded into self-loops."""
    nc = int(labels.max()) + 1
    cu = labels[eu]
    cv = labels[ev]
    new_loops = np.zeros(nc)
    np.add.at(new_loops, labels, loops)
    same = cu == cv
    np.add.at(new_loops, cu[same], w[same])
    keys = np.minimum(cu[~same], cv[~same]) * nc + np.maximum(cu[~same], cv[~same])
    uniq, inv = np.unique(keys, return_inverse=True)
    new_w = np.zeros(uniq.size)
    np.add.at(new_w, inv, w[~same])
    return uniq // nc, uniq % nc, new_w, new_loops


def louvain_partition_reference(g, resolution, rng):
    """The labels of ``community.louvain_partition`` from edge arrays: each
    level a fresh CSR over its edge list, ``louvain_moving_reference`` for
    local moving, and aggregation into edge arrays with self-loops.  ``rng``
    is a numpy Generator."""
    from edgeblock.graph import csr_index

    if g.m == 0:
        return np.arange(g.n, dtype=np.int64)
    eu = g.eu.astype(np.int64)
    ev = g.ev.astype(np.int64)
    w = np.ones(g.m)
    loops = np.zeros(g.n)
    mapping = np.arange(g.n, dtype=np.int64)
    size = g.n
    while True:
        indptr, nbrs, slot = csr_index(size, np.concatenate([eu, ev]), np.concatenate([ev, eu]))
        node_k = np.zeros(size)
        np.add.at(node_k, eu, w)
        np.add.at(node_k, ev, w)
        node_k += 2.0 * loops
        two_m = float(node_k.sum())
        order = rng.permutation(size)
        labels = _dense_relabel(louvain_moving_reference(
            indptr, nbrs, w[slot % w.size], node_k, order, float(resolution), two_m))
        ncomm = int(labels.max()) + 1
        mapping = labels[mapping]
        if ncomm == size:
            break
        eu, ev, w, loops = _aggregate_edges(labels, eu, ev, w, loops)
        size = ncomm
        if size == 1:
            break
    return _dense_relabel(mapping)


def resolution_sweep_reference(g, params, master_seed):
    """One budget's resolution sweep, run by run: ``(trace, ids)``.

    ``h2`` fresh Louvain runs per step, each building its own level 0; the
    first largest cut within the budget kept; a stop once more than ``h1``
    steps end on a run that cuts more than the budget, or at a non-finite
    resolution.  ``trace`` is each run's ``(resolution, cut size)``; a
    budget of m or more walks nothing and takes every edge."""
    from edgeblock.community import inter_community_edges, louvain_partition
    from edgeblock.seeding import rng_for

    k = params.budget
    if k >= g.m:
        return [], np.arange(g.m, dtype=np.int64)
    trace, best = [], np.zeros(0, dtype=np.int64)
    overflows, outer, r = 0, 0, params.resolution
    while overflows <= params.h1 and math.isfinite(r):
        for inner in range(params.h2):
            cut = inter_community_edges(g, louvain_partition(g, r, rng_for(master_seed, outer, inner)))
            trace.append((r, cut.size))
            if best.size < cut.size <= k:
                best = cut
        overflows += cut.size > k
        outer += 1
        r *= params.factor
    return trace, best


def densest_reference(h, k):
    """``best_k_subgraph`` on h's int64 neighborhood bitmasks."""
    adj_bits = np.zeros(h.n, dtype=np.int64)
    for e in range(h.m):
        adj_bits[h.eu[e]] |= 1 << int(h.ev[e])
        adj_bits[h.ev[e]] |= 1 << int(h.eu[e])
    value, comb = best_k_subgraph(adj_bits, h.n, k)
    return int(value), tuple(int(v) for v in comb)
