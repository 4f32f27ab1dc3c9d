"""Sequential numeric kernels over CSR graph arrays.

What remains here is work whose steps each depend on the one before:
girth (a BFS per root that stops at the first triangle, cheaper per call
on the hardness lab's tiny graphs than any array setup), weighted edge
betweenness (its (distance, node id) heap order picks the predecessors
across zero-length edges), Louvain local moving (each move changes the
next gains) and the lexicographic densest-subgraph enumeration.
Distances, unweighted betweenness and common neighbors run on
``scipy.sparse`` in ``graph`` and ``centrality``; cascades run on the
live-edge primitive in ``cascade``.  Nothing here draws random numbers.

Every function is nopython-compatible and decorated with ``maybe_jit``;
with ``EDGEBLOCK_NO_NUMBA=1`` the same code runs as plain Python.  Kernels
take flat arrays only and allocate their own scratch space, so a shared
read-only graph can be used from many threads (kernels are compiled nogil).
"""

import numpy as np

from ._accel import maybe_jit


# ---------------------------------------------------------------------------
# girth
# ---------------------------------------------------------------------------

@maybe_jit
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

@maybe_jit
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


@maybe_jit
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


@maybe_jit
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


@maybe_jit
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

@maybe_jit
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

@maybe_jit
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
