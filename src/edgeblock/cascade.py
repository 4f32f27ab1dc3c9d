"""Independent cascade dynamics and spread estimation.

Node states: white (has not heard), red (heard, will spread once), orange
(heard, done spreading).  In each synchronous round a white node v with red
neighbors turns red with probability 1 - prod(1 - w(v, v')) over its red
neighbors, every red node turns orange, and orange is absorbing.  The
process runs to quiescence (no red nodes), at most n+1 rounds.

Each edge is attempted at most once, so the final orange set has the same
distribution as the set reachable from the seeds over edges that are each
live, independently, with probability equal to their weight (the live-edge
view of Kempe, Kleinberg & Tardos, KDD 2003); a node turns red in the round
equal to its live hop distance from the seeds.  Every spread computation
here is therefore one primitive, :func:`reach_counts`: reachability over a
batch of live-edge masks, bool[m, masks], that only it packs to bits:
64 masks to a uint64 word, each edge's and node's row padded to whole
words, with the lanes past ``masks`` dropped from the counts.

Monte Carlo replicate r is row r of an R x m block of uniforms drawn from
``rng_for(master_seed)``, one per canonical edge id; edge e is live when
U[r, e] < w(e) and e is not blocked.  A row depends on neither the
replicate count nor the chunking, and estimates on one stream with and
without blocking are coupled pathwise: blocking never raises a replicate's
spread.  Exact expectations need no other primitive: with unit weights
the spread is one all-live mask, and on a tiny graph it is the sum over
all 2^m masks weighted by their probability, which is how the test
suite's exact oracles compute it.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import Graph, checked_count, checked_ids, checked_real, csr_index
from .seeding import as_rng, rng_for

# edge states per chunk of masks (rows x max(m, n)); bounds memory only,
# since no result depends on where the chunks split
_CHUNK_ELEMENTS = 1 << 20


def _in_arcs(g: Graph, arcs=None):
    """Arcs grouped by head, ``(indptr, tails, edge ids)``: the arcs into
    node v are ``indptr[v]:indptr[v + 1]``, sorted by tail.  Every edge
    conducts both ways when ``arcs`` is None (g's own CSR, whose row v
    lists the arcs into v); otherwise edge e is the single arc
    ``arcs[e, 0] -> arcs[e, 1]``."""
    if arcs is None:
        return g.indptr, g.nbrs, g.adj_eid
    if np.shape(arcs) != (g.m, 2):
        raise ValueError("arcs must hold one (tail, head) pair per edge")
    arcs = checked_ids(arcs, g.n, "arc endpoint").reshape(g.m, 2)
    if not np.array_equal(np.sort(arcs, axis=1), np.stack([g.eu, g.ev], axis=1)):
        raise ValueError("arcs must orient the graph's own edges, in edge-id order")
    return csr_index(g.n, arcs[:, 1], arcs[:, 0])


def reach_counts(g: Graph, live: np.ndarray, seeds, arcs=None) -> np.ndarray:
    """int64[masks]: the node count each live-edge mask reaches from ``seeds``.

    ``live`` is bool[m, masks]: edge e is live in mask j when
    ``live[e, j]``.  Every edge conducts both ways; with ``arcs``
    (int64[m, 2]) edge e conducts only from ``arcs[e, 0]`` to
    ``arcs[e, 1]``.  ValueError unless ``live`` is 2-D with exactly m rows,
    and on a seed or arc endpoint that is not an integer in [0, n)
    (:func:`~edgeblock.graph.checked_ids`).

    Each edge's masks are packed as by ``np.packbits``, zero-padded to
    whole 8-byte words and viewed as uint64, 64 masks per word.  Reach is
    uint64[n, ceil(masks / 64)] in the same layout (mask j's bit of row v
    set when mask j reaches v), the seed rows all ones, padding lanes
    included.  A sweep ORs ``reach[tail] & live[arc]`` into
    ``reach[head]`` for all arcs at once, so sweep t adds the nodes t live
    hops from the seeds (round t of the module docstring); sweeps run
    until one adds nothing.  The counts unpack reach through its uint8
    view with ``count=masks``, so the lanes past ``masks`` are dropped.
    """
    live = np.asarray(live)
    if live.ndim != 2 or live.shape[0] != g.m:
        raise ValueError("live must hold one row of masks per edge")
    indptr, tails, eid = _in_arcs(g, arcs)
    masks = live.shape[1]
    packed = np.zeros((g.m, -(-masks // 64) * 8), dtype=np.uint8)
    packed[:, :(masks + 7) // 8] = np.packbits(live, axis=1)
    bits = packed.view(np.uint64)[eid]
    targets = np.flatnonzero(np.diff(indptr))
    starts = indptr[targets]
    reach = np.zeros((g.n, bits.shape[1]), dtype=np.uint64)
    reach[checked_ids(seeds, g.n, "seed node")] = ~np.uint64(0)
    while targets.size:
        cur = reach[targets]
        grown = np.bitwise_or.reduceat(reach[tails] & bits, starts, axis=0) | cur
        if np.array_equal(grown, cur):
            break
        reach[targets] = grown
    return np.unpackbits(reach.view(np.uint8), axis=1, count=masks).sum(axis=0, dtype=np.int64)


def is_connected(g: Graph) -> bool:
    """Whether g has at most one connected component: n <= 1, or node 0
    reaches all n nodes with every edge live."""
    return g.n <= 1 or int(reach_counts(g, np.ones((g.m, 1), dtype=bool), [0])[0]) == g.n


def _chunk_rows(g: Graph) -> int:
    return max(1, _CHUNK_ELEMENTS // max(g.m, g.n, 1))


def estimate_spread(g: Graph, seeds, samples: int, master_seed: int, blocked=()):
    """(mean, standard error) of :func:`estimate_spreads` for one blocked set."""
    means, errors = estimate_spreads(g, seeds, samples, master_seed, [blocked])
    return means[0], errors[0]


def estimate_spreads(g: Graph, seeds, samples: int, master_seed: int, blocked_sets):
    """Monte Carlo estimates of the expected final orange count, one per
    blocked set, as lists (means, standard errors).

    Replicate rows are drawn once from ``rng_for(master_seed)`` (see the
    module docstring) and masked once per set, with the set's edge ids
    forced dead; so estimates on one ``master_seed`` share their uniforms
    (common random numbers), and blocking more edges never raises any
    replicate's spread.  Each chunk of at most ``_CHUNK_ELEMENTS`` edge
    states, split over rows and sets, takes one :func:`reach_counts` call.
    ValueError on a seed that is not an integer in [0, n), a blocked id
    that is not one in [0, m), or ``samples`` that is not an integer >= 1
    (a float or bool count included).
    """
    samples = checked_count(samples, 1, math.inf, "samples")
    seeds = checked_ids(seeds, g.n, "seed node")
    sets = [checked_ids(b, g.m, "edge id") for b in blocked_sets]
    sums = [[0, 0] for _ in sets]     # per set: sum of counts, of squared counts
    rng = rng_for(master_seed)
    step = min(samples, _chunk_rows(g))
    per = max(1, _chunk_rows(g) // step)     # sets per chunk
    for done in range(0, samples, step):
        base = (rng.random((min(step, samples - done), g.m)) < g.w).T
        for lo in range(0, len(sets), per):
            chunk = sets[lo:lo + per]
            live = np.repeat(base[:, None], len(chunk), axis=1)    # [edge, set, row]
            live[np.concatenate(chunk),
                 np.repeat(np.arange(len(chunk)), [ids.size for ids in chunk])] = False
            counts = reach_counts(g, live.reshape(g.m, live.shape[1] * live.shape[2]),
                                  seeds).reshape(len(chunk), -1)
            for acc, c in zip(sums[lo:lo + per], counts):
                acc[0] += int(c.sum())
                acc[1] += int(c @ c)
    means = [t / samples for t, _ in sums]
    if samples == 1:
        return means, [0.0] * len(sets)
    var = [(q - t * t / samples) / (samples - 1) for t, q in sums]
    return means, [math.sqrt(max(v, 0.0) / samples) for v in var]


def sample_seed_set(g: Graph, fraction: float, rng) -> np.ndarray:
    """Uniform seed set of size max(1, round(fraction * n)): sorted int64 node ids;
    ValueError unless ``fraction`` is a number in (0, 1], not a bool or a string."""
    fraction = checked_real(fraction, 0, 1, "fraction")
    rng = as_rng(rng)
    size = min(max(1, round(fraction * g.n)), g.n)
    return np.sort(rng.choice(g.n, size=size, replace=False))
