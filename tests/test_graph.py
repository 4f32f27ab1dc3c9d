import gzip
import io
import math
import re

import numpy as np
import pytest

from edgeblock import graph as graph_mod
from edgeblock.centrality import edge_betweenness, node_closeness
from edgeblock.generators import gnm_random_graph, with_random_weights
from edgeblock.graph import (
    ParseError,
    assign_jaccard_weights,
    from_edge_arrays,
    girth,
    graph_stats,
    parse_edge_list,
    row_blocks,
    write_edge_list,
)
from oracle_utils import (
    brute_diameter,
    brute_edge_betweenness,
    brute_girth,
    brute_triangles,
    edge_tuple,
    remove_edges,
    same_structure,
)

K3 = from_edge_arrays(3, [0, 0, 1], [1, 2, 2])
P3 = from_edge_arrays(3, [0, 1], [1, 2])


def test_parse_two_edge_path():
    g = parse_edge_list(b"0 1\n1 2")
    assert (g.n, g.m) == (3, 2)
    g = parse_edge_list(b"\n0 1\n  \n\t\n1 2\n\n")     # blank lines are skipped
    assert (g.n, g.m, g.labels) == (3, 2, (0, 1, 2))


def test_parse_dedup_and_self_loop(caplog):
    with caplog.at_level("INFO", logger="edgeblock.graph"):
        g = parse_edge_list(b"0 1\n1 0\n0 0")
    assert (g.n, g.m) == (2, 1)
    assert "dropped 1 self-loop(s) and 1 duplicate edge(s)" in caplog.text
    # a repeated pair keeps the weight of its first listing
    g = parse_edge_list(b"2 1 0.5\n0 1 0.25\n1 0 0.75\n1 2 1.0\n")
    assert g.w.tolist() == [0.5, 0.25]


def test_parse_comments_and_string_labels():
    g = parse_edge_list(b"# header\n% other\nalice bob\nbob carol\n")
    assert (g.n, g.m) == (3, 2)
    assert g.labels == ("alice", "bob", "carol")
    # only a canonically written integer becomes an int label, so 05 and 5
    # stay two nodes, through a write and a re-parse too
    g = parse_edge_list(b"05 1\n5 2\n--5 +5\n-0 -7\n")
    assert g.labels == ("05", 1, 5, 2, "--5", "+5", "-0", -7)
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = parse_edge_list(buf.getvalue().encode())
    assert (g2.n, g2.m, g2.labels) == (g.n, g.m, g.labels)


def test_parse_weight_column():
    g = parse_edge_list(b"0 1 0.25\n1 2 1.0\n")
    assert g.w.tolist() == [0.25, 1.0]


def test_parse_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list(b"0 1\n0 1 2 3\n")
    with pytest.raises(ParseError):
        parse_edge_list(b"")
    with pytest.raises(ParseError):
        parse_edge_list(b"# only comments\n")
    with pytest.raises(ParseError, match="weight"):
        parse_edge_list(b"0 1 2.5\n")
    with pytest.raises(ParseError, match="line 2: bad weight 'x'"):
        parse_edge_list(b"0 1\n1 2 x\n")
    with pytest.raises(TypeError):
        parse_edge_list(io.StringIO("0 1\n"))      # a path, a .gz path or bytes only
    # a node written first on a line would re-parse as a comment
    for text, line in ((b"1 #a\n2 #a\n2 3\n", 1), (b"0 1\n1 %b 0.5\n", 2)):
        with pytest.raises(ParseError, match=f"line {line}: node .* comment"):
            parse_edge_list(text)


def test_parse_gzip(tmp_path):
    p = tmp_path / "g.txt.gz"
    with gzip.open(p, "wt") as fh:
        fh.write("0 1\n1 2\n")
    g = parse_edge_list(p)
    assert (g.n, g.m) == (3, 2)


def test_roundtrip_serialization():
    g = with_random_weights(gnm_random_graph(12, 25, 5), 6)
    buf = io.StringIO()
    write_edge_list(g, buf)
    g2 = parse_edge_list(buf.getvalue().encode())
    assert g2.n == g.n and g2.m == g.m
    # same labeled weighted edge set, exactly
    def triples(h):
        return sorted(
            (min(h.label_of(int(h.eu[e])), h.label_of(int(h.ev[e]))),
             max(h.label_of(int(h.eu[e])), h.label_of(int(h.ev[e]))),
             float(h.w[e]))
            for e in range(h.m)
        )
    assert triples(g2) == triples(g)


@pytest.mark.parametrize("labels, bad", [
    (["#x", "a b", "c"], "#x"),     # would read as a comment, and as three fields
    (["a", "b c", "d"], "b c"), (["a", "%b", "c"], "%b"), (["a", "", "c"], ""),
    (["a", "b\tc", "d"], "b\tc"),
    (["a", "b", "a"], "a"),         # two nodes, one token
    (["a", "5", "c"], "5"), (["a", 5.0, "c"], 5.0), (["a", True, "c"], True),
    (["a", None, "c"], None),
])
def test_write_rejects_labels_that_do_not_parse_back(tmp_path, labels, bad):
    g = from_edge_arrays(3, [0, 1], [1, 2], labels=labels)
    buf = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(f"label {bad!r} would not parse back")):
        write_edge_list(g, buf)
    assert buf.getvalue() == ""
    with pytest.raises(ValueError):
        write_edge_list(g, tmp_path / "g.txt")
    assert not (tmp_path / "g.txt").exists()


def test_write_round_trips_mixed_labels():
    g = from_edge_arrays(3, [0, 1], [1, 2], labels=[5, "05", "x"])
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert parse_edge_list(buf.getvalue().encode()).labels == g.labels == (5, "05", "x")


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edge_arrays(3, [0], [0])          # self-loop
    with pytest.raises(ValueError):
        from_edge_arrays(3, [0, 1], [1, 0])    # duplicate (reversed)
    with pytest.raises(ValueError):
        from_edge_arrays(2, [0], [5])          # out of range
    with pytest.raises(ValueError, match="endpoint out of range"):
        from_edge_arrays(3, [1], [-1])         # negative v endpoint
    for eu, ev in (([0.9, 1.7], [1.2, 2.0]), ([True], [2])):
        with pytest.raises(ValueError):
            from_edge_arrays(3, eu, ev)        # float or bool endpoints, never truncated
    with pytest.raises(ValueError, match="differ in length"):
        from_edge_arrays(3, [0, 1], [1])
    with pytest.raises(ValueError):
        from_edge_arrays(2, [0], [1], [0.0])   # weight 0
    with pytest.raises(ValueError):
        from_edge_arrays(2, [0], [1], [1.5])   # weight > 1


def test_nan_weights_rejected():
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        from_edge_arrays(3, [0, 1], [1, 2], [math.nan, 0.5])
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        P3.with_weights([math.nan, 1.0])
    # bool and string weights are not read as numbers
    for bad in ([True, True], ["0.5", "0.5"], [True, "0.5"]):
        with pytest.raises(ValueError, match="int or float weight"):
            from_edge_arrays(3, [0, 1], [1, 2], bad)
        with pytest.raises(ValueError, match="int or float weight"):
            P3.with_weights(bad)


def test_with_weights_shares_structure():
    g = gnm_random_graph(12, 30, 4)
    w = np.linspace(0.1, 1.0, g.m)
    h = g.with_weights(w)
    for name in ("indptr", "nbrs", "adj_eid", "eu", "ev"):
        assert getattr(h, name) is getattr(g, name)
    assert h.labels == g.labels and not h.w.flags.writeable
    w[0] = 0.5                                 # the graph holds its own copy
    assert h.w[0] == 0.1
    rebuilt = from_edge_arrays(g.n, g.eu, g.ev, h.w, g.labels)
    assert same_structure(h, rebuilt)
    for name in ("indptr", "nbrs", "adj_eid"):
        assert np.array_equal(getattr(h, name), getattr(rebuilt, name))
    with pytest.raises(ValueError):
        g.with_weights(w[:-1])


def test_arrays_read_only():
    with pytest.raises(ValueError):
        K3.w[0] = 0.5


def test_jaccard_trivials():
    assert assign_jaccard_weights(K3).w.tolist() == [1.0, 1.0, 1.0]
    assert np.allclose(assign_jaccard_weights(P3).w, [2 / 3, 2 / 3])
    lone = from_edge_arrays(2, [0], [1])
    assert assign_jaccard_weights(lone).w.tolist() == [1.0]


def test_jaccard_bounds_random():
    for seed in range(8):
        g = gnm_random_graph(14, 30, seed)
        w = assign_jaccard_weights(g).w
        assert np.all(w > 0.0) and np.all(w <= 1.0)


def test_jaccard_matches_definition_random():
    g = gnm_random_graph(10, 20, 3)
    gw = assign_jaccard_weights(g)
    nbr = [set(g.nbrs[g.indptr[v]:g.indptr[v + 1]].tolist()) for v in range(g.n)]
    for e in range(g.m):
        u, v, w = edge_tuple(gw, e)
        closed_u = nbr[u] | {u}
        closed_v = nbr[v] | {v}
        expect = len(closed_u & closed_v) / len(nbr[u] | nbr[v])
        assert w == pytest.approx(expect, abs=1e-15)


def _sparse_with_isolated(n, seed):
    """Random graph on n nodes, every fifth node (id % 5 == 2) isolated,
    consecutive non-isolated nodes always joined; its edge pairs too."""
    rng = np.random.default_rng(seed)
    live = [v for v in range(n) if v % 5 != 2]
    pairs = [(u, v) for i, u in enumerate(live) for v in live[i + 1:]
             if v == live[i + 1] or rng.random() < 0.2]
    eu, ev = zip(*pairs) if pairs else ((), ())
    return from_edge_arrays(n, eu, ev), pairs


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_common_neighbors_match_set_intersection(n, monkeypatch):
    # n around the 64-bit word edges, with isolated nodes between live ones
    g, pairs = _sparse_with_isolated(n, n)
    nbr = [set() for _ in range(n)]
    for u, v in pairs:
        nbr[u].add(v)
        nbr[v].add(u)
    want = [len(nbr[u] & nbr[v]) for u, v in zip(g.eu.tolist(), g.ev.tolist())]
    got = graph_mod._common_neighbors(g)
    assert got.dtype == np.int64 and got.tolist() == want
    words = (n + 63) // 64
    # edge blocks of 3 edges split the edge list mid-graph
    monkeypatch.setattr(graph_mod, "_BLOCK_ELEMENTS", 3 * words)
    assert g.m < 4 or len(list(row_blocks(g.m, words))) > 2
    assert graph_mod._common_neighbors(g).tolist() == want


def test_jaccard_requires_edges():
    with pytest.raises(ValueError):
        assign_jaccard_weights(from_edge_arrays(3, [], []))


def test_stats_trivials():
    s = graph_stats(K3)
    assert (s.n, s.m, s.d_avg, s.d_max) == (3, 3, 2.0, 2)
    assert (s.diameter, s.k_avg, s.triangles) == (1, 1.0, 1)
    s = graph_stats(P3)
    assert (s.diameter, s.k_avg, s.triangles) == (2, 0.0, 0)
    assert s.d_avg == pytest.approx(4 / 3)


def test_stats_disconnected_flag():
    g = from_edge_arrays(5, [0, 3], [1, 4])
    s = graph_stats(g)
    assert not s.connected
    assert s.diameter == 1  # largest component has 2 nodes


def test_triangles_match_bruteforce():
    for seed, (n, m) in enumerate([(10, 20), (20, 60), (50, 200), (30, 29)]):
        g = gnm_random_graph(n, m, seed)
        assert graph_stats(g).triangles == brute_triangles(g)


def _blocked_layers(g):
    jac = assign_jaccard_weights(g)
    return (jac.w.tolist(), graph_stats(g), node_closeness(g).tolist(),
            node_closeness(jac, weighted=True).tolist(),
            edge_betweenness(jac, weighted=True).tobytes())


def test_results_independent_of_block_size(monkeypatch):
    sparse = [gnm_random_graph(10, 9 + s % 3, s + 40) for s in range(8)]   # mostly split
    dense = [gnm_random_graph(10, 22, s + 40) for s in range(3)]           # many triangles
    # the largest component (a star) is not the one with the longest path
    star_and_path = from_edge_arrays(10, [0, 0, 0, 0, 0, 6, 7, 8], [1, 2, 3, 4, 5, 7, 8, 9])
    assert brute_diameter(star_and_path) == (2, False)
    split = 0
    for g in sparse + dense + [star_and_path]:
        whole = _blocked_layers(g)
        with monkeypatch.context() as patch:
            patch.setattr(graph_mod, "_BLOCK_ELEMENTS", 2 * max(g.n, g.m))
            # distance sources and Brandes batches (common-neighbor edge
            # blocks split in test_common_neighbors_match_set_intersection)
            assert len(list(row_blocks(g.n, g.n))) > 2
            assert len(list(row_blocks(g.n, max(g.n, g.m)))) > 2
            assert _blocked_layers(g) == whole
            assert np.allclose(edge_betweenness(g), brute_edge_betweenness(g),
                               rtol=0.0, atol=1e-9)
            s = graph_stats(g)
        assert s.triangles == brute_triangles(g)
        assert (s.diameter, s.connected) == brute_diameter(g)
        split += not s.connected
    assert split >= 7


def test_davg_exact_relation():
    for seed in range(5):
        g = gnm_random_graph(17, 40, seed + 50)
        s = graph_stats(g)
        assert s.d_avg == 2 * s.m / s.n


def test_girth_trivials():
    assert girth(K3) == 3
    c5 = from_edge_arrays(5, [0, 1, 2, 3, 0], [1, 2, 3, 4, 4])
    assert girth(c5) == 5
    tree = from_edge_arrays(5, [0, 0, 1, 1], [1, 2, 3, 4])
    assert girth(tree) == math.inf


def test_girth_matches_bruteforce():
    for seed in range(30):
        n = 4 + seed % 9
        m = min(n * (n - 1) // 2, 3 + seed % 12)
        g = gnm_random_graph(n, m, seed + 100)
        assert girth(g) == brute_girth(g)


def test_remove_edges_basics():
    g2 = remove_edges(P3, [1])
    assert g2.n == 3 and g2.m == 1
    assert (g2.eu[0], g2.ev[0]) == (0, 1)
    assert same_structure(remove_edges(P3, []), P3)
    assert same_structure(remove_edges(P3, ()), P3)
    assert remove_edges(P3, [0, 1]).m == 0
    assert remove_edges(P3, [0, 1]).n == 3
    for bad in ([7], [0.9], [True], np.array([1.0])):
        with pytest.raises(ValueError):
            remove_edges(P3, bad)
    # original untouched
    assert P3.m == 2


def test_remove_edges_composition():
    g = with_random_weights(gnm_random_graph(12, 26, 8), 8)
    joint = remove_edges(g, [0, 5, 9, 2, 11])
    step1 = remove_edges(g, [0, 5, 9])
    # ids stay canonical: edge 2 is now id 1 and edge 11 is id 8
    assert [edge_tuple(step1, e) for e in (1, 8)] == [edge_tuple(g, e) for e in (2, 11)]
    step2 = remove_edges(step1, [1, 8])
    assert same_structure(joint, step2)


def test_adjacency_consistent_with_edges():
    g = with_random_weights(gnm_random_graph(15, 40, 2), 2)
    seen = set()
    for v in range(g.n):
        for j in range(g.indptr[v], g.indptr[v + 1]):
            u = int(g.nbrs[j])
            e = int(g.adj_eid[j])
            assert {int(g.eu[e]), int(g.ev[e])} == {u, v}
            assert g.w[g.adj_eid[j]] == g.w[e]
            seen.add(e)
    assert seen == set(range(g.m))
