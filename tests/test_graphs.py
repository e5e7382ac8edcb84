import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from intcyclic import (
    Graph,
    GraphError,
    all_trees_up_to,
    enumerate_trees,
    make_complete,
    make_complete_bipartite,
    make_complete_tripartite,
    make_cycle,
    make_gdn,
    make_hub_tree,
    make_hypercube,
    make_kstar,
    make_path,
    make_tree_hat,
    metrics,
)
from intcyclic import graphs, solver
from intcyclic.graphs import is_tree, leaves

import oracles


def all_generated():
    gs = [make_cycle(n) for n in range(3, 9)]
    gs += [make_path(m) for m in range(2, 9)]
    gs += [make_complete(n) for n in range(1, 8)]
    gs += [make_complete_bipartite(m, n) for m in range(1, 5) for n in range(1, 5)]
    gs += [make_complete_tripartite(1, 1, 3), make_complete_tripartite(2, 2, 2)]
    gs += [make_hypercube(n) for n in range(1, 5)]
    gs += [make_gdn(d, n) for d in range(2, 5) for n in range(3, 6)]
    gs += [make_kstar(1, 1), make_kstar(2, 11)]
    gs += [make_hub_tree(3, 2)]
    return gs


class TestGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 2),))

    def test_rejects_bad_labels(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 1),), labels=("a",))

    def test_edges_sorted_canonically(self):
        g = Graph(4, ((2, 3), (1, 0), (3, 1)))
        assert g.edges == ((0, 1), (1, 3), (2, 3))

    @pytest.mark.parametrize("g", all_generated())
    def test_handshake(self, g):
        assert sum(g.degrees) == 2 * g.edge_count


class TestGenerators:
    def test_cycle_small(self):
        g = make_cycle(3)
        assert g.edge_count == 3 and metrics(g).max_degree == 2

    def test_cycle_odd_facts(self):
        m = metrics(make_cycle(5))
        assert m.edge_count == 5 and m.is_eulerian and not m.is_bipartite

    def test_cycle_even_facts(self):
        m = metrics(make_cycle(6))
        assert m.is_bipartite and m.diameter == 3

    def test_cycle_rejects_small(self):
        with pytest.raises(GraphError):
            make_cycle(2)

    def test_path(self):
        assert make_path(2).edge_count == 1
        m = metrics(make_path(5))
        assert m.edge_count == 4 and m.max_degree == 2 and m.diameter == 4
        assert make_path(3).degrees == (1, 2, 1)
        with pytest.raises(GraphError):
            make_path(1)

    def test_complete(self):
        g = make_complete(4)
        assert g.edge_count == 6 and set(g.degrees) == {3}
        m = metrics(make_complete(7))
        assert m.edge_count == 21 and m.is_eulerian
        assert make_complete(1).edge_count == 0

    def test_complete_bipartite(self):
        assert metrics(make_complete_bipartite(1, 3)).max_degree == 3
        g = make_complete_bipartite(2, 2)
        assert g.edge_count == 4 and set(g.degrees) == {2}  # a 4-cycle
        m = metrics(make_complete_bipartite(3, 4))
        assert m.edge_count == 12 and m.diameter == 2

    def test_complete_tripartite(self):
        g = make_complete_tripartite(1, 1, 1)
        assert g.edges == make_complete(3).edges
        g = make_complete_tripartite(1, 1, 3)
        assert g.vertex_count == 5 and g.edge_count == 7
        assert all(d % 2 == 0 for d in g.degrees)
        g = make_complete_tripartite(2, 2, 2)
        assert g.edge_count == 12 and set(g.degrees) == {4}

    def test_hypercube(self):
        g = make_hypercube(2)
        assert g.edge_count == 4 and set(g.degrees) == {2}
        m = metrics(make_hypercube(3))
        assert m.edge_count == 12 and m.diameter == 3
        g = make_hypercube(4)
        assert g.edge_count == 32 and set(g.degrees) == {4}

    def test_hypercube_labels_little_endian(self):
        g = make_hypercube(3)
        assert g.labels[1] == "100"  # vertex 1 = bit 0 set = first character
        assert g.labels[4] == "001"

    def test_gdn_degenerate_is_cycle(self):
        g = make_gdn(2, 5)
        c = make_cycle(5)
        assert g.edge_count == c.edge_count
        assert sorted(g.degrees) == sorted(c.degrees)
        assert metrics(g).components == 1

    def test_gdn_counts(self):
        g = make_gdn(3, 4)
        assert g.vertex_count == 8 and g.edge_count == 8
        assert metrics(g).max_degree == 3
        g = make_gdn(4, 3)
        assert metrics(g).max_degree == 4 and g.edge_count == 9

    @pytest.mark.parametrize("d,n", [(3, 4), (4, 5), (5, 3), (3, 8)])
    def test_gdn_diameter(self, d, n):
        assert metrics(make_gdn(d, n)).diameter == n // 2 + 2

    def test_tree_hat_two_leaves(self):
        # both endpoints of a path join the apex, closing a cycle
        g = make_tree_hat(make_path(2))
        assert g.vertex_count == 3 and g.edge_count == 3  # triangle
        g = make_tree_hat(make_path(3))
        assert g.vertex_count == 4 and g.edge_count == 4 and set(g.degrees) == {2}

    def test_tree_hat_star(self):
        g = make_tree_hat(make_complete_bipartite(1, 4))
        assert g.vertex_count == 6
        apex = g.vertex_count - 1
        assert g.degrees[apex] == 4

    def test_tree_hat_hub_tree(self):
        hub = make_hub_tree(10, 10)
        assert hub.vertex_count == 111
        g = make_tree_hat(hub)
        assert g.vertex_count == 112 and metrics(g).max_degree == 100

    def test_tree_hat_rejects_non_tree(self):
        with pytest.raises(GraphError):
            make_tree_hat(make_cycle(4))

    def test_kstar(self):
        g = make_kstar(2, 11)
        assert g.vertex_count == 17 and metrics(g).max_degree == 12
        g = make_kstar(2, 12)
        assert g.vertex_count == 18 and metrics(g).max_degree == 13
        assert make_kstar(1, 1).vertex_count == 5

    def test_edge_count_formulas(self):
        assert make_cycle(7).edge_count == 7
        assert make_complete(6).edge_count == 15
        assert make_complete_bipartite(3, 5).edge_count == 15
        assert make_complete_tripartite(2, 3, 4).edge_count == 2 * 3 + 2 * 4 + 3 * 4
        assert make_hypercube(4).edge_count == 4 * 2 ** 3
        assert make_gdn(5, 6).edge_count == 6 * 4


# small instances of every family: the size check must use their exact counts
SIZED = [(make_cycle, (5,)), (make_path, (4,)), (make_complete, (5,)),
         (make_complete_bipartite, (2, 3)), (make_complete_tripartite, (1, 2, 3)),
         (make_hypercube, (3,)), (make_gdn, (4, 5)), (make_kstar, (2, 3)),
         (make_hub_tree, (3, 2)), (make_tree_hat, (make_hub_tree(2, 2),))]


class TestSizeLimits:
    @pytest.mark.parametrize("build,args", SIZED, ids=lambda x: getattr(x, "__name__", ""))
    def test_limits_are_exact_counts(self, monkeypatch, build, args):
        g = build(*args)
        for name, count in (("MAX_VERTEX_COUNT", g.vertex_count),
                            ("MAX_EDGE_COUNT", g.edge_count)):
            limit = getattr(graphs, name)
            monkeypatch.setattr(graphs, name, count)
            assert build(*args) == g  # at the limit
            monkeypatch.setattr(graphs, name, count - 1)
            with pytest.raises(GraphError, match="vertices"):
                build(*args)
            monkeypatch.setattr(graphs, name, limit)

    # each just over a limit: without the cap, about a million vertices or
    # edges (some 100 MB) would be built before any error
    @pytest.mark.parametrize("build,args", [
        (make_cycle, (1_000_001,)), (make_path, (1_000_002,)), (make_complete, (1500,)),
        (make_complete_bipartite, (1001, 1000)), (make_complete_tripartite, (600, 600, 600)),
        (make_hypercube, (17,)), (make_gdn, (3, 500_001)), (make_kstar, (1, 1_000_000)),
        (make_hub_tree, (1000, 1000)),
    ], ids=lambda x: getattr(x, "__name__", ""))
    def test_oversized_family_refused(self, build, args):
        with pytest.raises(GraphError, match="limits"):
            build(*args)


class TestMetrics:
    def test_metrics_examples(self):
        m = metrics(make_cycle(5))
        assert m.max_degree == 2 and m.is_eulerian and m.is_triangle_free
        m = metrics(make_complete(7))
        assert m.is_eulerian and m.edge_count == 21
        m = metrics(make_hypercube(3))
        assert m.diameter == 3 and m.is_bipartite

    def test_disconnected_diameter_infinite(self):
        g = Graph(4, ((0, 1), (2, 3)))
        m = metrics(g)
        assert m.diameter is None and m.components == 2 and not m.is_eulerian

    @pytest.mark.parametrize("g", all_generated())
    def test_against_naive_oracles(self, g):
        m = metrics(g)
        fw = oracles.fw_diameter(g.vertex_count, g.edges)
        assert (m.diameter if m.diameter is not None else math.inf) == fw
        assert m.is_triangle_free == (not oracles.has_triangle(g.vertex_count, g.edges))
        assert m.components == oracles.union_find_components(g.vertex_count, g.edges)
        if g.vertex_count <= 12:  # the bipartiteness oracle is exponential
            assert m.is_bipartite == oracles.two_colorable(g.vertex_count, g.edges)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, tuple(edges))


@st.composite
def graphs_with_leaves_and_twins(draw):
    """A small random graph with some vertices copied (with or without an
    edge to the original: closed or open twins) and pendants attached, so
    that both of the sweep's skip rules fire."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.sets(st.sampled_from(pairs)))) if pairs else set()
    for adjacent in draw(st.lists(st.booleans(), max_size=3)):
        x = draw(st.integers(0, n - 1))
        edges |= {(y, n) for y in range(n) if (min(x, y), max(x, y)) in edges}
        if adjacent:
            edges.add((x, n))
        n += 1
    for x in draw(st.lists(st.integers(0, n - 1), max_size=4)):
        edges.add((x, n))
        n += 1
    return Graph(n, tuple(edges))


def check_sweep(g):
    """The cached sweep against Floyd-Warshall and against listing every
    shortest path."""
    d = graphs.diameter(g)
    assert (math.inf if d is None else d) == oracles.fw_diameter(g.vertex_count, g.edges)
    assert metrics(g).diameter == d
    assert graphs.heaviest_shortest_path(g) == \
        oracles.heaviest_shortest_path(g.vertex_count, g.edges)


class TestSweep:
    def test_atlas(self, atlas):
        for g in atlas:
            check_sweep(g)

    @given(small_graphs())
    def test_random_graphs(self, g):
        check_sweep(g)

    @given(graphs_with_leaves_and_twins())
    def test_graphs_with_leaves_and_twins(self, g):
        check_sweep(g)

    @pytest.mark.parametrize("g,sources", [
        (Graph(0, ()), []),
        (Graph(5, ()), [(0, 0)]),  # isolated vertices are open twins
        (make_path(2), [(0, 0)]),  # K2: closed twins, not leaves
        (make_path(3), [(1, 1)]),
        (make_path(5), [(1, 1), (2, 0), (3, 1)]),
        (make_complete(7), [(0, 0)]),
        (make_complete_bipartite(3, 4), [(0, 0), (3, 0)]),
        (make_hypercube(3), [(v, 0) for v in range(8)]),
        (Graph(5, ((0, 1), (2, 3), (3, 4))), [(0, 0), (3, 1)]),
        (make_gdn(11, 60), [(v, 1) for v in range(60)]),  # 540 leaves skipped
        (make_tree_hat(make_hub_tree(3, 2)), [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0),
                                              (6, 0), (8, 0), (10, 0)]),
    ], ids=["empty", "isolated", "K2", "P3", "P5", "K7", "K34", "Q3", "K2+P3", "gdn-11-60",
            "tree-hat"])
    def test_sources(self, g, sources):
        assert graphs._sweep_sources(g) == sources

    @pytest.mark.parametrize("d,n", [(3, 4), (4, 5), (11, 60)])
    def test_gdn_heaviest_path(self, d, n):
        # leaf, n // 2 + 1 cycle vertices of weight d - 1 each, leaf
        assert graphs.heaviest_shortest_path(make_gdn(d, n)) == (n // 2 + 1) * (d - 1)

    @pytest.mark.parametrize("g", all_generated())
    def test_families(self, g):
        check_sweep(g)


def circulant(n, jumps):
    """The edges of C_n(jumps): i ~ i + j (mod n) for each jump j."""
    return {(min(i, (i + j) % n), max(i, (i + j) % n))
            for i in range(n) for j in jumps if j % n}


@st.composite
def regular_graphs(draw):
    """A regular graph built without networkx: a circulant C_n(S) of degree
    d, then up to three more components of degree d (a copy of it, K_{d+1},
    K_{d,d} when d >= 1, C_m when d = 2), with the vertices shuffled so that
    the sweep's target blocks cut across components."""
    n = draw(st.integers(1, 9))
    first = circulant(n, draw(st.sets(st.integers(1, max(1, n // 2)), max_size=3)))
    d = sum(1 for e in first if 0 in e)
    parts = [(n, first)]
    kinds = ["copy", "complete"] + ["bipartite"] * (d >= 1) + ["cycle"] * (d == 2)
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        if kind == "copy":
            parts.append((n, first))
        elif kind == "complete":
            parts.append((d + 1, set(combinations(range(d + 1), 2))))
        elif kind == "bipartite":
            parts.append((2 * d, {(i, d + j) for i in range(d) for j in range(d)}))
        else:
            m = draw(st.integers(3, 9))
            parts.append((m, circulant(m, {1})))
    total = sum(size for size, _ in parts)
    perm = draw(st.permutations(range(total)))
    edges, base = [], 0
    for size, part in parts:
        edges += [(perm[base + u], perm[base + v]) for u, v in part]
        base += size
    g = Graph(total, tuple(edges))
    assert set(g.degrees) == {d}
    return g


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, tuple(outer + spokes + inner))


def matching(k):
    return Graph(2 * k, tuple((2 * i, 2 * i + 1) for i in range(k)))


def check_regular_sweep(g, widths=(1, 2, 3), sources=None):
    """The regular branch against Floyd-Warshall and against listing every
    shortest path (from `sources` only, when given), through the cached
    sweep and again with target blocks of each width in `widths`."""
    d = oracles.fw_diameter(g.vertex_count, g.edges)
    want = (None if d == math.inf else d,
            oracles.heaviest_shortest_path(g.vertex_count, g.edges, sources))
    assert (graphs.diameter(g), graphs.heaviest_shortest_path(g)) == want
    assert metrics(g).diameter == want[0]
    for width in widths:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_REACH_BLOCK", width)
            assert graphs._regular_sweep(g) == want, width


# (graph, sources for the W oracle): Q_d is vertex-transitive, so beyond
# Q_5 the paths from vertex 0 give W at a fraction of the listing's cost
REGULAR = {f"Q{d}": (make_hypercube(d), None if d <= 5 else (0,)) for d in range(1, 8)}
REGULAR |= {"petersen": (petersen(), None), "isolated5": (Graph(5, ()), None),
            "K1": (Graph(1, ()), None)}
REGULAR |= {f"matching{k}": (matching(k), None) for k in range(1, 5)}


class TestRegularSweep:
    @given(regular_graphs(), st.integers(1, 3))
    def test_random_regular_graphs(self, g, width):
        check_regular_sweep(g, (width,))

    @pytest.mark.parametrize("name", REGULAR)
    def test_named_graphs(self, name):
        g, sources = REGULAR[name]
        check_regular_sweep(g, sources=sources)

    @pytest.mark.parametrize("d", [8, 9, 10])
    def test_large_hypercubes(self, d):
        g = make_hypercube(d)
        assert (graphs.diameter(g), graphs.heaviest_shortest_path(g)) == (d, (d + 1) * (d - 1))

    @pytest.mark.parametrize("g", [make_cycle(7), make_hypercube(4), make_complete(6),
                                   petersen(), Graph(5, ())],
                             ids=["C7", "Q4", "K6", "petersen", "isolated5"])
    def test_runs_no_bfs_per_vertex(self, monkeypatch, g):
        def swept(_):
            raise AssertionError("a regular graph took the per-source sweep")

        monkeypatch.setattr(graphs, "_sweep_sources", swept)
        assert g._sweep == graphs._regular_sweep(g)

    def test_every_regular_graph_takes_the_regular_branch(self, monkeypatch):
        # at 4 targets a block, C_7 (eccentricity 3) and the prism C_7 x K_2
        # (eccentricity 4) are past the old limit of an eccentricity of 2
        rounds = []
        bitsets = graphs._reach_eccentricity
        monkeypatch.setattr(graphs, "_REACH_BLOCK", 4)
        monkeypatch.setattr(graphs, "_sweep_sources", refuse)
        monkeypatch.setattr(graphs, "_reach_eccentricity",
                            lambda g: rounds.append(g.vertex_count) or bitsets(g))
        for g in (make_cycle(7), prism(7)):
            check_regular_sweep(g, widths=())
        assert rounds == [14]


def refuse(g):
    raise AssertionError("the all-sources sweep ran a BFS per source")


def refuse_bitsets(g):
    raise AssertionError("a graph of degree 2 or less ran a bitset round")


def prism(n):
    """C_n x K_2: two n-cycles joined by a perfect matching, 3-regular."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(n + i, n + (i + 1) % n) for i in range(n)]
    return Graph(2 * n, tuple(edges + [(i, n + i) for i in range(n)]))


def cycles(*lengths):
    """Disjoint cycles of the given lengths, vertices numbered in order."""
    edges, base = [], 0
    for m in lengths:
        edges += [(base + u, base + v) for u, v in circulant(m, {1})]
        base += m
    return Graph(base, tuple(edges))


class TestLowDegreeRegular:
    """Cycles, matchings and isolated vertices read their eccentricity off
    the component pass: no BFS per source and no bitset round."""

    @pytest.mark.parametrize("g", [make_cycle(3), make_cycle(8), make_cycle(25),
                                   cycles(3, 4), cycles(9, 4, 6), cycles(5, 5, 12),
                                   matching(1), matching(4), Graph(1, ()), Graph(6, ())],
                             ids=["C3", "C8", "C25", "C3+C4", "C9+C4+C6", "C5+C5+C12",
                                  "K2", "4K2", "K1", "6K1"])
    def test_against_oracles(self, monkeypatch, g):
        monkeypatch.setattr(graphs, "_sweep_sources", refuse)
        monkeypatch.setattr(graphs, "_reach_eccentricity", refuse_bitsets)
        check_regular_sweep(g, widths=())

    def test_long_cycle(self, monkeypatch):
        monkeypatch.setattr(graphs, "_sweep_sources", refuse)
        monkeypatch.setattr(graphs, "_reach_eccentricity", refuse_bitsets)
        g = make_cycle(200000)
        assert (graphs.diameter(g), graphs.heaviest_shortest_path(g)) == (100000, 100001)


class TestComponentPass:
    @pytest.mark.parametrize("g,components", [
        (Graph(0, ()), 0),
        (Graph(4, ((0, 1), (2, 3))), 2),
        (make_gdn(4, 5), 1),
        (cycles(3, 4, 5), 3),
        (prism(5), 1),
        (Graph(7, ((0, 1), (1, 2), (4, 5))), 4),
        (make_hub_tree(3, 2), 1),
    ], ids=["empty", "2K2", "gdn-4-5", "C3+C4+C5", "prism5", "P3+K2+2K1", "hub-tree"])
    def test_one_bfs_per_component(self, monkeypatch, g, components):
        walks = []
        bfs = graphs.bfs
        monkeypatch.setattr(graphs, "bfs", lambda g, s, dist: walks.append(s) or bfs(g, s, dist))
        assert metrics(g).components == components
        assert len(walks) == components
        for read in (graphs.is_connected, graphs.is_bipartite, is_tree, metrics):
            read(g)
        assert len(walks) == components


class TestTwins:
    @given(small_graphs(), st.data())
    def test_first_twins_by_definition(self, g, data):
        order = data.draw(st.permutations(range(g.vertex_count)))
        vertices = order[:data.draw(st.integers(0, g.vertex_count))]
        assert graphs.first_twins(g, vertices) == \
            oracles.first_twins_by_definition(g.vertex_count, g.edges, vertices)

    @pytest.mark.parametrize("g,first", [
        (Graph(0, ()), []),
        (Graph(3, ()), [0, 0, 0]),  # isolated vertices are open twins
        (make_path(2), [0, 0]),  # closed twins
        (make_path(4), [0, 1, 2, 3]),
        (make_complete_tripartite(1, 2, 3), [0, 1, 1, 3, 3, 3]),
        (make_complete(4), [0, 0, 0, 0]),
    ], ids=["empty", "3K1", "K2", "P4", "K1-2-3", "K4"])
    def test_first_twins(self, g, first):
        assert graphs.first_twins(g, range(g.vertex_count)) == first

    def check_against_key_loops(self, g):
        n, edges = g.vertex_count, g.edges
        assert graphs._sweep_sources(g) == oracles.sweep_sources_by_keys(n, edges)
        if n:
            assert solver._twin_links(g) == oracles.twin_links_by_keys(n, edges)

    def test_atlas(self, atlas):
        for g in atlas:
            self.check_against_key_loops(g)

    @given(graphs_with_leaves_and_twins())
    def test_graphs_with_leaves_and_twins(self, g):
        self.check_against_key_loops(g)


class TestJson:
    def test_round_trip_byte_stable(self):
        g = make_gdn(3, 4)
        text = g.to_json()
        again = Graph.from_json(text)
        assert again == g
        assert again.to_json() == text

    def test_bad_json_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_json("{not json")
        with pytest.raises(GraphError):
            Graph.from_json('{"vertex_count": 2}')
        with pytest.raises(GraphError):
            Graph.from_json('{"vertex_count": 2, "edges": [[0, "a"]]}')
        with pytest.raises(GraphError):
            Graph.from_json('{"vertex_count": true, "edges": []}')
        with pytest.raises(GraphError):
            Graph.from_json('{"vertex_count": 2, "edges": [[0, true]]}')


class TestTreeEnumeration:
    # counts verified below against a from-scratch enumeration for n <= 6;
    # the larger ones are the published values (OEIS A000055)
    KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
                    11: 235, 12: 551, 13: 1301, 14: 3159}

    @pytest.mark.parametrize("n", range(1, 15))
    def test_counts(self, n):
        ts = list(enumerate_trees(n))
        assert len(ts) == self.KNOWN_COUNTS[n]
        for t in ts:
            assert is_tree(t) and t.vertex_count == n

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_subset_enumeration_oracle(self, n):
        ours = sorted(oracles.tree_code(n, t.edges) for t in enumerate_trees(n))
        assert ours == oracles.all_trees_by_subsets(n)

    def test_deterministic_order(self):
        a = [t.edges for t in all_trees_up_to(7)]
        b = [t.edges for t in all_trees_up_to(7)]
        assert a == b

    def test_pairwise_nonisomorphic(self):
        for n in range(2, 8):
            codes = [oracles.canonical_edge_set(n, t.edges) for t in enumerate_trees(n)]
            assert len(codes) == len(set(codes))

    # the permutation canonical form costs n! per tree; past 7 vertices the
    # every-root code keeps the check exact
    @pytest.mark.parametrize("n", range(8, 13))
    def test_pairwise_nonisomorphic_larger(self, n):
        codes = [oracles.tree_code(n, t.edges) for t in enumerate_trees(n)]
        assert len(codes) == len(set(codes)) == self.KNOWN_COUNTS[n]

    def test_generated_lazily(self):
        # the generator starts from the path rooted at its center; a memo
        # or an up-front enumeration of 40-vertex trees would never return
        first = next(enumerate_trees(40))
        assert is_tree(first) and first.vertex_count == 40 and first.max_degree() == 2


def test_leaves():
    assert leaves(make_path(4)) == (0, 3)
    assert leaves(make_hub_tree(2, 3)) == tuple(range(3, 9))
