import inspect
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
from intcyclic import bounds, graphs, solver
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

    # each field is an exact int (no bool, no float) or a string, and each
    # edge a pair: the constructor refuses what the file format refuses
    @pytest.mark.parametrize("args", [
        (3, ((0, 1.5),)), (2, ((False, True),)), (True, ()), (3, (5,)), (3, ((0,),)),
        (2, ((0, 1),), ("a", 1)),
    ], ids=["float-end", "bool-ends", "bool-count", "int-edge", "short-edge", "int-label"])
    def test_rejects_inexact_fields(self, args):
        with pytest.raises(GraphError):
            Graph(*args)

    def test_rejects_more_edges_than_the_limit(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGE_COUNT", 2)
        assert Graph(3, ((0, 1), (1, 2))).edge_count == 2
        with pytest.raises(GraphError, match="limit"):
            Graph(3, ((0, 1), (1, 2), (0, 2)))

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
    sweep and again with target blocks of each width in `widths`.  The
    branch itself returns the largest finite distance; diameter() alone
    says None for a disconnected graph."""
    n = g.vertex_count
    finite = [d for row in oracles.fw_distances(n, g.edges) for d in row if d != math.inf]
    ecc = max(finite)
    w = oracles.heaviest_shortest_path(n, g.edges, sources)
    want = (ecc if len(finite) == n * n else None), w
    assert (graphs.diameter(g), graphs.heaviest_shortest_path(g)) == want
    assert metrics(g).diameter == want[0]
    for width in widths:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "_REACH_BLOCK", width)
            assert graphs._regular_sweep(g) == (ecc, w), width


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


def count_walks(mp):
    """The sources of every graphs.bfs walk from now on, in call order."""
    walks = []
    bfs = graphs.bfs
    mp.setattr(graphs, "bfs", lambda g, s, dist, f: walks.append(s) or bfs(g, s, dist, f))
    return walks


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
        walks = count_walks(monkeypatch)
        assert len(g._components[0]) == components
        assert len(walks) == components
        for read in (graphs.is_connected, graphs.is_bipartite, is_tree):
            read(g)
        assert len(walks) == components

    @pytest.mark.parametrize("g,sources", [
        (Graph(0, ()), 0),
        (Graph(4, ((0, 1), (2, 3))), 0),  # disconnected: no sweep
        (make_gdn(4, 5), 5),  # the cycle vertices; their 10 leaves are skipped
        (cycles(3, 4, 5), 0),  # regular
        (prism(5), 0),
        (Graph(7, ((0, 1), (1, 2), (4, 5))), 0),
        (make_hub_tree(3, 2), 2),  # a tree: the double sweep
    ], ids=["empty", "2K2", "gdn-4-5", "C3+C4+C5", "prism5", "P3+K2+2K1", "hub-tree"])
    def test_sweep_walks_after_the_component_pass(self, monkeypatch, g, sources):
        walks = count_walks(monkeypatch)
        graphs.is_connected(g)
        walks.clear()
        metrics(g)
        assert len(walks) == sources
        assert ("_sweep" in vars(g)) == graphs.is_connected(g)


def relabel(n, edges, perm):
    return Graph(n, tuple((perm[u], perm[v]) for u, v in edges))


@st.composite
def shuffled_unions(draw):
    """A union of 1-3 random graphs on up to 7 vertices each, labels
    shuffled, so the component pass roots its walks anywhere."""
    edges, n = [], 0
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 7))
        pairs = [(n + u, n + v) for u, v in combinations(range(k), 2)]
        edges += draw(st.sets(st.sampled_from(pairs))) if pairs else []
        n += k
    return relabel(n, edges, draw(st.permutations(range(n))))


def blowup(parts):
    """The cycle C_len(parts) with vertex i replaced by an independent set of
    parts[i] vertices, consecutive sets joined completely: triangle-free,
    and not bipartite when the cycle is odd."""
    starts = [sum(parts[:i]) for i in range(len(parts) + 1)]
    edges = [(starts[i] + a, starts[(i + 1) % len(parts)] + b)
             for i in range(len(parts)) for a in range(parts[i])
             for b in range(parts[(i + 1) % len(parts)])]
    return Graph(starts[-1], tuple(edges))


def count_work(mp):
    """The size of each neighbourhood set is_triangle_free builds from now
    on, and for each intersection the elements it walks, through set()
    shadowed in graphs' namespace, where is_triangle_free is its only
    caller.  isdisjoint walks the smaller of two sets, or all of an argument
    that is no set."""
    built, walked = [], []

    class CountingSet(set):
        def __init__(self, items):
            super().__init__(items)
            built.append(len(self))

        def isdisjoint(self, other):
            walked.append(min(len(self), len(other)) if isinstance(other, set) else len(other))
            return super().isdisjoint(other)

    mp.setattr(graphs, "set", CountingSet, raising=False)
    return built, walked


def level_edges(g):
    """The edges inside a BFS level, from Floyd-Warshall distances to each
    component's root."""
    dist = oracles.fw_distances(g.vertex_count, g.edges)
    root = {v: walk[0] for walk in g._components[0] for v in walk}
    return sum(dist[root[u]][u] == dist[root[v]][v] for u, v in g.edges)


class TestTriangleFree:
    """is_triangle_free reads the BFS levels of the component pass and
    intersects two neighbourhoods only across an edge inside a level."""

    KMN = [(1, 1), (1, 6), (3, 3), (4, 7), (5, 3)]

    def check(self, g):
        assert graphs.is_triangle_free(g) == (not oracles.has_triangle(g.vertex_count, g.edges))

    @given(shuffled_unions())
    def test_against_the_oracle(self, g):
        self.check(g)

    def test_atlas(self, atlas):
        for g in atlas:
            self.check(g)

    @given(st.sampled_from([5, 7]).flatmap(
        lambda k: st.lists(st.integers(1, 4), min_size=k, max_size=k)), st.randoms())
    def test_odd_cycle_blowups(self, parts, rnd):
        g = blowup(parts)
        perm = list(range(g.vertex_count))
        rnd.shuffle(perm)
        g = relabel(g.vertex_count, g.edges, perm)
        assert graphs.is_triangle_free(g) and not graphs.is_bipartite(g)
        self.check(g)

    def test_triangle_deep_in_the_walk(self, monkeypatch):
        # a 20-vertex path with a star at 0, which roots the walk there, and a
        # triangle at the far end: its one level edge is 19 levels down
        edges = [(i, i + 1) for i in range(19)] + [(0, 21), (0, 22), (18, 20), (19, 20)]
        g = Graph(23, tuple(edges))
        assert g._components[0][0][0] == 0 and g._components[1][20] == 19
        built, walked = count_work(monkeypatch)
        assert not graphs.is_triangle_free(g)
        assert len(built) == g.vertex_count and len(walked) == 1
        self.check(g)

    def test_triangle_inside_one_level(self):
        # the root 0 reaches the triangle 4-5-6 through three paths of length
        # 2, so all three of its edges lie inside level 2
        g = Graph(7, ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 5), (4, 6), (5, 6)))
        assert g._components[0][0][0] == 0 and {g._components[1][v] for v in (4, 5, 6)} == {2}
        assert not graphs.is_triangle_free(g)

    @pytest.mark.parametrize("g", [*(make_complete_bipartite(m, n) for m, n in KMN),
                                   make_hypercube(4), make_cycle(8), make_path(9),
                                   make_hub_tree(3, 4), make_gdn(4, 6), cycles(4, 6, 8),
                                   Graph(5, ())],
                             ids=[*(f"K{m},{n}" for m, n in KMN), "Q4", "C8", "P9",
                                  "hub-tree", "gdn-4-6", "C4+C6+C8", "5K1"])
    def test_bipartite_intersects_nothing(self, monkeypatch, g):
        built, walked = count_work(monkeypatch)
        assert graphs.is_bipartite(g) and graphs.is_triangle_free(g)
        assert built == walked == []

    @pytest.mark.parametrize("parts", [(1,) * 5, (1,) * 7, (2, 1, 3, 1, 4), (4,) * 5,
                                       (1, 2, 3, 4, 1, 2, 3), (3, 4) * 3 + (2,)])
    def test_level_edges_intersect_once_each(self, monkeypatch, parts):
        g = blowup(parts)
        built, walked = count_work(monkeypatch)
        assert graphs.is_triangle_free(g) and not graphs.is_bipartite(g)
        assert len(walked) == level_edges(g) > 0 and len(built) == g.vertex_count

    def test_hub_level_edges_cost_their_smaller_degree(self, monkeypatch):
        # the root 0 has 2D pendant leaves and the neighbours 1 and 2; 3 hangs
        # off 1, and 4..D+3 off 2; 3 meets each of 4..D+3.  Those D edges lie
        # inside level 2 at the hub 3 of degree D + 1, and each walks the 2
        # neighbours of its other end, so the work is linear in |E|
        d = 300
        edges = [(0, 1), (0, 2), (1, 3), *((2, v) for v in range(4, d + 4)),
                 *((3, v) for v in range(4, d + 4)), *((0, v) for v in range(d + 4, 3 * d + 4))]
        g = Graph(3 * d + 4, tuple(edges))
        assert g._components[0][0][0] == 0 and {g._components[1][v] for v in range(3, d + 4)} == {2}
        built, walked = count_work(monkeypatch)
        assert graphs.is_triangle_free(g) and not graphs.is_bipartite(g)
        assert sum(built) == 2 * g.edge_count and walked == [2] * d


@st.composite
def random_trees(draw, max_vertices=40):
    """A tree on up to `max_vertices` vertices: each vertex after the first
    hangs off an earlier one, and the labels are shuffled."""
    n = draw(st.integers(1, max_vertices))
    perm = draw(st.permutations(range(n)))
    return Graph(n, tuple((perm[draw(st.integers(0, i - 1))], perm[i]) for i in range(1, n)))


@st.composite
def caterpillars(draw):
    """A spine path with a run of legs on each spine vertex."""
    legs = draw(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    edges = [(i, i + 1) for i in range(len(legs) - 1)]
    n = len(legs)
    for i, k in enumerate(legs):
        edges += [(i, n + j) for j in range(k)]
        n += k
    return Graph(n, tuple(edges))


def check_tree_sweep(tree):
    """Diameter, W and tree_m against Floyd-Warshall and listing every
    shortest path, with two BFS walks after the component pass (none for
    K1 and K2, which are regular)."""
    n, edges = tree.vertex_count, tree.edges
    with pytest.MonkeyPatch.context() as mp:
        walks = count_walks(mp)
        assert is_tree(tree) and len(walks) == 1
        d, w = graphs.diameter(tree), graphs.heaviest_shortest_path(tree)
        assert len(walks) == (3 if n >= 3 else 1)
    assert d == oracles.fw_diameter(n, edges)
    assert w == oracles.heaviest_shortest_path(n, edges)
    if n >= 2:
        assert bounds.tree_m(tree) == 1 + w


class TestTreeSweep:
    def test_every_tree_up_to_12_vertices(self):
        for tree in all_trees_up_to(12):
            check_tree_sweep(tree)

    @given(random_trees())
    def test_random_trees(self, tree):
        check_tree_sweep(tree)

    @given(caterpillars())
    def test_caterpillars(self, tree):
        check_tree_sweep(tree)

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_hub_trees(self, hubs, leaves_per_hub):
        check_tree_sweep(make_hub_tree(hubs, leaves_per_hub))

    def test_long_path(self, monkeypatch):
        monkeypatch.setattr(graphs, "_sweep_sources", refuse)
        g = make_path(100000)
        assert (graphs.diameter(g), graphs.heaviest_shortest_path(g)) == (99999, 99998)


def disjoint(*parts):
    """The disjoint union of the given graphs, vertices numbered in order."""
    edges, base = [], 0
    for part in parts:
        edges += [(base + u, base + v) for u, v in part.edges]
        base += part.vertex_count
    return Graph(base, tuple(edges))


@st.composite
def forests(draw):
    """A union of 1-4 random trees on up to 12 vertices each, with the labels
    shuffled across the whole forest."""
    forest = disjoint(*draw(st.lists(random_trees(12), min_size=1, max_size=4)))
    perm = draw(st.permutations(range(forest.vertex_count)))
    return Graph(forest.vertex_count, tuple((perm[u], perm[v]) for u, v in forest.edges))


def check_forest_sweep(forest):
    """The sweep's largest eccentricity within a tree and W against
    Floyd-Warshall and listing every shortest path."""
    n, edges = forest.vertex_count, forest.edges
    ecc, w = forest._sweep
    assert ecc == max(d for row in oracles.fw_distances(n, edges) for d in row if d != math.inf)
    assert w == oracles.heaviest_shortest_path(n, edges)
    assert graphs.diameter(forest) == (ecc if len(forest._components[0]) == 1 else None)


class TestForestSweep:
    @given(forests())
    def test_random_forests(self, forest):
        check_forest_sweep(forest)

    @pytest.mark.parametrize("forest", [
        matching(3), Graph(4, ()), disjoint(make_path(2), Graph(1, ())),
        disjoint(make_path(3), Graph(2, ())), disjoint(make_path(5), make_hub_tree(2, 3)),
        disjoint(*[make_path(3)] * 5),
    ], ids=["3K2", "4K1", "K2+K1", "P3+2K1", "P5+hub-tree", "5P3"])
    def test_small_forests(self, forest):
        check_forest_sweep(forest)


def check_search_order(g):
    assert list(solver._search_plan(g).order) == \
        oracles.fail_first_edge_order(g.vertex_count, g.edges)


@st.composite
def triangle_free_graphs(draw):
    """A random triangle-free graph on 0-9 vertices: drawn pairs become
    edges in turn unless their ends already share a neighbour."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    neigh = [set() for _ in range(n)]
    edges = []
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []:
        if neigh[u].isdisjoint(neigh[v]):
            neigh[u].add(v)
            neigh[v].add(u)
            edges.append((u, v))
    return Graph(n, tuple(edges))


class TestSearchOrder:
    """The search order is the first star, the edges inside its
    neighbourhood fail first, then the component pass's walks: a BFS from
    each component's first maximum-degree vertex, in (-degree, vertex)
    order."""

    def test_atlas(self, atlas):
        for g in atlas:
            check_search_order(g)

    @given(small_graphs())
    def test_random_graphs(self, g):
        check_search_order(g)

    @given(forests())
    def test_forests(self, g):
        check_search_order(g)

    @pytest.mark.parametrize("g,roots", [
        # a triangle with a pendant, K_{1,3} and a point: 2 and 4 tie on degree 3
        (Graph(9, ((0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7))), [2, 4, 8]),
        (disjoint(make_path(3), make_path(3), make_complete(4)), [6, 1, 4]),
        (disjoint(make_path(2), make_path(4), make_path(5)), [3, 7, 0]),
    ], ids=["K3+pendant+K13+K1", "P3+P3+K4", "K2+P4+P5"])
    def test_components_tied_on_maximum_degree(self, g, roots):
        assert [walk[0] for walk in g._components[0]] == roots
        check_search_order(g)

    @given(triangle_free_graphs())
    def test_triangle_free_keeps_the_bfs_order(self, g):
        # N(a) is independent, so nothing moves ahead of the visit order
        assert not oracles.has_triangle(g.vertex_count, g.edges)
        assert list(solver._search_plan(g).order) == \
            oracles.bfs_edge_order(g.vertex_count, g.edges)

    @pytest.mark.parametrize("g", [
        Graph(5, ((0, 1), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
        Graph(6, ((0, 1), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4), (4, 5))),
        make_complete_tripartite(2, 2, 3),
    ], ids=["partners-by-share", "share-not-count", "K2-2-3"])
    def test_shares_set_the_inside_order(self, g):
        # the first pick's partners differ in share; a neighbour with fewer
        # placed edges but a larger share goes first
        check_search_order(g)

    def test_bfs_edge_order_is_the_reference_loop(self):
        # reference_decide takes its edge order as an argument: both orders
        # and the kernel index one sorted edge list, so an order fed to the
        # reference names the edges its colors are returned for, and the
        # rule's order is stated on the BFS baseline
        body = inspect.getsource(oracles.bfs_edge_order).split('"""')[-1]
        edges = body[body.index("    edges = "):body.index("    adj = ")]  # the edges and m
        assert edges in inspect.getsource(oracles.reference_decide)
        fail_first = inspect.getsource(oracles.fail_first_edge_order)
        assert edges.splitlines()[0] in fail_first and "bfs_edge_order(n, edges)" in fail_first

    def test_reads_the_component_pass(self, monkeypatch):
        g = Graph(9, ((0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7)))
        g._components
        walks = count_walks(monkeypatch)
        solver._search_plan(g)
        assert walks == []


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
            assert list(solver._search_plan(g).twin) == oracles.twin_links_by_keys(n, edges)

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

    @pytest.mark.parametrize("g", [make_gdn(3, 4), make_path(3), Graph(0, ()),
                                   Graph(2, ((0, 1),), ('a"b', "c"))])
    def test_json_is_the_dict_form(self, g):
        # to_json writes the tuples as they are; to_dict keeps giving lists
        d = g.to_dict()
        assert g.to_json() == graphs.canonical_json(d)
        assert type(d["edges"]) is list and all(type(e) is list for e in d["edges"])
        assert g.labels is None or type(d["labels"]) is list

    def test_digest_serializes_once_per_object(self, monkeypatch):
        written = []
        real = Graph.to_json
        monkeypatch.setattr(Graph, "to_json", lambda g: written.append(g) or real(g))
        g = make_cycle(5)
        assert g.digest() == g.digest() == Graph(5, g.edges).digest()
        assert written == [g, Graph(5, g.edges)]

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


# field values of both kinds: ones the file format holds, and ones it does not
SCALARS = st.one_of(st.integers(-1, 4), st.booleans(), st.floats(-1, 4), st.text(max_size=2),
                    st.none())


@given(SCALARS, st.lists(st.one_of(st.tuples(SCALARS, SCALARS), st.lists(SCALARS, max_size=3),
                                   SCALARS), max_size=4),
       st.one_of(st.none(), st.lists(st.one_of(st.text(max_size=2), SCALARS), max_size=4)))
def test_every_graph_that_constructs_reads_back(vertex_count, edges, labels):
    try:
        g = Graph(vertex_count, tuple(edges), labels)
    except GraphError:
        return
    text = g.to_json()
    assert Graph.from_json(text).to_json() == text


class TestTreeEnumeration:
    # counts verified below against a from-scratch enumeration for n <= 6;
    # the larger ones are the published values (OEIS A000055)
    KNOWN_COUNTS = {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
                    11: 235, 12: 551, 13: 1301, 14: 3159}

    @pytest.mark.parametrize("n", range(0, 15))
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
