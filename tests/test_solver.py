from itertools import count

import pytest
from hypothesis import given, strategies as st

from intcyclic import (
    EdgeColoring,
    Graph,
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
    solver,
    validate_cyclic,
)
from intcyclic.bounds import matching_floor, parity_obstruction
from intcyclic.coloring import _cyclic_cover_len, mod_color
from intcyclic.graphs import all_trees_up_to, is_connected
from intcyclic.noncolorable import Certificate
from intcyclic.solver import (
    FEASIBLE,
    INFEASIBLE,
    TIMEOUT,
    certify_noncolorable,
    conjecture_scan,
    decide,
    extremal,
    feasible_set,
)

import oracles


# graphs small enough for the full-enumeration oracle across their whole range
ORACLE_CORPUS = [
    make_path(2),
    make_path(4),
    make_cycle(3),
    make_cycle(4),
    make_cycle(5),
    make_complete_bipartite(1, 3),
    make_complete(4),
    make_path(6),
]


class TestDecide:
    def test_cycle_five(self):
        assert decide(make_cycle(5), 4).decision == INFEASIBLE
        assert decide(make_cycle(5), 5).decision == FEASIBLE

    def test_eulerian_odd_tripartite(self):
        g = make_complete_tripartite(1, 1, 3)
        assert decide(g, 4).decision == INFEASIBLE
        assert decide(g, 5).decision == FEASIBLE

    def test_feasible_carries_valid_witness(self):
        out = decide(make_cycle(6), 4)
        assert out.decision == FEASIBLE
        assert validate_cyclic(make_cycle(6), out.witness).valid

    def test_budget_exhaustion_is_timeout(self):
        out = decide(make_complete(7), 8, node_budget=20_000)
        assert out.decision == TIMEOUT
        assert out.witness is None
        assert out.nodes_explored > 20_000

    def test_deterministic(self):
        a = decide(make_cycle(7), 5)
        b = decide(make_cycle(7), 5)
        assert a.decision == b.decision
        assert a.nodes_explored == b.nodes_explored
        assert a.witness == b.witness

    # node counts and witnesses at a fixed budget pin the search's edge
    # order, color order and pruning
    @pytest.mark.parametrize("g,t,decision,nodes,colors", [
        (make_complete(5), 7, INFEASIBLE, 160, None),
        (make_hypercube(3), 8, FEASIBLE, 196, (1, 2, 3, 8, 7, 1, 3, 7, 5, 4, 6, 5)),
        (make_gdn(4, 4), 10, FEASIBLE, 26, (1, 2, 3, 4, 8, 9, 10, 5, 6, 7, 3, 4)),
        (make_complete_tripartite(1, 2, 3), 8, INFEASIBLE, 152, None),
        (make_complete(6), 8, FEASIBLE, 15,
         (1, 2, 3, 4, 5, 3, 2, 5, 4, 1, 7, 8, 8, 7, 6)),
        (make_tree_hat(make_hub_tree(2, 2)), 5, FEASIBLE, 12, (5, 1, 2, 1, 2, 3, 1, 2, 3, 4)),
    ], ids=["K5", "Q3", "G4-4", "K1-2-3", "K6", "hub-tree-hat"])
    def test_pinned_node_counts(self, g, t, decision, nodes, colors):
        out = decide(g, t, node_budget=200_000)
        assert (out.decision, out.nodes_explored) == (decision, nodes)
        assert (out.witness.colors if out.witness else None) == colors

    # far deeper than the interpreter's recursion limit
    @pytest.mark.parametrize("g,t", [(make_cycle(1200), 3), (make_path(2000), 4)],
                             ids=["C1200", "P2000"])
    def test_no_depth_limit(self, g, t):
        out = decide(g, t)
        assert out.decision == FEASIBLE
        assert validate_cyclic(g, out.witness).valid

    def test_more_colors_than_edges_needs_no_search(self):
        # answered before anything sized by t is built
        out = decide(make_cycle(5), 10**9)
        assert (out.decision, out.nodes_explored) == (INFEASIBLE, 0)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            decide(make_cycle(3), 0)

    @pytest.mark.parametrize("g", ORACLE_CORPUS, ids=lambda g: g.digest())
    def test_agrees_with_full_enumeration(self, g):
        lo, hi = 1, g.edge_count
        for t in range(lo, hi + 1):
            got = decide(g, t).decision
            want = oracles.naive_decide(g.vertex_count, g.edges, t)
            assert got == (FEASIBLE if want else INFEASIBLE), (g.edges, t)

    def test_agrees_with_enumeration_on_seven_edges(self):
        g = make_complete_tripartite(1, 1, 3)  # 7 edges
        for t in (4, 5):
            want = oracles.naive_decide(g.vertex_count, g.edges, t)
            assert (decide(g, t).decision == FEASIBLE) == want

    def test_exhaustive_agreement_on_all_four_vertex_graphs(self):
        # every edge subset on 4 vertices, every t up to the edge count
        from itertools import combinations
        from intcyclic import Graph
        pairs = list(combinations(range(4), 2))
        for size in range(0, 7):
            for subset in combinations(pairs, size):
                g = Graph(4, subset)
                for t in range(1, max(1, size) + 1):
                    got = decide(g, t).decision == FEASIBLE
                    assert got == oracles.naive_decide(4, g.edges, t), (subset, t)

    def test_exhaustive_agreement_on_sparse_five_vertex_graphs(self):
        from itertools import combinations
        from intcyclic import Graph
        pairs = list(combinations(range(5), 2))
        for size in range(1, 5):
            for subset in combinations(pairs, size):
                g = Graph(5, subset)
                for t in range(1, size + 1):
                    got = decide(g, t).decision == FEASIBLE
                    assert got == oracles.naive_decide(5, g.edges, t), (subset, t)


# every (spectrum, degree) pair for small t, against the validator's cover length
@pytest.mark.parametrize("t", range(1, 10))
def test_allowed_is_window_extension(t):
    for mask in range(1 << t):
        spectrum = {c for c in range(1, t + 1) if mask >> (c - 1) & 1}
        for d in range(1, t + 1):
            want = {c for c in range(1, t + 1)
                    if _cyclic_cover_len(sorted(spectrum | {c}), t) <= d}
            got = solver.allowed(mask, d, t)
            assert {c for c in range(1, t + 1) if got >> (c - 1) & 1} == want, (mask, d)
            assert got >> t == 0


def check_against_reference(g, budget):
    """Every t of the feasible set against the kernel without the twin cut
    and the coverage cut (oracles.reference_decide) at the same budget:
    where the reference decides, the same decision and the same witness;
    everywhere, no more nodes.  A t that a theorem excludes must be
    infeasible by the reference too, and decide() is still run there to
    check both cuts.  Returns the (reference, new) node totals."""
    fs = feasible_set(g, node_budget=budget)
    totals = [0, 0]
    for rec in fs.decisions:
        want, ref_nodes, ref_colors = oracles.reference_decide(
            g.vertex_count, g.edges, rec.t, budget)
        if rec.source == "search":
            got, nodes, witness = rec.decision, rec.nodes_explored, fs.witnesses.get(rec.t)
        else:
            assert rec.decision == INFEASIBLE and want != FEASIBLE, (g.edges, rec)
            out = decide(g, rec.t, budget)
            got, nodes, witness = out.decision, out.nodes_explored, out.witness
        assert nodes <= ref_nodes, (g.edges, rec.t)
        if want != TIMEOUT:
            assert got == want, (g.edges, rec.t)
            assert (witness.colors if witness else None) == ref_colors, (g.edges, rec.t)
        totals[0] += ref_nodes
        totals[1] += nodes
    return totals


@st.composite
def hubs_with_planted_twins(draw):
    """A random graph on 1-3 vertices plus a hub 0 joined to every vertex,
    then 1-3 copies of non-hub vertices, each with or without an edge to its
    original (an open or a closed twin).  The hub keeps the maximum degree
    and the lowest index, so it starts the search order and the copies sit
    on its star."""
    k = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)]
    edges = set(draw(st.sets(st.sampled_from(pairs)))) if pairs else set()
    edges |= {(0, v) for v in range(1, k + 1)}
    n = k + 1
    for adjacent in draw(st.lists(st.booleans(), min_size=1, max_size=3)):
        x = draw(st.integers(1, n - 1))
        edges |= {(y, n) for y in range(n) if (min(x, y), max(x, y)) in edges}
        if adjacent:
            edges.add((x, n))
        n += 1
    return Graph(n, tuple(edges))


class TestTwinOrder:
    @pytest.mark.parametrize("g,links", [
        (make_complete(5), [-1, 0, 1, 2]),  # closed twins
        (make_complete_tripartite(1, 2, 3), [-1, 0, -1, 2, 3]),  # two open classes
        (make_complete_bipartite(1, 4), [-1, 0, 1, 2]),
        (make_cycle(4), [-1, 0]),
        (make_cycle(5), []),
        (make_hypercube(3), []),
        (make_gdn(4, 4), [-1, -1, -1, 2]),
        (Graph(5, ((0, 2), (1, 2), (2, 3), (2, 4), (3, 4))), [-1, 0, -1, 2]),
    ], ids=["K5", "K1-2-3", "K1-4", "C4", "C5", "Q3", "G4-4", "hub-2"])
    def test_links(self, g, links):
        assert solver._twin_links(g) == links

    @pytest.mark.parametrize("g", [make_complete_tripartite(3, 1, 2), make_gdn(4, 4),
                                   Graph(5, ((0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))],
                             ids=["K3-1-2", "G4-4", "hub-2"])
    def test_star_fills_the_first_positions(self, g):
        # the links index search positions by a's neighbours in adjacency order
        a = g.degrees.index(max(g.degrees))
        order = solver._search_order(g)
        far = [sum(g.edges[e]) - a for e in order[:g.degrees[a]]]
        assert a in g.edges[order[0]] and far == list(g.adjacency[a])

    @pytest.mark.parametrize("g", [make_cycle(5), make_cycle(6), make_cycle(7),
                                   make_hypercube(3)], ids=["C5", "C6", "C7", "Q3"])
    def test_without_twins_the_search_is_unchanged(self, g):
        # no twin links, so the same nodes as the reference; the reflection
        # cap binds on several of these.  The coverage cut saves no node here:
        # through the first half of the order some later edge has two
        # untouched ends, and it can take every color
        assert solver._twin_links(g) == []
        lo, hi = solver.search_range(g)
        for t in range(lo, hi + 1):
            out = decide(g, t)
            got = (out.decision, out.nodes_explored, out.witness.colors if out.witness else None)
            assert got == oracles.reference_decide(g.vertex_count, g.edges, t, 10**6), t

    def test_agrees_with_reference_on_atlas(self, atlas):
        # every connected graph on up to 6 vertices, every t of its range;
        # the reference decides all of them within the budget
        graphs = [g for g in atlas if 1 <= g.vertex_count <= 6 and is_connected(g)]
        assert len(graphs) == 143
        ref, new = map(sum, zip(*(check_against_reference(g, 200_000) for g in graphs)))
        assert new < ref // 3

    @given(hubs_with_planted_twins())
    def test_planted_twins_agree_with_reference(self, g):
        assert solver._twin_links(g)
        check_against_reference(g, 3_000)

    def test_reference_check_catches_an_unsound_order(self, monkeypatch):
        # ordering every star edge, twins or not, loses the only witnesses of
        # a hub with a pendant pair and a triangle at t = 4
        g = Graph(5, ((0, 4), (1, 4), (2, 3), (2, 4), (3, 4)))
        assert solver._twin_links(g) == [-1, 0, -1, 2]
        monkeypatch.setattr(solver, "_twin_links", lambda g: [-1, 0, 1, 2])
        assert decide(g, 4).decision == INFEASIBLE
        with pytest.raises(AssertionError):
            check_against_reference(g, 10_000)


@st.composite
def connected_graphs(draw):
    """A random connected graph on 4-7 vertices: a random tree, each vertex
    joined to an earlier one, plus any set of further edges."""
    n = draw(st.integers(4, 7))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    return Graph(n, tuple(edges | draw(st.sets(st.sampled_from(pairs)))))


@given(connected_graphs())
def test_coverage_cut_agrees_with_reference(g):
    # the reference has no coverage cut: a cut that removed a witness or
    # added a node shows here
    check_against_reference(g, 3_000)


@st.composite
def near_complete_graphs(draw):
    """K_n on 1-9 vertices less up to 4 edges: with n odd these are often
    overfull, so matching capacity excludes some t of the searched range."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    removed = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
    return Graph(n, tuple(p for p in pairs if p not in removed))


class TestMatchingCapacity:
    def test_complete_five(self, monkeypatch):
        # 10 edges, at most 2 per color class: t = 4 cannot color them all
        searched = []

        def recording_decide(g, t, node_budget=None):
            searched.append(t)
            return decide(g, t, node_budget)

        monkeypatch.setattr(solver, "decide", recording_decide)
        fs = feasible_set(make_complete(5))
        assert fs.decisions[0] == solver.SolveOutcome(INFEASIBLE, 4, None, 0, source="matching")
        assert searched == list(range(5, fs.t_hi + 1))
        assert fs.members == (5, 6) and fs.exhausted

    def test_parity_is_named_first(self):
        # K_7 at t = 6: parity (Eulerian, 21 edges) and matching (21 > 6 * 3) both apply
        fs = feasible_set(make_complete(7), node_budget=1)
        assert fs.decisions[0] == solver.SolveOutcome(INFEASIBLE, 6, None, 0, source="parity")

    def test_sound_against_search(self):
        # K_5 minus an edge: 9 > 4 * 2 edges, and an exhaustive search agrees
        g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)][1:])
        fs = feasible_set(g)
        assert fs.decisions[0] == solver.SolveOutcome(INFEASIBLE, 4, None, 0, source="matching")
        assert oracles.reference_decide(5, g.edges, 4, 10**6)[0] == INFEASIBLE

    def test_in_certificate_transcript(self):
        res = certify_noncolorable(make_complete(5), node_budget=1)
        assert isinstance(res, Certificate) and res.inconclusive
        assert res.transcripts[0] == {"t": 4, "decision": INFEASIBLE, "source": "matching",
                                      "nodes_explored": 0}
        assert "matching" in res.premises[0].condition

    @staticmethod
    def check_records_follow_the_floor(g):
        # the floor against its definition, then the planner's matching
        # records against it: every t below it that parity does not claim
        # first; a budget of 1 node suffices, only the sources are compared
        floor = matching_floor(g)
        assert floor == next(t for t in count() if g.edge_count <= t * (g.vertex_count // 2))
        lo, hi = solver.search_range(g)
        parity = parity_obstruction(g)
        got = [rec.t for rec in solver._plan(g, lo, hi, 1) if rec.source == "matching"]
        assert got == [t for t in range(lo, hi + 1) if t < floor and not parity.excludes(t)]
        return got

    def test_records_follow_the_floor_on_atlas(self, atlas):
        assert any([self.check_records_follow_the_floor(g) for g in atlas])

    @given(near_complete_graphs())
    def test_records_follow_the_floor(self, g):
        self.check_records_follow_the_floor(g)


class TestSymmetries:
    def test_witness_rotations_stay_valid(self):
        g = make_cycle(6)
        for t in (2, 3, 4, 6):
            w = decide(g, t).witness
            for shift in range(t):
                rotated = EdgeColoring(t, tuple(mod_color(c + shift, t) for c in w.colors))
                assert validate_cyclic(g, rotated).valid

    def test_witness_reflection_stays_valid(self):
        g = make_hypercube(3)
        w = decide(g, 8).witness
        reflected = EdgeColoring(8, tuple(8 + 1 - c for c in w.colors))
        assert validate_cyclic(g, reflected).valid


class TestFeasibleSet:
    def test_square(self):
        fs = feasible_set(make_cycle(4))
        assert fs.members == (2, 3, 4) and fs.exhausted

    def test_hexagon(self):
        fs = feasible_set(make_cycle(6))
        assert fs.members == (2, 3, 4, 6)

    def test_cube(self):
        fs = feasible_set(make_hypercube(3))
        assert fs.members == (3, 4, 5, 6, 7, 8)

    def test_every_witness_validates(self):
        fs = feasible_set(make_complete_tripartite(1, 1, 3))
        g = make_complete_tripartite(1, 1, 3)
        for t, w in fs.witnesses.items():
            assert w.t == t and validate_cyclic(g, w).valid

    def test_members_within_degree_edge_bounds(self):
        for g in [make_cycle(5), make_complete(4), make_path(5),
                  make_complete_bipartite(2, 3)]:
            fs = feasible_set(g)
            delta, m = metrics(g).max_degree, g.edge_count
            assert all(delta <= t <= m or (delta == 2 and t == 2) for t in fs.members)

    def test_parity_cross_check(self):
        for g in [make_complete_tripartite(1, 1, 3), make_cycle(5), make_cycle(7),
                  make_complete(5)]:
            ob = parity_obstruction(g)
            fs = feasible_set(g)
            assert fs.exhausted
            assert not any(ob.excludes(t) for t in fs.members)

    def test_jobs_do_not_change_members(self):
        g = make_cycle(6)
        assert feasible_set(g).members == feasible_set(g, jobs=2).members

    # K4 has 4 t values to search (3-6; it is not Eulerian, so parity excludes
    # none); a fake pool records how many workers start
    @pytest.mark.parametrize("cpus,started", [(3, [3]), (64, [4]), (1, []), (None, [])])
    def test_worker_count_bounded(self, monkeypatch, cpus, started):
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(solver, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cpus)
        fs = feasible_set(make_complete(4), jobs=10**6)
        assert seen == started
        assert fs.members == (3, 4) and fs.exhausted

    def test_jobs_give_the_same_record(self):
        # witnesses and node counts too, not only the members
        g = make_complete(5)
        assert feasible_set(g, jobs=2).to_dict() == feasible_set(g).to_dict()

    def test_graph_serialized_once(self, monkeypatch):
        # bounds.report and the set both name the graph by its digest
        written = []
        real = Graph.to_json
        monkeypatch.setattr(Graph, "to_json", lambda g: written.append(g) or real(g))
        g = make_cycle(6)
        fs = feasible_set(g)
        assert written == [g] and fs.graph_digest == g.digest()

    def test_search_order_built_once_per_graph(self, monkeypatch):
        built = []
        for name in ("_search_order", "_twin_links"):
            real = getattr(solver, name)
            monkeypatch.setattr(solver, name,
                                lambda g, real=real, name=name: built.append(name) or real(g))
        g = make_hypercube(3)
        fs = feasible_set(g, node_budget=200_000)
        searched = [rec for rec in fs.decisions if rec.source == "search"]
        assert len(searched) > 1 and fs.members
        assert sorted(built) == ["_search_order", "_twin_links"]
        # the same records and witnesses as deciding each t on a new object
        for rec in searched:
            out = decide(Graph(g.vertex_count, g.edges), rec.t, node_budget=200_000)
            assert (out.decision, out.nodes_explored) == (rec.decision, rec.nodes_explored)
            assert out.witness == fs.witnesses.get(rec.t)
        assert len(built) == 2 * (1 + len(searched))

    def test_t_hi_caps_range(self):
        fs = feasible_set(make_cycle(6), t_hi=3)
        assert fs.t_hi == 3 and fs.members == (2, 3)

    def test_not_exhausted_under_tiny_budget(self):
        fs = feasible_set(make_complete(7), node_budget=5_000)
        assert not fs.exhausted

    def test_edgeless_graph_has_empty_set(self):
        from intcyclic import Graph
        fs = feasible_set(Graph(3, ()))
        assert fs.members == () and fs.exhausted

    def test_disconnected_triangles(self):
        # a triangle needs its three colors pairwise adjacent on the circle,
        # which pins t to exactly 3; two components do not widen that
        from intcyclic import Graph
        g = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
        fs = feasible_set(g)
        assert fs.exhausted and fs.members == (3,)
        assert oracles.naive_decide(6, g.edges, 4) is False

    def test_isolated_vertices_are_vacuous(self):
        from intcyclic import Graph
        with_iso = Graph(4, ((0, 1), (0, 2), (1, 2)))
        assert feasible_set(with_iso).members == (3,)


class TestExtremal:
    @pytest.mark.parametrize("m", range(3, 9))
    def test_paths(self, m):
        assert extremal(make_path(m)).as_pair() == (2, m - 1)

    def test_k4(self):
        assert extremal(make_complete(4)).as_pair() == (3, 4)

    def test_heptagon(self):
        res = extremal(make_cycle(7))
        assert res.as_pair() == (3, 7)
        assert feasible_set(make_cycle(7)).members == (3, 5, 7)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_stars(self, n):
        assert extremal(make_complete_bipartite(1, n)).as_pair() == (n, n)

    def test_none_for_noncolorable(self):
        from intcyclic import Graph
        res = extremal(Graph(2, ()))
        assert res.as_pair() == (None, None) and res.exhausted

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_bipartite_extremes(self, m, n):
        # least usable count is the larger part size; the wrap construction
        # pushes the greatest to at least m+n
        res = extremal(make_complete_bipartite(m, n))
        assert res.w_c == max(m, n)
        assert res.W_c >= m + n


@pytest.mark.parametrize("g", [make_complete(7), make_cycle(5)], ids=["K7", "C5"])
def test_searched_record_is_decides_outcome(monkeypatch, g):
    # one record per color count: the planner keeps the very object decide()
    # returned (feasible, infeasible or timeout), and extremal() the set
    returned = {}

    def recording_decide(g, t, node_budget=None):
        returned[t] = decide(g, t, node_budget)
        return returned[t]

    monkeypatch.setattr(solver, "decide", recording_decide)
    fs = feasible_set(g, node_budget=20_000)
    searched = [d for d in fs.decisions if d.source == "search"]
    assert [d.t for d in searched] == sorted(returned)
    assert all(d is returned[d.t] for d in searched)
    assert isinstance(extremal(g, node_budget=20_000), solver.FeasibleSet)


def test_seven_clique_gap():
    # 7 and 9 colors both work, but the even count between them is excluded,
    # so the feasible set of the 7-clique has a hole
    k7 = make_complete(7)
    assert decide(k7, 7).decision == FEASIBLE
    assert decide(k7, 9).decision == FEASIBLE
    assert parity_obstruction(k7).excludes(8)


@pytest.fixture(scope="module")
def eulerian_odd_corpus():
    """Every connected graph on 3-6 vertices with all degrees even and an
    odd edge count (up to isomorphism), then the odd cycles C7-C11."""
    from itertools import combinations
    from intcyclic import Graph
    from intcyclic.graphs import is_connected
    seen = set()
    corpus = []
    for n in range(3, 7):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            if len(edges) % 2 == 0:
                continue
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            if any(d == 0 or d % 2 for d in deg):
                continue
            g = Graph(n, edges)
            key = oracles.canonical_edge_set(n, edges)
            if is_connected(g) and key not in seen:
                seen.add(key)
                corpus.append(g)
    return corpus + [make_cycle(n) for n in range(7, 12, 2)]


class TestParityPlanner:
    def test_parity_is_sound_against_search(self, eulerian_odd_corpus):
        assert len(eulerian_odd_corpus) == 9  # 6 graphs on 3-6 vertices, C7, C9, C11
        for g in eulerian_odd_corpus:
            assert parity_obstruction(g).excludes_even
            lo, hi = solver.search_range(g)
            for t in range(lo + lo % 2, hi + 1, 2):
                assert decide(g, t).decision == INFEASIBLE, (g.edges, t)

    def test_excluded_t_is_never_searched(self, monkeypatch):
        searched = []

        def recording_decide(g, t, node_budget=None):
            searched.append(t)
            return decide(g, t, node_budget)

        monkeypatch.setattr(solver, "decide", recording_decide)
        fs = feasible_set(make_complete(7), node_budget=20_000)
        for d in fs.decisions:
            if d.t % 2 == 0:
                assert (d.decision, d.source, d.nodes_explored) == (INFEASIBLE, "parity", 0)
            else:
                assert d.source == "search" and d.nodes_explored > 0
        assert searched == [t for t in range(fs.t_lo, fs.t_hi + 1) if t % 2]
        assert fs.members == (7, 9) and fs.timed_out == (11,)
        assert fs.nodes_explored == sum(d.nodes_explored for d in fs.decisions)
        d = fs.to_dict()
        assert d["decisions"] == [r.to_dict() for r in fs.decisions]
        assert d["timed_out"] == [11] and not d["exhausted"]
        assert "elapsed" not in str(d)

    def test_same_answers_as_searching_every_t(self, eulerian_odd_corpus):
        corpus = eulerian_odd_corpus[:6] + [
            make_complete_tripartite(1, 1, 3), make_cycle(6), make_complete(4),
            make_complete_bipartite(2, 3)]
        for g in corpus:
            fs = feasible_set(g)
            outs = [decide(g, t) for t in range(fs.t_lo, fs.t_hi + 1)]
            assert fs.members == tuple(o.t for o in outs if o.decision == FEASIBLE)
            assert fs.exhausted == all(o.decision != TIMEOUT for o in outs)
            assert fs.exhausted


class TestCertify:
    def test_cycle_gets_witness(self):
        res = certify_noncolorable(make_cycle(6))
        assert isinstance(res, EdgeColoring)
        assert validate_cyclic(make_cycle(6), res).valid

    def test_small_tree_gets_witness(self):
        res = certify_noncolorable(make_path(7))  # 6-edge tree
        assert isinstance(res, EdgeColoring)

    def test_kstar_gets_analytic_certificate(self):
        res = certify_noncolorable(make_kstar(2, 11))
        assert isinstance(res, Certificate)
        assert res.rule == "kstar-511" and res.passed

    def test_big_kstar_analytic(self):
        res = certify_noncolorable(make_kstar(2, 12))
        assert isinstance(res, Certificate) and res.rule == "kstar" and res.passed

    def test_rejected_kstar_gets_witness(self):
        res = certify_noncolorable(make_kstar(1, 1))
        assert isinstance(res, EdgeColoring)

    def test_edgeless_graph_certified_exhaustively(self):
        from intcyclic import Graph
        res = certify_noncolorable(Graph(1, ()))
        assert isinstance(res, Certificate)
        assert res.rule == "exhaustive-search" and res.passed and not res.inconclusive

    def test_timeout_marks_inconclusive(self):
        # a one-node budget stops every t before any decision lands
        res = certify_noncolorable(make_complete(4), node_budget=1)
        assert isinstance(res, Certificate)
        assert res.inconclusive and not res.passed
        assert all(tr["decision"] == TIMEOUT for tr in res.transcripts)

    def test_parity_excluded_t_in_transcripts(self):
        res = certify_noncolorable(make_complete(7), node_budget=1)
        assert isinstance(res, Certificate) and res.inconclusive
        for tr in res.transcripts:
            if tr["t"] % 2 == 0:
                assert tr == {"t": tr["t"], "decision": INFEASIBLE, "source": "parity",
                              "nodes_explored": 0}
            else:
                assert (tr["decision"], tr["source"]) == (TIMEOUT, "search")

    def test_witness_wins_over_earlier_timeouts(self):
        # t=6 is parity-excluded (21 edges, every degree even) and t=7 is
        # found feasible within the tiny budget
        res = certify_noncolorable(make_complete(7), node_budget=3_000)
        assert isinstance(res, EdgeColoring) and res.t == 7


class TestConjectureScan:
    def test_cycles(self):
        report = conjecture_scan([make_cycle(n) for n in range(3, 11)])
        assert not report.counterexamples
        by_n = {r.vertex_count: r for r in report.records}
        for n, r in by_n.items():
            assert r.W_c == n <= r.vertex_count
            if n >= 4:  # the triangle is not triangle-free
                assert r.order_bound_applies and r.order_bound_ok
        assert not by_n[5].gap_free and not by_n[7].gap_free and not by_n[9].gap_free
        assert by_n[3].gap_free and by_n[4].gap_free

    def test_trees_gap_free(self):
        report = conjecture_scan(list(all_trees_up_to(6, min_vertices=2)))
        assert not report.counterexamples
        assert all(r.gap_free for r in report.records)

    def test_k4(self):
        report = conjecture_scan([make_complete(4)])
        r = report.records[0]
        assert r.gap_free and r.W_c == 4 and r.double_order_bound_ok
        assert not r.order_bound_applies  # K4 has triangles

    def test_skipped_on_timeout(self):
        report = conjecture_scan([make_complete(7)], node_budget=2_000)
        assert report.records[0].skipped
        assert not report.counterexamples

    def test_jobs_hand_out_whole_graphs(self):
        corpus = [make_cycle(5), make_complete(4), make_path(4), make_hypercube(3)]
        assert conjecture_scan(corpus, jobs=2).to_dict() == conjecture_scan(corpus).to_dict()

    # a fake pool records the pools that start: the scan starts one for the
    # whole corpus (one per graph would be one per feasible set), and none
    # for one worker
    @pytest.mark.parametrize("jobs,started", [(2, [2]), (10**6, [4]), (1, [])])
    def test_one_pool_per_scan(self, monkeypatch, jobs, started):
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        corpus = [make_cycle(5), make_complete(4), make_path(4), make_cycle(6),
                  make_complete_bipartite(2, 3)]
        want = conjecture_scan(corpus).to_dict()
        monkeypatch.setattr(solver, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: 4)
        report = conjecture_scan(corpus, jobs=jobs)
        assert seen == started
        assert report.to_dict() == want

    def test_one_worker_reads_the_corpus_one_graph_at_a_time(self, monkeypatch):
        events = []

        def corpus():
            for n in (3, 4, 5):
                events.append(("read", n))
                yield make_cycle(n)

        real = solver.feasible_set
        monkeypatch.setattr(solver, "feasible_set",
                            lambda g, **kw: events.append(("solve", g.vertex_count))
                            or real(g, **kw))
        report = conjecture_scan(corpus())
        assert events == [(step, n) for n in (3, 4, 5) for step in ("read", "solve")]
        assert [r.vertex_count for r in report.records] == [3, 4, 5]

    def test_graph_serialized_once(self, monkeypatch):
        written = []
        real = Graph.to_json
        monkeypatch.setattr(Graph, "to_json", lambda g: written.append(g) or real(g))
        g = make_cycle(6)
        report = conjecture_scan([g])
        assert written == [g] and report.records[0].graph_digest == g.digest()
