import concurrent.futures
import functools
import hashlib
import random
import subprocess
import sys
import textwrap
from itertools import count
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

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
from intcyclic.bounds import degree_sum_obstruction, matching_floor, parity_obstruction
from intcyclic.coloring import ValidationResult, Violation, _cyclic_cover_len, mod_color
from intcyclic.graphs import all_trees_up_to, canonical_json, is_connected
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


@pytest.fixture
def pool_starts(monkeypatch):
    """An in-process stand-in for the process pool, at the name _map_tasks
    imports; the list it returns records the worker count of each pool
    started."""
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return seen


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

    # the soundness guard after the search: a witness the validator rejects
    # is an error, never an answer, in either slack mode
    @pytest.mark.parametrize("g,t", [(make_cycle(6), 4), (make_cycle(20), 4)],
                             ids=["slack-2", "slack-16"])
    def test_invalid_witness_is_refused(self, monkeypatch, g, t):
        bad = ValidationResult((Violation("not-proper", vertex=0, color=1),))
        monkeypatch.setattr(solver, "validate_cyclic", lambda g, coloring: bad)
        with pytest.raises(RuntimeError, match="search produced an invalid witness"):
            decide(g, t)

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
    # order, color order and pruning.  The kstar rows sit on both sides of
    # the slack split: m - t = 9 keeps the static order and the 3m // 5
    # coverage gate, and m - t = 8 chooses edges fail first and checks
    # coverage after every placement, as every other row here does
    @pytest.mark.parametrize("g,t,decision,nodes,colors", [
        (make_complete(5), 7, INFEASIBLE, 68, None),
        (make_hypercube(3), 8, FEASIBLE, 50, (1, 2, 3, 8, 7, 1, 3, 7, 5, 4, 6, 5)),
        (make_gdn(4, 4), 10, FEASIBLE, 16, (1, 2, 3, 4, 8, 9, 10, 5, 6, 7, 3, 4)),
        (make_complete_tripartite(1, 2, 3), 8, INFEASIBLE, 90, None),
        (make_complete(6), 8, FEASIBLE, 59,
         (1, 2, 3, 4, 5, 3, 2, 5, 4, 1, 8, 7, 7, 8, 6)),
        (make_tree_hat(make_hub_tree(2, 2)), 5, FEASIBLE, 11, (5, 1, 2, 1, 2, 3, 1, 2, 3, 4)),
        (make_kstar(2, 7), 9, INFEASIBLE, 28_048, None),
        (make_kstar(2, 7), 10, INFEASIBLE, 8_232, None),
    ], ids=["K5", "Q3", "G4-4", "K1-2-3", "K6", "hub-tree-hat", "kstar-2-7-slack9",
            "kstar-2-7-slack8"])
    def test_pinned_node_counts(self, g, t, decision, nodes, colors):
        out = decide(g, t, node_budget=200_000)
        assert (out.decision, out.nodes_explored) == (decision, nodes)
        assert (out.witness.colors if out.witness else None) == colors

    # decided rows of the paper's families, each with its node count: one
    # vertex of degree 500, and the dense end of n = 8, where the coverage
    # cut must reach deep into the order.  Both have a slack m - t above 8,
    # so the order stays static, the coverage gate stays at 3m // 5 and
    # their counts stay exact.  A thin graph at slack 0 keeps its count under
    # the fail-first choice, each choice looking only at the edges beside
    # the edge just placed
    @pytest.mark.parametrize("g,t,budget,decision,nodes", [
        (make_complete_bipartite(2, 500), 502, None, FEASIBLE, 1_002),
        (make_complete(8), 14, 1_000_000, INFEASIBLE, 883_676),
        (make_path(4000), 3999, None, FEASIBLE, 7_996),
        (make_cycle(2000), 2000, None, FEASIBLE, 3_000),
    ], ids=["K2-500", "K8", "P4000", "C2000"])
    def test_scoreboard_rows(self, g, t, budget, decision, nodes):
        out = decide(g, t, node_budget=budget)
        assert (out.decision, out.nodes_explored) == (decision, nodes)

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


def window_entries():
    return sum(map(len, solver._WINDOWS.values()))


@functools.cache
def warm_windows():
    """The window table after a scan of graphs unrelated to the ones tested,
    at a budget that stops some of its searches."""
    solver._WINDOWS.clear()
    conjecture_scan([make_complete(5), make_complete(6), make_hypercube(3), make_cycle(7),
                     make_complete_bipartite(3, 4), make_complete_tripartite(1, 2, 3)],
                    node_budget=2_000)
    return {key: dict(table) for key, table in solver._WINDOWS.items()}


@st.composite
def graphs_up_to_seven(draw):
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, tuple(edges))


class TestWindowTable:
    """decide() reads its allowed() sets from one table per process, keyed on
    (t, degree, spectrum).  A value is a pure function of its key, so what
    the table holds changes no answer, and it is cleared once it holds more
    than solver.WINDOW_TABLE_CAP entries."""

    @staticmethod
    def answers(g, t, budget):
        out = decide(g, t, node_budget=budget)
        return (out.decision, out.source, out.nodes_explored, out.witness,
                feasible_set(g, node_budget=budget).to_dict())

    @given(graphs_up_to_seven(), st.integers(1, 16),
           st.one_of(st.just(1), st.integers(2, 60), st.integers(61, 5_000)))
    @example(make_complete_tripartite(2, 2, 3), 9, 20_000)
    @example(make_complete_tripartite(2, 2, 3), 7, 40)
    @example(make_hypercube(3), 4, 1)
    @example(make_hypercube(3), 6, 20_000)
    @example(make_complete(6), 7, 300)
    @example(make_complete(6), 9, 20_000)
    def test_state_changes_no_answer(self, g, t, budget):
        # budgets of 1 and a few dozen nodes end most searches midway
        solver._WINDOWS.clear()
        cold = self.answers(g, t, budget)
        solver._WINDOWS.clear()
        solver._WINDOWS.update({key: dict(table) for key, table in warm_windows().items()})
        assert self.answers(g, t, budget) == cold
        with mock.patch.object(solver, "WINDOW_TABLE_CAP", 0):  # cleared at every call
            assert self.answers(g, t, budget) == cold

    def test_entries_are_fresh_windows(self, atlas):
        solver._WINDOWS.clear()
        conjecture_scan([g for g in atlas if g.vertex_count <= 6])
        assert window_entries() > 100
        for (t, d), table in solver._WINDOWS.items():
            for mask, free in table.items():
                assert free == solver.allowed(mask, d, t) & ~mask, (t, d, mask)

    def test_a_repeated_search_computes_no_window(self, monkeypatch):
        calls = []
        real = solver.allowed
        monkeypatch.setattr(solver, "allowed", lambda *args: calls.append(args) or real(*args))
        solver._WINDOWS.clear()
        first = decide(make_complete(5), 7)
        assert calls
        calls.clear()
        again = decide(make_complete(5), 7)  # a new graph object: nothing cached on it
        assert calls == [] and (again.nodes_explored, again.witness) == \
            (first.nodes_explored, first.witness)

    def test_cleared_once_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(solver, "WINDOW_TABLE_CAP", 100)
        small = make_cycle(5)
        solver._WINDOWS.clear()
        decide(small, 3)
        alone = {key: dict(table) for key, table in solver._WINDOWS.items()}
        decide(small, 4)  # under the cap: kept, and added to
        assert window_entries() > sum(map(len, alone.values()))
        decide(make_complete_bipartite(2, 40), 42)  # 129 entries of its own
        assert window_entries() > solver.WINDOW_TABLE_CAP
        decide(small, 3)  # starts from an empty table
        assert solver._WINDOWS == alone

    def test_no_table_for_a_degree_without_edges(self):
        # a triangle and two isolated vertices: tables for degree 2 only
        g = Graph(5, ((0, 1), (0, 2), (1, 2)))
        solver._WINDOWS.clear()
        for t in (1, 2, 3):
            decide(g, t)
        assert sorted(solver._WINDOWS) == [(1, 2), (2, 2), (3, 2)]
        assert solver._search_plan(g).degrees == {2}


def reference(g, t, budget):
    """oracles.reference_decide in the search's edge order
    (oracles.fail_first_edge_order), with the fail-first rule where decide()
    uses it: at a slack m - t of 8 or less."""
    order = oracles.fail_first_edge_order(g.vertex_count, g.edges)
    return oracles.reference_decide(g.vertex_count, g.edges, t, budget, order,
                                    fail_first=g.edge_count - t <= 8)


def check_against_reference(g, budget):
    """Every t of the feasible set against the kernel without the twin cut
    and the coverage cut (reference()) at the same budget: where the
    reference decides, the same decision and the same witness; everywhere,
    no more nodes.  A t that a theorem excludes must be infeasible by the
    reference too, and decide() is still run there to check both cuts.
    Returns the (reference, new) node totals."""
    fs = feasible_set(g, node_budget=budget)
    totals = [0, 0]
    for rec in fs.decisions:
        want, ref_nodes, ref_colors = reference(g, rec.t, budget)
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
        assert list(solver._search_plan(g).twin) == links

    @pytest.mark.parametrize("g", [make_complete_tripartite(3, 1, 2), make_gdn(4, 4),
                                   Graph(5, ((0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))],
                             ids=["K3-1-2", "G4-4", "hub-2"])
    def test_star_fills_the_first_positions(self, g):
        # the links index search positions by a's neighbours in adjacency order
        a = g.degrees.index(max(g.degrees))
        order = solver._search_plan(g).order
        far = [sum(g.edges[e]) - a for e in order[:g.degrees[a]]]
        assert a in g.edges[order[0]] and far == list(g.adjacency[a])

    @pytest.mark.parametrize("g", [make_cycle(5), make_cycle(6), make_cycle(7),
                                   make_hypercube(3)], ids=["C5", "C6", "C7", "Q3"])
    def test_without_twins_the_search_is_unchanged(self, g):
        # no twin links, so only the coverage cut can save a node against the
        # reference, which follows the same fail-first rule at slack 8 or
        # less; the reflection cap binds on several of these.  Coverage
        # saves some (C5 at t = 4, C6 at 5, C7 at 4 and 6, Q3 at 5 to 9),
        # and never a witness
        assert solver._search_plan(g).twin == ()
        lo, hi = solver.search_range(g)
        for t in range(lo, hi + 1):
            out = decide(g, t)
            want, ref_nodes, ref_colors = reference(g, t, 10**6)
            assert (out.decision, out.witness.colors if out.witness else None) == \
                (want, ref_colors), t
            assert out.nodes_explored <= ref_nodes, t

    def test_agrees_with_reference_on_atlas(self, atlas):
        # every connected graph on up to 6 vertices, every t of its range;
        # the reference decides all of them within the budget
        graphs = [g for g in atlas if 1 <= g.vertex_count <= 6 and is_connected(g)]
        assert len(graphs) == 143
        ref, new = map(sum, zip(*(check_against_reference(g, 200_000) for g in graphs)))
        assert new < ref // 3
        # exact: a change that only speeds the kernel up leaves every node count as it is
        assert (ref, new) == (92_813, 26_114)

    def test_bfs_order_keeps_every_decision_on_atlas(self, atlas):
        # the reference in the old BFS order and in the search's order decide
        # every t of every connected graph on up to 6 vertices the same way
        graphs = [g for g in atlas if 1 <= g.vertex_count <= 6 and is_connected(g)]
        assert len(graphs) == 143
        for g in graphs:
            n, edges = g.vertex_count, g.edges
            orders = (oracles.bfs_edge_order(n, edges), oracles.fail_first_edge_order(n, edges))
            lo, hi = solver.search_range(g)
            for t in range(lo, hi + 1):
                bfs, fail_first = (oracles.reference_decide(n, edges, t, 200_000, order)[0]
                                   for order in orders)
                assert bfs == fail_first != TIMEOUT, (edges, t)

    @given(hubs_with_planted_twins())
    def test_planted_twins_agree_with_reference(self, g):
        assert solver._search_plan(g).twin
        check_against_reference(g, 3_000)

    def test_reference_check_catches_an_unsound_order(self, monkeypatch):
        # ordering every star edge, twins or not, loses the only witnesses of
        # a hub with a pendant pair and a triangle at t = 4
        g = Graph(5, ((0, 4), (1, 4), (2, 3), (2, 4), (3, 4)))
        plan = solver._search_plan(g)
        assert plan.twin == (-1, 0, -1, 2)
        monkeypatch.setitem(vars(g), "_search_plan", plan._replace(twin=(-1, 0, 1, 2)))
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


def frozen_output_corpus():
    """The acceptance sweep's families with K_{2,2,3}, every tree on 2-8
    vertices, and 200 seeded random connected graphs on 5-7 vertices: a
    random tree plus a uniform share of the other pairs, so dense graphs
    that take thousands of nodes per t at a 20k budget are among them.
    Listed here rather than read from the acceptance suite, so that growing
    the sweep moves no digest."""
    graphs = [make_cycle(n) for n in range(3, 13)] + [make_path(m) for m in range(3, 9)]
    graphs += all_trees_up_to(8, min_vertices=2)
    graphs += [make_hypercube(2), make_hypercube(3)] + [make_complete(n) for n in range(2, 7)]
    graphs += [make_complete_tripartite(*parts)
               for parts in ((1, 1, 3), (1, 2, 3), (2, 2, 2), (1, 1, 5), (2, 2, 3))]
    graphs += [make_complete_bipartite(a, b) for a, b in ((2, 2), (2, 3), (2, 4), (3, 3))]
    graphs += [make_complete_bipartite(1, n) for n in range(2, 7)]
    graphs += [make_gdn(d, n) for d, n in ((3, 4), (3, 5), (4, 3), (4, 4), (2, 6))]
    graphs += [make_kstar(1, 1), make_kstar(1, 2)]
    rng = random.Random(2027)
    for _ in range(200):
        n = rng.randint(5, 7)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        edges.update(rng.sample(pairs, rng.randint(0, len(pairs))))
        graphs.append(Graph(n, tuple(sorted(edges))))
    return graphs


def test_feasible_set_bytes_are_frozen():
    # the sha256 prefix of every feasible set's bytes, witnesses included,
    # with its node and timeout totals: a change meant to keep every output
    # moves none of them.  Unlike the atlas agreement test, it needs no
    # networkx
    digest = hashlib.sha256()
    nodes = timeouts = 0
    for g in frozen_output_corpus():
        fs = feasible_set(g, node_budget=20_000)
        digest.update(canonical_json(fs.to_dict()).encode())
        nodes += fs.nodes_explored
        timeouts += len(fs.timed_out)
    assert (nodes, timeouts, digest.hexdigest()[:16]) == (320_805, 0, "422e9684d318d8a1")


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
        # 10 edges, at most 2 per color class: t = 4 cannot color them all,
        # and the degree-sum obstruction, which contains that count, takes
        # t = 4 and 7-9
        searched = []

        def recording_decide(g, t, node_budget=None):
            searched.append(t)
            return decide(g, t, node_budget)

        monkeypatch.setattr(solver, "decide", recording_decide)
        fs = feasible_set(make_complete(5))
        assert fs.decisions[0] == solver.SolveOutcome(INFEASIBLE, 4, None, 0, source="degree-sum")
        assert searched == [5, 6] and fs.t_hi == 9
        assert [d.source for d in fs.decisions[3:]] == ["degree-sum"] * 3
        assert fs.members == (5, 6) and fs.exhausted

    def test_sound_against_search(self):
        # K_5 minus an edge: 9 > 4 * 2 edges, and an exhaustive search agrees
        g = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)][1:])
        fs = feasible_set(g)
        assert fs.decisions[0] == solver.SolveOutcome(INFEASIBLE, 4, None, 0, source="degree-sum")
        order = oracles.fail_first_edge_order(5, g.edges)
        assert oracles.reference_decide(5, g.edges, 4, 10**6, order)[0] == INFEASIBLE

    def test_in_certificate_transcript(self):
        res = certify_noncolorable(make_complete(5), node_budget=1)
        assert isinstance(res, Certificate) and res.inconclusive
        assert res.transcripts[0] == {"t": 4, "decision": INFEASIBLE, "source": "degree-sum",
                                      "nodes_explored": 0}
        assert "degree-sum obstruction" in res.premises[0].condition

    @staticmethod
    def check_records_follow_the_floor(g):
        # the floor against its definition, then the planner's records
        # below it: every t in [lo, floor) is a degree-sum record; a budget
        # of 1 node suffices, only the sources are compared
        floor = matching_floor(g)
        assert floor == next(t for t in count() if g.edge_count <= t * (g.vertex_count // 2))
        lo, hi = solver.search_range(g)
        below = [rec for rec in solver._plan(g, lo, hi, 1) if rec.t < floor]
        assert all(rec == solver.SolveOutcome(INFEASIBLE, rec.t, None, 0, source="degree-sum")
                   for rec in below)
        return below

    def test_records_follow_the_floor_on_atlas(self, atlas):
        assert any([self.check_records_follow_the_floor(g) for g in atlas])

    @given(near_complete_graphs())
    def test_records_follow_the_floor(self, g):
        self.check_records_follow_the_floor(g)


class TestDegreeSumPlanner:
    def test_complete_nine_scoreboard(self):
        # K_9 (36 edges, every degree 8): no degree sum is 36 mod t for these
        # t, so no search runs; t = 8 is also past matching capacity (36 >
        # 8 * 4), and t = 16 times out at 2M nodes by search alone
        fs = feasible_set(make_complete(9), node_budget=1)
        settled = [d for d in fs.decisions if d.source == "degree-sum"]
        assert [d.t for d in settled] == [8, 11, 13, 15, 16, 17, 19, 21]
        assert all((d.decision, d.nodes_explored) == (INFEASIBLE, 0) for d in settled)

    @staticmethod
    def check_records_follow_the_rule(g):
        # the degree-sum records are the t that the rule excludes
        lo, hi = solver.search_range(g)
        ob = degree_sum_obstruction(g)
        records = list(solver._plan(g, lo, hi, 1))
        got = [rec.t for rec in records if rec.source == "degree-sum"]
        assert got == [t for t in range(lo, hi + 1) if ob.excludes(t)]
        assert all((rec.decision, rec.nodes_explored) == (INFEASIBLE, 0)
                   for rec in records if rec.source == "degree-sum")
        return got

    def test_records_follow_the_rule_on_atlas(self, atlas):
        assert sum(len(self.check_records_follow_the_rule(g)) for g in atlas) > 100

    @given(near_complete_graphs())
    def test_records_follow_the_rule(self, g):
        self.check_records_follow_the_rule(g)

    def test_atlas_nodes_and_settled_t(self, atlas):
        # every connected graph on 2-7 vertices at a 1M budget: the rule
        # settles 295 t: 92 that parity also excludes, 26 more below the
        # matching floor, and 177 that the search proved infeasible in
        # 915,018 nodes
        graphs = [g for g in atlas if g.vertex_count >= 2 and is_connected(g)]
        assert len(graphs) == 995
        sets = [feasible_set(g, node_budget=1_000_000) for g in graphs]
        settled = [d for fs in sets for d in fs.decisions if d.source == "degree-sum"]
        assert len(settled) == 295
        assert sum(fs.nodes_explored for fs in sets) == 1_112_989
        assert sum(len(fs.timed_out) for fs in sets) == 0


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

    # K4 has 4 t values to search (3-6; the degree-sum obstruction excludes
    # none); a fake pool records how many workers start
    @pytest.mark.parametrize("cpus,started", [(3, [3]), (64, [4]), (1, []), (None, [])])
    def test_worker_count_bounded(self, monkeypatch, pool_starts, cpus, started):
        # a platform without an affinity set: the host's count caps workers
        monkeypatch.delattr(solver.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: cpus)
        fs = feasible_set(make_complete(4), jobs=10**6)
        assert pool_starts == started
        assert fs.members == (3, 4) and fs.exhausted

    # a process limited to a few of the host's 64 CPUs starts a worker per
    # CPU it may run on, not per host CPU
    @pytest.mark.parametrize("cpus,started", [(3, [3]), (2, [2]), (1, [])])
    def test_worker_count_follows_affinity(self, monkeypatch, pool_starts, cpus, started):
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        monkeypatch.setattr(solver.os, "cpu_count", lambda: 64)
        fs = feasible_set(make_complete(4), jobs=10**6)
        assert pool_starts == started
        assert fs.members == (3, 4) and fs.exhausted

    # a fresh interpreter, since pytest or hypothesis may already have
    # imported concurrent.futures here; it sees two usable CPUs, so that
    # jobs=2 starts a pool on any host
    def test_pool_module_loads_only_when_a_pool_starts(self):
        code = textwrap.dedent("""
            import os, sys
            sys.path.insert(0, sys.argv[1])
            def loaded():
                return sorted(m for m in sys.modules
                              if m.split(".")[0] in ("concurrent", "multiprocessing"))
            import intcyclic, intcyclic.cli
            assert not loaded(), loaded()
            g = intcyclic.make_complete(5)
            one = intcyclic.solver.feasible_set(g).to_dict()
            assert not loaded(), loaded()
            os.sched_getaffinity = lambda pid: {0, 1}
            assert intcyclic.solver.feasible_set(g, jobs=2).to_dict() == one
            assert "concurrent.futures.process" in sys.modules
        """)
        src = str(Path(solver.__file__).parent.parent)
        proc = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

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
        # the plan reads the start vertex's twins once per build
        built = []
        real = solver.first_twins
        monkeypatch.setattr(solver, "first_twins", lambda *args: built.append(args) or real(*args))
        g = make_hypercube(3)
        fs = feasible_set(g, node_budget=200_000)
        searched = [rec for rec in fs.decisions if rec.source == "search"]
        assert len(searched) > 1 and fs.members
        assert len(built) == 1
        # the same records and witnesses as deciding each t on a new object
        for rec in searched:
            out = decide(Graph(g.vertex_count, g.edges), rec.t, node_budget=200_000)
            assert (out.decision, out.nodes_explored) == (rec.decision, rec.nodes_explored)
            assert out.witness == fs.witnesses.get(rec.t)
        assert len(built) == 1 + len(searched)

    def test_t_hi_caps_range(self):
        fs = feasible_set(make_cycle(6), t_hi=3)
        assert fs.t_hi == 3 and fs.members == (2, 3)

    def test_not_exhausted_under_tiny_budget(self):
        fs = feasible_set(make_complete(8), node_budget=5_000)
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


# K_5 joined to a hub of m pendant leaves, which the kstar rules (m = 11 and
# m >= 12) do not reach: each range ends at |E|, so no upper bound settles
# these sets, and a set with no member refutes every t by exhaustive search
@pytest.mark.parametrize("m,members,nodes", [
    (6, (7,), 57_626),
    (7, (), 61_504),
    (8, (), 68_393),
    (9, (), 84_958),
    (10, (), 117_342),
], ids=["m6", "m7", "m8", "m9", "m10"])
def test_small_kstar_feasible_sets(m, members, nodes):
    fs = feasible_set(make_kstar(2, m), node_budget=1_000_000)
    assert fs.exhausted
    assert (fs.members, fs.nodes_explored) == (members, nodes)


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
        # 21 edges, every degree 6: every degree sum is even, and none is
        # 21 mod 11 or mod 13
        for d in fs.decisions:
            if d.t % 2 == 0 or d.t in (11, 13):
                assert (d.decision, d.source, d.nodes_explored) == (INFEASIBLE, "degree-sum", 0)
            else:
                assert d.source == "search" and d.nodes_explored > 0
        assert searched == [7, 9, 15] and fs.t_hi == 15
        assert fs.members == (7, 9) and fs.timed_out == ()
        assert fs.nodes_explored == sum(d.nodes_explored for d in fs.decisions)
        d = fs.to_dict()
        assert d["decisions"] == [r.to_dict() for r in fs.decisions]
        assert d["timed_out"] == [] and d["exhausted"]
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
            if tr["t"] % 2 == 0 or tr["t"] in (11, 13):
                assert tr == {"t": tr["t"], "decision": INFEASIBLE, "source": "degree-sum",
                              "nodes_explored": 0}
            else:
                assert (tr["decision"], tr["source"]) == (TIMEOUT, "search")

    def test_witness_wins_over_earlier_timeouts(self):
        # t=6 is excluded with no search (21 edges, every degree even) and
        # t=7 is found feasible within the tiny budget
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
        report = conjecture_scan([make_complete(8)], node_budget=2_000)
        assert report.records[0].skipped
        assert not report.counterexamples

    def test_jobs_hand_out_whole_graphs(self):
        corpus = [make_cycle(5), make_complete(4), make_path(4), make_hypercube(3)]
        assert conjecture_scan(corpus, jobs=2).to_dict() == conjecture_scan(corpus).to_dict()

    # a fake pool records the pools that start: the scan starts one for the
    # whole corpus (one per graph would be one per feasible set), and none
    # for one worker
    @pytest.mark.parametrize("jobs,started", [(2, [2]), (10**6, [4]), (1, [])])
    def test_one_pool_per_scan(self, monkeypatch, pool_starts, jobs, started):
        corpus = [make_cycle(5), make_complete(4), make_path(4), make_cycle(6),
                  make_complete_bipartite(2, 3)]
        want = conjecture_scan(corpus).to_dict()
        monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        report = conjecture_scan(corpus, jobs=jobs)
        assert pool_starts == started
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
