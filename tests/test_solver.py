import pytest

from intcyclic import (
    EdgeColoring,
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
from intcyclic.bounds import parity_obstruction
from intcyclic.coloring import _cyclic_cover_len, mod_color
from intcyclic.graphs import all_trees_up_to
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
        (make_complete(5), 7, INFEASIBLE, 629, None),
        (make_hypercube(3), 8, FEASIBLE, 196, (1, 2, 3, 8, 7, 1, 3, 7, 5, 4, 6, 5)),
        (make_gdn(4, 4), 10, FEASIBLE, 135, (1, 2, 3, 4, 8, 9, 10, 5, 6, 7, 3, 4)),
        (make_complete_tripartite(1, 2, 3), 8, INFEASIBLE, 987, None),
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

    # C5 has 4 t values to decide; a fake pool records how many workers start
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
        fs = feasible_set(make_cycle(5), jobs=10**6)
        assert seen == started
        assert fs.members == (3, 5) and fs.exhausted

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


def test_seven_clique_gap():
    # 7 and 9 colors both work, but the even count between them is excluded,
    # so the feasible set of the 7-clique has a hole
    k7 = make_complete(7)
    assert decide(k7, 7).decision == FEASIBLE
    assert decide(k7, 9).decision == FEASIBLE
    assert parity_obstruction(k7).excludes(8)


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

    def test_witness_wins_over_earlier_timeouts(self):
        # t=6 times out under a tiny budget but t=7 is found feasible anyway
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
