from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from intcyclic import (
    Graph,
    GraphError,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hub_tree,
    make_hypercube,
    make_kstar,
    make_path,
    metrics,
)
from intcyclic.bounds import (
    DegreeSumObstruction,
    bound_bipartite_diam,
    bound_general,
    bound_shortest_paths,
    bound_triangle_free,
    cycle_feasible_set,
    degree_sum_obstruction,
    k2n_interval_bound,
    matching_floor,
    parity_obstruction,
    report,
    tree_feasible_set,
    tree_m,
)
from intcyclic import graphs
from intcyclic.graphs import all_trees_up_to, enumerate_trees

import oracles


def double_star():
    # adjacent centers 0-1, three leaves each
    return Graph(8, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)))


class TestUpperBounds:
    def test_triangle_free_cycle_sharp(self):
        assert bound_triangle_free(make_cycle(5)) == 5

    def test_triangle_free_rejects_k4(self):
        assert bound_triangle_free(make_complete(4)) is None

    def test_triangle_free_cube(self):
        assert bound_triangle_free(make_hypercube(3)) == 9

    def test_general_k2_sharp(self):
        assert bound_general(make_complete(2)) == 1

    def test_general_k3_sharp(self):
        assert bound_general(make_complete(3)) == 3

    def test_general_k5(self):
        assert bound_general(make_complete(5)) == 9

    def test_general_rejects_disconnected(self):
        assert bound_general(Graph(4, ((0, 1), (2, 3)))) is None

    def test_shortest_paths_cycle(self):
        # longest shortest path in C5 has 3 vertices, all of degree 2
        assert bound_shortest_paths(make_cycle(5)) == 7

    def test_shortest_paths_small_path(self):
        assert bound_shortest_paths(make_path(3)) == 3

    def test_shortest_paths_takes_heaviest_tied_route(self):
        # pair (0,2) has two tied routes: through 1 (sum 3) or through the
        # degree-4 hub 3 (sum 5); every other pair stays at sum <= 4, so the
        # per-pair maximization is what pushes the bound to 1 + 2*5
        g = Graph(6, ((0, 1), (1, 2), (0, 3), (2, 3), (3, 4), (3, 5)))
        assert bound_shortest_paths(g) == 11

    @pytest.mark.parametrize("g", [make_cycle(5), make_cycle(8), make_path(6),
                                   make_hypercube(3), make_complete(5),
                                   make_complete_bipartite(2, 4), double_star()])
    def test_shortest_paths_within_diameter_cap(self, g):
        m = metrics(g)
        cap = 1 + 2 * (m.diameter + 1) * (m.max_degree - 1)
        assert bound_shortest_paths(g) <= cap

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bipartite_diam_cube_formula(self, n):
        assert bound_bipartite_diam(make_hypercube(n)) == 2 * n * n - 2 * n + 1

    def test_bipartite_diam_rejects_odd_cycle(self):
        assert bound_bipartite_diam(make_complete(3)) is None


def test_atlas_bounds_are_sound(atlas):
    """Every connected graph on 2-6 vertices, every t in [1, |E|] decided by
    search with no bound consulted: the largest usable t is within every
    applicable bound, neither parity nor the degree-sum obstruction excludes
    a usable t, and the search agrees with full enumeration where t^|E| is
    small."""
    from intcyclic.solver import FEASIBLE, TIMEOUT, decide
    graphs_checked = 0
    for g in atlas:
        if not 2 <= g.vertex_count <= 6 or metrics(g).components != 1:
            continue
        graphs_checked += 1
        outcomes = {t: decide(g, t).decision for t in range(1, g.edge_count + 1)}
        assert TIMEOUT not in outcomes.values()
        usable = [t for t, d in outcomes.items() if d == FEASIBLE]
        for entry in report(g).entries:
            if entry.applicable:
                assert max(usable) <= entry.value, (g.edges, entry.name)
        parity = parity_obstruction(g)
        assert not any(parity.excludes(t) for t in usable), g.edges
        degree_sum = degree_sum_obstruction(g)
        assert not any(degree_sum.excludes(t) for t in usable), g.edges
        for t, d in outcomes.items():
            if t ** g.edge_count <= 1000:
                assert (d == FEASIBLE) == oracles.naive_decide(g.vertex_count, g.edges, t)
    assert graphs_checked == 142


class TestParity:
    def test_k7_excludes_even(self):
        ob = parity_obstruction(make_complete(7))
        assert ob.excludes_even and ob.excludes(8) and not ob.excludes(7)

    def test_tripartite_excludes_even(self):
        from intcyclic import make_complete_tripartite
        ob = parity_obstruction(make_complete_tripartite(1, 1, 3))
        assert ob.excludes_even
        assert ob.description == "all even t"

    def test_even_cycle_excludes_nothing(self):
        ob = parity_obstruction(make_cycle(6))
        assert not ob.excludes_even and ob.description == "nothing excluded"

    def test_non_eulerian_excludes_nothing(self):
        assert not parity_obstruction(make_path(4)).excludes_even


def all_graphs_up_to(max_vertices):
    """Every labelled graph on 1..max_vertices vertices, disconnected ones
    and those with isolated vertices included."""
    for n in range(1, max_vertices + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))


@st.composite
def any_graphs(draw, max_vertices=9):
    """Any graph on 1..max_vertices vertices, disconnected ones and isolated
    vertices included."""
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, tuple(sorted(draw(st.sets(st.sampled_from(pairs))) if pairs else ())))


def circulant(n, steps):
    return Graph(n, tuple(sorted({tuple(sorted((v, (v + s) % n)))
                                  for v in range(n) for s in steps})))


class TestDegreeSum:
    @pytest.mark.parametrize("n,excluded", [
        (5, [4, 7, 8, 9]),
        (7, [6, 8, 10, 11, 12, 13, 14]),
        (9, [8, 11, 13, 15, 16, 17, 19, 21]),
    ])
    def test_complete_graphs(self, n, excluded):
        # K_n has n(n-1)/2 edges and every degree n-1; range [n-1, 3n-6]
        ob = degree_sum_obstruction(make_complete(n))
        assert [t for t in range(n - 1, 3 * n - 5) if ob.excludes(t)] == excluded

    def test_sums_of_a_degree_class(self):
        # five vertices of degree 4: the sums 0, 4, ..., 20; an isolated
        # vertex adds none
        k5 = make_complete(5)
        ob = degree_sum_obstruction(k5)
        assert ob == DegreeSumObstruction(10, "1000" * 5 + "1")
        assert degree_sum_obstruction(Graph(6, k5.edges)) == ob

    def test_edgeless_and_one_color(self):
        assert not degree_sum_obstruction(Graph(3, ())).excludes(1)
        assert not degree_sum_obstruction(make_path(2)).excludes(1)

    @given(any_graphs())
    def test_agrees_with_every_choice_of_signs(self, g):
        ob = degree_sum_obstruction(g)
        for t in range(1, 2 * g.edge_count + 2):
            assert ob.excludes(t) == (not oracles.signs_fit(g.degrees, t)), (g.edges, t)

    def test_one_large_degree_class(self):
        # 20001 vertices of degree 2: the even sums up to 40002, in 15 shifts
        ob = degree_sum_obstruction(make_cycle(20_001))
        assert ob.sums == "10" * 20_001 + "1"
        assert ob.excludes(2) and not ob.excludes(3) and not ob.excludes(20_001)
        assert ob.excludes(20_000)  # the sums are even and 20001 + 20000j is odd

    # soundness: no usable t is excluded, on graphs whose usable t are known
    def test_cycles_keep_every_member(self):
        for n in range(3, 60):
            ob = degree_sum_obstruction(make_cycle(n))
            assert not any(ob.excludes(t) for t in cycle_feasible_set(n)), n

    def test_trees_keep_every_member(self):
        trees = list(all_trees_up_to(9, min_vertices=2))
        assert len(trees) == 94
        for tree in trees:
            ob = degree_sum_obstruction(tree)
            assert not any(ob.excludes(t) for t in tree_feasible_set(tree)), tree.edges

    def test_constructions_keep_their_t(self):
        # every construction's own t, and each fold of an interval one
        from intcyclic import constructions, validate_cyclic
        params = {
            "gdn": [(d, n) for d in range(2, 6) for n in range(3, 9)],
            "complete-odd": [(n,) for n in range(1, 7)],
            "bipartite-cyclic": [(m, n) for m in range(2, 7) for n in range(2, 7)],
            "bipartite-interval": [(m, n) for m in range(1, 7) for n in range(1, 7)],
            "tripartite": [(k, l, m) for k in range(1, 5) for l in range(k, 5)
                           for m in range(l, 5)],
            "hypercube-cyclic": [(n,) for n in range(2, 7)],
            "hypercube-interval": [(n,) for n in range(2, 8)],
        }
        assert params.keys() == constructions.FAMILIES.keys()
        for family, rows in params.items():
            build = constructions.FAMILIES[family][1]
            for p in rows:
                g, col, *_ = build(*p)
                ob = degree_sum_obstruction(g)
                assert not ob.excludes(col.t), (family, p)
                if family not in constructions._INTERVAL_FAMILIES:
                    continue
                for t in range(g.max_degree(), col.t):
                    assert validate_cyclic(g, constructions.mod_reduce(g, col, t)).valid
                    assert not ob.excludes(t), (family, p, t)

    def test_small_graphs_keep_every_witnessed_t(self):
        # every labelled graph on up to 5 vertices, disconnected ones and
        # isolated vertices included, decided by a search that ignores the rule
        from intcyclic.solver import FEASIBLE, decide
        witnessed = 0
        for g in all_graphs_up_to(5):
            ob = degree_sum_obstruction(g)
            for t in range(max(1, g.max_degree()), g.edge_count + 1):
                if decide(g, t).decision == FEASIBLE:
                    witnessed += 1
                    assert not ob.excludes(t), (g.vertex_count, g.edges, t)
        assert witnessed > 1000

    @given(any_graphs(max_vertices=6))
    def test_a_witness_passes_the_rule(self, g):
        from intcyclic.solver import FEASIBLE, decide
        ob = degree_sum_obstruction(g)
        for t in range(max(1, g.max_degree()), g.edge_count + 1):
            if decide(g, t, node_budget=2_000).decision == FEASIBLE:
                assert not ob.excludes(t), (g.vertex_count, g.edges, t)

    # the rule contains parity, the degree-gcd rule and, from t = max
    # degree on, matching capacity
    @staticmethod
    def check_contains_parity_and_gcd_rule(graphs):
        counts = Counter()
        for g in graphs:
            ob, parity = degree_sum_obstruction(g), parity_obstruction(g)
            lo, floor = max(1, g.max_degree()), matching_floor(g)
            for t in range(1, g.edge_count + 2):
                by_gcd = oracles.gcd_rule_excludes(g.degrees, g.edge_count, t)
                by_matching = lo <= t < floor
                counts.update(parity=parity.excludes(t), gcd=by_gcd,
                              matching=by_matching, rule=ob.excludes(t))
                if parity.excludes(t) or by_gcd or by_matching:
                    assert ob.excludes(t), (g.vertex_count, g.edges, t)
        return counts

    def test_contains_parity_and_gcd_rule(self):
        # K_5 is 4-regular with 10 = 2 (mod 4) edges: the gcd rule takes
        # every t = 0 (mod 4); odd circulants C_n(1, 2) are the same
        graphs = list(all_graphs_up_to(5)) + [make_complete(n) for n in range(6, 13)]
        graphs += [make_hypercube(n) for n in range(1, 6)]
        graphs += [make_cycle(n) for n in range(6, 16)]
        graphs += [circulant(n, (1, 2)) for n in range(5, 16, 2)]
        counts = self.check_contains_parity_and_gcd_rule(graphs)
        assert counts["parity"] > 100 and counts["gcd"] > counts["parity"]
        assert counts["rule"] > counts["gcd"] and counts["matching"] > 0
        k5 = make_complete(5)
        assert degree_sum_obstruction(k5).excludes(8) and not parity_obstruction(k5).excludes(8)

    def test_contains_parity_and_gcd_rule_on_atlas(self, atlas):
        counts = self.check_contains_parity_and_gcd_rule(atlas)
        assert counts["rule"] > counts["gcd"] > counts["parity"] > 0
        assert counts["matching"] > 0

    @given(any_graphs())
    def test_contains_parity_gcd_and_matching_rules(self, g):
        # isolated vertices included: the matching proof counts only the
        # vertices of positive degree
        self.check_contains_parity_and_gcd_rule([g])


class TestCycleFormula:
    def test_odd(self):
        assert cycle_feasible_set(5) == (3, 5)
        assert cycle_feasible_set(9) == (3, 5, 7, 9)

    def test_multiple_of_four(self):
        assert cycle_feasible_set(4) == (2, 3, 4)
        assert cycle_feasible_set(8) == (2, 3, 4, 5, 6, 8)

    def test_even_not_multiple_of_four(self):
        assert cycle_feasible_set(6) == (2, 3, 4, 6)
        assert cycle_feasible_set(10) == (2, 3, 4, 5, 6, 8, 10)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            cycle_feasible_set(2)

    @pytest.mark.parametrize("n", range(13, 17))
    def test_matches_solver_beyond_acceptance_range(self, n):
        from intcyclic.solver import feasible_set
        fs = feasible_set(make_cycle(n))
        assert fs.exhausted and fs.members == cycle_feasible_set(n)


class TestTreeMetrics:
    def test_path_endpoints(self):
        assert oracles.tree_lp(make_path(5), 0, 4) == 4

    def test_star_leaf_pair(self):
        g = make_complete_bipartite(1, 4)
        assert oracles.tree_lp(g, 1, 2) == 4  # 2 path edges + 2 remaining pendants

    def test_double_star_across(self):
        assert oracles.tree_lp(double_star(), 2, 5) == 7

    def test_lp_matches_degree_sum_oracle(self):
        for tree in all_trees_up_to(7, min_vertices=2):
            for u in range(tree.vertex_count):
                for v in range(u + 1, tree.vertex_count):
                    assert oracles.tree_lp(tree, u, v) == \
                        oracles.lp_by_degree_sum(tree.vertex_count, tree.edges, u, v)

    def test_lp_rejects_non_tree(self):
        with pytest.raises(GraphError):
            oracles.tree_lp(make_cycle(4), 0, 2)
        with pytest.raises(ValueError):
            oracles.tree_lp(make_path(3), 1, 1)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_m_of_paths(self, m):
        assert tree_m(make_path(m)) == m - 1

    @pytest.mark.parametrize("k", range(2, 7))
    def test_m_of_stars(self, k):
        assert tree_m(make_complete_bipartite(1, k)) == k

    def test_m_of_hub_tree(self):
        assert tree_m(make_hub_tree(10, 10)) == 30

    @pytest.mark.parametrize("n", range(2, 9))
    def test_m_is_max_pair_metric(self, n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for tree in enumerate_trees(n):
            assert tree_m(tree) == max(oracles.tree_lp(tree, u, v) for u, v in pairs) == \
                max(oracles.lp_by_degree_sum(n, tree.edges, u, v) for u, v in pairs)

    def test_feasible_interval(self):
        assert tree_feasible_set(make_path(5)) == (2, 3, 4)
        assert tree_feasible_set(make_complete_bipartite(1, 3)) == (3,)

    def test_feasible_rejects_non_tree(self):
        with pytest.raises(GraphError):
            tree_feasible_set(make_cycle(5))


class TestEvenCompleteBound:
    @pytest.mark.parametrize("n,want", [(1, 1), (2, 4), (3, 7), (4, 11), (6, 18)])
    def test_values(self, n, want):
        # n = p * 2^q with p odd: 4n - 2 - p - q
        assert k2n_interval_bound(n) == want

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            k2n_interval_bound(0)


class TestReport:
    def test_cycle_best_upper(self):
        rep = report(make_cycle(5))
        assert rep.best_upper == 5
        assert rep.excluded_t == "all even t"

    def test_cube_best_upper(self):
        rep = report(make_hypercube(3))
        assert rep.best_upper == 9  # order bound beats diameter's 13 and 12 edges

    def test_kstar_report(self):
        rep = report(make_kstar(2, 11))
        assert rep.best_upper <= make_kstar(2, 11).edge_count
        assert rep.excluded_t == "nothing excluded"

    def test_entries_record_premises(self):
        rep = report(make_complete(3))
        by_name = {e.name: e for e in rep.entries}
        assert by_name["triangle-free-order"].value is None
        assert dict(by_name["triangle-free-order"].premises)["triangle-free"] is False
        assert by_name["edge-count"].value == 3

    @pytest.mark.parametrize("make", [
        lambda: make_cycle(5), lambda: make_hypercube(4), lambda: make_complete(4),
        lambda: make_kstar(2, 11), lambda: Graph(4, ((0, 1), (2, 3)))],
        ids=["C5", "Q4", "K4", "kstar-2-11", "two-K2"])
    def test_diameter_computed_once_per_graph(self, monkeypatch, make):
        calls = []
        real = graphs.diameter
        monkeypatch.setattr(graphs, "diameter", lambda g: calls.append(g) or real(g))
        g = make()
        report(g)
        assert len(calls) == 1
        report(g)
        metrics(g)
        assert len(calls) == 1

    def test_complete_five_matching_floor(self):
        # 10 edges, at most 2 per color class; parity excludes nothing
        g = make_complete(5)
        rep = report(g)
        assert matching_floor(g) == rep.matching_floor == 5
        assert rep.to_dict()["matching_floor"] == 5 and rep.excluded_t == "nothing excluded"
        assert "matching floor" in rep.table()

    def test_table_renders(self):
        text = report(make_cycle(4)).table()
        assert "best upper" in text and "edge-count" in text
