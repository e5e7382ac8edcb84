import random
from itertools import combinations

import pytest

from intcyclic import (
    EdgeColoring,
    Graph,
    GraphError,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hub_tree,
    make_kstar,
    make_path,
    make_tree_hat,
    metrics,
)
from intcyclic import graphs
from intcyclic import noncolorable as nc
from intcyclic.cli import main
from intcyclic.graphs import all_trees_up_to, is_tree, leaves
from intcyclic.noncolorable import (
    build_certified_kstar,
    build_certified_tree_hat,
    detect_kstar,
    match_analytic,
    noncolorable_for_degree,
)
from intcyclic.solver import certify_noncolorable

import oracles


class TestTreeHatRule:
    @pytest.mark.parametrize("k", range(2, 8))
    def test_stars_always_rejected(self, k):
        # k leaves never reaches 2*(M+2) = 2*(k+2)
        _, cert = build_certified_tree_hat(make_complete_bipartite(1, k))
        assert not cert.passed
        failed = [p for p in cert.premises if not p.passed]
        assert failed and failed[0].name == "leaf-count"

    def test_hub_tree_certified(self):
        hub = make_hub_tree(10, 10)
        g, cert = build_certified_tree_hat(hub)
        assert cert.passed and cert.rule == "tree-hat"
        by_name = {p.name: p for p in cert.premises}
        assert by_name["path-metric"].value == 30
        assert by_name["leaf-count"].value == 100  # >= 2*(30+2) = 64
        assert g.vertex_count == 112

    def test_even_leaf_distances_noted_bipartite(self):
        g, cert = build_certified_tree_hat(make_hub_tree(10, 10))
        assert any("bipartite" in note for note in cert.notes)
        assert metrics(g).is_bipartite

    def test_rejects_non_tree(self):
        with pytest.raises(GraphError):
            build_certified_tree_hat(make_cycle(5))


class TestKstarRule:
    def test_certified_at_threshold(self):
        g, cert = build_certified_kstar(2, 12)
        assert cert.passed and cert.rule == "kstar"
        assert metrics(g).max_degree == 13

    def test_special_pair(self):
        g, cert = build_certified_kstar(2, 11)
        assert cert.passed and cert.rule == "kstar-511"
        assert g.vertex_count == 17 and metrics(g).max_degree == 12

    def test_rejected_below_threshold(self):
        _, cert = build_certified_kstar(2, 5)
        assert not cert.passed
        assert any(p.name == "pendant-count" and not p.passed for p in cert.premises)

    def test_rejected_small_clique(self):
        _, cert = build_certified_kstar(1, 10)
        assert not cert.passed
        assert any(p.name == "clique-parameter" and not p.passed for p in cert.premises)

    def test_premises_recomputed_from_graph(self):
        g, cert = build_certified_kstar(3, 18)
        assert cert.passed
        by_name = {p.name: p for p in cert.premises}
        assert by_name["structure-verified"].value is True
        assert by_name["max-degree"].value == metrics(g).max_degree == 19


class TestDetection:
    def test_detects_family_members(self):
        assert detect_kstar(make_kstar(2, 11)) == (2, 11)
        assert detect_kstar(make_kstar(1, 1)) == (1, 1)
        assert detect_kstar(make_kstar(4, 3)) == (4, 3)

    @pytest.mark.parametrize("g", [make_cycle(5), make_path(6), make_complete(5),
                                   make_complete_bipartite(2, 3),
                                   make_hub_tree(3, 2)])
    def test_rejects_other_graphs(self, g):
        assert detect_kstar(g) is None

    def test_match_analytic_kstar(self):
        cert = match_analytic(make_kstar(2, 13))
        assert cert is not None and cert.rule == "kstar"

    @pytest.mark.parametrize("g", [make_kstar(2, 13), make_kstar(2, 11), make_kstar(2, 5),
                                   make_tree_hat(make_hub_tree(10, 10))])
    def test_match_analytic_detects_the_kstar_once(self, monkeypatch, g):
        calls = []
        real = nc.detect_kstar
        monkeypatch.setattr(nc, "detect_kstar", lambda g: calls.append(g) or real(g))
        match_analytic(g)
        assert calls == [g]

    def test_match_analytic_tree_hat(self):
        hat = make_tree_hat(make_hub_tree(10, 10))
        cert = match_analytic(hat)
        assert cert is not None and cert.rule == "tree-hat" and cert.passed

    def test_match_analytic_certifies_the_given_hat(self, monkeypatch):
        hat, want = build_certified_tree_hat(make_hub_tree(7, 7))

        def rebuilt(tree):
            raise AssertionError("match_analytic built a second hat")

        monkeypatch.setattr(nc, "make_tree_hat", rebuilt)
        cert = match_analytic(hat)
        assert cert == want and cert.passed
        assert cert.notes == ("all leaf distances even; the emitted graph is bipartite",)

    def test_match_analytic_skips_apex_that_leaves_no_tree(self, monkeypatch):
        # u = 0 joins three triangles (its six neighbours have degree 2) and a
        # K_4 lies apart: deg(u) = |E| - |V| + 2 = 15 - 11 + 2 = 6, but g - u
        # is four components, so it is no tree and u is skipped
        k4 = [(a, b) for a in range(7, 11) for b in range(a + 1, 11)]
        g = Graph(11, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6),
                       (5, 6), *k4))
        assert g.degrees[0] == g.edge_count - g.vertex_count + 2 == 6
        assert all(g.degrees[v] == 2 for v in g.adjacency[0]) and min(g.degrees) >= 2
        deleted = []
        real = nc._delete_vertex
        monkeypatch.setattr(nc, "_delete_vertex", lambda g, u: deleted.append(u) or real(g, u))

        def certified(*_):
            raise AssertionError("a graph that is no tree was certified as one")

        monkeypatch.setattr(nc, "_tree_hat_certificate", certified)
        assert match_analytic(g) is None
        assert deleted == [0]

    def test_match_analytic_none_for_plain_graphs(self):
        assert match_analytic(make_cycle(6)) is None
        assert match_analytic(make_complete(5)) is None
        # rejected family members match no rule either
        assert match_analytic(make_kstar(2, 5)) is None


def match_analytic_every_apex(g):
    """match_analytic without the degree filters, and kstars found by
    pairwise adjacency: every vertex is deleted, the rest tested for a tree
    and its leaves compared with the deleted vertex's neighbours."""
    detected = oracles.kstar_by_pairs(g.vertex_count, g.edges)
    if detected is not None:
        cert = nc._kstar_certificate(*detected, g, nc.detect_kstar(g))
        if cert.passed:
            return cert
    for u in range(g.vertex_count):
        rest = nc._delete_vertex(g, u)
        if not is_tree(rest) or rest.vertex_count < 2:
            continue
        if {v if v < u else v - 1 for v in g.adjacency[u]} != set(leaves(rest)):
            continue
        _, cert = build_certified_tree_hat(rest)
        if cert.passed:
            return cert
    return None


# what `gen noncolorable` emits, certified or rejected, plus trees whose hat
# has more than one vertex of the apex degree
GEN_NONCOLORABLE = ([make_kstar(n, m) for n in (1, 2, 3) for m in (1, 5, 6 * n, 6 * n + 1)]
                    + [make_kstar(2, 11)]
                    + [make_tree_hat(make_hub_tree(h, l))
                       for h in (1, 2, 3, 6, 7, 10) for l in (1, 2, 6, 7, 10)]
                    + [make_tree_hat(t) for t in all_trees_up_to(7, 2)])


def absent_edges(g):
    return sorted(set(combinations(range(g.vertex_count), 2)) - set(g.edges))


CYCLES = [make_cycle(n) for n in range(3, 40)]
UNICYCLIC = [Graph(t.vertex_count, t.edges + (e,))
             for t in all_trees_up_to(7, 3) for e in absent_edges(t)]


def random_graphs():
    rng = random.Random(11)
    out = []
    for _ in range(3000):
        n, p = rng.randint(1, 12), rng.random()
        out.append(Graph(n, tuple(e for e in combinations(range(n), 2) if rng.random() < p)))
    return out


def kstar_variants(ns, ms):
    """Each kstar alone, with each edge removed, with random edges added and
    with an isolated vertex added."""
    rng = random.Random(11)
    out = []
    for n in ns:
        for m in ms:
            k = make_kstar(n, m)
            absent = absent_edges(k)
            out.append(k)
            out += [Graph(k.vertex_count, k.edges[:i] + k.edges[i + 1:])
                    for i in range(k.edge_count)]
            out += [Graph(k.vertex_count, k.edges + tuple(rng.sample(absent, rng.randint(1, 3))))
                    for _ in range(5)]
            out.append(Graph(k.vertex_count + 1, k.edges))
    return out


def hub_hat_variants(sizes):
    """Each hub tree's hat alone, with the apex also on a hub and with the
    apex missing a leaf."""
    out = []
    for h in sizes:
        for l in sizes:
            hat = make_tree_hat(make_hub_tree(h, l))
            apex = hat.vertex_count - 1
            out += [hat, Graph(hat.vertex_count, hat.edges + ((1, apex),)),  # 1 is a hub
                    Graph(hat.vertex_count, tuple(e for e in hat.edges if e != (apex - 1, apex)))]
    return out


def near_hats():
    """Two near-tree-hats on the hub tree that no rule certifies: B, whose
    apex also touches a hub, and C, whose apex misses one leaf.  Deleting the
    apex leaves the hub tree, whose leaves are not the apex's neighbours."""
    _, b, c = hub_hat_variants((10,))
    return {"B": b, "C": c}


SMALL_TREE_HATS = [make_tree_hat(t) for t in all_trees_up_to(9, 2)]


class TestCounting:
    def test_detect_kstar_matches_pairwise_oracle(self):
        for g in (random_graphs() + kstar_variants(range(1, 5), [*range(1, 14), 24, 25])
                  + SMALL_TREE_HATS + hub_hat_variants(range(1, 11)) + CYCLES):
            assert detect_kstar(g) == oracles.kstar_by_pairs(g.vertex_count, g.edges), g.edges

    def test_detect_kstar_matches_pairwise_oracle_on_atlas(self, atlas):
        for g in atlas:
            assert detect_kstar(g) == oracles.kstar_by_pairs(g.vertex_count, g.edges), g.edges

    @pytest.mark.parametrize("which", ["B", "C"])
    def test_near_hats_rejected(self, which):
        g = near_hats()[which]
        assert match_analytic(g) is None
        assert match_analytic_every_apex(g) is None

    @pytest.mark.parametrize("n", [3, 6, 7, 40, 20000])
    def test_cycles_delete_no_vertex(self, n, monkeypatch):
        monkeypatch.setattr(nc, "_delete_vertex",
                            lambda g, u: pytest.fail(f"deleted vertex {u}"))
        assert match_analytic(make_cycle(n)) is None

    def test_kstar_runs_no_sweep(self, tmp_path, monkeypatch, capsys):
        # every path to metrics() or the all-pairs sweep reads these two
        read = []
        for name in ("_metrics", "_sweep"):
            compute = graphs.Graph.__dict__[name].func
            monkeypatch.setattr(graphs.Graph, name, property(
                lambda g, name=name, compute=compute: read.append(name) or compute(g)))
        g, cert = build_certified_kstar(2, 40)
        assert cert.passed and certify_noncolorable(g).passed
        path = tmp_path / "ks.json"
        path.write_text(g.to_json())
        assert main(["certify", "-g", str(path)]) == 1
        assert '"rule":"kstar"' in capsys.readouterr().out
        assert read == []


class TestApexFilter:
    def test_certificates_unchanged(self):
        for g in (GEN_NONCOLORABLE + CYCLES + UNICYCLIC + kstar_variants((1, 2), range(1, 14))
                  + SMALL_TREE_HATS + hub_hat_variants((2, 7, 10))):
            ours, ref = match_analytic(g), match_analytic_every_apex(g)
            assert (ours and ours.to_dict()) == (ref and ref.to_dict()), g.edges

    def test_deletes_only_apex_degree_vertices(self, monkeypatch):
        deleted = []
        delete = nc._delete_vertex
        monkeypatch.setattr(nc, "_delete_vertex",
                            lambda g, u: deleted.append(u) or delete(g, u))
        hat = make_tree_hat(make_hub_tree(10, 10))
        assert match_analytic(hat).passed
        assert deleted == [hat.vertex_count - 1]  # the apex, not all 112 vertices


class TestForDegree:
    @pytest.mark.parametrize("d,rule", [(12, "kstar-511"), (13, "kstar"), (20, "kstar")])
    def test_produces_requested_degree(self, d, rule):
        g, cert = noncolorable_for_degree(d)
        assert cert.passed and cert.rule == rule
        assert metrics(g).max_degree == d

    def test_open_range_rejected(self):
        for d in (4, 11):
            with pytest.raises(ValueError, match="open"):
                noncolorable_for_degree(d)


class TestRejectionsAreNotClaims:
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1)])
    def test_small_rejected_kstars_are_colorable(self, n, m):
        g, cert = build_certified_kstar(n, m)
        assert not cert.passed
        res = certify_noncolorable(g)
        assert isinstance(res, EdgeColoring)

    def test_small_rejected_tree_hat_is_colorable(self):
        tree = make_path(4)
        hat, cert = build_certified_tree_hat(tree)
        assert not cert.passed
        res = certify_noncolorable(hat)
        assert isinstance(res, EdgeColoring)


def test_certificate_serializes():
    _, cert = build_certified_kstar(2, 12)
    d = cert.to_dict()
    assert d["passed"] is True and d["rule"] == "kstar"
    assert all({"name", "value", "condition", "passed"} <= set(p) for p in d["premises"])
