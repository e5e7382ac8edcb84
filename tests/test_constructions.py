import hashlib

import pytest

from intcyclic import (
    EdgeColoring,
    GraphError,
    make_hypercube,
    metrics,
    spectrum,
    validate_cyclic,
    validate_interval,
)
from intcyclic.constructions import (
    canonical_bipartite_interval,
    color_complete_bipartite_cyclic,
    color_complete_odd,
    color_gdn,
    color_hypercube_cyclic,
    color_tripartite,
    hypercube_base_interval,
    mod_reduce,
)
from intcyclic import constructions, graphs


def interval(a, b):
    return set(range(a, b + 1))


def dimension_coloring(n):
    """Interval n-coloring of the n-cube: each edge gets its flipped bit."""
    g = make_hypercube(n)
    return g, EdgeColoring(n, tuple((u ^ v).bit_length() for u, v in g.edges))


class TestModReduce:
    def test_identity_at_full_width(self):
        g, alpha = canonical_bipartite_interval(3, 3)
        beta = mod_reduce(g, alpha, alpha.t)
        assert beta == alpha

    def test_k33_down_to_three(self):
        g, alpha = canonical_bipartite_interval(3, 3)
        beta = mod_reduce(g, alpha, 3)
        assert beta.t == 3 and validate_cyclic(g, beta).valid

    def test_cube_dimension_coloring_identity(self):
        g, alpha = dimension_coloring(3)
        assert validate_interval(g, alpha).valid
        assert mod_reduce(g, alpha, 3) == alpha

    def test_rejects_non_interval_input(self):
        g, col = color_complete_bipartite_cyclic(2, 2)  # cyclic but not interval
        with pytest.raises(ValueError):
            mod_reduce(g, col, 3)

    def test_rejects_t_out_of_range(self):
        g, alpha = canonical_bipartite_interval(3, 3)
        with pytest.raises(ValueError):
            mod_reduce(g, alpha, 2)  # below max degree 3
        with pytest.raises(ValueError):
            mod_reduce(g, alpha, alpha.t + 1)

    @pytest.mark.parametrize("m", range(2, 7))
    @pytest.mark.parametrize("n", range(2, 7))
    def test_chain_covers_whole_stretch(self, m, n):
        g, alpha = canonical_bipartite_interval(m, n)
        for t in range(max(m, n), m + n):
            beta = mod_reduce(g, alpha, t)
            assert validate_cyclic(g, beta).valid


class TestGdn:
    def test_degenerate_cycle_colors(self):
        g, col = color_gdn(2, 5)
        assert col.t == 5
        # canonical edges (0,1),(0,4),(1,2),(2,3),(3,4)
        assert col.colors == (1, 5, 2, 3, 4)
        assert validate_cyclic(g, col).valid

    def test_width_equals_edge_count(self):
        g, col = color_gdn(3, 4)
        assert col.t == 8 == g.edge_count
        assert validate_cyclic(g, col).valid

    @pytest.mark.parametrize("d", range(2, 6))
    @pytest.mark.parametrize("n", range(3, 9))
    def test_valid_and_uses_each_color_once(self, d, n):
        g, col = color_gdn(d, n)
        assert col.t == n * (d - 1)
        assert validate_cyclic(g, col).valid
        assert sorted(col.colors) == list(range(1, col.t + 1))


class TestCompleteOdd:
    def test_triangle_case_table(self):
        g, col = color_complete_odd(1)
        # edges (0,1), (0,2), (1,2)
        assert col.t == 3 and col.colors == (1, 3, 2)
        assert validate_cyclic(g, col).valid

    @pytest.mark.parametrize("n", range(1, 7))
    def test_valid(self, n):
        g, col = color_complete_odd(n)
        assert col.t == 3 * n
        assert validate_cyclic(g, col).valid

    @pytest.mark.parametrize("n", range(1, 7))
    def test_spectra_match_stated_pattern(self, n):
        g, col = color_complete_odd(n)
        assert spectrum(g, col, 0) == interval(1, n) | interval(2 * n + 1, 3 * n)
        assert spectrum(g, col, 1) == interval(1, 2 * n)
        assert spectrum(g, col, 2) == interval(2, 2 * n + 1)
        for i in range(3, n + 1):
            assert spectrum(g, col, i) == interval(i - 1, 2 * n - 2 + i)
            assert spectrum(g, col, n + i - 2) == interval(i, 2 * n - 1 + i)
        assert spectrum(g, col, 2 * n - 1) == interval(n, 3 * n - 1)
        assert spectrum(g, col, 2 * n) == interval(n + 1, 3 * n)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            color_complete_odd(0)


class TestBipartite:
    def test_smallest_wrap(self):
        g, col = color_complete_bipartite_cyclic(2, 2)
        assert col.t == 4
        # edges (u1,v1),(u1,v2),(u2,v1),(u2,v2)
        assert col.colors == (1, 4, 2, 3)
        assert validate_cyclic(g, col).valid

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (4, 4), (6, 6), (2, 6)])
    def test_valid(self, m, n):
        g, col = color_complete_bipartite_cyclic(m, n)
        assert col.t == m + n and validate_cyclic(g, col).valid

    def test_wrap_spectrum(self):
        g, col = color_complete_bipartite_cyclic(4, 4)
        assert spectrum(g, col, 0) == {1, 2, 3, 8}
        assert not validate_interval(g, col).valid

    def test_star_rejected(self):
        with pytest.raises(ValueError):
            color_complete_bipartite_cyclic(1, 3)

    def test_interval_star(self):
        g, col = canonical_bipartite_interval(1, 3)
        assert col.t == 3 and col.colors == (1, 2, 3)
        assert validate_interval(g, col).valid

    @pytest.mark.parametrize("m,n", [(3, 3), (2, 5), (5, 2), (6, 4)])
    def test_interval_valid_with_diagonal_spectra(self, m, n):
        g, col = canonical_bipartite_interval(m, n)
        assert col.t == m + n - 1
        assert validate_interval(g, col).valid
        for i in range(1, m + 1):
            assert spectrum(g, col, i - 1) == interval(i, i + n - 1)
        for j in range(1, n + 1):
            assert spectrum(g, col, m + j - 1) == interval(j, j + m - 1)


class TestTripartite:
    def test_triangle(self):
        g, col = color_tripartite(1, 1, 1)
        # vertices u1, v1, w1; edges (u1,v1), (u1,w1), (v1,w1)
        assert col.t == 3 and col.colors == (2, 3, 1)
        assert validate_cyclic(g, col).valid

    def test_eulerian_odd_example(self):
        g, col = color_tripartite(1, 1, 3)
        assert col.t == 5 and validate_cyclic(g, col).valid

    @pytest.mark.parametrize("l,m,n", [
        (l, m, n) for l in range(1, 5) for m in range(l, 5) for n in range(m, 5)])
    def test_valid(self, l, m, n):
        g, col = color_tripartite(l, m, n)
        assert col.t == l + m + n
        assert validate_cyclic(g, col).valid

    def test_sorts_part_sizes(self):
        g1, c1 = color_tripartite(4, 2, 3)
        g2, c2 = color_tripartite(2, 3, 4)
        assert g1 == g2 and c1 == c2

    @pytest.mark.parametrize("l,m,n", [(1, 2, 3), (2, 2, 2), (2, 3, 4), (1, 1, 3)])
    def test_spectra_match_stated_pattern(self, l, m, n):
        g, col = color_tripartite(l, m, n)
        u0, v0, w0 = 0, m, m + n
        for i in range(1, m - l + 2):
            assert spectrum(g, col, u0 + i - 1) == interval(l + i, 2 * l + n + i - 1)
        for i in range(m - l + 2, m + 1):
            assert spectrum(g, col, u0 + i - 1) == \
                interval(1, l - m - 1 + i) | interval(l + i, l + m + n)
        for i in range(1, n + 1):
            assert spectrum(g, col, v0 + i - 1) == interval(i, l + m + i - 1)
        for i in range(1, l + 1):
            assert spectrum(g, col, w0 + i - 1) == \
                interval(1, n + i - 1) | interval(l + n + i, l + m + n)


class TestHypercubeBase:
    def test_square_base(self):
        g, col, classes = hypercube_base_interval(2)
        # canonical edges (0,1),(0,2),(1,3),(2,3)
        assert col.t == 3 and col.colors == (1, 2, 2, 3)
        assert classes == (0, 0, 1, 1)
        assert validate_interval(g, col).valid

    @pytest.mark.parametrize("n", range(2, 8))
    def test_classes_split_evenly(self, n):
        g, col, classes = hypercube_base_interval(n)
        assert col.t == n + 1
        assert validate_interval(g, col).valid
        assert sum(classes) == 2 ** (n - 1)
        for v in range(g.vertex_count):
            want = interval(1, n) if classes[v] == 0 else interval(2, n + 1)
            assert spectrum(g, col, v) == want

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            hypercube_base_interval(1)


class TestHypercubeCyclic:
    @pytest.mark.parametrize("n,t", [(n, 4 * (n - 1)) for n in range(2, 13)])
    def test_valid_at_stated_width(self, n, t):
        g, col = color_hypercube_cyclic(n)
        assert col.t == t
        assert validate_cyclic(g, col).valid

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            color_hypercube_cyclic(1)


@pytest.mark.parametrize("build,n", [(hypercube_base_interval, 4), (color_hypercube_cyclic, 3),
                                     (color_hypercube_cyclic, 5)])
def test_cube_result_guard_fires(monkeypatch, build, n):
    # one direction's colors moved up by one: neither coloring survives, and
    # each colorer's check of its result must say so
    base_color = constructions._base_color
    monkeypatch.setattr(constructions, "_base_color", lambda x, b: base_color(x, b) + (b == 0))
    with pytest.raises(RuntimeError, match="invalid"):
        build(n)


class TestHypercubeBuilds:
    """Each cube is built and checked once, where it is made."""

    @staticmethod
    def built(monkeypatch):
        dims = []

        def counted(n):
            dims.append(n)
            return make_hypercube(n)

        monkeypatch.setattr(constructions, "make_hypercube", counted)
        return dims

    @pytest.mark.parametrize("n", range(2, 7))
    def test_base_interval_builds_only_the_n_cube(self, monkeypatch, n):
        dims = self.built(monkeypatch)
        hypercube_base_interval(n)
        assert dims == [n]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_cyclic_builds_only_the_n_cube(self, monkeypatch, n):
        dims = self.built(monkeypatch)
        color_hypercube_cyclic(n)
        assert dims == [n]

    # sha256 prefixes of the coloring JSON, frozen: a rewrite of the
    # quadrant rule must keep every color
    @pytest.mark.parametrize("n,digest", [(2, "9f03d129accbf7df"), (3, "2ac2b82522e0af5d"),
                                          (4, "2520950337effa78"), (5, "8c9c680e464a4bc8"),
                                          (6, "a911f46d192c744a"), (7, "a17d046837a6b323"),
                                          (8, "a7e364e053f79948"), (10, "b5d4a4c10217ed95"),
                                          (12, "4317a2bcdd6200b1")])
    def test_cyclic_colors_are_stable(self, n, digest):
        _, col = color_hypercube_cyclic(n)
        assert hashlib.sha256(col.to_json().encode()).hexdigest()[:16] == digest


# sha256 prefixes of the graph and coloring JSON (and the classes of the
# cube's interval coloring), frozen: a rewrite of a colorer must keep every
# byte, labels and vertex order included
@pytest.mark.parametrize("build,params,digest", [
    (color_gdn, (2, 3), "858737d67f3007ae"),
    (color_gdn, (3, 5), "d527663b1dd27b5e"),
    (color_gdn, (5, 9), "24c519e1a0445c3f"),
    (color_gdn, (7, 13), "0589ca41df1b0c96"),
    (color_complete_odd, (1,), "d0c358889131a794"),
    (color_complete_odd, (2,), "3dcfa716a1d6eb49"),
    (color_complete_odd, (3,), "a6b1808bb787414e"),
    (color_complete_odd, (5,), "8be25c424b3d9fae"),
    (color_complete_odd, (8,), "c931b7a50214f675"),
    (color_complete_bipartite_cyclic, (2, 2), "b03d429e0583d0e2"),
    (color_complete_bipartite_cyclic, (2, 5), "bf8d64725916a3ad"),
    (color_complete_bipartite_cyclic, (4, 6), "6f985b6b807cafd2"),
    (color_complete_bipartite_cyclic, (7, 3), "5e2685c9ceb19a65"),
    (canonical_bipartite_interval, (1, 1), "d53aabfec9e05740"),
    (canonical_bipartite_interval, (1, 4), "a5c3947292810f2a"),
    (canonical_bipartite_interval, (3, 3), "7ac004f0b5d9ec5a"),
    (canonical_bipartite_interval, (5, 2), "f19db8a4eec8fa82"),
    (canonical_bipartite_interval, (6, 7), "bce56e39d2c3e714"),
    (color_tripartite, (1, 1, 1), "bc61f0e69bd7aa75"),
    (color_tripartite, (3, 5, 7), "81558ab7aa2b05fe"),
    (color_tripartite, (7, 5, 3), "81558ab7aa2b05fe"),
    (color_tripartite, (5, 7, 3), "81558ab7aa2b05fe"),
    (color_tripartite, (2, 2, 4), "8a4b8a67869efe6b"),
    (color_tripartite, (4, 1, 4), "f4b56f511a2e7218"),
    (hypercube_base_interval, (2,), "90a7fb0f1c166101"),
    (hypercube_base_interval, (3,), "64d01c689075a72d"),
    (hypercube_base_interval, (4,), "c6e6ae7c2423f022"),
    (hypercube_base_interval, (6,), "1a36aca5f7989b51"),
    (hypercube_base_interval, (8,), "fd8dfdaeb4980f1c"),
    (hypercube_base_interval, (10,), "56180791fff5f427"),
    (hypercube_base_interval, (12,), "d7f9c7f4b9a59486"),
])
def test_colorer_bytes_are_stable(build, params, digest):
    g, col, *classes = build(*params)
    text = g.to_json() + col.to_json() + "".join(str(list(c)) for c in classes)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestSizeLimits:
    """Families built by the colorers themselves are refused in closed form,
    before any edge, color map or base cube exists (caps patched small)."""

    @staticmethod
    def forbid(monkeypatch, *names):
        def built(*_):
            raise AssertionError("construction started before its size check")
        for name in names:
            monkeypatch.setattr(constructions, name, built)

    def test_tripartite(self, monkeypatch):
        g, _ = color_tripartite(2, 3, 4)  # 9 vertices, 26 edges
        monkeypatch.setattr(graphs, "MAX_EDGE_COUNT", 26)
        assert color_tripartite(4, 3, 2)[0] == g
        monkeypatch.setattr(graphs, "MAX_EDGE_COUNT", 25)
        self.forbid(monkeypatch, "Graph")
        with pytest.raises(GraphError, match="limits"):
            color_tripartite(2, 3, 4)
        monkeypatch.setattr(graphs, "MAX_VERTEX_COUNT", 8)
        with pytest.raises(GraphError, match="limits"):
            color_tripartite(2, 3, 4)

    def test_hypercube_interval(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_EDGE_COUNT", 32)  # Q4 has 32 edges
        assert hypercube_base_interval(4)[1].t == 5
        self.forbid(monkeypatch, "_check_base_step", "make_hypercube")
        with pytest.raises(GraphError, match="limits"):
            hypercube_base_interval(5)
        with pytest.raises(GraphError, match="more than"):
            hypercube_base_interval(40)  # 2**40 is not computed either

    def test_hypercube_cyclic(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_VERTEX_COUNT", 32)
        assert color_hypercube_cyclic(5)[1].t == 16
        self.forbid(monkeypatch, "hypercube_base_interval", "make_hypercube")
        with pytest.raises(GraphError, match="more than"):
            color_hypercube_cyclic(6)


class TestConstructionRequests:
    from intcyclic.constructions import build_construction

    def test_dispatch_matches_direct_calls(self):
        from intcyclic.constructions import build_construction
        pairs = [
            (("gdn", (3, 4)), color_gdn(3, 4)),
            (("complete-odd", (2,)), color_complete_odd(2)),
            (("bipartite-cyclic", (2, 3)),
             color_complete_bipartite_cyclic(2, 3)),
            (("tripartite", (1, 2, 3)), color_tripartite(1, 2, 3)),
            (("hypercube-cyclic", (4,)), color_hypercube_cyclic(4)),
        ]
        for req, want in pairs:
            assert build_construction(*req) == want

    def test_target_width_reduces_interval_construction(self):
        from intcyclic.constructions import build_construction
        g, col = build_construction("bipartite-interval", (3, 4), t=4)
        assert col.t == 4 and validate_cyclic(g, col).valid
        g, col, classes = build_construction("hypercube-interval", (4,), t=4)
        assert col.t == 4 and validate_cyclic(g, col).valid
        assert classes == hypercube_base_interval(4)[2]

    def test_target_width_on_cyclic_construction_rejected(self):
        from intcyclic.constructions import build_construction
        with pytest.raises(ValueError):
            build_construction("bipartite-cyclic", (3, 3), t=4)

    def test_target_width_on_cyclic_construction_refused_before_building(self, monkeypatch):
        from intcyclic.constructions import build_construction

        def built(*_):
            raise AssertionError("construction started before t was refused")

        monkeypatch.setattr(constructions, "make_gdn", built)
        for t in (4, 10):  # 10 is the coloring's own width: still refused
            with pytest.raises(ValueError, match="only an interval construction.*gdn is cyclic"):
                build_construction("gdn", (3, 5), t=t)

    def test_unknown_family_and_bad_arity(self):
        from intcyclic.constructions import build_construction
        with pytest.raises(ValueError):
            build_construction("moebius", (3,))
        with pytest.raises(ValueError):
            build_construction("gdn", (3,))


def test_every_interval_construction_is_also_cyclic_valid():
    outputs = [canonical_bipartite_interval(3, 4), dimension_coloring(3)]
    g, col, _ = hypercube_base_interval(4)
    outputs.append((g, col))
    for g, col in outputs:
        assert validate_interval(g, col).valid
        assert validate_cyclic(g, col).valid


def test_valid_colorings_sit_between_max_degree_and_edge_count():
    outputs = [color_gdn(4, 5), color_complete_odd(3), color_tripartite(2, 3, 4),
               color_hypercube_cyclic(4), color_complete_bipartite_cyclic(3, 5)]
    for g, col in outputs:
        assert metrics(g).max_degree <= col.t <= g.edge_count
