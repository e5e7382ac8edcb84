import pytest
from hypothesis import example, given, strategies as st

from intcyclic import (
    EdgeColoring,
    Graph,
    is_cyclic_interval,
    is_integer_interval,
    make_complete,
    make_cycle,
    make_path,
    spectrum,
    validate_cyclic,
    validate_interval,
)
from intcyclic.coloring import mod_color
from intcyclic.constructions import color_complete_bipartite_cyclic, color_hypercube_cyclic
from intcyclic.graphs import MAX_EDGE_COUNT

import oracles


class TestSpectrum:
    def test_triangle(self):
        g = make_cycle(3)  # edges (0,1), (0,2), (1,2)
        col = EdgeColoring(3, (1, 2, 3))
        assert spectrum(g, col, 0) == {1, 2}
        assert spectrum(g, col, 1) == {1, 3}
        assert spectrum(g, col, 2) == {2, 3}

    def test_single_edge(self):
        g = make_path(2)
        col = EdgeColoring(1, (1,))
        assert spectrum(g, col, 0) == {1} == spectrum(g, col, 1)

    def test_bipartite_wrap_construction(self):
        g, col = color_complete_bipartite_cyclic(2, 2)
        assert spectrum(g, col, 0) == {1, 4}

    def test_vertex_out_of_range(self):
        g = make_path(2)
        with pytest.raises(ValueError):
            spectrum(g, EdgeColoring(1, (1,)), 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spectrum(make_cycle(3), EdgeColoring(2, (1, 2)), 0)


class TestCyclicInterval:
    def test_wrap_around(self):
        assert is_cyclic_interval({1, 4}, 2, 4)

    def test_gap(self):
        assert not is_cyclic_interval({1, 3}, 2, 4)

    def test_full_set(self):
        assert is_cyclic_interval({1, 2, 3}, 3, 3)

    def test_empty(self):
        assert is_cyclic_interval(set(), 0, 5)

    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError):
            is_cyclic_interval({1, 2}, 3, 4)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            is_cyclic_interval({0, 1}, 2, 4)
        with pytest.raises(ValueError):
            is_cyclic_interval({4, 5}, 2, 4)

    @given(st.data())
    def test_matches_rotation_scan_oracle(self, data):
        t = data.draw(st.integers(1, 10))
        s = data.draw(st.sets(st.integers(1, t), max_size=t))
        assert is_cyclic_interval(s, len(s), t) == \
            oracles.rotation_scan_cyclic_interval(s, t)

    @given(st.data())
    def test_rotation_invariant(self, data):
        t = data.draw(st.integers(1, 10))
        s = data.draw(st.sets(st.integers(1, t), max_size=t))
        shift = data.draw(st.integers(0, t))
        rotated = {mod_color(c + shift, t) for c in s}
        assert is_cyclic_interval(s, len(s), t) == \
            is_cyclic_interval(rotated, len(rotated), t)

    @given(st.data())
    def test_reflection_invariant(self, data):
        t = data.draw(st.integers(1, 10))
        s = data.draw(st.sets(st.integers(1, t), max_size=t))
        reflected = {t + 1 - c for c in s}
        assert is_cyclic_interval(s, len(s), t) == \
            is_cyclic_interval(reflected, len(reflected), t)

    @given(st.data())
    def test_plain_interval_implies_cyclic(self, data):
        t = data.draw(st.integers(1, 10))
        s = data.draw(st.sets(st.integers(1, t), max_size=t))
        if is_integer_interval(s):
            assert is_cyclic_interval(s, len(s), t)


class TestValidators:
    def test_cycle_two_colors(self):
        g = make_cycle(4)  # edges (0,1), (0,3), (1,2), (2,3)
        col = EdgeColoring(2, (1, 2, 2, 1))
        assert validate_cyclic(g, col).valid

    def test_cycle_three_colors(self):
        # 1,2,3,2 around the cycle: spectra {1,2} and {2,3} are intervals
        g = make_cycle(4)
        col = EdgeColoring(3, (1, 2, 2, 3))
        res = validate_cyclic(g, col)
        assert res.valid
        assert validate_interval(g, col).valid

    def test_unused_color(self):
        g = make_cycle(3)
        res = validate_cyclic(g, EdgeColoring(4, (1, 2, 3)))
        assert not res.valid
        assert "color-unused" in res.kinds()

    def test_not_proper(self):
        g = make_path(3)
        res = validate_cyclic(g, EdgeColoring(1, (1, 1)))
        assert "not-proper" in res.kinds()
        assert any(v.kind == "not-proper" and v.vertex == 1 for v in res.violations)

    def test_out_of_range(self):
        g = make_path(3)
        res = validate_cyclic(g, EdgeColoring(2, (1, 5)))
        assert "color-out-of-range" in res.kinds()

    def test_spectrum_violation(self):
        g = make_complete_star()
        res = validate_cyclic(g, EdgeColoring(5, (1, 2, 4)))
        # center sees {1,2,4}: shortest cyclic window in [1,5] is 4 > degree 3
        assert "spectrum-not-cyclic-interval" in res.kinds()

    def test_wrap_valid_cyclic_but_not_interval(self):
        g, col = color_complete_bipartite_cyclic(2, 2)
        assert validate_cyclic(g, col).valid
        res = validate_interval(g, col)
        assert not res.valid
        assert "spectrum-not-interval" in res.kinds()

    def test_path_two_colors(self):
        g = make_path(3)
        res = validate_interval(g, EdgeColoring(2, (1, 2)))
        assert res.valid and res.verdict == "valid"

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            validate_cyclic(make_cycle(3), EdgeColoring(3, (1, 2)))

    def test_all_violations_reported(self):
        g = make_cycle(4)
        res = validate_cyclic(g, EdgeColoring(9, (1, 1, 7, 3)))
        runs = [v.to_dict() for v in res.violations if v.kind == "color-unused"]
        assert runs == [{"kind": "color-unused", "color": 2},
                        {"kind": "color-unused", "color": 4, "last": 6},
                        {"kind": "color-unused", "color": 8, "last": 9}]
        covered = {c for r in runs for c in range(r["color"], r.get("last", r["color"]) + 1)}
        assert covered == {2, 4, 5, 6, 8, 9}
        assert "not-proper" in res.kinds()

    def test_interval_valid_implies_cyclic_valid(self):
        g = make_path(4)
        col = EdgeColoring(3, (1, 2, 3))
        assert validate_interval(g, col).valid
        assert validate_cyclic(g, col).valid

    def test_proper_spectrum_size_equals_degree(self):
        g, col = color_complete_bipartite_cyclic(3, 4)
        for v in range(g.vertex_count):
            assert len(spectrum(g, col, v)) == g.degrees[v]


def make_complete_star():
    from intcyclic import make_complete_bipartite
    return make_complete_bipartite(1, 3)


@st.composite
def colored_graphs(draw):
    """A graph on up to 7 vertices (isolated ones too) and t colors, mostly
    in [1, t], sometimes 0, negative or above t: clashes, wraps, unused
    colors and out-of-range colors all occur."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    t = draw(st.integers(1, 9))
    color = st.one_of(st.integers(1, t), st.sampled_from([-1, 0, t + 1, t + 2]))
    colors = draw(st.lists(color, min_size=len(edges), max_size=len(edges)))
    return Graph(n, tuple(edges)), EdgeColoring(t, tuple(colors))


def damaged_cube():
    """The hypercube-cyclic 6 coloring (t = 20) with two colors changed:
    edge 0 takes edge 1's color, a clash at vertex 0 that breaks vertex 1's
    arc, and edge 100 moves up one color, a clash at both its ends."""
    g, col = color_hypercube_cyclic(6)
    colors = list(col.colors)
    colors[0] = colors[1]
    colors[100] = colors[100] % col.t + 1
    return g, EdgeColoring(col.t, tuple(colors))


# the validators against an independent statement of their report.
# Examples at the edges of the validator's per-vertex set test (distinct,
# in range, max - min < degree): a clash at a degree-3 vertex whose sorted
# span is still 2, (1, 1, 3); wraps, (1, 3, 4) and (4, 1, 2), cyclic but not
# interval; an out-of-range color at a vertex whose colors are otherwise
# consecutive, (0, 1, 2) and (2, 3, 5); non-consecutive colors beside an
# out-of-range one, (0, 2, 4), where no spectrum violation is reported; an
# isolated vertex; and a large coloring with a few faults
@given(colored_graphs())
@example((make_complete_star(), EdgeColoring(3, (1, 1, 3))))
@example((make_complete_star(), EdgeColoring(4, (1, 3, 4))))
@example((make_complete_star(), EdgeColoring(5, (1, 4, 5))))
@example((make_complete_star(), EdgeColoring(3, (0, 1, 2))))
@example((make_complete_star(), EdgeColoring(4, (0, 2, 4))))
@example((make_complete_star(), EdgeColoring(4, (2, 3, 5))))
@example((make_complete_star(), EdgeColoring(4, (4, 1, 2))))
@example((make_path(3), EdgeColoring(2, (2, 3))))
@example((Graph(4, ((0, 1), (1, 2))), EdgeColoring(3, (3, 1))))
@example(damaged_cube())
def test_validators_agree_with_reference(case):
    g, col = case
    assert validate_cyclic(g, col).to_dict() == oracles.reference_validate(g, col, cyclic=True)
    assert validate_interval(g, col).to_dict() == oracles.reference_validate(g, col, cyclic=False)


class TestSpectrumReport:
    def test_wrap_is_cyclic_not_interval(self):
        from intcyclic import spectrum_report
        g, col = color_complete_bipartite_cyclic(2, 2)
        rep = spectrum_report(g, col, 0)
        assert rep.colors == (1, 4)
        assert rep.is_cyclic_interval and not rep.is_interval
        assert rep.to_dict() == {"vertex": 0, "colors": [1, 4], "is_interval": False,
                                 "is_cyclic_interval": True}

    def test_plain_interval_flags_both(self):
        from intcyclic import spectrum_report
        g = make_path(3)
        rep = spectrum_report(g, EdgeColoring(2, (1, 2)), 1)
        assert rep.colors == (1, 2)
        assert rep.is_interval and rep.is_cyclic_interval

    def test_neither(self):
        from intcyclic import spectrum_report
        g = make_complete_star()
        rep = spectrum_report(g, EdgeColoring(5, (1, 2, 4)), 0)
        assert not rep.is_interval and not rep.is_cyclic_interval

    def test_interval_always_implies_cyclic(self):
        from intcyclic import spectrum_report
        g, col = color_complete_bipartite_cyclic(3, 4)
        for v in range(g.vertex_count):
            rep = spectrum_report(g, col, v)
            assert (not rep.is_interval) or rep.is_cyclic_interval
            assert len(rep.colors) == g.degrees[v]

    def test_every_star_coloring_matches_the_definition(self):
        # every coloring of K_{1,d}, d <= 3, t <= 5, colors 0 .. t + 1 (935 in all),
        # clashes and out-of-range colors included
        from itertools import product
        from intcyclic import make_complete_bipartite, spectrum_report
        count = 0
        for d in range(1, 4):
            g = make_complete_bipartite(1, d)
            for t in range(1, 6):
                for colors in product(range(t + 2), repeat=d):
                    count += 1
                    col = EdgeColoring(t, colors)
                    for v in range(g.vertex_count):
                        rep = spectrum_report(g, col, v)
                        s = set(rep.colors)
                        in_range = all(1 <= c <= t for c in s)
                        arc = oracles.rotation_scan_cyclic_interval(s, t)
                        assert rep.is_cyclic_interval == (in_range and arc), (colors, t, v)
                        assert rep.is_interval == (
                            in_range and max(s) - min(s) + 1 == len(s)), (colors, t, v)
        assert count == 935


def test_coloring_json_round_trip():
    col = EdgeColoring(5, (1, 2, 5, 4, 3))
    text = col.to_json()
    assert EdgeColoring.from_json(text) == col
    assert EdgeColoring.from_json(text).to_json() == text


def test_coloring_rejects_bad_t():
    with pytest.raises(ValueError):
        EdgeColoring(0, ())


@pytest.mark.parametrize("t,colors", [(True, (1,)), (2, (1.0, 2)), (MAX_EDGE_COUNT + 1, (1,))],
                         ids=["bool-t", "float-color", "t-over-limit"])
def test_coloring_refuses_inexact_fields(t, colors):
    with pytest.raises(ValueError):
        EdgeColoring(t, colors)


@given(st.one_of(st.integers(-1, 4), st.booleans(), st.floats(-1, 4), st.text(max_size=2)),
       st.lists(st.one_of(st.integers(-1, 4), st.booleans(), st.floats(-1, 4), st.none()),
                max_size=4))
def test_every_coloring_that_constructs_reads_back(t, colors):
    try:
        col = EdgeColoring(t, tuple(colors))
    except ValueError:
        return
    text = col.to_json()
    assert EdgeColoring.from_json(text).to_json() == text


def test_coloring_file_t_capped_at_edge_limit():
    # a valid coloring uses each color on some edge; without the cap the
    # validator would list 10**12 unused colors
    from intcyclic.graphs import MAX_EDGE_COUNT
    with pytest.raises(ValueError, match="exceeds"):
        EdgeColoring.from_dict({"t": 10**12, "colors": [1]})
    assert EdgeColoring.from_dict({"t": MAX_EDGE_COUNT, "colors": [1]}).t == MAX_EDGE_COUNT


def test_mod_color():
    assert mod_color(5, 5) == 5
    assert mod_color(6, 5) == 1
    assert mod_color(1, 5) == 1
    assert mod_color(10, 5) == 5
