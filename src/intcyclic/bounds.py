"""Closed-form upper bounds, the parity obstruction, the matching-capacity
floor, the degree-sum obstruction, and exact feasible-set formulas for cycles
and trees.

The upper bounds form one table of (name, premises, value).  Premises are
read from the graph's cached metrics, and a value is computed only when
every premise holds; otherwise the bound reports not-applicable (None).
report() and the bound_* functions read the same rows.  The edge count
always caps the number of usable colors, so best_upper is finite for every
graph.

The shortest-path bound 1 + 2W and tree_m = 1 + W (LP(u, v) is 1 plus
sum(deg - 1) over the u-v path of a tree) read W, the heaviest shortest path,
from the cached all-sources sweep that also gives the diameter.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from .graphs import Graph, GraphError, GraphMetrics, heaviest_shortest_path, is_tree, metrics


@dataclass(frozen=True)
class BoundEntry:
    name: str
    value: Optional[int]  # None = not-applicable
    premises: tuple[tuple[str, bool], ...]

    @property
    def applicable(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        return {"name": self.name,
                "value": self.value if self.applicable else "not-applicable",
                "premises": {k: v for k, v in self.premises}}


@dataclass(frozen=True)
class ParityObstruction:
    excludes_even: bool

    @property
    def description(self) -> str:
        return "all even t" if self.excludes_even else "nothing excluded"

    def excludes(self, t: int) -> bool:
        return self.excludes_even and t % 2 == 0


@dataclass(frozen=True)
class DegreeSumObstruction:
    """The color counts t that no choice of signs fits (see
    degree_sum_obstruction): excludes(t) holds when no set of vertices has
    a degree sum congruent to |E| mod t."""
    edge_count: int
    # sums[s] == "1" when some set of vertices has degree sum s, 0 <= s <= 2|E|
    sums: str = field(repr=False)

    def excludes(self, t: int) -> bool:
        return "1" not in self.sums[self.edge_count % t::t]


@dataclass(frozen=True)
class BoundReport:
    graph_digest: str
    entries: tuple[BoundEntry, ...]
    parity: ParityObstruction
    matching_floor: int
    best_upper: int

    @property
    def excluded_t(self) -> str:
        return self.parity.description

    def to_dict(self) -> dict:
        return {"graph": self.graph_digest,
                "bounds": [e.to_dict() for e in self.entries],
                "excluded_t": self.excluded_t,
                "matching_floor": self.matching_floor,
                "best_upper": self.best_upper}

    def table(self) -> str:
        rows = [f"{'bound':<26} {'value':>8}  premises"]
        for e in self.entries:
            val = str(e.value) if e.applicable else "n/a"
            prem = ", ".join(f"{k}={'y' if v else 'n'}" for k, v in e.premises) or "-"
            rows.append(f"{e.name:<26} {val:>8}  {prem}")
        rows.append(f"{'excluded t':<26} {self.excluded_t:>8}")
        rows.append(f"{'matching floor':<26} {self.matching_floor:>8}")
        rows.append(f"{'best upper':<26} {self.best_upper:>8}")
        return "\n".join(rows)


# name -> (premises, value); a value is computed only when every premise holds
_BOUNDS = {
    "triangle-free-order": (("connected", "triangle-free", "at-least-2-vertices"),
                            lambda g, m: g.vertex_count + m.max_degree - 2),
    "general-order": (("connected", "at-least-2-vertices"),
                      lambda g, m: 2 * g.vertex_count + m.max_degree
                      - (4 if g.vertex_count == 2 else 5)),
    "shortest-path-degree-sum": (("connected", "at-least-2-vertices"),
                                 lambda g, m: 1 + 2 * heaviest_shortest_path(g)),
    "bipartite-diameter": (("connected", "bipartite"),
                           lambda g, m: 1 + 2 * m.diameter * (m.max_degree - 1)),
    "edge-count": ((), lambda g, m: g.edge_count),
}


def _entry(g: Graph, m: GraphMetrics, name: str) -> BoundEntry:
    facts = {"connected": m.is_connected, "triangle-free": m.is_triangle_free,
             "at-least-2-vertices": g.vertex_count >= 2, "bipartite": m.is_bipartite}
    needs, value = _BOUNDS[name]
    premises = tuple((p, facts[p]) for p in needs)
    return BoundEntry(name, value(g, m) if all(ok for _, ok in premises) else None, premises)


def bound_triangle_free(g: Graph) -> Optional[int]:
    """|V| + max_degree - 2 for connected triangle-free graphs on >= 2
    vertices; not-applicable otherwise."""
    return _entry(g, metrics(g), "triangle-free-order").value


def bound_general(g: Graph) -> Optional[int]:
    """2|V| + max_degree - 4 for connected graphs on two vertices, one less
    with three or more vertices."""
    return _entry(g, metrics(g), "general-order").value


def bound_shortest_paths(g: Graph) -> Optional[int]:
    """1 + 2W for connected graphs on >= 2 vertices, where W is the largest
    degree-sum excess sum(deg - 1) over the vertices of any shortest path."""
    return _entry(g, metrics(g), "shortest-path-degree-sum").value


def bound_bipartite_diam(g: Graph) -> Optional[int]:
    """1 + 2 * diameter * (max_degree - 1) for connected bipartite graphs."""
    return _entry(g, metrics(g), "bipartite-diameter").value


def parity_obstruction(g: Graph) -> ParityObstruction:
    """Eulerian graphs with an odd edge count admit no coloring with an even
    number of colors."""
    return ParityObstruction(metrics(g).is_eulerian and g.edge_count % 2 == 1)


def degree_sum_obstruction(g: Graph) -> DegreeSumObstruction:
    """A signed degree-sum condition on every cyclic t-coloring.

    Theorem.  If G has a cyclic t-coloring, there are signs e_v in {+1, -1},
    one per vertex of positive degree, with sum e_v d(v) = 0 (mod 2t).

    Proof.  The colors at v form an arc A_v = [s_v, s_v + d(v)) of Z_t.
    Color c lies in exactly 2|E_c| arcs, two per edge of color c, so the
    arc count f(c) is even for every c.  f(c) - f(c-1) is the number of
    arcs that start at c less the number whose end s_v + d(v) is c, so the
    chords {s_v, s_v + d(v)} of Z_t meet every point an even number of times
    and split into closed trails.  Orient each trail; set e_v = +1 where
    chord v is walked from s_v to s_v + d(v), and -1 otherwise.  Lift a
    trail T to the integers: its signed length is k_T * t, and its arcs cover
    every color k_T times mod 2.  So sum k_T = f(c) = 0 (mod 2), and
    sum e_v d(v) = t * sum k_T = 0 (mod 2t).  QED.  It needs neither
    connectivity nor surjectivity.

    With S the vertices of sign -1, sum e_v d(v) = 2|E| - 2 * sum_S d(v), so
    the condition reads: some set S has a degree sum congruent to |E| mod t.
    The sums over S are the subset sums of the degrees, at most 2|E|; they
    are found once per graph, grouped by degree: k vertices of degree d add
    0, d, ..., k*d, split into parts d, 2d, 4d, ... and a remainder (bounded
    knapsack), so a degree costs O(log k) shifts of a (2|E|+1)-bit integer.
    excludes(t) then reads the sums congruent to |E| mod t, about 2|E|/t of
    them, as one strided slice.

    Three rules are special cases.  Parity: when every degree is even, every
    sum over S is even, so an odd |E| excludes every even t.  The degree-gcd
    rule: with D the gcd of the degrees and k = gcd(t, D), every sum over S
    is 0 mod k, so t is excluded when k does not divide |E|; K_5 (degrees
    4, |E| = 10) loses t = 4 and 8 this way, and t = 7 and 9 only to the
    full condition.  Matching capacity, for t >= max degree (search_range
    starts there): let n' be the number of vertices of positive degree.  If
    |E| > t * floor(|V|/2), which is at least t * floor(n'/2), then since
    |E| <= t * n' / 2 (no degree is above t), n' is odd and
    sum (t - d(v)) = t * n' - 2|E| < t over those vertices.  So
    sum e_v d(v) = t * sum e_v - x with x = sum e_v (t - d(v)), where
    sum e_v is odd and -t < x < t: the sum is t - x mod 2t, with
    0 < t - x < 2t, never 0."""
    reach = 1  # bit s: some set of vertices has degree sum s
    for d, k in Counter(g.degrees).items():
        part = 1
        while k:  # degree 0 adds nothing
            step = min(part, k)
            reach |= reach << step * d
            k -= step
            part <<= 1
    return DegreeSumObstruction(g.edge_count, format(reach, "b")[::-1])


def matching_floor(g: Graph) -> int:
    """The least t with |E| <= t * floor(|V|/2): each color class of a
    proper coloring is a matching of at most floor(|V|/2) edges, so every
    smaller t leaves some edge uncolored (the overfull argument).  0 when
    the graph has no edges."""
    pairs = g.vertex_count // 2
    return -(-g.edge_count // pairs) if pairs else 0


def report(g: Graph) -> BoundReport:
    m = metrics(g)
    entries = tuple(_entry(g, m, name) for name in _BOUNDS)
    best = min(e.value for e in entries if e.applicable)
    return BoundReport(g.digest(), entries, parity_obstruction(g), matching_floor(g), best)


# ---------------------------------------------------------------------------
# exact feasible-set formulas

def cycle_feasible_set(n: int) -> tuple[int, ...]:
    """Every color count admitting a cyclic coloring of the n-cycle: odd
    values in [3, n] for odd n; for even n, all of [2, n/2+1] plus the even
    values of the upper stretch (which starts one step higher when n = 4k+2)."""
    if n < 3:
        raise ValueError("needs n >= 3")
    if n % 2 == 1:
        return tuple(range(3, n + 1, 2))
    half = n // 2
    low = list(range(2, half + 2))
    start = half + 2 if n % 4 == 0 else half + 3
    return tuple(low + list(range(start, n + 1, 2)))


def tree_m(tree: Graph) -> int:
    """Max over all vertex pairs of LP(u, v), the edges of the u-v path plus
    the edges hanging off it; equals the largest usable color count for the
    tree.  Since LP(u, v) = 1 + sum(deg - 1) over the u-v path, this is 1 + W
    for the W of the shortest-path bound."""
    if not is_tree(tree) or tree.vertex_count < 2:
        raise GraphError("input must be a tree with at least 2 vertices")
    return 1 + heaviest_shortest_path(tree)


def tree_feasible_set(tree: Graph) -> tuple[int, ...]:
    """The gap-free interval [max_degree, tree_m] of usable color counts."""
    return tuple(range(tree.max_degree(), tree_m(tree) + 1))


def k2n_interval_bound(n: int) -> int:
    """Lower bound 4n-2-p-q on the largest usable color count of the complete
    graph on 2n vertices, where n = p * 2^q with p odd."""
    if n < 1:
        raise ValueError("needs n >= 1")
    q = (n & -n).bit_length() - 1
    p = n >> q
    return 4 * n - 2 - p - q
