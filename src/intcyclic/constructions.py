"""Deterministic colorers: every family that has an explicit proven coloring
gets a closed-form constructor, plus the reduction that turns an interval
coloring with W colors into a cyclic one with any t in [max-degree, W].

Each constructor returns (graph, coloring); the coloring indexes the graph's
canonical edge order.  hypercube_base_interval returns the 3-tuple
(graph, coloring, classes), whose classes give each vertex's spectrum class.
A constructor walks the canonical edge list once and reads each color off
the edge's ends by one closed form; color_complete_odd's form has four
region rules, and color_complete_bipartite_cyclic moves one corner edge of
the interval diagonal.  Only the two cube colorers and the fold check their
result, raising RuntimeError if the check fails.  FAMILIES names every
constructor, and build_construction dispatches through it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence

from .coloring import EdgeColoring, mod_color, validate_cyclic, validate_interval
from .graphs import (
    Graph,
    _check_size,
    _family_builder,
    make_complete,
    make_complete_bipartite,
    make_gdn,
    make_hypercube,
)


def mod_reduce(g: Graph, alpha: EdgeColoring, t: int) -> EdgeColoring:
    """Fold an interval-valid coloring onto the color circle [1, t].

    Requires max_degree(g) <= t <= alpha.t and an interval-valid alpha; the
    result is cyclic-valid with t colors.
    """
    res = validate_interval(g, alpha)
    if not res.valid:
        raise ValueError(f"input coloring is not interval-valid: {res.to_dict()}")
    return _fold(g, alpha, t)


def _fold(g: Graph, alpha: EdgeColoring, t: int) -> EdgeColoring:
    """mod_reduce on an alpha already known to be interval-valid, such as
    an interval construction's own coloring."""
    if not g.max_degree() <= t <= alpha.t:
        raise ValueError(f"t={t} outside [{g.max_degree()}, {alpha.t}]")
    beta = EdgeColoring(t, tuple(mod_color(c, t) for c in alpha.colors))
    check = validate_cyclic(g, beta)
    if not check.valid:  # cannot fire for interval-valid input; kept as a guard
        raise RuntimeError(f"mod reduction produced an invalid coloring: {check.to_dict()}")
    return beta


def color_gdn(d: int, n: int) -> tuple[Graph, EdgeColoring]:
    """Cyclic n(d-1)-coloring of the pendant-decorated cycle; every color is
    used exactly once."""
    g = make_gdn(d, n)
    # cycle vertex i (0-based) holds the d-1 colors from i(d-1)+1 up: its
    # pendants p >= n take the lower d-2 of them in order, and the cycle edge
    # to i+1 (to 0 for the last vertex, the edge (0, n-1)) the top one
    return g, EdgeColoring(n * (d - 1), tuple(
        u + v - n + 1 if v >= n else (v if v == u + 1 else n) * (d - 1)
        for u, v in g.edges))


def _odd_complete_color(i: int, j: int, n: int) -> int:
    """Color of the edge (v_i, v_j), i < j, in color_complete_odd(n)."""
    if i == 0:  # the row of v_0
        if j <= 2:
            return 1 if j == 1 else 2 * n + 1
        if j >= 2 * n - 1:
            return n if j == 2 * n - 1 else 3 * n
        return j - 1 if j <= n else n + 1 + j
    if j <= n or i > n:  # inside A, or inside B
        s = i + j - 1 if j <= n else i + j - 2 * n + 1
        return s + n - 1 if s > n else s
    k = j - i  # across, i <= n < j
    if k != n - 1:
        return k + 1 if k >= n else n + 1 + k
    return 2 * i - 1 if 2 * i <= n + 1 else 2 * i + n - 2


def color_complete_odd(n: int) -> tuple[Graph, EdgeColoring]:
    """Cyclic 3n-coloring of the complete graph on 2n+1 vertices v_0 .. v_2n.

    With the halves A = v_1 .. v_n and B = v_{n+1} .. v_2n, the edge
    (v_i, v_j), i < j, takes its color from one of four region rules:

    - row of v_0: j = 1 gives 1 and j = 2 gives 2n+1; 3 <= j <= n gives j-1
      and n+1 <= j <= 2n-2 gives n+1+j; j = 2n-1 gives n and j = 2n gives 3n;
    - inside A: s = i+j-1, plus n-1 when s > n;
    - inside B: s = i+j-2n+1, plus n-1 when s > n;
    - across, i <= n < j, with k = j-i: k >= n gives k+1 and k <= n-2 gives
      n+1+k; k = n-1 gives 2i-1 when 2i <= n+1, else 2i+n-2.

    The regions partition the edges, so each edge gets exactly one color.
    Every vertex sees an arc of 2n consecutive colors on the circle [1, 3n].
    The arc of v_0 starts at 2n+1 and wraps to [1, n]; v_1 and v_2 start at
    1 and 2, v_i at i-1 and v_{n+i-2} at i for 3 <= i <= n, and v_{2n-1} and
    v_2n at n and n+1.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    g = make_complete(2 * n + 1)
    return g, EdgeColoring(3 * n, tuple(_odd_complete_color(i, j, n) for i, j in g.edges))


def color_complete_bipartite_cyclic(m: int, n: int) -> tuple[Graph, EdgeColoring]:
    """Cyclic (m+n)-coloring of the complete bipartite graph, min part >= 2:
    the diagonal coloring i+j-1 with the single corner edge wrapped to m+n."""
    if min(m, n) < 2:
        raise ValueError("needs min(m, n) >= 2; stars have no wrap construction")
    g, diagonal = canonical_bipartite_interval(m, n)
    # the corner edge u1 vn, (0, m+n-1), is the n-th edge in canonical order
    colors = diagonal.colors
    return g, EdgeColoring(m + n, colors[:n - 1] + (m + n,) + colors[n:])


def canonical_bipartite_interval(m: int, n: int) -> tuple[Graph, EdgeColoring]:
    """Interval (m+n-1)-coloring of the complete bipartite graph via the
    shifted diagonal i+j-1."""
    g = make_complete_bipartite(m, n)
    # u_i v_j is the edge (i-1, m+j-1)
    return g, EdgeColoring(m + n - 1, tuple(u + v - m + 1 for u, v in g.edges))


def color_tripartite(l: int, m: int, n: int) -> tuple[Graph, EdgeColoring]:
    """Cyclic (l+m+n)-coloring of the complete tripartite graph.

    Part sizes are sorted internally so l <= m <= n; the returned graph lists
    the size-m part first (u), then size-n (v), then size-l (w).
    """
    if min(l, m, n) < 1:
        raise ValueError("needs l, m, n >= 1")
    _check_size("complete tripartite graph", l + m + n, l * m + l * n + m * n)
    l, m, n = sorted((l, m, n))
    t = l + m + n
    labels = tuple(f"u{i}" for i in range(1, m + 1)) \
        + tuple(f"v{j}" for j in range(1, n + 1)) \
        + tuple(f"w{k}" for k in range(1, l + 1))
    parts = (range(m), range(m, m + n), range(m + n, t))
    g = Graph(t, tuple((a, b) for p, q in combinations(parts, 2) for a in p for b in q), labels)
    # u_i v_j gets l+i+j-1 and w_k v_j gets k+j-1; u_i w_k gets l+n+i+k-1,
    # wrapped to i+k-m-1 above t.  In vertex indices all three are one
    # diagonal a+b+l-m+1 on the color circle
    return g, EdgeColoring(t, tuple(mod_color(a + b + l - m + 1, t) for a, b in g.edges))


# ---------------------------------------------------------------------------
# hypercubes

def _base_color(x: int, b: int) -> int:
    """Color of the edge x -- x | 2**b (bit b of x clear) in the two-class
    interval (n+1)-coloring of the n-cube, n >= 2.

    Take a vertex v of class c (bit 1 of v) with r bits set above bit 2.
    Directions 0 and 1 give v the colors c+1+r and c+2+r, one each.  A
    direction b >= 2 whose bit b+1 is set gives c+1 plus the count of set
    bits above b+1: over the r set bits that is c+1 .. c+r.  The i-th
    direction b >= 2 (from 1, upward) whose bit b+1 is clear gives c+1+b
    plus the count of set bits above b+1, which is c+r+2+i.  So v sees each
    of c+1 .. c+n exactly once.
    """
    if b == 0:
        return 1 + 2 * (x >> 1 & 1) + (x >> 3).bit_count()
    if b == 1:
        return 2 + (x >> 3).bit_count()
    return b + 1 + (x >> 1 & 1) - b * (x >> b + 1 & 1) + (x >> b + 2).bit_count()


def hypercube_base_interval(n: int) -> tuple[Graph, EdgeColoring, tuple[int, ...]]:
    """Interval (n+1)-coloring of the n-cube splitting the vertices into two
    equal spectrum classes: class 0 sees colors [1, n], class 1 sees [2, n+1].

    A vertex's class is its bit 1, and each edge's color is _base_color of
    its ends.  _check_base_step checks the result, and a failed check aborts
    with a diagnostic: the coloring must be interval-valid with n + 1 colors,
    and each vertex's lowest color must be 1 + its class.
    """
    if n < 2:
        raise ValueError("needs n >= 2; a single edge cannot realize two spectrum classes")
    g = make_hypercube(n)
    coloring = EdgeColoring(n + 1, tuple(
        _base_color(u, (u ^ v).bit_length() - 1) for u, v in g.edges))
    classes = tuple(v >> 1 & 1 for v in range(1 << n))
    _check_base_step(n, g, coloring, classes)
    return g, coloring, classes


def _check_base_step(n: int, g: Graph, coloring: EdgeColoring, classes: Sequence[int]) -> None:
    """Check a two-class interval coloring of the n-cube against its classes.

    Once the interval check passes, each vertex of the n-regular cube sees n
    consecutive colors of [1, n + 1], so [1, n] or [2, n + 1], and its lowest
    color tells which: class c must see 1 + c.
    """
    res = validate_interval(g, coloring)
    if not res.valid:
        raise RuntimeError(
            f"cube base coloring n={n} is invalid: {res.to_dict()}")
    get = coloring.colors.__getitem__
    for v, edges in enumerate(g.incident_edges):
        if min(map(get, edges)) != 1 + classes[v]:
            raise RuntimeError(
                f"cube base coloring n={n}: vertex {v} spectrum mismatch")


def color_hypercube_cyclic(n: int) -> tuple[Graph, EdgeColoring]:
    """Cyclic 4(n-1)-coloring of the n-cube.

    Shifts the two-class interval coloring of the (n-2)-cube around the four
    quadrants cut by the first two coordinates and keys the quadrant matching
    colors off the endpoint class.  At n=3 the base Q_1 is one edge of color
    1 with both ends in class 0, and at n=2 the base Q_0 has no edge, so the
    class windows [1, n-2] and [2, n-1] hold with one class or vacuously and
    the rule covers every n>=2.  Every result is checked.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    t = 4 * (n - 1)
    g = make_hypercube(n)
    # quadrant q = u & 3 = bit0 + 2*bit1; shifts follow the quadrant cycle
    # (0,0) -> (0,1) -> (1,1) -> (1,0) -> (0,0), that is q = 0 -> 2 -> 3 -> 1
    shift = (0, 3 * (n - 1), n - 1, 2 * (n - 1))
    colors = []
    for u, v in g.edges:
        d = (u ^ v).bit_length() - 1  # the flipped bit
        if d >= 2:  # the (n-2)-cube edge u >> 2 -- v >> 2, shifted
            colors.append(_base_color(u >> 2, d - 2) + shift[u & 3])
            continue
        # a matching edge takes the shift of the quadrant that follows the
        # other on the cycle, plus the class of its endpoints (they share
        # all bits above the flipped one, so the class is bit 3); on the
        # wrap edge, 0 becomes t
        qu, qv = u & 3, v & 3
        later = qv if shift[qv] == (shift[qu] + n - 1) % t else qu
        colors.append(mod_color(shift[later] + (u >> 3 & 1), t))
    coloring = EdgeColoring(t, tuple(colors))
    check = validate_cyclic(g, coloring)
    if not check.valid:  # cannot fire for a sound base rule; kept as a guard
        raise RuntimeError(f"cube cyclic coloring n={n} is invalid: {check.to_dict()}")
    return g, coloring


# family name -> (parameter count, constructor over integer parameters)
FAMILIES = {
    "gdn": (2, color_gdn),
    "complete-odd": (1, color_complete_odd),
    "bipartite-cyclic": (2, color_complete_bipartite_cyclic),
    "bipartite-interval": (2, canonical_bipartite_interval),
    "tripartite": (3, color_tripartite),
    "hypercube-cyclic": (1, color_hypercube_cyclic),
    "hypercube-interval": (1, hypercube_base_interval),
}
# the families whose coloring is interval-valid, so mod_reduce can fold it
_INTERVAL_FAMILIES = ("bipartite-interval", "hypercube-interval")


def build_construction(family: str, params: Sequence[int], t: Optional[int] = None) -> tuple:
    """(graph, coloring) of a FAMILIES constructor at the given integer
    parameters, or (graph, coloring, classes) for hypercube-interval.  A
    target width t other than the constructor's folds an interval
    construction down to t colors by mod_reduce's fold, without checking the
    construction's interval coloring again; any t given to a cyclic
    construction is refused before it is built."""
    build = _family_builder(FAMILIES, family, params)
    if t is not None and family not in _INTERVAL_FAMILIES:
        raise ValueError(f"--t folds only an interval construction "
                         f"({', '.join(_INTERVAL_FAMILIES)}); {family} is cyclic")
    g, col, *classes = build(*params)
    if t is not None and t != col.t:
        col = _fold(g, col, t)
    return (g, col, *classes)
