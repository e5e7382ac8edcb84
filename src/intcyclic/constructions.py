"""Deterministic colorers: every family that has an explicit proven coloring
gets a closed-form constructor, plus the reduction that turns an interval
coloring with W colors into a cyclic one with any t in [max-degree, W].

Each constructor returns (graph, coloring); the coloring indexes the graph's
canonical edge order.  hypercube_base_interval returns the 3-tuple
(graph, coloring, classes), whose classes give each vertex's spectrum class.
FAMILIES names every constructor, and build_construction dispatches through it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .coloring import EdgeColoring, mod_color, spectrum, validate_cyclic, validate_interval
from .graphs import (
    Graph,
    _check_hypercube_size,
    _check_size,
    _family_builder,
    make_complete,
    make_complete_bipartite,
    make_gdn,
    make_hypercube,
)


def _coloring_from_map(g: Graph, t: int, cmap: dict[tuple[int, int], int]) -> EdgeColoring:
    colors = []
    for e in g.edges:
        if e not in cmap:
            raise RuntimeError(f"constructor left edge {e} uncolored")
        colors.append(cmap[e])
    return EdgeColoring(t, tuple(colors))


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def mod_reduce(g: Graph, alpha: EdgeColoring, t: int) -> EdgeColoring:
    """Fold an interval-valid coloring onto the color circle [1, t].

    Requires max_degree(g) <= t <= alpha.t and an interval-valid alpha; the
    result is cyclic-valid with t colors.
    """
    res = validate_interval(g, alpha)
    if not res.valid:
        raise ValueError(f"input coloring is not interval-valid: {res.to_dict()}")
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
    t = n * (d - 1)
    cmap: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        for j in range(1, d - 1):
            p = n + (i - 1) * (d - 2) + (j - 1)
            cmap[_key(i - 1, p)] = (i - 1) * (d - 1) + j
    for i in range(1, n):
        cmap[_key(i - 1, i)] = i * (d - 1)
    cmap[_key(0, n - 1)] = n * (d - 1)
    return g, _coloring_from_map(g, t, cmap)


def _odd_complete_case_values(i: int, j: int, n: int) -> list[int]:
    """All case-table values matching edge (v_i, v_j), i < j, of the complete
    graph on 2n+1 vertices."""
    vals = []
    h = n // 2
    h1 = (n - 1) // 2
    if i == 0 and j == 1:
        vals.append(1)
    if i == 0 and j == 2:
        vals.append(2 * n + 1)
    if i == 0 and 3 <= j <= n:
        vals.append(j - 1)
    if i == 0 and n + 1 <= j <= 2 * n - 2:
        vals.append(n + 1 + j)
    if i == 0 and j == 2 * n - 1:
        vals.append(n)
    if i == 0 and j == 2 * n:
        vals.append(3 * n)
    if 1 <= i <= h and 2 <= j <= n and i + j <= n + 1:
        vals.append(i + j - 1)
    if 2 <= i <= n - 1 and h + 2 <= j <= n and i + j >= n + 2:
        vals.append(i + j + n - 2)
    if 3 <= i <= n and n + 1 <= j <= 2 * n - 2 and j - i <= n - 2:
        vals.append(n + 1 + j - i)
    if 1 <= i <= n and n + 1 <= j <= 2 * n and j - i >= n:
        vals.append(j - i + 1)
    if 2 <= i <= 1 + h1 and n + 1 <= j <= n + h1 and j - i == n - 1:
        vals.append(2 * i - 1)
    if h1 + 2 <= i <= n and n + 1 + h1 <= j <= 2 * n - 1 and j - i == n - 1:
        vals.append(i + j - 1)
    if n + 1 <= i <= n + h - 1 and n + 2 <= j <= 2 * n - 2 and i + j <= 3 * n - 1:
        vals.append(i + j - 2 * n + 1)
    if n + 1 <= i <= 2 * n - 1 and n + h + 1 <= j <= 2 * n and i + j >= 3 * n:
        vals.append(i + j - n)
    return vals


def color_complete_odd(n: int) -> tuple[Graph, EdgeColoring]:
    """Cyclic 3n-coloring of the complete graph on 2n+1 vertices.

    For small n several case ranges of the coloring table can address the
    same edge; any multiply-matched edge must receive one consistent value.
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    g = make_complete(2 * n + 1)
    cmap: dict[tuple[int, int], int] = {}
    for i, j in g.edges:
        vals = _odd_complete_case_values(i, j, n)
        if not vals:
            raise RuntimeError(f"edge (v{i}, v{j}) matched no case for n={n}")
        if len(set(vals)) > 1:
            raise RuntimeError(f"edge (v{i}, v{j}) matched inconsistent cases {vals} for n={n}")
        cmap[(i, j)] = vals[0]
    return g, _coloring_from_map(g, 3 * n, cmap)


def color_complete_bipartite_cyclic(m: int, n: int) -> tuple[Graph, EdgeColoring]:
    """Cyclic (m+n)-coloring of the complete bipartite graph, min part >= 2:
    the diagonal coloring i+j-1 with the single corner edge wrapped to m+n."""
    if min(m, n) < 2:
        raise ValueError("needs min(m, n) >= 2; stars have no wrap construction")
    g = make_complete_bipartite(m, n)
    cmap = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            c = m + n if (i, j) == (1, n) else i + j - 1
            cmap[_key(i - 1, m + j - 1)] = c
    return g, _coloring_from_map(g, m + n, cmap)


def canonical_bipartite_interval(m: int, n: int) -> tuple[Graph, EdgeColoring]:
    """Interval (m+n-1)-coloring of the complete bipartite graph via the
    shifted diagonal i+j-1."""
    g = make_complete_bipartite(m, n)
    cmap = {_key(i - 1, m + j - 1): i + j - 1
            for i in range(1, m + 1) for j in range(1, n + 1)}
    return g, _coloring_from_map(g, m + n - 1, cmap)


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
    u0, v0, w0 = 0, m, m + n
    edges = []
    cmap = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            e = _key(u0 + i - 1, v0 + j - 1)
            edges.append(e)
            cmap[e] = l + i + j - 1
    for i in range(1, l + 1):
        for j in range(1, n + 1):
            e = _key(w0 + i - 1, v0 + j - 1)
            edges.append(e)
            cmap[e] = i + j - 1
    for i in range(1, m + 1):
        for j in range(1, l + 1):
            e = _key(u0 + i - 1, w0 + j - 1)
            edges.append(e)
            cmap[e] = l + n + i + j - 1 if i + j <= m + 1 else i + j - m - 1
    g = Graph(l + m + n, tuple(edges), labels)
    return g, _coloring_from_map(g, t, cmap)


# ---------------------------------------------------------------------------
# hypercubes

def _sigma_mask(dim: int) -> int:
    # class-swapping involution of the dim-cube: flip every coordinate but the
    # first (vertex classes depend only on bit 1)
    return (1 << dim) - 2


def hypercube_base_interval(n: int) -> tuple[Graph, EdgeColoring, tuple[int, ...]]:
    """Interval (n+1)-coloring of the n-cube splitting the vertices into two
    equal spectrum classes: class 0 sees colors [1, n], class 1 sees [2, n+1].

    Built by doubling: copy A keeps the previous coloring, copy B gets it
    reflected and relabeled through the class-swapping involution, and each
    matching edge gets the color that extends both endpoint spectra.  Every
    step is checked; a failed step aborts with a diagnostic.
    """
    if n < 2:
        raise ValueError("needs n >= 2; a single edge cannot realize two spectrum classes")
    _check_hypercube_size(n)  # before the doubling loop builds any color map
    # base: the 4-cycle colored 1,2,3,2
    cmap: dict[tuple[int, int], int] = {(0, 1): 1, (1, 3): 2, (2, 3): 3, (0, 2): 2}
    classes = [0, 0, 1, 1]
    g, coloring = _check_base_step(2, cmap, classes)
    for dim in range(3, n + 1):
        prev = cmap
        half = 1 << (dim - 1)
        sigma = _sigma_mask(dim - 1)
        cmap = {}
        for (x, y), c in prev.items():
            cmap[(x, y)] = c
            cmap[_key(x ^ sigma | half, y ^ sigma | half)] = dim + 1 - c
        for x in range(half):
            cmap[(x, x | half)] = dim if classes[x] == 0 else dim + 1
        # the matching color extends both endpoint spectra into the same
        # class, so vertex x|half lands in the class of x
        classes = classes + classes
        g, coloring = _check_base_step(dim, cmap, classes)
    return g, coloring, tuple(classes)


def _check_base_step(dim: int, cmap: dict[tuple[int, int], int],
                     classes: list[int]) -> tuple[Graph, EdgeColoring]:
    """The dim-cube and its coloring from cmap, checked against the classes."""
    g = make_hypercube(dim)
    coloring = _coloring_from_map(g, dim + 1, cmap)
    res = validate_interval(g, coloring)
    if not res.valid:
        raise RuntimeError(
            f"cube doubling step dim={dim} produced an invalid coloring: {res.to_dict()}")
    half = 1 << (dim - 1)
    if sum(classes) != half or len(classes) != 2 * half:
        raise RuntimeError(f"cube doubling step dim={dim}: unbalanced classes")
    for v in range(2 * half):
        want = frozenset(range(1, dim + 1)) if classes[v] == 0 \
            else frozenset(range(2, dim + 2))
        if spectrum(g, coloring, v) != want:
            raise RuntimeError(
                f"cube doubling step dim={dim}: vertex {v} spectrum mismatch")
    return g, coloring


# found once by the exact solver (decide(Q_3, 8)) and frozen; re-validated in
# tests against the canonical edge order of make_hypercube(3)
_Q3_CYCLIC_8: tuple[int, ...] = (1, 2, 3, 8, 7, 1, 3, 7, 5, 4, 6, 5)


def color_hypercube_cyclic(n: int) -> tuple[Graph, EdgeColoring]:
    """Cyclic 4(n-1)-coloring of the n-cube.

    n=2 is the 4-cycle with all four colors; n=3 is a frozen solver witness;
    n>=4 shifts a two-class interval coloring of the (n-2)-cube around the
    four quadrants cut by the first two coordinates and keys the quadrant
    matching colors off the endpoint class.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    _check_hypercube_size(n)  # before the (n-2)-cube base is built
    if n == 2:
        g = make_hypercube(2)
        return g, _coloring_from_map(g, 4, {(0, 1): 1, (1, 3): 2, (2, 3): 3, (0, 2): 4})
    if n == 3:
        g = make_hypercube(3)
        return g, EdgeColoring(8, _Q3_CYCLIC_8)
    t = 4 * (n - 1)
    base_g, base, classes = hypercube_base_interval(n - 2)
    base_map = dict(zip(base_g.edges, base.colors))
    # quadrant = (bit0, bit1); shifts follow the quadrant cycle
    # (0,0) -> (0,1) -> (1,1) -> (1,0) -> (0,0)
    shift = {(0, 0): 0, (0, 1): n - 1, (1, 1): 2 * (n - 1), (1, 0): 3 * (n - 1)}
    g = make_hypercube(n)
    cmap = {}
    for u, v in g.edges:
        qu, qv = (u & 1, u >> 1 & 1), (v & 1, v >> 1 & 1)
        if qu == qv:
            cmap[(u, v)] = base_map[_key(u >> 2, v >> 2)] + shift[qu]
            continue
        # a matching edge takes the shift of the quadrant that follows the
        # other on the cycle, plus the class of its endpoints (they share all
        # bits above the flipped one); on the wrap edge, 0 becomes t
        later = qv if shift[qv] == (shift[qu] + n - 1) % t else qu
        cmap[(u, v)] = mod_color(shift[later] + classes[u >> 2], t)
    return g, _coloring_from_map(g, t, cmap)


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


def build_construction(family: str, params: Sequence[int], t: Optional[int] = None) -> tuple:
    """(graph, coloring) of a FAMILIES constructor at the given integer
    parameters, or (graph, coloring, classes) for hypercube-interval.  A
    target width t other than the constructor's folds an interval
    construction down to t colors by mod_reduce."""
    g, col, *classes = _family_builder(FAMILIES, family, params)(*params)
    if t is not None and t != col.t:
        col = mod_reduce(g, col, t)
    return (g, col, *classes)
