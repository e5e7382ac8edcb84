"""Undirected simple graphs, family generators, and structural metrics.

Vertices are 0-based indices.  Edges are stored as (u, v) pairs with u < v,
sorted lexicographically; that sorted order is the canonical index space
every edge-coloring in this package refers to.

Every walk goes through one helper, bfs(g, src, dist, f), which fills the
caller's arrays with each vertex's distance from src and its f, the
heaviest shortest path from src (vertex weight deg - 1).  It has two
callers.  The component pass, once per graph, walks each component from its
first maximum-degree vertex, where the search starts (see
solver._search_plan), and keeps the walks, depths and f; it answers
connectivity, bipartiteness and triangle-freeness.  The sweep gives
diameter() and heaviest_shortest_path().  A regular graph reads W off its
degree (see _regular_sweep) and its largest eccentricity off the component
pass at degree <= 2, or off reach sets grown as bitsets above that: about
diam * 2|E| big-int ORs per block of _REACH_BLOCK targets.  A tree runs a
BFS from two sources read off the component pass.  Any other graph, forests
included, runs a BFS from every vertex except leaves and twins (see
first_twins, the one twin rule), whose answers it reads off a swept source:
at most |V| (|V| + 2|E|) list steps.  All of these are cached on the Graph
object.  enumerate_trees(n) keeps no memo.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

# largest vertex and edge counts of any Graph, whether it is read from a file
# or built in code; the generators refuse a larger family before anything is
# allocated for it, and the constructor before it walks the edge list
MAX_VERTEX_COUNT = 10**6
MAX_EDGE_COUNT = 10**6

# targets per block of _reach_eccentricity: a reach set holds at most this
# many bits, and a round holds two sets per vertex, so the sweep never holds
# more than 2 |V| _REACH_BLOCK bits (512 MB at MAX_VERTEX_COUNT), not |V|^2.
# 2048 keeps every regular graph of degree 3 or more in the tests and the
# benchmark in one block (the largest is Q_10, with 1024 vertices).
_REACH_BLOCK = 2048


class GraphError(ValueError):
    """Raised for malformed graphs or out-of-range generator parameters."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with a canonical (sorted) edge list.

    The constructor owns the invariants: vertex_count in [0, MAX_VERTEX_COUNT];
    at most MAX_EDGE_COUNT edges, each a pair of ints in range, no loop and no
    duplicate; labels, if any, vertex_count strings.  Ints are exact (no bool,
    no float), so every Graph writes a file that from_json reads back;
    from_dict checks only the JSON shape.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        n = self.vertex_count
        if type(n) is not int or n < 0:
            raise GraphError("vertex_count must be a nonnegative int")
        if n > MAX_VERTEX_COUNT:
            raise GraphError(f"'vertex_count' {n} exceeds the limit of {MAX_VERTEX_COUNT}")
        if len(self.edges) > MAX_EDGE_COUNT:
            raise GraphError(f"{len(self.edges)} edges exceed the limit of {MAX_EDGE_COUNT}")
        normalized = []
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"bad edge entry: {e!r}") from None
            if type(u) is not int or type(v) is not int:
                raise GraphError(f"bad edge entry: {e!r}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < n):
                raise GraphError(f"edge ({u},{v}) out of range for {n} vertices")
            normalized.append((u, v))
        normalized.sort()
        for a, b in zip(normalized, normalized[1:]):
            if a == b:
                raise GraphError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(normalized))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n or not all(isinstance(x, str) for x in labels):
                raise GraphError("'labels' must be vertex_count strings")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.incident_edges))

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        # adjacency and incident_edges, built in one pass over the edges
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            adj[u].append(v)
            adj[v].append(u)
            inc[u].append(i)
            inc[v].append(i)
        return tuple(map(tuple, adj)), tuple(map(tuple, inc))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        # the edges are sorted pairs (u, v) with u < v, so each row gets its
        # lower neighbours, then its higher ones, both ascending: it is sorted
        return self._rows[0]

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex, in canonical edge order."""
        return self._rows[1]

    @cached_property
    def _components(self) -> tuple[list[list[int]], list[int], list[int]]:
        # the one component pass, rooted where the search starts: each
        # component is walked from its first maximum-degree vertex, and the
        # components come in (-degree, vertex) order of those roots (sorted()
        # is stable under reverse).  The walks (each component's vertices in
        # visit order), and each vertex's BFS depth and f (see bfs) from its
        # component's root
        dist = [-1] * self.vertex_count
        f = [0] * self.vertex_count
        walks = []
        for s in sorted(range(self.vertex_count), key=self.degrees.__getitem__, reverse=True):
            if dist[s] < 0:
                walks.append(bfs(self, s, dist, f))
        return walks, dist, f

    @cached_property
    def _metrics(self) -> GraphMetrics:
        # read through metrics(); computed once per object
        comps = len(self._components[0])
        degs = self.degrees
        return GraphMetrics(
            degrees=degs,
            max_degree=max(degs, default=0),
            components=comps,
            diameter=diameter(self),
            is_eulerian=comps == 1 and all(d % 2 == 0 for d in degs),
            is_triangle_free=is_triangle_free(self),
            is_bipartite=is_bipartite(self),
            edge_count=self.edge_count,
        )

    @cached_property
    def _sweep(self) -> tuple[int, int]:
        # (the largest eccentricity within a component, W)
        degrees = self.degrees
        if degrees and min(degrees) == max(degrees):
            return _regular_sweep(self)
        if is_tree(self):
            # The double sweep (Bulterman et al., IPL 81, 2002) from two
            # sources read off the component pass, whose walk starts at r.
            # The deepest vertex (the last visit) ends a longest path, so its
            # eccentricity is the diameter.  For W: every weight deg - 1 is
            # at least 0, and leaves weigh 0, so a heaviest path ends at two
            # leaves.  Giving each edge uv the length (w(u) + w(v)) / 2 makes
            # it a longest path under non-negative edge lengths, and at a leaf
            # f is its length from r plus w(r) / 2, so the leaf of largest f
            # ends a heaviest path.  An internal vertex that ties for the
            # largest f has a leaf child with the same f, and the same pass
            # (as in rule (a) of _sweep_sources).
            walks, _, f = self._components
            sources = [(walks[0][-1], 0), (f.index(max(f)), 0)]
        else:
            sources = _sweep_sources(self)  # the skipped ones cannot change the answer
        n = self.vertex_count
        diam = heaviest = 0
        for s, leaf_step in sources:
            dist = [-1] * n
            f = [0] * n
            order = bfs(self, s, dist, f)
            # the last visit is the farthest; a skipped leaf of s is one further
            diam = max(diam, dist[order[-1]] + leaf_step)
            # f[s] alone is no path, but never exceeds a neighbor's f (a lone
            # source weighs -1); unreached vertices keep f = 0, W's floor
            heaviest = max(heaviest, max(f))
        return diam, heaviest

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    def digest(self) -> str:
        """Short stable identifier of the canonical JSON form, once per object."""
        return self._digest

    def to_dict(self) -> dict:
        d: dict = {"vertex_count": self.vertex_count, "edges": [list(e) for e in self.edges]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    def to_json(self) -> str:
        # the bytes of canonical_json(self.to_dict()): json writes a tuple as
        # an array, so the edges go out without a list built per edge
        d: dict = {"vertex_count": self.vertex_count, "edges": self.edges}
        if self.labels is not None:
            d["labels"] = self.labels
        return canonical_json(d)

    @classmethod
    def from_dict(cls, d: dict) -> "Graph":
        if not isinstance(d, dict) or "vertex_count" not in d or "edges" not in d:
            raise GraphError("graph object needs 'vertex_count' and 'edges'")
        edges, labels = d["edges"], d.get("labels")
        if not isinstance(edges, list) or not (labels is None or isinstance(labels, list)):
            raise GraphError("'edges' must be a list, and 'labels' a list when given")
        return cls(d["vertex_count"], edges, labels)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        try:
            d = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise GraphError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(d)


@dataclass(frozen=True)
class GraphMetrics:
    degrees: tuple[int, ...]
    max_degree: int
    components: int
    diameter: Optional[int]  # None means infinite (disconnected)
    is_eulerian: bool
    is_triangle_free: bool
    is_bipartite: bool
    edge_count: int

    @property
    def is_connected(self) -> bool:
        return self.components == 1


def canonical_json(obj) -> str:
    """Single canonical serialization used for every file this package writes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# structural predicates / metrics

def bfs(g: Graph, src: int, dist: list[int], f: list[int]) -> list[int]:
    """Breadth-first walk from src; returns the vertices in visit order.

    The caller owns `dist` and `f`: vertices with dist >= 0 count as
    visited, and every vertex v reached gets its distance from src in
    dist[v] and W's dynamic program in f[v]: the heaviest shortest src-v
    path, each vertex weighing deg - 1.  f[v] is final once every vertex of
    the level above v has been dequeued.  Reusing the arrays across calls
    walks a graph component by component.
    """
    degrees, adjacency = g.degrees, g.adjacency
    dist[src] = 0
    f[src] = degrees[src] - 1
    order = [src]
    for u in order:  # the list grows while it is read: a FIFO queue
        du = dist[u] + 1
        fu = f[u] - 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du
                f[v] = fu + degrees[v]
                order.append(v)
            elif dist[v] == du and fu + degrees[v] > f[v]:
                f[v] = fu + degrees[v]
    return order


def is_connected(g: Graph) -> bool:
    return len(g._components[0]) == 1


def is_bipartite(g: Graph) -> bool:
    # BFS levels 2-color each component; an edge between two levels of the
    # same parity closes an odd cycle
    dist = g._components[1]
    return all((dist[u] ^ dist[v]) & 1 for u, v in g.edges)


def is_triangle_free(g: Graph) -> bool:
    # Itai and Rodeh (SIAM J. Comput. 7, 1978): every edge joins two BFS
    # levels at most one apart, so two of a triangle's three vertices share a
    # level, and every triangle has an edge inside a level.  Only those edges
    # are tested; a bipartite graph has none, and builds no neighbourhood set.
    # The first such edge builds every set once, and a set-to-set isdisjoint
    # walks the smaller one, so an edge costs O(min degree), even at a hub
    dist, adjacency, neigh = g._components[1], g.adjacency, None
    for u, v in g.edges:
        if dist[u] == dist[v]:
            neigh = neigh or [set(a) for a in adjacency]
            if not neigh[u].isdisjoint(neigh[v]):
                return False
    return True


def is_tree(g: Graph) -> bool:
    return g.vertex_count >= 1 and g.edge_count == g.vertex_count - 1 and is_connected(g)


def leaves(g: Graph) -> tuple[int, ...]:
    return tuple(v for v in range(g.vertex_count) if g.degrees[v] == 1)


def first_twins(g: Graph, vertices: Sequence[int]) -> list[int]:
    """For each vertex v of the list, the first vertex of the list that is a
    twin of v (the same open neighbourhood N(v) or the same closed one N[v]),
    v itself when no earlier vertex is.

    Twins form classes.  Each kind of twinship is an equivalence, and no
    vertex a has an open twin b and a closed twin c besides itself: c in N[a]
    gives c in N(a) = N(b), so b in N[c] = N[a], so b in N(a) = N(b), a loop.
    Nor is an open key ever a closed one: N(a) = N[b] gives b in N(a), so a
    in N[b] = N(a).  So one dict maps both kinds of key to a class's first.
    """
    adjacency = g.adjacency
    first: dict[tuple[int, ...], int] = {}
    out = []
    for v in vertices:
        nbrs = adjacency[v]
        out.append(first.setdefault(nbrs, first.setdefault(tuple(sorted(nbrs + (v,))), v)))
    return out


def _sweep_sources(g: Graph) -> list[tuple[int, int]]:
    """The sources the all-sources sweep runs a BFS from, in vertex order,
    each with 1 when it has a leaf skipped by rule (a), else 0.

    A vertex is skipped only when its eccentricity and its heaviest shortest
    path are read off a swept source:

    (a) Leaves.  A degree-1 vertex l whose neighbour p has degree >= 2.
    Every path from l starts l, p, so d(l, x) = d(p, x) + 1 for x != l; p
    has a neighbour other than l, so ecc(l) = ecc(p) + 1.  A shortest l-x
    path is l before a shortest p-x path, and l weighs deg - 1 = 0, so it
    weighs no more than a path from p.  p itself is swept: it is no leaf,
    and no twin of an earlier vertex r, for l would be adjacent to r too.
    (b) Twins.  A vertex s with an earlier twin r (see first_twins).
    Swapping s and r preserves every adjacency, so it is an automorphism
    that maps the BFS from s onto the BFS from r: same eccentricity, same
    W.  If (a) skips r, it skips s too: an open twin of a leaf shares its
    one neighbour, and a closed twin of a leaf l could only be its
    neighbour p, of degree 1.

    A K2 component is left to (b): its ends are closed twins.
    """
    degrees, adjacency = g.degrees, g.adjacency
    twin = first_twins(g, range(g.vertex_count))
    sources = []
    for s in range(g.vertex_count):
        nbrs = adjacency[s]
        if degrees[s] == 1 and degrees[nbrs[0]] >= 2 or twin[s] != s:
            continue  # (a) or (b)
        leaf_step = degrees[s] >= 2 and any(degrees[v] == 1 for v in nbrs)
        sources.append((s, int(leaf_step)))
    return sources


def _regular_sweep(g: Graph) -> tuple[int, int]:
    """Graph._sweep of a d-regular graph with at least one vertex, with no
    BFS per vertex.  Every vertex weighs d - 1, so W is (e + 1)(d - 1) with a
    floor of 0, e the largest eccentricity within a component.  For d <= 2
    each component is a cycle, an edge or a point, whose vertices share one
    eccentricity: e is the largest depth of the component pass."""
    d = g.degrees[0]
    ecc = max(g._components[1]) if d <= 2 else _reach_eccentricity(g)
    return ecc, max(0, (ecc + 1) * (d - 1))


def _reach_eccentricity(g: Graph) -> int:
    """The largest eccentricity e within a component, from reach sets grown
    one BFS level per round, as big-int bitsets (the bit-parallel
    multi-source BFS of Then et al., PVLDB 8(4), 2014).

    Targets are taken _REACH_BLOCK at a time: after k rounds, bit i of
    reach[v] is set when target lo + i is within k steps of v, and a round
    sets reach[v] |= reach[w] for every neighbour w, from the sets of the
    round before.  A vertex whose set holds the whole block drops out.  A
    set that does not grow in one round may still grow in a later one (when
    no target lies at that distance), so only a round in which no set grows
    ends the block early (the vertices left miss a target in another
    component).  The last round in which a set grew is the largest distance
    from a target of the block within its component.  Cost: about e * 2|E|
    ORs per block, against _REACH_BLOCK (|V| + 2|E|) list steps for a BFS
    from each of its targets.
    """
    n = g.vertex_count
    adjacency = g.adjacency
    ecc = 0
    for lo in range(0, n, _REACH_BLOCK):
        width = min(_REACH_BLOCK, n - lo)
        full = (1 << width) - 1
        reach = [0] * n
        for i in range(width):
            reach[lo + i] = 1 << i
        active = [v for v in range(n) if reach[v] != full]
        rounds = 0
        while active:
            grown = reach[:]
            for v in active:
                r = reach[v]
                for w in adjacency[v]:
                    r |= reach[w]
                grown[v] = r
            if grown == reach:  # a fixpoint short of the whole block
                break
            rounds += 1
            reach = grown
            active = [v for v in active if reach[v] != full]
        ecc = max(ecc, rounds)
    return ecc


def diameter(g: Graph) -> Optional[int]:
    """Exact diameter, the largest eccentricity of the all-sources sweep;
    None, with no sweep, when disconnected or empty."""
    return g._sweep[0] if is_connected(g) else None


def heaviest_shortest_path(g: Graph) -> int:
    """W: the largest sum of (degree - 1) over the vertices of a shortest
    path between distinct vertices; 0 below two vertices."""
    return g._sweep[1]


def metrics(g: Graph) -> GraphMetrics:
    """The graph's structural metrics, computed on the first call for each
    Graph object and cached on it."""
    return g._metrics


# ---------------------------------------------------------------------------
# family generators

def _check_size(family: str, vertices: int, edges: int) -> None:
    """Refuse a family whose closed-form vertex or edge count is over the
    limits, before any of it is built."""
    if vertices > MAX_VERTEX_COUNT or edges > MAX_EDGE_COUNT:
        raise GraphError(f"{family} would have {vertices} vertices and {edges} edges; "
                         f"the limits are {MAX_VERTEX_COUNT} and {MAX_EDGE_COUNT}")


def _check_hypercube_size(n: int) -> None:
    """Refuse an n-cube over the limits, without computing 2**n for a huge n."""
    if n >= MAX_VERTEX_COUNT.bit_length():  # 2**n is over the limit
        raise GraphError(f"hypercube of dimension {n} would have more than "
                         f"{MAX_VERTEX_COUNT} vertices")
    _check_size("hypercube", 1 << n, n * (1 << n) // 2)


def make_cycle(n: int) -> Graph:
    """Simple cycle on n >= 3 vertices."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    _check_size("cycle", n, n)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, tuple(edges))


def make_path(m: int) -> Graph:
    """Simple path on m >= 2 vertices."""
    if m < 2:
        raise GraphError("path needs m >= 2")
    _check_size("path", m, m - 1)
    return Graph(m, tuple((i, i + 1) for i in range(m - 1)))


def make_complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    _check_size("complete graph", n, n * (n - 1) // 2)
    return Graph(n, tuple(combinations(range(n), 2)))


def make_complete_bipartite(m: int, n: int) -> Graph:
    """Complete bipartite graph; part sizes m, n >= 1.

    Vertices 0..m-1 form the first part (labels u1..um), m..m+n-1 the second
    (labels v1..vn).
    """
    if m < 1 or n < 1:
        raise GraphError("complete bipartite graph needs m, n >= 1")
    _check_size("complete bipartite graph", m + n, m * n)
    edges = tuple((i, m + j) for i in range(m) for j in range(n))
    labels = tuple(f"u{i+1}" for i in range(m)) + tuple(f"v{j+1}" for j in range(n))
    return Graph(m + n, edges, labels)


def make_complete_tripartite(l: int, m: int, n: int) -> Graph:
    """Complete tripartite graph with part sizes l, m, n >= 1 in vertex order."""
    if min(l, m, n) < 1:
        raise GraphError("complete tripartite graph needs l, m, n >= 1")
    _check_size("complete tripartite graph", l + m + n, l * m + l * n + m * n)
    a = list(range(l))
    b = list(range(l, l + m))
    c = list(range(l + m, l + m + n))
    edges = [(x, y) for x in a for y in b]
    edges += [(x, y) for x in a for y in c]
    edges += [(x, y) for x in b for y in c]
    return Graph(l + m + n, tuple(edges))


def make_hypercube(n: int) -> Graph:
    """n-dimensional hypercube; vertex i is labeled by the little-endian
    bitstring of i (character j = bit j)."""
    if n < 1:
        raise GraphError("hypercube needs n >= 1")
    _check_hypercube_size(n)
    size = 1 << n
    edges = [(v, v ^ (1 << b)) for v in range(size) for b in range(n) if not v >> b & 1]
    labels = tuple("".join(str(v >> b & 1) for b in range(n)) for v in range(size))
    return Graph(size, tuple(edges), labels)


def make_gdn(d: int, n: int) -> Graph:
    """Cycle of length n with d-2 pendant vertices attached to every cycle
    vertex, so every cycle vertex has degree d.

    Cycle vertices come first (0..n-1), then pendants grouped by cycle
    vertex; the companion colorer indexes edges through this layout.
    """
    if d < 2 or n < 3:
        raise GraphError("needs d >= 2 and n >= 3")
    _check_size("gdn", n * (d - 1), n * (d - 1))
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    labels = [f"v{i+1}" for i in range(n)]
    for i in range(n):
        for j in range(d - 2):
            p = n + i * (d - 2) + j
            edges.append((i, p))
            labels.append(f"u{i+1}_{j+1}")
    return Graph(n + n * (d - 2), tuple(edges), tuple(labels))


def make_tree_hat(tree: Graph) -> Graph:
    """Add one apex vertex adjacent to every leaf of the given tree."""
    if not is_tree(tree) or tree.vertex_count < 2:
        raise GraphError("input must be a tree with at least 2 vertices")
    apex = tree.vertex_count
    hat_leaves = leaves(tree)
    _check_size("tree hat", apex + 1, tree.edge_count + len(hat_leaves))
    edges = list(tree.edges) + [(v, apex) for v in hat_leaves]
    labels = None
    if tree.labels is not None:
        labels = tree.labels + ("apex",)
    return Graph(apex + 1, tuple(edges), labels)


def make_kstar(n: int, m: int) -> Graph:
    """Complete graph on 2n+1 vertices plus a hub adjacent to vertex 0 and to
    m new pendant vertices."""
    if n < 1 or m < 1:
        raise GraphError("needs n, m >= 1")
    clique = 2 * n + 1
    _check_size("kstar", clique + 1 + m, clique * n + 1 + m)
    hub = clique
    edges = list(combinations(range(clique), 2))
    edges.append((0, hub))
    edges += [(hub, hub + 1 + i) for i in range(m)]
    labels = tuple(f"v{i+1}" for i in range(clique)) + ("u",) + tuple(
        f"w{i+1}" for i in range(m))
    return Graph(clique + 1 + m, tuple(edges), labels)


def make_hub_tree(hubs: int, leaves_per_hub: int) -> Graph:
    """Tree with a center, `hubs` vertices adjacent to it, and
    `leaves_per_hub` leaves on each hub."""
    if hubs < 1 or leaves_per_hub < 1:
        raise GraphError("needs hubs, leaves_per_hub >= 1")
    vertices = 1 + hubs * (1 + leaves_per_hub)
    _check_size("hub tree", vertices, vertices - 1)
    edges = [(0, 1 + h) for h in range(hubs)]
    nxt = 1 + hubs
    for h in range(hubs):
        for _ in range(leaves_per_hub):
            edges.append((1 + h, nxt))
            nxt += 1
    return Graph(nxt, tuple(edges))


# family name -> (parameter count, generator over integer parameters)
FAMILIES = {
    "cycle": (1, make_cycle),
    "path": (1, make_path),
    "complete": (1, make_complete),
    "complete-bipartite": (2, make_complete_bipartite),
    "complete-tripartite": (3, make_complete_tripartite),
    "hypercube": (1, make_hypercube),
    "gdn": (2, make_gdn),
    "kstar": (2, make_kstar),
    "hub-tree": (2, make_hub_tree),
}


def _family_builder(families: dict, name: str, params: Sequence[int]) -> Callable:
    """The builder that a family table (name -> (parameter count, builder))
    holds for `name`, once the name and the parameter count are checked."""
    if name not in families:
        raise GraphError(f"unknown family: {name}")
    arity, build = families[name]
    if len(params) != arity:
        raise GraphError(f"{name} takes {arity} parameter(s), got {len(params)}")
    return build


def make_family(name: str, params: Sequence[int]) -> Graph:
    """The graph of a FAMILIES generator at the given integer parameters."""
    return _family_builder(FAMILIES, name, params)(*params)


# ---------------------------------------------------------------------------
# deterministic tree enumeration (corpus machinery)

def _next_rooted(seq: list[int], p: int) -> None:
    """Beyer-Hedetniemi step, in place: seq[p:] becomes repeated copies of
    the subtree rooted at the parent of vertex p, starting with that parent."""
    q = p - 1
    while seq[q] != seq[p] - 1:
        q -= 1
    for i in range(p, len(seq)):
        seq[i] = seq[i - p + q]


def _second_child(seq: list[int]) -> int:
    """Position of the root's second child in a level sequence (its length
    when the root has one child): the first subtree fills seq[1:m]."""
    return next((i for i in range(2, len(seq)) if seq[i] == 1), len(seq))


def enumerate_trees(vertex_count: int) -> Iterator[Graph]:
    """All trees on exactly `vertex_count` vertices, one per isomorphism
    class, in a deterministic order.

    Wright, Richmond, Odlyzko and McKay (SIAM J. Comput. 15, 1986): walk
    rooted level sequences in Beyer-Hedetniemi order from the path rooted at
    its center, keeping those whose first subtree is no larger than the rest
    by (height, size, sequence), and jump past an invalid first subtree.  Vertex i is
    position i of the sequence; its parent is the last vertex one level up.
    """
    n = vertex_count
    if n < 1:
        return
    if n == 1:
        yield Graph(1, ())
        return
    seq = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = _second_child(seq)
        left = [x - 1 for x in seq[1:m]]
        rest = [0] + seq[m:]
        left_key, rest_key = (max(left), len(left)), (max(rest), len(rest))
        if left_key < rest_key or left_key == rest_key and left <= rest:
            last = [0] * n  # last[d]: the latest vertex seen at level d
            edges = []
            for i in range(1, n):
                d = seq[i]
                edges.append((last[d - 1], i))
                last[d] = i
            yield Graph(n, tuple(edges))
            p = n - 1
            while seq[p] == 1:
                p -= 1
            if p == 0:
                return
            _next_rooted(seq, p)
        else:
            # no rooted tree with this first subtree is valid; skip them all
            p = m - 1
            deep = seq[p] > 2
            _next_rooted(seq, p)
            if deep:  # the rest restarts as a path one level taller than the first subtree
                h = max(seq[1:_second_child(seq)])
                seq[n - h:] = range(1, h + 1)


def all_trees_up_to(max_vertices: int, min_vertices: int = 1) -> Iterator[Graph]:
    for n in range(min_vertices, max_vertices + 1):
        yield from enumerate_trees(n)
