"""Undirected simple graphs, family generators, and structural metrics.

Vertices are 0-based indices.  Edges are stored as (u, v) pairs with u < v,
sorted lexicographically; that sorted order is the canonical index space
every edge-coloring in this package refers to.

Every graph walk goes through one helper, bfs(g, src, dist): it returns the
vertices in visit order and fills a distance array the caller owns.
metrics(g) is computed once per Graph object and cached on it, so repeated
calls from the bounds, the solver and the certificates cost nothing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, Optional, Sequence

# largest vertex_count accepted from graph JSON; a larger one is refused
# before anything is allocated for it
MAX_VERTEX_COUNT = 10**6


class GraphError(ValueError):
    """Raised for malformed graphs or out-of-range generator parameters."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph with a canonical (sorted) edge list."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise GraphError("vertex_count must be nonnegative")
        normalized = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < self.vertex_count):
                raise GraphError(f"edge ({u},{v}) out of range for {self.vertex_count} vertices")
            normalized.append((u, v))
        normalized.sort()
        for a, b in zip(normalized, normalized[1:]):
            if a == b:
                raise GraphError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(normalized))
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != self.vertex_count:
                raise GraphError("labels length must equal vertex_count")
            object.__setattr__(self, "labels", labels)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.vertex_count
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices incident to each vertex, in canonical edge order."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return tuple(tuple(a) for a in inc)

    @cached_property
    def _metrics(self) -> GraphMetrics:
        # read through metrics(); computed once per object
        comps = component_count(self)
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

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    def digest(self) -> str:
        """Short stable identifier derived from the canonical JSON form."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        d: dict = {"vertex_count": self.vertex_count, "edges": [list(e) for e in self.edges]}
        if self.labels is not None:
            d["labels"] = list(self.labels)
        return d

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "Graph":
        if not isinstance(d, dict) or "vertex_count" not in d or "edges" not in d:
            raise GraphError("graph object needs 'vertex_count' and 'edges'")
        n = d["vertex_count"]
        edges = d["edges"]
        if not _is_int(n) or not isinstance(edges, list):
            raise GraphError("'vertex_count' must be an int and 'edges' a list")
        if n > MAX_VERTEX_COUNT:
            raise GraphError(f"'vertex_count' {n} exceeds the limit of {MAX_VERTEX_COUNT}")
        pairs = []
        for e in edges:
            if not (isinstance(e, (list, tuple)) and len(e) == 2
                    and all(_is_int(x) for x in e)):
                raise GraphError(f"bad edge entry: {e!r}")
            pairs.append((e[0], e[1]))
        labels = d.get("labels")
        if labels is not None:
            if not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
                raise GraphError("'labels' must be a list of strings")
            labels = tuple(labels)
        return cls(n, tuple(pairs), labels)

    @classmethod
    def from_json(cls, text: str) -> "Graph":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
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


def _is_int(x) -> bool:
    # JSON booleans are ints to isinstance; reject them in the file formats
    return isinstance(x, int) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# structural predicates / metrics

def bfs(g: Graph, src: int, dist: list[int]) -> list[int]:
    """Breadth-first walk from src; returns the vertices in visit order.

    The caller owns `dist`: vertices with dist >= 0 count as visited, and
    every vertex reached gets its distance from src.  Reusing one array
    across calls walks a graph component by component.
    """
    dist[src] = 0
    order = [src]
    adjacency = g.adjacency
    for u in order:  # the list grows while it is read: a FIFO queue
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du
                order.append(v)
    return order


def _component_dists(g: Graph) -> tuple[int, list[int]]:
    """Component count, and each vertex's distance from the first vertex of
    its component."""
    dist = [-1] * g.vertex_count
    count = 0
    for s in range(g.vertex_count):
        if dist[s] < 0:
            count += 1
            bfs(g, s, dist)
    return count, dist


def component_count(g: Graph) -> int:
    return _component_dists(g)[0]


def is_connected(g: Graph) -> bool:
    return g.vertex_count > 0 and component_count(g) == 1


def is_bipartite(g: Graph) -> bool:
    # BFS levels 2-color each component; an edge between two levels of the
    # same parity closes an odd cycle
    dist = _component_dists(g)[1]
    return all((dist[u] ^ dist[v]) & 1 for u, v in g.edges)


def is_triangle_free(g: Graph) -> bool:
    neigh = [set(a) for a in g.adjacency]
    for u, v in g.edges:
        if neigh[u] & neigh[v]:
            return False
    return True


def is_tree(g: Graph) -> bool:
    return g.vertex_count >= 1 and g.edge_count == g.vertex_count - 1 and is_connected(g)


def leaves(g: Graph) -> tuple[int, ...]:
    return tuple(v for v in range(g.vertex_count) if g.degrees[v] == 1)


def diameter(g: Graph) -> Optional[int]:
    """Exact diameter via all-pairs BFS; None when disconnected or empty."""
    if not is_connected(g):
        return None
    best = 0
    for s in range(g.vertex_count):
        dist = [-1] * g.vertex_count
        best = max(best, dist[bfs(g, s, dist)[-1]])  # the last visit is the farthest
    return best


def metrics(g: Graph) -> GraphMetrics:
    """The graph's structural metrics, computed on the first call for each
    Graph object and cached on it."""
    return g._metrics


# ---------------------------------------------------------------------------
# family generators

def make_cycle(n: int) -> Graph:
    """Simple cycle on n >= 3 vertices."""
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, tuple(edges))


def make_path(m: int) -> Graph:
    """Simple path on m >= 2 vertices."""
    if m < 2:
        raise GraphError("path needs m >= 2")
    return Graph(m, tuple((i, i + 1) for i in range(m - 1)))


def make_complete(n: int) -> Graph:
    """Complete graph on n >= 1 vertices."""
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, tuple(combinations(range(n), 2)))


def make_complete_bipartite(m: int, n: int) -> Graph:
    """Complete bipartite graph; part sizes m, n >= 1.

    Vertices 0..m-1 form the first part (labels u1..um), m..m+n-1 the second
    (labels v1..vn).
    """
    if m < 1 or n < 1:
        raise GraphError("complete bipartite graph needs m, n >= 1")
    edges = tuple((i, m + j) for i in range(m) for j in range(n))
    labels = tuple(f"u{i+1}" for i in range(m)) + tuple(f"v{j+1}" for j in range(n))
    return Graph(m + n, edges, labels)


def make_complete_tripartite(l: int, m: int, n: int) -> Graph:
    """Complete tripartite graph with part sizes l, m, n >= 1 in vertex order."""
    if min(l, m, n) < 1:
        raise GraphError("complete tripartite graph needs l, m, n >= 1")
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
    edges = list(tree.edges) + [(v, apex) for v in leaves(tree)]
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
    edges = [(0, 1 + h) for h in range(hubs)]
    nxt = 1 + hubs
    for h in range(hubs):
        for _ in range(leaves_per_hub):
            edges.append((1 + h, nxt))
            nxt += 1
    return Graph(nxt, tuple(edges))


# ---------------------------------------------------------------------------
# deterministic tree enumeration (corpus machinery)

def _tree_from_pruefer(seq: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        j = next(v for v in range(n) if degree[v] == 1)
        edges.append((min(j, x), max(j, x)))
        degree[j] -= 1
        degree[x] -= 1
    u = degree.index(1)
    v = degree.index(1, u + 1)
    edges.append((u, v))
    return tuple(sorted(edges))


def _tree_canonical_code(n: int, edges: Sequence[tuple[int, int]]) -> str:
    """AHU canonical string of a free tree, rooted at its center(s)."""
    if n == 1:
        return "()"
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    # peel leaves to find the 1- or 2-vertex center
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] == 1]
    removed = 0
    alive = [True] * n
    while n - removed > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            removed += 1
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(n) if alive[v]]

    def code(root: int, parent: int) -> str:
        subs = sorted(code(w, root) for w in adj[root] if w != parent)
        return "(" + "".join(subs) + ")"

    return min(code(c, -1) for c in centers)


_TREE_CACHE: dict[int, tuple[tuple[tuple[int, int], ...], ...]] = {}


def enumerate_trees(vertex_count: int) -> Iterator[Graph]:
    """All trees on exactly `vertex_count` vertices, one per isomorphism
    class, in a deterministic order.

    Enumerates labeled trees from Pruefer sequences and keeps the first
    representative of each canonical code; results are memoized since the
    labeled enumeration grows as n^(n-2).
    """
    n = vertex_count
    if n < 1:
        return
    if n == 1:
        yield Graph(1, ())
        return
    if n == 2:
        yield Graph(2, ((0, 1),))
        return
    if n not in _TREE_CACHE:
        seen: dict[str, tuple[tuple[int, int], ...]] = {}
        for seq in _pruefer_sequences(n):
            edges = _tree_from_pruefer(seq, n)
            code = _tree_canonical_code(n, edges)
            if code not in seen:
                seen[code] = edges
        _TREE_CACHE[n] = tuple(seen[code] for code in sorted(seen))
    for edges in _TREE_CACHE[n]:
        yield Graph(n, edges)


def _pruefer_sequences(n: int) -> Iterator[tuple[int, ...]]:
    seq = [0] * (n - 2)
    while True:
        yield tuple(seq)
        i = n - 3
        while i >= 0 and seq[i] == n - 1:
            seq[i] = 0
            i -= 1
        if i < 0:
            return
        seq[i] += 1


def all_trees_up_to(max_vertices: int, min_vertices: int = 1) -> Iterator[Graph]:
    for n in range(min_vertices, max_vertices + 1):
        yield from enumerate_trees(n)
