"""Independent oracles used to freeze expected values.

Everything here is deliberately naive and shares no code path with the
package: diameters via Floyd-Warshall, bipartiteness by exhaustive
2-coloring, cyclic-interval membership by rotation scan, coloring decisions
by full enumeration, path metrics via the degree-sum identity, heaviest
shortest paths by listing every shortest path, canonical forms by trying
every vertex permutation or, for trees, every root, and the tree path metric
by walking the path.  reference_decide is the backtracking kernel as it stood
before the twin-order cut, kept as the baseline that the package's search
must agree with; it takes its edge order as an argument.
fail_first_edge_order states the package's order by its rule, with exact
fractions, and bfs_edge_order is the visit order that the search used
before it, the old baseline.  sweep_sources_by_keys and twin_links_by_keys
are the two neighbourhood-key loops that the sweep and the twin order ran before both
read one twin rule; first_twins_by_definition compares neighbourhood sets.
kstar_by_pairs is the kstar recognizer as it stood before it counted edges:
it tests every pair of the would-be clique for adjacency.
reference_validate states the coloring validator's report independently
of coloring.py, as ValidationResult.to_dict() writes it: the reference for
any shortcut the validator may take.  signs_fit states the degree-sum
theorem as written, by trying every choice of signs, and gcd_rule_excludes
the degree-gcd rule it contains.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import gcd

INF = float("inf")


def fw_distances(n, edges):
    """Floyd-Warshall all-pairs distance matrix; INF between components."""
    dist = [[0 if i == j else INF for j in range(n)] for i in range(n)]
    for u, v in edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik is INF:
                continue
            for j in range(n):
                if dik + dist[k][j] < dist[i][j]:
                    dist[i][j] = dik + dist[k][j]
    return dist


def fw_diameter(n, edges):
    """Floyd-Warshall diameter; INF when disconnected."""
    dist = fw_distances(n, edges)
    return max(dist[i][j] for i in range(n) for j in range(n)) if n else INF


def heaviest_shortest_path(n, edges, sources=None):
    """W by listing every shortest path between every two distinct vertices
    and summing (degree - 1) over its vertices; 0 when there is no such
    path.  With `sources`, only the paths that start at one of them are
    listed (enough for a vertex-transitive graph, with one source)."""
    dist = fw_distances(n, edges)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def paths(x, v):  # every shortest x-v path, as a vertex list
        if x == v:
            yield [v]
            return
        for y in adj[x]:
            if dist[y][v] == dist[x][v] - 1:
                for rest in paths(y, v):
                    yield [x] + rest

    best = 0
    for u in range(n) if sources is None else sources:
        for v in range(n):
            if u != v and dist[u][v] != INF:
                for path in paths(u, v):
                    best = max(best, sum(len(adj[x]) - 1 for x in path))
    return best


def two_colorable(n, edges):
    """Bipartiteness by trying all 2^n vertex bipartitions (tiny n only)."""
    for mask in range(1 << n):
        if all((mask >> u & 1) != (mask >> v & 1) for u, v in edges):
            return True
    return n == 0 or not edges or False


def has_triangle(n, edges):
    es = set(edges)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if (i, j) in es and (i, k) in es and (j, k) in es:
                    return True
    return False


def union_find_components(n, edges):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(v) for v in range(n)})


def rotation_scan_cyclic_interval(colors, t):
    """Definitional check: some start s makes the set exactly d consecutive
    colors modulo t."""
    s_set = set(colors)
    d = len(s_set)
    if d == 0:
        return True
    for s in range(1, t + 1):
        window = {(s + i - 1 - 1) % t + 1 for i in range(1, d + 1)}
        if window == s_set:
            return True
    return False


def naive_is_cyclic_coloring(n, edges, incident, t, colors):
    """The definition, in open code: proper, surjective, every vertex's
    incident color set a cyclic interval of its degree size."""
    if set(range(1, t + 1)) - set(colors):
        return False
    for inc in incident:
        at_v = [colors[e] for e in inc]
        if len(set(at_v)) != len(at_v):
            return False
        if not rotation_scan_cyclic_interval(at_v, t):
            return False
    return True


def naive_decide(n, edges, t):
    """Enumerate every one of the t^m colorings; True iff any is valid."""
    m = len(edges)
    incident = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    for colors in product(range(1, t + 1), repeat=m):
        if naive_is_cyclic_coloring(n, edges, incident, t, colors):
            return True
    return False


def signs_fit(degrees, t):
    """True iff some signs e_v in {+1, -1}, one per positive degree, give
    sum e_v d(v) = 0 (mod 2t); tries all 2^k sign vectors."""
    ds = [d for d in degrees if d]
    return any(sum(e * d for e, d in zip(signs, ds)) % (2 * t) == 0
               for signs in product((1, -1), repeat=len(ds)))


def gcd_rule_excludes(degrees, edge_count, t):
    """The degree-gcd rule: with D the gcd of the degrees, t is excluded when
    gcd(t, D) does not divide the edge count."""
    D = 0
    for d in degrees:
        D = gcd(D, d)
    return edge_count % gcd(t, D) != 0


def lp_by_degree_sum(n, edges, u, v):
    """Path metric via the identity LP(u,v) = 1 + sum over path vertices of
    (degree - 1); an independent route to the off-path edge count."""
    adj = [[] for _ in range(n)]
    deg = [0] * n
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
        deg[a] += 1
        deg[b] += 1
    parent = {u: u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    total = deg[v] - 1
    x = v
    while x != u:
        x = parent[x]
        total += deg[x] - 1
    return 1 + total


def canonical_edge_set(n, edges):
    """Lexicographically least image of the edge set under all vertex
    permutations (exact isomorphism canonical form; tiny n only)."""
    best = None
    for perm in permutations(range(n)):
        img = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))
        if best is None or img < best:
            best = img
    return best


def all_trees_by_subsets(n):
    """Every tree on n labeled vertices by brute force over edge subsets,
    deduplicated by tree_code; the sorted codes, one per isomorphism
    class."""
    from itertools import combinations
    pairs = list(combinations(range(n), 2))
    seen = set()
    for subset in combinations(pairs, n - 1):
        if union_find_components(n, subset) == 1:
            seen.add(tree_code(n, subset))
    return sorted(seen)


def tree_code(n, edges):
    """Isomorphism invariant of a free tree: the least nested-parentheses
    code of the tree rooted at each vertex in turn (complete for trees)."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def code(x, parent):
        return "(" + "".join(sorted(code(y, x) for y in adj[x] if y != parent)) + ")"

    return min(code(r, -1) for r in range(n))


def tree_lp(tree, u, v):
    """Edges of the unique u-v path of a tree, plus the edges hanging off
    the path, by walking the path from v back to u."""
    from intcyclic import GraphError
    n, edges = tree.vertex_count, tree.edges
    if len(edges) != n - 1 or union_find_components(n, edges) != 1:
        raise GraphError("input must be a tree")
    if u == v:
        raise ValueError("endpoints must differ")
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {u: u}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                stack.append(y)
    path = {v}
    x = v
    while x != u:
        x = parent[x]
        path.add(x)
    off = sum(1 for a, b in edges if (a in path) != (b in path))
    return len(path) - 1 + off


def _degrees_and_adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [len(a) for a in adj], [tuple(sorted(a)) for a in adj]


def kstar_by_pairs(n, edges):
    """(q, m) when the graph is the (2q+1)-clique plus a hub on one clique
    vertex carrying m pendant leaves, else None: finds the pendants, their
    one hub and its one non-pendant neighbour, then tests every pair of the
    remaining vertices for adjacency."""
    degrees, adjacency = _degrees_and_adjacency(n, edges)
    pendants = [v for v in range(n) if degrees[v] == 1]
    m = len(pendants)
    if m < 1:
        return None
    hubs = {adjacency[p][0] for p in pendants}
    if len(hubs) != 1:
        return None
    hub = hubs.pop()
    if degrees[hub] != m + 1:
        return None
    anchors = [v for v in adjacency[hub] if degrees[v] != 1]
    if len(anchors) != 1:
        return None
    clique = [v for v in range(n) if v != hub and v not in pendants]
    k = len(clique)
    if k < 3 or k % 2 == 0:
        return None
    neigh = [set(a) for a in adjacency]
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            if v not in neigh[u]:
                return None
    if len(edges) != k * (k - 1) // 2 + 1 + m:
        return None
    return (k - 1) // 2, m


def first_twins_by_definition(n, edges, vertices):
    """For each vertex v of the list, the first vertex u of the list with
    N(u) = N(v) or N[u] = N[v] (v itself when no earlier one has)."""
    open_ = [set() for _ in range(n)]
    for u, v in edges:
        open_[u].add(v)
        open_[v].add(u)
    closed = [open_[v] | {v} for v in range(n)]
    return [next(u for u in vertices if open_[u] == open_[v] or closed[u] == closed[v])
            for v in vertices]


def sweep_sources_by_keys(n, edges):
    """The sweep's sources as chosen before the twin rule had one owner: skip
    a leaf whose neighbour has degree >= 2, then any vertex whose open or
    closed neighbourhood key is in the set of keys of the swept sources."""
    degrees, adjacency = _degrees_and_adjacency(n, edges)
    seen = set()
    sources = []
    for s in range(n):
        nbrs = adjacency[s]
        if degrees[s] == 1 and degrees[nbrs[0]] >= 2:
            continue
        closed = tuple(sorted(nbrs + (s,)))
        if nbrs in seen or closed in seen:
            continue
        seen.add(nbrs)
        seen.add(closed)
        leaf_step = degrees[s] >= 2 and any(degrees[v] == 1 for v in nbrs)
        sources.append((s, int(leaf_step)))
    return sources


def twin_links_by_keys(n, edges):
    """The search's twin links as built before the twin rule had one owner:
    on the star of the first maximum-degree vertex, each position links to
    the latest earlier position with the same open or closed neighbourhood
    key, or -1, with trailing -1 entries dropped (n >= 1)."""
    deg, adj = _degrees_and_adjacency(n, edges)
    links = []
    last = {}
    for p, b in enumerate(adj[deg.index(max(deg))]):
        closed = tuple(sorted(adj[b] + (b,)))
        links.append(last.get(adj[b], last.get(closed, -1)))
        last[adj[b]] = last[closed] = p
    while links and links[-1] < 0:
        links.pop()
    return links


def _reference_allowed(mask, d, t):
    full = (1 << t) - 1
    if d >= t or not mask:
        return full
    low = (mask & -mask).bit_length() - 1
    out = 0
    w = (1 << d) - 1
    for s in range(low - d + 1, low + 1):
        r = w << (s % t)
        win = (r | r >> t) & full
        if mask & win == mask:
            out |= win
    return out


def bfs_edge_order(n, edges):
    """The search's edge order as reference_decide builds it: a BFS from
    each unvisited vertex in (-degree, vertex) order, appending each visited
    vertex's unseen incident edges (indices into the sorted edge list)."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    m = len(edges)
    adj = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append(v)
        adj[v].append(u)
        inc[u].append(i)
        inc[v].append(i)
    adj = [sorted(a) for a in adj]
    deg = [len(a) for a in adj]
    dist = [-1] * n
    added = [False] * m
    order = []
    for start in sorted(range(n), key=lambda v: (-deg[v], v)):
        if dist[start] >= 0:
            continue
        dist[start] = 0
        queue = [start]
        for u in queue:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
            for e in inc[u]:
                if not added[e]:
                    added[e] = True
                    order.append(e)
    return order


def fail_first_edge_order(n, edges):
    """The search's edge order by its rule, stated on bfs_edge_order: the
    first star (the start vertex a's edges, first in the BFS order), then
    the edges with both ends in N(a), then the edges with exactly one end in
    N(a) and last all others, both in BFS order.  The edges inside N(a)
    come vertex by vertex: pick the neighbour with the largest share
    placed/degree of its edges placed so far (ties: the earlier in BFS
    order, here the smaller), then append its unplaced edges inside N(a),
    partners with the larger share first (ties: the smaller).  Shares are
    exact Fractions, rescored from scratch at every step."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    bfs = bfs_edge_order(n, edges)
    if not edges:
        return bfs
    deg = [sum(v in e for e in edges) for v in range(n)]
    a = min(range(n), key=lambda v: (-deg[v], v))
    near = sorted(u + v - a for u, v in edges if a in (u, v))
    star = bfs[:deg[a]]
    placed = set(star)

    def share(v):
        return Fraction(sum(v in edges[e] for e in placed), deg[v])

    middle = []
    todo = list(near)
    while todo:
        b = max(todo, key=lambda v: (share(v), -v))
        todo.remove(b)
        partners = [c for c in near
                    if (min(b, c), max(b, c)) in edges
                    and edges.index((min(b, c), max(b, c))) not in placed]
        for c in sorted(partners, key=lambda c: (-share(c), c)):
            e = edges.index((min(b, c), max(b, c)))
            middle.append(e)
            placed.add(e)
    one_end = [e for e in bfs[deg[a]:] if (edges[e][0] in near) != (edges[e][1] in near)]
    others = [e for e in bfs[deg[a]:] if edges[e][0] not in near and edges[e][1] not in near]
    return star + middle + one_end + others


def reference_decide(n, edges, t, node_budget, order):
    """The search kernel with only the rotation pin, the reflection cap, the
    window masks and the counting cut, taking the edges in the given order
    (indices into the sorted edge list): returns (decision, nodes explored,
    colors in sorted edge order or None).  Same ascending color order and
    same node counting as the package's decide(); given the package's edge
    order (fail_first_edge_order), it searches the same tree less the twin
    and coverage cuts."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    m = len(edges)
    if t > m:
        return "infeasible", 0, None
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    eu = [edges[e][0] for e in order]
    ev = [edges[e][1] for e in order]
    full = (1 << t) - 1
    capped = (1 << ((t + 2) // 2)) - 1
    tight = m - t
    vmask = [0] * n
    cands = [0] * m
    cands[0] = 1
    used_at = [0] * m
    bits = [0] * m
    pos = nodes = 0
    while True:
        c = cands[pos]
        if not c:
            if pos == 0:
                return "infeasible", nodes, None
            pos -= 1
            vmask[eu[pos]] ^= bits[pos]
            vmask[ev[pos]] ^= bits[pos]
            continue
        bit = c & -c
        cands[pos] = c ^ bit
        nodes += 1
        if nodes > node_budget:
            return "timeout", nodes, None
        used = used_at[pos] | bit
        if pos >= tight and used.bit_count() < pos + 1 - tight:
            continue
        vmask[eu[pos]] |= bit
        vmask[ev[pos]] |= bit
        bits[pos] = bit
        pos += 1
        if pos == m:
            break
        used_at[pos] = used
        u, v = eu[pos], ev[pos]
        mu, mv = vmask[u], vmask[v]
        cands[pos] = (_reference_allowed(mu, deg[u], t) & _reference_allowed(mv, deg[v], t)
                      & ~(mu | mv) & (capped if used == 1 else full))
    colors = [0] * m
    for pos, e in enumerate(order):
        colors[e] = bits[pos].bit_length()
    return "feasible", nodes, tuple(colors)


def reference_validate(g, coloring, cyclic):
    """Every violation of the cyclic (or, with cyclic False, the plain)
    interval coloring definition, as {"verdict", "violations"}: an
    out-of-range color per edge, then per vertex its clashes in incident
    order, or, when it has none and no out-of-range color, its spectrum;
    then one color-unused record per gap in the used colors."""
    t, colors = coloring.t, coloring.colors
    violations = []
    bad_edges = set()
    for i, c in enumerate(colors):
        if not 1 <= c <= t:
            bad_edges.add(i)
            violations.append({"kind": "color-out-of-range", "color": c,
                               "edge": list(g.edges[i])})
    for v in range(g.vertex_count):
        seen, clashed, touches_bad = set(), set(), False
        for e in g.incident_edges[v]:
            c = colors[e]
            if e in bad_edges:
                touches_bad = True
            if c in seen and c not in clashed:
                clashed.add(c)
                violations.append({"kind": "not-proper", "vertex": v, "color": c})
            seen.add(c)
        if clashed or touches_bad or not seen:
            continue
        s = sorted(seen)
        if cyclic:
            max_gap = max([s[0] + t - s[-1]] + [b - a for a, b in zip(s, s[1:])])
            if t - max_gap + 1 > len(s):
                violations.append({"kind": "spectrum-not-cyclic-interval", "vertex": v})
        elif s[-1] - s[0] + 1 != len(s):
            violations.append({"kind": "spectrum-not-interval", "vertex": v})
    used = [0, *sorted({c for c in colors if 1 <= c <= t}), t + 1]
    for a, b in zip(used, used[1:]):
        if b > a + 2:
            violations.append({"kind": "color-unused", "color": a + 1, "last": b - 1})
        elif b > a + 1:
            violations.append({"kind": "color-unused", "color": a + 1})
    return {"verdict": "invalid" if violations else "valid", "violations": violations}
