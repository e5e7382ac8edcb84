"""Independent oracles used to freeze expected values.

Everything here is deliberately naive and shares no code path with the
package: diameters via Floyd-Warshall, bipartiteness by exhaustive
2-coloring, cyclic-interval membership by rotation scan, coloring decisions
by full enumeration, path metrics via the degree-sum identity, heaviest
shortest paths by listing every shortest path, canonical forms by trying
every vertex permutation or, for trees, every root, and the tree path metric
by walking the path.  reference_decide is the backtracking kernel as it stood
before the twin-order cut, kept verbatim as the baseline that the package's
search must agree with.  sweep_sources_by_keys and twin_links_by_keys are the
two neighbourhood-key loops that the sweep and the twin order ran before both
read one twin rule; first_twins_by_definition compares neighbourhood sets.
"""

from __future__ import annotations

from itertools import permutations, product

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


def reference_decide(n, edges, t, node_budget):
    """The search kernel with only the rotation pin, the reflection cap, the
    window masks and the counting cut: returns (decision, nodes explored,
    colors in sorted edge order or None).  Same edge order (BFS from a
    maximum-degree vertex, per component), same ascending color order and
    same node counting as the package's decide()."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    m = len(edges)
    if t > m:
        return "infeasible", 0, None
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
