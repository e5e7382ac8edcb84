"""Independent oracles used to freeze expected values.

Everything here is deliberately naive and shares no code path with the
package: diameters via Floyd-Warshall, bipartiteness by exhaustive
2-coloring, cyclic-interval membership by rotation scan, coloring decisions
by full enumeration, path metrics via the degree-sum identity, heaviest
shortest paths by listing every shortest path, and canonical forms by trying
every vertex permutation or, for trees, every root.
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


def heaviest_shortest_path(n, edges):
    """W by listing every shortest path between every two distinct vertices
    and summing (degree - 1) over its vertices; 0 when there is no such
    path."""
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
    for u in range(n):
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
