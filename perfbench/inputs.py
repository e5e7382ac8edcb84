"""Seeded inputs for the intcyclic benchmark.

Every workload is a fixed list of *slots*.  A slot is one kind of input (a
family, a size, a color count) with a few replicas: distinct random instances
made once from POOL_SEED.  A run's seed picks which replicas fill each slot
and the order of all items, so every seed gives new inputs while the mix of
families and sizes, and with it the cost of a pass, stays the same.  Because
the replicas form a finite pool, `expected.json` can hold the answer for
every item any seed can draw.

This module builds graphs itself, without the program under test, so a
change to the program cannot change the inputs.

Why each workload was chosen:

* scan      -- `intcyclic solve --feasible-set --budget B` on small connected
               graphs, the job the program exists for.  The budget makes
               dense graphs time out, so both the search kernel and any
               planner shortcut that avoids searching show here.
* search    -- direct `decide(g, t, node_budget=B)` on dense families across
               their range of t plus deep paths and cycles.  It isolates the
               search kernel and its depth; the planner is bypassed.
* structure -- CLI chains that build, check and bound large family graphs,
               emit certified non-colorable graphs, and one cold tree
               enumeration per pass.  It stresses `metrics`, `bounds.report`,
               graph loading and tree generation; it searches only a few small
               rule-rejected graphs, so solver changes barely move it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from itertools import combinations

POOL_SEED = 14110290

SCAN_BUDGET = 20_000
SEARCH_BUDGET = 20_000
STRUCTURE_BUDGET = 20_000

# Deep items stay below the interpreter's default recursion limit of 1000:
# the recursive solver needs one frame per edge, and at 1000 edges it raises
# RecursionError, which would count as a failure on every run.
DEEP_SIZES = (200, 350, 500, 650, 800)

WORKLOADS = ("scan", "search", "structure")


@dataclass(frozen=True)
class Item:
    id: str  # stable key into expected.json
    kind: str  # solve | decide | chain | noncolorable | nearmiss | trees
    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()  # solve and decide items
    edge_count: int = 0
    t: int = 0  # decide items
    args: tuple[str, ...] = ()  # CLI parameters of structure items
    tags: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class Slot:
    name: str
    count: int  # items drawn per run
    replicas: tuple[Item, ...]


# ---------------------------------------------------------------------------
# graph helpers (independent of the program)

def _norm(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((min(u, v), max(u, v)) for u, v in edges))


def _degrees(n: int, edges) -> list[int]:
    d = [0] * n
    for u, v in edges:
        d[u] += 1
        d[v] += 1
    return d


def _connected(n: int, edges) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _relabel(rng: random.Random, n: int, edges) -> tuple[tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return _norm((perm[u], perm[v]) for u, v in edges)


def _digest(n: int, edges) -> str:
    return hashlib.sha256(json.dumps([n, edges]).encode()).hexdigest()[:12]


def _tags(n: int, edges) -> frozenset[str]:
    m = len(edges)
    deg = _degrees(n, edges)
    tags = set()
    if all(d % 2 == 0 for d in deg) and m % 2 == 1 and _connected(n, edges):
        tags.add("eulerian-odd")
    if m == n - 1 and _connected(n, edges):
        tags.add("tree")
    if m >= DEEP_SIZES[0] - 1 and max(deg) <= 2:
        tags.add("deep")
    return frozenset(tags)


def _graph_item(prefix: str, kind: str, n: int, edges, t: int = 0) -> Item:
    edges = _norm(edges)
    key = f"{prefix}:{_digest(n, edges)}" + (f":t{t}" if t else "")
    return Item(key, kind, n, edges, len(edges), t, (), _tags(n, edges))


def _random_connected(rng: random.Random, n: int, m: int):
    pairs = list(combinations(range(n), 2))
    while True:
        edges = rng.sample(pairs, m)
        if _connected(n, edges):
            return edges


def _random_tree(rng: random.Random, n: int):
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
    u, v = (w for w in range(n) if degree[w] == 1)
    edges.append((u, v))
    return edges


def _random_eulerian(rng: random.Random, n: int, m: int):
    """A random connected graph with m edges and every degree even."""
    pairs = list(combinations(range(n), 2))
    while True:
        edges = rng.sample(pairs, m)
        if all(d % 2 == 0 for d in _degrees(n, edges)) and _connected(n, edges):
            return edges


def _complete(n: int):
    return list(combinations(range(n), 2))


def _cycle(n: int):
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def _path(n: int):
    return [(i, i + 1) for i in range(n - 1)]


def _tripartite(a: int, b: int, c: int):
    parts = [range(0, a), range(a, a + b), range(a + b, a + b + c)]
    return [(x, y) for i, j in ((0, 1), (0, 2), (1, 2)) for x in parts[i] for y in parts[j]]


def _hypercube(d: int):
    return [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d) if not v >> b & 1]


def _gdn(d: int, n: int):
    edges = _cycle(n)
    for i in range(n):
        edges += [(i, n + i * (d - 2) + j) for j in range(d - 2)]
    return edges


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (POOL_SEED,) + parts))


# ---------------------------------------------------------------------------
# pools

def _replicated(workload: str, name: str, count: int, make, kind: str = "solve",
                t: int = 0, replicas: int = 0) -> Slot:
    """`make(rng)` returns (n, edges); each replica gets its own rng."""
    items = []
    for r in range(replicas or 3 * count):
        n, edges = make(_rng(workload, name, r))
        item = _graph_item(f"{workload}/{name}", kind, n, edges, t)
        if item not in items:
            items.append(item)
    return Slot(name, count, tuple(items))


def scan_pool() -> list[Slot]:
    """150 connected graphs on 5 to 7 vertices.

    Slots fix the vertex and edge count of every random graph.  The densest
    slots on 7 vertices and two tripartite slots draw the same graphs in
    every run: their costs vary most between instances, or they sit at the
    90th percentile of item latency, and drawing them at random would move
    the run's totals and that percentile by more than the bounds.
    """
    slots = []
    for n, ms in ((5, range(4, 9)), (6, range(5, 12)), (7, range(6, 15))):
        for m in ms:
            fixed = n == 7 and m >= 12
            slots.append(_replicated("scan", f"gnm-{n}-{m}", 4,
                                     lambda rng, n=n, m=m: (n, _random_connected(rng, n, m)),
                                     replicas=4 if fixed else 0))
    for n in (5, 6, 7):
        slots.append(_replicated("scan", f"cycle-{n}", 2,
                                 lambda rng, n=n: (n, _relabel(rng, n, _cycle(n)))))
        slots.append(_replicated("scan", f"tree-{n}", 6,
                                 lambda rng, n=n: (n, _random_tree(rng, n))))
        slots.append(_replicated("scan", f"complete-{n}", 1,
                                 lambda rng, n=n: (n, _complete(n)), replicas=1))
    for n, m, count in ((5, 5, 2), (5, 7, 3), (6, 7, 3), (6, 9, 3),
                        (7, 7, 2), (7, 9, 3), (7, 11, 3), (7, 13, 2)):
        slots.append(_replicated("scan", f"eulerian-odd-{n}-{m}", count,
                                 lambda rng, n=n, m=m: (n, _random_eulerian(rng, n, m)),
                                 replicas=count if m >= 12 else 0))
    for parts in ((1, 1, 3), (1, 2, 2), (1, 1, 4), (1, 2, 3), (2, 2, 2),
                  (1, 1, 5), (1, 2, 4), (1, 3, 3), (2, 2, 3)):
        n = sum(parts)
        slots.append(_replicated(
            "scan", "tripartite-" + "-".join(map(str, parts)), 2,
            lambda rng, n=n, parts=parts: (n, _relabel(rng, n, _tripartite(*parts))),
            replicas=2 if parts in ((1, 1, 5), (2, 2, 3)) else 0))
    return slots


def _t_range(n: int, edges) -> range:
    """[max degree, general order bound] for a connected graph on >= 3
    vertices, capped by the edge count."""
    delta = max(_degrees(n, edges))
    lo = 2 if delta == 2 else delta
    return range(lo, min(len(edges), 2 * n + delta - 5) + 1)


def search_pool() -> list[Slot]:
    """125 (graph, t) decisions: dense families over their t range plus deep
    paths and cycles."""
    slots = []
    dense = [(f"complete-{n}", n, _complete(n), 1, None) for n in (6, 7, 8)]
    dense += [("tripartite-2-2-2", 6, _tripartite(2, 2, 2), 3, None),
              ("tripartite-1-2-3", 6, _tripartite(1, 2, 3), 3, None),
              ("tripartite-2-2-3", 7, _tripartite(2, 2, 3), 3, None),
              ("hypercube-4", 16, _hypercube(4), 3, 16),
              ("gdn-3-5", 10, _gdn(3, 5), 3, None),
              ("gdn-4-4", 12, _gdn(4, 4), 3, None)]
    for name, n, edges, replicas, t_cap in dense:
        for t in _t_range(n, edges):
            if t_cap is not None and t > t_cap:
                break
            slots.append(_replicated(
                "search", f"{name}-t{t}", 1,
                lambda rng, n=n, edges=edges: (n, _relabel(rng, n, edges)),
                kind="decide", t=t, replicas=replicas))
    for n in DEEP_SIZES:
        for family, make in (("path", _path), ("cycle", _cycle)):
            for t in (3, 4, 10, n // 8):
                slots.append(_replicated(
                    "search", f"{family}-{n}-t{t}", 1,
                    lambda rng, n=n, make=make: (n, make(n)),
                    kind="decide", t=t, replicas=1))
    return slots


def _cli_item(name: str, kind: str, args: tuple, n: int, m: int, tags=()) -> Item:
    return Item(f"structure/{name}:" + "-".join(args), kind, n, (), m, 0, tuple(args),
                frozenset(tags))


def _hub_tree_hat_size(hubs: int, leaves: int) -> tuple[int, int]:
    return 2 + hubs + hubs * leaves, hubs + 2 * hubs * leaves


def structure_pool() -> list[Slot]:
    """102 items: CLI chains over large families, certified non-colorable
    graphs, rule-rejected graphs that need a search, and one cold tree
    enumeration."""
    slots = []

    def slot(name: str, count: int, items) -> None:
        slots.append(Slot(name, count, tuple(items)))

    def chain(family: str, params, n: int, m: int, tags=()) -> Item:
        args = (family,) + tuple(str(p) for p in params)
        return _cli_item(family, "chain", args, n, m, tags)

    for d in range(4, 9):
        slot(f"hypercube-cyclic-{d}", 1, [chain("hypercube-cyclic", (d,), 1 << d, d << (d - 1))])
    for d in range(4, 8):
        slot(f"hypercube-interval-{d}", 1,
             [chain("hypercube-interval", (d,), 1 << d, d << (d - 1))])
    # pendant-decorated cycles in three size bands; the largest has 600 vertices
    for band, pairs in (("small", [(3, n) for n in range(5, 40, 2)] + [(4, n) for n in range(5, 30)]),
                        ("medium", [(3, n) for n in range(90, 111, 2)] + [(5, n) for n in range(45, 56)]),
                        ("large", [(4, 200), (11, 60), (3, 300)])):
        rng = _rng("structure", "gdn", band)
        picks = rng.sample(pairs, min(len(pairs), 12))
        items = [chain("gdn", (d, n), n * (d - 1), n * (d - 1)) for d, n in picks]
        slot(f"gdn-{band}", {"small": 12, "medium": 3, "large": 1}[band], items)
    for kind in ("bipartite-cyclic", "bipartite-interval"):
        for band, lo, hi, count in (("small", 2, 8, 12), ("large", 15, 25, 3)):
            rng = _rng("structure", kind, band)
            pairs = sorted({(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(4 * count)})
            slot(f"{kind}-{band}", count,
                 [chain(kind, (a, b), a + b, a * b) for a, b in pairs])
    rng = _rng("structure", "tripartite")
    triples = sorted({tuple(sorted(rng.randint(1, 8) for _ in range(3))) for _ in range(60)})
    slot("tripartite", 20, [chain("tripartite", p, sum(p), p[0] * p[1] + p[0] * p[2] + p[1] * p[2])
                            for p in triples])
    odd = [chain("complete-odd", (n,), 2 * n + 1, n * (2 * n + 1),
                 ("eulerian-odd",) if n * (2 * n + 1) % 2 else ()) for n in range(1, 16)]
    slot("complete-odd-small", 8, odd[:10])
    slot("complete-odd-large", 2, odd[10:])

    kstars = [_cli_item("kstar", "noncolorable", ("--rule", "kstar", "--n", str(n), "--m", str(m)),
                        2 * n + 2 + m, n * (2 * n + 1) + 1 + m)
              for n in (2, 3, 4) for m in range(6 * n, 6 * n + 6)]
    kstars.append(_cli_item("kstar", "noncolorable", ("--rule", "kstar", "--n", "2", "--m", "11"),
                            17, 22))
    slot("noncolorable-kstar", 10, kstars)
    hats = [_cli_item("tree-hat", "noncolorable",
                      ("--rule", "tree-hat", "--hubs", str(h), "--leaves", str(l)),
                      *_hub_tree_hat_size(h, l))
            for h, l in ((7, 7), (8, 6), (6, 8), (8, 7), (7, 8), (9, 6))]
    slot("noncolorable-tree-hat", 2, hats)
    near = [_cli_item("kstar", "nearmiss", ("--rule", "kstar", "--n", "2", "--m", str(m)),
                      6 + m, 11 + m) for m in (1, 2, 3, 4)]
    near += [_cli_item("tree-hat", "nearmiss",
                       ("--rule", "tree-hat", "--hubs", str(h), "--leaves", str(l)),
                       *_hub_tree_hat_size(h, l))
             for h, l in ((2, 2), (2, 3), (3, 2))]
    slot("nearmiss", len(near), near)
    slot("trees", 1, [_cli_item("trees", "trees", ("7",), 7, 6, ("tree",))])
    return slots


POOLS = {"scan": scan_pool, "search": search_pool, "structure": structure_pool}


def pool_items(workload: str) -> list[Item]:
    return [item for s in POOLS[workload]() for item in s.replicas]


def sample(workload: str, seed: int) -> list[Item]:
    """The run's inputs: `count` replicas of every slot, in a seeded order."""
    rng = random.Random(f"sample:{workload}:{seed}")
    items = []
    for s in POOLS[workload]():
        items += rng.sample(s.replicas, min(s.count, len(s.replicas)))
    rng.shuffle(items)
    return items


def properties(items: list[Item]) -> dict:
    """Shares of the input properties the program's cost depends on."""
    n = len(items)

    def share(tag: str) -> float:
        return round(sum(tag in it.tags for it in items) / n, 4)

    return {"items": n,
            "eulerian_odd_share": share("eulerian-odd"),
            "tree_share": share("tree"),
            "deep_share": share("deep"),
            "max_vertices": max(it.vertex_count for it in items),
            "max_edges": max(it.edge_count for it in items)}
