"""Exact decision procedure and feasible-set computation.

decide() runs a complete backtracking search over edge colorings.  Edges are
taken in the visit order of the graph's component pass, a BFS from each
component's first maximum-degree vertex, so the tightest spectrum
constraints engage early.  The search is an explicit-stack loop with no depth
limit: each position keeps the bitset of its untried candidate colors and
takes them lowest first.  A position's candidates are the colors free at both
endpoints that keep each endpoint's spectrum inside some cyclic window of its
degree size: each endpoint's allowed() window mask less its spectrum, cached
per (degree, spectrum) for the call.  Branches that cannot use all t colors
are cut, by counting at every position and, after a placement in the first
half of the order, by coverage: each color not yet used must still be a
candidate of some later edge (see decide()).  Three symmetry cuts keep only
the lexicographically least coloring of each orbit (see decide()): the
first edge is pinned to color 1 (color rotation), the first color other
than 1 is capped at ceil((t+1)/2) (color reflection), and the edges from
the first vertex to twin neighbours take increasing colors (twin order).
Budget exhaustion is reported as a timeout outcome, never as
infeasibility.  With a fixed budget and a single worker, results are
bit-identical run to run.

feasible_set() and certify_noncolorable() settle the color counts of the
bounded range through one planner, _plan().  Each count has one record, a
SolveOutcome.  A count that a theorem excludes is recorded as infeasible with
0 nodes and never searched: source "parity" for an even t of an Eulerian
graph with an odd edge count, source "matching" for a t below
bounds.matching_floor, where |E| > t * floor(|V|/2).  Every other count is
decided by decide(), and its record is the outcome decide() returned, with
source "search", its node count and its wall time.  A FeasibleSet holds the
records of one graph; extremal() returns it, read for w_c and W_c, its least
and greatest members.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from . import bounds as bounds_mod
from . import noncolorable as nc
from .coloring import EdgeColoring, validate_cyclic
from .graphs import Graph, first_twins, metrics

DEFAULT_NODE_BUDGET = 100_000_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"

SEARCH = "search"  # sources of a per-t decision
PARITY = "parity"
MATCHING = "matching"


@dataclass(frozen=True)
class SolveOutcome:
    """How one color count was settled: by decide() (source "search", with
    its node count and, when feasible, a validated witness) or by a theorem
    whose premises were recomputed from the graph, with 0 nodes.  Source
    "parity": an Eulerian graph with an odd edge count admits no even t.
    Source "matching": each color class is a matching of at most
    floor(|V|/2) edges, so |E| > t * floor(|V|/2) excludes t; K_5 (10 edges,
    2 per class) is excluded at t = 4."""
    decision: str  # feasible | infeasible | timeout
    t: int
    witness: Optional[EdgeColoring] = field(compare=False)
    nodes_explored: int
    # wall seconds; kept out of to_dict() so output is byte-stable
    elapsed: float = field(default=0.0, compare=False)
    source: str = SEARCH  # search | parity | matching

    def to_dict(self) -> dict:
        return {"t": self.t, "decision": self.decision, "source": self.source,
                "nodes_explored": self.nodes_explored}


@dataclass(frozen=True)
class FeasibleSet:
    graph_digest: str
    t_lo: int
    t_hi: int
    decisions: tuple[SolveOutcome, ...]  # one per t in [t_lo, t_hi], ascending

    @property
    def witnesses(self) -> dict[int, EdgeColoring]:
        return {d.t: d.witness for d in self.decisions if d.witness is not None}

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(d.t for d in self.decisions if d.decision == FEASIBLE)

    @property
    def w_c(self) -> Optional[int]:
        """The least usable color count found, or None."""
        return self.members[0] if self.members else None

    @property
    def W_c(self) -> Optional[int]:
        """The greatest usable color count found, or None."""
        return self.members[-1] if self.members else None

    def as_pair(self) -> tuple[Optional[int], Optional[int]]:
        return (self.w_c, self.W_c)

    @property
    def timed_out(self) -> tuple[int, ...]:
        return tuple(d.t for d in self.decisions if d.decision == TIMEOUT)

    @property
    def exhausted(self) -> bool:
        return not self.timed_out

    @property
    def nodes_explored(self) -> int:
        return sum(d.nodes_explored for d in self.decisions)

    def to_dict(self) -> dict:
        return {"graph": self.graph_digest,
                "range": [self.t_lo, self.t_hi],
                "members": list(self.members),
                "exhausted": self.exhausted,
                "timed_out": list(self.timed_out),
                "nodes_explored": self.nodes_explored,
                "decisions": [d.to_dict() for d in self.decisions],
                "witnesses": {str(t): w.to_dict() for t, w in sorted(self.witnesses.items())}}


def _search_order(g: Graph) -> list[int]:
    """Edge indices in the component pass's visit order (a BFS from each
    component's first maximum-degree vertex; see Graph._components),
    appending each visited vertex's unseen incident edges."""
    added = [False] * g.edge_count
    order: list[int] = []
    for walk in g._components[0]:
        for u in walk:
            for e in g.incident_edges[u]:
                if not added[e]:
                    added[e] = True
                    order.append(e)
    return order


def _twin_links(g: Graph) -> list[int]:
    """Twin order on the first star of _search_order: the edges at its start
    vertex a (the root of the component pass's first walk), which fill the
    first deg(a) positions with their far endpoints in ascending order, as in
    g.adjacency[a].  Entry p is the latest earlier position whose far
    endpoint is a twin of position p's (see graphs.first_twins), or -1;
    trailing -1 entries are dropped."""
    star = g.adjacency[g._components[0][0][0]]
    last: dict[int, int] = {}  # first vertex of a twin class -> latest position
    links: list[int] = []
    for p, first in enumerate(first_twins(g, star)):
        links.append(last.get(first, -1))
        last[first] = p
    while links and links[-1] < 0:
        links.pop()
    return links


def _search_plan(g: Graph) -> tuple[list[int], list[int]]:
    """_search_order(g) and _twin_links(g), built on the first decide() of a
    Graph object and kept on it, as functools.cached_property keeps its
    sweep: both depend only on the graph, and _plan decides many t of one
    graph.  decide() keeps its signature, so callers that wrap it still see
    every search."""
    plan = vars(g).get("_search_plan")
    if plan is None:
        plan = vars(g)["_search_plan"] = (_search_order(g), _twin_links(g))
    return plan


def allowed(mask: int, d: int, t: int) -> int:
    """Colors (bit c-1 for color c) that a vertex of degree d with spectrum
    bitset mask can still take out of t: the union of every size-d cyclic
    window of [1, t] that contains the mask (d >= 1)."""
    full = (1 << t) - 1
    if d >= t or not mask:
        return full
    low = (mask & -mask).bit_length() - 1
    out = 0
    w = (1 << d) - 1
    for s in range(low - d + 1, low + 1):  # the windows holding the lowest color
        r = w << (s % t)
        win = (r | r >> t) & full
        if mask & win == mask:
            out |= win
    return out


def decide(g: Graph, t: int, node_budget: Optional[int] = None) -> SolveOutcome:
    """Decide whether the graph admits a cyclic coloring with exactly t
    colors; feasible outcomes carry a validated witness.

    Symmetry cuts, and why together they keep every decision.  Let G be the
    group generated by the color rotations c -> c+k (mod t), the reflection
    c -> t+2-c (mod t) and the transpositions of twin neighbours b, b' of
    the start vertex a.  A twin transposition is a vertex automorphism
    fixing a, so it maps cyclic colorings to cyclic colorings, and color
    maps commute with it.  Order colorings lexicographically by their color
    sequence in search order; the least coloring of a G-orbit then meets
    all three cuts at once, since breaking one would give a smaller image:
    - rotation: its first edge has color 1;
    - reflection: the reflection fixes color 1, so the first color c other
      than 1 has c <= t+2-c, i.e. c <= ceil((t+1)/2) (it sits on a's second
      star edge when deg(a) >= 2);
    - twin order: swapping b and b' exchanges the colors of the star edges
      ab and ab' and moves no other star edge (the other edges of b and b'
      come after the star), so the earlier of the two has the lower color.
    Every feasible t thus keeps a witness, and the search tree is a subtree
    of the one without the twin cut, visited in the same order: the first
    witness found is the same and no node count goes up.

    Coverage cut, and why it is sound.  After a placement at position pos,
    every color not yet used must be a candidate of some later edge r,
    allowed(mask_u) & allowed(mask_v) & ~(mask_u | mask_v) at r's ends u, v.
    Masks only grow on the way down, and a larger mask has a smaller
    allowed() set, so a later edge's candidates only shrink: a color that no
    later edge can take now can never be placed.  The cut keeps the search
    order, and checking it at only some positions still gives a subtree of
    the tree without it, so the first witness is the same and no node count
    goes up.  The check keeps nothing between nodes, so backtracking
    restores nothing; a cut placement counts as a node, as one cut by
    counting does.  The walk goes from the last position down and stops
    once every color is covered: an edge with two untouched ends takes
    every color, and the last edges are the likeliest to have them.  Since
    it stops, it would not cut a complete coloring even at the last
    position, which has no later edge.

    The check runs only after placements at pos < m // 2.  On the 995
    connected graphs on 2-7 vertices at a 1M budget, the scan takes 12.56M
    nodes with no check, 10.30M checking pos < m // 3, 5.60M for
    pos < m // 2, 3.09M for pos < 2m // 3 and 2.83M at every position.  A
    search that runs to its budget spends most of its nodes deep in the
    order, where a check walks far before it covers every color: on five
    such searches (Q_4 at t = 12 and 14, K_8 at 14, K_7 at 10, K_{2,2,3} at
    9; 20k budget) the time per node over all five is within a few percent
    of no check when checking the first half (K_8 alone about 1.15x), but
    1.7x for two thirds and 2.5x at every position."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    start = time.perf_counter()
    m = g.edge_count
    if t > m:  # fewer edges than colors: nothing can be surjective
        return SolveOutcome(INFEASIBLE, t, None, 0, time.perf_counter() - start)
    order, twin = _search_plan(g)
    eu = [g.edges[e][0] for e in order]
    ev = [g.edges[e][1] for e in order]
    deg = g.degrees
    # only the first `early` positions can need the reflection cap or a twin
    # link, so later pushes test neither.  The cap binds while color 1 is the
    # only color used; past position 1 (a's second star edge, which cannot
    # take color 1) that needs a start vertex of degree 1.
    early = max(len(twin), 2) if max(deg) >= 2 else m
    # a vertex's free colors, allowed() less its spectrum, keyed on degree and
    # spectrum mask and filled on first use
    free: dict[int, dict[int, int]] = {d: {} for d in set(deg)}
    wu = [free[deg[u]] for u in eu]
    wv = [free[deg[v]] for v in ev]
    capped = (1 << ((t + 2) // 2)) - 1  # colors 1..ceil((t+1)/2)
    tight = m - t  # the first k > tight edges must use at least k - tight colors
    half = m // 2  # the coverage check runs after placements at earlier positions
    full = (1 << t) - 1
    vmask = [0] * g.vertex_count
    cands = [0] * m  # untried candidate colors per position
    cands[0] = 1  # the first edge is pinned to color 1 (color rotation)
    used_at = [0] * m  # colors used by the edges before each position
    bits = [0] * m
    pos = nodes = 0
    while True:
        c = cands[pos]
        if not c:
            if pos == 0:
                return SolveOutcome(INFEASIBLE, t, None, nodes, time.perf_counter() - start)
            pos -= 1
            bit = bits[pos]
            vmask[eu[pos]] ^= bit
            vmask[ev[pos]] ^= bit
            continue
        bit = c & -c
        cands[pos] = c ^ bit
        nodes += 1
        if nodes > budget:
            return SolveOutcome(TIMEOUT, t, None, nodes, time.perf_counter() - start)
        used = used_at[pos] | bit
        if pos >= tight and used.bit_count() < pos + 1 - tight:
            continue  # too few edges left to use every color (counted as a node)
        vmask[eu[pos]] |= bit
        vmask[ev[pos]] |= bit
        if pos < half:  # coverage: every unused color is a later edge's candidate
            need = full & ~used
            r = m - 1
            while need and r > pos:  # an edge with two untouched ends covers all
                x = eu[r]
                y = ev[r]
                mx = vmask[x]
                my = vmask[y]
                fx = wu[r].get(mx)
                if fx is None:
                    fx = wu[r][mx] = allowed(mx, deg[x], t) & ~mx
                fy = wv[r].get(my)
                if fy is None:
                    fy = wv[r][my] = allowed(my, deg[y], t) & ~my
                need &= ~(fx & fy)
                r -= 1
            if need:  # cut (counted as a node)
                vmask[eu[pos]] ^= bit
                vmask[ev[pos]] ^= bit
                continue
        bits[pos] = bit
        pos += 1
        if pos == m:
            break
        used_at[pos] = used
        u = eu[pos]
        v = ev[pos]
        mu = vmask[u]
        mv = vmask[v]
        fu = wu[pos].get(mu)
        if fu is None:
            fu = wu[pos][mu] = allowed(mu, deg[u], t) & ~mu
        fv = wv[pos].get(mv)
        if fv is None:
            fv = wv[pos][mv] = allowed(mv, deg[v], t) & ~mv
        c = fu & fv  # colors are tried in ascending order
        if pos < early:
            if used == 1:  # color reflection: cap at ceil((t+1)/2)
                c &= capped
            if pos < len(twin) and twin[pos] >= 0:  # above the earlier twin's color
                c &= -(bits[twin[pos]] << 1)
        cands[pos] = c
    colors = [0] * m
    for pos, e in enumerate(order):
        colors[e] = bits[pos].bit_length()
    witness = EdgeColoring(t, tuple(colors))
    check = validate_cyclic(g, witness)
    if not check.valid:  # soundness guard; must never fire
        raise RuntimeError(f"search produced an invalid witness: {check.to_dict()}")
    return SolveOutcome(FEASIBLE, t, witness, nodes, time.perf_counter() - start)


def search_range(g: Graph, t_hi: Optional[int] = None) -> tuple[int, int]:
    """The color-count range a complete decision must cover: from max degree
    up to the best analytic upper bound."""
    lo = max(1, g.max_degree())
    hi = bounds_mod.report(g).best_upper
    if t_hi is not None:
        hi = min(hi, t_hi)
    return lo, hi


def _map_tasks(fn: Callable, tasks: Iterable, jobs: int) -> Iterator:
    """fn over tasks, in order; the one owner of worker processes.  One pool
    of min(jobs, tasks, CPUs) workers when that is above 1; else each task runs
    here when its result is asked for, so a caller may stop early."""
    if jobs > 1:
        tasks = list(tasks)
        workers = min(jobs, len(tasks), os.cpu_count() or 1)
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return iter(list(pool.map(fn, tasks)))
    return map(fn, tasks)


def _plan(g: Graph, lo: int, hi: int, node_budget: Optional[int], jobs: int = 1
          ) -> Iterator[SolveOutcome]:
    """Settle each t in [lo, hi] in ascending order, yielding its record,
    which carries its witness when feasible.  A t that parity excludes, or that
    lies below bounds.matching_floor (matching capacity), is infeasible with
    no search; every other t goes to decide(), through _map_tasks, and its
    record is the outcome decide() returned."""
    parity = bounds_mod.parity_obstruction(g)
    floor = bounds_mod.matching_floor(g)
    ts = range(lo, hi + 1)
    theorem = {t: PARITY if parity.excludes(t) else MATCHING for t in ts
               if parity.excludes(t) or t < floor}
    searched = [t for t in ts if t not in theorem]
    outcomes = _map_tasks(partial(decide, g, node_budget=node_budget), searched, jobs)
    for t in ts:
        yield (SolveOutcome(INFEASIBLE, t, None, 0, source=theorem[t]) if t in theorem
               else next(outcomes))


def feasible_set(g: Graph, t_hi: Optional[int] = None,
                 node_budget: Optional[int] = None, jobs: int = 1) -> FeasibleSet:
    """Settle every color count in the bounded range (see _plan); the set is
    exhausted unless some search timed out."""
    lo, hi = search_range(g, t_hi)
    return FeasibleSet(g.digest(), lo, hi, tuple(_plan(g, lo, hi, node_budget, jobs)))


def extremal(g: Graph, node_budget: Optional[int] = None, jobs: int = 1) -> FeasibleSet:
    """The feasible set of the whole bounded range, read for its least and
    greatest usable color counts: w_c, W_c and as_pair(), which is
    (None, None) when nothing in the range is feasible."""
    return feasible_set(g, node_budget=node_budget, jobs=jobs)


def certify_noncolorable(g: Graph, node_budget: Optional[int] = None
                         ) -> EdgeColoring | nc.Certificate:
    """Either a witness coloring (the graph is colorable), or a certificate
    of non-colorability: an analytic rule with machine-verified premises when
    one matches, otherwise the per-t transcript of the planner over the
    bounded range.  Timeouts yield a certificate explicitly marked
    inconclusive."""
    analytic = nc.match_analytic(g)
    if analytic is not None:
        return analytic
    lo, hi = search_range(g)
    transcripts = []
    for rec in _plan(g, lo, hi, node_budget):
        if rec.witness is not None:
            return rec.witness
        transcripts.append(rec.to_dict())
    timed_out = any(tr["decision"] == TIMEOUT for tr in transcripts)
    premises = (
        nc.Premise("searched-range", hi - lo + 1 if hi >= lo else 0,
                   f"all t in [{lo}, {hi}] decided by search, parity or matching "
                   "capacity; smaller t fail vertex-degree properness, larger t "
                   "exceed the best applicable upper bound",
                   not timed_out),
    )
    return nc.Certificate(
        rule=nc.RULE_EXHAUSTIVE,
        premises=premises,
        conclusion=None if timed_out else nc.NONCOLORABLE,
        transcripts=tuple(transcripts),
        inconclusive=timed_out,
    )


@dataclass(frozen=True)
class ScanRecord:
    graph_digest: str
    vertex_count: int
    edge_count: int
    skipped: bool
    members: tuple[int, ...]
    W_c: Optional[int]
    gap_free: Optional[bool]
    order_bound_applies: bool  # connected triangle-free: W_c <= |V|?
    order_bound_ok: Optional[bool]
    double_order_bound_applies: bool  # connected, >= 2 vertices: W_c <= 2|V|-3?
    double_order_bound_ok: Optional[bool]

    @property
    def counterexample(self) -> bool:
        return (self.order_bound_applies and self.order_bound_ok is False) or \
            (self.double_order_bound_applies and self.double_order_bound_ok is False)

    def to_dict(self) -> dict:
        return {"graph": self.graph_digest,
                "vertices": self.vertex_count,
                "edges": self.edge_count,
                "skipped": self.skipped,
                "members": list(self.members),
                "W_c": self.W_c,
                "gap_free": self.gap_free,
                "order_bound": {"applies": self.order_bound_applies,
                                "ok": self.order_bound_ok},
                "double_order_bound": {"applies": self.double_order_bound_applies,
                                       "ok": self.double_order_bound_ok},
                "counterexample": self.counterexample}


@dataclass(frozen=True)
class ScanReport:
    records: tuple[ScanRecord, ...]

    @property
    def counterexamples(self) -> tuple[ScanRecord, ...]:
        return tuple(r for r in self.records if r.counterexample)

    def to_dict(self) -> dict:
        return {"records": [r.to_dict() for r in self.records],
                "counterexamples": len(self.counterexamples),
                "skipped": sum(1 for r in self.records if r.skipped)}


def _scan_record(node_budget: Optional[int], g: Graph) -> ScanRecord:
    fs = feasible_set(g, node_budget=node_budget)
    m = metrics(g)
    w_max = fs.W_c if fs.exhausted else None
    gap_free = None if w_max is None else fs.members == tuple(range(fs.w_c, w_max + 1))
    applies_1 = m.is_connected and m.is_triangle_free and w_max is not None
    applies_2 = m.is_connected and g.vertex_count >= 2 and w_max is not None
    return ScanRecord(
        fs.graph_digest, g.vertex_count, g.edge_count, not fs.exhausted, fs.members, w_max,
        gap_free,
        applies_1, (w_max <= g.vertex_count) if applies_1 else None,
        applies_2, (w_max <= 2 * g.vertex_count - 3) if applies_2 else None,
    )


def conjecture_scan(corpus: Iterable[Graph], node_budget: Optional[int] = None,
                    jobs: int = 1) -> ScanReport:
    """Check every graph's largest usable color count against the conjectured
    order bounds (|V| for connected triangle-free graphs, 2|V|-3 for connected
    graphs) and record gap-freeness; graphs whose search timed out are marked
    skipped and judged on nothing.  Workers (see _map_tasks) take whole
    graphs, each settled in one process, and the records keep corpus order."""
    return ScanReport(tuple(_map_tasks(partial(_scan_record, node_budget), corpus, jobs)))
