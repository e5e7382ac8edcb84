"""Exact decision procedure and feasible-set computation.

decide() runs a complete backtracking search over edge colorings.  Edges are
ordered by BFS from a maximum-degree vertex so the tightest spectrum
constraints engage early.  The search is an explicit-stack loop with no depth
limit: each position keeps the bitset of its untried candidate colors and
takes them lowest first.  A position's candidates are the colors free at both
endpoints that keep each endpoint's spectrum inside some cyclic window of its
degree size; these window masks come from allowed() and are cached per
(spectrum, degree) for the call.  Branches that cannot use all t colors are
cut, and three symmetry cuts keep only the lexicographically least coloring
of each orbit (see decide()): the first edge is pinned to color 1 (color
rotation), the first color other than 1 is capped at ceil((t+1)/2) (color
reflection), and the edges from the first vertex to twin neighbours take
increasing colors (twin order).  Budget exhaustion is reported as a timeout
outcome, never as infeasibility.  With a fixed budget and a single worker,
results are bit-identical run to run.

feasible_set() and certify_noncolorable() settle the color counts of the
bounded range through one planner, _plan().  A count that a theorem excludes
is recorded as infeasible with 0 nodes and never searched: source "parity"
for an even t of an Eulerian graph with an odd edge count, source "matching"
for a t below bounds.matching_floor, where |E| > t * floor(|V|/2).  Every
other count is decided by decide() and recorded with source "search" and its
node count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from . import bounds as bounds_mod
from . import noncolorable as nc
from .coloring import EdgeColoring, validate_cyclic
from .graphs import Graph, bfs, first_twins, metrics

DEFAULT_NODE_BUDGET = 100_000_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"

SEARCH = "search"  # sources of a per-t decision
PARITY = "parity"
MATCHING = "matching"


@dataclass(frozen=True)
class SolveOutcome:
    decision: str  # feasible | infeasible | timeout
    t: int
    witness: Optional[EdgeColoring]
    nodes_explored: int
    elapsed: float  # wall seconds; kept out of to_dict() so output is byte-stable

    def to_dict(self) -> dict:
        d: dict = {"decision": self.decision, "t": self.t,
                   "nodes_explored": self.nodes_explored}
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        return d


@dataclass(frozen=True)
class TDecision:
    """How one color count was settled: by a search (source "search", with
    its node count) or by a theorem whose premises were recomputed from the
    graph, with 0 nodes.  Source "parity": an Eulerian graph with an odd edge
    count admits no even t.  Source "matching": each color class is a
    matching of at most floor(|V|/2) edges, so |E| > t * floor(|V|/2)
    excludes t; K_5 (10 edges, 2 per class) is excluded at t = 4."""
    t: int
    decision: str  # feasible | infeasible | timeout
    source: str  # search | parity | matching
    nodes_explored: int

    def to_dict(self) -> dict:
        return {"t": self.t, "decision": self.decision, "source": self.source,
                "nodes_explored": self.nodes_explored}


@dataclass(frozen=True)
class FeasibleSet:
    graph_digest: str
    t_lo: int
    t_hi: int
    decisions: tuple[TDecision, ...]  # one per t in [t_lo, t_hi], ascending
    witnesses: dict[int, EdgeColoring] = field(compare=False)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(d.t for d in self.decisions if d.decision == FEASIBLE)

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


@dataclass(frozen=True)
class ExtremalResult:
    w_c: Optional[int]
    W_c: Optional[int]
    exhausted: bool

    def as_pair(self) -> tuple[Optional[int], Optional[int]]:
        return (self.w_c, self.W_c)


def _search_order(g: Graph) -> list[int]:
    """Edge indices ordered by BFS from a maximum-degree vertex (per
    component), appending each visited vertex's unseen incident edges."""
    dist = [-1] * g.vertex_count
    added = [False] * g.edge_count
    order: list[int] = []
    for start in sorted(range(g.vertex_count), key=lambda v: (-g.degrees[v], v)):
        if dist[start] >= 0:
            continue
        for u in bfs(g, start, dist):
            for e in g.incident_edges[u]:
                if not added[e]:
                    added[e] = True
                    order.append(e)
    return order


def _twin_links(g: Graph) -> list[int]:
    """Twin order on the first star of _search_order: the edges at its start
    vertex a (the first maximum-degree vertex), which fill the first deg(a)
    positions with their far endpoints in ascending order, as in
    g.adjacency[a].  Entry p is the latest earlier position whose far
    endpoint is a twin of position p's (see graphs.first_twins), or -1;
    trailing -1 entries are dropped."""
    star = g.adjacency[g.degrees.index(max(g.degrees))]
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
    witness found is the same and no node count goes up."""
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
    # allowed() results keyed on (spectrum mask, degree), filled on first use
    windows: dict[int, dict[int, int]] = {d: {} for d in set(deg)}
    wu = [windows[deg[u]] for u in eu]
    wv = [windows[deg[v]] for v in ev]
    capped = (1 << ((t + 2) // 2)) - 1  # colors 1..ceil((t+1)/2)
    tight = m - t  # the first k > tight edges must use at least k - tight colors
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
        bits[pos] = bit
        pos += 1
        if pos == m:
            break
        used_at[pos] = used
        u = eu[pos]
        v = ev[pos]
        mu = vmask[u]
        mv = vmask[v]
        au = wu[pos].get(mu)
        if au is None:
            au = wu[pos][mu] = allowed(mu, deg[u], t)
        av = wv[pos].get(mv)
        if av is None:
            av = wv[pos][mv] = allowed(mv, deg[v], t)
        c = au & av & ~(mu | mv)  # colors are tried in ascending order
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
    (2 suffices for degree-2 graphs) up to the best analytic upper bound."""
    delta = g.max_degree()
    lo = 2 if delta == 2 else max(1, delta)
    hi = bounds_mod.report(g).best_upper
    if t_hi is not None:
        hi = min(hi, t_hi)
    return lo, hi


def _decide_task(args: tuple[Graph, int, Optional[int]]) -> SolveOutcome:
    g, t, budget = args
    return decide(g, t, budget)


def _plan(g: Graph, lo: int, hi: int, node_budget: Optional[int], jobs: int = 1
          ) -> Iterator[tuple[TDecision, Optional[EdgeColoring]]]:
    """Settle each t in [lo, hi] in ascending order, yielding its record and
    its witness (None unless feasible).  A t that parity excludes, or that
    lies below bounds.matching_floor (matching capacity), is infeasible with
    no search; every other t goes to decide().  At most min(jobs, searched t
    values, CPU count) worker processes run; with one, each t is searched
    in-process only when the caller asks for its record, so a caller may stop
    early."""
    parity = bounds_mod.parity_obstruction(g)
    floor = bounds_mod.matching_floor(g)
    ts = range(lo, hi + 1)
    theorem = {t: PARITY if parity.excludes(t) else MATCHING for t in ts
               if parity.excludes(t) or t < floor}
    searched = [t for t in ts if t not in theorem]
    workers = min(jobs, len(searched), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = iter(list(pool.map(_decide_task,
                                          [(g, t, node_budget) for t in searched])))
    else:
        outcomes = (decide(g, t, node_budget) for t in searched)
    for t in ts:
        if t in theorem:
            yield TDecision(t, INFEASIBLE, theorem[t], 0), None
        else:
            out = next(outcomes)
            yield TDecision(t, out.decision, SEARCH, out.nodes_explored), out.witness


def feasible_set(g: Graph, t_hi: Optional[int] = None,
                 node_budget: Optional[int] = None, jobs: int = 1) -> FeasibleSet:
    """Settle every color count in the bounded range (see _plan); the set is
    exhausted unless some search timed out."""
    lo, hi = search_range(g, t_hi)
    decisions = []
    witnesses = {}
    for rec, witness in _plan(g, lo, hi, node_budget, jobs):
        decisions.append(rec)
        if witness is not None:
            witnesses[rec.t] = witness
    return FeasibleSet(g.digest(), lo, hi, tuple(decisions), witnesses)


def extremal(g: Graph, node_budget: Optional[int] = None, jobs: int = 1) -> ExtremalResult:
    """Least and greatest usable color counts from a fully decided range;
    (None, None) when nothing in the bounded range is feasible."""
    fs = feasible_set(g, node_budget=node_budget, jobs=jobs)
    if not fs.members:
        return ExtremalResult(None, None, fs.exhausted)
    return ExtremalResult(min(fs.members), max(fs.members), fs.exhausted)


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
    for rec, witness in _plan(g, lo, hi, node_budget):
        if witness is not None:
            return witness
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


def conjecture_scan(corpus: Iterable[Graph], node_budget: Optional[int] = None,
                    jobs: int = 1) -> ScanReport:
    """Check every graph's largest usable color count against the conjectured
    order bounds (|V| for connected triangle-free graphs, 2|V|-3 for connected
    graphs) and record gap-freeness; graphs whose search timed out are marked
    skipped and judged on nothing."""
    records = []
    for g in corpus:
        fs = feasible_set(g, node_budget=node_budget, jobs=jobs)
        m = metrics(g)
        if not fs.exhausted:
            records.append(ScanRecord(g.digest(), g.vertex_count, g.edge_count,
                                      True, fs.members, None, None,
                                      False, None, False, None))
            continue
        w_max = max(fs.members) if fs.members else None
        gap_free = None
        if fs.members:
            gap_free = fs.members == tuple(range(fs.members[0], fs.members[-1] + 1))
        applies_1 = m.is_connected and m.is_triangle_free and w_max is not None
        applies_2 = m.is_connected and g.vertex_count >= 2 and w_max is not None
        records.append(ScanRecord(
            g.digest(), g.vertex_count, g.edge_count, False, fs.members, w_max,
            gap_free,
            applies_1, (w_max <= g.vertex_count) if applies_1 else None,
            applies_2, (w_max <= 2 * g.vertex_count - 3) if applies_2 else None,
        ))
    return ScanReport(tuple(records))
