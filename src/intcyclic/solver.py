"""Exact decision procedure and feasible-set computation.

decide() runs a complete backtracking search over edge colorings.  Edges are
ordered by BFS from a maximum-degree vertex so the tightest spectrum
constraints engage early; at every partial assignment each touched vertex
must still be extendable to a size-d(v) cyclic window (gap analysis on the
spectrum bitset), branches that cannot use all t colors are cut, the first
edge is pinned to color 1 (color rotation), and the first color other than 1
is capped at ceil((t+1)/2) (color reflection; sound for both outcomes, see
tests).  Budget exhaustion is reported as a timeout outcome, never as
infeasibility.  With a fixed budget and a single worker, results are
bit-identical run to run.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import bounds as bounds_mod
from . import noncolorable as nc
from .coloring import EdgeColoring, validate_cyclic
from .graphs import Graph, bfs, metrics

DEFAULT_NODE_BUDGET = 100_000_000

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"


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
class FeasibleSet:
    graph_digest: str
    t_lo: int
    t_hi: int
    members: tuple[int, ...]
    witnesses: dict[int, EdgeColoring] = field(compare=False)
    exhausted: bool = True
    nodes_explored: int = 0

    def to_dict(self) -> dict:
        return {"graph": self.graph_digest,
                "range": [self.t_lo, self.t_hi],
                "members": list(self.members),
                "exhausted": self.exhausted,
                "nodes_explored": self.nodes_explored,
                "witnesses": {str(t): w.to_dict() for t, w in sorted(self.witnesses.items())}}


@dataclass(frozen=True)
class ExtremalResult:
    w_c: Optional[int]
    W_c: Optional[int]
    exhausted: bool

    def as_pair(self) -> tuple[Optional[int], Optional[int]]:
        return (self.w_c, self.W_c)


class _BudgetExhausted(Exception):
    pass


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


def decide(g: Graph, t: int, node_budget: Optional[int] = None) -> SolveOutcome:
    """Decide whether the graph admits a cyclic coloring with exactly t
    colors; feasible outcomes carry a validated witness."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    start = time.perf_counter()
    m = g.edge_count
    order = _search_order(g)
    eu = [g.edges[e][0] for e in order]
    ev = [g.edges[e][1] for e in order]
    deg = g.degrees
    vmask = [0] * g.vertex_count
    assign = [0] * m
    cap = (t + 2) // 2  # ceil((t+1)/2)
    nodes = 0
    cover_cache: dict[int, int] = {0: 0}

    def cover(mask: int) -> int:
        c = cover_cache.get(mask)
        if c is None:
            bits = []
            mm, i = mask, 0
            while mm:
                if mm & 1:
                    bits.append(i)
                mm >>= 1
                i += 1
            max_gap = bits[0] + t - bits[-1]
            for a, b in zip(bits, bits[1:]):
                if b - a > max_gap:
                    max_gap = b - a
            c = t - max_gap + 1
            cover_cache[mask] = c
        return c

    def rec(pos: int, used: int, ucount: int, non1: bool) -> bool:
        nonlocal nodes
        if t - ucount > m - pos:
            return False  # too few edges left to use every color
        if pos == m:
            return True
        u, v = eu[pos], ev[pos]
        occupied = vmask[u] | vmask[v]
        for c in range(1, 2 if pos == 0 else t + 1):
            bit = 1 << (c - 1)
            if occupied & bit:
                continue
            if not non1 and c != 1:
                if c > cap:
                    break  # colors ascend; reflection canonicalizes the rest
                child_non1 = True
            else:
                child_non1 = non1 or c != 1
            nm_u = vmask[u] | bit
            if cover(nm_u) > deg[u]:
                continue
            nm_v = vmask[v] | bit
            if cover(nm_v) > deg[v]:
                continue
            nodes += 1
            if nodes > budget:
                raise _BudgetExhausted
            vmask[u] = nm_u
            vmask[v] = nm_v
            assign[pos] = c
            if rec(pos + 1, used | bit, ucount + (0 if used & bit else 1), child_non1):
                return True
            vmask[u] = nm_u ^ bit
            vmask[v] = nm_v ^ bit
        return False

    try:
        found = rec(0, 0, 0, False)
    except _BudgetExhausted:
        return SolveOutcome(TIMEOUT, t, None, nodes, time.perf_counter() - start)
    if not found:
        return SolveOutcome(INFEASIBLE, t, None, nodes, time.perf_counter() - start)
    colors = [0] * m
    for pos, e in enumerate(order):
        colors[e] = assign[pos]
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


def feasible_set(g: Graph, t_hi: Optional[int] = None,
                 node_budget: Optional[int] = None, jobs: int = 1) -> FeasibleSet:
    """Decide every color count in the bounded range; exhausted is False when
    any single decision timed out.  At most min(jobs, number of t values,
    CPU count) worker processes run; with one, the decisions run in-process."""
    lo, hi = search_range(g, t_hi)
    ts = list(range(lo, hi + 1))
    workers = min(jobs, len(ts), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_decide_task, [(g, t, node_budget) for t in ts]))
    else:
        outcomes = [decide(g, t, node_budget) for t in ts]
    members = []
    witnesses = {}
    for out in outcomes:
        if out.decision == FEASIBLE:
            members.append(out.t)
            witnesses[out.t] = out.witness
    return FeasibleSet(
        graph_digest=g.digest(),
        t_lo=lo,
        t_hi=hi,
        members=tuple(members),
        witnesses=witnesses,
        exhausted=all(out.decision != TIMEOUT for out in outcomes),
        nodes_explored=sum(out.nodes_explored for out in outcomes),
    )


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
    one matches, otherwise the exhaustive transcript over the bounded range.
    Timeouts yield a certificate explicitly marked inconclusive."""
    analytic = nc.match_analytic(g)
    if analytic is not None:
        return analytic
    lo, hi = search_range(g)
    transcripts = []
    timed_out = False
    for t in range(lo, hi + 1):
        out = decide(g, t, node_budget)
        transcripts.append({"t": t, "decision": out.decision,
                            "nodes_explored": out.nodes_explored})
        if out.decision == FEASIBLE:
            return out.witness
        if out.decision == TIMEOUT:
            timed_out = True
    premises = (
        nc.Premise("searched-range", hi - lo + 1 if hi >= lo else 0,
                   f"all t in [{lo}, {hi}] decided; smaller t fail vertex-degree "
                   "properness, larger t exceed the best applicable upper bound",
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
