"""Exact decision procedure and feasible-set computation.

decide() runs a complete backtracking search over edge colorings.  Edges are
taken in a static fail-first order (see _search_plan): the star of the
start vertex a, the first maximum-degree vertex, then the edges among a's
neighbours, whose spectra the star has begun, then the other edges in the
visit order of the graph's component pass, a BFS from each component's
first maximum-degree vertex.  So the tightest spectrum constraints engage
early.  The order, the star's twin links and the other facts decide() reads
of a graph form its search plan, built once per Graph object and read by
every t.  When the slack m - t is at most 8, the order past a short static
prefix of the star is chosen along the path: on entering a position, an
unplaced edge beside the edge just placed with strictly fewer candidates
takes the place of the plan's edge, and gives it back when the search
leaves (see decide()).  The symmetry cuts below constrain only the static
prefix, and the counting and coverage cuts hold in any order, so either
order leaves every cut sound.  The search is an explicit-stack loop with no
depth limit: each position keeps the bitset of its untried candidate
colors and takes them lowest first.  A position's candidates are the
colors free at both endpoints that keep each endpoint's spectrum inside
some cyclic window of its degree size: each endpoint's allowed() window
mask less its spectrum, read from one window table per process keyed on
(t, degree, spectrum), which is cleared once it holds more than
WINDOW_TABLE_CAP entries; no answer depends on its state (see _WINDOWS).
At a slack of 8 or less each vertex's entry is kept in a list along the
path instead of looked up at every use.  Branches that cannot use all t
colors are cut, by counting at every position and by coverage: each color
not yet used must still be a candidate of some later edge, checked after
every placement when the slack is at most 8, else after a placement in the
first three fifths of the order (see decide()).  Three symmetry cuts keep
only the lexicographically least coloring of each orbit (see decide()): the
first edge is pinned to color 1 (color rotation), the first color other
than 1 is capped at ceil((t+1)/2) (color reflection), and the edges from
the first vertex to twin neighbours take increasing colors (twin order).
Budget exhaustion is reported as a timeout outcome, never as
infeasibility.  With a fixed budget and a single worker, results are
bit-identical run to run.

feasible_set() and certify_noncolorable() settle the color counts of the
bounded range through one planner, _plan().  Each count has one record, a
SolveOutcome.  A count that the degree-sum obstruction excludes, where no
set of vertices has a degree sum congruent to |E| mod t
(bounds.degree_sum_obstruction), is recorded as infeasible with source
"degree-sum" and 0 nodes, and never searched; on the bounded range the
obstruction contains the parity obstruction and matching capacity.  Every
other count is decided by decide(), and its record is the outcome decide()
returned, with source "search", its node count and its wall time.  A
FeasibleSet holds the records of one graph; extremal() returns it, read for
w_c and W_c, its least and greatest members.
"""

from __future__ import annotations

import os
import time
from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from heapq import heapify, heappop, heappush
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
DEGREE_SUM = "degree-sum"


@dataclass(frozen=True)
class SolveOutcome:
    """How one color count was settled: by decide() (source "search", with
    its node count and, when feasible, a validated witness) or, with 0
    nodes, by the degree-sum obstruction (source "degree-sum"), whose
    premises were recomputed from the graph: the colors at each vertex form
    an arc of Z_t, and a coloring gives signs e_v with sum e_v d(v) = 0
    (mod 2t) (bounds.degree_sum_obstruction).  K_5 (every degree 4, 10
    edges) is excluded at t = 4, where every degree sum is 0 mod 4 and 10
    is not, and at t = 7, 8 and 9."""
    decision: str  # feasible | infeasible | timeout
    t: int
    witness: Optional[EdgeColoring] = field(compare=False)
    nodes_explored: int
    # wall seconds; kept out of to_dict() so output is byte-stable
    elapsed: float = field(default=0.0, compare=False)
    source: str = SEARCH  # search | degree-sum

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


# What decide() reads of a graph, the same at every t (see _search_plan): the
# edge indices in search order, each position's edge (u, v), the star's twin
# links, how many positions can need the reflection cap or a twin link (the
# static prefix, at least as long as the links), the degrees at edge ends,
# each of which gets one window table per t, and per vertex the positions of
# its edges, ascending, where the fail-first choice looks for the next edge
# (None until a call chooses fail first; see _spots)
SearchPlan = namedtuple("SearchPlan", "order ends twin early degrees spots")


def _search_plan(g: Graph) -> SearchPlan:
    """Build the search plan of a graph and keep it on the Graph object, as
    functools.cached_property keeps its sweep: the first decide() of a Graph
    builds it, and every later one reads the kept plan, since it depends
    only on the graph and _plan decides many t of one graph.  decide() keeps
    its signature, so callers that wrap it still see every search.

    The order: the first star, then the edges inside its neighbourhood,
    fail first, then every other edge in the component pass's visit order.
    The start vertex a is the root of the component pass's first walk (see
    Graph._components), and its edges, far endpoints ascending, fill the
    first deg(a) positions.  The edges with both ends in N(a) come next,
    vertex by vertex: take the neighbour b with the largest share
    placed/deg of its edges already placed (ties: visit order), and append
    its unplaced edges inside N(a), partners with the larger share first
    (ties: visit order).  Last come the other edges in visit order (a BFS
    from each component's root, appending each visited vertex's unseen
    incident edges), which puts the edges with one end in N(a) before the
    rest.  After the star, an edge inside N(a) has both ends' spectra begun,
    so it has the fewest candidates (Haralick & Elliott, Artif. Intell. 14,
    1980).  The symmetry cuts constrain only the star, which comes first,
    and coverage and counting hold in any order, so each cut stays sound.
    A triangle-free graph has no edge inside N(a): its order is the visit
    order.

    A heap holds one entry per share a neighbour has had, so the order costs
    O(m log m); a neighbour with no edge inside N(a) never enters it, so a
    triangle-free graph pays one disjointness test per neighbour.  Shares
    compare exactly as floats: p/d is correctly rounded, and two distinct
    fractions with denominators at most MAX_VERTEX_COUNT (10**6) differ by at
    least 1e-12, far above the rounding error.  Ties go to the lower vertex
    number, which is the visit order on N(a): the star lists it ascending.

    The twin links, for the twin order: entry p is the latest earlier star
    position whose far endpoint is a twin of position p's (see
    graphs.first_twins), or -1; trailing -1 entries are dropped.

    The static prefix, `early`: the first max(2, len(links)) positions when
    deg(a) >= 2, else all of them.  The reflection cap and the twin links
    act only there, so decide()'s fail-first choice (slack m - t at most 8)
    starts after it, reading `spots`, each vertex's positions in this order
    (see _spots).  Starting the choice after the whole star instead cuts the
    benchmark's scan nodes by 22% rather than 34% (76,793 to 60,167, against
    50,639)."""
    added = [False] * g.edge_count
    walks = g._components[0]
    if not walks:  # no vertex
        return SearchPlan((), (), (), 0, frozenset(), None)
    adjacency, incident, deg = g.adjacency, g.incident_edges, g.degrees
    a = walks[0][0]
    star = adjacency[a]
    order = list(incident[a])  # the star's edges, in the order of its far ends
    for e in order:
        added[e] = True
    placed = dict.fromkeys(star, 1)  # placed edges per neighbour; -1 once done
    near = placed.keys()
    heap = [(-1 / deg[b], b) for b in star if not near.isdisjoint(adjacency[b])]
    heapify(heap)
    while heap:
        b = heappop(heap)[1]
        if placed[b] < 0:  # done; an older, smaller share of b
            continue
        placed[b] = -1
        partners = []
        for c, e in zip(adjacency[b], incident[b]):
            if c in near and not added[e]:
                partners.append((-placed[c] / deg[c], c, e))
        partners.sort()
        for _, c, e in partners:
            added[e] = True
            order.append(e)
            placed[c] += 1
            heappush(heap, (-placed[c] / deg[c], c))
    for walk in walks:
        for u in walk:
            for e in incident[u]:
                if not added[e]:
                    added[e] = True
                    order.append(e)
    last: dict[int, int] = {}  # first vertex of a twin class -> latest position
    links: list[int] = []
    for p, first in enumerate(first_twins(g, star)):
        links.append(last.get(first, -1))
        last[first] = p
    while links and links[-1] < 0:
        links.pop()
    # only the first `early` positions can need the reflection cap or a twin
    # link, so later pushes test neither.  The cap binds while color 1 is the
    # only color used; past position 1 (a's second star edge, which cannot
    # take color 1) that needs a start vertex of degree 1.
    early = max(len(links), 2) if len(star) >= 2 else g.edge_count
    plan = vars(g)["_search_plan"] = SearchPlan(
        tuple(order), tuple(map(g.edges.__getitem__, order)), tuple(links), early,
        frozenset(deg) - {0}, None)
    return plan


def _spots(g: Graph, plan: SearchPlan) -> tuple[tuple[int, ...], ...]:
    """Each vertex's positions in the plan's order, ascending: the plan's
    `spots`, built by the first decide() of a Graph that chooses fail first
    and kept in its plan from then on.  Only that mode reads them, so a call
    with more slack does not pay for them: on P_800 they are about half the
    plan's cost."""
    spots: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for p, (u, v) in enumerate(plan.ends):
        spots[u].append(p)
        spots[v].append(p)
    kept = tuple(map(tuple, spots))
    vars(g)["_search_plan"] = plan._replace(spots=kept)
    return kept


# The window table: (t, degree) -> {spectrum mask: allowed(mask, degree, t)
# & ~mask}, shared by every decide() in this process.  Each value is a pure
# function of its key, so no answer, node count or witness depends on what the
# table holds.  decide() clears it at its start once it holds more than
# WINDOW_TABLE_CAP entries, so a process holds at most the cap plus one call's
# own growth.
WINDOW_TABLE_CAP = 1 << 16
_WINDOWS: dict[tuple[int, int], dict[int, int]] = {}


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

    Two modes, chosen once per call from the slack m - t.  At a slack of 8
    or less, past the static prefix (the plan's first `early` positions),
    the next edge is chosen fail first, and coverage is checked after every
    placement, over per-vertex free colors kept along the path.  Above 8,
    the search takes the plan's order as it is, reads candidates from the
    window table, and checks coverage after placements at pos < 3m // 5.

    Symmetry cuts, and why together they keep every decision.  Let G be the
    group generated by the color rotations c -> c+k (mod t), the reflection
    c -> t+2-c (mod t) and the transpositions of twin neighbours b, b' of
    the start vertex a.  A twin transposition is a vertex automorphism
    fixing a, so it maps cyclic colorings to cyclic colorings, and color
    maps commute with it.  Order colorings lexicographically by their color
    sequence in a fixed order whose first positions are the static prefix,
    the plan's order say; the least coloring of a G-orbit then meets all
    three cuts at once, since breaking one would give a smaller image:
    - rotation: its first edge has color 1;
    - reflection: the reflection fixes color 1, so the first color c other
      than 1 has c <= t+2-c, i.e. c <= ceil((t+1)/2) (it sits on a's second
      star edge when deg(a) >= 2);
    - twin order: swapping b and b' exchanges the colors of the star edges
      ab and ab' and moves no other star edge (the other edges of b and b'
      come after the star), so the earlier of the two has the lower color.
    The three cuts compare only prefix positions: the prefix is a's first
    max(2, len(twin)) star edges (every position when deg(a) < 2), so every
    twin link and every position that can need the cap lie in it.  Below
    the prefix the search tries every coloring in whatever order it takes
    its edges, so every feasible t keeps a witness.  The search tree is a
    subtree of the one without the twin cut, visited in the same order, and
    its first witness W is the same: if W broke the twin order at star
    positions p < q, its twin image would agree with W before p (the prefix
    is static, and the swap moves only prefix edges and edges after them),
    take a lower color at p and meet the rotation pin and the cap, so the
    search without the cut would have reached it first.  So no node count
    goes up against that search.

    Fail-first choice, at a slack of 8 or less.  On entering a position past
    the prefix, the edge the arrangement holds there stays unless an
    unplaced edge sharing an end with the edge just placed has strictly
    fewer candidates: those are looked at by the placed edge's lower end,
    then its higher one, each end's edges in plan order (SearchPlan.spots),
    and the first with the fewest wins (Haralick & Elliott, Artif. Intell.
    14, 1980; Brelaz, CACM 22, 1979).  The winner trades places with the
    held edge, and they trade back when the search leaves the position, so
    the arrangement is a function of the current path alone, and a search
    without the twin and coverage cuts that follows the same rule searches
    a supertree of this tree.  Each vertex's free colors, allowed() less its
    spectrum, are kept in a list, set on placement and restored on
    backtrack, so an edge's candidates are the AND of its ends' entries and
    neither the choice nor the coverage walk reads the window table.

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

    Why the slack split.  With little slack few edges may repeat a color,
    so an unused color is soon left without a later edge and the coverage
    cut pays at every depth.  With a large slack the walk goes far before
    it covers every color, and a search that runs to its budget spends most
    of its nodes deep in the order, where the walk is longest: on the 32
    budget-bound searches of the benchmark's search pool, checking every
    position cost 2.3x per node against no check, and checking before
    3m // 5 1.16x.  On the 995 connected graphs on 2-7 vertices at a 1M
    budget, the static order takes 2,126,466 nodes with the 3m // 5 gate at
    every slack, and with every position checked at slack at most S:
    2,007,135 for S = 4, 1,780,366 for 6, 1,653,194 for 8, 1,647,896 for 10
    and 1,647,818 for 12 or more, with the same answers each time; the
    fail-first choice at slack at most 8 brings 1,653,194 to 1,112,989.
    Every search of the benchmark's search pool that runs to its 20k budget
    has a slack of 10 or more, and there the choice and the free lists cost
    more per node than they save: choosing fail first at every slack cut
    the search workload's nodes by 21% but its items per second by 46%, and
    the free lists alone, in the static order, cost 13-23% per node on
    K_7 at t = 8, Q_4 at 12 and C_200 at 25."""
    if t < 1:
        raise ValueError("t must be a positive integer")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    start = time.perf_counter()
    m = g.edge_count
    if t > m:  # fewer edges than colors: nothing can be surjective
        return SolveOutcome(INFEASIBLE, t, None, 0, time.perf_counter() - start)
    plan = vars(g).get("_search_plan") or _search_plan(g)
    order, ends, twin, early, degrees, spots = plan
    deg = g.degrees
    # a vertex's free colors, allowed() less its spectrum: the per-degree
    # dicts of this process's window table for t, keyed on the spectrum mask
    # and filled on first use.  It is cleared here once over the cap, and no
    # answer depends on its state (see _WINDOWS)
    if sum(map(len, _WINDOWS.values())) > WINDOW_TABLE_CAP:
        _WINDOWS.clear()
    windows = {d: _WINDOWS.setdefault((t, d), {}) for d in degrees}
    # one tuple per position: its edge's ends and their window dicts
    slots = [(u, v, windows[deg[u]], windows[deg[v]]) for u, v in ends]
    capped = (1 << ((t + 2) // 2)) - 1  # colors 1..ceil((t+1)/2)
    tight = m - t  # the first k > tight edges must use at least k - tight colors
    full = (1 << t) - 1
    vmask = [0] * g.vertex_count
    # what each position below the current one keeps: its color, its untried
    # candidates and the colors used before it
    bits = [0] * m
    cands = [0] * m
    used_at = [0] * m
    held = range(m)  # the plan position of the edge at each position
    pos = nodes = before = 0  # before: colors used before the current position
    u, v, tu, tv = slots[0]
    # the current position's untried candidates: the first edge is pinned to
    # color 1 (color rotation)
    c = 1
    if tight <= 8:  # fail first, over per-vertex free colors (see above)
        spots = spots or _spots(g, plan)
        free = [full] * g.vertex_count  # allowed() less the spectrum, per vertex
        held = list(held)
        at = list(held)  # the position of the edge at each plan position
        swapped = [0] * m  # the position whose edge a position took, or 0
        free_u = [0] * m  # its ends' free colors before a position's placement
        free_v = [0] * m
        while True:
            if not c:
                if pos == 0:
                    return SolveOutcome(INFEASIBLE, t, None, nodes, time.perf_counter() - start)
                r = swapped[pos]
                if r:  # leaving the position: its own edge comes back
                    swapped[pos] = 0
                    p, q = held[pos], held[r]
                    held[pos], held[r], at[p], at[q] = q, p, r, pos
                    slots[pos], slots[r] = slots[r], slots[pos]
                pos -= 1
                u, v, tu, tv = slots[pos]
                bit = bits[pos]
                vmask[u] ^= bit
                vmask[v] ^= bit
                free[u] = free_u[pos]
                free[v] = free_v[pos]
                c = cands[pos]
                before = used_at[pos]
                continue
            bit = c & -c
            c ^= bit
            nodes += 1
            if nodes > budget:
                return SolveOutcome(TIMEOUT, t, None, nodes, time.perf_counter() - start)
            used = before | bit
            if pos >= tight and used.bit_count() < pos + 1 - tight:
                continue  # too few edges left to use every color (counted as a node)
            fu = free[u]
            fv = free[v]
            mu = vmask[u] = vmask[u] | bit
            mv = vmask[v] = vmask[v] | bit
            try:
                free[u] = tu[mu]
            except KeyError:
                free[u] = tu[mu] = allowed(mu, deg[u], t) & ~mu
            try:
                free[v] = tv[mv]
            except KeyError:
                free[v] = tv[mv] = allowed(mv, deg[v], t) & ~mv
            need = full & ~used  # coverage, after every placement
            r = m - 1
            while need and r > pos:
                x, y, _, _ = slots[r]
                need &= ~(free[x] & free[y])
                r -= 1
            if need:  # cut (counted as a node)
                vmask[u] ^= bit
                vmask[v] ^= bit
                free[u] = fu
                free[v] = fv
                continue
            bits[pos] = bit
            cands[pos] = c
            used_at[pos] = before
            free_u[pos] = fu
            free_v[pos] = fv
            pos += 1
            if pos == m:
                break
            before = used
            if pos >= early:  # a neighbour of the edge just placed with fewer candidates
                pick = 0  # the first unplaced neighbour with the fewest, if any
                for near in (spots[u], spots[v]):
                    for p in near:
                        r = at[p]
                        if r > pos:
                            x, y = ends[p]
                            k = (free[x] & free[y]).bit_count()
                            if not pick or k < best:
                                best = k
                                pick = r
                if pick:
                    x, y, _, _ = slots[pos]
                    if best < (free[x] & free[y]).bit_count():  # it takes the place
                        swapped[pos] = pick
                        p, q = held[pos], held[pick]
                        held[pos], held[pick], at[p], at[q] = q, p, pick, pos
                        slots[pos], slots[pick] = slots[pick], slots[pos]
            u, v, tu, tv = slots[pos]
            c = free[u] & free[v]  # colors are tried in ascending order
            if pos < early:
                if used == 1:  # color reflection: cap at ceil((t+1)/2)
                    c &= capped
                if pos < len(twin) and twin[pos] >= 0:  # above the earlier twin's color
                    c &= -(bits[twin[pos]] << 1)
    else:
        gate = 3 * m // 5  # the coverage check runs after placements at earlier positions
        while True:
            if not c:
                if pos == 0:
                    return SolveOutcome(INFEASIBLE, t, None, nodes, time.perf_counter() - start)
                pos -= 1
                u, v, _, _ = slots[pos]
                bit = bits[pos]
                vmask[u] ^= bit
                vmask[v] ^= bit
                c = cands[pos]
                before = used_at[pos]
                continue
            bit = c & -c
            c ^= bit
            nodes += 1
            if nodes > budget:
                return SolveOutcome(TIMEOUT, t, None, nodes, time.perf_counter() - start)
            used = before | bit
            if pos >= tight and used.bit_count() < pos + 1 - tight:
                continue  # too few edges left to use every color (counted as a node)
            vmask[u] |= bit
            vmask[v] |= bit
            if pos < gate:  # coverage: every unused color is a later edge's candidate
                need = full & ~used
                r = m - 1
                while need and r > pos:  # an edge with two untouched ends covers all
                    x, y, tx, ty = slots[r]
                    mx = vmask[x]
                    my = vmask[y]
                    try:
                        fx = tx[mx]
                    except KeyError:
                        fx = tx[mx] = allowed(mx, deg[x], t) & ~mx
                    try:
                        fy = ty[my]
                    except KeyError:
                        fy = ty[my] = allowed(my, deg[y], t) & ~my
                    need &= ~(fx & fy)
                    r -= 1
                if need:  # cut (counted as a node)
                    vmask[u] ^= bit
                    vmask[v] ^= bit
                    continue
            bits[pos] = bit
            cands[pos] = c
            used_at[pos] = before
            pos += 1
            if pos == m:
                break
            before = used
            u, v, tu, tv = slots[pos]
            mu = vmask[u]
            mv = vmask[v]
            try:
                fu = tu[mu]
            except KeyError:
                fu = tu[mu] = allowed(mu, deg[u], t) & ~mu
            try:
                fv = tv[mv]
            except KeyError:
                fv = tv[mv] = allowed(mv, deg[v], t) & ~mv
            c = fu & fv  # colors are tried in ascending order
            if pos < early:
                if used == 1:  # color reflection: cap at ceil((t+1)/2)
                    c &= capped
                if pos < len(twin) and twin[pos] >= 0:  # above the earlier twin's color
                    c &= -(bits[twin[pos]] << 1)
    colors = [0] * m
    for pos, p in enumerate(held):
        colors[order[p]] = bits[pos].bit_length()
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
    of min(jobs, tasks, CPUs) workers when that is above 1, counting the CPUs
    this process may run on (its affinity set, where the platform has one: a
    container may be limited to a few of the host's CPUs); else each task
    runs here when its result is asked for, so a caller may stop early.  The
    pool module, and with it multiprocessing, is imported only on the branch
    that starts a pool: with one worker or one task, none is loaded."""
    if jobs > 1:
        tasks = list(tasks)
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(jobs, len(tasks), cpus)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return iter(list(pool.map(fn, tasks)))
    return map(fn, tasks)


def _plan(g: Graph, lo: int, hi: int, node_budget: Optional[int], jobs: int = 1
          ) -> Iterator[SolveOutcome]:
    """Settle each t in [lo, hi] in ascending order, yielding its record,
    which carries its witness when feasible.  A t that the degree-sum
    obstruction excludes is infeasible with no search; every other t goes
    to decide(), through _map_tasks, and its record is the outcome decide()
    returned."""
    excludes = bounds_mod.degree_sum_obstruction(g).excludes
    ts = range(lo, hi + 1)
    settled = set(filter(excludes, ts))
    searched = [t for t in ts if t not in settled]
    outcomes = _map_tasks(partial(decide, g, node_budget=node_budget), searched, jobs)
    for t in ts:
        yield (SolveOutcome(INFEASIBLE, t, None, 0, source=DEGREE_SUM) if t in settled
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
                   f"all t in [{lo}, {hi}] decided by search or the degree-sum "
                   "obstruction; smaller t fail vertex-degree properness, larger t "
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
