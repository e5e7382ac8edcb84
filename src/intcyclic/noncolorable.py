"""Generators for provably non-colorable graphs with machine-checked
certificates.

Two analytic rules are implemented: a tree plus an apex over its leaves is
non-colorable when the leaf count reaches 2*(M+2) for the tree's path metric
M, and an odd clique carrying a pendant hub with m leaves is non-colorable
for clique parameter n >= 2 once m >= 6n (with the (n=2, m=11) pair certified
by a separate counting argument).  Certificate premises are always recomputed
from the emitted graph, never trusted from constructor parameters.

`match_analytic` recognizes both shapes in linear time from degree and edge
counts; it deletes only a vertex whose degree and neighbours' degrees fit an
apex, and certifies the given graph as the hat of the tree left (which runs
the tree's sweep, and builds no second hat).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bounds import tree_m
from .graphs import Graph, is_bipartite, is_tree, leaves, make_kstar, make_tree_hat

NONCOLORABLE = "graph admits no interval cyclic coloring"

RULE_TREE_HAT = "tree-hat"
RULE_KSTAR = "kstar"
RULE_KSTAR_511 = "kstar-511"
RULE_EXHAUSTIVE = "exhaustive-search"


@dataclass(frozen=True)
class Premise:
    name: str
    value: int | bool
    condition: str
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "condition": self.condition, "passed": self.passed}


@dataclass(frozen=True)
class Certificate:
    rule: str
    premises: tuple[Premise, ...]
    conclusion: Optional[str] = None  # set only when established
    notes: tuple[str, ...] = ()
    transcripts: tuple[dict, ...] = ()  # per-t records for exhaustive search
    inconclusive: bool = False

    @property
    def passed(self) -> bool:
        return self.conclusion is not None

    def to_dict(self) -> dict:
        d: dict = {"rule": self.rule,
                   "premises": [p.to_dict() for p in self.premises],
                   "conclusion": self.conclusion,
                   "passed": self.passed}
        if self.notes:
            d["notes"] = list(self.notes)
        if self.transcripts:
            d["transcripts"] = list(self.transcripts)
        if self.inconclusive:
            d["inconclusive"] = True
        return d


def _all_leaf_distances_even(tree: Graph) -> bool:
    # in a tree d(a, b) has the parity of depth(a) + depth(b) for the BFS
    # depths from any one vertex, so the component pass settles every pair
    depth = tree._components[1]
    return len({depth[v] % 2 for v in leaves(tree)}) == 1


def _tree_hat_certificate(tree: Graph, hat: Graph) -> Certificate:
    """Certify `hat`, the tree plus an apex adjacent to every leaf, from
    premises recomputed from the tree: it passes when the leaf count reaches
    2*(M+2), and otherwise carries the failed premise and makes no claim."""
    leaf_count = len(leaves(tree))
    m_val = tree_m(tree)
    threshold = 2 * (m_val + 2)
    premises = (
        Premise("input-is-tree", True, "connected with |E| = |V|-1", True),
        Premise("path-metric", m_val, "computed from the tree", True),
        Premise("leaf-count", leaf_count, f">= 2*(M+2) = {threshold}",
                leaf_count >= threshold),
    )
    passed = all(p.passed for p in premises)
    notes = []
    if passed and _all_leaf_distances_even(tree):
        if not is_bipartite(hat):  # even leaf distances force this
            raise RuntimeError("even leaf distances but apex graph not bipartite")
        notes.append("all leaf distances even; the emitted graph is bipartite")
    return Certificate(RULE_TREE_HAT, premises,
                       conclusion=NONCOLORABLE if passed else None,
                       notes=tuple(notes))


def build_certified_tree_hat(tree: Graph) -> tuple[Graph, Certificate]:
    """Attach an apex to every leaf of the tree and certify the result."""
    hat = make_tree_hat(tree)
    return hat, _tree_hat_certificate(tree, hat)


def detect_kstar(g: Graph) -> Optional[tuple[int, int]]:
    """Recognize an odd clique with a pendant hub: returns (n, m) such that
    the graph is the (2n+1)-clique plus a hub on one clique vertex carrying m
    pendant leaves, or None."""
    pendants = [v for v in range(g.vertex_count) if g.degrees[v] == 1]
    m = len(pendants)
    hubs = {g.adjacency[p][0] for p in pendants}
    if len(hubs) != 1:
        return None
    hub = hubs.pop()
    if g.degrees[hub] != m + 1:
        return None
    # the hub's m + 1 edges reach its m pendants and one other vertex, and a
    # pendant has no other edge, so every other edge joins two of the k
    # remaining vertices; k(k-1)/2 of them make those k a clique
    k = g.vertex_count - m - 1
    if k < 3 or k % 2 == 0 or g.edge_count != k * (k - 1) // 2 + 1 + m:
        return None
    return (k - 1) // 2, m


def _kstar_certificate(n: int, m: int, g: Graph,
                       detected: Optional[tuple[int, int]]) -> Certificate:
    """Certify g as the kstar (n, m), given detected = detect_kstar(g)."""
    structure_ok = detected == (n, m)
    special = (n, m) == (2, 11)
    rule = RULE_KSTAR_511 if special else RULE_KSTAR
    premises = [
        Premise("structure-verified", structure_ok,
                "graph is the odd clique plus pendant hub it claims to be", structure_ok),
        Premise("clique-parameter", n, ">= 2", n >= 2),
    ]
    if special:
        premises.append(Premise("pendant-count", m, "== 11 (special counting case)", True))
    else:
        premises.append(Premise("pendant-count", m, f">= 6n = {6 * n}", m >= 6 * n))
    delta = g.max_degree()
    want_delta = max(m + 1, 2 * n + 1)
    premises.append(Premise("max-degree", delta, f"== max(m+1, 2n+1) = {want_delta}",
                            delta == want_delta))
    passed = all(p.passed for p in premises)
    return Certificate(rule, tuple(premises),
                       conclusion=NONCOLORABLE if passed else None)


def build_certified_kstar(n: int, m: int) -> tuple[Graph, Certificate]:
    """Build the odd clique with pendant hub and certify it when n >= 2 and
    m >= 6n, or for the special pair (2, 11); otherwise return a rejection
    certificate that makes no claim."""
    g = make_kstar(n, m)
    return g, _kstar_certificate(n, m, g, detect_kstar(g))


def noncolorable_for_degree(d: int) -> tuple[Graph, Certificate]:
    """A certified non-colorable connected graph with max degree exactly d,
    available for every d >= 12."""
    if d < 12:
        raise ValueError(
            "no certified family below max degree 12; existence for degrees 4..11 is open")
    g, cert = build_certified_kstar(2, d - 1)
    if not cert.passed:
        raise RuntimeError("certification unexpectedly failed")
    if g.max_degree() != d:
        raise RuntimeError("constructed graph has the wrong max degree")
    return g, cert


def _delete_vertex(g: Graph, u: int) -> Graph:
    return Graph(g.vertex_count - 1,
                 tuple((a - (a > u), b - (b > u)) for a, b in g.edges if u not in (a, b)))


def match_analytic(g: Graph) -> Optional[Certificate]:
    """Try every analytic rule against the graph; return the first passing
    certificate, or None when no rule applies."""
    detected = detect_kstar(g)
    if detected is not None:
        cert = _kstar_certificate(*detected, g, detected)
        if cert.passed:
            return cert
    # g - u keeps |V| - 1 vertices and |E| - deg(u) edges, so it can be a
    # tree only when deg(u) = |E| - |V| + 2, and the rule needs 2(M+2) >= 6
    # leaves.  The degrees carry soundness: when every vertex has degree >= 2
    # and every neighbour of u degree 2, the leaves of the tree g - u are
    # exactly N(u), so g is its hat; a hat that passes meets all three.  At
    # most two vertices qualify: the excesses deg - 2 sum to 2|E| - 2|V|,
    # twice the apex's
    apex_degree = g.edge_count - g.vertex_count + 2
    degrees = g.degrees
    if apex_degree < 6 or min(degrees, default=0) < 2:
        return None
    for u in range(g.vertex_count):
        if degrees[u] != apex_degree or any(degrees[v] != 2 for v in g.adjacency[u]):
            continue
        rest = _delete_vertex(g, u)
        if not is_tree(rest):
            continue
        cert = _tree_hat_certificate(rest, g)
        if cert.passed:
            return cert
    return None
