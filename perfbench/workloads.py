"""Running benchmark items against the program and gating their answers.

Every item returns a Result: its timed latency (program calls only), the
facts it produced, and the reasons it failed, if any.  The gate has four
parts: every witness is revalidated with `validate_cyclic`; cycle and tree
answers are compared with `cycle_feasible_set` and `tree_feasible_set`; the
parity obstruction must never exclude a member; and the facts must agree with
`expected.json`.  Agreement means no contradiction between two answers: equal
member sets when both are exhausted, and no member lost or gained against an
exhausted answer.  A different node count is not a wrong answer; it is
counted apart as a node mismatch.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from inputs import SCAN_BUDGET, SEARCH_BUDGET, STRUCTURE_BUDGET, Item

FEASIBLE, TIMEOUT = "feasible", "timeout"

# The program's tree_feasible_set takes cubic time; larger trees are checked
# against the closed form below instead.
SMALL_TREE = 64


@dataclass
class Result:
    latency: float = 0.0
    facts: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)  # failure kinds
    nodes: int = 0
    decided: bool = True
    node_mismatch: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors


class Runner:
    """Runs items of one workload; `ic` is the imported `intcyclic` package."""

    def __init__(self, ic, tracer, workdir: Path, expected: dict | None):
        self.ic = ic
        self.tracer = tracer
        self.workdir = workdir
        self.expected = expected
        self.traced = False  # record spans around program calls
        self._exact: dict = {}

    def _timed(self, result: Result, fn, *args):
        """Call into the program; only these calls are timed and traced,
        so the gate's own calls into the program stay out of both."""
        self.tracer.active = self.traced
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            result.latency += perf_counter() - start
            self.tracer.active = False

    # -- program calls -----------------------------------------------------

    def cli(self, result: Result, argv: list[str]) -> tuple[int, str]:
        """One in-process CLI call; its time is added to the item latency."""
        out, err = io.StringIO(), io.StringIO()
        span = len(self.tracer.spans)
        with redirect_stdout(out), redirect_stderr(err):
            code = self._timed(result, self.tracer.call, "cli", "main", self.ic.cli.main, argv)
        text = out.getvalue()
        if self.traced:
            bytes_in, bytes_out = _cli_bytes(argv)
            self.tracer.annotate(span, bytes_in=bytes_in,
                                 bytes_out=bytes_out + len(text.encode()))
        return code, text

    def run(self, index: int, item: Item) -> Result:
        self.tracer.item = index
        result = Result()
        try:
            getattr(self, "_run_" + item.kind)(index, item, result)
        except Exception as exc:  # any escape from the program is a failure
            result.errors.append(type(exc).__name__)
            result.decided = False
        if self.expected is not None and result.ok:
            self._compare(item, result)
        return result

    def _path(self, index: int, suffix: str) -> str:
        return str(self.workdir / f"{index}-{suffix}.json")

    def prepare(self, items: list[Item]) -> None:
        """Write the graph files that scan items read."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        for i, item in enumerate(items):
            if item.kind == "solve":
                graph = {"vertex_count": item.vertex_count, "edges": [list(e) for e in item.edges]}
                Path(self._path(i, "g")).write_text(json.dumps(graph) + "\n")

    def _run_solve(self, index: int, item: Item, result: Result) -> None:
        path = self._path(index, "g")
        code, text = self.cli(result, ["solve", "-g", path, "--feasible-set",
                                       "--budget", str(SCAN_BUDGET)])
        graph = self.ic.graphs.Graph(item.vertex_count, item.edges)
        self._check_feasible_set(item, graph, code, text, result)

    def _run_decide(self, index: int, item: Item, result: Result) -> None:
        graph = self.ic.graphs.Graph(item.vertex_count, item.edges)
        out = self._timed(result, lambda: self.ic.solver.decide(graph, item.t,
                                                                 node_budget=SEARCH_BUDGET))
        result.nodes = out.nodes_explored
        result.decided = out.decision != TIMEOUT
        result.facts = {"decision": out.decision, "nodes_explored": out.nodes_explored}
        if out.decision == FEASIBLE:
            if out.witness is None or out.witness.t != item.t \
                    or not self.ic.coloring.validate_cyclic(graph, out.witness).valid:
                result.errors.append("invalid-witness")
        elif out.witness is not None:
            result.errors.append("wrong-answer")
        member = out.decision == FEASIBLE
        exact, parity = self._known(item, graph)
        if member and parity.excludes(item.t):
            result.errors.append("parity-excluded-member")
        if exact is not None and result.decided and member != (item.t in exact):
            result.errors.append("oracle-mismatch")

    def _run_chain(self, index: int, item: Item, result: Result) -> None:
        g_path, c_path = self._path(index, "g"), self._path(index, "c")
        code, text = self.cli(result, ["color", *item.args, "-o", g_path, "-c", c_path])
        _expect_code(result, "color", code, 0)
        summary = json.loads(text)
        code, text = self.cli(result, ["check", "-g", g_path, "-c", c_path])
        _expect_code(result, "check", code, 0)
        if json.loads(text).get("verdict") != "valid":
            result.errors.append("wrong-answer")
        code, text = self.cli(result, ["bounds", "-g", g_path])
        _expect_code(result, "bounds", code, 0)
        rep = json.loads(text.splitlines()[-1])

        graph = self.ic.graphs.Graph.from_json(Path(g_path).read_text())
        coloring = self.ic.coloring.EdgeColoring.from_json(Path(c_path).read_text())
        t = coloring.t
        if (graph.vertex_count, graph.edge_count) != (item.vertex_count, item.edge_count) \
                or summary.get("t") != t:
            result.errors.append("wrong-graph")
        if not self.ic.coloring.validate_cyclic(graph, coloring).valid:
            result.errors.append("invalid-witness")
        values = {b["name"]: b["value"] for b in rep["bounds"]}
        # a valid coloring with t colors proves t feasible: no sound upper
        # bound may lie below it, and parity may not exclude it
        if any(isinstance(v, int) and v < t for v in values.values()) or rep["best_upper"] < t:
            result.errors.append("unsound-bound")
        if self._known(item, graph)[1].excludes(t):
            result.errors.append("parity-excluded-member")
        result.facts = {"t": t, "best_upper": rep["best_upper"],
                        "excluded_t": rep["excluded_t"], "bounds": values}

    def _run_noncolorable(self, index: int, item: Item, result: Result) -> None:
        g_path, cert_path = self._path(index, "g"), self._path(index, "cert")
        code, _ = self.cli(result, ["gen", "noncolorable", *item.args,
                                    "-o", g_path, "--cert", cert_path])
        _expect_code(result, "gen", code, 0)
        cert = json.loads(Path(cert_path).read_text())
        code, text = self.cli(result, ["certify", "-g", g_path,
                                       "--budget", str(STRUCTURE_BUDGET)])
        _expect_code(result, "certify", code, 1)
        out = json.loads(text)
        rule = out.get("certificate", {}).get("rule")
        if not cert.get("passed") or out.get("status") != "noncolorable" or rule != cert.get("rule"):
            result.errors.append("wrong-answer")
        result.facts = {"rule": rule}

    def _run_nearmiss(self, index: int, item: Item, result: Result) -> None:
        g_path, cert_path = self._path(index, "g"), self._path(index, "cert")
        code, _ = self.cli(result, ["gen", "noncolorable", *item.args,
                                    "-o", g_path, "--cert", cert_path])
        _expect_code(result, "gen", code, 1)  # the rule rejects these graphs
        code, text = self.cli(result, ["solve", "-g", g_path, "--feasible-set",
                                       "--budget", str(STRUCTURE_BUDGET)])
        graph = self.ic.graphs.Graph.from_json(Path(g_path).read_text())
        self._check_feasible_set(item, graph, code, text, result)

    def _run_trees(self, index: int, item: Item, result: Result) -> None:
        graphs = self.ic.graphs
        cache = getattr(graphs, "_TREE_CACHE", None)
        if cache is not None:  # every pass pays the cold enumeration
            cache.clear()
        n = int(item.args[0])
        span = len(self.tracer.spans)
        trees = self._timed(result, self.tracer.call, "graphs", "enumerate_trees",
                            lambda: list(graphs.enumerate_trees(n)))
        if self.traced:
            self.tracer.annotate(span, trees=len(trees))
        codes = {_tree_code(n, t.edges) for t in trees}
        if len(codes) != len(trees) or not all(graphs.is_tree(t) and t.vertex_count == n
                                               for t in trees):
            result.errors.append("wrong-answer")
        result.facts = {"trees": len(trees)}

    # -- gate --------------------------------------------------------------

    def _known(self, item: Item, graph):
        """The exact feasible set of a cycle or tree (else None) and the
        program's parity obstruction; computed once per graph in a run."""
        key = item.edges or item.id
        if key not in self._exact:
            exact = None
            if graph.edge_count == graph.vertex_count >= 3 \
                    and all(d == 2 for d in graph.degrees) and self.ic.graphs.is_connected(graph):
                exact = set(self.ic.bounds.cycle_feasible_set(graph.vertex_count))
            elif graph.vertex_count >= 2 and self.ic.graphs.is_tree(graph):
                if graph.vertex_count <= SMALL_TREE:
                    exact = set(self.ic.bounds.tree_feasible_set(graph))
                else:
                    exact = set(range(graph.max_degree(), _tree_max_colors(graph) + 1))
            self._exact[key] = exact, self.ic.bounds.parity_obstruction(graph)
        return self._exact[key]

    def _check_feasible_set(self, item: Item, graph, code: int, text: str, result: Result) -> None:
        fs = json.loads(text)
        members, exhausted = fs["members"], fs["exhausted"]
        lo, hi = fs["range"]
        result.nodes = fs["nodes_explored"]
        result.decided = exhausted
        result.facts = {"members": members, "exhausted": exhausted,
                        "nodes_explored": fs["nodes_explored"]}
        _expect_code(result, "solve", code, 0 if exhausted else 3)
        if sorted(int(t) for t in fs["witnesses"]) != members:
            result.errors.append("wrong-answer")
        for key, w in fs["witnesses"].items():
            witness = self.ic.coloring.EdgeColoring.from_dict(w)
            if witness.t != int(key) or not self.ic.coloring.validate_cyclic(graph, witness).valid:
                result.errors.append("invalid-witness")
        exact, parity = self._known(item, graph)
        if any(parity.excludes(t) for t in members):
            result.errors.append("parity-excluded-member")
        if exact is not None:
            in_range = {t for t in exact if lo <= t <= hi}
            if not set(members) <= in_range or (exhausted and set(members) != in_range):
                result.errors.append("oracle-mismatch")

    def _compare(self, item: Item, result: Result) -> None:
        exp = self.expected.get(item.id)
        if exp is None:
            result.errors.append("no-expectation")
            return
        got = result.facts
        if "members" in exp:
            have, want = set(got["members"]), set(exp["members"])
            if (exp["exhausted"] and not have <= want) or (got["exhausted"] and not want <= have):
                result.errors.append("wrong-answer")
        elif "decision" in exp:
            if TIMEOUT not in (got["decision"], exp["decision"]) \
                    and got["decision"] != exp["decision"]:
                result.errors.append("wrong-answer")
        elif got != exp:
            result.errors.append("wrong-answer")
        if "nodes_explored" in exp and got["nodes_explored"] != exp["nodes_explored"]:
            result.node_mismatch = True


def _expect_code(result: Result, verb: str, code: int, want: int) -> None:
    if code != want:
        result.errors.append(f"exit-code-{verb}")


def _tree_max_colors(tree) -> int:
    """Largest usable color count of a tree: 1 plus the heaviest path under
    the vertex weight deg - 1 (the path's edges plus the edges hanging off
    it)."""
    weight = [d - 1 for d in tree.degrees]
    best = 0
    for source in range(tree.vertex_count):
        total = {source: weight[source]}
        stack = [source]
        while stack:
            u = stack.pop()
            for v in tree.adjacency[u]:
                if v not in total:
                    total[v] = total[u] + weight[v]
                    stack.append(v)
        best = max(best, max(total.values()))
    return best + 1


def _tree_code(n: int, edges) -> str:
    """AHU code of a free tree rooted at its center(s); equal codes mean
    isomorphic trees."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    left = n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


def _cli_bytes(argv: list[str]) -> tuple[int, int]:
    """Sizes of the files a CLI call read and wrote."""
    inputs, outputs = {"-g", "--input-coloring"}, {"-o", "--cert"}
    (inputs if argv[0] == "check" else outputs).add("-c")
    size_in = size_out = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in inputs or flag in outputs:
            size = os.path.getsize(value)
            if flag in inputs:
                size_in += size
            else:
                size_out += size
    return size_in, size_out
