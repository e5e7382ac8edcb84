"""In-memory spans around calls into the program's layers.

The tracer replaces each traced public function at every name a module of
the package binds it to (`bounds.metrics`, `solver.metrics`, `cli.solver`'s
`decide`, ...), so calls between layers are recorded without changing any
source file.  A span is [item, layer, name, start, end, parent, info]; spans
of one benchmark item share the item index.  A layer's self time is its span
durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
from time import perf_counter

# layer (the module that defines them) -> traced public functions
TRACED = {
    "graphs": ("metrics",),
    "bounds": ("report",),
    "solver": ("decide", "feasible_set", "certify_noncolorable"),
    "coloring": ("validate_cyclic", "validate_interval"),
    "constructions": ("build_construction", "hypercube_base_interval", "mod_reduce"),
    "noncolorable": ("build_certified_kstar", "build_certified_tree_hat", "match_analytic"),
}

ITEM, LAYER, NAME, START, END, PARENT, INFO = range(7)


class Tracer:
    """Records spans while `active`; inactive calls cost one branch."""

    def __init__(self) -> None:
        self.active = False
        self.item = -1
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        span = [self.item, layer, name, 0.0, 0.0,
                self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[END] = perf_counter()
            span[INFO] = {"error": type(exc).__name__}
            raise
        else:
            span[END] = perf_counter()
            if name == "decide":
                span[INFO] = {"decision": result.decision, "nodes": result.nodes_explored}
            return result
        finally:
            self._stack.pop()

    def annotate(self, span_index: int, **info) -> None:
        span = self.spans[span_index]
        span[INFO] = {**(span[INFO] or {}), **info}

    def install(self, package) -> None:
        """Wrap every traced function at every binding in the package."""
        modules = [package, package.cli] + [getattr(package, m) for m in TRACED]
        for layer, funcs in TRACED.items():
            for func in funcs:
                self._wrap_everywhere(modules, layer, func,
                                      getattr(getattr(package, layer), func))
        graph_cls = package.graphs.Graph
        from_json = graph_cls.__dict__["from_json"]
        load = from_json.__func__
        self._restore.append((graph_cls, "from_json", from_json))
        graph_cls.from_json = classmethod(
            lambda cls, text: self.call("graphs", "from_json", load, cls, text))

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    def _wrap_everywhere(self, modules, layer: str, name: str, original) -> None:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(layer, name, original, *args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)


def _has_ancestor(spans, span, pred) -> bool:
    p = span[PARENT]
    while p >= 0:
        if pred(spans[p]):
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one pass."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    entries: dict[str, int] = {}
    entry_time: dict[str, float] = {}
    nodes = timeout_nodes = timeouts = recursion = metrics_in_report = 0
    trees = bytes_in = bytes_out = 0
    for i, s in enumerate(spans):
        layer, key = s[LAYER], f"{s[LAYER]}.{s[NAME]}"
        dur = s[END] - s[START]
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + dur
        self_time[key] = self_time.get(key, 0.0) + dur - child_time[i]
        if not _has_ancestor(spans, s, lambda a: a[LAYER] == layer):
            entries[layer] = entries.get(layer, 0) + 1
            entry_time[layer] = entry_time.get(layer, 0.0) + dur
        info = s[INFO] or {}
        if key == "solver.decide":
            if info.get("error") == "RecursionError":
                recursion += 1
            nodes += info.get("nodes", 0)
            if info.get("decision") == "timeout":
                timeouts += 1
                timeout_nodes += info["nodes"]
        elif key == "graphs.metrics":
            if _has_ancestor(spans, s, lambda a: a[NAME] == "report"):
                metrics_in_report += 1
        elif key == "graphs.enumerate_trees":
            trees += info.get("trees", 0)
        elif key == "cli.main":
            bytes_in += info.get("bytes_in", 0)
            bytes_out += info.get("bytes_out", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    decides = calls.get("solver.decide", 0)
    decide_s = total.get("solver.decide", 0.0)
    reports = calls.get("bounds.report", 0)
    return {
        "solver.decide.calls": decides,
        "solver.decide_s": decide_s,
        "solver.decide_self_s": self_time.get("solver.decide", 0.0),
        "solver.nodes": nodes,
        "solver.nodes_per_s": ratio(nodes, decide_s),
        "solver.timeouts": timeouts,
        "solver.decided_ratio": ratio(decides - timeouts - recursion, decides),
        "solver.timeout_nodes_share": ratio(timeout_nodes, nodes),
        "solver.feasible_set.calls": calls.get("solver.feasible_set", 0),
        "solver.feasible_set_s": total.get("solver.feasible_set", 0.0),
        "solver.recursion_failures": recursion,
        "bounds.report.calls": reports,
        "bounds.report_s": total.get("bounds.report", 0.0),
        "bounds.report_self_s": self_time.get("bounds.report", 0.0),
        "graphs.metrics.calls": calls.get("graphs.metrics", 0),
        "graphs.metrics_s": total.get("graphs.metrics", 0.0),
        "graphs.metrics_per_report": ratio(metrics_in_report, reports),
        "graphs.from_json.calls": calls.get("graphs.from_json", 0),
        "graphs.from_json_s": total.get("graphs.from_json", 0.0),
        "graphs.enumerate_trees_s": total.get("graphs.enumerate_trees", 0.0),
        "graphs.trees": trees,
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": self_time.get("cli.main", 0.0),
        "cli.bytes_in": bytes_in,
        "cli.bytes_out": bytes_out,
        "coloring.validate.calls": entries.get("coloring", 0),
        "coloring.validate_s": entry_time.get("coloring", 0.0),
        "constructions.calls": entries.get("constructions", 0),
        "constructions_s": entry_time.get("constructions", 0.0),
        "noncolorable.calls": entries.get("noncolorable", 0),
        "noncolorable_s": entry_time.get("noncolorable", 0.0),
    }


UNITS = {name: ("count" if name.endswith((".calls", ".nodes", ".timeouts", "failures",
                                          ".trees")) else
                "bytes" if ".bytes_" in name else
                "nodes/s" if name.endswith("_per_s") else
                "ratio" if name.endswith(("_ratio", "_share", "_per_report")) else "s")
         for name in layer_metrics([])}
UNITS["trace.overhead_share"] = "ratio"
