"""Command-line surface: file-based, deterministic workflows over the graph
and coloring JSON formats.

Exit codes: 0 success/valid/feasible, 1 invalid/infeasible/rejected,
2 usage or format error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import bounds as bounds_mod
from . import constructions as cons
from . import graphs as graphs_mod
from . import solver
from .coloring import EdgeColoring, validate_cyclic, validate_interval
from .graphs import Graph, canonical_json, make_hub_tree, make_tree_hat
from .noncolorable import Certificate, build_certified_kstar, build_certified_tree_hat

EXIT_OK = 0
EXIT_NEGATIVE = 1  # invalid / infeasible / rejected
EXIT_USAGE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _load(path: str, cls=Graph) -> Graph | EdgeColoring:
    kind = "graph" if cls is Graph else "coloring"
    try:
        return cls.from_json(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"{kind} file not found: {path}")
    except OSError as exc:
        raise CliError(f"cannot read {kind} file {path}: {exc.strerror}")
    except ValueError as exc:  # GraphError included
        raise CliError(f"bad {kind} file {path}: {exc}")


def _write(*outputs: tuple[str | None, str]) -> None:
    # each (path, text) goes to its file, or to stdout for None or "-"; files
    # go first, and a failed write removes the files already written, so it
    # leaves no partial result, such as a graph without its certificate.  A
    # file named twice would keep only the last text, so it is refused first
    files = [os.path.realpath(path) for path, _ in outputs if path not in (None, "-")]
    for i, file in enumerate(files):
        if file in files[:i]:
            raise CliError(f"output path given twice: {file}")
    written = []
    for path, text in sorted(outputs, key=lambda out: out[0] in (None, "-")):
        if path in (None, "-"):
            sys.stdout.write(text)
            continue
        try:
            Path(path).write_text(text)
        except OSError as exc:
            for done in written:
                Path(done).unlink()
            raise CliError(f"cannot write {path}: {exc.strerror}")
        written.append(path)


def _int_params(params: list[str], family: str) -> list[int]:
    try:
        return [int(p) for p in params]
    except ValueError:
        raise CliError(f"{family} parameters must be integers: {params}")


def _int_at_least(low: int):
    """An argparse type: an int of at least low, else a usage error (exit 2)."""
    def integer(text: str) -> int:  # argparse names it: "invalid integer value"
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


# flags that some modes of a verb read and others do not, by argparse dest
_MODAL_FLAGS = {"graph": "-g", "coloring_in": "--input-coloring", "rule": "--rule",
                "n": "--n", "m": "--m", "hubs": "--hubs", "leaves": "--leaves",
                "cert": "--cert", "t_hi": "--t-hi", "jobs": "--jobs"}


def _refuse_unread(args, mode: str, *read: str) -> None:
    """Refuse, rather than drop, what `mode` does not read: any positional
    parameter unless "params" is in read, and any given flag of _MODAL_FLAGS
    whose dest is not."""
    if getattr(args, "params", None) and "params" not in read:
        raise CliError(f"{mode} takes 0 parameter(s), got {len(args.params)}")
    for dest, flag in _MODAL_FLAGS.items():
        if dest not in read and getattr(args, dest, None) is not None:
            raise CliError(f"{mode} takes no {flag}")


def _cmd_gen(args) -> int:
    if args.family == "noncolorable":
        return _cmd_gen_noncolorable(args)
    if args.family == "tree-hat":
        _refuse_unread(args, args.family, "graph")
        if not args.graph:
            raise CliError("gen tree-hat needs a tree file via -g")
        g = make_tree_hat(_load(args.graph))
    else:
        _refuse_unread(args, args.family, "params")
        g = graphs_mod.make_family(args.family, _int_params(args.params, args.family))
    _write((args.output, g.to_json()))
    return EXIT_OK


def _cmd_gen_noncolorable(args) -> int:
    if args.rule is None:
        raise CliError("gen noncolorable needs --rule kstar|tree-hat")
    mode = f"noncolorable --rule {args.rule}"
    if args.rule == "kstar":
        _refuse_unread(args, mode, "rule", "n", "m", "cert")
        if args.n is None or args.m is None:
            raise CliError("noncolorable --rule kstar needs --n and --m")
        g, cert = build_certified_kstar(args.n, args.m)
    else:
        if args.graph:
            _refuse_unread(args, f"{mode} -g TREE", "rule", "graph", "cert")
            tree = _load(args.graph)
        else:
            _refuse_unread(args, mode, "rule", "hubs", "leaves", "cert")
            if args.hubs is None or args.leaves is None:
                raise CliError("noncolorable --rule tree-hat needs -g TREE or --hubs/--leaves")
            tree = make_hub_tree(args.hubs, args.leaves)
        g, cert = build_certified_tree_hat(tree)
    _write((args.output, g.to_json()), (args.cert, canonical_json(cert.to_dict())))
    return EXIT_OK if cert.passed else EXIT_NEGATIVE


def _cmd_color(args) -> int:
    name = args.construction
    if name == "mod-reduce":
        _refuse_unread(args, name, "graph", "coloring_in")
        if not (args.graph and args.coloring_in and args.t):
            raise CliError("color mod-reduce needs -g GRAPH --input-coloring ALPHA --t T")
        g = _load(args.graph)
        alpha = _load(args.coloring_in, EdgeColoring)
        try:
            coloring = cons.mod_reduce(g, alpha, args.t)
        except ValueError as exc:
            raise CliError(str(exc), EXIT_NEGATIVE)
        classes = []
    else:
        _refuse_unread(args, name, "params")
        g, coloring, *classes = cons.build_construction(
            name, _int_params(args.params, name), args.t)
    _write(*[(p, x.to_json()) for p, x in ((args.output, g), (args.coloring, coloring)) if p])
    summary = {"t": coloring.t, "edges": g.edge_count}
    if classes:
        summary["classes"] = list(classes[0])
    sys.stdout.write(canonical_json(summary))
    return EXIT_OK


def _cmd_check(args) -> int:
    g = _load(args.graph)
    coloring = _load(args.coloring, EdgeColoring)
    validator = validate_cyclic if args.mode == "cyclic" else validate_interval
    result = validator(g, coloring)
    sys.stdout.write(canonical_json(result.to_dict()))
    return EXIT_OK if result.valid else EXIT_NEGATIVE


def _cmd_solve(args) -> int:
    if args.t is not None:
        _refuse_unread(args, "solve --t", "graph")
    g = _load(args.graph)
    if args.t is not None:
        out = solver.decide(g, args.t, args.budget)
        answer = {"decision": out.decision, "t": out.t, "nodes_explored": out.nodes_explored}
        if out.witness is not None:
            answer["witness"] = out.witness.to_dict()
        sys.stdout.write(canonical_json(answer))
        return {solver.FEASIBLE: EXIT_OK, solver.INFEASIBLE: EXIT_NEGATIVE}.get(
            out.decision, EXIT_BUDGET)
    fs = solver.feasible_set(g, t_hi=args.t_hi, node_budget=args.budget, jobs=args.jobs or 1)
    sys.stdout.write(canonical_json(fs.to_dict()))
    return EXIT_OK if fs.exhausted else EXIT_BUDGET


def _cmd_bounds(args) -> int:
    g = _load(args.graph)
    rep = bounds_mod.report(g)
    sys.stdout.write(rep.table() + "\n")
    sys.stdout.write(canonical_json(rep.to_dict()))
    return EXIT_OK


def _cmd_certify(args) -> int:
    g = _load(args.graph)
    res = solver.certify_noncolorable(g, node_budget=args.budget)
    if isinstance(res, EdgeColoring):
        sys.stdout.write(canonical_json(
            {"status": "colorable", "witness": res.to_dict()}))
        return EXIT_OK
    assert isinstance(res, Certificate)
    status = "inconclusive" if res.inconclusive else "noncolorable"
    sys.stdout.write(canonical_json({"status": status, "certificate": res.to_dict()}))
    return EXIT_BUDGET if res.inconclusive else EXIT_NEGATIVE


def _cmd_scan(args) -> int:
    corpus_dir = Path(args.corpus)
    if not corpus_dir.is_dir():
        raise CliError(f"not a directory: {args.corpus}")
    graphs = [_load(str(path)) for path in sorted(corpus_dir.glob("*.json"))]
    report = solver.conjecture_scan(graphs, node_budget=args.budget, jobs=args.jobs)
    sys.stdout.write(canonical_json(report.to_dict()))
    return EXIT_NEGATIVE if report.counterexamples else EXIT_OK


def _hsv_ramp(c: int, t: int) -> str:
    return f"{(c - 1) / max(t, 1):.3f} 0.900 0.800"


def _cmd_export_dot(args) -> int:
    g = _load(args.graph)
    coloring = _load(args.coloring, EdgeColoring) if args.coloring else None
    if coloring is not None and len(coloring.colors) != g.edge_count:
        raise CliError("coloring does not match the graph's edge count")
    lines = ["graph {"]
    for v in range(g.vertex_count):
        label = g.labels[v] if g.labels else str(v)
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  {v} [label="{label}"];')
    for i, (u, v) in enumerate(g.edges):
        if coloring is None:
            lines.append(f"  {u} -- {v};")
        else:
            c = coloring.colors[i]
            lines.append(
                f'  {u} -- {v} [label="{c}", color="{_hsv_ramp(c, coloring.t)}"];')
    lines.append("}")
    _write((args.output, "\n".join(lines) + "\n"))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: parse_args keeps no
    state between calls, and building it costs about 2 ms."""
    parser = argparse.ArgumentParser(
        prog="intcyclic",
        description="Interval cyclic edge-colorings: generators, colorers, "
                    "validator, exact solver, bounds, and certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph")
    p.add_argument("family", choices=[*graphs_mod.FAMILIES, "tree-hat", "noncolorable"],
                   help="graph family")
    p.add_argument("params", nargs="*", help="integer family parameters")
    p.add_argument("-o", "--output", default=None, help="output graph file (default stdout)")
    p.add_argument("-g", "--graph", default=None, help="input tree file (tree-hat rules)")
    p.add_argument("--rule", choices=["kstar", "tree-hat"], default=None,
                   help="rule for the noncolorable family")
    p.add_argument("--n", type=int, default=None, help="clique parameter (kstar rule)")
    p.add_argument("--m", type=int, default=None, help="pendant count (kstar rule)")
    p.add_argument("--hubs", type=int, default=None)
    p.add_argument("--leaves", type=int, default=None)
    p.add_argument("--cert", default=None, help="certificate output (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("color", help="run an explicit coloring construction")
    p.add_argument("construction", choices=[*cons.FAMILIES, "mod-reduce"],
                   help="construction family")
    p.add_argument("params", nargs="*", help="integer construction parameters")
    p.add_argument("-o", "--output", default=None, help="output graph file")
    p.add_argument("-c", "--coloring", default=None, help="output coloring file")
    p.add_argument("-g", "--graph", default=None, help="input graph (mod-reduce)")
    p.add_argument("--input-coloring", dest="coloring_in", default=None,
                   help="input coloring (mod-reduce)")
    p.add_argument("--t", type=_int_at_least(1), default=None,
                   help="target color count (mod-reduce, or fold bipartite-interval "
                        "or hypercube-interval)")
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("check", help="validate a coloring against a graph")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-c", "--coloring", required=True)
    p.add_argument("--mode", choices=["cyclic", "interval"], default="cyclic")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="decide one t or compute the feasible set")
    p.add_argument("-g", "--graph", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=int, default=None, help="decide this color count")
    group.add_argument("--feasible-set", action="store_true")
    p.add_argument("--t-hi", type=_int_at_least(1), default=None,
                   help="cap the searched range (--feasible-set)")
    p.add_argument("--budget", type=_int_at_least(0), default=None,
                   help=f"search node budget per t (default {solver.DEFAULT_NODE_BUDGET})")
    p.add_argument("--jobs", type=_int_at_least(1), default=None,
                   help="workers over t values (--feasible-set; default 1)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", help="print the bound report for a graph")
    p.add_argument("-g", "--graph", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("certify", help="witness coloring or non-colorability certificate")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("scan", help="conjecture scan over a directory of graph files")
    p.add_argument("--corpus", required=True)
    p.add_argument("--budget", type=_int_at_least(0), default=None)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="workers over graphs")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("export-dot", help="emit DOT with edge color labels")
    p.add_argument("-g", "--graph", required=True)
    p.add_argument("-c", "--coloring", default=None)
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.set_defaults(func=_cmd_export_dot)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:  # GraphError included
        # bad parameters or malformed inputs that slipped past a verb's own
        # checks are still usage/format errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
