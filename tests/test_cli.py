import json
import re
from pathlib import Path

import pytest

from intcyclic import constructions, graphs
from intcyclic.cli import build_parser, main
from intcyclic.graphs import Graph

EXPECTED_FORMAT_ERROR = 2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


README = Path(__file__).resolve().parent.parent / "README.md"
SHOWN_RECORD = re.compile(r'\{[^{}]*"decision"[^{}]*\}')  # one per-t record, in full
SHOWN_FIELD = re.compile(r'"(range|members|exhausted|timed_out|nodes_explored)":\s*'
                         r'(\[[^\]]*\]|true|false|\d+)')


def readme_feasible_sets():
    """Each feasible set the README shows, as (gen arguments, the text shown):
    the `solve --feasible-set` examples of its shell blocks, with the `gen`
    call that made their graph file, and the feasible-set record of its file
    formats, whose graph is the C_5 shown there."""
    text = README.read_text(encoding="utf-8")
    shown = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        gens = re.findall(r"intcyclic gen (.+) -o (\S+)", block)
        made = {path: args.split() for args, path in gens}
        solves = re.findall(r"intcyclic solve -g (\S+) --feasible-set\n((?:# .*\n)+)", block)
        shown += [pytest.param(made[path], out, id=path) for path, out in solves]
    record = text.split("// feasible set:")[1].split("\n//")[0]
    shown.append(pytest.param(["cycle", "5"], record, id="file-format"))
    return shown


class TestGen:
    def test_cycle_round_trip_byte_stable(self, tmp_path, capsys):
        out = tmp_path / "c5.json"
        code, _, _ = run(capsys, "gen", "cycle", "5", "-o", str(out))
        assert code == 0
        raw = out.read_bytes()
        g = Graph.from_json(raw.decode())
        assert g.to_json().encode() == raw
        assert g.edge_count == 5

    def test_stdout_default(self, capsys):
        code, stdout, _ = run(capsys, "gen", "path", "3")
        assert code == 0
        assert json.loads(stdout)["vertex_count"] == 3

    def test_bad_params_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "cycle", "5", "7")
        assert code == EXPECTED_FORMAT_ERROR and "parameter" in err

    def test_below_minimum_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen", "cycle", "2")
        assert code == EXPECTED_FORMAT_ERROR

    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "gen", "petersen", "1")
        assert code == EXPECTED_FORMAT_ERROR

    # without the size cap each of these would build about a million
    # vertices or edges (some 100 MB) before any error
    @pytest.mark.parametrize("family,param", [("cycle", "1000001"), ("complete", "1500")])
    def test_oversized_family_is_usage_error(self, capsys, family, param):
        code, stdout, err = run(capsys, "gen", family, param)
        assert code == EXPECTED_FORMAT_ERROR and "limits" in err and stdout == ""

    def test_tree_hat_from_file(self, tmp_path, capsys):
        tree = tmp_path / "t.json"
        run(capsys, "gen", "path", "4", "-o", str(tree))
        code, stdout, _ = run(capsys, "gen", "tree-hat", "-g", str(tree))
        assert code == 0
        assert json.loads(stdout)["vertex_count"] == 5

    def test_tree_hat_rejects_non_tree_input(self, tmp_path, capsys):
        cyc = tmp_path / "c.json"
        run(capsys, "gen", "cycle", "4", "-o", str(cyc))
        code, _, err = run(capsys, "gen", "tree-hat", "-g", str(cyc))
        assert code == EXPECTED_FORMAT_ERROR and "tree" in err

    def test_noncolorable_kstar(self, tmp_path, capsys):
        g_path = tmp_path / "ks.json"
        c_path = tmp_path / "cert.json"
        code, _, _ = run(capsys, "gen", "noncolorable", "--rule", "kstar",
                         "--n", "2", "--m", "12", "-o", str(g_path), "--cert", str(c_path))
        assert code == 0
        cert = json.loads(c_path.read_text())
        assert cert["passed"] and cert["rule"] == "kstar"

    def test_noncolorable_rejection_exits_one(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "noncolorable", "--rule", "kstar",
                         "--n", "2", "--m", "5", "-o", str(tmp_path / "g.json"),
                         "--cert", str(tmp_path / "c.json"))
        assert code == 1

    def test_noncolorable_tree_hat_hub(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "gen", "noncolorable", "--rule", "tree-hat",
                              "--hubs", "10", "--leaves", "10",
                              "-o", str(tmp_path / "g.json"))
        assert code == 0
        assert json.loads(stdout.strip())["passed"]


# families built from files and flags: each call is valid but for its stray
# positional parameters, which are refused, not dropped, and nothing is written
@pytest.mark.parametrize("verb,params,flags", [
    (("gen", "tree-hat"), ("7", "9"), ("-g", "TREE", "-o", "OUT")),
    (("gen", "noncolorable"), ("3",),
     ("--rule", "tree-hat", "--hubs", "10", "--leaves", "10", "-o", "OUT")),
    (("color", "mod-reduce"), ("1",),
     ("-g", "GRAPH", "--input-coloring", "ALPHA", "--t", "3", "-c", "OUT")),
], ids=["gen-tree-hat", "gen-noncolorable", "color-mod-reduce"])
def test_parameterless_family_refuses_parameters(tmp_path, capsys, verb, params, flags):
    files = {name: tmp_path / f"{name}.json" for name in ("TREE", "GRAPH", "ALPHA", "OUT")}
    run(capsys, "gen", "path", "4", "-o", str(files["TREE"]))
    run(capsys, "color", "bipartite-interval", "3", "3",
        "-o", str(files["GRAPH"]), "-c", str(files["ALPHA"]))
    flags = [str(files.get(a, a)) for a in flags]
    assert main([*verb, *flags]) == 0
    files["OUT"].unlink()
    capsys.readouterr()
    code, stdout, err = run(capsys, *verb, *params, *flags)
    assert code == EXPECTED_FORMAT_ERROR and "0 parameter(s)" in err
    assert stdout == "" and not files["OUT"].exists()


class TestColorCheck:
    @pytest.mark.parametrize("argv,t", [
        (("color", "gdn", "3", "4"), 8),
        (("color", "complete-odd", "2"), 6),
        (("color", "bipartite-cyclic", "2", "3"), 5),
        (("color", "bipartite-interval", "3", "3"), 5),
        (("color", "tripartite", "1", "1", "3"), 5),
        (("color", "hypercube-cyclic", "3"), 8),
        (("color", "hypercube-interval", "3"), 4),
    ])
    def test_color_then_check(self, tmp_path, capsys, argv, t):
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        code, stdout, _ = run(capsys, *argv, "-o", str(g_path), "-c", str(c_path))
        assert code == 0
        assert json.loads(stdout)["t"] == t
        mode = "interval" if argv[1] in ("bipartite-interval", "hypercube-interval") \
            else "cyclic"
        code, stdout, _ = run(capsys, "check", "-g", str(g_path), "-c", str(c_path),
                              "--mode", mode)
        assert code == 0
        assert json.loads(stdout)["verdict"] == "valid"

    def test_color_check_pipeline_over_acceptance_matrix(self, tmp_path, capsys):
        matrix = [("gdn", d, n) for d in range(2, 6) for n in range(3, 9)]
        matrix += [("complete-odd", n) for n in range(1, 7)]
        matrix += [("bipartite-cyclic", m, n) for m in range(2, 7) for n in range(2, 7)]
        matrix += [("tripartite", l, m, n)
                   for l in range(1, 5) for m in range(l, 5) for n in range(m, 5)]
        matrix += [("hypercube-cyclic", n) for n in range(2, 7)]
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        for name, *params in matrix:
            argv = ["color", name, *map(str, params),
                    "-o", str(g_path), "-c", str(c_path)]
            assert main(argv) == 0, argv
            assert main(["check", "-g", str(g_path), "-c", str(c_path),
                         "--mode", "cyclic"]) == 0, argv
        capsys.readouterr()

    def test_check_flags_unused_color(self, tmp_path, capsys):
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        run(capsys, "gen", "cycle", "3", "-o", str(g_path))
        c_path.write_text('{"t": 4, "colors": [1, 2, 3]}\n')
        code, stdout, _ = run(capsys, "check", "-g", str(g_path), "-c", str(c_path))
        assert code == 1
        kinds = {v["kind"] for v in json.loads(stdout)["violations"]}
        assert "color-unused" in kinds

    def test_check_output_bounded_for_huge_t(self, tmp_path, capsys):
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        run(capsys, "gen", "path", "2", "-o", str(g_path))
        c_path.write_text('{"t": 1000000, "colors": [1]}\n')
        code, stdout, _ = run(capsys, "check", "-g", str(g_path), "-c", str(c_path))
        assert code == 1 and len(stdout) < 1024
        assert json.loads(stdout)["violations"] == [
            {"kind": "color-unused", "color": 2, "last": 1000000}]

    def test_check_wrong_length_is_format_error(self, tmp_path, capsys):
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        run(capsys, "gen", "cycle", "4", "-o", str(g_path))
        c_path.write_text('{"t": 2, "colors": [1, 2]}\n')
        code, _, _ = run(capsys, "check", "-g", str(g_path), "-c", str(c_path))
        assert code == EXPECTED_FORMAT_ERROR

    def test_mod_reduce(self, tmp_path, capsys):
        g_path, a_path, b_path = tmp_path / "g.json", tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "color", "bipartite-interval", "3", "3",
            "-o", str(g_path), "-c", str(a_path))
        code, _, _ = run(capsys, "color", "mod-reduce", "-g", str(g_path),
                         "--input-coloring", str(a_path), "--t", "3", "-c", str(b_path))
        assert code == 0
        code, stdout, _ = run(capsys, "check", "-g", str(g_path), "-c", str(b_path))
        assert code == 0 and json.loads(stdout)["verdict"] == "valid"

    def test_out_of_range_color_names_its_edge(self, tmp_path, capsys):
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        run(capsys, "gen", "path", "3", "-o", str(g_path))
        c_path.write_text('{"t": 2, "colors": [0, 2]}\n')
        code, stdout, _ = run(capsys, "check", "-g", str(g_path), "-c", str(c_path))
        report = json.loads(stdout)
        assert code == 1 and report["verdict"] == "invalid"
        assert {"kind": "color-out-of-range", "edge": [0, 1], "color": 0} in report["violations"]

    # refused in closed form: the tripartite colorer would list 3*10^6 edges,
    # and the cube colorers would build a 40-cube; the patches make either
    # fail at once if it built a graph or checked a base cube
    @pytest.mark.parametrize("argv", [("tripartite", "1000", "1000", "1000"),
                                      ("hypercube-interval", "40"),
                                      ("hypercube-cyclic", "40")])
    def test_oversized_construction_is_usage_error(self, monkeypatch, capsys, argv):
        from intcyclic import constructions

        def built(*_):
            raise AssertionError("construction started before its size check")

        monkeypatch.setattr(constructions, "Graph", built)
        monkeypatch.setattr(graphs, "Graph", built)
        monkeypatch.setattr(constructions, "_check_base_step", built)
        monkeypatch.setattr(constructions, "hypercube_base_interval", built)
        code, stdout, err = run(capsys, "color", *argv)
        assert code == EXPECTED_FORMAT_ERROR and stdout == ""
        assert "limits" in err or "more than" in err


class TestFamilyRegistry:
    """Every family of either registry through the CLI, at small valid
    parameters; a family added without parameters here fails the first test."""

    GEN = {"cycle": (5,), "path": (3,), "complete": (4,), "complete-bipartite": (2, 3),
           "complete-tripartite": (1, 2, 3), "hypercube": (3,), "gdn": (3, 4),
           "kstar": (2, 3), "hub-tree": (2, 3)}
    COLOR = {"gdn": (3, 4), "complete-odd": (2,), "bipartite-cyclic": (2, 3),
             "bipartite-interval": (3, 3), "tripartite": (1, 1, 3),
             "hypercube-cyclic": (3,), "hypercube-interval": (3,)}

    def test_every_family_has_parameters(self):
        for table, params in ((graphs.FAMILIES, self.GEN), (constructions.FAMILIES, self.COLOR)):
            assert {name: len(p) for name, p in params.items()} \
                == {name: arity for name, (arity, _) in table.items()}

    @pytest.mark.parametrize("family", sorted(graphs.FAMILIES))
    def test_gen(self, tmp_path, capsys, family):
        g_path = tmp_path / "g.json"
        code, _, _ = run(capsys, "gen", family, *map(str, self.GEN[family]), "-o", str(g_path))
        assert code == 0
        assert Graph.from_json(g_path.read_text()) == graphs.make_family(family, self.GEN[family])

    @pytest.mark.parametrize("family", sorted(constructions.FAMILIES))
    def test_color_then_check(self, tmp_path, capsys, family):
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        code, _, _ = run(capsys, "color", family, *map(str, self.COLOR[family]),
                         "-o", str(g_path), "-c", str(c_path))
        assert code == 0
        mode = "interval" if family.endswith("-interval") else "cyclic"
        code, _, _ = run(capsys, "check", "-g", str(g_path), "-c", str(c_path), "--mode", mode)
        assert code == 0

    @pytest.mark.parametrize("verb,table", [("gen", graphs.FAMILIES),
                                            ("color", constructions.FAMILIES)],
                             ids=["gen", "color"])
    def test_help_lists_every_family(self, capsys, verb, table):
        code, stdout, _ = run(capsys, verb, "--help")
        assert code == 0 and all(name in stdout for name in table)

    def test_interval_fold_keeps_classes(self, tmp_path, capsys):
        # the hypercube's interval coloring folds like the other interval
        # families, and its spectrum classes stay in the summary
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        code, stdout, _ = run(capsys, "color", "hypercube-interval", "4", "--t", "4",
                              "-o", str(g_path), "-c", str(c_path))
        summary = json.loads(stdout)
        assert code == 0 and summary["t"] == 4 and len(summary["classes"]) == 16
        code, _, _ = run(capsys, "check", "-g", str(g_path), "-c", str(c_path),
                         "--mode", "cyclic")
        assert code == 0


class TestSolve:
    def test_feasible_set_cycle(self, tmp_path, capsys):
        g_path = tmp_path / "c5.json"
        run(capsys, "gen", "cycle", "5", "-o", str(g_path))
        code, stdout, _ = run(capsys, "solve", "-g", str(g_path), "--feasible-set")
        assert code == 0
        data = json.loads(stdout)
        assert data["members"] == [3, 5] and data["exhausted"]

    def test_feasible_set_complete_five(self, tmp_path, capsys):
        # the degree-sum obstruction excludes t = 4 and 7-9: no degree sum
        # of 4s is 10 mod t
        g_path = str(tmp_path / "k5.json")
        run(capsys, "gen", "complete", "5", "-o", g_path)
        code, out1, _ = run(capsys, "solve", "-g", g_path, "--feasible-set")
        _, out2, _ = run(capsys, "solve", "-g", g_path, "--feasible-set")
        data = json.loads(out1)
        assert code == 0 and out1 == out2
        assert data["members"] == [5, 6] and data["range"] == [4, 9]
        assert data["decisions"][0] == {"t": 4, "decision": "infeasible",
                                        "source": "degree-sum", "nodes_explored": 0}
        assert [d["source"] for d in data["decisions"][1:]] == ["search"] * 2 + ["degree-sum"] * 3
        assert all(d["nodes_explored"] == 0 for d in data["decisions"][3:])

    @pytest.mark.parametrize("family,shown", readme_feasible_sets())
    def test_readme_examples_match_the_cli(self, tmp_path, capsys, family, shown):
        # every per-t record the README shows in full, and every top-level
        # field it shows, is what the CLI prints
        g_path = str(tmp_path / "g.json")
        assert run(capsys, "gen", *family, "-o", g_path)[0] == 0
        code, out, _ = run(capsys, "solve", "-g", g_path, "--feasible-set")
        data = json.loads(out)
        by_t = {d["t"]: d for d in data["decisions"]}
        records = [json.loads(r) for r in SHOWN_RECORD.findall(shown)]
        fields = SHOWN_FIELD.findall(SHOWN_RECORD.sub("", shown))
        assert code == 0 and {"members", "range"} <= {name for name, _ in fields}
        assert [by_t.get(r["t"]) for r in records] == records
        assert [(name, data[name]) for name, _ in fields] == \
            [(name, json.loads(value)) for name, value in fields]

    def test_single_t_feasible(self, tmp_path, capsys):
        g_path = tmp_path / "c5.json"
        run(capsys, "gen", "cycle", "5", "-o", str(g_path))
        code, stdout, _ = run(capsys, "solve", "-g", str(g_path), "--t", "5")
        assert code == 0
        assert json.loads(stdout)["decision"] == "feasible"

    def test_single_t_infeasible(self, tmp_path, capsys):
        g_path = tmp_path / "c5.json"
        run(capsys, "gen", "cycle", "5", "-o", str(g_path))
        code, stdout, _ = run(capsys, "solve", "-g", str(g_path), "--t", "4")
        assert code == 1
        assert json.loads(stdout)["decision"] == "infeasible"

    @pytest.mark.parametrize("t", ["4", "5"])
    def test_single_t_output_byte_stable(self, tmp_path, capsys, t):
        g_path = tmp_path / "c5.json"
        run(capsys, "gen", "cycle", "5", "-o", str(g_path))
        _, out1, _ = run(capsys, "solve", "-g", str(g_path), "--t", t)
        _, out2, _ = run(capsys, "solve", "-g", str(g_path), "--t", t)
        assert out1 == out2

    def test_consecutive_calls_share_one_parser(self, tmp_path, capsys):
        g_path = str(tmp_path / "c5.json")
        assert run(capsys, "gen", "cycle", "5", "-o", g_path)[0] == 0
        code, stdout, _ = run(capsys, "solve", "-g", g_path, "--t", "5", "--budget", "1")
        assert code == 3 and json.loads(stdout)["decision"] == "timeout"
        code, stdout, _ = run(capsys, "solve", "-g", g_path, "--feasible-set")
        data = json.loads(stdout)
        assert code == 0 and data["members"] == [3, 5] and data["timed_out"] == []
        assert [d["source"] for d in data["decisions"]] == ["degree-sum", "search"] * 2
        code, stdout, err = run(capsys, "solve", "-g", g_path)  # needs --t or --feasible-set
        assert code == EXPECTED_FORMAT_ERROR and stdout == "" and "usage" in err
        code, stdout, _ = run(capsys, "solve", "-g", g_path, "--t", "5")  # no budget left over
        assert code == 0 and json.loads(stdout)["decision"] == "feasible"
        code, stdout, _ = run(capsys, "solve", "-g", g_path, "--t", "4")
        assert code == 1 and json.loads(stdout)["decision"] == "infeasible"
        assert build_parser() is build_parser()

    def test_budget_exhausted_exit(self, tmp_path, capsys):
        g_path = tmp_path / "k7.json"
        run(capsys, "gen", "complete", "7", "-o", str(g_path))
        code, stdout, _ = run(capsys, "solve", "-g", str(g_path), "--t", "8",
                              "--budget", "10000")
        assert code == 3
        assert json.loads(stdout)["decision"] == "timeout"

    def test_jobs_members_stable(self, tmp_path, capsys):
        g_path = tmp_path / "c6.json"
        run(capsys, "gen", "cycle", "6", "-o", str(g_path))
        code1, out1, _ = run(capsys, "solve", "-g", str(g_path), "--feasible-set")
        code2, out2, _ = run(capsys, "solve", "-g", str(g_path), "--feasible-set",
                             "--jobs", "2")
        assert code1 == code2 == 0
        assert json.loads(out1)["members"] == json.loads(out2)["members"]

    def test_missing_file_is_format_error(self, capsys):
        code, _, err = run(capsys, "solve", "-g", "/nonexistent.json", "--t", "3")
        assert code == EXPECTED_FORMAT_ERROR and "not found" in err

    def test_huge_vertex_count_is_format_error(self, tmp_path, capsys):
        # refused before anything is allocated for the vertices
        g_path = tmp_path / "huge.json"
        g_path.write_text(json.dumps({"vertex_count": 10**12, "edges": []}))
        code, stdout, err = run(capsys, "solve", "-g", str(g_path), "--t", "3")
        assert code == EXPECTED_FORMAT_ERROR and "exceeds" in err and stdout == ""

    def test_nonpositive_t_is_usage_error(self, tmp_path, capsys):
        g_path = tmp_path / "c4.json"
        run(capsys, "gen", "cycle", "4", "-o", str(g_path))
        code, _, err = run(capsys, "solve", "-g", str(g_path), "--t", "0")
        assert code == EXPECTED_FORMAT_ERROR and "positive" in err


class TestBoundsCertifyScanDot:
    def test_bounds_outputs_table_and_json(self, tmp_path, capsys):
        g_path = tmp_path / "q3.json"
        run(capsys, "gen", "hypercube", "3", "-o", str(g_path))
        code, stdout, _ = run(capsys, "bounds", "-g", str(g_path))
        assert code == 0
        assert "best upper" in stdout
        data = json.loads(stdout.strip().splitlines()[-1])
        assert data["best_upper"] == 9

    def test_certify_colorable(self, tmp_path, capsys):
        g_path = tmp_path / "c6.json"
        run(capsys, "gen", "cycle", "6", "-o", str(g_path))
        code, stdout, _ = run(capsys, "certify", "-g", str(g_path))
        assert code == 0
        assert json.loads(stdout)["status"] == "colorable"

    def test_certify_noncolorable_exit(self, tmp_path, capsys):
        g_path = tmp_path / "ks.json"
        run(capsys, "gen", "kstar", "2", "11", "-o", str(g_path))
        code, stdout, _ = run(capsys, "certify", "-g", str(g_path))
        assert code == 1
        data = json.loads(stdout)
        assert data["status"] == "noncolorable"
        assert data["certificate"]["rule"] == "kstar-511"

    def test_certify_inconclusive_exit(self, tmp_path, capsys):
        g_path = tmp_path / "k4.json"
        run(capsys, "gen", "complete", "4", "-o", str(g_path))
        code, stdout, _ = run(capsys, "certify", "-g", str(g_path), "--budget", "1")
        assert code == 3
        assert json.loads(stdout)["status"] == "inconclusive"

    def test_scan(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for n in (3, 4, 5):
            run(capsys, "gen", "cycle", str(n), "-o", str(corpus / f"c{n}.json"))
        code, stdout, _ = run(capsys, "scan", "--corpus", str(corpus))
        assert code == 0
        data = json.loads(stdout)
        assert data["counterexamples"] == 0 and len(data["records"]) == 3

    def test_export_dot(self, tmp_path, capsys):
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        run(capsys, "color", "tripartite", "1", "1", "1", "-o", str(g_path),
            "-c", str(c_path))
        code, stdout, _ = run(capsys, "export-dot", "-g", str(g_path), "-c", str(c_path))
        assert code == 0
        assert stdout.startswith("graph {")
        assert 'label="2"' in stdout and "--" in stdout

    def test_export_dot_without_coloring(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        run(capsys, "gen", "cycle", "4", "-o", str(g_path))
        code, stdout, _ = run(capsys, "export-dot", "-g", str(g_path))
        assert code == 0 and "0 -- 1;" in stdout

    def test_export_dot_escapes_labels(self, tmp_path, capsys):
        g_path = tmp_path / "g.json"
        g_path.write_text(Graph(2, ((0, 1),), ('a"b', "c\\d")).to_json())
        code, stdout, _ = run(capsys, "export-dot", "-g", str(g_path))
        assert code == 0
        assert '  0 [label="a\\"b"];' in stdout.splitlines()
        assert '  1 [label="c\\\\d"];' in stdout.splitlines()

    # a color outside [1, t] has no hue on the ramp: refused, nothing written
    @pytest.mark.parametrize("colors", [[0, 7], [0, 1], [1, 3]], ids=["both", "zero", "above-t"])
    def test_export_dot_color_out_of_range(self, tmp_path, capsys, colors):
        g_path, c_path, out = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "g.dot"
        run(capsys, "gen", "path", "3", "-o", str(g_path))
        c_path.write_text(json.dumps({"t": 2, "colors": colors}))
        code, stdout, err = run(capsys, "export-dot", "-g", str(g_path), "-c", str(c_path),
                                "-o", str(out))
        assert code == EXPECTED_FORMAT_ERROR and stdout == "" and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and "[1, 2]" in err

    # a 30-byte coloring file with t = 10**12 would make the validator list
    # 10**12 unused colors; the patches fail at once if a verb got that far
    @pytest.mark.parametrize("verb", ["check", "mod-reduce", "export-dot"])
    def test_huge_coloring_t_is_format_error(self, monkeypatch, tmp_path, capsys, verb):
        from intcyclic import cli

        def reached(*_):
            raise AssertionError("coloring with a huge t was accepted")

        monkeypatch.setattr(cli, "validate_cyclic", reached)
        monkeypatch.setattr(cli.cons, "mod_reduce", reached)
        g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
        run(capsys, "gen", "path", "2", "-o", str(g_path))
        c_path.write_text('{"t": 1000000000000, "colors": [1]}\n')
        argv = {"check": ["check", "-g", str(g_path), "-c", str(c_path)],
                "mod-reduce": ["color", "mod-reduce", "-g", str(g_path),
                               "--input-coloring", str(c_path), "--t", "1"],
                "export-dot": ["export-dot", "-g", str(g_path), "-c", str(c_path)]}[verb]
        code, stdout, err = run(capsys, *argv)
        assert code == EXPECTED_FORMAT_ERROR and stdout == "" and "exceeds" in err


MALFORMED_GRAPHS = [
    "{not json", "[1, 2]", '{"vertex_count": 2}',
    '{"vertex_count": true, "edges": []}', '{"vertex_count": 2.0, "edges": []}',
    '{"vertex_count": "2", "edges": []}', '{"vertex_count": -1, "edges": []}',
    '{"vertex_count": 2, "edges": {"a": 1}}', '{"vertex_count": 2, "edges": [[0, 1.5]]}',
    '{"vertex_count": 2, "edges": [[false, true]]}', '{"vertex_count": 3, "edges": [[0]]}',
    '{"vertex_count": 3, "edges": [[0, 1, 2]]}', '{"vertex_count": 3, "edges": [5]}',
    '{"vertex_count": 3, "edges": [null]}', '{"vertex_count": 3, "edges": [[1, 1]]}',
    '{"vertex_count": 3, "edges": [[0, 1], [1, 0]]}', '{"vertex_count": 2, "edges": [[0, 2]]}',
    '{"vertex_count": 2, "edges": [[0, 1]], "labels": ["a", 1]}',
    '{"vertex_count": 2, "edges": [[0, 1]], "labels": ["a"]}',
    '{"vertex_count": 2, "edges": [[0, 1]], "labels": "ab"}',
]
MALFORMED_COLORINGS = [
    "{", "[1]", '{"t": 1}', '{"t": true, "colors": [1]}', '{"t": 1.0, "colors": [1]}',
    '{"t": 0, "colors": [1]}', '{"t": 1, "colors": {"a": 1}}', '{"t": 2, "colors": [1.0]}',
    '{"t": 2, "colors": [true]}', '{"t": 2, "colors": ["1"]}',
    '{"t": 1, "colors": [1, 1]}',  # two colors for one edge
]


@pytest.mark.parametrize("verb,text", [("bounds", t) for t in MALFORMED_GRAPHS]
                         + [("check", t) for t in MALFORMED_COLORINGS]
                         + [pytest.param(verb, "[" * 100000, id=f"{verb}-nested")
                            for verb in ("bounds", "check")])
def test_malformed_file_is_format_error(tmp_path, capsys, verb, text):
    g_path, c_path = tmp_path / "g.json", tmp_path / "c.json"
    run(capsys, "gen", "path", "2", "-o", str(g_path))
    (g_path if verb == "bounds" else c_path).write_text(text)
    code, stdout, _ = run(capsys, verb, "-g", str(g_path),
                          *(["-c", str(c_path)] if verb == "check" else []))
    assert code == EXPECTED_FORMAT_ERROR and stdout == ""


def test_usage_error_exit_code(capsys):
    assert main(["unknown-verb"]) == EXPECTED_FORMAT_ERROR


@pytest.mark.parametrize("argv", [
    ("bounds", "-g", "DIR"),
    ("solve", "-g", "DIR", "--feasible-set"),
    ("check", "-g", "G", "-c", "DIR"),
    ("gen", "cycle", "5", "-o", "MISSING"),
    ("gen", "noncolorable", "--rule", "kstar", "--n", "1", "--m", "1",
     "-o", "OUT", "--cert", "MISSING"),
    ("gen", "noncolorable", "--rule", "kstar", "--n", "1", "--m", "1", "--cert", "MISSING"),
    ("color", "hypercube-cyclic", "3", "-o", "OUT", "-c", "MISSING"),
    ("scan", "--corpus", "CORPUS"),
], ids=["bounds-dir", "solve-dir", "check-dir", "gen-missing-dir", "cert-missing-dir",
        "cert-missing-dir-graph-on-stdout", "color-missing-dir", "scan-dir-entry"])
def test_unreadable_or_unwritable_file_is_format_error(tmp_path, capsys, argv):
    # exit 1 would read as an answer (invalid, rejected, counterexample); a
    # failed write leaves no partial result, on stdout or in another file
    files = {"DIR": tmp_path / "dir", "G": tmp_path / "g.json", "OUT": tmp_path / "out.json",
             "MISSING": tmp_path / "missing" / "x.json", "CORPUS": tmp_path / "corpus"}
    files["DIR"].mkdir()
    (files["CORPUS"] / "x.json").mkdir(parents=True)
    run(capsys, "gen", "cycle", "5", "-o", str(files["G"]))
    run(capsys, "gen", "cycle", "4", "-o", str(files["CORPUS"] / "c4.json"))
    code, stdout, err = run(capsys, *(str(files.get(a, a)) for a in argv))
    assert code == EXPECTED_FORMAT_ERROR and stdout == "" and not files["OUT"].exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# out-of-range numbers are refused by the parser, before any file is read:
# a negative budget would read as "budget exhausted" (exit 3), and a negative
# --jobs would run
@pytest.mark.parametrize("argv", [
    ("solve", "-g", "G", "--t", "3", "--budget", "-5"),
    ("solve", "-g", "G", "--feasible-set", "--budget", "-1"),
    ("solve", "-g", "G", "--feasible-set", "--jobs", "-3"),
    ("solve", "-g", "G", "--feasible-set", "--jobs", "0"),
    ("solve", "-g", "G", "--feasible-set", "--jobs", "two"),
    ("certify", "-g", "G", "--budget", "-1"),
    ("certify", "-g", "G", "--budget", "1.5"),
    ("scan", "--corpus", "CORPUS", "--budget", "-1"),
    ("scan", "--corpus", "CORPUS", "--jobs", "0"),
    ("solve", "-g", "G", "--feasible-set", "--t-hi", "0"),
    ("solve", "-g", "G", "--feasible-set", "--t-hi", "-3"),
    ("color", "bipartite-interval", "3", "3", "--t", "0"),
    ("color", "mod-reduce", "-g", "G", "--input-coloring", "G", "--t", "-1"),
])
def test_out_of_range_number_is_usage_error(tmp_path, capsys, argv):
    files = {"G": tmp_path / "g.json", "CORPUS": tmp_path / "corpus"}
    files["CORPUS"].mkdir()
    run(capsys, "gen", "cycle", "3", "-o", str(files["G"]))
    run(capsys, "gen", "cycle", "3", "-o", str(files["CORPUS"] / "c3.json"))
    code, stdout, err = run(capsys, *(str(files.get(a, a)) for a in argv))
    assert code == EXPECTED_FORMAT_ERROR and stdout == ""
    assert "must be at least" in err or "invalid integer value" in err


@pytest.mark.parametrize("argv", [
    ("color", "gdn", "3", "5", "-o", "OUT", "-c", "OUT"),
    ("color", "gdn", "3", "5", "-o", "out.json", "-c", "./out.json"),
    ("gen", "noncolorable", "--rule", "kstar", "--n", "2", "--m", "12",
     "-o", "OUT", "--cert", "OUT"),
], ids=["color", "color-same-file", "gen-noncolorable"])
def test_output_path_given_twice_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    # the second write would replace the first: the graph would be lost
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *(str(tmp_path / "out.json") if a == "OUT" else a
                                      for a in argv))
    assert code == EXPECTED_FORMAT_ERROR and stdout == "" and not (tmp_path / "out.json").exists()
    assert err.startswith("error: ") and err.count("\n") == 1 and "twice" in err


def test_zero_budget_is_legal(tmp_path, capsys):
    g_path = tmp_path / "c3.json"
    run(capsys, "gen", "cycle", "3", "-o", str(g_path))
    code, stdout, _ = run(capsys, "solve", "-g", str(g_path), "--t", "3", "--budget", "0")
    assert code == 3 and json.loads(stdout)["decision"] == "timeout"
    code, stdout, _ = run(capsys, "certify", "-g", str(g_path), "--budget", "0")
    assert code == 3 and json.loads(stdout)["status"] == "inconclusive"


# each of these is refused with exit 2, a one-line error and nothing written
@pytest.mark.parametrize("argv,message", [
    (("gen", "cycle", "five"), "must be integers"),
    (("gen", "tree-hat", "-o", "OUT"), "needs a tree file"),
    (("gen", "noncolorable", "--rule", "kstar", "--n", "2", "-o", "OUT"), "--n and --m"),
    (("gen", "noncolorable", "--rule", "kstar", "--m", "12", "-o", "OUT"), "--n and --m"),
    (("gen", "noncolorable", "-o", "OUT"), "needs --rule"),
    (("gen", "noncolorable", "--rule", "tree-hat", "-o", "OUT"), "-g TREE or --hubs/--leaves"),
    (("gen", "noncolorable", "--rule", "tree-hat", "--hubs", "4", "-o", "OUT"),
     "-g TREE or --hubs/--leaves"),
    # a zero reaches the builder, which names the parameters it needs
    (("gen", "noncolorable", "--rule", "tree-hat", "--hubs", "0", "--leaves", "3",
      "-o", "OUT"), "needs hubs, leaves_per_hub >= 1"),
    (("color", "mod-reduce", "-g", "G", "--t", "3", "-c", "OUT"), "needs -g GRAPH"),
    (("color", "mod-reduce", "--input-coloring", "C", "--t", "3", "-c", "OUT"),
     "needs -g GRAPH"),
    (("color", "mod-reduce", "-g", "G", "--input-coloring", "C", "-c", "OUT"),
     "needs -g GRAPH"),
    (("scan", "--corpus", "G"), "not a directory"),
    (("export-dot", "-g", "G", "-c", "C", "-o", "OUT"), "edge count"),
    (("color", "mod-reduce", "-g", "G", "--input-coloring", "C", "--t", "2", "-c", "OUT"),
     "edge count"),
    # each family's own check, below its smallest member
    (("gen", "complete", "0"), "n >= 1"),
    (("gen", "complete-bipartite", "0", "3"), "m, n >= 1"),
    (("gen", "complete-tripartite", "1", "0", "2"), "l, m, n >= 1"),
    (("gen", "hypercube", "0"), "n >= 1"),
    (("gen", "gdn", "1", "5"), "d >= 2"),
    (("gen", "gdn", "3", "2"), "n >= 3"),
    (("gen", "kstar", "0", "3"), "n, m >= 1"),
    (("color", "tripartite", "0", "1", "1"), "l, m, n >= 1"),
], ids=["gen-non-integer", "gen-tree-hat-no-graph", "kstar-no-m", "kstar-no-n",
        "noncolorable-no-rule", "tree-hat-no-tree", "tree-hat-no-leaves", "tree-hat-zero-hubs",
        "mod-reduce-no-coloring", "mod-reduce-no-graph", "mod-reduce-no-t", "scan-file",
        "export-dot-wrong-length", "mod-reduce-wrong-length", "complete-zero",
        "complete-bipartite-zero", "complete-tripartite-zero", "hypercube-zero", "gdn-d-one",
        "gdn-n-two", "kstar-zero", "color-tripartite-zero"])
def test_refused_call(tmp_path, capsys, argv, message):
    files = {"G": tmp_path / "g.json", "C": tmp_path / "c.json", "OUT": tmp_path / "out.json"}
    run(capsys, "gen", "cycle", "4", "-o", str(files["G"]))
    files["C"].write_text('{"t": 3, "colors": [1, 2, 3]}\n')
    code, stdout, err = run(capsys, *(str(files.get(a, a)) for a in argv))
    assert code == EXPECTED_FORMAT_ERROR and stdout == "" and not files["OUT"].exists()
    assert message in err and err.startswith("error: ") and err.count("\n") == 1


# a flag that the chosen family, rule or mode would not read is refused, not
# dropped: exit 2, a one-line error naming the flag, nothing written
@pytest.mark.parametrize("argv,flag", [
    (("gen", "cycle", "4", "--rule", "kstar", "--n", "3", "--cert", "CERT", "-o", "OUT"),
     "--rule"),
    (("gen", "cycle", "4", "--cert", "CERT", "-o", "OUT"), "--cert"),
    (("gen", "tree-hat", "-g", "TREE", "--cert", "CERT", "-o", "OUT"), "--cert"),
    (("gen", "noncolorable", "--rule", "kstar", "--n", "2", "--m", "12", "--hubs", "3",
      "-g", "TREE", "-o", "OUT", "--cert", "CERT"), "-g"),
    (("gen", "noncolorable", "--rule", "kstar", "--n", "2", "--m", "12", "--leaves", "3",
      "-o", "OUT", "--cert", "CERT"), "--leaves"),
    (("gen", "noncolorable", "--rule", "tree-hat", "-g", "TREE", "--hubs", "3",
      "--leaves", "3", "-o", "OUT", "--cert", "CERT"), "--hubs"),
    (("gen", "noncolorable", "--rule", "tree-hat", "--hubs", "3", "--leaves", "3",
      "--m", "4", "-o", "OUT", "--cert", "CERT"), "--m"),
    (("color", "gdn", "3", "5", "-g", "G", "--input-coloring", "C", "-o", "OUT", "-c", "CERT"),
     "-g"),
    (("color", "bipartite-interval", "3", "3", "--input-coloring", "C", "-o", "OUT"),
     "--input-coloring"),
    (("solve", "-g", "G", "--t", "5", "--t-hi", "1", "--jobs", "4"), "--t-hi"),
    (("solve", "-g", "G", "--t", "5", "--t-hi", "3"), "--t-hi"),
    (("solve", "-g", "G", "--t", "5", "--jobs", "2"), "--jobs"),
    (("solve", "-g", "G", "--t", "5", "--jobs", "1"), "--jobs"),
], ids=["gen-rule", "gen-cert", "tree-hat-cert", "kstar-graph", "kstar-leaves",
        "tree-hat-file-hubs", "tree-hat-hubs-m", "color-graph", "color-input-coloring",
        "solve-t-hi-jobs", "solve-t-hi", "solve-jobs", "solve-jobs-one"])
def test_unread_flag_is_refused(tmp_path, capsys, argv, flag):
    files = {name: tmp_path / f"{name}.json" for name in ("G", "C", "TREE", "OUT", "CERT")}
    run(capsys, "gen", "complete", "5", "-o", str(files["G"]))
    run(capsys, "gen", "hub-tree", "3", "3", "-o", str(files["TREE"]))
    files["C"].write_text('{"t": 4, "colors": [1, 2, 3, 4, 1, 2, 3, 4, 1, 2]}\n')
    code, stdout, err = run(capsys, *(str(files.get(a, a)) for a in argv))
    assert code == EXPECTED_FORMAT_ERROR and stdout == ""
    assert not files["OUT"].exists() and not files["CERT"].exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f" takes no {flag}\n")


# --t folds an interval construction; on a cyclic one it is refused in one
# line that names the construction, whatever the width asked
@pytest.mark.parametrize("argv", [("gdn", "3", "5", "--t", "4"), ("gdn", "3", "5", "--t", "10"),
                                  ("bipartite-cyclic", "3", "3", "--t", "4"),
                                  ("tripartite", "1", "2", "3", "--t", "5"),
                                  ("complete-odd", "2", "--t", "5"),
                                  ("hypercube-cyclic", "3", "--t", "7")])
def test_target_width_on_cyclic_construction_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, "color", *argv, "-o", str(out))
    assert code == EXPECTED_FORMAT_ERROR and stdout == "" and not out.exists()
    assert err.startswith("error: --t folds only an interval construction")
    assert f"; {argv[0]} is cyclic" in err and err.count("\n") == 1 and "{" not in err


def test_target_width_out_of_range_names_the_range(capsys):
    code, stdout, err = run(capsys, "color", "bipartite-interval", "3", "3", "--t", "2")
    assert code == EXPECTED_FORMAT_ERROR and stdout == "" and "t=2 outside [3, 5]" in err


def test_noncolorable_tree_hat_from_file(tmp_path, capsys):
    # -g TREE certifies the hat of the given tree: the same graph and
    # certificate as building the tree from --hubs/--leaves
    tree = tmp_path / "tree.json"
    run(capsys, "gen", "hub-tree", "10", "10", "-o", str(tree))
    code, from_file, _ = run(capsys, "gen", "noncolorable", "--rule", "tree-hat",
                             "-g", str(tree), "-o", str(tmp_path / "a.json"))
    assert code == 0 and json.loads(from_file)["passed"]
    code, from_flags, _ = run(capsys, "gen", "noncolorable", "--rule", "tree-hat",
                              "--hubs", "10", "--leaves", "10", "-o", str(tmp_path / "b.json"))
    assert code == 0 and from_flags == from_file
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_mod_reduce_refuses_coloring_that_is_not_interval(tmp_path, capsys):
    # a cyclic coloring of C_4 that is no interval coloring: vertices 0 and 3 see 1 and 3
    g_path, c_path, out = tmp_path / "g.json", tmp_path / "c.json", tmp_path / "out.json"
    run(capsys, "gen", "cycle", "4", "-o", str(g_path))
    c_path.write_text('{"t": 3, "colors": [1, 3, 2, 1]}\n')
    code, stdout, err = run(capsys, "color", "mod-reduce", "-g", str(g_path),
                            "--input-coloring", str(c_path), "--t", "3", "-c", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert "not interval-valid" in err


def test_scan_jobs_byte_stable(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for family, *params in [("cycle", 5), ("complete", 4), ("path", 4), ("hypercube", 3),
                            ("complete-bipartite", 2, 3)]:
        run(capsys, "gen", family, *map(str, params),
            "-o", str(corpus / f"{family}{params[0]}.json"))
    code1, out1, _ = run(capsys, "scan", "--corpus", str(corpus))
    code2, out2, _ = run(capsys, "scan", "--corpus", str(corpus), "--jobs", "2")
    assert code1 == code2 == 0 and out1 == out2
    assert len(json.loads(out1)["records"]) == 5
