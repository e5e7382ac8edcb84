import json

import pytest

from intcyclic.cli import main
from intcyclic.graphs import Graph

EXPECTED_FORMAT_ERROR = 2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestSolve:
    def test_feasible_set_cycle(self, tmp_path, capsys):
        g_path = tmp_path / "c5.json"
        run(capsys, "gen", "cycle", "5", "-o", str(g_path))
        code, stdout, _ = run(capsys, "solve", "-g", str(g_path), "--feasible-set")
        assert code == 0
        data = json.loads(stdout)
        assert data["members"] == [3, 5] and data["exhausted"]

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


def test_usage_error_exit_code(capsys):
    assert main(["unknown-verb"]) == EXPECTED_FORMAT_ERROR
