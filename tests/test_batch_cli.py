"""Batch runner determinism and the CLI's exit-code contract."""

import itertools
import json
import subprocess
import sys
import time

import pytest

from ncflow.batch import run_batch
from ncflow.cli import main
from ncflow.flows import nonconflicting_for_every_two_factor
from ncflow.formats import encode_graph6, encode_sparse6, parse_any
from ncflow.generators import (
    counterexample_family,
    fig3_graph,
    k4,
    k23,
    k33,
    permutation_graph,
    petersen,
    triangle_replace_all,
)
from ncflow.graph import build_graph
from ncflow.kernels import SearchTimeout
from ncflow.matchings import enumerate_perfect_matchings

from conftest import cubic_without_a_perfect_matching, hub_graph, petersen_of_petersens, prism, small_corpus


def lines_for(*graphs):
    return [encode_graph6(g) if g.is_simple() else encode_sparse6(g) for g in graphs]


class TestRunBatch:
    def test_nonconflicting_verdicts(self):
        rep = run_batch(lines_for(k4(), k33(), petersen()), "nonconflicting")
        assert [r.verdict for r in rep.rows] == ["yes", "yes", "no"]
        assert rep.rows[2].detail["matchings_checked"] == 6
        # bridgeless negatives are findings
        assert [r.finding for r in rep.rows] == [False, False, True]

    def test_chi_n_verdicts(self):
        rep = run_batch(lines_for(k4(), k33(), petersen()), "chi-n")
        assert [r.verdict for r in rep.rows] == ["3", "3", "5"]
        assert [r.detail["settled_by"] for r in rep.rows] == [[[3, "triangle"]], [], [[4, "lemma-A"]]]

    def test_chi_n_parallelism_is_canonical(self, corpus16):
        lines = lines_for(*(g for _n, g in corpus16))
        a = run_batch(lines, "chi-n", jobs=1).to_json(canonical=True)
        b = run_batch(lines, "chi-n", jobs=2).to_json(canonical=True)
        assert a == b
        assert all("settled_by" in row["detail"] for row in json.loads(a)["rows"])

    def test_every_2_factor_verdicts(self):
        rep = run_batch(lines_for(k4(), petersen()), "every-2-factor")
        assert [r.verdict for r in rep.rows] == ["yes", "no"]

    def test_parallelism_is_canonical(self):
        lines = lines_for(*(g for _n, g in small_corpus()))
        a = run_batch(lines, "nonconflicting", jobs=1).to_json(canonical=True)
        b = run_batch(lines, "nonconflicting", jobs=4).to_json(canonical=True)
        assert a == b

    def test_malformed_line_is_an_error_row_not_a_crash(self):
        lines = [encode_graph6(k4()), "!!!garbage!!!", encode_graph6(k33())]
        rep = run_batch(lines, "nonconflicting")
        assert rep.rows[1].error is not None
        assert rep.rows[0].verdict == "yes" and rep.rows[2].verdict == "yes"
        assert rep.summary["errors"] == 1

    def test_non_cubic_skipped(self):
        rep = run_batch(["D??"], "nonconflicting")
        assert rep.rows[0].verdict == "skipped-not-cubic"

    def test_blank_lines_ignored(self):
        rep = run_batch(["", encode_graph6(k4()), "  \n"], "chi-n")
        assert len(rep.rows) == 1


@pytest.fixture
def searches_return_at_once(monkeypatch):
    """find_nonconflicting_flow answers None at once, at every binding, so
    only the matching stream's own deadline check can stop a long search."""
    import ncflow
    from ncflow import batch, cli, flows

    for mod in (ncflow, flows, batch, cli):
        monkeypatch.setattr(mod, "find_nonconflicting_flow", lambda *a, **kw: None, raising=False)


class TestOneVerdictStream:
    """Every exhaustive search over matchings goes through flows.matching_verdicts."""

    def test_every_two_factor_honours_the_deadline(self, searches_return_at_once):
        # counterexample_family(3) has 294,912 perfect matchings
        g = counterexample_family(3)
        start = time.monotonic()
        with pytest.raises(SearchTimeout):
            nonconflicting_for_every_two_factor(g, deadline=start + 0.5)
        assert time.monotonic() - start < 3

    @pytest.mark.parametrize("mode", ["nonconflicting", "every-2-factor"])
    def test_batch_searches_honour_the_deadline(self, searches_return_at_once, mode):
        start = time.monotonic()
        [row] = run_batch(lines_for(counterexample_family(3)), mode, timeout_secs=0.5).rows
        assert row.error == "timeout"
        assert time.monotonic() - start < 3

    def test_entry_points_agree(self, corpus16, capsys):
        """The CLI, batch `nonconflicting` and batch `every-2-factor` give
        one verdict per graph, with the same matching counts."""
        graphs = [g for _name, g in corpus16] + [counterexample_family(1)]
        lines = lines_for(*graphs)
        search = run_batch(lines, "nonconflicting").rows
        every = run_batch(lines, "every-2-factor").rows
        negatives = 0
        for line, row, all_row in zip(lines, search, every):
            # edge ids are those of the parsed literal, as the CLI and batch see them
            matchings = list(enumerate_perfect_matchings(parse_any(line)))
            checked = row.detail["matchings_checked"]
            code = main(["flow", "search", line])
            out = capsys.readouterr().out
            assert code == (1 if row.verdict == "no" else 0), line
            if code == 1:
                negatives += 1
                assert f"matchings checked: {len(matchings)}" in out
                assert checked == len(matchings)
                assert all_row.verdict == "no"
            else:
                # the CLI reports the matching at which batch stopped
                stopped_at = " ".join(map(str, matchings[checked - 1].edge_ids))
                assert f"matching: {stopped_at}\n" in out
            assert all_row.detail["matchings"] == len(matchings)
            if all_row.verdict == "yes":
                assert row.verdict == "yes" and checked == 1
        assert negatives == 3  # petersen, perm5-shift2 and counterexample_family(1)


class TestCliExitCodes:
    def test_gen_emits_petersen(self, capsys):
        assert main(["gen", "petersen"]) == 0
        assert capsys.readouterr().out.strip() == "IheA@GUAo"

    def test_flow_positive(self, capsys):
        assert main(["flow", "search", "k33"]) == 0
        out = capsys.readouterr().out
        assert "matching:" in out and "flow:" in out

    def test_flow_negative_by_exhaustion(self, capsys):
        assert main(["flow", "search", "petersen"]) == 1
        assert "matchings checked: 6" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_graph_literal(self, capsys):
        assert main(["flow", "search", "!!!"]) == 2

    def test_long_literals_and_unreadable_paths(self, tmp_path, capsys):
        literal = encode_graph6(permutation_graph(tuple(range(28))))
        assert len(literal) >= 256
        assert main(["flow", "search", literal, "--construct", "even"]) == 0
        capsys.readouterr()
        for arg in ("!" * 300, str(tmp_path)):
            assert main(["flow", "search", arg]) == 2
            assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("sel", ["-1", "6", "99"])
    def test_matching_index_out_of_range_is_input_error(self, sel, capsys):
        # k33 has a flow and six perfect matchings, indices 0..5
        assert main(["flow", "search", "k33", "--matching", sel]) == 2
        assert "matchings checked" not in capsys.readouterr().out

    def test_matching_edge_out_of_range_is_input_error(self, capsys):
        assert main(["flow", "search", "k33", "--matching", "edge=99"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_matching_edge_on_a_loop_is_input_error(self, capsys):
        g = build_graph(2, [(0, 0), (0, 1), (1, 1)])
        assert main(["flow", "search", encode_sparse6(g), "--matching", "edge=0"]) == 2
        assert "matchings checked" not in capsys.readouterr().out

    def test_matching_index_stops_the_stream_at_the_chosen_matching(self, monkeypatch, capsys):
        import ncflow.matchings as matchings

        real = matchings.enumerate_perfect_matchings

        def stream_that_must_stop(g, deadline=None):
            yield from itertools.islice(real(g, deadline=deadline), 3)
            raise AssertionError("matchings after the chosen one were enumerated")

        # the stream `select_matchings` reads for --matching INDEX
        monkeypatch.setattr(matchings, "enumerate_perfect_matchings", stream_that_must_stop)
        # no matching of the Petersen graph has a flow, so only the stream can stop the search
        assert main(["flow", "search", "petersen", "--matching", "2"]) == 1
        assert "matchings checked: 1" in capsys.readouterr().out

    def test_clawfree_honours_the_deadline(self, monkeypatch, capsys):
        monkeypatch.setenv("NZFLOW_TIMEOUT_SECS", "0.5")
        [literal] = lines_for(counterexample_family(2))
        start = time.monotonic()
        assert main(["flow", "search", literal, "--construct", "clawfree"]) == 3
        assert time.monotonic() - start < 3

    @pytest.mark.parametrize(
        "args", [["--matching", "all"], ["--matching", "edge=0"], ["--matching", "290000"], ["--construct", "clawfree"]]
    )
    def test_matching_streams_honour_the_deadline(self, monkeypatch, args):
        # with searches that return at once, only the matching streams of
        # counterexample_family(3) (294,912 matchings) can run long
        import ncflow.cli as cli
        import ncflow.flows as flows

        monkeypatch.setattr(flows, "find_nonconflicting_flow", lambda *a, **kw: None)
        monkeypatch.setattr(cli, "min_conflict_flow", lambda *a, **kw: None)
        monkeypatch.setenv("NZFLOW_TIMEOUT_SECS", "0.5")
        [literal] = lines_for(counterexample_family(3))
        start = time.monotonic()
        assert main(["flow", "search", literal, *args]) == 3
        assert time.monotonic() - start < 3

    @pytest.mark.parametrize("route", ["twocycle", "even"])
    def test_route_honours_the_deadline(self, monkeypatch, route):
        # counterexample_family(3) has 294,912 perfect matchings
        monkeypatch.setenv("NZFLOW_TIMEOUT_SECS", "0.5")
        [literal] = lines_for(counterexample_family(3))
        start = time.monotonic()
        assert main(["flow", "search", literal, "--construct", route]) == 3
        assert time.monotonic() - start < 3

    @pytest.mark.parametrize("route", ["even", "twocycle"])
    def test_route_honours_the_deadline_without_a_perfect_matching(self, monkeypatch, route):
        # the route's matching stream yields nothing here, so only the
        # enumeration itself can see the deadline; at 148 vertices it
        # refutes more partial matchings than it records
        monkeypatch.setenv("NZFLOW_TIMEOUT_SECS", "0.5")
        [literal] = lines_for(cubic_without_a_perfect_matching(24))
        start = time.monotonic()
        assert main(["flow", "search", literal, "--construct", route]) == 3
        assert time.monotonic() - start < 3

    @pytest.mark.parametrize("args", [[], ["--construct", "twocycle"], ["--construct", "even"], ["--construct", "clawfree"]])
    def test_no_perfect_matching_is_a_quick_negative(self, args, capsys):
        # the enumeration remembers the partial matchings it refuted, so
        # it proves at 100 vertices that there is no perfect matching
        [literal] = lines_for(cubic_without_a_perfect_matching(16))
        start = time.monotonic()
        assert main(["flow", "search", literal, *args]) == 1
        assert time.monotonic() - start < 1
        out, err = capsys.readouterr()
        assert out == "no non-conflicting flow; matchings checked: 0\n"
        assert err.splitlines()[-1:] == ["the graph has no perfect matching"]  # after a route's line, if any

    def test_a_quotient_past_64_edges_is_searched(self, monkeypatch, capsys, compiled):
        # the first matching of counterexample_family(4) has 68 F-edges;
        # its quotient is refuted on both backends
        from ncflow import _kernels_py, flows

        [literal] = lines_for(counterexample_family(4))
        for impl in (_kernels_py, compiled):
            monkeypatch.setattr(flows, "flow_search", impl.flow_search)
            assert main(["flow", "search", literal, "--matching", "0"]) == 1
            assert capsys.readouterr().out == "no non-conflicting flow; matchings checked: 1\n"

    def test_even_route_without_a_flow_searches_every_matching(self, capsys):
        # no perfect matching of this graph leaves only even cycles, yet one has a flow
        [literal] = lines_for(triangle_replace_all(petersen()))
        assert main(["flow", "search", literal, "--construct", "even"]) == 0
        out, err = capsys.readouterr()
        assert "route even found no flow; searching every matching" in err
        assert main(["flow", "search", literal]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize(
        "route, stub",
        [("twocycle", "two_cycle_factor_flow"), ("clawfree", "min_conflict_flow")],
    )
    def test_failed_route_exits_as_the_exhaustive_search(self, monkeypatch, capsys, route, stub):
        import ncflow.cli as cli

        monkeypatch.setattr(cli, stub, lambda *args, **kwargs: None)
        assert main(["flow", "search", "k33", "--construct", route]) == 0
        out, err = capsys.readouterr()
        assert f"route {route} found no flow; searching every matching" in err
        assert "flow:" in out and "branch:" not in out
        assert main(["flow", "search", "petersen", "--construct", route]) == 1
        assert "matchings checked: 6" in capsys.readouterr().out

    def test_chi_n(self, capsys):
        assert main(["chi-n", "fig3"]) == 0
        assert "chi_n = 7" in capsys.readouterr().out

    def test_chi_n_bound_exceeded(self, capsys):
        assert main(["chi-n", "petersen", "--max", "4"]) == 1

    def test_timeout_exit_code(self, monkeypatch):
        monkeypatch.setenv("NZFLOW_TIMEOUT_SECS", "0.000001")
        assert main(["chi-n", "petersen"]) == 3

    def test_chi_n_deadline_fires_mid_search(self, monkeypatch):
        # nothing to reduce (no triangle, no 2-edge cut) and the k = 5
        # search runs for over 30 s, so only the kernel's periodic deadline
        # check can stop it in time
        monkeypatch.setenv("NZFLOW_TIMEOUT_SECS", "0.5")
        [literal] = lines_for(petersen_of_petersens())
        start = time.monotonic()
        assert main(["chi-n", literal]) == 3
        assert time.monotonic() - start < 3

    def test_chi_n_deadline_checked_before_reducing(self, monkeypatch):
        monkeypatch.setenv("NZFLOW_TIMEOUT_SECS", "0.000001")
        [literal] = lines_for(triangle_replace_all(petersen()))
        assert main(["chi-n", literal]) == 3

    def test_chi_n_splits_the_counterexample_family(self, capsys):
        # the 2-edge cuts split it into Petersen graphs and a K4; a plain
        # search took over 11M nodes at k = 5
        [literal] = lines_for(counterexample_family(2))
        start = time.monotonic()
        assert main(["chi-n", literal]) == 0
        assert time.monotonic() - start < 1
        assert "chi_n = 5" in capsys.readouterr().out

    def test_constructive_twocycle(self, capsys):
        assert main(["flow", "search", "k33", "--construct", "twocycle"]) == 0
        assert "branch:" in capsys.readouterr().out

    def test_constructive_clawfree(self, capsys):
        assert main(["gen", "ring", "--k", "2"]) == 0
        line = capsys.readouterr().out.strip()
        assert main(["flow", "search", line, "--construct", "clawfree"]) == 0

    @pytest.mark.parametrize(
        "k, matching, nodes_before",
        [
            (2, [0, 4, 6, 11], 12),
            (3, [0, 4, 6, 10, 12, 17], 18),
            (4, [0, 4, 6, 10, 12, 16, 18, 23], 24),
        ],
    )
    def test_clawfree_rings_keep_their_flow(self, k, matching, nodes_before, tmp_path, capsys):
        # matching, flow and the node count recorded before the kernel broke
        # the alpha <-> beta symmetry.  Every F-edge of these matchings is a
        # chord of F-bar, settled at alpha+beta before the search, which
        # then expands no node (11, 17 and 23 while the kernel still
        # searched the chords).
        from ncflow.certificates import Certificate, verify_certificate
        from ncflow.formats import parse_any
        from ncflow.generators import ring_of_diamonds

        [line] = lines_for(ring_of_diamonds(k))
        g = parse_any(line)  # edge ids as the CLI reads them
        cert_path = tmp_path / "cert.json"
        assert main(["flow", "search", line, "--construct", "clawfree", "--certificate", str(cert_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == [
            "matching: " + " ".join(map(str, matching)),
            "flow: " + " ".join(f"{e}:11" for e in matching),
        ]
        cert = Certificate.from_json(cert_path.read_text())
        assert cert.payload == {"matching": matching, "flow": ["11"] * len(matching)}
        assert set(cert.stats) == {"nodes"}
        assert cert.stats["nodes"] == 0 < nodes_before
        assert verify_certificate(cert, g)

    def test_thomassen_k6(self, capsys):
        assert main(["thomassen", "k6"]) == 0
        out = capsys.readouterr().out
        assert "matching-1:" in out and "matching-2:" in out

    def test_hcolor(self, capsys):
        assert main(["hcolor", "k33", "k4"]) == 0
        assert main(["hcolor", "fig3", "petersen"]) == 1  # needs 7 colors, so no map

    def test_version(self, capsys):
        assert main(["--version"]) == 0


class TestCliResourceLimits:
    """Exit codes of long and deep searches: the timeout is the one
    resource guard (exit 3), and a search deeper than the interpreter's
    recursion limit answers on the pure-Python backend too."""

    @pytest.fixture
    def pure_python_coloring(self, monkeypatch):
        from ncflow import _kernels_py, coloring

        monkeypatch.setattr(coloring, "normal_coloring_search", _kernels_py.normal_coloring_search)

    def test_hcolor_deeper_than_python_allows(self, capsys):
        [literal] = lines_for(prism(700))
        assert main(["hcolor", literal, "k4"]) == 0
        assert capsys.readouterr().out.count("->") == prism(700).m

    def test_chi_n_deeper_than_python_allows(self, pure_python_coloring, capsys):
        [literal] = lines_for(hub_graph(600))
        assert main(["chi-n", literal]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("chi_n = 3\n") and err == ""

    def test_batch_keeps_a_row_per_graph(self, pure_python_coloring, tmp_path, capsys):
        corpus, report = tmp_path / "corpus.txt", tmp_path / "report.json"
        corpus.write_text("\n".join(lines_for(hub_graph(600), k4())) + "\n")
        assert main(["batch", str(corpus), "--mode", "chi-n", "--report", str(report)]) == 0
        rows = json.loads(report.read_text())["rows"]
        assert [(row["index"], row["error"], row["verdict"]) for row in rows] == [(0, None, "3"), (1, None, "3")]

    @pytest.mark.parametrize(
        "lines, timeout, code",
        [
            ([k4(), k33(), petersen()], "300", 0),  # a "no" row is a verdict, not an error
            ([k4(), "not a graph", k33()], "300", 2),
            (["not a graph", k33()], "0", 3),  # the timeout outranks the input error
        ],
    )
    def test_batch_exit_codes(self, lines, timeout, code, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("NZFLOW_TIMEOUT_SECS", timeout)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(x if isinstance(x, str) else lines_for(x)[0] for x in lines) + "\n")
        assert main(["batch", str(corpus), "--mode", "nonconflicting"]) == code
        assert "Traceback" not in capsys.readouterr().err

    def test_batch_exit_code_follows_the_exception_not_the_text(self, monkeypatch, tmp_path, capsys):
        # an input error that happens to read "timeout" is still an input error
        import ncflow.batch
        from ncflow.errors import InputError

        def parse_fails(line):
            raise InputError("timeout")

        monkeypatch.setattr(ncflow.batch, "parse_any", parse_fails)
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(lines_for(k4())[0] + "\n")
        assert main(["batch", str(corpus), "--mode", "nonconflicting"]) == 2
        assert json.loads(capsys.readouterr().out)["rows"][0]["error"] == "timeout"


class TestCliFiles:
    def test_certificate_written_and_verifies(self, tmp_path, capsys):
        from ncflow.certificates import Certificate, verify_certificate

        cert_path = tmp_path / "cert.json"
        assert main(["flow", "search", "k33", "--certificate", str(cert_path)]) == 0
        cert = Certificate.from_json(cert_path.read_text())
        assert verify_certificate(cert, k33())

    def test_normal_verify_round_trip(self, tmp_path, capsys):
        from ncflow.coloring import admits_normal_k_coloring

        g = k33()
        c = admits_normal_k_coloring(g, 3)
        col_path = tmp_path / "coloring.json"
        col_path.write_text(json.dumps({"colors": list(c.colors), "k": 3}))
        assert main(["normal", "verify", "k33", str(col_path)]) == 0
        assert "verified" in capsys.readouterr().out
        # break it
        bad = list(c.colors)
        bad[0] = bad[1]
        col_path.write_text(json.dumps({"colors": bad, "k": 3}))
        assert main(["normal", "verify", "k33", str(col_path)]) == 2  # improper

    @pytest.mark.parametrize("text", ["{}", "[1, 2]", '{"colors": [1, "x"]}', '{"colors": [1], "k": "3"}'])
    def test_normal_verify_refuses_malformed_colorings(self, text, tmp_path, capsys):
        col_path = tmp_path / "coloring.json"
        col_path.write_text(text)
        assert main(["normal", "verify", "k33", str(col_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_normal_verify_checks_properness_once(self, monkeypatch, tmp_path, capsys):
        # the edge classes are read in one pass after `is_normal`, so the
        # coloring's properness is checked once, not once per edge
        from ncflow import coloring

        literal = encode_graph6(prism(50))
        g = parse_any(literal)  # the edge ids the CLI reads
        c = coloring.admits_normal_k_coloring(g, 3)
        col_path = tmp_path / "coloring.json"
        col_path.write_text(json.dumps({"colors": list(c.colors)}))
        calls = []
        real = coloring.is_proper
        monkeypatch.setattr(coloring, "is_proper", lambda g, c: calls.append(c) or real(g, c))
        assert main(["normal", "verify", literal, str(col_path)]) == 0
        assert capsys.readouterr().out == "normal 3-edge-coloring verified; edge classes: ['poor']\n"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "search", "k4", "--certificate", "{dir}"],
            ["batch", "{dir}", "--mode", "chi-n"],
            ["batch", "{corpus}", "--mode", "chi-n", "--report", "{dir}"],
        ],
        ids=["certificate", "batch-corpus", "batch-report"],
    )
    def test_an_unopenable_path_is_an_input_error(self, argv, tmp_path, capsys):
        # exit 1 means a definite negative; a directory given for a file is
        # bad input, whether it is read or written and whatever was found
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(encode_graph6(k4()) + "\n")
        assert main([a.format(dir=tmp_path, corpus=corpus) for a in argv]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_batch_report_is_byte_identical_across_jobs(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(lines_for(k4(), k33(), petersen(), k23())) + "\n")
        r1, r8 = tmp_path / "r1.json", tmp_path / "r8.json"
        assert main(["batch", str(corpus), "--mode", "nonconflicting", "--report", str(r1)]) == 0
        assert (
            main(
                [
                    "batch",
                    str(corpus),
                    "--mode",
                    "nonconflicting",
                    "--jobs",
                    "8",
                    "--report",
                    str(r8),
                ]
            )
            == 0
        )
        assert r1.read_bytes() == r8.read_bytes()
        doc = json.loads(r1.read_text())
        assert doc["summary"]["total"] == 4

    def test_stdin_piping(self):
        gen = subprocess.run(
            [sys.executable, "-m", "ncflow.cli", "gen", "counterexample", "--l", "1"],
            capture_output=True,
            text=True,
        )
        assert gen.returncode == 0
        search = subprocess.run(
            [sys.executable, "-m", "ncflow.cli", "flow", "search", "-"],
            input=gen.stdout,
            capture_output=True,
            text=True,
        )
        assert search.returncode == 1
        assert "matchings checked: 96" in search.stdout
