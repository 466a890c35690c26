import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from energygames import ALICE, BOB, INF, GameGraph
from energygames.cli import build_parser, main
from energygames.fileio import (
    GameFileError,
    emit_energies,
    emit_game,
    parse_energies,
    parse_game,
)

from game_helpers import small_random


@st.composite
def _game_graphs(draw):
    """Graphs with n >= 0 whose edges are drawn from a small pool, so
    identical parallel edges are common; the empty graph has no edges."""
    n = draw(st.integers(min_value=0, max_value=6))
    owners = draw(st.lists(st.sampled_from((ALICE, BOB)), min_size=n, max_size=n))
    if n == 0:
        return GameGraph((), ())
    node = st.integers(min_value=0, max_value=n - 1)
    edge = st.tuples(node, node, st.integers(min_value=-(10**9), max_value=10**9))
    pool = draw(st.lists(edge, min_size=1, max_size=4))
    edges = draw(st.lists(st.sampled_from(pool), max_size=12))
    return GameGraph(tuple(owners), tuple(edges))


FIG1_TEXT = """\
# three-node reference game
p eg 3 6
v 0 A
v 1 B
v 2 B
e 0 1 7
e 0 2 2
e 1 2 4
e 1 0 -2
e 2 1 3
e 2 0 -8
"""


class TestGameFiles:
    def test_parse_reference(self, fig1):
        assert parse_game(FIG1_TEXT) == fig1

    def test_emit_parse_roundtrip(self):
        for seed in range(25):
            graph = small_random(seed)
            text = emit_game(graph)
            assert parse_game(text) == graph
            assert emit_game(parse_game(text)) == text

    def test_canonical_file_roundtrip_is_byte_identical(self, fig1):
        canonical = emit_game(fig1)
        assert emit_game(parse_game(canonical)) == canonical

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ("p eg 3 6\nv 0 A\nv 1 B\nv 2 B\ne 0 1 7\n", "promised 6 edges"),
            ("v 0 A\np eg 1 0\n", "expected 'p eg"),
            ("p eg 2 1\nv 0 A\nv 0 B\nv 1 B\ne 0 1 1\n", "duplicate declaration"),
            ("p eg 2 1\nv 0 A\nv 1 C\ne 0 1 1\n", "owner must be A or B"),
            ("p eg 2 1\nv 0 A\nv 1 B\ne 0 5 1\n", "out of range"),
            ("p eg 2 1\nv 0 A\nv 1 B\nq 0 1 1\n", "unknown record"),
            ("p eg 2 1\nv 0 A\ne 0 1 1\n", "missing node declarations"),
            ("p eg 1000000000000000000 0\n", "promised 1000000000000000000 nodes"),
            ("p eg 1 1000000000000000000\nv 0 A\n", "promised 1000000000000000000 edges, found 1 records"),
        ],
    )
    def test_malformed_inputs_rejected(self, mutation, fragment):
        with pytest.raises(GameFileError) as err:
            parse_game(mutation)
        assert fragment in str(err.value)

    def test_parallel_edges_with_distinct_weights_allowed(self):
        text = "p eg 2 3\nv 0 A\nv 1 B\ne 0 1 1\ne 0 1 2\ne 1 0 0\n"
        graph = parse_game(text)
        assert graph.m == 3

    def test_repeated_edge_lines_roundtrip(self):
        text = "p eg 2 3\nv 0 A\nv 1 B\ne 0 1 1\ne 0 1 1\ne 1 0 0\n"
        graph = parse_game(text)
        assert graph.edges == ((0, 1, 1), (0, 1, 1), (1, 0, 0))
        assert emit_game(graph) == text

    @given(_game_graphs())
    @example(GameGraph((), ()))
    def test_emit_parse_roundtrip_property(self, graph):
        assert parse_game(emit_game(graph)) == graph


class TestEnergyFiles:
    def test_roundtrip(self):
        energies = (0, 4, INF, 17)
        assert parse_energies(emit_energies(energies), 4) == energies

    def test_inf_literal(self):
        assert "inf" in emit_energies((INF,))

    def test_unsorted_rejected(self):
        with pytest.raises(GameFileError):
            parse_energies("v 1 0\nv 0 0\n", 2)

    def test_negative_rejected(self):
        with pytest.raises(GameFileError):
            parse_energies("v 0 -3\n", 1)


class TestCli:
    def _write_fig1(self, tmp_path):
        path = tmp_path / "fig1.eg"
        path.write_text(FIG1_TEXT)
        return str(path)

    def test_solve_writes_energy_file(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        out = str(tmp_path / "fig1.energy")
        assert main(["solve", game, "--out", out]) == 0
        with open(out) as handle:
            assert parse_energies(handle.read(), 3) == (0, 4, 8)

    def test_solve_assume_penalty(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        assert main(["solve", game, "--assume-penalty", "3"]) == 0
        captured = capsys.readouterr()
        assert parse_energies(captured.out, 3) == (0, 4, 8)
        assert "guess c=9 D=3: accepted" in captured.err

    def test_wrong_assume_penalty_keeps_the_answer(self, tmp_path, capsys):
        path = tmp_path / "trap.eg"
        path.write_text("p eg 3 4\nv 0 A\nv 1 B\nv 2 B\ne 0 1 -9\ne 0 2 0\ne 1 0 10\ne 2 0 -1\n")
        assert main(["solve", str(path), "--assume-penalty", "2"]) == 0
        captured = capsys.readouterr()
        assert parse_energies(captured.out, 3) == (9, 0, 10)
        # a level below the first makes a node infinite, which refutes D = 2
        assert "guess c=6 D=2: rejected at level 2\n" in captured.err
        # the last guess, D = 1 < 2, is full-range value iteration
        lines = captured.err.splitlines()
        assert lines[-2] == "guess c=3 D=1: accepted"
        assert lines[-1].startswith("fallback=yes ")

    def test_assume_penalty_takes_the_penalty_commands_inf(self, tmp_path, capsys):
        # Bob forces no negative cycle on this non-negative cycle, so its
        # penalty is inf, and solve takes that back as a hint that caps nothing
        game = tmp_path / "cycle.eg"
        game.write_text("p eg 3 3\nv 0 A\nv 1 B\nv 2 B\ne 0 1 -2\ne 1 2 1\ne 2 0 3\n")
        assert main(["penalty", str(game)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "graph inf"
        runs = []
        for hint in ([], ["--assume-penalty", "inf"]):
            out = tmp_path / f"cycle{len(runs)}.energy"
            assert main(["solve", str(game), "--out", str(out)] + hint) == 0
            guesses = [line for line in capsys.readouterr().err.splitlines() if line.startswith("guess ")]
            runs.append((out.read_text(), guesses))
        assert runs[0] == runs[1]
        assert parse_energies(runs[0][0], 3) == (2, 0, 0)

    @pytest.mark.parametrize("command", [["solve"], ["approx", "--error", "2"]], ids=["solve", "approx"])
    def test_bound_option_removed(self, tmp_path, capsys, command):
        # e* = (5, 0) exceeds 2, so a bound of 2 would make both nodes infinite
        path = tmp_path / "pm5.eg"
        path.write_text("p eg 2 2\nv 0 A\nv 1 A\ne 0 1 -5\ne 1 0 5\n")
        argv = command[:1] + [str(path)] + command[1:]
        with pytest.raises(SystemExit) as err:
            main(argv + ["--bound", "2"])
        assert err.value.code == 1
        assert "unrecognized arguments: --bound 2" in capsys.readouterr().err
        assert main(argv) == 0
        assert parse_energies(capsys.readouterr().out, 2) == (5, 0)

    def test_solve_reports_the_losing_region(self, tmp_path, capsys):
        path = tmp_path / "lost.eg"
        path.write_text("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 -1\ne 1 0 -1\n")
        assert main(["solve", str(path)]) == 0
        captured = capsys.readouterr()
        assert parse_energies(captured.out, 2) == (INF, INF)
        assert "losing region: size=2 certified=yes rounds=1 updates=3\n" in captured.err
        assert "guess" not in captured.err and "fallback=no" in captured.err

    def test_decide(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        assert main(["decide", game, "--node", "0"]) == 0
        assert capsys.readouterr().out.strip() == "ALICE"

    def test_decide_bob_wins(self, tmp_path, capsys):
        path = tmp_path / "lost.eg"
        path.write_text("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 -1\ne 1 0 -1\n")
        assert main(["decide", str(path), "--node", "0"]) == 0
        assert capsys.readouterr().out.strip() == "BOB"

    def test_verify_accepts_and_rejects(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        good = tmp_path / "good.energy"
        good.write_text("v 0 0\nv 1 4\nv 2 8\n")
        bad = tmp_path / "bad.energy"
        bad.write_text("v 0 0\nv 1 0\nv 2 0\n")
        assert main(["verify", game, str(good)]) == 0
        assert main(["verify", game, str(bad)]) == 3

    @pytest.mark.parametrize(
        "game, energies",
        [
            # inflated fixed points: each passes the local equations
            ("p eg 2 2\nv 0 A\nv 1 A\ne 0 1 0\ne 1 0 0\n", "v 0 5\nv 1 5\n"),
            ("p eg 2 2\nv 0 A\nv 1 A\ne 0 1 0\ne 1 0 0\n", "v 0 inf\nv 1 inf\n"),
            ("p eg 2 2\nv 0 A\nv 1 A\ne 0 1 -5\ne 1 0 5\n", "v 0 inf\nv 1 inf\n"),
        ],
    )
    def test_verify_rejects_inflated_fixed_points(self, tmp_path, capsys, game, energies):
        game_path = tmp_path / "g.eg"
        game_path.write_text(game)
        energy_path = tmp_path / "g.energy"
        energy_path.write_text(energies)
        assert main(["verify", str(game_path), str(energy_path)]) == 3
        assert "energies are not the minimal energies" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["solve", "{game}"], 0),
            (["solve", "{game}", "--assume-penalty", "2"], 0),
            (["approx", "{game}", "--error", "5"], 1),
            (["decide", "{game}", "--node", "0"], 1),
            (["verify", "{game}", "{energies}"], 0),
            (["oracle", "{game}"], 0),
            (["penalty", "{game}"], 0),
            (["reduce", "winall", "{game}", "--node", "0"], 1),
            (["reduce", "bipartite", "{game}"], 0),
            (["reduce", "complete", "{game}"], 0),
        ],
        ids=lambda x: " ".join(x) if isinstance(x, list) else f"exit{x}",
    )
    def test_empty_game(self, tmp_path, capsys, argv, code):
        game = tmp_path / "empty.eg"
        game.write_text("p eg 0 0\n")
        energies = tmp_path / "empty.energy"
        energies.write_text("")
        argv = [a.format(game=game, energies=energies) for a in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if argv[0] == "penalty":
            assert captured.out == "graph inf\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "{game}", "--node", "7"],
            ["decide", "{game}", "--node", "-1"],
            ["reduce", "winall", "{game}", "--node", "7"],
        ],
        ids=" ".join,
    )
    def test_node_out_of_range_is_a_usage_error(self, tmp_path, capsys, argv):
        game = tmp_path / "two.eg"
        game.write_text("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 1\ne 1 0 -1\n")
        argv = [a.format(game=game) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"node {argv[-1]} out of range 0..1" in err
        assert "line" not in err

    def test_oracle_and_penalty(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        assert main(["oracle", game]) == 0
        assert parse_energies(capsys.readouterr().out, 3) == (0, 4, 8)
        path = tmp_path / "fig3.eg"
        path.write_text("p eg 3 4\nv 0 A\nv 1 B\nv 2 B\ne 0 1 7\ne 0 2 2\ne 1 2 4\ne 2 0 -8\n")
        assert main(["penalty", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["v 0 3", "v 1 3", "v 2 3", "graph 3"]

    def test_oracle_budget_exit_code(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        assert main(["oracle", game, "--max-pairs", "2"]) == 4

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.eg"
        path.write_text("p eg 2 1\nv 0 A\nv 1 B\ne 0 9 1\n")
        assert main(["solve", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("hint", ["nan", "1/0"])
    def test_bad_penalty_hint_is_a_usage_error(self, tmp_path, capsys, hint):
        game = self._write_fig1(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["solve", game, "--assume-penalty", hint])
        assert err.value.code == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("energygames solve: error: argument --assume-penalty: ")
        assert not any("Traceback" in line for line in lines)

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve"])  # missing game path
        assert err.value.code == 1

    def test_repeated_calls_share_one_parser(self, tmp_path, capsys):
        # one process, one parser: a usage error between calls must not change
        # what a later call parses, prints or returns
        game = self._write_fig1(tmp_path)
        calls = [
            ["solve", game],
            ["solve", game, "--bound", "2"],
            ["approx", game, "--error", "3"],
            ["solve", game],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, re.sub(r"wall_ms=\S+", "", captured.err)

        first = []
        for argv in calls:
            build_parser.cache_clear()
            first.append(run(argv))
        build_parser.cache_clear()
        assert [run(argv) for argv in calls] == first
        assert build_parser.cache_info().misses == 1
        assert [code for code, _, _ in first] == [0, 1, 0, 0]
        assert first[0] == first[3]

    def test_gen_roundtrip_byte_identical(self, tmp_path, capsys):
        out = str(tmp_path / "gen.eg")
        argv = ["gen", "--family", "random", "--seed", "5", "--nodes", "5",
                "--edges", "10", "--weight", "6", "--out", out]
        assert main(argv) == 0
        with open(out) as handle:
            text = handle.read()
        assert emit_game(parse_game(text)) == text

    def test_gen_window_reports_centers(self, tmp_path, capsys):
        out = str(tmp_path / "win.eg")
        argv = ["gen", "--family", "window", "--seed", "5", "--nodes", "4",
                "--edges", "8", "--d", "2", "--delta", "1",
                "--center-lo", "-4", "--center-hi", "4", "--out", out]
        assert main(argv) == 0
        assert "centers:" in capsys.readouterr().err

    def test_gen_infeasible_exit_code(self, tmp_path, capsys):
        argv = ["gen", "--family", "random", "--seed", "1", "--nodes", "1", "--edges", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "energygames: need at least two nodes (self-loops are not allowed)\n"

    def test_reduce_pipeline_via_files(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        we = str(tmp_path / "we.eg")
        assert main(["reduce", "winall", game, "--node", "0", "--out", we]) == 0
        with open(we) as handle:
            reduced = parse_game(handle.read())
        assert reduced.n == 15 and reduced.m == 30
        with open(we + ".trace") as handle:
            trace = handle.read().splitlines()
        assert len(trace) == 15
        assert trace[0] == "0 <- node 0"
        bip = str(tmp_path / "bip.eg")
        assert main(["reduce", "bipartite", we, "--out", bip]) == 0
        comp = str(tmp_path / "comp.eg")
        assert main(["reduce", "complete", bip, "--out", comp]) == 0
        from energygames import is_complete_bipartite

        with open(comp) as handle:
            completed = parse_game(handle.read())
        assert is_complete_bipartite(completed)

    def test_reduce_complete_rejects_non_bipartite(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        assert main(["reduce", "complete", game, "--out", str(tmp_path / "x.eg")]) == 1
        err = capsys.readouterr().err
        assert err == "energygames: the completion step requires a bipartite game\n"
        assert not (tmp_path / "x.eg").exists()

    def test_approx_band(self, tmp_path, capsys):
        path = tmp_path / "fig3.eg"
        path.write_text("p eg 3 4\nv 0 A\nv 1 B\nv 2 B\ne 0 1 7\ne 0 2 2\ne 1 2 4\ne 2 0 -8\n")
        assert main(["approx", str(path), "--error", "9"]) == 0
        captured = capsys.readouterr()
        assert parse_energies(captured.out, 3) == (0, 0, 6)
        assert "B=3" in captured.err

    def test_approx_error_below_nodes_is_usage_error(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        assert main(["approx", game, "--error", "1"]) == 1

    def test_bench_subcommand_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "wsweep", "--out", str(tmp_path / "sweep.csv")])
        assert err.value.code == 1
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
