import dataclasses
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from energygames import ALICE, BOB, INF, GameGraph, full_list, solve_with_list
from energygames.cli import build_parser, main
from energygames.fileio import (
    GameFileError,
    emit_energies,
    emit_game,
    parse_energies,
    parse_game,
)
from energygames.generators import GenSpec, random_game

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


# Characters str.splitlines() breaks at besides "\n" and "\r"; no emitter
# writes them, so they join two records into one malformed line.
LINE_BREAKS = ("\f", "\v", "\x1c", "\x85", "\u2028")
LINE_BREAK_IDS = ("form-feed", "vertical-tab", "file-separator", "next-line", "line-separator")


def _joined_line_error(separator):
    return "expected '" if separator.isascii() else "non-ASCII"


# Inputs whose offending line is long.  With lone '\r' line ends a whole
# 2,000-node game is one line.  int() rejects 100,000 digits from Python 3.11
# on; the trailing 'x' makes the edge line malformed on every version.
LONG_LINES = {
    "lone-cr": (
        emit_game(GameGraph((ALICE,) * 2000, tuple((v, (v + 1) % 2000, 1) for v in range(2000))))
        .replace("\n", "\r"),
        1,
        "expected 'p eg <n> <m>', got 'p eg 2000 2000\\rv 0 A",
    ),
    "long-edge": ("p eg 2 1\nv 0 A\nv 1 B\ne 0 1 " + "9" * 100_000 + "x\n", 4, "non-integer field in 'e 0 1 999"),
}


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
            ("# nothing but a comment\n\n", "empty file"),
            ("p eg two 1\n", "non-integer counts in header"),
            ("p eg -1 0\n", "invalid counts in header"),
            ("p eg 2 1\nv 0\nv 1 B\ne 0 1 1\n", "expected 'v <id> <A|B>'"),
            ("p eg 2 1\nv x A\nv 1 B\ne 0 1 1\n", "non-integer node id"),
            ("p eg 2 1\nv 2 A\nv 1 B\ne 0 1 1\n", "node id 2 out of range 0..1"),
            ("p eg 2 1\nv 0 A\nv 1 B\ne 0 1\n", "expected 'e <src> <dst> <w>'"),
            ("p eg 2 1\nv 0 A\nv 1 B\ne 0 1 x\n", "non-integer field"),
            ("p eg 2 1\nv 0 A\nv 1 B\ne 5 1 1\n", "edge source 5 out of range 0..1"),
            ("p eg 2 1\nv 0 A\nv 1 B\ne 5 7 1\n", "edge source 5 out of range 0..1"),
            ("p eg 2 1\nv 0 A\nv 1 B\n", "header promised 1 edges, found 0"),
            ("p eg 0 1\ne 0 0 1\n", "edge source 0 out of range: the header declares no nodes"),
            ("p eg 0 0\nv 0 A\n", "node id 0 out of range: the header declares no nodes"),
        ],
    )
    def test_malformed_inputs_rejected(self, mutation, fragment):
        with pytest.raises(GameFileError) as err:
            parse_game(mutation)
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 1_000\ne 1 0 1\n", 4),
            ("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 +7\ne 1 0 1\n", 4),
            ("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 \u0663\ne 1 0 1\n", 4),  # Arabic-Indic three
            ("p eg 2 2\nv \uff10 A\nv 1 B\ne 0 1 1\ne 1 0 1\n", 2),  # full-width zero
            ("p eg +2 2\nv 0 A\nv 1 B\ne 0 1 1\ne 1 0 1\n", 1),
            ("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 1\u3000\ne 1 0 1\n", 4),  # ideographic space
        ],
        ids=["underscore", "plus", "arabic-indic", "full-width", "header", "unicode-space"],
    )
    def test_integers_the_emitter_never_writes_rejected(self, text, line_no):
        # int() and str.strip() accept each of these; the emitter writes none
        with pytest.raises(GameFileError) as err:
            parse_game(text)
        assert err.value.line_no == line_no
        assert "non-ASCII" in str(err.value)

    @pytest.mark.parametrize("separator", LINE_BREAKS, ids=LINE_BREAK_IDS)
    def test_lines_end_at_newline_only(self, separator):
        with pytest.raises(GameFileError) as err:
            parse_game(f"p eg 2 2\nv 0 A\nv 1 B\ne 0 1 5{separator}e 1 0 3\n")
        assert err.value.line_no == 4
        assert _joined_line_error(separator) in str(err.value)

    @pytest.mark.parametrize("separator", LINE_BREAKS[:3], ids=LINE_BREAK_IDS[:3])
    def test_line_numbers_count_newlines_only(self, separator):
        with pytest.raises(GameFileError) as err:
            parse_game(f"p eg 2 1\nv 0 A{separator}\nv 1 B\ne 0 1 x\n")
        assert err.value.line_no == 4

    def test_crlf_line_endings_parse(self, fig1):
        assert parse_game(FIG1_TEXT.replace("\n", "\r\n")) == fig1

    @pytest.mark.parametrize("name", LONG_LINES)
    def test_long_lines_are_quoted_in_part(self, name):
        text, line_no, prefix = LONG_LINES[name]
        assert len(text) > 40_000
        with pytest.raises(GameFileError) as err:
            parse_game(text)
        assert err.value.line_no == line_no
        message = str(err.value)
        assert message.startswith(f"line {line_no}: {prefix}")
        assert len(message) < 200

    @pytest.mark.parametrize(
        "text, line_no, prefix",
        [
            ("p eg " + "9" * 4000 + " 0\n", 1, "header promised 999"),
            ("p eg " + "9" * 5000 + " 1\n", 1, "header promised 999"),
            ("p eg 0 " + "9" * 5000 + "\n", 1, "header promised 999"),
            ("p eg 2 1\nv " + "9" * 4000 + " A\nv 1 B\ne 0 1 1\n", 2, "node id 999"),
            ("p eg 2 1\nv " + "9" * 5000 + " A\nv 1 B\ne 0 1 1\n", 2, "node id 999"),
            ("p eg 2 1\nv 0 A\nv 1 B\ne 0 " + "9" * 4000 + " 1\n", 4, "edge target 999"),
            ("p eg 2 1\nv 0 A\nv 1 B\ne " + "9" * 5000 + " 1 1\n", 4, "edge source 999"),
            ("p eg 2 1\nv 0 A\nv 1 B\ne 0 " + "9" * 5000 + " 1\n", 4, "edge target 999"),
            ("p eg 50000 50000\n" + "e 0 1 1\n" * 50000, 0, "missing node declarations: 50000 of 50000 nodes, from node 0"),
        ],
        ids=["header-count", "header-count-5000", "edge-count-5000", "node-id", "node-id-5000", "edge-target", "edge-source-5000", "edge-target-5000", "missing-nodes"],
    )
    def test_long_numbers_and_lists_are_bounded(self, text, line_no, prefix):
        with pytest.raises(GameFileError) as err:
            parse_game(text)
        assert err.value.line_no == line_no
        message = str(err.value)
        assert message.startswith(f"line {line_no}: {prefix}")
        assert len(message) < 200

    def test_integers_past_the_str_digit_limit_roundtrip(self):
        # Python 3.11 converts at most 4,300 digits by default; weights of
        # 5,000 digits, one with zeros on either side of a piece boundary.
        graph = GameGraph((ALICE, BOB), ((0, 1, 10**5000 + 7 * 10**2000), (1, 0, 1 - 10**5000), (0, 1, 5)))
        text = emit_game(graph)
        digits = "1" + "0" * 2999 + "7" + "0" * 2000
        assert text.splitlines()[3:] == [f"e 0 1 {digits}", "e 1 0 -" + "9" * 5000, "e 0 1 5"]
        assert parse_game(text) == graph
        assert emit_game(parse_game(text)) == text

    def test_comments_stay_free_form(self, fig1):
        assert parse_game("# caf\u00e9 +1 1_000 \u0663\n" + FIG1_TEXT) == fig1

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

    def test_values_past_the_str_digit_limit_roundtrip(self):
        energies = ((10**2500 - 1) * 10**2500, INF, 10**5000)
        text = emit_energies(energies)
        assert text.splitlines() == ["v 0 " + "9" * 2500 + "0" * 2500, "v 1 inf", "v 2 1" + "0" * 5000]
        assert parse_energies(text, 3) == energies

    @pytest.mark.parametrize(
        "value, prefix",
        [
            ("-" + "9" * 5000, "energy must be non-negative, got -999"),
            ("9" * 100_000 + "x", "energy must be a non-negative integer or 'inf', got '999"),
        ],
        ids=["negative", "malformed"],
    )
    def test_long_bad_values_are_quoted_in_part(self, value, prefix):
        with pytest.raises(GameFileError) as err:
            parse_energies(f"v 0 {value}\n", 1)
        message = str(err.value)
        assert message.startswith(f"line 1: {prefix}")
        assert len(message) < 200

    def test_inf_literal(self):
        assert "inf" in emit_energies((INF,))

    def test_unsorted_rejected(self):
        with pytest.raises(GameFileError):
            parse_energies("v 1 0\nv 0 0\n", 2)

    def test_negative_rejected(self):
        with pytest.raises(GameFileError):
            parse_energies("v 0 -3\n", 1)

    @pytest.mark.parametrize(
        "text, line_no",
        [("v 0 1_0\nv 1 \u0663\n", 1), ("# \u0663 +\nv 0 10\nv 1 \u0663\n", 3), ("v 0 +1\nv 1 0\n", 1)],
        ids=["underscore", "arabic-indic-after-comment", "plus"],
    )
    def test_integers_the_emitter_never_writes_rejected(self, text, line_no):
        with pytest.raises(GameFileError) as err:
            parse_energies(text, 2)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("separator", LINE_BREAKS, ids=LINE_BREAK_IDS)
    def test_lines_end_at_newline_only(self, separator):
        with pytest.raises(GameFileError) as err:
            parse_energies(f"v 0 1\nv 1 2\nv 2 3\nv 3 4{separator}v 4 5\n", 5)
        assert err.value.line_no == 4
        assert _joined_line_error(separator) in str(err.value)

    @pytest.mark.parametrize("separator", LINE_BREAKS[:3], ids=LINE_BREAK_IDS[:3])
    def test_line_numbers_count_newlines_only(self, separator):
        with pytest.raises(GameFileError) as err:
            parse_energies(f"v 0 1{separator}\nv 1 2\nv 2 3\nv 4 0\n", 4)
        assert err.value.line_no == 4

    def test_crlf_line_endings_parse(self):
        assert parse_energies("v 0 1\r\nv 1 inf\r\n", 2) == (1, INF)

    @pytest.mark.parametrize(
        "text, n, fragment",
        [
            ("v 0\n", 1, "expected 'v <id> <value|inf>'"),
            ("x 0 1\n", 1, "expected 'v <id> <value|inf>'"),
            ("v x 0\n", 1, "non-integer node id"),
            ("v 1 0\n", 1, "node id 1 out of range 0..0"),
            ("v 0 0\n", 0, "node id 0 out of range: the header declares no nodes"),
            ("v 0 ten\n", 1, "energy must be a non-negative integer or 'inf'"),
            ("v 0 0\n", 2, "expected 2 energy lines, found 1"),
        ],
    )
    def test_malformed_inputs_rejected(self, text, n, fragment):
        with pytest.raises(GameFileError) as err:
            parse_energies(text, n)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("text", ["v 0 1\r" * 2000, "v 0 " + "9" * 100_000 + "x\n"], ids=["lone-cr", "long-value"])
    def test_long_lines_are_quoted_in_part(self, text):
        with pytest.raises(GameFileError) as err:
            parse_energies(text, 2000)
        assert err.value.line_no == 1
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize(
        "text, prefix",
        [
            ("v " + "9" * 4000 + " 0\n", "node id 999"),
            ("v " + "9" * 5000 + " 0\n", "node id 999"),
            ("v 0 -" + "9" * 4000 + "\n", "energy must be non-negative, got -999"),
        ],
        ids=["node-id", "node-id-5000", "negative-energy"],
    )
    def test_long_numbers_are_quoted_in_part(self, text, prefix):
        with pytest.raises(GameFileError) as err:
            parse_energies(text, 2)
        message = str(err.value)
        assert message.startswith(f"line 1: {prefix}")
        assert len(message) < 200


class TestCli:
    def _write_fig1(self, tmp_path):
        path = tmp_path / "fig1.eg"
        path.write_text(FIG1_TEXT)
        return str(path)

    def test_long_line_gives_one_short_error_line(self, tmp_path, capsys):
        # The CLI reads files with universal newlines, so a lone '\r' ends a
        # line there; the long edge line is long in every reading.
        text, line_no, _ = LONG_LINES["long-edge"]
        path = tmp_path / "long.eg"
        path.write_text(text)
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"energygames: line {line_no}: non-integer field in ")
        assert err.count("\n") == 1
        assert len(err) < 200

    def test_headroom_of_huge_weights_is_a_file_error(self, tmp_path, capsys):
        # n^2*W of a 100-node cycle with 4,299-digit weights has more digits
        # than str() writes; the CLI still reports the file's fault (exit 2)
        # in one short line
        text = "p eg 100 100\n" + "".join(f"v {v} A\n" for v in range(100))
        text += "".join(f"e {v} {(v + 1) % 100} -{'9' * 4299}\n" for v in range(100))
        path = tmp_path / "heavy.eg"
        path.write_text(text)
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("energygames: line 0: weights: n^2*W has 14295 bits, over the 64-bit headroom ")
        assert err.count("\n") == 1
        assert len(err) < 200

    def test_many_problems_give_one_short_error_line(self, tmp_path, capsys):
        text = "p eg 50000 1\n" + "".join(f"v {v} A\n" for v in range(50000)) + "e 0 1 1\n"
        path = tmp_path / "sinks.eg"
        path.write_text(text)
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "energygames: line 0: node 1: sink node (out-degree 0); node 2: sink node (out-degree 0); "
            "node 3: sink node (out-degree 0); and 49996 more\n"
        )

    def test_solve_writes_energy_file(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        out = str(tmp_path / "fig1.energy")
        assert main(["solve", game, "--out", out]) == 0
        with open(out) as handle:
            assert parse_energies(handle.read(), 3) == (0, 4, 8)

    def test_solve_assume_penalty(self, tmp_path, capsys):
        # fig1 with its weights times 10: the guess loop starts at the
        # pre-pass's bound 91, whose first guess would be c=45 D=15
        path = tmp_path / "fig1x10.eg"
        path.write_text(
            "p eg 3 6\nv 0 A\nv 1 B\nv 2 B\n"
            "e 0 1 70\ne 0 2 20\ne 1 2 40\ne 1 0 -20\ne 2 1 30\ne 2 0 -80\n"
        )
        assert main(["solve", str(path)]) == 0
        assert "guess c=45 D=15: accepted" in capsys.readouterr().err
        assert main(["solve", str(path), "--assume-penalty", "3"]) == 0
        captured = capsys.readouterr()
        assert parse_energies(captured.out, 3) == (0, 40, 80)
        assert "guess c=9 D=3: accepted" in captured.err

    def test_wrong_assume_penalty_keeps_the_answer(self, tmp_path, capsys):
        # a shallow trap with a deep dip, its weights doubled so that the
        # pre-pass's bound 21 leaves room for a coarse guess
        path = tmp_path / "trap.eg"
        path.write_text("p eg 3 4\nv 0 A\nv 1 B\nv 2 B\ne 0 1 -18\ne 0 2 0\ne 1 0 20\ne 2 0 -2\n")
        assert main(["solve", str(path), "--assume-penalty", "3"]) == 0
        captured = capsys.readouterr()
        assert parse_energies(captured.out, 3) == (18, 0, 20)
        # a level below the first makes a node infinite, which refutes D = 3
        assert "guess c=9 D=3: rejected at level 2\n" in captured.err
        # the last guess, D = 4/3 < 2, is full-range value iteration
        lines = captured.err.splitlines()
        assert lines[-2] == "guess c=4 D=4/3: accepted"
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

    @pytest.mark.parametrize(
        "graph, region, guesses, fallback",
        [
            (GameGraph((ALICE, BOB), ((0, 1, -1), (1, 0, -1))), "size=2 ended=dual updates=3", 0, "no"),
            (random_game(GenSpec("random", 12, 30, 100, 1)), "size=0 ended=empty updates=4", 1, "no"),
            (random_game(GenSpec("random", 12, 30, 100, 5)), "size=4 ended=dual updates=18", 1, "no"),
        ],
        ids=["two-cycle", "empty", "dual"],
    )
    def test_solve_reports_the_losing_region(self, tmp_path, capsys, graph, region, guesses, fallback):
        path = tmp_path / "game.eg"
        path.write_text(emit_game(graph))
        assert main(["solve", str(path)]) == 0
        captured = capsys.readouterr()
        expected = solve_with_list(graph, full_list(graph.default_bound())).energies
        assert parse_energies(captured.out, graph.n) == expected
        lines = captured.err.splitlines()
        assert [line for line in lines if line.startswith("losing region:")] == [f"losing region: {region}"]
        assert sum(line.startswith("guess ") for line in lines) == guesses
        assert lines[-1].startswith(f"fallback={fallback} ")

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
            ["reduce", "winall", "{game}", "--node", "-1"],
            ["decide", "{empty}", "--node", "0"],
            ["reduce", "winall", "{empty}", "--node", "0"],
        ],
        ids=" ".join,
    )
    def test_node_out_of_range_is_a_usage_error(self, tmp_path, capsys, argv):
        game = tmp_path / "two.eg"
        game.write_text("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 1\ne 1 0 -1\n")
        empty = tmp_path / "empty.eg"
        empty.write_text("p eg 0 0\n")
        where = ": the game has no nodes" if "{empty}" in argv else " 0..1"
        argv = [a.format(game=game, empty=empty) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"node {argv[-1]} out of range{where}\n" in err
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
        assert capsys.readouterr().err == "energygames: 8 strategy pairs exceed the budget 2\n"
        # a budget below one strategy pair is a usage error
        for command in ("oracle", "penalty"):
            for budget in ("0", "-1"):
                assert main([command, game, "--max-pairs", budget]) == 1
                assert capsys.readouterr().err == f"energygames: max_pairs must be at least 1, got {budget}\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.eg"
        path.write_text("p eg 2 1\nv 0 A\nv 1 B\ne 0 9 1\n")
        assert main(["solve", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_foreign_integer_exit_code(self, tmp_path, capsys):
        game = tmp_path / "underscore.eg"
        game.write_text("p eg 2 2\nv 0 A\nv 1 B\ne 0 1 1_000\ne 1 0 1\n")
        assert main(["solve", str(game)]) == 2
        assert capsys.readouterr().err.startswith("energygames: line 4: ")
        # fig1's exact energies, one written with a sign
        energies = tmp_path / "plus.energy"
        energies.write_text("v 0 0\nv 1 +4\nv 2 8\n")
        assert main(["verify", self._write_fig1(tmp_path), str(energies)]) == 2
        assert capsys.readouterr().err.startswith("energygames: line 2: ")

    @pytest.mark.parametrize(
        "text, problem",
        [
            (
                "p eg 2 3\nv 0 A\nv 1 B\ne 0 1 1\ne 1 1 -1\ne 1 0 -1\n",
                "edge 1 (1->1): self-loop (normalize first)",
            ),
            ("p eg 2 1\nv 0 A\nv 1 B\ne 0 1 1\n", "node 1: sink node (out-degree 0)"),
        ],
        ids=["self-loop", "sink"],
    )
    def test_invalid_game_exit_code(self, tmp_path, capsys, text, problem):
        path = tmp_path / "invalid.eg"
        path.write_text(text)
        assert main(["solve", str(path)]) == 2
        assert capsys.readouterr().err == f"energygames: line 0: {problem}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "{tmp}/missing.eg"], "missing.eg"),
            (["solve", "{tmp}"], "Is a directory"),
            (["solve", "{tmp}/latin1.eg"], "can't decode byte 0xc4"),
            (["verify", "{game}", "{tmp}"], "Is a directory"),
        ],
        ids=["missing", "directory", "non-utf8", "verify-energy-directory"],
    )
    def test_missing_game_file_exit_code(self, tmp_path, capsys, argv, message):
        # an unreadable file is a file error (exit 2), not a traceback
        game = self._write_fig1(tmp_path)
        (tmp_path / "latin1.eg").write_bytes(FIG1_TEXT.replace("A", "\xc4").encode("latin-1"))
        assert main([a.format(tmp=tmp_path, game=game) for a in argv]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("energygames: ") and message in lines[0]

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

    def test_gen_has_a_flag_for_every_spec_field(self):
        # _cmd_gen builds GenSpec from the parsed arguments by field name
        args = vars(build_parser().parse_args(["gen", "--family", "random", "--seed", "1"]))
        assert {field.name for field in dataclasses.fields(GenSpec)} <= args.keys()

    def test_gen_infeasible_exit_code(self, tmp_path, capsys):
        argv = ["gen", "--family", "random", "--seed", "1", "--nodes", "1", "--edges", "1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "energygames: need at least two nodes (self-loops are not allowed)\n"

    @pytest.mark.parametrize("share", ["200", "-20"])
    @pytest.mark.parametrize("family", [["random"], ["penalty", "--choices", "3"]], ids=["random", "penalty"])
    def test_gen_alice_share_out_of_range_exit_code(self, tmp_path, capsys, family, share):
        out = tmp_path / "g.eg"
        argv = ["gen", "--family", *family, "--seed", "1", f"--alice-pct={share}", "--out", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"energygames: alice_pct must be in 0..100, got {share}\n"
        assert not out.exists()

    def test_gen_out_degree_cap_below_1_exit_code(self, tmp_path, capsys):
        out = tmp_path / "g.eg"
        argv = ["gen", "--family", "random", "--seed", "1", "--nodes", "5", "--edges", "10"]
        assert main([*argv, "--max-out", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "energygames: max_out must be at least 1, got -1\n"
        assert not out.exists()

    def test_reduce_pipeline_via_files(self, tmp_path, capsys):
        def node_lines(n):
            return "".join(f"{v} <- node {v}\n" for v in range(n))

        game = self._write_fig1(tmp_path)
        we = str(tmp_path / "we.eg")
        assert main(["reduce", "winall", game, "--node", "0", "--out", we]) == 0
        with open(we) as handle:
            reduced = parse_game(handle.read())
        assert reduced.n == 15 and reduced.m == 30
        with open(we + ".trace") as handle:
            text = handle.read()
        trace = text.splitlines()
        assert len(trace) == 15
        assert trace[0] == "0 <- node 0"
        assert text == node_lines(3) + "".join(
            f"{3 + 2 * i} <- edge {i} alice-relay\n{4 + 2 * i} <- edge {i} bob-relay\n"
            for i in range(6)
        )
        bip = str(tmp_path / "bip.eg")
        assert main(["reduce", "bipartite", we, "--out", bip]) == 0
        with open(bip + ".trace") as handle:
            assert handle.read() == node_lines(15) + "".join(
                f"{15 + k} <- edge {i} relay\n"
                for k, i in enumerate((0, 2, 3, 5, 7, 8, 12, 13, 18, 22, 23, 28))
            )
        comp = str(tmp_path / "comp.eg")
        assert main(["reduce", "complete", bip, "--out", comp]) == 0
        with open(comp + ".trace") as handle:
            assert handle.read() == node_lines(27)
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
        assert captured.err == "granularity B=3 (band width n*B=9)\n"

    def test_approx_error_below_nodes_is_usage_error(self, tmp_path, capsys):
        game = self._write_fig1(tmp_path)
        assert main(["approx", game, "--error", "1"]) == 1

    def test_bench_subcommand_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--suite", "wsweep", "--out", str(tmp_path / "sweep.csv")])
        assert err.value.code == 1
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
