"""Command-line surface.

Exit codes: 0 success, 1 usage or precondition error, 2 malformed or unreadable
file, 3 failed verification, 4 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from fractions import Fraction

from .core import GameGraph, INF, _check_node, validate
from .exact import solve
from .fileio import GameFileError, emit_energies, emit_game, parse_energies, parse_game
from .generators import GenSpec, generate, windowed_game
from .oracle import DEFAULT_MAX_PAIRS, BudgetExceeded, brute_force_energies, brute_force_penalty
from .reductions import to_bipartite, to_complete_bipartite, to_win_everywhere
from .rounding import approximate_energies

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_BUDGET = 4


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_game(path: str) -> GameGraph:
    with open(path, encoding="utf-8") as handle:
        graph = parse_game(handle.read())
    problems = validate(graph)
    if problems:  # the first few: a game can have a sink at every node
        more = f"; and {len(problems) - 3} more" if len(problems) > 3 else ""
        raise GameFileError(0, "; ".join(problems[:3]) + more)
    return graph


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _penalty(text: str) -> Fraction | float:
    if text == "inf":  # as `penalty` prints it
        return INF
    try:
        return Fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _penalty_str(value) -> str:
    return "inf" if value == INF else str(value)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="energygames", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="exact minimal energies")
    p_solve.add_argument("game")
    p_solve.add_argument("--out", help="energy file path (default stdout)")
    p_solve.add_argument(
        "--assume-penalty",
        type=_penalty,
        metavar="D",
        help="first penalty guess; a wrong one costs time, not the answer",
    )

    p_approx = sub.add_parser("approx", help="additive lower-bound approximation")
    p_approx.add_argument("game")
    p_approx.add_argument("--error", type=int, required=True, help="additive error budget c")
    p_approx.add_argument("--out")

    p_decide = sub.add_parser("decide", help="print the winner at a node")
    p_decide.add_argument("game")
    p_decide.add_argument("--node", type=int, required=True)

    p_verify = sub.add_parser("verify", help="check an energy file against a game")
    p_verify.add_argument("game")
    p_verify.add_argument("energies")

    p_oracle = sub.add_parser("oracle", help="brute-force minimal energies (small n)")
    p_oracle.add_argument("game")
    p_oracle.add_argument("--out")
    p_oracle.add_argument("--max-pairs", type=int, default=DEFAULT_MAX_PAIRS)

    p_penalty = sub.add_parser("penalty", help="brute-force per-node penalties (small n)")
    p_penalty.add_argument("game")
    p_penalty.add_argument("--max-pairs", type=int, default=DEFAULT_MAX_PAIRS)

    p_reduce = sub.add_parser("reduce", help="apply a game reduction")
    reduce_sub = p_reduce.add_subparsers(dest="step", required=True, parser_class=_Parser)
    for step in ("winall", "bipartite", "complete"):
        p_step = reduce_sub.add_parser(step)
        p_step.add_argument("game")
        p_step.add_argument("--out", help="output game file; trace goes to <out>.trace")
        if step == "winall":
            p_step.add_argument("--node", type=int, required=True, help="start node s")

    p_gen = sub.add_parser("gen", help="generate a seeded instance")
    p_gen.add_argument("--family", required=True, choices=["random", "penalty", "window", "multiples"])
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out")
    p_gen.add_argument("--nodes", dest="n", metavar="NODES", type=int, default=6)
    p_gen.add_argument("--edges", dest="m", metavar="EDGES", type=int, default=12)
    p_gen.add_argument("--weight", dest="max_weight", metavar="WEIGHT", type=int, default=10)
    p_gen.add_argument("--alice-pct", type=int, default=50)
    p_gen.add_argument("--max-out", type=int)
    p_gen.add_argument("--granularity", type=int, help="multiples family: weight divisor B")
    p_gen.add_argument("--d", type=int, help="window family: number of centers")
    p_gen.add_argument("--delta", type=int, help="window family: jitter radius")
    p_gen.add_argument("--center-lo", type=int, help="window family: center range low end")
    p_gen.add_argument("--center-hi", type=int, help="window family: center range high end")
    p_gen.add_argument("--choices", type=int, help="penalty family: branch count")

    return parser


def _cmd_solve(args) -> int:
    graph = _load_game(args.game)
    report = solve(graph, penalty=args.assume_penalty)
    _write(emit_energies(report.energies), args.out)
    region = report.region
    print(
        f"losing region: size={region.size} ended={region.ended} "
        f"updates={sum(p.updates for p in region.phases)}",
        file=sys.stderr,
    )
    for guess in report.guesses:
        status = "accepted" if guess.accepted else f"rejected at level {len(guess.phases)}"
        print(f"guess c={guess.error_budget} D={guess.penalty_guess}: {status}", file=sys.stderr)
    print(
        f"fallback={'yes' if report.fallback_used else 'no'} "
        f"updates={report.total_updates} list_steps={report.total_steps} "
        f"edge_work={report.total_edge_work} wall_ms={report.wall_ms:.2f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_approx(args) -> int:
    graph = _load_game(args.game)
    result = approximate_energies(graph, graph.default_bound(), args.error)
    _write(emit_energies(result.energies), args.out)
    B = args.error // graph.n
    print(f"granularity B={B} (band width n*B={graph.n * B})", file=sys.stderr)
    return EXIT_OK


def _cmd_decide(args) -> int:
    graph = _load_game(args.game)
    _check_node(graph, args.node)
    report = solve(graph)
    print("ALICE" if report.energies[args.node] != INF else "BOB")
    return EXIT_OK


def _cmd_verify(args) -> int:
    graph = _load_game(args.game)
    with open(args.energies, encoding="utf-8") as handle:
        energies = parse_energies(handle.read(), graph.n)
    if energies == solve(graph).energies:
        return EXIT_OK
    print("energies are not the minimal energies", file=sys.stderr)
    return EXIT_VERIFY


def _cmd_oracle(args) -> int:
    graph = _load_game(args.game)
    energies = brute_force_energies(graph, args.max_pairs)
    _write(emit_energies(energies), args.out)
    return EXIT_OK


def _cmd_penalty(args) -> int:
    graph = _load_game(args.game)
    report = brute_force_penalty(graph, args.max_pairs)
    lines = [f"v {v} {_penalty_str(p)}" for v, p in enumerate(report.per_node)]
    lines.append(f"graph {_penalty_str(report.graph_penalty)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    graph = _load_game(args.game)
    if args.step == "winall":
        reduced, _, trace = to_win_everywhere(graph, args.node)
    elif args.step == "bipartite":
        reduced, trace = to_bipartite(graph)
    else:
        reduced, trace = to_complete_bipartite(graph)
    _write(emit_game(reduced), args.out)
    trace_text = "\n".join(trace.lines()) + "\n"
    if args.out is None:
        sys.stderr.write(trace_text)
    else:
        with open(args.out + ".trace", "w", encoding="utf-8") as handle:
            handle.write(trace_text)
    return EXIT_OK


def _cmd_gen(args) -> int:
    spec = GenSpec(**{f.name: getattr(args, f.name) for f in dataclasses.fields(GenSpec)})
    if args.family == "window":
        graph, centers = windowed_game(spec)
        print("centers: " + " ".join(map(str, centers)), file=sys.stderr)
    else:
        graph = generate(spec)
    _write(emit_game(graph), args.out)
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "approx": _cmd_approx,
    "decide": _cmd_decide,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "penalty": _cmd_penalty,
    "reduce": _cmd_reduce,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GameFileError, OSError, UnicodeDecodeError) as exc:
        print(f"energygames: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(f"energygames: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"energygames: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
