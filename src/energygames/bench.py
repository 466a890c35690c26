"""Canned measurement suites comparing solver strategies.

Each suite returns CSV-ready rows with the instance parameters and, per
algorithm, the number of node updates, the total admissible-list positions
advanced (the unit in which pseudopolynomial blow-up shows), the edge work
touched, and wall time.
"""

from __future__ import annotations

import time

from .admissible import full_list, window_list
from .core import GameGraph
from .exact import solve
from .generators import GenSpec, high_penalty_family, windowed_game
from .value_iteration import solve_with_list

CSV_COLUMNS = [
    "suite",
    "family",
    "params",
    "algorithm",
    "node_updates",
    "list_steps",
    "edge_relaxations",
    "wall_ms",
]

Row = dict[str, object]


def _baseline_row(suite: str, family: str, params: str, graph: GameGraph) -> Row:
    result = solve_with_list(graph, full_list(graph.default_bound()))
    return {
        "suite": suite,
        "family": family,
        "params": params,
        "algorithm": "value-iteration-full",
        "node_updates": result.total_updates,
        "list_steps": result.steps,
        "edge_relaxations": result.edge_work,
        "wall_ms": round(result.wall_ms, 3),
    }


def _exact_row(suite: str, family: str, params: str, graph: GameGraph) -> Row:
    report = solve(graph)
    return {
        "suite": suite,
        "family": family,
        "params": params,
        "algorithm": "exact-penalty-guessing",
        "node_updates": report.total_updates,
        "list_steps": report.total_steps,
        "edge_relaxations": report.total_edge_work,
        "wall_ms": round(report.wall_ms, 3),
    }


def weight_sweep_suite(
    choices: int = 5, seed: int = 5, weights: tuple[int, ...] = (16, 256, 4096, 65536)
) -> list[Row]:
    """Fixed topology, weights scaled over a geometric sweep: the full-range
    value iteration climbs linearly in W while the penalty-guessing solver's
    work stays flat."""
    rows: list[Row] = []
    for cap in weights:
        graph = high_penalty_family(choices, cap, seed)
        params = f"choices={choices};W={cap};seed={seed}"
        rows.append(_baseline_row("wsweep", "penalty", params, graph))
        rows.append(_exact_row("wsweep", "penalty", params, graph))
    return rows


def window_suite(seed: int = 3) -> list[Row]:
    """Windowed-weight instances: value iteration over the windowed list
    versus the full value range."""
    rows: list[Row] = []
    for d, delta, center_hi in ((1, 0, 200), (1, 2, 200), (2, 1, 400), (2, 2, 400)):
        spec = GenSpec(
            family="window",
            n=6,
            m=12,
            max_weight=center_hi + delta,
            seed=seed + d * 100 + delta,
            d=d,
            delta=delta,
            center_lo=-center_hi,
            center_hi=center_hi,
        )
        graph, centers = windowed_game(spec)
        bound = graph.default_bound()
        params = f"d={d};delta={delta};n={spec.n};m={spec.m};seed={spec.seed}"
        started = time.perf_counter()
        lst = window_list(list(centers), delta, graph.n, bound)
        build_ms = (time.perf_counter() - started) * 1000.0
        windowed = solve_with_list(graph, lst)
        rows.append(
            {
                "suite": "window",
                "family": "window",
                "params": params + f";list={len(lst)}",
                "algorithm": "value-iteration-windowed",
                "node_updates": windowed.total_updates,
                "list_steps": windowed.steps,
                "edge_relaxations": windowed.edge_work,
                "wall_ms": round(windowed.wall_ms + build_ms, 3),
            }
        )
        rows.append(_baseline_row("window", "window", params, graph))
    return rows


SUITES = {
    "wsweep": weight_sweep_suite,
    "window": window_suite,
}


def run_suite(name: str) -> list[Row]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    rows = SUITES[name]()
    rows.sort(key=lambda r: (str(r["params"]), str(r["algorithm"])))
    return rows
