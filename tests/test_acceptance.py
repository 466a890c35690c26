"""Acceptance gate: one test per shipped guarantee, exact tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output of a failing run) so the gate can be read at a glance.
"""

import functools
import sys
from fractions import Fraction

import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    apply_potential,
    approximate_energies,
    brute_force_energies,
    brute_force_penalty,
    find_ergodic_partition,
    full_list,
    is_complete_bipartite,
    round_weights,
    solve_with_list,
    to_bipartite,
    to_complete_bipartite,
    to_win_everywhere,
    verify_minimal,
    window_list,
)
from energygames.exact import solve
from energygames.generators import GenSpec, high_penalty_family, random_game

from game_helpers import (
    SHALLOW_TRAP,
    high_penalty_instance,
    induced_subgraph,
    simple_cycles,
    small_random,
    windowed_instance,
)


def criterion(number: int, title: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"ACCEPTANCE {number} {title}: FAIL ({exc})", file=sys.stderr)
                raise
            print(f"ACCEPTANCE {number} {title}: PASS", file=sys.stderr)
            return result

        return run

    return wrap


@criterion(1, "oracle equivalence on 500 random instances")
def test_criterion_1_oracle_equivalence():
    for seed in range(500):
        graph = small_random(seed)
        exact = brute_force_energies(graph)
        iterated = solve_with_list(graph, full_list(graph.default_bound()))
        assert iterated.energies == exact
        assert solve(graph).energies == exact


@criterion(2, "reference instance: penalties (3,3,3), energies (0,4,8)")
def test_criterion_2_reference_instance(fig3):
    report = brute_force_penalty(fig3)
    assert report.per_node == (Fraction(3), Fraction(3), Fraction(3))
    assert report.graph_penalty == 3
    energies = brute_force_energies(fig3)
    assert energies == (0, 4, 8)
    assert verify_minimal(fig3, energies)


@criterion(3, "approximation band with identical infinite sets")
def test_criterion_3_approximation_band():
    in_band = 0
    for seed in range(220):
        graph = high_penalty_instance(seed)
        n = graph.n
        bound = graph.default_bound()
        exact = brute_force_energies(graph)
        penalty = brute_force_penalty(graph).graph_penalty
        # a budget honoring n <= c <= n*P (the family has P >= W/2 or inf)
        budget = n * (4 if penalty == INF else int(penalty))
        assert n <= budget and (penalty == INF or budget <= n * penalty)
        result = approximate_energies(graph, bound, budget)
        for low, true in zip(result.energies, exact):
            if true == INF or low == INF:
                assert low == true, "infinite sets must coincide"
            else:
                assert low <= true <= low + budget
        in_band += 1
        if penalty != INF:
            # an oversized budget keeps the unconditional lower bound only
            oversized = n * (2 * int(penalty) + 2)
            loose = approximate_energies(graph, bound, oversized)
            assert all(a <= b for a, b in zip(loose.energies, exact))
    assert in_band >= 200


@criterion(4, "windowed lists are admissible and solve exactly")
def test_criterion_4_windowed_lists():
    for seed in range(220):
        spec, (graph, centers) = windowed_instance(seed)
        lst = window_list(list(centers), spec.delta, graph.n, graph.default_bound())
        exact = brute_force_energies(graph)
        for value in exact:
            assert value in lst
        assert solve_with_list(graph, lst).energies == exact


@criterion(5, "exact driver sound on every family")
def test_criterion_5_driver_soundness(fig3):
    instances: list[GameGraph] = [fig3, SHALLOW_TRAP]
    instances += [small_random(seed) for seed in range(200)]
    instances += [high_penalty_instance(seed) for seed in range(40)]
    instances += [windowed_instance(seed)[1][0] for seed in range(40)]
    for n in (2, 3, 4, 5):  # forced cycles of penalty exactly 1/n
        weights = [-1] + [0] * (n - 1)
        edges = tuple((i, (i + 1) % n, weights[i]) for i in range(n))
        owners = tuple(ALICE if i % 2 else BOB for i in range(n))
        instances.append(GameGraph(owners, edges))
    # a 3-node game whose certified rest still rejects the guess c = 195
    instances.append(small_random(441, max_n=12, max_w=1000, max_out=4))
    saw_rejected_guess = False
    for graph in instances:
        report = solve(graph)
        assert verify_minimal(graph, report.energies)
        assert report.energies == brute_force_energies(graph)
        saw_rejected_guess |= any(not g.accepted for g in report.guesses)
    assert saw_rejected_guess, "the family must include failing early guesses"


@criterion(6, "pseudopolynomial blow-up separates the solvers")
def test_criterion_6_scaling_separation():
    sweep = (2**4, 2**8, 2**12, 2**16)
    baseline_steps = []
    exact_steps = []
    for cap in sweep:
        graph = high_penalty_family(choices=5, max_weight=cap, seed=5)
        baseline = solve_with_list(graph, full_list(graph.default_bound()))
        report = solve(graph)
        assert report.energies == baseline.energies
        baseline_steps.append(baseline.steps)
        exact_steps.append(report.total_steps)
    assert baseline_steps[-1] >= 8 * baseline_steps[-2], baseline_steps
    assert exact_steps[-1] <= 2 * exact_steps[0], exact_steps


@criterion(7, "reductions preserve winners and energies")
def test_criterion_7_reductions():
    # (a) winner preservation and uniformity through the win-everywhere gadget
    for seed in range(200):
        n = 2 + seed % 3  # n <= 4
        graph = random_game(
            GenSpec(
                "random",
                n=n,
                m=min(n + seed % 3, n * (n - 1)),
                max_weight=1 + seed % 3,
                seed=seed,
            )
        )
        start = seed % n
        input_winner = brute_force_energies(graph)[start] != INF
        reduced, new_start, _ = to_win_everywhere(graph, start)
        outcome = [v != INF for v in solve(reduced).energies]
        assert outcome[new_start] == input_winner
        assert all(o == outcome[0] for o in outcome)

    # (b) exact energy preservation through the bipartite split
    for seed in range(200):
        n = 2 + seed % 3  # n <= 4
        graph = random_game(
            GenSpec(
                "random",
                n=n,
                m=min(n + seed % (n + 2), n * (n - 1)),
                max_weight=1 + seed % 5,
                seed=seed,
            )
        )
        split, _ = to_bipartite(graph)
        assert brute_force_energies(split)[: graph.n] == brute_force_energies(graph)

    # (c) the full pipeline lands on ergodic complete bipartite games with the
    # same everywhere-winner; 2-node inputs keep outputs at <= 10 nodes
    @functools.lru_cache(maxsize=None)
    def cached_winners(graph: GameGraph):
        return tuple(v != INF for v in solve(graph).energies)

    for seed in range(200):
        graph = random_game(
            GenSpec("random", n=2, m=2, max_weight=1 + seed % 2, seed=seed)
        )
        start = seed % 2
        reduced, new_start, _ = to_win_everywhere(graph, start)
        split, _ = to_bipartite(reduced)
        completed, _ = to_complete_bipartite(split)
        assert completed.n <= 10
        assert is_complete_bipartite(completed)
        assert find_ergodic_partition(completed) is None
        input_winner = brute_force_energies(graph)[start] != INF
        outcome = cached_winners(completed)
        assert all(o == outcome[0] for o in outcome)
        assert outcome[0] == input_winner


@criterion(8, "structural cycle guarantees")
def test_criterion_8_structural_cycle_guarantees():
    # every cycle of the high-penalty family is positive or <= -W|C|/2
    for seed in range(60):
        cap = (2, 8, 16)[seed % 3]
        graph = high_penalty_family(choices=1 + seed % 7, max_weight=cap, seed=seed)
        assert graph.n <= 8
        for total, length in simple_cycles(graph):
            assert total >= 1 or total <= -(cap * length) // 2

    # cycle totals are invariant under the potential transform
    for seed in range(60):
        graph = small_random(seed)
        exact = brute_force_energies(graph)
        transform = apply_potential(graph, exact)
        survivors = induced_subgraph(graph, set(transform.kept))
        assert sorted(simple_cycles(survivors)) == sorted(simple_cycles(transform.graph))

    # cycles with average <= -B stay strictly negative after rounding
    for seed in range(60):
        graph = small_random(seed)
        for granularity in (1, 2, 3, 5):
            rounded = round_weights(graph, granularity)
            before = list(simple_cycles(graph))
            after = list(simple_cycles(rounded))
            assert len(before) == len(after)
            for (w_before, length), (w_after, _) in zip(before, after):
                if w_before <= -granularity * length:
                    assert w_after < 0
