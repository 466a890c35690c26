from fractions import Fraction

import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    apply_potential,
    brute_force_energies,
    brute_force_penalty,
    verify_minimal,
)
from energygames.exact import _solve_level, minimal_energy_with_penalty_bound, solve

from conftest import induced_subgraph, small_random


class TestPenaltyBoundRecursion:
    def test_reference_graph_with_true_penalty(self, fig3):
        assert minimal_energy_with_penalty_bound(fig3, 18, 3) == (0, 4, 8)

    def test_small_bound_is_a_single_value_iteration(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 1), (1, 2, 0), (2, 0, 1)))
        assert minimal_energy_with_penalty_bound(graph, 3, 1) == (0, 0, 0)
        phases = []
        assert _solve_level(graph, 3, Fraction(1), phases) == (0, 0, 0)
        assert len(phases) == 1
        assert phases[0].error_budget is None  # base case, no recursion

    def test_too_large_penalty_claim_can_fail_verification(self):
        # frozen fuzz find: claiming a penalty of 2 starves the recursion's
        # bound and node 2 gets pushed to infinity
        graph = GameGraph(
            (ALICE, ALICE, BOB, BOB),
            (
                (0, 2, -8), (1, 0, 7), (2, 0, 4), (3, 1, 4), (1, 2, -4), (0, 1, -7),
                (2, 1, -4), (2, 3, 1), (3, 0, -7), (0, 3, 5), (1, 3, -4),
            ),
        )
        exact = brute_force_energies(graph)
        assert exact == (7, 0, 13, 14)
        wrong = minimal_energy_with_penalty_bound(graph, graph.default_bound(), 2)
        assert wrong != exact
        assert not verify_minimal(graph, wrong)

    def test_penalty_floor_below_one_rejected(self, fig3):
        with pytest.raises(ValueError):
            minimal_energy_with_penalty_bound(fig3, 18, Fraction(1, 2))
        with pytest.raises(ValueError):
            solve(fig3, penalty=Fraction(1, 2))

    def test_valid_floors_always_exact(self):
        for seed in range(40):
            graph = small_random(seed, max_n=5)
            penalty = brute_force_penalty(graph).graph_penalty
            if penalty < 1:
                continue
            floor = penalty if penalty != INF else Fraction(graph.default_bound() + 1)
            exact = brute_force_energies(graph)
            got = minimal_energy_with_penalty_bound(graph, graph.default_bound(), floor)
            assert got == exact


class TestPotentialRecursionProperties:
    def test_penalty_never_drops_under_potential_transform(self):
        # the re-weighting leaves every cycle total unchanged; the penalty
        # value itself can grow (shifted energies create ties, enlarging
        # Bob's optimal-strategy set) but never shrinks, which is the
        # direction the recursion relies on
        for seed in range(30):
            graph = small_random(seed, max_n=4)
            exact = brute_force_energies(graph)
            transform = apply_potential(graph, exact)
            if transform.graph.n == 0:
                continue
            survivors = induced_subgraph(graph, set(transform.kept))
            before = brute_force_penalty(survivors).per_node
            after = brute_force_penalty(transform.graph).per_node
            assert all(a >= b for a, b in zip(after, before))

    def test_cycle_averages_preserved_under_potential_transform(self):
        from conftest import simple_cycles

        for seed in range(30):
            graph = small_random(seed, max_n=4)
            exact = brute_force_energies(graph)
            transform = apply_potential(graph, exact)
            survivors = induced_subgraph(graph, set(transform.kept))
            assert sorted(simple_cycles(survivors)) == sorted(simple_cycles(transform.graph))

    def test_sum_decomposition(self):
        # e*(v) = e(v) + e*'(v) for any pointwise lower bound e used as the
        # potential, checked with the oracle on both games
        for seed in range(30):
            graph = small_random(seed, max_n=4)
            exact = brute_force_energies(graph)
            lower = tuple(0 if v == INF else v // 2 for v in exact)
            transform = apply_potential(graph, lower)
            residual = brute_force_energies(transform.graph)
            lifted = transform.lift(residual, graph.n)
            assert lifted == exact


class TestSolveDriver:
    def test_reference_graph_default_bound(self, fig1):
        report = solve(fig1)
        assert report.energies == (0, 4, 8)
        assert report.bound == 24

    def test_all_non_negative_accepts_first_guess(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 2), (1, 2, 0), (2, 0, 5)))
        report = solve(graph)
        assert report.energies == (0, 0, 0)
        assert len(report.guesses) == 1 and report.guesses[0].accepted
        assert not report.fallback_used

    def test_shallow_trap_rejected_until_fallback_or_fine_guess(self):
        # Alice can pick a shallow losing cycle (average -1/2) or a winning
        # cycle with a deep dip: coarse roundings make the trap look free and
        # the starved recursion returns all-infinite, which passes the local
        # equations; the infinite-set guard must reject those guesses
        trap = GameGraph(
            (ALICE, BOB, BOB),
            ((0, 1, -9), (0, 2, 0), (1, 0, 10), (2, 0, -1)),
        )
        exact = brute_force_energies(trap)
        assert exact == (9, 0, 10)
        report = solve(trap)
        assert report.energies == exact
        rejected = [g for g in report.guesses if not g.accepted]
        assert rejected, "coarse guesses must fail on the trap"
        assert any(g.verified and not g.infinite_consistent for g in rejected)
        # every guess with D >= 2 fails; the full-range fallback settles it
        assert rejected == list(report.guesses)
        assert report.fallback_used

    def test_worst_case_penalty_falls_back(self, neg_two_cycle):
        report = solve(neg_two_cycle)
        assert report.energies == (INF, INF)
        assert report.fallback_used and not report.guesses

    def test_worst_case_penalty_rejects_every_guess_under_large_bound(self):
        # the forced two-cycle of total -2, plus an unused heavy edge for Bob
        # that lifts n*W to 64
        graph = GameGraph((ALICE, BOB), ((0, 1, -1), (1, 0, -1), (1, 0, 32)))
        report = solve(graph)
        assert report.energies == brute_force_energies(graph) == (INF, INF)
        assert [g.error_budget for g in report.guesses] == [32, 16, 8, 4]
        assert not any(g.accepted for g in report.guesses)
        assert report.fallback_used
        assert report.fallback.bound == 64 and report.fallback.granularity is None

    def test_no_guess_rounds_at_granularity_one(self):
        # a granularity-1 rounding rounds nothing, so it would repeat the
        # fallback's full-range value iteration; the driver stops before it
        for seed in range(120):
            graph = small_random(seed)
            report = solve(graph)
            for guess in report.guesses:
                assert guess.penalty_guess >= 2
                assert guess.phases[0].granularity >= 2

    def test_report_totals_sum_the_phases(self):
        for seed in range(120):
            report = solve(small_random(seed))
            phases = [p for g in report.guesses for p in g.phases]
            if report.fallback is not None:
                phases.append(report.fallback)
            assert report.total_updates == sum(p.updates for p in phases)

    def test_low_penalty_instances_match_oracle(self):
        # a forced cycle of total -1 over n nodes has penalty exactly 1/n
        for n in (2, 3, 4, 5):
            weights = [0] * n
            weights[0] = -1
            edges = tuple((i, (i + 1) % n, weights[i]) for i in range(n))
            owners = tuple(ALICE if i % 2 else BOB for i in range(n))
            graph = GameGraph(owners, edges)
            assert brute_force_penalty(graph).graph_penalty == Fraction(1, n)
            report = solve(graph)
            assert report.energies == brute_force_energies(graph)

    def test_output_always_verifies_and_matches_oracle(self):
        for seed in range(120):
            graph = small_random(seed)
            report = solve(graph)
            assert verify_minimal(graph, report.energies)
            assert report.energies == brute_force_energies(graph)

    def test_accepted_guess_at_least_half_the_penalty_or_fallback(self):
        for seed in range(60):
            graph = small_random(seed, max_n=5)
            penalty = brute_force_penalty(graph).graph_penalty
            report = solve(graph)
            if report.fallback_used:
                continue
            accepted = [g for g in report.guesses if g.accepted]
            assert len(accepted) == 1
            # guesses halve, so the accepted one is within a factor two of
            # the largest workable guess (or the true penalty caps it)
            assert accepted[0].penalty_guess >= min(penalty, Fraction(report.bound, 2 * graph.n)) / 2

    def test_penalty_hint_sets_the_first_guess(self, fig3):
        report = solve(fig3, penalty=3)
        assert report.energies == (0, 4, 8)
        assert report.bound == 24
        assert [(g.penalty_guess, g.accepted) for g in report.guesses] == [(3, True)]

    def test_penalty_hint_never_changes_the_answer(self):
        hints = (1, 2, 3, Fraction(7, 2), 10, 1000)
        for seed in range(120):
            graph = small_random(seed)
            exact = brute_force_energies(graph)
            for hint in hints:
                assert solve(graph, penalty=hint).energies == exact, (seed, hint)

    def test_all_zero_weights(self):
        graph = GameGraph((ALICE, BOB), ((0, 1, 0), (1, 0, 0)))
        report = solve(graph)
        assert report.energies == (0, 0)

    def test_report_bookkeeping(self, fig3):
        report = solve(fig3)
        assert report.energies == (0, 4, 8)
        assert report.total_updates >= 1
        assert report.total_steps >= 1
        accepted = [g for g in report.guesses if g.accepted]
        assert len(accepted) == 1 and len(accepted[0].phases) >= 1
        assert report.wall_ms >= 0.0
        for guess in report.guesses:
            assert guess.error_budget >= fig3.n or guess.accepted
