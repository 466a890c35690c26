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
    full_list,
    solve_with_list,
    to_bipartite,
    to_complete_bipartite,
    to_win_everywhere,
    verify_minimal,
)
from energygames.exact import (
    _losing_region,
    _solve_level,
    minimal_energy_with_penalty_bound,
    solve,
)
from energygames.generators import GenSpec, random_game

from conftest import induced_subgraph, small_random, zero_cycle_game
from test_acceptance import (
    FIG3,
    SHALLOW_TRAP,
    high_penalty_instance,
    random_small,
    windowed_instance,
)


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

    def test_worst_case_penalty_is_certified_losing(self, neg_two_cycle):
        report = solve(neg_two_cycle)
        assert report.energies == (INF, INF)
        assert report.region.certified and report.region.size == 2
        assert not report.guesses and not report.fallback_used

    def test_worst_case_penalty_certified_under_large_bound(self):
        # the forced two-cycle of total -2, plus an unused heavy edge for Bob
        # that lifts n*W to 64: one pre-pass round at M = W = 32 certifies
        # both nodes, so no guess climbs them to 64
        graph = GameGraph((ALICE, BOB), ((0, 1, -1), (1, 0, -1), (1, 0, 32)))
        report = solve(graph)
        assert report.energies == brute_force_energies(graph) == (INF, INF)
        assert report.region.certified and report.region.rounds == 1
        assert report.region.phases[0].bound == 32
        assert not report.guesses and not report.fallback_used

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
        saw_dual = False
        for seed in range(120):
            report = solve(small_random(seed))
            phases = list(report.region.phases)
            saw_dual |= len(phases) > report.region.rounds
            phases += [p for g in report.guesses for p in g.phases]
            if report.fallback is not None:
                phases.append(report.fallback)
            assert report.total_updates == sum(p.updates for p in phases)
            assert report.total_steps == sum(p.steps for p in phases)
            assert report.total_edge_work == sum(p.edge_work for p in phases)
            assert report.region.phases and report.region.rounds >= 1
        assert saw_dual, "some instance must run the dual"

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
            # the guess loop runs on the nodes outside the certified region
            solved = graph.n - report.region.size if report.region.certified else graph.n
            if solved == 0:
                assert not report.guesses  # nothing left to guess on
                continue
            accepted = [g for g in report.guesses if g.accepted]
            assert len(accepted) == 1
            # guesses halve, so the accepted one is within a factor two of
            # the largest workable guess (or the true penalty caps it)
            assert accepted[0].penalty_guess >= min(penalty, Fraction(report.bound, 2 * solved)) / 2

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


def full_range(graph: GameGraph):
    return solve_with_list(graph, full_list(graph.default_bound())).energies


class TestLosingRegion:
    def test_certified_region_is_the_oracles_infinite_set(self):
        instances = [small_random(seed) for seed in range(500)]
        # acceptance criterion 5's families
        instances += [FIG3, SHALLOW_TRAP]
        instances += [random_small(seed) for seed in range(200)]
        instances += [high_penalty_instance(seed) for seed in range(40)]
        instances += [windowed_instance(seed)[1][0] for seed in range(40)]
        for n in (2, 3, 4, 5):
            edges = tuple((i, (i + 1) % n, -1 if i == 0 else 0) for i in range(n))
            instances.append(GameGraph(tuple(ALICE if i % 2 else BOB for i in range(n)), edges))
        certified_losing = 0
        for graph in instances:
            exact = brute_force_energies(graph)
            region, losing = _losing_region(graph)
            if region.certified:
                assert losing == [v for v in range(graph.n) if exact[v] == INF]
                certified_losing += bool(losing)
            assert solve(graph).energies == exact
        assert certified_losing >= 100

    @pytest.mark.parametrize("heavy", [100, 1000, 10**6])
    def test_trap_with_a_zero_alice_cycle_is_never_certified(self, heavy):
        # Alice's cycle 0 -> 1 -> 0 totals 0 through a -1 edge, so she wins
        # everywhere, but the primal's coarse list climbs it to infinity; the
        # whole graph is then a trap and only the dual can reject it
        graph = GameGraph((ALICE, ALICE, BOB), ((0, 1, -1), (1, 0, 1), (2, 0, heavy)))
        report = solve(graph)
        assert report.region.size == 3 and not report.region.certified
        assert report.energies == brute_force_energies(graph) == (1, 0, 0)

    def test_set_alice_can_leave_is_not_certified(self):
        # at M = 100 the primal makes the negative cycle 0 <-> 1 infinite, but
        # Alice escapes from 0 along a dip of 200; the dual on {0, 1} alone
        # would be finite, so only the trap check rejects the set
        graph = GameGraph(
            (ALICE, BOB, ALICE, ALICE, ALICE),
            ((0, 1, -1), (1, 0, -1), (0, 2, -100), (2, 3, -100), (3, 4, 100), (4, 3, 0)),
        )
        report = solve(graph)
        assert report.energies == brute_force_energies(graph) == (200, 201, 100, 0, 0)
        assert report.region.rounds == 3 and report.region.size == 0

    def test_flooded_reduction_output_still_exact(self):
        # an output whose input Alice wins: the primal's coarse list climbs its
        # zero-total mixed-weight cycles to infinity, so nothing is certified
        # and the guess loop solves the whole graph
        graph = random_game(GenSpec("random", n=2, m=2, max_weight=2, seed=1))
        reduced, _, _ = to_win_everywhere(graph, 1)
        completed, _ = to_complete_bipartite(to_bipartite(reduced)[0])
        report = solve(completed)
        assert report.region.size == completed.n and not report.region.certified
        assert report.guesses and report.energies == full_range(completed)
        assert INF not in report.energies

    def test_unchanged_region_resumes_the_dual_ladder(self):
        # S keeps the same 74 nodes from round 3 to round 5, so each of those
        # rounds starts the dual at the first cap it has not tried yet
        graph = random_game(GenSpec("random", 96, 384, 1000, 4039238161212164089))
        report = solve(graph)
        region = report.region
        assert region.certified and region.size == 74 and region.rounds == 5
        duals = [(p.nodes, p.bound) for p in region.phases if p.nodes == region.size]
        assert duals == [(74, 76_800), (74, 153_600), (74, 307_200), (74, 614_400)]
        assert report.energies == full_range(graph)

    def test_zero_cycle_family_matches_full_range(self):
        outcomes = []
        for seed in range(3):
            graph = zero_cycle_game(seed)
            reference = full_range(graph)
            assert solve(graph).energies == reference
            outcomes.append(reference.count(INF))
        assert outcomes == [0, 100, 0]
