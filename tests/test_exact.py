from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    approximate_energies,
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
    PhaseRecord,
    _losing_region,
    _solve_level,
    _trap_dual,
    minimal_energy_with_penalty_bound,
    solve,
)
from energygames.generators import GenSpec, high_penalty_family, multiples_game, random_game

from game_helpers import induced_subgraph, small_random, zero_cycle_game
from test_acceptance import (
    FIG3,
    SHALLOW_TRAP,
    high_penalty_instance,
    random_small,
    windowed_instance,
)


# A frozen fuzz find: at floor 2 a level below the first makes node 2 infinite;
# a run that went on past it would return (7, 0, inf, 14) for e* = (7, 0, 13, 14).
STARVED_BY_FLOOR_2 = GameGraph(
    (ALICE, ALICE, BOB, BOB),
    (
        (0, 2, -8), (1, 0, 7), (2, 0, 4), (3, 1, 4), (1, 2, -4), (0, 1, -7),
        (2, 1, -4), (2, 3, 1), (3, 0, -7), (0, 3, 5), (1, 3, -4),
    ),
)


class TestPenaltyBoundRecursion:
    def test_reference_graph_with_true_penalty(self, fig3):
        assert minimal_energy_with_penalty_bound(fig3, 3) == (0, 4, 8)

    def test_small_bound_is_a_single_value_iteration(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 1), (1, 2, 0), (2, 0, 1)))
        assert minimal_energy_with_penalty_bound(graph, 1) == (0, 0, 0)
        phases = []
        assert _solve_level(graph, Fraction(1), phases) == (0, 0, 0)
        assert len(phases) == 1
        assert phases[0].granularity == 1  # rounds nothing, so the only level

    def test_too_large_penalty_claim_can_fail_verification(self):
        # claiming a penalty of 2 starves the recursion's bound: the claim is
        # refuted instead of answered with a wrong vector
        graph = STARVED_BY_FLOOR_2
        assert brute_force_energies(graph) == (7, 0, 13, 14)
        with pytest.raises(ValueError, match="below the first"):
            minimal_energy_with_penalty_bound(graph, 2)
        phases = []
        assert _solve_level(graph, Fraction(2), phases) is None
        assert len(phases) >= 2 and phases[-1].dropped > 0

    def test_penalty_floor_below_one_rejected(self, fig3):
        with pytest.raises(ValueError):
            minimal_energy_with_penalty_bound(fig3, Fraction(1, 2))
        with pytest.raises(ValueError):
            solve(fig3, penalty=Fraction(1, 2))

    def test_valid_floors_always_exact(self):
        for seed in range(40):
            graph = small_random(seed, max_n=5)
            penalty = brute_force_penalty(graph).graph_penalty
            if penalty < 1:
                continue
            exact = brute_force_energies(graph)
            assert minimal_energy_with_penalty_bound(graph, penalty) == exact

    def test_infinite_floor_caps_nothing(self):
        # Bob forces no negative cycle here, so the oracle's penalty is INF:
        # every level halves, as at any floor above n*W
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, -2), (1, 2, 1), (2, 0, 3)))
        assert brute_force_penalty(graph).graph_penalty == INF
        exact = brute_force_energies(graph)
        assert minimal_energy_with_penalty_bound(graph, INF) == exact
        assert minimal_energy_with_penalty_bound(graph, graph.default_bound() + 1) == exact
        assert solve(graph, penalty=INF).energies == exact
        for seed in range(120):
            graph = small_random(seed)
            report, capped = solve(graph), solve(graph, penalty=INF)
            assert capped.energies == report.energies
            assert (capped.region, capped.guesses) == (report.region, report.guesses)


def _phase(n, bound, viter, granularity=None, budget=None, dropped=0):
    return PhaseRecord(
        nodes=n, bound=bound, error_budget=budget, granularity=granularity,
        updates=viter.total_updates, steps=viter.steps, edge_work=viter.edge_work,
        dropped=dropped,
    )


def reference_level(graph, bound, floor, phases, games):
    """The recursion as the paper states it, from public functions only:
    approximate, apply the result as a potential, recurse, lift.  Appends
    each level's residual game to ``games``."""
    n = graph.n
    if n == 0:
        return ()
    games.append(graph)
    if floor >= Fraction(bound, 2 * n):
        if bound <= n:
            result = solve_with_list(graph, full_list(n))
            phases.append(_phase(n, bound, result, dropped=result.energies.count(INF)))
            return result.energies
        budget = max(bound // 2, n)
    else:
        budget = n * floor.numerator // floor.denominator
    approx = approximate_energies(graph, bound, budget)
    transform = apply_potential(graph, approx.energies)
    dropped = n - len(transform.kept)
    phases.append(_phase(n, bound, approx.viter, approx.granularity, budget, dropped))
    return transform.lift(reference_level(transform.graph, budget, floor, phases, games), n)


def against_reference(graph, floor):
    """Run the level loop and the reference recursion at ``floor`` on
    ``graph``'s a-priori bound; a reference base case reads as a level of
    granularity 1 with budget n.  The loop's phases are a prefix of the
    reference's: a refuted run stops at the first level below the first that
    drops a node; an accepted one stops after its first level whose
    granularity divides the gcd of its residual weights, so that it rounds
    nothing, or once its first level drops every node, with the same
    energies, and every reference level past it does nothing."""
    mine, theirs, games = [], [], []
    energies = _solve_level(graph, floor, mine)
    reference = reference_level(graph, graph.default_bound(), floor, theirs, games)
    theirs = [
        p if p.granularity else replace(p, error_budget=p.nodes, granularity=1)
        for p in theirs
    ]
    assert mine == theirs[: len(mine)]
    assert all(p.granularity >= 2 for p in mine[:-1])
    if energies is not None:
        assert energies == reference
        assert not any(p.dropped for p in mine[1:])
        last = len(mine) - 1
        assert mine[0].dropped == graph.n or (
            gcd(*(w for _, _, w in games[last].edges)) % mine[last].granularity == 0
        )
        for p in theirs[len(mine) :]:
            assert (p.updates, p.steps, p.edge_work, p.dropped) == (0, 0, 0, 0)
    else:
        assert len(mine) >= 2 and mine[-1].dropped > 0
        assert not any(p.dropped for p in mine[1:-1])
    return energies, mine, theirs


# Small and non-integer floors: the first level's budget floor(n*D) differs
# from every guess budget, and the coarse step runs below the first level.
FIXED_FLOORS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3), Fraction(10))


def guessed_graph(graph):
    """The graph ``solve``'s guess loop runs on: what is left once the
    certified losing region is dropped."""
    _, losing = _losing_region(graph)
    if not losing:
        return graph
    drop = [0] * graph.n
    for v in losing:
        drop[v] = INF
    return apply_potential(graph, tuple(drop)).graph


class TestLevelLoop:
    def test_matches_the_reference_recursion_at_every_guess(self):
        # every budget the guess loop tries, on the graph it solves; a
        # rejected guess stops at its refuting level, an accepted one at its
        # first level that rounds nothing, each a prefix of the reference's
        # levels
        runs = first_drops = coarse = rejected = refuted_at_one = saved = idle = 0
        for seed in range(500):
            original = small_random(seed)
            graph = guessed_graph(original)
            for guess in solve(original).guesses:
                energies, mine, theirs = against_reference(graph, guess.penalty_guess)
                assert tuple(mine) == guess.phases
                assert (energies is not None) == guess.accepted
                if guess.accepted:
                    coarse += mine[-1].granularity >= 2
                    idle += len(theirs) - len(mine)
                else:
                    rejected += 1
                    refuted_at_one += mine[-1].granularity == 1
                    saved += len(theirs) - len(mine)
                runs += 1
                first_drops += mine[0].dropped > 0
        # the first level drops nodes in 18 runs; 14 accepted runs end
        # coarser than granularity 1, 3 of them because the first level drops
        # every node and 11 at a level whose granularity divides every
        # residual weight; 16 runs are refuted, 15 of them at a level of
        # granularity 1, and the reference recursion runs 4 levels past the
        # refutations and 402 levels that do nothing past the accepted runs'
        # last
        assert (runs, first_drops, coarse, rejected, refuted_at_one, saved, idle) == (
            334, 18, 14, 16, 15, 4, 402
        )

    def test_matches_the_reference_recursion_at_fixed_floors(self):
        # on whole graphs; the public entry point returns the loop's energies
        # or raises, and its energies are the full-range ones
        runs = first_drops = refuted = coarse = idle = 0
        for seed in range(500):
            graph = small_random(seed)
            exact = full_range(graph)
            for floor in FIXED_FLOORS:
                energies, mine, theirs = against_reference(graph, floor)
                assert energies is None or energies == exact, (seed, floor)
                try:
                    assert minimal_energy_with_penalty_bound(graph, floor) == energies == exact
                except ValueError:
                    assert energies is None
                runs += 1
                first_drops += mine[0].dropped > 0
                refuted += energies is None
                if energies is not None:
                    coarse += mine[-1].granularity >= 2
                    idle += len(theirs) - len(mine)
        # the first level drops nodes in 989 runs, 92 runs are refuted, 367
        # accepted runs end coarser than granularity 1, and the reference
        # recursion runs 1,939 levels that do nothing past the accepted runs'
        # last
        assert (runs, first_drops, refuted, coarse, idle) == (2500, 989, 92, 367, 1939)

    def test_exact_or_refuted(self):
        # whatever the floor, a run at n*W either returns the exact energies
        # or is refuted by an infinite node below the first level
        def refutations(graph):
            n, cap = graph.n, graph.default_bound()
            exact = full_range(graph)
            floors = set(FIXED_FLOORS)
            budget = cap >> 1
            while budget >= 2 * n:
                floors.add(Fraction(budget, n))
                budget >>= 1
            refuted = 0
            for floor in sorted(floors):
                energies = _solve_level(graph, floor, [])
                assert energies is None or energies == exact, floor
                refuted += energies is None
            return len(floors), refuted

        runs = refuted = 0
        for seed in range(500):
            count, refuted_here = refutations(small_random(seed))
            runs += count
            refuted += refuted_here
        assert (runs, refuted) == (2808, 123)
        # run on to the end, each of those 123 runs would still give the
        # exact energies (what a deeper level drops there is truly losing);
        # on these two graphs it would give wrong ones
        assert refutations(STARVED_BY_FLOOR_2) == (6, 3)
        assert refutations(small_random(319, max_n=8, max_w=20, max_out=4)) == (7, 5)

    def test_hub_guess_stops_at_the_weights_divisor(self):
        # every hub weight is a multiple of W/8 = 8192, so the accepted guess
        # stops at the first level of that granularity, after 3 levels where
        # the reference recursion runs 17, with the same work in all
        for seed in (1, 2, 3):
            graph = high_penalty_family(2000, 2**16, seed)
            report = solve(graph)
            assert report.region.size == 0 and len(report.guesses) == 1
            phases = report.guesses[0].phases
            assert [p.granularity for p in phases] == [32768, 16384, 8192]
            theirs = []
            reference = reference_level(
                graph, graph.default_bound(), report.guesses[0].penalty_guess, theirs, []
            )
            assert report.energies == reference
            assert len(theirs) == 17
            for field in ("updates", "steps", "edge_work"):
                assert sum(getattr(p, field) for p in phases) == sum(
                    getattr(p, field) for p in theirs
                )

    def test_multiples_guess_stops_at_the_granularity(self):
        # weights are multiples of 64; seeds 0-3 keep n*W a power-of-two
        # multiple of 64 after the losing region is dropped, so the halving
        # reaches granularity 64 at the fourth level and stops there
        for seed in range(4):
            graph = multiples_game(GenSpec("multiples", 30, 120, 1024, seed, granularity=64))
            report = solve(graph)
            assert report.energies == full_range(graph)
            phases = report.guesses[-1].phases
            assert [p.granularity for p in phases] == [512, 256, 128, 64]
        # seed 4's residual has W = 960, so the granularities run 480, 240,
        # 120, 60, ..., and no level above granularity 1 has one that divides
        # every residual weight
        graph = multiples_game(GenSpec("multiples", 30, 120, 1024, 4, granularity=64))
        assert guessed_graph(graph).max_weight == 960
        report = solve(graph)
        assert report.energies == full_range(graph)
        assert report.guesses[-1].phases[-1].granularity == 1

    def test_scaled_weights_scale_the_energies(self):
        # a common factor k of the weights is a divisor the loop may stop at;
        # the energies must still be exactly k times the unscaled ones
        for seed in range(200):
            graph = small_random(seed)
            energies = solve(graph).energies
            for k in (2, 3, 8):
                scaled = GameGraph(graph.owners, tuple((u, v, k * w) for u, v, w in graph.edges))
                assert solve(scaled).energies == tuple(k * e for e in energies), (seed, k)


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
        from game_helpers import simple_cycles

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
        assert report.guesses[0].phases[0].bound == fig1.default_bound() == 24

    def test_all_non_negative_accepts_first_guess(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 2), (1, 2, 0), (2, 0, 5)))
        report = solve(graph)
        assert report.energies == (0, 0, 0)
        assert len(report.guesses) == 1 and report.guesses[0].accepted
        assert not report.fallback_used

    def test_shallow_trap_rejected_until_fallback_or_fine_guess(self):
        # Alice can pick a shallow losing cycle (average -1/2) or a winning
        # cycle with a deep dip: coarse roundings make the trap look free and
        # the starved recursion makes nodes infinite below the first level,
        # which rejects those guesses
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
        # each is refuted by a level below the first that makes a node infinite
        assert all(len(g.phases) >= 2 and g.phases[-1].dropped for g in rejected)
        # every guess with D >= 2 fails; the last, below 2, is full-range
        # value iteration and settles it
        *coarse, last = report.guesses
        assert rejected == coarse
        assert last.accepted and last.penalty_guess < 2
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

    def test_only_the_last_guess_rounds_at_granularity_one(self):
        # a granularity-1 rounding rounds nothing: a guess below 2 is one
        # level, full-range value iteration on the graph the loop solves, and
        # nothing can refute it, so only the last guess is one
        full_range_guesses = 0
        for seed in range(120):
            graph = small_random(seed)
            report = solve(graph)
            if not report.guesses:
                continue
            *coarse, last = report.guesses
            for guess in coarse:
                assert guess.penalty_guess >= 2
                assert guess.phases[0].granularity >= 2
            assert last.accepted and report.fallback_used == (last.penalty_guess < 2)
            if last.penalty_guess >= 2:
                continue
            full_range_guesses += 1
            rest = guessed_graph(graph)
            viter = solve_with_list(rest, full_list(rest.default_bound()))
            first = last.phases[0]
            assert (first.updates, first.steps, first.edge_work) == (
                viter.total_updates, viter.steps, viter.edge_work
            )
            assert len(last.phases) == 1
        # 28 of the 120 end at a guess below 2
        assert full_range_guesses == 28

    def test_report_totals_sum_the_phases(self):
        saw_dual = False
        for seed in range(120):
            report = solve(small_random(seed))
            phases = list(report.region.phases)
            saw_dual |= len(phases) > report.region.rounds
            phases += [p for g in report.guesses for p in g.phases]
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
            bound = report.guesses[0].phases[0].bound
            assert accepted[0].penalty_guess >= min(penalty, Fraction(bound, 2 * solved)) / 2

    def test_penalty_hint_sets_the_first_guess(self, fig3):
        report = solve(fig3, penalty=3)
        assert report.energies == (0, 4, 8)
        assert report.guesses[0].phases[0].bound == fig3.default_bound() == 24
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

    def test_trap_dual_rejects_a_set_alice_can_leave(self):
        graph = GameGraph((ALICE, BOB, ALICE), ((0, 1, 1), (1, 0, 2), (0, 2, 0), (2, 0, 0)))
        assert _trap_dual(graph, [0, 1]) is None

    def test_trap_dual_rejects_a_bob_node_that_must_leave(self):
        graph = GameGraph((BOB, BOB, ALICE), ((0, 1, 1), (1, 2, 2), (2, 0, 0)))
        assert _trap_dual(graph, [0, 1]) is None

    def test_trap_dual_swaps_owners_and_reweights(self):
        # S = [1, 3]: Bob's node 1 can stay (to 3) though it can also leave
        # (to 2); Alice's node 3 cannot leave; node 0 enters S from outside
        graph = GameGraph(
            (ALICE, BOB, ALICE, ALICE),
            ((0, 1, 5), (3, 1, -2), (1, 2, 7), (1, 3, 4), (2, 3, 0), (3, 1, 6)),
        )
        # k = |S| + 1 = 3, each kept weight w becomes -(3w + 1)
        assert _trap_dual(graph, [1, 3]) == GameGraph(
            (ALICE, BOB), ((1, 0, 5), (0, 1, -13), (1, 0, -19))
        )

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
