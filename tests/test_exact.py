import hashlib
from dataclasses import replace
from fractions import Fraction
from math import gcd, nan

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
from energygames import exact
from energygames.exact import (
    PhaseRecord,
    _cut,
    _error_budget,
    _losing_region,
    _run_phase,
    _solve_level,
    _trap_dual,
    _trim,
    minimal_energy_with_penalty_bound,
    solve,
)
from energygames.generators import GenSpec, high_penalty_family, multiples_game, random_game
from energygames.rounding import _rounded_weights

from game_helpers import (
    SHALLOW_TRAP,
    fullrange_vi_pool,
    high_penalty_instance,
    induced_subgraph,
    penalty_hub_pool,
    random_cli_pool,
    reduction_batch_pool,
    small_random,
    windowed_instance,
    zero_cycle_game,
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


def scaled(graph, k):
    return GameGraph(graph.owners, tuple((u, v, k * w) for u, v, w in graph.edges))


# SHALLOW_TRAP with its weights doubled.  The pre-pass's measure on the trap
# itself is e* = (9, 0, 10), which leaves no guess of 2 or more to reject.
DEEP_TRAP = scaled(SHALLOW_TRAP, 2)


class TestPenaltyBoundRecursion:
    def test_reference_graph_with_true_penalty(self, fig3):
        assert minimal_energy_with_penalty_bound(fig3, 3) == (0, 4, 8)

    def test_small_bound_is_a_single_value_iteration(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 1), (1, 2, 0), (2, 0, 1)))
        assert minimal_energy_with_penalty_bound(graph, 1) == (0, 0, 0)
        phases = []
        assert _solve_level(graph, Fraction(1), phases, graph.default_bound()) == (0, 0, 0)
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
        assert _solve_level(graph, Fraction(2), phases, graph.default_bound()) is None
        assert len(phases) >= 2 and phases[-1].dropped > 0

    def test_penalty_floor_below_one_rejected(self, fig3):
        # Both entry points share one check: NaN and -inf are refused with
        # the same message as 0 and 1/2, not by Fraction or int conversion.
        for floor in (nan, -INF, 0, Fraction(1, 2)):
            for call in (
                lambda: minimal_energy_with_penalty_bound(fig3, floor),
                lambda: solve(fig3, penalty=floor),
            ):
                with pytest.raises(ValueError, match="^the penalty lower bound must be at least 1$"):
                    call()

    def test_floors_from_one_give_the_full_range_energies(self, fig1, fig3):
        # INF caps nothing; 1 and 3/2 give granularity 1 at the first level.
        # The empty game runs no level at all.
        for graph in (fig1, fig3, high_penalty_family(40, 1024, 1), GameGraph((), ())):
            expected = solve_with_list(graph, full_list(graph.default_bound())).energies
            for floor in (INF, 1, Fraction(3, 2)):
                assert minimal_energy_with_penalty_bound(graph, floor) == expected
                assert solve(graph, penalty=floor).energies == expected

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


def _phase(n, bound, viter, granularity=None, dropped=0):
    return PhaseRecord(
        nodes=n, bound=bound, granularity=granularity,
        updates=viter.total_updates, steps=viter.steps, edge_work=viter.edge_work,
        dropped=dropped,
    )


def reference_level(graph, bound, floor, phases):
    """The recursion as the paper states it, from public functions only:
    approximate, apply the result as a potential, recurse, lift."""
    n = graph.n
    if n == 0:
        return ()
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
    phases.append(_phase(n, bound, approx, budget // n, dropped))
    return transform.lift(reference_level(transform.graph, budget, floor, phases))


def against_reference(graph, floor, bound):
    """Run the level loop and the reference recursion at ``floor`` on
    ``graph`` from a first ``bound``; a reference base case reads as a level
    of granularity 1.  The loop's phases are a prefix of the
    reference's: a refuted run stops at the first level below the first that
    drops a node; an accepted one stops after its first level whose
    potential is a fixed point, with the same energies.  Seen from the
    reference, that is its first level after which every reference level
    does nothing, so its last level, unless it is the first, makes an
    update."""
    mine, theirs = [], []
    energies = _solve_level(graph, floor, mine, bound)
    reference = reference_level(graph, bound, floor, theirs)
    theirs = [p if p.granularity else replace(p, granularity=1) for p in theirs]
    assert mine == theirs[: len(mine)]
    assert all(p.granularity >= 2 for p in mine[:-1])
    if energies is not None:
        assert energies == reference
        assert not any(p.dropped for p in mine[1:])
        last = len(mine) - 1
        assert last == 0 or mine[last].updates > 0
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
    """The graph ``solve``'s guess loop runs on, what is left once the
    losing region is dropped, and the loop's first bound: the max of the
    region's measure, clamped at 0.  It caps the graph's finite energies
    (part (i) of ``solve``), so ``solve`` runs no second loop there."""
    _, measure = _losing_region(graph)
    bound = max([0, *(b for b in measure if b != INF)])
    rest = graph
    if INF in measure:
        rest = _cut(graph, measure).graph
    assert all(e <= bound for e in full_range(rest) if e != INF)
    return rest, bound


class TestLevelLoop:
    def test_matches_the_reference_recursion_at_every_guess(self):
        # every budget the guess loop tries, on the graph it solves; a
        # rejected guess stops at its refuting level, an accepted one at its
        # first level whose potential is a fixed point, each a prefix of the
        # reference's levels
        runs = first_drops = coarse = rejected = refuted_at_one = saved = idle = 0
        for seed in range(500):
            original = small_random(seed)
            graph, bound = guessed_graph(original)
            for guess in solve(original).guesses:
                energies, mine, theirs = against_reference(graph, guess.penalty_guess, bound)
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
        # every region is certified, so no first level drops nodes and no run
        # is refuted; one accepted run ends coarser than granularity 1, since
        # on graphs this small a carried bound leaves little to halve (the
        # fixed-floor test below covers coarse stops), and the reference
        # recursion runs 94 levels that do nothing past the accepted runs' last
        assert (runs, first_drops, coarse, rejected, refuted_at_one, saved, idle) == (
            301, 0, 1, 0, 0, 0, 94
        )

    def test_matches_the_reference_recursion_at_fixed_floors(self):
        # on whole graphs; the public entry point returns the loop's energies
        # or raises, and its energies are the full-range ones
        runs = first_drops = refuted = coarse = idle = 0
        for seed in range(500):
            graph = small_random(seed)
            exact = full_range(graph)
            for floor in FIXED_FLOORS:
                energies, mine, theirs = against_reference(graph, floor, graph.default_bound())
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
        # the first level drops nodes in 989 runs, 92 runs are refuted, 534
        # accepted runs end coarser than granularity 1, at a potential that is
        # already a fixed point, and the reference recursion runs 2,127 levels
        # that do nothing past the accepted runs' last
        assert (runs, first_drops, refuted, coarse, idle) == (2500, 989, 92, 534, 2127)

    def test_first_level_from_n_times_w_leaves_a_closed_infinite_set(self):
        # a finite energy of the rounded game is at most (n-1)*W, so a first
        # level from n*W makes only losing nodes infinite: every such Alice
        # node has only infinite successors and every such Bob node at least
        # one.  Checking pi on the graph the level's cut keeps is then the
        # same as checking it with its infinite entries on the whole graph.
        levels = drops = 0
        for seed in range(500):
            graph = small_random(seed)
            cap = graph.default_bound()
            for floor in (*FIXED_FLOORS, None):
                phases = []
                _solve_level(graph, floor, phases, cap)
                first = approximate_energies(graph, cap, _error_budget(cap, graph.n, floor))
                energies = first.energies
                assert (phases[0].updates, phases[0].steps, phases[0].edge_work) == (
                    first.total_updates, first.steps, first.edge_work
                )
                assert phases[0].dropped == energies.count(INF)
                levels += 1
                if INF not in energies:
                    continue
                drops += 1
                for u in range(graph.n):
                    if energies[u] == INF:
                        successors = (energies[graph.edges[i][1]] == INF for i in graph.out_edges[u])
                        assert (all if graph.is_alice(u) else any)(successors), (seed, floor, u)
        assert (levels, drops) == (3000, 1167)

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
                energies = _solve_level(graph, floor, [], cap)
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
        # every hub weight is a multiple of W/8 = 8192.  The guess loop starts
        # at the carried bound W = 65,536, not at n*W = 131,137,536, so its
        # first level has granularity 32,768 // 2001 = 16, which divides
        # 8192: that level rounds nothing, its potential is a fixed point, and
        # the accepted guess stops after it where the reference recursion from
        # the same bound runs 7, with the same work
        for seed in (1, 2, 3):
            graph = high_penalty_family(2000, 2**16, seed)
            assert gcd(*(w for _, _, w in graph.edges)) == 8192
            report = solve(graph)
            assert report.region.size == 0 and len(report.guesses) == 1
            phases = report.guesses[0].phases
            assert [(p.bound, p.granularity) for p in phases] == [(2**16, 16)]
            theirs = []
            reference = reference_level(
                graph, phases[0].bound, report.guesses[0].penalty_guess, theirs
            )
            assert report.energies == reference
            assert len(theirs) == 7
            for field in ("updates", "steps", "edge_work"):
                assert sum(getattr(p, field) for p in phases) == sum(
                    getattr(p, field) for p in theirs
                )

    def test_multiples_guess_stops_at_the_granularity(self):
        # weights are multiples of 64.  Seed 8's dual leaves its whole S'
        # infinite, so its measure holds n*W = 30,720 there: its guess loop
        # halves from n*W, reaches granularity 64 at the fourth level and
        # stops there; seeds 6 and 21 start at a carried bound whose first
        # granularity, 16 and 32, already divides 64.  A level that rounds
        # nothing gives a fixed point, but one may come sooner: seed 5's
        # potential is one after the level at granularity 2, so its guess
        # stops there, short of granularity 1
        cases = {8: [512, 256, 128, 64], 6: [16], 21: [32], 5: [161, 80, 40, 20, 10, 5, 2]}
        for seed, granularities in cases.items():
            graph = multiples_game(GenSpec("multiples", 30, 120, 1024, seed, granularity=64))
            report = solve(graph)
            assert report.region.ended == "dual"
            assert report.energies == full_range(graph)
            phases = report.guesses[-1].phases
            assert [p.granularity for p in phases] == granularities
        # seed 4's residual has W = 960 and its carried bound gives a first
        # granularity of 39, so the granularities run 39, 19, 9, ..., and no
        # potential before the level at granularity 1 is a fixed point
        graph = multiples_game(GenSpec("multiples", 30, 120, 1024, 4, granularity=64))
        assert guessed_graph(graph)[0].max_weight == 960
        report = solve(graph)
        assert report.energies == full_range(graph)
        assert [p.granularity for p in report.guesses[-1].phases] == [39, 19, 9, 4, 2, 1]

    def test_scaled_weights_scale_the_energies(self):
        # a common factor k of the weights changes which levels round
        # nothing; the energies must still be exactly k times the unscaled ones
        for seed in range(200):
            graph = small_random(seed)
            energies = solve(graph).energies
            for k in (2, 3, 8):
                scaled = GameGraph(graph.owners, tuple((u, v, k * w) for u, v, w in graph.edges))
                assert solve(scaled).energies == tuple(k * e for e in energies), (seed, k)

    def test_zero_potential_still_rounds(self):
        # The same list on two kinds of weights bounds e* from opposite
        # sides: the graph's own weights with values rounded up give a
        # progress measure, at least e*, and weights rounded up, even under a
        # zero potential, the rounded game's energies, at most e*.
        graph = GameGraph((ALICE, BOB), ((0, 1, -3), (1, 0, 3)))
        assert brute_force_energies(graph) == (3, 0)
        phases = []
        assert _run_phase(graph, 6, 2, phases).energies == (INF, INF)
        rounded = _rounded_weights(graph, [0, 0], 2)
        assert rounded == [-2, 4]
        assert _run_phase(graph, 6, 2, phases, rounded).energies == (2, 0)
        assert [(p.bound, p.granularity, p.dropped) for p in phases] == [(6, 2, 2), (6, 2, 0)]


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
            lifted = transform.lift(residual)
            assert lifted == exact


class TestSolveDriver:
    def test_reference_graph_default_bound(self, fig1):
        # the pre-pass's primal round at M = W = 8 runs at granularity 1 and
        # gives e* itself, so the guess loop starts at 8, not at n*W = 24
        report = solve(fig1)
        assert report.energies == (0, 4, 8)
        assert report.guesses[0].phases[0].bound == 8 < fig1.default_bound() == 24

    def test_all_non_negative_accepts_first_guess(self):
        # the pre-pass's measure is 0 everywhere, so the one guess starts at
        # bound 0: a guess below 2, one level that makes no update
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 2), (1, 2, 0), (2, 0, 5)))
        report = solve(graph)
        assert report.energies == (0, 0, 0)
        assert len(report.guesses) == 1 and report.guesses[0].accepted
        [phase] = report.guesses[0].phases
        assert (phase.bound, phase.granularity, phase.updates) == (0, 1, 0)
        assert report.fallback_used

    def test_shallow_trap_rejected_until_fallback_or_fine_guess(self):
        # Alice can pick a shallow losing cycle (average -1) or a winning
        # cycle with a deep dip: coarse roundings make the trap look free and
        # the starved recursion makes nodes infinite below the first level,
        # which rejects those guesses
        trap = DEEP_TRAP
        exact = brute_force_energies(trap)
        assert exact == (18, 0, 20)
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
        assert report.region.ended == "dual" and report.region.size == 2
        assert len(report.region.phases) == 2
        assert not report.guesses and not report.fallback_used

    def test_worst_case_penalty_certified_under_large_bound(self):
        # the forced two-cycle of total -2, plus an unused heavy edge for Bob
        # that lifts n*W to 64: the pre-pass's primal at M = W = 32 and its
        # dual certify both nodes, so no guess climbs them to 64
        graph = GameGraph((ALICE, BOB), ((0, 1, -1), (1, 0, -1), (1, 0, 32)))
        report = solve(graph)
        assert report.energies == brute_force_energies(graph) == (INF, INF)
        assert report.region.ended == "dual" and len(report.region.phases) == 2
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
            rest, bound = guessed_graph(graph)
            viter = solve_with_list(rest, full_list(bound))
            first = last.phases[0]
            assert (first.updates, first.steps, first.edge_work) == (
                viter.total_updates, viter.steps, viter.edge_work
            )
            assert len(last.phases) == 1
        # 74 of the 120 end at a guess below 2: most carried bounds are below
        # 4n, so that is their first guess
        assert full_range_guesses == 74

    def test_report_totals_sum_the_phases(self):
        # and each phase ran at the granularity its rule gives: the region's
        # primal and a guess level at their error budget divided by n, with
        # no floor for the primal and under the guess for a level, and the
        # dual run at 1
        saw_dual = False
        for seed in range(120):
            report = solve(small_random(seed))
            phases = list(report.region.phases)
            assert len(phases) == 1 + (report.region.ended == "dual")
            saw_dual |= len(phases) == 2
            primal, *dual = phases
            assert primal.granularity == _error_budget(primal.bound, primal.nodes, None) // primal.nodes
            assert all(p.granularity == 1 for p in dual)
            for guess in report.guesses:
                for p in guess.phases:
                    assert p.granularity == _error_budget(p.bound, p.nodes, guess.penalty_guess) // p.nodes
                phases += guess.phases
            assert report.total_updates == sum(p.updates for p in phases)
            assert report.total_steps == sum(p.steps for p in phases)
            assert report.total_edge_work == sum(p.edge_work for p in phases)
        assert saw_dual, "some instance must run the dual"

    def test_twelve_node_set_matches_full_range(self):
        # every region certifies its losing nodes, so no guess's first level
        # drops nodes
        first_drops = 0
        for seed in range(500):
            graph = small_random(seed, max_n=12, max_w=1000, max_out=4)
            report = solve(graph)
            assert report.energies == full_range(graph), seed
            first_drops += any(guess.phases[0].dropped for guess in report.guesses)
        assert first_drops == 0

    @pytest.mark.parametrize(
        "graph, message",
        [
            (GameGraph((ALICE, BOB), ((0, 0, 1), (1, 0, -1))), "self-loops"),
            (GameGraph((ALICE, BOB), ((1, 0, -1),)), "out-edge"),
        ],
        ids=["self-loop", "sink"],
    )
    def test_unplayable_graphs_rejected(self, graph, message):
        for _ in range(2):  # the graph caches its view, and the kernel refuses it on every call
            with pytest.raises(ValueError, match=message):
                solve(graph)
            with pytest.raises(ValueError, match=message):
                minimal_energy_with_penalty_bound(graph, 1)

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
            solved = graph.n - report.region.size
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
        # fig3 with its weights times 10: the guess loop starts at the
        # pre-pass's measure, whose max is e* = 80 rounded up to a multiple of
        # 80 // 6 = 13, and without a hint its first guess is D = 45/3
        graph = scaled(fig3, 10)
        assert [g.penalty_guess for g in solve(graph).guesses] == [15]
        report = solve(graph, penalty=3)
        assert report.energies == (0, 40, 80)
        assert report.guesses[0].phases[0].bound == 91 < graph.default_bound() == 240
        assert [(g.penalty_guess, g.accepted) for g in report.guesses] == [(3, True)]

    def test_penalty_hint_never_changes_the_answer(self):
        hints = (1, 2, 3, Fraction(7, 2), 10, 1000, INF)
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


def infinite_set(measure):
    return [v for v, b in enumerate(measure) if b == INF]


def trimmed(graph, losing):
    """S' for S = ``losing``: the infinite set of what :func:`_trim` carries
    from a primal result that is infinite on S and 0 elsewhere."""
    return infinite_set(_trim(graph, tuple(INF if v in losing else 0 for v in range(graph.n))))


def reduction_outputs_alice_wins():
    """The distinct complete-bipartite reduction outputs of 2-node games
    with weight caps 1 and 2 whose input Alice wins at the start node, as
    in the ``reduction-batch`` benchmark pool."""
    outputs = {}
    for cap in (1, 2):
        for seed in range(40):
            graph = random_game(GenSpec("random", 2, 2, cap, seed))
            exact_energies = brute_force_energies(graph)
            for start in (0, 1):
                if exact_energies[start] != INF:
                    reduced, _, _ = to_win_everywhere(graph, start)
                    completed, _ = to_complete_bipartite(to_bipartite(reduced)[0])
                    outputs.setdefault(completed, None)
    return list(outputs)


class TestStartBound:
    def test_broken_measure_costs_time_not_the_answer(self, monkeypatch, fig3):
        # a measure that no longer bounds e* starts the rest's guess loop
        # below e*; where a node of the rest then comes back infinite, solve
        # runs the loop again from n'W' of the rest, and the answer stays.
        # A node that the region's completed dual leaves infinite gets n*W
        # after the trim, which no corruption here reaches, so a solve whose
        # loop starts at n*W is skipped
        corruptions = (
            # (nodes whose finite b is overwritten, with what, solves that rerun)
            (lambda graph, top: [top], 0, 54),
            (lambda graph, top: range(graph.n), 0, 58),
            (lambda graph, top: range(graph.n), -1, 58),  # max b is clamped to 0
        )
        instances = [fig3, DEEP_TRAP] + [small_random(seed) for seed in range(120)]
        instances.append(random_game(GenSpec("random", 200, 800, 100, 1)))
        real_trim = exact._trim
        counts = []
        for nodes, value, _ in corruptions:
            broken = reruns = 0
            for graph in instances:
                expected = full_range(graph)
                top = max(range(graph.n), key=lambda v: (expected[v] != INF, expected[v]))
                if expected[top] in (0, INF):
                    continue

                def trim_breaking(graph, energies):
                    measure = real_trim(graph, energies)
                    for v in nodes(graph, top):
                        if measure[v] != INF:
                            measure[v] = value
                    return measure

                with monkeypatch.context() as patch:
                    patch.setattr(exact, "_trim", trim_breaking)
                    report = solve(graph)
                if report.guesses[0].phases[0].bound == graph.default_bound():
                    continue
                assert report.energies == expected
                rest_bound = guessed_graph(graph)[0].default_bound()  # n'W'
                accepted = [i for i, guess in enumerate(report.guesses) if guess.accepted]
                assert accepted[-1] == len(report.guesses) - 1
                assert report.guesses[0].phases[0].bound < rest_bound
                if len(accepted) == 2:
                    assert report.guesses[accepted[0] + 1].phases[0].bound == rest_bound
                    reruns += 1
                else:
                    assert len(accepted) == 1
                broken += 1
            counts.append((broken, reruns))
        assert counts == [(58, pinned) for _, _, pinned in corruptions]

    def test_one_guess_at_a_floor_starts_at_n_times_w(self, monkeypatch, fig1):
        # minimal_energy_with_penalty_bound takes no carried bound: its one
        # guess records n*W as its first bound where solve starts lower
        first_bounds = []
        real_solve_level = exact._solve_level

        def recording(graph, floor, phases, bound):
            energies = real_solve_level(graph, floor, phases, bound)
            first_bounds.append(phases[0].bound)
            return energies

        graphs = [fig1, DEEP_TRAP, high_penalty_family(50, 2**16, 1)]
        for graph in graphs:
            assert solve(graph).guesses[0].phases[0].bound < graph.default_bound()
        monkeypatch.setattr(exact, "_solve_level", recording)
        for graph in graphs:
            for floor in (1, Fraction(3, 2), INF):
                first_bounds.clear()
                try:
                    minimal_energy_with_penalty_bound(graph, floor)
                except ValueError:
                    assert (graph, floor) == (DEEP_TRAP, INF)  # refuted at level 2
                assert first_bounds == [graph.default_bound()]

    def test_low_penalty_tail_and_reduction_outputs_match_full_range(self):
        # four low-penalty sweep games with 6 to 106 losing nodes: each region
        # is certified by its dual run.  Three carry a bound below n*W; in the
        # third game the dual leaves 10 winning nodes of S' infinite, which
        # carry n*W.  Of the 58 reduction outputs whose input Alice wins, 26
        # carry a bound below n*W
        for alice_pct, weight, seed, left in (
            (50, 10**5, 24, 0), (80, 10**5, 30, 0), (50, 10**3, 15, 10), (80, 10**5, 31, 0),
        ):
            graph = random_game(GenSpec("random", 200, 800, weight, seed, alice_pct=alice_pct))
            report = solve(graph)
            assert report.region.ended == "dual"
            assert report.region.phases[-1].dropped == left
            assert (report.guesses[0].phases[0].bound < graph.default_bound()) == (not left)
            assert report.energies == full_range(graph)
        carried = 0
        outputs = reduction_outputs_alice_wins()
        assert len(outputs) == 58
        for graph in outputs:
            report = solve(graph)
            assert report.energies == full_range(graph)
            assert INF not in report.energies
            carried += report.guesses[0].phases[0].bound < graph.default_bound()
        assert carried == 26


class TestLosingRegion:
    def test_certified_region_is_the_oracles_infinite_set(self, fig3):
        # acceptance criterion 5's families; its small_random seeds are 0..199
        instances = [small_random(seed) for seed in range(500)]
        instances += [fig3, SHALLOW_TRAP]
        instances += [high_penalty_instance(seed) for seed in range(40)]
        instances += [windowed_instance(seed)[1][0] for seed in range(40)]
        for n in (2, 3, 4, 5):
            edges = tuple((i, (i + 1) % n, -1 if i == 0 else 0) for i in range(n))
            instances.append(GameGraph(tuple(ALICE if i % 2 else BOB for i in range(n)), edges))
        certified_losing = 0
        for graph in instances:
            exact = brute_force_energies(graph)
            region, measure = _losing_region(graph)
            # the carried measure bounds e* from above
            assert all(e <= b for e, b in zip(exact, measure))
            assert infinite_set(measure) == [v for v in range(graph.n) if exact[v] == INF]
            certified_losing += bool(region.size)
            assert solve(graph).energies == exact
        assert certified_losing >= 100

    @pytest.mark.parametrize("heavy", [100, 1000, 10**6])
    def test_trap_with_a_zero_alice_cycle_is_never_certified(self, heavy):
        # Alice's cycle 0 -> 1 -> 0 totals 0 through a -1 edge, so she wins
        # everywhere, but the primal's coarse list climbs it to infinity; the
        # whole graph is then a trap and only the dual can reject it.  Its
        # run leaves all three nodes infinite, so no node is certified
        # losing
        graph = GameGraph((ALICE, ALICE, BOB), ((0, 1, -1), (1, 0, 1), (2, 0, heavy)))
        report = solve(graph)
        region = report.region
        assert (region.size, region.ended, region.phases[-1].dropped) == (0, "dual", 3)
        assert report.energies == brute_force_energies(graph) == (1, 0, 0)

    def test_set_alice_can_leave_is_not_certified(self):
        # at M = 100 the primal makes the negative cycle 0 <-> 1 infinite, but
        # Alice escapes from 0 along a dip of 200; the dual on {0, 1} alone
        # would be finite, yet her attractor to the winning nodes covers the
        # set, so the trim leaves nothing and no dual runs
        graph = GameGraph(
            (ALICE, BOB, ALICE, ALICE, ALICE),
            ((0, 1, -1), (1, 0, -1), (0, 2, -100), (2, 3, -100), (3, 4, 100), (4, 3, 0)),
        )
        report = solve(graph)
        assert report.energies == brute_force_energies(graph) == (200, 201, 100, 0, 0)
        region = report.region
        assert region.ended == "empty" and len(region.phases) == 1 and region.size == 0

    def test_attractor_covers_a_set_alice_can_leave(self):
        # Alice leaves S = {0, 1} from 0, and Bob's 1 can only move to 0
        graph = GameGraph((ALICE, BOB, ALICE), ((0, 1, 1), (1, 0, 2), (0, 2, 0), (2, 0, 0)))
        assert trimmed(graph, [0, 1]) == []

    def test_attractor_covers_a_bob_node_that_must_leave(self):
        # Bob's 1 can only leave S = {0, 1}, and Bob's 0 can only move to 1
        graph = GameGraph((BOB, BOB, ALICE), ((0, 1, 1), (1, 2, 2), (2, 0, 0)))
        assert trimmed(graph, [0, 1]) == []

    @pytest.mark.parametrize(
        "owners, edges, losing, expected",
        [
            # Alice's 0 has one edge out of S = {0, 1, 2}: attracted
            (
                (ALICE, BOB, BOB, ALICE),
                ((0, 1, 0), (0, 3, 0), (1, 2, 0), (2, 1, 0), (3, 0, 0)),
                [0, 1, 2],
                [1, 2],
            ),
            # Bob's 0 has every edge out of S = {0, 1, 2}: attracted
            (
                (BOB, ALICE, ALICE, ALICE),
                ((0, 3, 0), (0, 3, 1), (1, 2, 0), (2, 1, 0), (3, 0, 0)),
                [0, 1, 2],
                [1, 2],
            ),
            # Bob's 0 has one edge out of S = {0, 1} and one that stays: kept
            (
                (BOB, BOB, ALICE),
                ((0, 2, 0), (0, 1, 0), (1, 0, 0), (2, 0, 0)),
                [0, 1],
                [0, 1],
            ),
        ],
        ids=["alice-with-one-edge-out", "bob-with-every-edge-out", "bob-with-one-edge-staying"],
    )
    def test_attractor_takes_alice_on_one_edge_out_and_bob_on_all(
        self, owners, edges, losing, expected
    ):
        assert trimmed(GameGraph(owners, edges), losing) == expected

    def test_trim_carries_the_measure_through_the_attractor(self):
        # S = {0, 1, 2, 4, 5} and p(3) = 5.  Alice's 0 is attracted by 3
        # along -2: b(0) = 7.  Bob's 1 waits for both successors:
        # b(1) = max(7 - 3, 5 + 1) = 6.  Alice's 5 gets max(0, 5 - 10) = 0.
        # {2, 4} is a trap and stays infinite; node 3 keeps p(3).
        graph = GameGraph(
            (ALICE, BOB, ALICE, BOB, BOB, ALICE),
            ((0, 3, -2), (0, 1, 0), (1, 0, 3), (1, 3, -1), (2, 4, 0), (4, 2, 0), (3, 0, 1), (5, 3, 10)),
        )
        assert _trim(graph, (INF, INF, INF, 5, INF, INF)) == [7, 6, INF, 5, INF, 0]

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

    def test_completed_dual_certifies_its_finite_set(self):
        # each game's S' holds nodes that Alice wins, which the primal's coarse
        # list climbs to infinity; the dual run on S' leaves them infinite.
        # Its finite set is certified as the losing region, the oracle's
        # infinite set, and the nodes it leaves infinite carry n*W.  The
        # first two keep a losing node in S', the last two, the last of them
        # game 6 of CI's 12-node set, none.
        games = [
            (small_random(1689, max_n=10, max_w=1000), 3, 2),
            (small_random(2308, max_n=8, max_w=1000), 2, 2),
            (small_random(64), 0, 2),
            (random_game(GenSpec("random", 12, 30, 100, 6)), 0, 2),
        ]
        for graph, size, left in games:
            region, measure = _losing_region(graph)
            dual = region.phases[-1]
            assert region.ended == "dual" and len(region.phases) == 2
            assert (region.size, dual.nodes, dual.dropped) == (size, size + left, left)
            exact = brute_force_energies(graph)
            assert infinite_set(measure) == infinite_set(exact)
            assert measure.count(graph.default_bound()) >= left
            assert all(e <= b for e, b in zip(exact, measure))
            assert solve(graph).energies == exact

    def test_flooded_reduction_output_still_exact(self):
        # an output whose input Alice wins: the primal's coarse list climbs its
        # zero-total mixed-weight cycles to infinity, so S' is the whole
        # graph.  Its dual run leaves every node infinite, so nothing is
        # certified losing, every node carries n*W
        # and the guess loop solves the whole graph
        graph = random_game(GenSpec("random", n=2, m=2, max_weight=2, seed=1))
        reduced, _, _ = to_win_everywhere(graph, 1)
        completed, _ = to_complete_bipartite(to_bipartite(reduced)[0])
        report = solve(completed)
        region = report.region
        assert (region.size, region.ended) == (0, "dual")
        assert region.phases[-1].dropped == completed.n
        assert report.guesses[0].phases[0].bound == completed.default_bound()
        assert report.energies == full_range(completed)
        assert INF not in report.energies
        # a 12-node random game whose 12 nodes all lose: the primal floods
        # the whole graph too, and the dual run certifies every node, so no
        # guess runs
        graph = random_game(GenSpec("random", 12, 30, 100, 1553))
        report = solve(graph)
        assert (report.region.size, report.region.ended) == (12, "dual")
        assert not report.guesses and not report.fallback_used
        assert report.energies == full_range(graph) == (INF,) * 12

    @pytest.mark.parametrize(
        "graph, outcome, size",
        [
            (random_game(GenSpec("random", 12, 30, 100, 1)), "empty", 0),
            (random_game(GenSpec("random", 12, 30, 100, 5)), "dual: inside", 4),
            (random_game(GenSpec("random", 12, 30, 100, 95)), "dual: whole", 12),
            (random_game(GenSpec("random", 12, 30, 100, 6)), "dual: left", 0),
        ],
        ids=["empty-trap", "inside", "whole-graph", "left-infinite"],
    )
    def test_region_ends_every_way_it_can(self, graph, outcome, size):
        # The primal runs, and on a non-empty trap S' the dual.  A region
        # ends at an empty S' ("empty") or at the dual run ("dual"), which
        # certifies L strictly inside the graph, or the whole graph, or
        # leaves some of S' infinite.
        region, measure = _losing_region(graph)
        ended = region.ended
        if ended == "dual":
            kind = "left" if region.phases[-1].dropped else "whole" if region.size == graph.n else "inside"
            ended += ": " + kind
        assert (ended, region.size) == (outcome, size)
        assert len(region.phases) == 1 + (region.ended == "dual")
        expected = full_range(graph)
        assert infinite_set(measure) == infinite_set(expected)
        assert solve(graph).energies == expected

    def test_one_dual_run_certifies_the_region(self):
        # Every region ends "empty" or "dual" after at most two kernel calls,
        # its size is the number of INF entries of its measure, and that INF
        # set is the one of full-range value iteration.
        graphs = [small_random(seed) for seed in range(500)]
        graphs += [small_random(seed, max_n=12, max_w=1000, max_out=4) for seed in range(500)]
        graphs += [random_game(GenSpec("random", 12, 30, 100, seed)) for seed in (1553, 3663)]
        graphs += [zero_cycle_game(seed) for seed in range(3)]
        for graph in graphs:
            region, measure = _losing_region(graph)
            assert region.ended in ("empty", "dual") and len(region.phases) <= 2
            assert region.size == measure.count(INF)
            assert infinite_set(measure) == infinite_set(full_range(graph))

    def test_zero_cycle_games_at_size(self):
        # n = 10^4 games with long zero-total cycles: one primal and one
        # complete dual run keep each solve under 10^6 edge work
        for seed in range(3):
            graph = zero_cycle_game(seed, n=10**4)
            report = solve(graph)
            assert report.energies == full_range(graph), seed
            assert report.total_edge_work < 10**6, seed

    def test_zero_cycle_family_matches_full_range(self):
        outcomes = []
        for seed in range(3):
            graph = zero_cycle_game(seed)
            reference = full_range(graph)
            assert solve(graph).energies == reference
            outcomes.append(reference.count(INF))
        assert outcomes == [0, 100, 0]


def _digest(graphs):
    """SHA-256 of the concatenated ``repr`` of each graph's solved energies."""
    return hashlib.sha256("".join(repr(solve(g).energies) for g in graphs).encode()).hexdigest()


@pytest.mark.parametrize(
    "graphs, digest",
    [
        (
            lambda: [small_random(seed) for seed in range(500)],
            "3da1e8cd27718df0b316cd1a529f964138d3c0ddff6509387261320f40d6bd57",
        ),
        (
            lambda: [small_random(seed, max_n=12, max_w=1000, max_out=4) for seed in range(500)],
            "3e85165bd0cb246f9aa3ed8bfe42044b0d4a13fb4608e0428945f6e19d7cf4c0",
        ),
        (
            lambda: [zero_cycle_game(seed) for seed in range(3)],
            "9cd1b386b89a9c2dbb11b7f18b84d8889f582408431a4ec7b968897a47f8209c",
        ),
        (
            lambda: [random_game(GenSpec("random", 12, 30, 100, 3663))],
            "6d3042cff43230f3a236f104c9bb0681d9bb12c4c8f6c0c736736671cc7018f5",
        ),
        (
            lambda: [
                random_game(GenSpec("random", 200, 800, weight, seed, alice_pct=alice))
                for alice in (20, 50, 80)
                for weight in (10, 10**3, 10**5)
                for seed in range(40)
            ],
            "9bc48fb9b877d84d107c3a0fed9425e76262ed76251a2f266b69b41d87f820af",
        ),
        # The benchmark's seed-1 pools, rebuilt here from their recipes.
        (random_cli_pool, "d32287642858e67606b03f7bdd2c9c65e2d0527cc27652f40bd047cc037ce8ec"),
        (penalty_hub_pool, "f26644134c37391919d11f2718daccdaa43046b86f2101281f3597f170df072a"),
        (reduction_batch_pool, "d1878eea2916b97da853171696f307f76d33cebdd47dbafb7e63201bab9a8c62"),
        (fullrange_vi_pool, "1ca5ec9ad1c286d08c21e857701a28b36dc5121c560551295e2eca5e9df3e2ea"),
    ],
    ids=[
        "small-random",
        "twelve-node",
        "zero-cycle",
        "game-3663",
        "sweep",
        "random-cli",
        "penalty-hub",
        "reduction-batch",
        "fullrange-vi",
    ],
)
def test_energies_keep_their_digest(graphs, digest):
    # Fixed sets whose energies must not change, byte for byte, whatever a
    # change does to the solver's work.
    assert _digest(graphs()) == digest
