import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    approximate_energies,
    brute_force_energies,
    brute_force_penalty,
    round_weights,
)
from energygames.generators import high_penalty_family
from energygames.oracle import _lasso_walk

from game_helpers import all_edge_choices, simple_cycles, small_random


class TestRoundWeights:
    def test_reference_values(self):
        graph = GameGraph(
            (ALICE, BOB, BOB), ((0, 1, 7), (0, 2, 2), (1, 2, 4), (2, 0, -8))
        )
        rounded = round_weights(graph, 3)
        assert tuple(w for _, _, w in rounded.edges) == (9, 3, 6, -6)
        assert graph.edges[3][2] == -8  # input untouched

    def test_unit_granularity_is_identity(self, fig1):
        assert round_weights(fig1, 1).edges == fig1.edges

    def test_granularity_below_one_rejected(self, fig1):
        with pytest.raises(ValueError, match="^granularity must be positive$"):
            round_weights(fig1, 0)

    @given(st.integers(min_value=-10_000, max_value=10_000), st.integers(min_value=1, max_value=97))
    def test_rounding_bounds(self, weight, granularity):
        graph = GameGraph((ALICE, BOB), ((0, 1, weight), (1, 0, 0)))
        rounded = round_weights(graph, granularity).edges[0][2]
        assert weight <= rounded < weight + granularity
        assert rounded % granularity == 0


class TestApproximateEnergies:
    def test_reference_approximation(self, fig3):
        result = approximate_energies(fig3, bound=18, error_budget=9)
        assert all(e % 3 == 0 for e in result.energies if e != INF)  # B = 9 // 3
        assert result.energies == (0, 0, 6)
        exact = brute_force_energies(fig3)  # (0, 4, 8)
        for low, true in zip(result.energies, exact):
            assert low <= true <= low + 9

    def test_budget_below_node_count_rejected(self, fig3):
        with pytest.raises(ValueError):
            approximate_energies(fig3, bound=18, error_budget=2)

    def test_negative_bound_rejected(self, fig3):
        # the admissible list's check, the only one on this path
        with pytest.raises(ValueError, match="^bound must be non-negative$"):
            approximate_energies(fig3, bound=-1, error_budget=9)

    def test_budget_equal_to_node_count_is_exact(self):
        for seed in range(25):
            graph = small_random(seed, max_n=5)
            result = approximate_energies(graph, graph.default_bound(), graph.n)
            assert result.energies == brute_force_energies(graph)

    def test_unconditional_lower_bound(self):
        for seed in range(40):
            graph = small_random(seed, max_n=5)
            bound = graph.default_bound()
            exact = brute_force_energies(graph)
            for budget in (graph.n, 2 * graph.n, 4 * graph.n):
                result = approximate_energies(graph, bound, budget)
                assert all(a <= b for a, b in zip(result.energies, exact))

    def test_band_and_infinite_sets_on_high_penalty_instances(self):
        checked = 0
        for seed in range(60):
            graph = high_penalty_family(choices=2 + seed % 3, max_weight=8, seed=seed)
            penalty = brute_force_penalty(graph).graph_penalty
            n = graph.n
            budget = n * 4  # B = 4 = W/2 <= penalty on this family
            if penalty < 4:
                continue
            checked += 1
            exact = brute_force_energies(graph)
            result = approximate_energies(graph, graph.default_bound(), budget)
            for low, true in zip(result.energies, exact):
                if low == INF or true == INF:
                    assert low == true
                else:
                    assert low <= true <= low + budget

    def test_low_penalty_loses_the_upper_bound_but_not_the_lower(self, neg_two_cycle):
        # rounding at B=2 turns the -1,-1 cycle non-negative: the rounded
        # game is finite although the true game is lost everywhere
        exact = brute_force_energies(neg_two_cycle)
        assert exact == (INF, INF)
        result = approximate_energies(neg_two_cycle, bound=4, error_budget=4)
        assert all(v != INF for v in result.energies)


class TestPerPairRounding:
    def test_pairwise_bound_when_premise_holds(self):
        for seed in range(25):
            graph = small_random(seed, max_n=4)
            granularity = 1 + seed % 4
            rounded = round_weights(graph, granularity)
            slack = graph.n * granularity
            for choice in all_edge_choices(graph):
                true_vals, _ = _lasso_walk(graph, choice)
                rounded_vals, _ = _lasso_walk(rounded, choice)
                for t, r in zip(true_vals, rounded_vals):
                    if t == INF:
                        continue  # the bound only claims anything when the
                        # premise (true infinite implies rounded infinite) holds
                    assert r != INF and t <= r + slack


class TestNegativeCycleSurvival:
    def test_steep_cycles_stay_negative_after_rounding(self):
        for seed in range(40):
            graph = small_random(seed, max_n=5)
            granularity = 1 + seed % 5
            rounded = round_weights(graph, granularity)
            before = list(simple_cycles(graph))
            after = list(simple_cycles(rounded))
            # identical topology: the enumerations align cycle for cycle
            assert len(before) == len(after)
            for (w_before, length), (w_after, length_after) in zip(before, after):
                assert length == length_after
                if w_before <= -granularity * length:  # average <= -B
                    assert w_after < 0

    def test_rounded_energies_never_exceed_true(self):
        # the bound fed to the rounded solve stays valid because rounding up
        # weights can only lower minimal energies
        for seed in range(30):
            graph = small_random(seed, max_n=5)
            rounded = round_weights(graph, 1 + seed % 4)
            true_e = brute_force_energies(graph)
            rounded_e = brute_force_energies(rounded)
            assert all(r <= t for r, t in zip(rounded_e, true_e))
