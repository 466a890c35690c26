from fractions import Fraction

import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    StrategyPair,
    brute_force_energies,
    brute_force_penalty,
    eval_pair,
    find_ergodic_partition,
)
from energygames.oracle import BudgetExceeded, OracleBudget, _lasso_walk, pair_count

from game_helpers import all_edge_choices, dfs_path_minimum, small_random


class TestEvalPair:
    def test_bob_forces_the_negative_cycle(self, fig1):
        # sigma: 0->2 (edge 1); tau: 1->0 (edge 3), 2->0 (edge 5)
        pair = StrategyPair(sigma={0: 1}, tau={1: 3, 2: 5})
        assert eval_pair(fig1, pair, 0) == INF

    def test_positive_cycle_needs_nothing(self, fig1):
        # sigma: 0->1 (edge 0); tau: 1->0 (edge 3), 2->1 (edge 4)
        pair = StrategyPair(sigma={0: 0}, tau={1: 3, 2: 4})
        assert eval_pair(fig1, pair, 0) == 0

    def test_non_negative_cycle_of_non_negative_edges(self):
        graph = GameGraph((ALICE, ALICE, ALICE), ((0, 1, 2), (1, 2, 0), (2, 0, 5)))
        pair = StrategyPair(sigma={0: 0, 1: 1, 2: 2}, tau={})
        for start in range(3):
            assert eval_pair(graph, pair, start) == 0

    def test_wrong_edge_assignment_rejected(self, fig1):
        with pytest.raises(ValueError):
            eval_pair(fig1, StrategyPair(sigma={0: 2}, tau={1: 3, 2: 5}), 0)

    def test_successor_construction(self, fig1):
        pair = StrategyPair.from_successors(fig1, sigma={0: 2}, tau={1: 0, 2: 0})
        assert eval_pair(fig1, pair, 0) == INF
        with pytest.raises(ValueError):
            StrategyPair.from_successors(fig1, sigma={0: 0}, tau={})  # self-successor

    def test_matches_simple_path_enumeration(self):
        for seed in range(60):
            graph = small_random(seed, max_n=5)
            for choice in all_edge_choices(graph):
                values, cycles = _lasso_walk(graph, choice)
                for start in range(graph.n):
                    worst, negative = dfs_path_minimum(graph, choice, start)
                    expect = INF if negative else max(0, -(worst if worst is not None else 0))
                    assert values[start] == expect
                    assert (cycles[start][0] < 0) == negative


class TestBruteForceEnergies:
    def test_reference_graph(self, fig1):
        assert brute_force_energies(fig1) == (0, 4, 8)

    def test_bob_strategy_fixed(self, fig3):
        assert brute_force_energies(fig3) == (0, 4, 8)

    def test_non_negative_weights_need_nothing(self):
        graph = GameGraph((ALICE, BOB), ((0, 1, 3), (1, 0, 0)))
        assert brute_force_energies(graph) == (0, 0)

    def test_budget_guard(self, fig1):
        with pytest.raises(BudgetExceeded):
            brute_force_energies(fig1, OracleBudget(max_pairs=3))
        assert pair_count(fig1) == 8

    def test_monotone_under_weight_increase(self):
        for seed in range(40):
            graph = small_random(seed, max_n=5)
            low = brute_force_energies(graph)
            bumps = [(seed + i) % 3 for i in range(graph.m)]
            raised = GameGraph(
                graph.owners,
                tuple((s, d, w + b) for (s, d, w), b in zip(graph.edges, bumps)),
            )
            high = brute_force_energies(raised)
            assert all(a >= b for a, b in zip(low, high))


class TestBruteForcePenalty:
    def test_reference_penalty(self, fig3):
        report = brute_force_penalty(fig3)
        assert report.per_node == (Fraction(3), Fraction(3), Fraction(3))
        assert report.graph_penalty == 3

    def test_no_negative_cycle_means_infinite(self):
        graph = GameGraph((ALICE, BOB), ((0, 1, 3), (1, 0, 0)))
        report = brute_force_penalty(graph)
        assert report.per_node == (INF, INF)

    def test_forced_single_negative_cycle(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, -1), (1, 2, -3), (2, 0, -1)))
        report = brute_force_penalty(graph)
        assert report.per_node == (Fraction(5, 3),) * 3

    def test_global_reading_no_larger_than_per_node(self):
        for seed in range(40):
            graph = small_random(seed, max_n=5)
            report = brute_force_penalty(graph)
            for per_s, global_s in zip(report.per_node, report.per_node_global):
                assert global_s <= per_s

    def test_finite_penalties_at_least_one_over_n(self):
        for seed in range(40):
            graph = small_random(seed, max_n=5)
            report = brute_force_penalty(graph)
            for value in report.per_node:
                if value != INF:
                    assert value >= Fraction(1, graph.n)


class TestErgodicPartition:
    def test_complete_bipartite_has_none(self):
        graph = GameGraph(
            (ALICE, ALICE, BOB, BOB),
            tuple((a, b, 1) for a in (0, 1) for b in (2, 3))
            + tuple((b, a, -1) for b in (2, 3) for a in (0, 1)),
        )
        assert find_ergodic_partition(graph) is None

    def test_disjoint_owner_cycles_split(self):
        graph = GameGraph(
            (ALICE, ALICE, BOB, BOB),
            ((0, 1, 0), (1, 0, 0), (2, 3, 0), (3, 2, 0)),
        )
        partition = find_ergodic_partition(graph)
        assert partition is not None
        side_a, side_b = partition
        assert side_a | side_b == {0, 1, 2, 3}
        assert side_a and side_b

    def test_single_alice_cycle_has_none(self):
        graph = GameGraph((ALICE, ALICE, ALICE), ((0, 1, 1), (1, 2, 1), (2, 0, 1)))
        assert find_ergodic_partition(graph) is None

    def test_node_budget(self):
        graph = GameGraph((ALICE, BOB), ((0, 1, 0), (1, 0, 0)))
        with pytest.raises(BudgetExceeded):
            find_ergodic_partition(graph, OracleBudget(max_nodes=1))

    def test_returned_partition_satisfies_conditions(self):
        for seed in range(60):
            graph = small_random(seed, max_n=5)
            partition = find_ergodic_partition(graph)
            if partition is None:
                continue
            side_a, side_b = partition
            succ = lambda v: {graph.edges[i][1] for i in graph.out_edges[v]}
            for v in side_a:
                if graph.owners[v] == ALICE:
                    assert succ(v) & side_a
                else:
                    assert not succ(v) & side_b
            for v in side_b:
                if graph.owners[v] == BOB:
                    assert succ(v) & side_b
                else:
                    assert not succ(v) & side_a
