from fractions import Fraction

import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    brute_force_energies,
    brute_force_penalty,
    eval_pair,
    find_ergodic_partition,
)
from energygames.oracle import BudgetExceeded, _lasso_walk

from game_helpers import all_edge_choices, dfs_path_minimum, small_random


class TestEvalPair:
    # fig1's edges: 0: 0->1, 1: 0->2, 2: 1->2, 3: 1->0, 4: 2->1, 5: 2->0
    def test_bob_forces_the_negative_cycle(self, fig1):
        # 0->2 (edge 1); Bob: 1->0 (edge 3), 2->0 (edge 5)
        assert eval_pair(fig1, (1, 3, 5), 0) == INF

    def test_positive_cycle_needs_nothing(self, fig1):
        # 0->1 (edge 0); Bob: 1->0 (edge 3), 2->1 (edge 4)
        assert eval_pair(fig1, (0, 3, 4), 0) == 0

    def test_non_negative_cycle_of_non_negative_edges(self):
        graph = GameGraph((ALICE, ALICE, ALICE), ((0, 1, 2), (1, 2, 0), (2, 0, 5)))
        for start in range(3):
            assert eval_pair(graph, (0, 1, 2), start) == 0

    def test_wrong_edge_assignment_rejected(self, fig1):
        with pytest.raises(ValueError, match="edge 2 does not leave node 0"):
            eval_pair(fig1, (2, 3, 5), 0)

    @pytest.mark.parametrize(
        "choice, fragment",
        [
            ((1, 3), "expected 3 edge choices, got 2"),
            ((1, 3, 5, 0), "expected 3 edge choices, got 4"),
            ((1, 3, 6), "edge 6 does not leave node 2"),
            ((-6, 3, 5), "edge -6 does not leave node 0"),  # would alias edge 0
        ],
    )
    def test_malformed_choice_rejected(self, fig1, choice, fragment):
        with pytest.raises(ValueError, match=fragment):
            eval_pair(fig1, choice, 0)

    @pytest.mark.parametrize(
        "game, start, message",
        [
            pytest.param("fig1", -1, "node -1 out of range 0..2", id="-1"),  # would alias node 2
            pytest.param("fig1", 3, "node 3 out of range 0..2", id="3"),  # would index past the end
            pytest.param("empty", 0, "node 0 out of range: the game has no nodes", id="empty-0"),
        ],
    )
    def test_start_out_of_range_rejected(self, fig1, game, start, message):
        graph, choice = (fig1, (0, 3, 4)) if game == "fig1" else (GameGraph((), ()), ())
        with pytest.raises(ValueError, match=f"^{message}$"):
            eval_pair(graph, choice, start)

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
            brute_force_energies(fig1, 3)
        # fig1 has out-degrees 2, 2, 2: 8 strategy pairs
        with pytest.raises(BudgetExceeded, match="^8 strategy pairs exceed the budget 7$"):
            brute_force_energies(fig1, 7)
        assert brute_force_energies(fig1, 8) == (0, 4, 8)
        # no game has fewer than one strategy pair
        for enumerate_ in (brute_force_energies, brute_force_penalty):
            for budget in (0, -1):
                with pytest.raises(ValueError, match=f"^max_pairs must be at least 1, got {budget}$"):
                    enumerate_(fig1, budget)

    @pytest.mark.parametrize("owners", [(ALICE, BOB), (BOB, ALICE)], ids=["bob-sink", "alice-sink"])
    @pytest.mark.parametrize("enumerate_", [brute_force_energies, brute_force_penalty])
    def test_sink_rejected(self, owners, enumerate_):
        # node 1 is a sink, which both enumerations refuse as the solvers do
        graph = GameGraph(owners, ((0, 1, 1),))
        with pytest.raises(ValueError, match="^node 1 has no out-edge; every node needs one$"):
            enumerate_(graph)

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
        # An 11-node cycle is one node above the partition search's cap.
        owners = (ALICE, BOB) * 5 + (ALICE,)
        graph = GameGraph(owners, tuple((v, (v + 1) % 11, 0) for v in range(11)))
        with pytest.raises(BudgetExceeded, match="11 nodes exceed the partition budget 10"):
            find_ergodic_partition(graph)

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
