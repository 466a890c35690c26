import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    brute_force_energies,
    full_list,
    multiples_list,
    solve_with_list,
    verify_minimal,
    window_list,
)
from energygames.generators import GenSpec, windowed_game

from game_helpers import small_random


def _universal(graph):
    return full_list(graph.default_bound())


class TestSolveWithList:
    def test_reference_graph(self, fig1):
        result = solve_with_list(fig1, full_list(24))
        assert result.energies == (0, 4, 8)
        assert verify_minimal(fig1, result.energies)

    def test_non_negative_weights_converge_without_updates(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 2), (1, 2, 0), (2, 0, 5)))
        result = solve_with_list(graph, _universal(graph))
        assert result.energies == (0, 0, 0)
        assert result.total_updates == 0

    def test_losing_chain_goes_infinite(self):
        # Alice node feeding a forced cycle of total -2
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 0), (1, 2, -1), (2, 1, -1)))
        assert brute_force_energies(graph) == (INF, INF, INF)
        result = solve_with_list(graph, _universal(graph))
        assert result.energies == (INF, INF, INF)

    def test_agrees_with_oracle(self):
        # Every update strictly increases (the kernel asserts it), so final
        # energies equal to the oracle's mean no value ever exceeded them.  A
        # drifted Alice counter either queues a satisfied node, whose update
        # then fails that assert, or leaves a violated node unqueued, which
        # ends below the oracle.
        graphs = [small_random(seed) for seed in range(80)]
        graphs += [small_random(seed, max_n=5) for seed in range(25)]
        for graph in graphs:
            result = solve_with_list(graph, _universal(graph))
            assert result.energies == brute_force_energies(graph)

    def test_update_bound(self):
        for seed in range(25):
            graph = small_random(seed)
            lst = _universal(graph)
            result = solve_with_list(graph, lst)
            assert result.total_updates <= graph.n * len(lst)
            for per_node in result.updates:
                assert per_node <= len(lst)

    def test_coarse_list_on_multiple_weights(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 9), (0, 2, 3), (1, 2, 6), (2, 0, -6)))
        result = solve_with_list(graph, multiples_list(3, 18))
        assert result.energies == brute_force_energies(graph)

    def test_windowed_list_matches_oracle(self):
        for seed in range(25):
            spec = GenSpec(
                family="window",
                n=4,
                m=7,
                max_weight=10,
                seed=seed,
                d=2,
                delta=1,
                center_lo=-5,
                center_hi=5,
            )
            graph, centers = windowed_game(spec)
            lst = window_list(list(centers), spec.delta, graph.n, graph.default_bound())
            result = solve_with_list(graph, lst)
            assert result.energies == brute_force_energies(graph)

    def test_self_loops_rejected(self):
        graph = GameGraph((ALICE,), ((0, 0, 1),))
        for _ in range(2):  # the graph caches its adjacency, but not a failure
            with pytest.raises(ValueError, match="self-loops"):
                solve_with_list(graph, full_list(1))

    @pytest.mark.parametrize("owners", [(ALICE, BOB), (BOB, ALICE)])
    def test_sinks_rejected(self, owners):
        graph = GameGraph(owners, ((1, 0, -1),))
        for _ in range(2):
            with pytest.raises(ValueError, match="out-edge"):
                solve_with_list(graph, full_list(2))

    def test_weights_act_as_the_edge_weights(self):
        # Calls on one graph share its cached adjacency, so each must equal
        # the call on a fresh graph that carries its weights: no state from
        # an earlier call's weights may leak into the next.
        for seed in range(60):
            graph = small_random(seed)
            shifted = [3 * w - seed % 7 for _, _, w in graph.edges]
            negated = [-w for _, _, w in graph.edges]
            lst = full_list(graph.n * max(map(abs, shifted + negated)))
            for weights in (shifted, None, negated, shifted):
                own = [w for _, _, w in graph.edges] if weights is None else weights
                fresh = GameGraph(
                    graph.owners, tuple((s, d, w) for (s, d, _), w in zip(graph.edges, own))
                )
                assert solve_with_list(graph, lst, weights) == solve_with_list(fresh, lst)

    def test_weights_need_one_per_edge(self, fig1):
        with pytest.raises(ValueError, match="5 weights for 6 edges"):
            solve_with_list(fig1, full_list(24), [0] * 5)

    def test_steps_account_for_list_positions(self, fig1):
        result = solve_with_list(fig1, full_list(24))
        # with a unit-spaced list, positions advanced equal the energy climbed
        assert result.steps == sum(result.energies)
        assert result.edge_work > 0
