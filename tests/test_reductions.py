import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    brute_force_energies,
    find_ergodic_partition,
    is_bipartite,
    is_complete_bipartite,
    to_bipartite,
    to_complete_bipartite,
    to_win_everywhere,
    validate,
)
from energygames.exact import solve

from game_helpers import small_random


def winners(graph: GameGraph) -> tuple[bool, ...]:
    """Per node: True iff Alice wins (finite minimal energy), via the exact
    solver."""
    return tuple(v != INF for v in solve(graph).energies)


class TestWinEverywhere:
    def test_node_and_edge_counts(self, fig1):
        reduced, start, trace = to_win_everywhere(fig1, 0)
        assert reduced.n == fig1.n + 2 * fig1.m == 15
        assert reduced.m == 5 * fig1.m == 30
        assert start == 0
        assert validate(reduced) == ()
        assert len(trace.node_origin) == reduced.n

    def test_parallel_bailout_edges_for_edges_into_start(self, fig1):
        # edges 1->0 and 2->0 produce relays whose forward edge and bailout
        # edge both point at node 0: both are kept, with distinct weights
        reduced, _, _ = to_win_everywhere(fig1, 0)
        from collections import Counter

        pairs = Counter((s, d) for s, d, _ in reduced.edges)
        assert max(pairs.values()) == 2

    def test_winner_preserved_and_uniform_alice(self, fig1):
        assert brute_force_energies(fig1)[0] != INF  # Alice wins at 0
        reduced, start, _ = to_win_everywhere(fig1, 0)
        outcome = winners(reduced)
        assert outcome[start]
        assert all(outcome)

    def test_winner_preserved_and_uniform_bob(self, neg_two_cycle):
        for start in (0, 1):
            reduced, _, _ = to_win_everywhere(neg_two_cycle, start)
            outcome = winners(reduced)
            assert not any(outcome)

    def test_small_output_agrees_with_full_oracle(self, neg_two_cycle):
        reduced, _, _ = to_win_everywhere(neg_two_cycle, 0)
        assert solve(reduced).energies == brute_force_energies(reduced)

    def test_zero_weight_corner(self):
        graph = GameGraph((ALICE, BOB), ((0, 1, 0), (1, 0, 0)))
        reduced, _, _ = to_win_everywhere(graph, 0)
        assert all(w == 0 for _, _, w in reduced.edges)
        assert all(winners(reduced))


class TestBipartite:
    def test_already_bipartite_is_identity(self):
        graph = GameGraph((ALICE, BOB), ((0, 1, 3), (1, 0, -1)))
        reduced, trace = to_bipartite(graph)
        assert reduced == graph
        assert len(trace.node_origin) == graph.n

    def test_reference_graph_gains_two_relays(self, fig1):
        reduced, trace = to_bipartite(fig1)
        assert reduced.n == 5  # edges 1->2 and 2->1 join two Bob nodes
        assert is_bipartite(reduced)
        assert reduced.owners[3] == ALICE and reduced.owners[4] == ALICE
        assert brute_force_energies(reduced)[:3] == (0, 4, 8)

    def test_all_alice_two_cycle(self):
        graph = GameGraph((ALICE, ALICE), ((0, 1, 1), (1, 0, -1)))
        reduced, _ = to_bipartite(graph)
        assert reduced.n == 4 and reduced.m == 4
        assert sum(1 for o in reduced.owners if o == BOB) == 2

    def test_energies_preserved_on_random_instances(self):
        for seed in range(40):
            graph = small_random(seed, max_n=4)
            reduced, _ = to_bipartite(graph)
            assert is_bipartite(reduced)
            assert validate(reduced) == ()
            assert brute_force_energies(reduced)[: graph.n] == brute_force_energies(graph)


class TestCompleteBipartite:
    def test_missing_pair_counting(self):
        # 2 Alice, 2 Bob; 3 of 4 A->B pairs and 2 of 4 B->A pairs present
        graph = GameGraph(
            (ALICE, ALICE, BOB, BOB),
            ((0, 2, 1), (0, 3, 1), (1, 2, 1), (2, 0, 1), (3, 1, 1)),
        )
        reduced, _ = to_complete_bipartite(graph)
        added = reduced.m - graph.m
        assert added == 3
        assert reduced.edges[: graph.m] == graph.edges
        # one Alice fill edge of weight -n*W = -4*1; W' = 4 after it, so the
        # two Bob fill edges weigh n^2*W' = 16*4
        assert reduced.edges[graph.m :] == ((1, 3, -4), (2, 1, 64), (3, 0, 64))
        assert is_complete_bipartite(reduced)

    def test_complete_input_is_identity(self):
        graph = GameGraph(
            (ALICE, BOB), ((0, 1, 2), (1, 0, -2))
        )
        reduced, _ = to_complete_bipartite(graph)
        assert reduced == graph

    def test_bob_fill_without_alice_fill_weighs_n_squared_w(self):
        # every Alice->Bob pair is present, so the Alice fill adds nothing and
        # W' stays W = 3: the Bob fill edges weigh n^2*W = 16*3
        graph = GameGraph(
            (ALICE, ALICE, BOB, BOB),
            ((0, 2, 3), (0, 3, 1), (1, 2, -2), (1, 3, 0), (2, 0, 1)),
        )
        reduced, _ = to_complete_bipartite(graph)
        assert reduced.edges[graph.m :] == ((2, 1, 48), (3, 0, 48), (3, 1, 48))
        assert is_complete_bipartite(reduced)

    def test_non_bipartite_rejected(self, fig1):
        with pytest.raises(ValueError):
            to_complete_bipartite(fig1)

    def test_winner_preserved_on_win_everywhere_inputs(self):
        # two-node inputs keep the completed pipeline output at 10 nodes,
        # which is the largest size the winner check can afford here
        seen = 0
        for seed in range(12):
            graph = GameGraph(
                (ALICE, BOB) if seed % 2 else (BOB, ALICE),
                ((0, 1, (seed % 3) - 1), (1, 0, ((seed // 3) % 3) - 1)),
            )
            we, _, _ = to_win_everywhere(graph, seed % 2)
            bip, _ = to_bipartite(we)
            complete, _ = to_complete_bipartite(bip)
            assert is_complete_bipartite(complete)
            before = winners(bip)
            after = winners(complete)
            assert len(set(before)) == 1, "precondition: uniform winner"
            assert set(after) == set(before)
            seen += 1
        assert seen == 12


class TestIsCompleteBipartite:
    def test_reference_graph_is_not(self, fig1):
        assert not is_complete_bipartite(fig1)

    def test_missing_cross_pair_fails(self):
        graph = GameGraph(
            (ALICE, ALICE, BOB), ((0, 2, 1), (2, 0, 1), (1, 2, 1), (2, 1, 1))
        )
        assert is_bipartite(graph)
        assert is_complete_bipartite(graph)
        pruned = GameGraph(graph.owners, graph.edges[1:])
        assert not is_complete_bipartite(pruned)

    def test_completion_outputs_are_ergodic(self):
        for seed in range(6):
            graph = GameGraph(
                (ALICE, BOB) if seed % 2 else (ALICE, ALICE),
                ((0, 1, seed % 2), (1, 0, -(seed % 3))),
            )
            we, _, _ = to_win_everywhere(graph, 0)
            bip, _ = to_bipartite(we)
            complete, _ = to_complete_bipartite(bip)
            assert complete.n <= 10
            assert find_ergodic_partition(complete) is None
