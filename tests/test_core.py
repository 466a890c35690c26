import random

import pytest

from energygames import (
    ALICE,
    BOB,
    INF,
    GameGraph,
    PotentialContractError,
    apply_potential,
    brute_force_energies,
    eliminate_self_loops,
    full_list,
    solve_with_list,
    validate,
    verify_minimal,
)

from game_helpers import induced_subgraph, simple_cycles, small_random


class TestValidate:
    def test_reference_graph_is_valid(self, fig1):
        assert validate(fig1).ok

    def test_sink_node_reported(self):
        graph = GameGraph((ALICE, BOB), ((0, 1, 3),))
        report = validate(graph)
        assert not report.ok
        assert any("sink" in p and "1" in p for p in report.problems)

    def test_self_loop_reported(self):
        graph = GameGraph((ALICE, BOB), ((0, 0, 1), (0, 1, 1), (1, 0, 2)))
        report = validate(graph)
        assert not report.ok
        assert any("self-loop" in p for p in report.problems)

    def test_weight_headroom_checked(self):
        huge = 2**62
        graph = GameGraph((ALICE, BOB), ((0, 1, huge), (1, 0, -huge)))
        report = validate(graph)
        assert any("headroom" in p for p in report.problems)

    def test_bad_owner_rejected_at_construction(self):
        with pytest.raises(ValueError):
            GameGraph(("X",), ())

    def test_edge_out_of_range_rejected(self):
        # True is an int, but as an endpoint or a weight it emits as "True"
        for edges in (((0, 3, 1),), ((0, True, 1),), ((0, 1, True),)):
            with pytest.raises(ValueError):
                GameGraph((ALICE, BOB), edges)


class TestEliminateSelfLoops:
    def test_loop_free_graph_unchanged(self, fig1):
        assert eliminate_self_loops(fig1) is fig1

    def test_single_loop_becomes_relay_cycle(self):
        graph = GameGraph((ALICE,), ((0, 0, -1),))
        fixed = eliminate_self_loops(graph)
        assert fixed.n == 2 and fixed.m == 2
        assert sorted(fixed.edges) == [(0, 1, -1), (1, 0, -1)]
        assert fixed.owners == (ALICE, BOB)
        assert validate(fixed).ok

    def test_zero_loop_keeps_zero_energy(self):
        graph = GameGraph((ALICE,), ((0, 0, 0),))
        fixed = eliminate_self_loops(graph)
        assert brute_force_energies(fixed) == (0, 0)

    def test_idempotent_and_energy_preserving(self):
        # the strategy-walk oracle handles self-loops directly, so it can
        # arbitrate: energies at original nodes must survive normalization
        for seed in range(30):
            base = small_random(seed, max_n=4)
            graph = GameGraph(base.owners, base.edges + ((0, 0, seed % 5 - 2),))
            fixed = eliminate_self_loops(graph)
            assert validate(fixed).ok
            assert eliminate_self_loops(fixed) is fixed
            with_loop = brute_force_energies(graph)
            without_loop = brute_force_energies(fixed)
            assert without_loop[: graph.n] == with_loop


class TestVerifyMinimal:
    def test_reference_energies_pass(self, fig1):
        assert verify_minimal(fig1, (0, 4, 8))

    def test_zero_function_fails(self, fig1):
        # node 1 requires max(max(0-4,0), max(0+2,0)) = 2, not 0
        assert not verify_minimal(fig1, (0, 0, 0))

    def test_all_infinite_is_a_fixed_point_even_when_alice_wins(self, fig1):
        # the equations alone cannot rule out the inflated all-infinite
        # solution; minimality needs more than the local check
        assert verify_minimal(fig1, (INF, INF, INF))

    def test_oracle_energies_always_pass(self):
        for seed in range(40):
            graph = small_random(seed)
            assert verify_minimal(graph, brute_force_energies(graph))

    def test_single_node_bumps_always_fail(self):
        for seed in range(25):
            graph = small_random(seed)
            exact = brute_force_energies(graph)
            for v in range(graph.n):
                if exact[v] == INF:
                    continue
                bumped = exact[:v] + (exact[v] + 1,) + exact[v + 1 :]
                assert not verify_minimal(graph, bumped)

    def test_matches_the_per_node_definition(self):
        # the equations read node by node, as they are stated
        def targets(graph, e, node):
            for i in graph.out_edges[node]:
                _, dst, weight = graph.edges[i]
                yield max(e[dst] - weight, 0)

        def per_node(graph, e):
            return all(
                e[node] == (min if graph.is_alice(node) else max)(targets(graph, e, node))
                for node in range(graph.n)
            )

        rng = random.Random(7)
        outcomes = []
        for seed in range(300):
            graph = small_random(seed, max_out=4)
            exact = solve_with_list(graph, full_list(graph.default_bound())).energies
            candidates = [exact, (INF,) * graph.n, (0,) * graph.n]
            for _ in range(5):
                candidates.append(tuple(
                    INF if rng.random() < 0.1 else e if e == INF else max(0, e + rng.randint(-1, 1))
                    for e in exact
                ))
            for e in candidates:
                got = verify_minimal(graph, e)
                assert got == per_node(graph, e), (seed, e)
                outcomes.append(got)
        assert 0 < sum(outcomes) < len(outcomes)

    @pytest.mark.parametrize("owner", [ALICE, BOB])
    def test_sink_rejected(self, owner):
        graph = GameGraph((ALICE, owner), ((0, 1, 0),))
        with pytest.raises(ValueError, match="out-edge"):
            verify_minimal(graph, (0, 0))


class TestApplyPotential:
    def test_reference_transform(self, fig3):
        result = apply_potential(fig3, (0, 0, 6))
        assert result.kept == (0, 1, 2)
        assert result.graph.edges == ((0, 1, 7), (0, 2, -4), (1, 2, -2), (2, 0, -2))
        cycles_before = sorted(simple_cycles(fig3))
        cycles_after = sorted(simple_cycles(result.graph))
        assert cycles_before == cycles_after

    def test_zero_potential_is_identity(self, fig1):
        result = apply_potential(fig1, (0, 0, 0))
        assert result.graph.edges == fig1.edges
        assert result.kept == (0, 1, 2)

    def test_cycle_totals_preserved_on_random_instances(self):
        # the cycle multiset of the surviving subgraph is weight-invariant,
        # both for the exact energies and for strict lower bounds of them
        for seed in range(30):
            graph = small_random(seed)
            exact = brute_force_energies(graph)
            halved = tuple(v if v == INF else v // 2 for v in exact)
            for potential in (exact, halved):
                result = apply_potential(graph, potential)
                before = sorted(simple_cycles(induced_subgraph(graph, set(result.kept))))
                after = sorted(simple_cycles(result.graph))
                assert before == after

    def test_out_degree_preserved(self):
        for seed in range(30):
            graph = small_random(seed)
            result = apply_potential(graph, brute_force_energies(graph))
            for v in range(result.graph.n):
                assert result.graph.out_degree(v) >= 1

    def test_bob_edge_into_infinite_region_rejected(self):
        graph = GameGraph((BOB, ALICE, BOB), ((0, 1, 0), (1, 0, 0), (0, 2, 0), (2, 0, 0)))
        with pytest.raises(PotentialContractError):
            apply_potential(graph, (0, 0, INF))

    def test_alice_without_finite_successor_rejected(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 0), (1, 0, 0), (0, 2, 0), (2, 0, 0)))
        with pytest.raises(PotentialContractError):
            apply_potential(graph, (0, INF, INF))

    def test_lift_restores_dropped_nodes_as_infinite(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 0), (1, 0, 0), (0, 2, 0), (2, 2, -1)))
        graph = eliminate_self_loops(graph)
        energies = brute_force_energies(graph)
        result = apply_potential(graph, energies)
        lifted = result.lift((0,) * result.graph.n, graph.n)
        for v in range(graph.n):
            if energies[v] == INF:
                assert lifted[v] == INF
            else:
                assert lifted[v] == energies[v]

