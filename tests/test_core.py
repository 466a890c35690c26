import random
import re

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
    to_bipartite,
    to_complete_bipartite,
    validate,
    verify_minimal,
)

from game_helpers import induced_subgraph, simple_cycles, small_random


class TestValidate:
    def test_reference_graph_is_valid(self, fig1):
        assert validate(fig1) == ()

    def test_sink_node_reported(self):
        graph = GameGraph((ALICE, BOB), ((0, 1, 3),))
        assert any("sink" in p and "1" in p for p in validate(graph))

    def test_self_loop_reported(self):
        graph = GameGraph((ALICE, BOB), ((0, 0, 1), (0, 1, 1), (1, 0, 2)))
        assert any("self-loop" in p for p in validate(graph))

    def test_weight_headroom_checked(self):
        huge = 2**62
        graph = GameGraph((ALICE, BOB), ((0, 1, huge), (1, 0, -huge)))
        assert any("headroom" in p for p in validate(graph))

    def test_problems_listed_sinks_then_self_loops_then_headroom(self):
        huge = 2**62
        graph = GameGraph(
            (ALICE, BOB, ALICE, BOB),
            ((2, 2, huge), (0, 0, 1), (0, 2, -huge), (2, 0, 1)),
        )
        assert validate(graph) == (
            "node 1: sink node (out-degree 0)",
            "node 3: sink node (out-degree 0)",
            "edge 0 (2->2): self-loop (normalize first)",
            "edge 1 (0->0): self-loop (normalize first)",
            f"weights: n^2*W has 67 bits, over the 64-bit headroom {2**63 - 1}",
        )

    def test_bad_owner_rejected_at_construction(self):
        with pytest.raises(ValueError):
            GameGraph(("X",), ())

    def test_edge_out_of_range_rejected(self):
        # True is an int, but as an endpoint or a weight it emits as "True"
        for edges in (((0, 3, 1),), ((0, True, 1),), ((0, 1, True),)):
            with pytest.raises(ValueError):
                GameGraph((ALICE, BOB), edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((0, 1),), "edge 0 (0, 1) is not a (source, target, weight) triple"),
            (((0, 1, 1, 5),), "edge 0 (0, 1, 1, 5) is not a (source, target, weight) triple"),
            ((5,), "edge 0 5 is not a (source, target, weight) triple"),
            # named before an earlier edge's out-of-range endpoint
            ([[0, 3, 1], [1, 0]], "edge 1 (1, 0) is not a (source, target, weight) triple"),
        ],
        ids=["two-fields", "four-fields", "not-a-sequence", "after-a-range-error"],
    )
    def test_malformed_edge_named(self, edges, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GameGraph((ALICE, BOB), edges)

    def test_list_built_game_is_a_value(self):
        owners, edges = (ALICE, BOB), ((0, 1, 1), (1, 0, -1))
        twin = GameGraph(owners, edges)
        assert twin.owners is owners and twin.edges is edges  # tuples are kept, not copied
        graph = GameGraph([ALICE, BOB], [[0, 1, 1], (1, 0, -1)])
        assert graph == twin and hash(graph) == hash(twin)
        completed, _ = to_complete_bipartite(twin)
        assert to_complete_bipartite(graph)[0] == completed
        split, _ = to_bipartite(graph)
        assert to_complete_bipartite(split)[0] == to_complete_bipartite(to_bipartite(twin)[0])[0]


class TestEliminateSelfLoops:
    def test_loop_free_graph_unchanged(self, fig1):
        assert eliminate_self_loops(fig1) is fig1

    def test_single_loop_becomes_relay_cycle(self):
        graph = GameGraph((ALICE,), ((0, 0, -1),))
        fixed = eliminate_self_loops(graph)
        assert fixed.n == 2 and fixed.m == 2
        assert sorted(fixed.edges) == [(0, 1, -1), (1, 0, -1)]
        assert fixed.owners == (ALICE, BOB)
        assert validate(fixed) == ()

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
            assert validate(fixed) == ()
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

    @pytest.mark.parametrize("energies", [(0, 4), (0, 4, 8, 0)], ids=["short", "long"])
    def test_wrong_length_rejected(self, fig1, energies):
        with pytest.raises(ValueError, match=f"^expected 3 energies, got {len(energies)}$"):
            verify_minimal(fig1, energies)


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
            assert all(result.graph.out_edges)

    def test_bob_edge_into_infinite_region_rejected(self):
        graph = GameGraph((BOB, ALICE, BOB), ((0, 1, 0), (1, 0, 0), (0, 2, 0), (2, 0, 0)))
        with pytest.raises(PotentialContractError):
            apply_potential(graph, (0, 0, INF))

    def test_alice_without_finite_successor_rejected(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 0), (1, 0, 0), (0, 2, 0), (2, 0, 0)))
        with pytest.raises(PotentialContractError):
            apply_potential(graph, (0, INF, INF))

    @pytest.mark.parametrize("energies", [(0, 4), (0, 4, 8, 0)], ids=["short", "long"])
    def test_wrong_length_rejected(self, fig1, energies):
        with pytest.raises(ValueError, match=f"^expected 3 energies, got {len(energies)}$"):
            apply_potential(fig1, energies)

    def test_lift_restores_dropped_nodes_as_infinite(self):
        graph = GameGraph((ALICE, BOB, BOB), ((0, 1, 0), (1, 0, 0), (0, 2, 0), (2, 2, -1)))
        graph = eliminate_self_loops(graph)
        energies = brute_force_energies(graph)
        result = apply_potential(graph, energies)
        lifted = result.lift((0,) * result.graph.n)
        assert len(lifted) == graph.n
        for v in range(graph.n):
            if energies[v] == INF:
                assert lifted[v] == INF
            else:
                assert lifted[v] == energies[v]
        # dropping no node lifts to the potential plus the sub-energies;
        # dropping every node lifts an empty vector to all-infinite
        potential = tuple(range(graph.n))
        kept_all = apply_potential(graph, potential)
        assert kept_all.lift((1,) * graph.n) == tuple(p + 1 for p in potential)
        dropped_all = apply_potential(graph, (INF,) * graph.n)
        assert dropped_all.graph.n == 0
        assert dropped_all.lift(()) == (INF,) * graph.n


def test_every_exported_name_resolves():
    # a star import raises AttributeError on a name in __all__ that is missing
    exec("from energygames import *", {})
