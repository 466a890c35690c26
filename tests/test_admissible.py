from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energygames import INF, full_list, multiples_list, solve_with_list, window_list
from energygames.admissible import AdmissibleList
from energygames.generators import GenSpec, multiples_game, windowed_game
from energygames.oracle import brute_force_energies

from game_helpers import high_penalty_instance, small_random, windowed_instance, zero_cycle_game


class TestFullList:
    def test_degenerate_bound(self):
        lst = full_list(0)
        assert tuple(lst.finite) == (0,)
        assert INF in lst and 0 in lst

    def test_small_bound(self):
        assert tuple(full_list(3).finite) == (0, 1, 2, 3)

    def test_universal_bound_for_reference_graph(self, fig1):
        lst = full_list(fig1.n * fig1.max_weight)
        assert len(lst.finite) == 25
        assert len(lst) == 26

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError, match="^bound must be non-negative$"):
            full_list(-1)


class TestMultiplesList:
    def test_example(self):
        assert tuple(multiples_list(3, 10).finite) == (0, 3, 6, 9, 12)

    def test_unit_granularity_degenerates(self):
        assert multiples_list(1, 5).finite == full_list(5).finite

    def test_rounded_reference_values_contained(self):
        lst = multiples_list(6, 18)
        assert tuple(lst.finite) == (0, 6, 12, 18)
        for value in (0, 0, 6):
            assert value in lst

    @pytest.mark.parametrize(
        "granularity, bound, message",
        [(0, 5, "granularity must be positive"), (2, -1, "bound must be non-negative")],
    )
    def test_bad_arguments_rejected(self, granularity, bound, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            multiples_list(granularity, bound)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=500))
    def test_size_formula(self, granularity, bound):
        lst = multiples_list(granularity, bound)
        assert len(lst) == -(-bound // granularity) + 2

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=500))
    def test_strictly_increasing_from_zero(self, granularity, bound):
        lst = multiples_list(granularity, bound)
        assert lst.finite[0] == 0
        assert all(a < b for a, b in zip(lst.finite, lst.finite[1:]))


class TestImplicitLists:
    @settings(max_examples=200)
    @given(
        st.integers(min_value=0, max_value=199),
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=500),
    )
    def test_range_agrees_with_tuple(self, seed, granularity, bound):
        # The kernel rounds by arithmetic on a range and by bisection on a
        # tuple: the same values must give the same run, counters included.
        # Only a unit range stops at the deficit bound D, which the tuple's
        # run does not: those two runs differ in updates and edge work, but
        # not in energies or list steps.
        graph = small_random(seed)
        implicit = AdmissibleList(range(0, bound + 1, granularity))
        explicit = AdmissibleList(tuple(implicit.finite))
        assert len(implicit) == len(explicit)
        ranged = solve_with_list(graph, implicit)
        listed = solve_with_list(graph, explicit)
        if granularity == 1:
            assert (ranged.energies, ranged.steps) == (listed.energies, listed.steps)
        else:
            assert ranged == listed
        for value in (-1, 0, granularity - 1, granularity, bound, bound + 1, INF):
            assert (value in implicit) == (value in explicit)

    def test_full_list_is_not_materialized(self, fig1):
        lst = full_list(10**18)
        assert len(lst) == 10**18 + 2
        assert 5 * 10**17 in lst and 10**18 + 1 not in lst and INF in lst
        result = solve_with_list(fig1, lst)
        assert result.energies == (0, 4, 8)
        assert result.steps == 12


class TestWindowList:
    def test_single_center_clamped(self):
        assert window_list([0], delta=1, n=2, bound=2).finite == (0, 1, 2)

    def test_zero_delta_multiples_of_center(self):
        assert window_list([-5], delta=0, n=3, bound=15).finite == (0, 5, 10, 15)

    def test_never_empty_and_sorted(self):
        lst = window_list([7, -3], delta=2, n=4, bound=30)
        assert lst.finite[0] == 0
        assert all(a < b for a, b in zip(lst.finite, lst.finite[1:]))
        assert all(0 <= v <= 30 for v in lst.finite)

    @pytest.mark.parametrize(
        "centers, delta, n, bound, message",
        [
            ([], 0, 2, 5, "at least one center is required"),
            ([1], -1, 2, 5, "delta, n, and bound must be non-negative"),
            ([1], 0, -1, 5, "delta, n, and bound must be non-negative"),
            ([1], 0, 2, -1, "delta, n, and bound must be non-negative"),
        ],
    )
    def test_bad_arguments_rejected(self, centers, delta, n, bound, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            window_list(centers, delta, n, bound)

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(min_value=-8, max_value=8), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=60),
    )
    def test_matches_enumeration_of_center_sums(self, centers, delta, n, bound):
        sums = {
            -sum(combo)
            for k in range(n + 1)
            for combo in combinations_with_replacement(sorted(set(centers)), k)
        }
        width = n * delta
        expected = sorted(
            {v for y in sums for v in range(max(y - width, 0), min(y + width, bound) + 1)}
        )
        assert list(window_list(centers, delta, n, bound).finite) == expected

    def test_oracle_energies_admissible_on_windowed_instances(self):
        fewer_steps = 0
        for seed in range(40):
            spec = GenSpec(
                family="window",
                n=2 + seed % 4,
                m=0,
                max_weight=10,
                seed=seed,
                d=1 + seed % 2,
                delta=seed % 2,
                center_lo=-6,
                center_hi=6,
            )
            spec = _with_edges(spec)
            graph, centers = windowed_game(spec)
            bound = graph.default_bound()
            lst = window_list(list(centers), spec.delta, graph.n, bound)
            exact = brute_force_energies(graph)
            for value in exact:
                assert value in lst
            windowed = solve_with_list(graph, lst)
            full = solve_with_list(graph, full_list(bound))
            assert windowed.energies == full.energies == exact
            # the windowed list skips values the full list steps through
            assert windowed.steps <= full.steps
            fewer_steps += windowed.steps < full.steps
        assert fewer_steps


class TestMultiplesAdmissibility:
    def test_oracle_energies_admissible_on_multiples_instances(self):
        for seed in range(40):
            spec = GenSpec(
                family="multiples",
                n=2 + seed % 4,
                m=0,
                max_weight=12,
                seed=seed,
                granularity=2 + seed % 3,
            )
            spec = _with_edges(spec)
            graph = multiples_game(spec)
            lst = multiples_list(spec.granularity, graph.default_bound())
            for value in brute_force_energies(graph):
                assert value in lst


class TestLookup:
    def test_membership(self):
        for lst in (multiples_list(3, 10), AdmissibleList((0, 3, 6, 9, 12))):
            members = [value for value in range(-7, 16) if value in lst]
            assert members == [0, 3, 6, 9, 12]
            assert INF in lst

    def test_malformed_lists_rejected(self):
        for bad in ((), (3, 3), (-1, 2), (2, 5), range(0), range(-1, 3), range(5, 0, -1), range(3, 400, 7)):
            with pytest.raises(ValueError, match="^an admissible list starts at 0$"):
                AdmissibleList(bad)
        for bad in ((0, 3, 3), (0, 2, 1), range(0, -5, -1)):
            with pytest.raises(ValueError, match="^admissible values must be strictly increasing$"):
                AdmissibleList(bad)


class TestStartsAtZero:
    def test_a_game_with_a_finite_energy_has_a_zero_energy(self):
        # The lemma every list's start rests on: lowering every finite
        # energy by the least one keeps a progress measure, so by minimality
        # the least is 0, and an admissible list must hold it.
        graphs = [small_random(seed) for seed in range(500)]
        graphs += [small_random(seed, max_n=12, max_w=1000, max_out=4) for seed in range(500)]
        graphs += [high_penalty_instance(seed) for seed in range(40)]
        graphs += [windowed_instance(seed)[1][0] for seed in range(40)]
        graphs += [zero_cycle_game(seed) for seed in range(3)]
        with_finite = 0
        for graph in graphs:
            energies = solve_with_list(graph, full_list(graph.default_bound())).energies
            if energies.count(INF) < graph.n:
                with_finite += 1
                assert 0 in energies
        assert (len(graphs), with_finite) == (1083, 659)


def _with_edges(spec: GenSpec) -> GenSpec:
    import dataclasses

    n = spec.n
    return dataclasses.replace(spec, m=min(n + spec.seed % (n + 1), n * (n - 1)))
