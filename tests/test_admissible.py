from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energygames import INF, full_list, multiples_list, solve_with_list, window_list
from energygames.admissible import AdmissibleList
from energygames.generators import GenSpec, multiples_game, windowed_game
from energygames.oracle import brute_force_energies


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
    @given(
        st.integers(min_value=1, max_value=50),
        st.integers(min_value=0, max_value=500),
        st.lists(st.integers(min_value=-100, max_value=700) | st.just(INF), max_size=20),
    )
    def test_range_agrees_with_tuple(self, granularity, bound, values):
        implicit = multiples_list(granularity, bound)
        explicit = AdmissibleList(tuple(implicit.finite))
        assert isinstance(implicit.finite, range)
        assert len(implicit) == len(explicit)
        for value in values:
            index = implicit.index_at_least(value)
            assert index == explicit.index_at_least(value)
            assert implicit.value_at(index) == explicit.value_at(index)
            assert (value in implicit) == (value in explicit)

    def test_full_list_is_not_materialized(self):
        lst = full_list(10**18)
        assert len(lst) == 10**18 + 2
        assert lst.index_at_least(5 * 10**17) == 5 * 10**17
        assert lst.value_at(lst.index_at_least(10**18 + 1)) == INF


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
    def test_next_at_least(self):
        lst = multiples_list(3, 10)
        for value, expected in ((-7, 0), (0, 0), (1, 3), (12, 12), (13, INF), (INF, INF)):
            assert lst.value_at(lst.index_at_least(value)) == expected

    def test_malformed_lists_rejected(self):
        with pytest.raises(ValueError):
            AdmissibleList(())
        with pytest.raises(ValueError):
            AdmissibleList((3, 3))
        with pytest.raises(ValueError):
            AdmissibleList((-1, 2))
        for bad in (range(0), range(-1, 3), range(5, 0, -1)):
            with pytest.raises(ValueError):
                AdmissibleList(bad)


def _with_edges(spec: GenSpec) -> GenSpec:
    import dataclasses

    n = spec.n
    return dataclasses.replace(spec, m=min(n + spec.seed % (n + 1), n * (n - 1)))
