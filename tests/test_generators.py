import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from energygames import ALICE, BOB, GameGraph, validate
from energygames.generators import (
    GenSpec,
    SplitMix64,
    _random_structure,
    generate,
    high_penalty_family,
    multiples_game,
    random_game,
    windowed_game,
)
from energygames.oracle import brute_force_penalty

from game_helpers import simple_cycles


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for the documented state transition, seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_same_seed_same_stream(self, seed):
        a, b = SplitMix64(seed), SplitMix64(seed)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    @given(
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=0, max_value=200),
    )
    def test_randint_in_range(self, seed, lo, width):
        value = SplitMix64(seed).randint(lo, lo + width)
        assert lo <= value <= lo + width


class TestRandomGame:
    def test_determinism(self):
        spec = GenSpec("random", n=4, m=8, max_weight=5, seed=1)
        assert random_game(spec) == random_game(spec)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            random_game(GenSpec("random", n=1, m=1, max_weight=3, seed=0))

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            random_game(GenSpec("random", n=3, m=7, max_weight=3, seed=0))

    def test_generated_instances_validate(self):
        for seed in range(50):
            spec = GenSpec(
                "random", n=2 + seed % 5, m=0, max_weight=1 + seed % 9, seed=seed, max_out=3
            )
            import dataclasses

            n = spec.n
            spec = dataclasses.replace(spec, m=min(n + seed % (2 * n), n * min(3, n - 1)))
            graph = random_game(spec)
            assert validate(graph).ok
            assert graph.n == spec.n and graph.m == spec.m
            assert all(abs(w) <= spec.max_weight for _, _, w in graph.edges)
            if spec.max_out:
                assert all(graph.out_degree(v) <= spec.max_out for v in range(graph.n))

    def test_distinct_edge_pairs(self):
        graph = random_game(GenSpec("random", n=5, m=15, max_weight=4, seed=9))
        pairs = [(s, d) for s, d, _ in graph.edges]
        assert len(set(pairs)) == len(pairs)


def reference_structure(rng, n, m, alice_pct, max_out):
    """The structure draw as first written: rebuild the eligible sources and
    the chosen source's free targets for every edge after the first n."""
    if n < 2:
        raise ValueError("need at least two nodes (self-loops are not allowed)")
    if m < n:
        raise ValueError("need m >= n to give every node an outgoing edge")
    per_node_cap = min(max_out, n - 1) if max_out is not None else n - 1
    if m > n * per_node_cap:
        raise ValueError(f"m={m} does not fit: at most {n * per_node_cap} distinct edges")
    owners = tuple(ALICE if rng.randint(0, 99) < alice_pct else BOB for _ in range(n))
    used = set()
    pairs = []
    out_count = [0] * n
    for src in range(n):
        dst = rng.randint(0, n - 2)
        if dst >= src:
            dst += 1
        pairs.append((src, dst))
        used.add((src, dst))
        out_count[src] += 1
    while len(pairs) < m:
        eligible = [v for v in range(n) if out_count[v] < per_node_cap]
        src = rng.choice(eligible)
        free = [v for v in range(n) if v != src and (src, v) not in used]
        dst = rng.choice(free)
        pairs.append((src, dst))
        used.add((src, dst))
        out_count[src] += 1
    return owners, pairs


class TestRandomStructure:
    # (n, m, max_out): sparse, dense, saturated, capped and tiny shapes
    SHAPES = (
        (96, 384, None), (64, 256, None), (30, 800, None), (30, 870, None),
        (20, 60, 3), (50, 500, 12), (5, 20, None), (7, 30, 5), (10, 10, 1), (2, 2, None),
    )

    @pytest.mark.parametrize("n, m, max_out", SHAPES)
    def test_matches_the_reference_draw(self, n, m, max_out):
        for seed in range(20):
            alice_pct = 5 * seed
            expected = reference_structure(SplitMix64(seed), n, m, alice_pct, max_out)
            assert _random_structure(SplitMix64(seed), n, m, alice_pct, max_out) == expected

    def test_matches_the_reference_draw_at_n_1000(self):
        expected = reference_structure(SplitMix64(1), 1000, 4000, 50, None)
        assert _random_structure(SplitMix64(1), 1000, 4000, 50, None) == expected

    @pytest.mark.parametrize(
        "n, m, max_out", [(1, 1, None), (4, 3, None), (3, 7, None), (5, 11, 2)]
    )
    def test_rejects_what_the_reference_rejects(self, n, m, max_out):
        with pytest.raises(ValueError) as expected:
            reference_structure(SplitMix64(0), n, m, 50, max_out)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            _random_structure(SplitMix64(0), n, m, 50, max_out)


class TestHighPenaltyFamily:
    def test_structure(self):
        graph = high_penalty_family(choices=3, max_weight=8, seed=2)
        assert graph.n == 4 and graph.m == 6
        assert validate(graph).ok
        assert graph.out_degree(0) == 3
        for v in range(1, 4):
            assert graph.out_degree(v) == 1

    def test_cycle_dichotomy(self):
        for seed in range(40):
            cap = (2, 8, 24, 64)[seed % 4]
            graph = high_penalty_family(choices=1 + seed % 5, max_weight=cap, seed=seed)
            for total, length in simple_cycles(graph):
                assert total >= 1 or total <= -cap * length // 2

    def test_penalty_when_negative_branch_exists(self):
        hits = 0
        for seed in range(30):
            graph = high_penalty_family(choices=3, max_weight=8, seed=seed)
            totals = [
                graph.edges[2 * i][2] + graph.edges[2 * i + 1][2] for i in range(3)
            ]
            report = brute_force_penalty(graph)
            if any(t < 0 for t in totals):
                hits += 1
                assert report.graph_penalty >= 4  # W/2
            else:
                assert report.graph_penalty == float("inf")
        assert hits > 5

    def test_first_branch_always_positive(self):
        for seed in range(30):
            graph = high_penalty_family(choices=4, max_weight=16, seed=seed)
            assert graph.edges[0][2] + graph.edges[1][2] >= 1

    def test_weight_sweep_scales_exactly(self):
        base = high_penalty_family(choices=4, max_weight=8, seed=13)
        for factor, cap in ((8, 64), (64, 512)):
            scaled = high_penalty_family(choices=4, max_weight=cap, seed=13)
            assert scaled.owners == base.owners
            assert [(s, d) for s, d, _ in scaled.edges] == [
                (s, d) for s, d, _ in base.edges
            ]
            assert [w for _, _, w in scaled.edges] == [
                w * factor for _, _, w in base.edges
            ]


class TestWindowedGame:
    def test_degenerate_window_single_weight(self):
        spec = GenSpec(
            "window", n=4, m=8, max_weight=10, seed=3, d=1, delta=0, center_lo=-5, center_hi=-5
        )
        graph, centers = windowed_game(spec)
        assert centers == (-5,)
        assert all(w == -5 for _, _, w in graph.edges)

    def test_weights_within_windows(self):
        for seed in range(25):
            spec = GenSpec(
                "window",
                n=5,
                m=10,
                max_weight=12,
                seed=seed,
                d=2,
                delta=2,
                center_lo=-8,
                center_hi=8,
            )
            graph, centers = windowed_game(spec)
            for _, _, w in graph.edges:
                assert any(abs(w - c) <= spec.delta for c in centers)

    def test_determinism(self):
        spec = GenSpec(
            "window", n=4, m=8, max_weight=9, seed=77, d=2, delta=1, center_lo=-4, center_hi=4
        )
        assert windowed_game(spec) == windowed_game(spec)


class TestMultiplesGame:
    def test_weights_are_multiples(self):
        spec = GenSpec("multiples", n=5, m=10, max_weight=12, seed=4, granularity=3)
        graph = multiples_game(spec)
        assert all(w % 3 == 0 for _, _, w in graph.edges)
        assert validate(graph).ok


class TestDispatch:
    def test_families_roundtrip(self):
        for family, extra in (
            ("random", {}),
            ("multiples", {"granularity": 2}),
            ("window", {"d": 1, "delta": 1, "center_lo": -3, "center_hi": 3}),
            ("penalty", {"choices": 3}),
        ):
            spec = GenSpec(family, n=4, m=8, max_weight=6, seed=11, **extra)
            graph = generate(spec)
            assert isinstance(graph, GameGraph)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            generate(GenSpec("nope", n=3, m=4, max_weight=2, seed=0))
