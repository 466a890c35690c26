"""Seeded, deterministic instance generators for every tested game family.

All randomness flows through SplitMix64 so that a (family, parameters, seed)
triple reproduces the same instance byte for byte on any platform or language:
the generator never touches floating point or platform RNGs.

SplitMix64 state transition (all arithmetic mod 2^64):

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

``randint(lo, hi)`` maps an output onto the inclusive range by modulo; the
bias is irrelevant at the range sizes used here and keeps the mapping trivial
to reimplement.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .core import ALICE, BOB, Edge, GameGraph

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """The 64-bit splittable PRNG used by every generator."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi], inclusive."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, items):
        return items[self.randint(0, len(items) - 1)]


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a generated instance; identical specs yield identical
    graphs."""

    family: str
    n: int
    m: int
    max_weight: int
    seed: int
    alice_pct: int = 50
    max_out: int | None = None
    # family-specific knobs
    granularity: int | None = None  # multiples family
    d: int | None = None  # windowed family
    delta: int | None = None
    center_lo: int | None = None
    center_hi: int | None = None
    choices: int | None = None  # high-penalty family

    def __post_init__(self) -> None:
        if not 0 <= self.alice_pct <= 100:
            raise ValueError(f"alice_pct must be in 0..100, got {self.alice_pct}")
        if self.max_out is not None and self.max_out < 1:
            raise ValueError(f"max_out must be at least 1, got {self.max_out}")


def _random_structure(
    rng: SplitMix64, n: int, m: int, alice_pct: int, max_out: int | None
) -> tuple[tuple[str, ...], list[tuple[int, int]]]:
    """Owners plus m distinct non-loop directed pairs, one outgoing edge per
    node guaranteed."""
    if n < 2:
        raise ValueError("need at least two nodes (self-loops are not allowed)")
    if m < n:
        raise ValueError("need m >= n to give every node an outgoing edge")
    per_node_cap = min(max_out, n - 1) if max_out is not None else n - 1
    if m > n * per_node_cap:
        raise ValueError(f"m={m} does not fit: at most {n * per_node_cap} distinct edges")
    owners = tuple(
        ALICE if rng.randint(0, 99) < alice_pct else BOB for _ in range(n)
    )
    pairs: list[tuple[int, int]] = []
    # each source's taken targets, sorted: itself and the targets it has
    taken: list[list[int]] = []
    for src in range(n):
        dst = rng.randint(0, n - 2)
        if dst >= src:
            dst += 1
        pairs.append((src, dst))
        taken.append(sorted((src, dst)))
    # the draws index into the unsaturated sources and the source's free
    # targets, both ascending; with a cap of 1, m == n and none follows
    eligible = list(range(n))
    while len(pairs) < m:
        i = rng.randint(0, len(eligible) - 1)
        src = eligible[i]
        dst = rng.randint(0, n - len(taken[src]) - 1)  # the dst-th free target
        for v in taken[src]:
            if v > dst:
                break
            dst += 1
        bisect.insort(taken[src], dst)
        pairs.append((src, dst))
        if len(taken[src]) > per_node_cap:
            del eligible[i]
    return owners, pairs


def _uniform_game(spec: GenSpec, granularity: int) -> GameGraph:
    """The structure draw, then each edge's weight uniform among the
    multiples of ``granularity`` in [-W, W]."""
    if spec.max_weight < granularity:
        raise ValueError(f"max_weight must be at least {granularity}")
    rng = SplitMix64(spec.seed)
    owners, pairs = _random_structure(rng, spec.n, spec.m, spec.alice_pct, spec.max_out)
    reach = spec.max_weight // granularity
    edges = tuple((src, dst, granularity * rng.randint(-reach, reach)) for src, dst in pairs)
    return GameGraph(owners, edges)


def random_game(spec: GenSpec) -> GameGraph:
    """Uniform owners, distinct random edges, weights in [-W, W]."""
    return _uniform_game(spec, 1)


def multiples_game(spec: GenSpec) -> GameGraph:
    """Like random_game but every weight is a multiple of ``granularity``."""
    if spec.granularity is None or spec.granularity < 1:
        raise ValueError("the multiples family needs a positive granularity")
    return _uniform_game(spec, spec.granularity)


def windowed_game(spec: GenSpec) -> tuple[GameGraph, tuple[int, ...]]:
    """Weights clustered around d seeded centers with jitter in [-delta, delta].

    Returns the graph together with the drawn centers so callers can build
    the matching windowed admissible list.
    """
    if spec.d is None or spec.d < 1:
        raise ValueError("the windowed family needs d >= 1")
    if spec.delta is None or spec.delta < 0:
        raise ValueError("the windowed family needs delta >= 0")
    if spec.center_lo is None or spec.center_hi is None or spec.center_lo > spec.center_hi:
        raise ValueError("the windowed family needs a non-empty center range")
    rng = SplitMix64(spec.seed)
    centers = tuple(rng.randint(spec.center_lo, spec.center_hi) for _ in range(spec.d))
    owners, pairs = _random_structure(rng, spec.n, spec.m, spec.alice_pct, spec.max_out)
    edges = tuple(
        (src, dst, rng.choice(centers) + rng.randint(-spec.delta, spec.delta))
        for src, dst in pairs
    )
    return GameGraph(owners, edges), centers


# The high-penalty family quantizes cycle totals and edge splits to
# max_weight/UNITS so that a weight sweep with a fixed seed scales the whole
# instance exactly (whenever UNITS divides the weight caps involved).
_UNITS = 8


def high_penalty_family(choices: int, max_weight: int, seed: int) -> GameGraph:
    """Hub-and-branch instances whose every cycle is positive or steeply
    negative.

    One Alice hub picks among ``choices`` two-edge branches, each closing a
    disjoint cycle through a fresh Bob node.  Branch totals are drawn from
    [1, 2W] (positive) or [-2W, -W] (negative, average <= -W/2); every simple
    cycle passes through the hub exactly once, so the whole graph inherits the
    dichotomy.  The first branch is always positive, so Alice wins somewhere.
    """
    if choices < 1:
        raise ValueError("need at least one branch")
    if max_weight < 2:
        raise ValueError("max_weight must be at least 2")
    rng = SplitMix64(seed)
    unit = max_weight // _UNITS if max_weight % _UNITS == 0 else 1
    span = max_weight // unit  # W in units
    owners = [ALICE] + [BOB] * choices
    edges: list[Edge] = []
    for branch in range(1, choices + 1):
        positive = True if branch == 1 else rng.randint(0, 1) == 0
        if positive:
            total_units = rng.randint(1, 2 * span)
        else:
            total_units = -rng.randint(span, 2 * span)
        lo = max(-span, total_units - span)
        hi = min(span, total_units + span)
        first_units = rng.randint(lo, hi)
        first = first_units * unit
        second = total_units * unit - first
        edges.append((0, branch, first))
        edges.append((branch, 0, second))
    return GameGraph(tuple(owners), tuple(edges))


def generate(spec: GenSpec) -> GameGraph:
    """Dispatch on the family tag; the windowed family's centers are redrawn
    deterministically by callers that need them."""
    if spec.family == "random":
        return random_game(spec)
    if spec.family == "multiples":
        return multiples_game(spec)
    if spec.family == "window":
        return windowed_game(spec)[0]
    if spec.family == "penalty":
        if spec.choices is None:
            raise ValueError("the penalty family needs a branch count")
        return high_penalty_family(spec.choices, spec.max_weight, spec.seed)
    raise ValueError(f"unknown family {spec.family!r}")
