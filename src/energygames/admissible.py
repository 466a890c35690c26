"""Admissible value lists for the list-driven value iteration.

An admissible list for a game is any sorted set of values, terminated by
infinity, that contains every minimal energy the game can realize.  The value
iteration in :mod:`energygames.value_iteration` only ever moves node values
upward to the next list member, so smaller lists mean less work.  Three
constructions are provided: the full range {0..M}, the multiples of a common
weight divisor B, and the windowed list for games whose weights cluster
around d center values within a jitter of delta.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .core import INF, Energy


@dataclass(frozen=True)
class AdmissibleList:
    """Strictly increasing non-negative values with an implicit terminal INF."""

    finite: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.finite:
            raise ValueError("an admissible list needs at least one finite value")
        if self.finite[0] < 0:
            raise ValueError("admissible values must be non-negative")
        if any(a >= b for a, b in zip(self.finite, self.finite[1:])):
            raise ValueError("admissible values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.finite) + 1  # the terminal INF counts

    def __contains__(self, value: Energy) -> bool:
        if value == INF:
            return True
        i = bisect_left(self.finite, value)
        return i < len(self.finite) and self.finite[i] == value

    @property
    def smallest(self) -> int:
        return self.finite[0]

    def index_at_least(self, value: Energy) -> int:
        """Index of the smallest member >= value; len(finite) encodes INF."""
        if value == INF:
            return len(self.finite)
        return bisect_left(self.finite, value)

    def value_at(self, index: int) -> Energy:
        return INF if index >= len(self.finite) else self.finite[index]


def full_list(bound: int) -> AdmissibleList:
    """Every value 0..bound plus INF: admissible whenever bound caps the
    finite minimal energies."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return AdmissibleList(tuple(range(bound + 1)))


def multiples_list(granularity: int, bound: int) -> AdmissibleList:
    """Multiples i*B for 0 <= i <= ceil(bound/B), plus INF.

    Admissible for any game whose weights are all multiples of B with finite
    minimal energies capped by ``bound``: every realizable value is a negated
    sum of at most n weights, hence itself a multiple of B.
    """
    if granularity < 1:
        raise ValueError("granularity must be positive")
    if bound < 0:
        raise ValueError("bound must be non-negative")
    steps = -(-bound // granularity)  # ceil
    return AdmissibleList(tuple(i * granularity for i in range(steps + 1)))


def window_list(centers: list[int], delta: int, n: int, bound: int) -> AdmissibleList:
    """Admissible list for games whose every weight is within ``delta`` of one
    of the ``centers``.

    Builds the negated sums of at most n centers, widens each by the
    accumulated jitter n*delta, clamps to [0, bound], and merges.  Clamping is
    safe because realizable finite values lie in [0, bound] regardless.
    """
    if not centers:
        raise ValueError("at least one center is required")
    if delta < 0 or n < 0 or bound < 0:
        raise ValueError("delta, n, and bound must be non-negative")
    distinct = sorted(set(centers))
    sums = {0}
    for k in range(1, n + 1):
        for combo in combinations_with_replacement(distinct, k):
            sums.add(-sum(combo))
    width = n * delta
    values: list[int] = []
    for y in sorted(sums):
        lo = max(y - width, 0)
        if values:
            lo = max(lo, values[-1] + 1)
        hi = min(y + width, bound)
        values.extend(range(lo, hi + 1))
    # 0 is always present: the empty sum contributes the interval around 0.
    return AdmissibleList(tuple(values))
