"""Admissible value lists for the list-driven value iteration.

An admissible list for a game is any sorted set of values from 0, terminated
by infinity, that contains every minimal energy the game can realize.  The
value iteration in :mod:`energygames.value_iteration` only ever moves node
values upward to the next list member, so smaller lists mean less work.
Three constructions are provided: the full range {0..M}, the multiples of a
common weight divisor B, and the windowed list for games whose weights
cluster around d center values within a jitter of delta.

The full and multiples lists are arithmetic progressions, so they are stored
as ``range`` objects: O(1) memory whatever the bound.  Only windowed lists
are materialized as tuples.  Rounding a value up to a member is the kernel's
(see :func:`energygames.value_iteration.solve_with_list`): arithmetic on a
range and a bisection on a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import INF, Energy


@dataclass(frozen=True)
class AdmissibleList:
    """Strictly increasing values from 0 with an implicit terminal INF.

    ``finite`` is a ``range`` for arithmetic progressions and a tuple
    otherwise; both are sorted sequences with O(1) ``len`` and indexing.
    A list admissible for a game with a finite node must hold 0: lowering
    every finite energy by the least keeps a progress measure, so by
    minimality the least is 0.
    """

    finite: tuple[int, ...] | range

    def __post_init__(self) -> None:
        finite = self.finite
        if not finite or finite[0] != 0:
            raise ValueError("an admissible list starts at 0")
        if isinstance(finite, range):
            increasing = finite.step > 0
        else:
            increasing = all(a < b for a, b in zip(finite, finite[1:]))
        if not increasing:
            raise ValueError("admissible values must be strictly increasing")

    def __len__(self) -> int:
        return len(self.finite) + 1  # the terminal INF counts

    def __contains__(self, value: Energy) -> bool:
        return value == INF or value in self.finite


def full_list(bound: int) -> AdmissibleList:
    """Every value 0..bound plus INF: admissible whenever bound caps the
    finite minimal energies."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    return AdmissibleList(range(bound + 1))


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
    return AdmissibleList(range(0, steps * granularity + 1, granularity))


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
    # After k rounds, layer holds the negated sums of exactly k centers.  They
    # lie in [-k*max, -k*min], so a layer stays small where the multisets of
    # k centers number C(k+d-1, d-1).
    distinct = set(centers)
    layer = {0}
    sums = {0}
    for _ in range(n):
        layer = {s - c for s in layer for c in distinct}
        sums |= layer
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
