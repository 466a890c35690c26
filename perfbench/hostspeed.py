"""A fixed reference computation that gauges the host's speed right now.

On a shared host the same Python code can run 1.5-2.5x slower for tens of
seconds at a time, and CPU time slows with wall time, so neither clock can
tell a slow host from slow code.  The benchmark therefore times this
computation right before and right after every timed call and reports each
call's time as a multiple of the reference's time around it (unit ``ref``).
That ratio moves when the library's code changes, not when the host slows.

The computation mixes the two kinds of work the solvers do, because they
slow by different factors: interpreter-bound arithmetic and list indexing
(value iteration) and allocation of tuples, dicts and frozen dataclasses
(graph rebuilds, rounding, potential transforms).  It must never change:
every ``ref`` figure is relative to it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

_N = 64
_SUCC = tuple(tuple((u * 7 + k * 13 + 1) % _N for k in range(4)) for u in range(_N))
_WEIGHT = tuple(tuple((u * 31 + k * 17) % 21 - 10 for k in range(4)) for u in range(_N))


@dataclass(frozen=True)
class _Edge:
    weight: int
    ends: tuple[int, int, int]


def reference() -> int:
    total = 0
    for i in range(8000):
        total += i * i % 7
    energy = [0] * _N
    for _ in range(3):
        for u in range(_N):
            energy[u] = max(0, min(energy[v] - w for v, w in zip(_SUCC[u], _WEIGHT[u]))) % 97
    kept = {}
    for u in range(_N):
        for v, w in zip(_SUCC[u], _WEIGHT[u]):
            kept[(u, v)] = _Edge(w + energy[u] - energy[v], (u, v, w))
    return total + len(tuple(sorted(kept.items())))


def reference_seconds() -> float:
    begin = time.perf_counter()
    reference()
    return time.perf_counter() - begin
