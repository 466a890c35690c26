"""List-driven value iteration for minimal energies.

Starting from the smallest admissible value everywhere, the solver repeatedly
picks a node violating its progress condition (Alice: all out-edges violated,
Bob: some out-edge violated), recomputes its value as the min respectively max
of e(v) - w(u,v) over its out-edges, and rounds the result up to the next
member of the admissible list.  Counters on Alice's nodes track how many
out-edges currently satisfy the condition so violations are detected in
amortized constant time per edge touch.

Every update strictly increases the updated node and never overshoots the
true minimal energy as long as the list is admissible, so the final energies
are exactly minimal.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from .core import Energy, EnergyFn, GameGraph
from .admissible import AdmissibleList


@dataclass(frozen=True)
class ViterResult:
    energies: EnergyFn
    updates: tuple[int, ...]  # pop-updates per node
    steps: int  # list positions advanced, summed over all updates
    edge_work: int  # out- plus in-degree touched per update
    wall_ms: float

    @property
    def total_updates(self) -> int:
        return sum(self.updates)


def solve_with_list(graph: GameGraph, admissible: AdmissibleList) -> ViterResult:
    """Compute the minimal energies of ``graph`` given an admissible list.

    Violating nodes are processed first in, first out; the final energies do
    not depend on the order.
    """
    if any(src == dst for src, dst, _ in graph.edges):
        raise ValueError("self-loops must be eliminated before value iteration")

    started = time.perf_counter()
    n = graph.n
    edges = graph.edges
    base = admissible.smallest
    e: list[Energy] = [base] * n
    pos = [admissible.index_at_least(base)] * n
    is_alice = [graph.is_alice(v) for v in range(n)]

    def satisfied_count(u: int) -> int:
        eu = e[u]
        return sum(1 for i in graph.out_edges[u] if eu + edges[i][2] >= e[edges[i][1]])

    pending: deque[int] = deque()
    queued = [False] * n
    count = [0] * n
    for u in range(n):
        if is_alice[u]:
            count[u] = satisfied_count(u)
            queued[u] = count[u] == 0
        else:
            eu = e[u]
            queued[u] = any(eu + edges[i][2] < e[edges[i][1]] for i in graph.out_edges[u])
        if queued[u]:
            pending.append(u)

    updates = [0] * n
    steps = 0
    edge_work = 0
    while pending:
        u = pending.popleft()
        queued[u] = False
        old = e[u]
        pick = min if is_alice[u] else max
        target = pick(e[edges[i][1]] - edges[i][2] for i in graph.out_edges[u])
        new_pos = admissible.index_at_least(target)
        new = admissible.value_at(new_pos)
        assert new > old, f"update at node {u} must strictly increase ({old} -> {new})"
        e[u] = new
        updates[u] += 1
        steps += new_pos - pos[u]
        pos[u] = new_pos
        edge_work += len(graph.out_edges[u]) + len(graph.in_edges[u])
        if is_alice[u]:
            count[u] = satisfied_count(u)
        for i in graph.in_edges[u]:
            t, _, weight = edges[i]
            if e[t] + weight >= new:
                continue
            if is_alice[t]:
                if e[t] + weight >= old:
                    count[t] -= 1
                if count[t] <= 0 and not queued[t]:
                    pending.append(t)
                    queued[t] = True
            elif not queued[t]:
                pending.append(t)
                queued[t] = True

    wall_ms = (time.perf_counter() - started) * 1000.0
    return ViterResult(tuple(e), tuple(updates), steps, edge_work, wall_ms)
