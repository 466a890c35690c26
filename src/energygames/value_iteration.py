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

The successor and predecessor lists carry edge indices, not weights: a call
takes the weights as a list in edge-list order, so callers that re-weight one
graph many times, as the exact solver's levels do, pay no rebuild.  The
per-graph constants (adjacency, edge sources, owners, per-node edge work) are
built once (see ``GameGraph._adjacency``); the rounding to a list member is
inline.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .core import INF, Energy, EnergyFn, GameGraph
from .admissible import AdmissibleList


@dataclass(frozen=True)
class ViterResult:
    energies: EnergyFn
    updates: tuple[int, ...]  # pop-updates per node
    steps: int  # list positions advanced, summed over all updates
    edge_work: int  # out- plus in-degree touched per update

    @property
    def total_updates(self) -> int:
        return sum(self.updates)


def solve_with_list(
    graph: GameGraph, admissible: AdmissibleList, weights: Sequence[int] | None = None
) -> ViterResult:
    """Compute the minimal energies of ``graph`` given an admissible list.

    ``weights`` replaces the edge weights, one per edge in edge-list order;
    by default the graph's own.  Violating nodes are processed first in,
    first out; the final energies do not depend on the order.
    """
    n = graph.n
    succ, pred, sources, is_alice, work = graph._adjacency
    if weights is None:
        weights = [weight for _, _, weight in graph.edges]
    elif len(weights) != graph.m:
        raise ValueError(f"{len(weights)} weights for {graph.m} edges")
    # Every node starts at the smallest value, where an edge (u,v,w) satisfies
    # e(u) + w >= e(v) iff w >= 0: count[u] is the number of such edges.
    count = [0] * n
    for src, weight in zip(sources, weights):
        if weight >= 0:
            count[src] += 1

    # Rounding up to a list member is inline.  A node is popped only while
    # violated, so its target exceeds its value, which is at least the first
    # member: no clamp at the bottom is needed, and the assert below guards
    # that invariant.  Anything above the top member rounds to INF.
    finite = admissible.finite
    length = len(finite)
    top = finite[-1]
    arithmetic = isinstance(finite, range)
    start = finite.start if arithmetic else 0
    step = finite.step if arithmetic else 1
    ceil_shift = step - 1 - start  # (x + ceil_shift) // step = ceil((x - start) / step)
    e: list[Energy] = [finite[0]] * n
    pos = [0] * n

    pending: deque[int] = deque()
    queued = [False] * n
    for u in range(n):
        # Alice violates when no out-edge holds, Bob when some out-edge fails.
        violated = count[u] == 0 if is_alice[u] else count[u] < len(succ[u])
        if violated:
            pending.append(u)
            queued[u] = True

    updates = [0] * n
    steps = 0
    edge_work = 0
    while pending:
        u = pending.popleft()
        queued[u] = False
        old = e[u]
        out = succ[u]
        alice = is_alice[u]
        # Explicit loops: about 15% faster than min/max over a built list.
        if alice:
            target = INF
            for v, i in out:
                x = e[v] - weights[i]
                if x < target:
                    target = x
        else:
            target = -INF
            for v, i in out:
                x = e[v] - weights[i]
                if x > target:
                    target = x
        if target > top:
            new_pos = length
            new = INF
        elif arithmetic:
            new_pos = (target + ceil_shift) // step
            new = start + new_pos * step
        else:
            new_pos = bisect_left(finite, target)
            new = finite[new_pos]
        assert new > old, f"update at node {u} must strictly increase ({old} -> {new})"
        e[u] = new
        updates[u] += 1
        steps += new_pos - pos[u]
        pos[u] = new_pos
        edge_work += work[u]
        if alice:
            c = 0
            for v, i in out:
                if new + weights[i] >= e[v]:
                    c += 1
            count[u] = c
        for t, i in pred[u]:
            held = e[t] + weights[i]
            if held >= new:
                continue
            if is_alice[t]:
                if held >= old:
                    count[t] -= 1
                if count[t] <= 0 and not queued[t]:
                    pending.append(t)
                    queued[t] = True
            elif not queued[t]:
                pending.append(t)
                queued[t] = True

    return ViterResult(tuple(e), tuple(updates), steps, edge_work)
