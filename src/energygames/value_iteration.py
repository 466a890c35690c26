"""List-driven value iteration for minimal energies.

Starting from the smallest admissible value everywhere, the solver repeatedly
picks a node violating its progress condition (Alice: all out-edges violated,
Bob: some out-edge violated), recomputes its value as the min respectively max
of e(v) - w(u,v) over its out-edges, and rounds the result up to the next
member of the admissible list.  Counters on Alice's nodes track how many
out-edges currently satisfy the condition, and each Bob node keeps the max
of e(v) - w(u,v) over his out-edges, so violations are detected in amortized
constant time per edge touch and a Bob update needs no pass over his
out-edges.

Every update strictly increases the updated node and never overshoots the
true minimal energy as long as the list is admissible, so the final energies
are exactly minimal.

Violated nodes are processed first in, first out, in rounds: the loop walks
this round's list and appends the nodes an update violates to the next
round's, which is the order a queue would pop them in.  Outside the node
being updated, three invariants hold:

- (I1) a Bob node with a violated out-edge is queued: an update satisfies
  every out-edge of its node, and an edge turns violated only when its
  target rises, which queues its source;
- (I2) an Alice node that is not queued has count >= 1: an update leaves the
  out-edge that reaches the min satisfied, and a count that drops to 0
  queues its node;
- (I3) a Bob node t has best[t] = max(e(t), max of e(v) - w over his
  out-edges (t,v)).  An edge that holds gives at most e(t), so a queued Bob
  node's best is the max over his failing out-edges, which is his update's
  target, and an unqueued one's is e(t) (I1).  His update sets best to his
  new value, which is at least the target, and a rise of v raises best to
  the new e(v) - w when that is higher.

When node u rises from old to new, an edge (t,u) from an Alice node t
changes her count only if old <= e(t) + w < new: it held and now fails.  An edge with e(t) + w < old failed already, so by I2 touching it
would neither change a count nor queue a node, and the loop skips it.  The
skip does not cover Bob's predecessors: an edge that already fails still
rises to new - w, which his best must follow (I3).  There, new - w > best[t]
both raises his best and, on an unqueued node, says that the edge held and
now fails (I1), so it queues him.  On a unit-step list a finite new
value is the min target itself, so the out-edges that hold at an Alice node
are exactly those that reach the min: the min pass counts them, and no
second pass over the out-edges is needed.  An Alice node that reaches INF
is never queued again, as old <= e(t) + w < new fails at e(t) = INF, so no
one reads her count; both ways of setting it leave it at least 1 (I2).
The list steps are derived after the loop: every node starts at position 0
and only rises, so the positions advanced sum to the final positions.  None
of this changes the order of updates, the energies or any counter.

The successor and predecessor lists carry edge indices, not weights: a call
takes the weights as a list in edge-list order, so callers that re-weight one
graph many times, as the exact solver's levels do, pay no rebuild.  The
per-graph constants (adjacency, edge sources, owners, per-node edge work and
the graph's own weights) are built once (see ``GameGraph._adjacency`` and
``GameGraph._weights``); the rounding to a list member is inline.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass

from .core import INF, Energy, EnergyFn, GameGraph
from .admissible import AdmissibleList


@dataclass(frozen=True)
class ViterResult:
    energies: EnergyFn
    updates: tuple[int, ...]  # updates per node
    steps: int  # list positions advanced, summed over all updates
    edge_work: int  # out- plus in-degree summed over updates
    complete: bool = True  # False when a limit stopped the run before its fixed point

    @property
    def total_updates(self) -> int:
        return sum(self.updates)


def solve_with_list(
    graph: GameGraph, admissible: AdmissibleList, weights: Sequence[int] | None = None,
    limit: int | None = None,
) -> ViterResult:
    """Compute the minimal energies of ``graph`` given an admissible list.

    ``weights`` replaces the edge weights, one per edge in edge-list order;
    by default the graph's own.  Violating nodes are processed first in,
    first out; the final energies do not depend on the order.

    A run whose edge work is past ``limit`` stops before its next round, with
    ``complete`` False: lower bounds and the counters of the rounds it ran.
    """
    n = graph.n
    succ, pred, sources, is_alice, work = graph._adjacency
    if weights is None:
        weights = graph._weights
    elif len(weights) != graph.m:
        raise ValueError(f"{len(weights)} weights for {graph.m} edges")
    # Rounding up to a list member is inline.  A node is updated only while
    # violated, so its target exceeds its value, which is at least the first
    # member: no clamp at the bottom is needed, and the assert below guards
    # that invariant.  Anything above the top member rounds to INF.
    finite = admissible.finite
    length = len(finite)
    first = finite[0]
    top = finite[-1]
    arithmetic = isinstance(finite, range)
    start = finite.start if arithmetic else 0
    step = finite.step if arithmetic else 1
    unit = arithmetic and step == 1  # every integer from start to top is a member
    ceil_shift = step - 1 - start  # (x + ceil_shift) // step = ceil((x - start) / step)
    e: list[Energy] = [first] * n

    # Every node starts at the first member, where an edge (u,v,w) holds iff
    # w >= 0: count[u] is the number of such edges, and best[u] (I3) is the
    # max of first and of first - w over the others.  Both are kept for one
    # owner only: count for Alice, best for Bob.
    count = [0] * n
    best: list[Energy] = [first] * n
    for src, weight in zip(sources, weights):
        if weight >= 0:
            count[src] += 1
        elif first - weight > best[src]:
            best[src] = first - weight

    pending: list[int] = []
    queued = [False] * n
    for u in range(n):
        # Alice violates when no out-edge holds, Bob when some out-edge fails.
        violated = count[u] == 0 if is_alice[u] else best[u] > first
        if violated:
            pending.append(u)
            queued[u] = True

    updates = [0] * n
    infinite = 0
    edge_work = 0
    while pending and (limit is None or edge_work <= limit):
        next_round: list[int] = []
        for u in pending:
            queued[u] = False
            old = e[u]
            alice = is_alice[u]
            if alice:
                # Explicit loop: about 15% faster than min over a built list.
                out = succ[u]
                target = INF
                ties = 0  # out-edges that reach the min
                for v, i in out:
                    x = e[v] - weights[i]
                    if x < target:
                        target = x
                        ties = 1
                    elif x == target:
                        ties += 1
            else:
                target = best[u]  # the max over his out-edges (I3)
            if target > top:
                new = INF
                infinite += 1
            elif unit:
                new = target
            elif arithmetic:
                new = start + (target + ceil_shift) // step * step
            else:
                new = finite[bisect_left(finite, target)]
            assert new > old, f"update at node {u} must strictly increase ({old} -> {new})"
            e[u] = new
            updates[u] += 1
            edge_work += work[u]
            if not alice:
                best[u] = new  # new >= target: every out-edge holds
            elif unit:
                count[u] = ties  # the edges that hold, as new == target below INF
            else:
                c = 0
                for v, i in out:
                    if new + weights[i] >= e[v]:
                        c += 1
                count[u] = c
            for t, i in pred[u]:
                if is_alice[t]:
                    # Only an edge that held at old and fails at new changes
                    # a count or queues a node; one that failed already
                    # cannot (I2).
                    if old <= e[t] + weights[i] < new:
                        c = count[t] - 1
                        count[t] = c
                        if not c and not queued[t]:
                            next_round.append(t)
                            queued[t] = True
                else:
                    # The edge's value new - w rises whether or not it held.
                    x = new - weights[i]
                    if x > best[t]:
                        best[t] = x  # above e(t): the edge fails
                        if not queued[t]:
                            next_round.append(t)
                            queued[t] = True
        pending = next_round

    # Every node starts at position 0 and only rises.
    if arithmetic:
        total = sum(filter(INF.__ne__, e)) if infinite else sum(e)
        steps = (total - (n - infinite) * start) // step
    else:
        steps = sum(bisect_left(finite, x) for x in e if x != INF)
    steps += infinite * length
    return ViterResult(tuple(e), tuple(updates), steps, edge_work, not pending)
