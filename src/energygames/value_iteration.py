"""List-driven value iteration for minimal energies.

Starting from 0 everywhere, the solver repeatedly picks a node violating its
progress condition (Alice: all out-edges violated, Bob: some out-edge
violated), recomputes its value as the min respectively max of e(v) - w(u,v)
over its out-edges, and rounds the result up to the next member of the
admissible list.  Counters on Alice's nodes track how many out-edges
currently satisfy the condition, and each Bob node keeps the max of
e(v) - w(u,v) over his out-edges, so violations are detected in amortized
constant time per edge touch and a Bob update needs no pass over his
out-edges.

Every update strictly increases the updated node and never overshoots the
true minimal energy as long as the list is admissible, so the final energies
are exactly minimal.

A target above the list's top goes to INF.  On a unit range, as
``full_list`` builds, a target above D goes there too, where D is the sum of
the n - 1 largest per-node deficits max(0, max -w) of the weights the call
runs on.  Every finite minimal energy is the deficit of a simple path,
whose at most n - 1 edges leave distinct nodes, so it is at most D and the
list up to D is still admissible: a losing node goes to INF once it passes
D instead of climbing to the top by one cycle's total per pass.  After the
initial pass, best holds max(0, max -w) at every node, so D is an O(n) sum.
Energies and list steps are those of the uncapped run (an INF node counts
the list's length in positions); only updates and edge work drop.  Any
other list keeps its top: a coarse one rounds values up, so they may pass
D.  A result reports ``full_range`` when the cap reached D: a complete run
is then full-range value iteration, the exact energies of the game on its
weights.

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
changes her count only if old <= e(t) + w < new: it held and now fails.
An edge with e(t) + w < old failed already, so by I2 touching it would
neither change a count nor queue a node, and the loop skips it.  The skip
does not cover Bob's predecessors: an edge that already fails still rises
to new - w, which his best must follow (I3).  There, new - w > best[t]
both raises his best and, on an unqueued node, says that the edge held and
now fails (I1), so it queues him.  When an Alice node's new value is her
min target, as always on a unit range below INF, the out-edges that hold
are exactly those that reach the min: the min pass counts them, and only a
value that rounds up needs a second pass over the out-edges.  An Alice node
that reaches INF is never queued again, as old <= e(t) + w < new fails at
e(t) = INF, so no one reads her count; both ways of setting it leave it at
least 1 (I2).  The list steps are derived after the loop: every node starts
at position 0 and only rises, so the positions advanced sum to the final
positions, x // step on a range and found by bisection on a tuple.  None of
this changes the order of updates, the energies or any counter.

The successor and predecessor lists carry edge indices, not weights: a call
takes the weights as a list in edge-list order, so callers that re-weight one
graph many times, as the exact solver's levels do, pay no rebuild.  The
per-graph constants (adjacency, edge sources, owners, per-node edge work and
the graph's own weights) are built once (see ``GameGraph._adjacency``); a
view with a self-loop or a sink is refused on every call.  Rounding to a
member is inline: arithmetic on the ranges that ``full_list`` and
``multiples_list`` build, bisection on a tuple.
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
    full_range: bool = False  # a unit range whose cap reached D: full-range value iteration

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
    On a unit range, targets above the deficit bound D go to INF, and
    ``full_range`` says whether the top reached D (see the module
    docstring).  Raises ValueError on a self-loop or a sink, self-loops
    checked first.
    """
    n = graph.n
    succ, pred, sources, is_alice, work, own, loops = graph._adjacency
    if loops:
        raise ValueError("self-loops must be eliminated before value iteration")
    if not all(succ):
        raise ValueError("every node needs an out-edge before value iteration")
    if weights is None:
        weights = own
    elif len(weights) != graph.m:
        raise ValueError(f"{len(weights)} weights for {graph.m} edges")
    # A node is updated only while violated, so its target exceeds its
    # value, which is at least 0: no clamp at the bottom is needed, and the
    # assert below guards that invariant.  Anything above the top member
    # rounds to INF.
    finite = admissible.finite
    arithmetic = isinstance(finite, range)
    step = finite.step if arithmetic else 1
    unit = arithmetic and step == 1  # every integer from 0 to top is a member
    e: list[Energy] = [0] * n

    # Every node starts at 0, where an edge (u,v,w) holds iff w >= 0:
    # count[u] is the number of such edges, and best[u] (I3) is the max of 0
    # and of -w over the others, the node's deficit.  Both are kept for one
    # owner only: count for Alice, best for Bob.
    count = [0] * n
    best: list[Energy] = [0] * n
    for src, weight in zip(sources, weights):
        if weight >= 0:
            count[src] += 1
        elif -weight > best[src]:
            best[src] = -weight

    # D caps every finite energy (see the module docstring).  Only a unit
    # range stops there: a coarse list rounds up, and its values may pass D.
    cap = finite[-1]
    full_range = False
    if unit:
        deficit = sum(best) - min(best) if n else 0
        full_range = deficit <= cap
        cap = min(cap, deficit)

    pending: list[int] = []
    queued = [False] * n
    for u in range(n):
        # Alice violates when no out-edge holds, Bob when some out-edge fails.
        violated = count[u] == 0 if is_alice[u] else best[u] > 0
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
            if target > cap:
                new = INF
                infinite += 1
            elif unit:
                new = target
            elif arithmetic:
                new = -(-target // step) * step  # ceil to a multiple of step
            else:
                new = finite[bisect_left(finite, target)]
            assert new > old, f"update at node {u} must strictly increase ({old} -> {new})"
            e[u] = new
            updates[u] += 1
            edge_work += work[u]
            if not alice:
                best[u] = new  # new >= target: every out-edge holds
            elif new == target:
                count[u] = ties  # the edges that hold are those that reach the min
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
        steps = (sum(filter(INF.__ne__, e)) if infinite else sum(e)) // step
    else:
        steps = sum(bisect_left(finite, x) for x in e if x != INF)
    steps += infinite * len(finite)
    return ViterResult(tuple(e), tuple(updates), steps, edge_work, not pending, full_range)
