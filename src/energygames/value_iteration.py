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
other list keeps its top: a coarse one rounds values up, so they may pass D.

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
positions, x // step on a range and found by bisection on a tuple.  On any
list but a unit range, none of this changes the order of updates, the
energies or any counter.

On a unit range the loop also lifts sets, an idea from the quasi-dominion
lifts of Benerecetti, Dell'Erba and Mogavero (TACAS 2020) and the set lifts
of Dorfman, Kaplan and Zwick (ICALP 2019).  A losing node climbs by one
cycle's total per pass, so after the cap at D most updates still go to nodes
that end infinite; a lift raises a whole set at once.  It is tried after a
round that leaves nodes pending, once the edge work since the last try
reaches 4m (the first try comes at 4m).  A try makes a few O(n + m)
passes, so the tries' cost stays within a small multiple of the run's own
edge work.  One lift:

- X is the tight attractor of the queued nodes.  It starts with them, and
  a walk backwards over tight edges, where e(t) + w = e(v), adds a Bob node
  with one tight edge into X and an Alice node once every edge that holds
  for her is a tight edge into X, which her exact count tells.  A node's
  rank is the order in which it joined X.
- X splits into components.  An added node joins the component of the
  tight edge that added him (Bob), or of all her tight edges (Alice).  A
  queued Bob node joins the targets of his failing edges inside X; he is
  held if he has none.
- Each component C is raised by delta_C, the least of: gamma = e(v) - w -
  e(x) over Alice's nodes x in C and edges (x,v) leaving X; gamma +
  delta_C' over her edges into another component C'; and best(x) - e(x)
  over held Bob nodes x in C.  An edge of Alice's that leaves C fails,
  as every edge that holds for her is tight inside C, so gamma >= 1, and
  delta is a shortest distance over the components, found by Dijkstra's
  algorithm.  A node goes to INF when delta_C is INF or the raised value
  passes the cap.
- count and best are recounted on the lifted nodes and their predecessors,
  and exactly the violated ones are queued, so I1-I3 hold again.  A lifted
  node counts one update and adds its edge work; list steps are still
  derived from the final positions, so they do not change.

Why a lift never passes e*, the least fixed point of the capped operator,
which e never passes before it (read an INF delta as any number above the
cap, which lifts to INF all the same).  Let g = e* - e, and h = g - delta_C
on each C.  Suppose h < 0 somewhere, and among the nodes of least h take x,
the one of least delta_C and then of least rank.  Then x has an out-edge
(x,v) with e*(v) - w > e*(x) = e(x) + h(x) + delta_C:

- x is Alice, and this holds for every out-edge, so e* is not her min.  A
  tight edge leads to an earlier node of C, whose h is larger by the
  choice of x.  A failing edge inside C has e(v) - w > e(x) and
  h(v) >= h(x).  A failing edge into another component has
  gamma + delta_C' >= delta_C and h(v) >= h(x), one of them strict, since
  equality in the first gives delta_C' < delta_C.  An edge leaving X has
  e*(v) - w >= e(x) + gamma >= e(x) + delta_C > e*(x).
- x is a queued Bob node: he has a failing edge inside C, which works as
  Alice's does, or he is held, and his best edge gives
  e*(v) - w >= best(x) >= e(x) + delta_C > e*(x).
- x is a Bob node added to X: the tight edge that added him leads to an
  earlier node of C, whose h is larger.

Each case contradicts e* being a fixed point, so e + delta_C <= e* on C,
and a raised value past the cap, D or the list's top, means e* = INF there.

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
from heapq import heapify, heappop, heappush

from .core import INF, Adjacency, Energy, EnergyFn, GameGraph
from .admissible import AdmissibleList


@dataclass(frozen=True)
class ViterResult:
    energies: EnergyFn
    updates: tuple[int, ...]  # updates per node
    steps: int  # list positions advanced, summed over all updates
    edge_work: int  # out- plus in-degree summed over updates

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

    On a unit range, targets above the deficit bound D go to INF, and set
    lifts raise whole sets of violated nodes at once (see the module
    docstring).
    Raises ValueError on a self-loop or a sink, self-loops checked first.
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
    if unit and n:
        cap = min(cap, sum(best) - min(best))

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
    lift_at = 4 * graph.m  # edge work at which the next lift is tried (unit ranges)
    while pending:
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
        if unit and pending and edge_work >= lift_at:
            pending, work_lifted, infinite_lifted = _lift(
                pending, queued, e, count, best, updates, succ, pred, is_alice, weights, work, cap
            )
            edge_work += work_lifted
            infinite += infinite_lifted
            lift_at = edge_work + 4 * graph.m

    # Every node starts at position 0 and only rises.
    if arithmetic:
        steps = (sum(filter(INF.__ne__, e)) if infinite else sum(e)) // step
    else:
        steps = sum(bisect_left(finite, x) for x in e if x != INF)
    steps += infinite * len(finite)
    return ViterResult(tuple(e), tuple(updates), steps, edge_work)


def _lift(
    pending: list[int], queued: list[bool], e: list[Energy], count: list[int], best: list[Energy],
    updates: list[int], succ: Adjacency, pred: Adjacency, is_alice: list[bool],
    weights: Sequence[int], work: list[int], cap: Energy,
) -> tuple[list[int], int, int]:
    """One set lift on a unit range (see the module docstring): raise each
    component C of the tight attractor X of the queued nodes by its least
    escape delta[C], then restore I1-I3 on the lifted nodes and their
    predecessors.  Returns the new pending list, the lift's edge work and
    the number of nodes it sent to INF."""
    n = len(e)
    # root[v] is -1 outside X and a union-find parent inside it.
    root = [-1] * n
    for u in pending:
        root[u] = u

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    def union(x: int, y: int) -> None:
        x, y = find(x), find(y)
        if x != y:
            root[x] = y

    members = list(pending)  # X in attractor order; the walk below extends it
    hits = [0] * n  # an Alice node's tight edges into X so far
    for v in members:
        ev = e[v]
        for t, i in pred[v]:
            if root[t] >= 0 or e[t] + weights[i] != ev:
                continue
            if not is_alice[t]:
                root[t] = root[v]  # one tight edge into X forces Bob
            else:
                h = hits[t] + 1
                hits[t] = h
                if h < count[t]:
                    continue
                # Every edge that holds for her is tight into X.
                root[t] = t
                et = e[t]
                for x, j in succ[t]:
                    if et + weights[j] >= e[x]:
                        union(t, x)
            members.append(t)

    # A queued Bob node joins the targets of his failing edges inside X; one
    # with none is held back by his target, best (I3).
    held: list[int] = []
    for x in members:
        if queued[x] and not is_alice[x]:
            ex = e[x]
            inside = False
            for v, i in succ[x]:
                if root[v] >= 0 and e[v] - weights[i] > ex:
                    union(x, v)
                    inside = True
            if not inside:
                held.append(x)
    for x in members:
        r = root[x]
        if root[r] != r:
            root[x] = find(r)

    # delta[C] starts at C's escapes out of X: Alice's edges, all of which
    # fail, and held Bob nodes.  An Alice edge into another component C'
    # allows its gap plus delta[C']: shortest distances, by Dijkstra.
    delta: dict[int, Energy] = dict.fromkeys((root[x] for x in members), INF)
    into: dict[int, list[tuple[Energy, int]]] = {}  # C' -> (gap, C) per edge
    for x in held:
        c = root[x]
        delta[c] = min(delta[c], best[x] - e[x])
    for x in members:
        if is_alice[x]:
            c = root[x]
            d = delta[c]
            ex = e[x]
            for v, i in succ[x]:
                r = root[v]
                if r != c:
                    gap = e[v] - weights[i] - ex
                    if r >= 0:
                        into.setdefault(r, []).append((gap, c))
                    elif gap < d:
                        d = gap
            delta[c] = d
    if into:
        heap = [(d, c) for c, d in delta.items()]
        heapify(heap)
        while heap:
            d, c = heappop(heap)
            if d == delta[c]:
                for gap, source in into.get(c, ()):
                    if gap + d < delta[source]:
                        delta[source] = gap + d
                        heappush(heap, (gap + d, source))

    infinite = lifted_work = 0
    for x in members:
        new = e[x] + delta[root[x]]
        if new > cap:
            new = INF
            infinite += 1
        e[x] = new
        updates[x] += 1
        lifted_work += work[x]

    # Recount the lifted nodes and their predecessors from scratch, and
    # queue exactly the violated ones.
    touched = list(members)
    for x in members:
        root[x] = -2
    for x in members:
        for t, _ in pred[x]:
            if root[t] != -2:
                root[t] = -2
                touched.append(t)
    added: list[int] = []
    for t in touched:
        et = e[t]
        if is_alice[t]:
            c = 0
            for v, i in succ[t]:
                if et + weights[i] >= e[v]:
                    c += 1
            count[t] = c
            violated = not c
        else:
            b = et
            for v, i in succ[t]:
                x = e[v] - weights[i]
                if x > b:
                    b = x
            best[t] = b
            violated = b > et
        if violated != queued[t]:
            queued[t] = violated
            if violated:
                added.append(t)
    return [u for u in pending if queued[u]] + added, lifted_work, infinite
