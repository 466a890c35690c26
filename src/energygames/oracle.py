"""Exhaustive ground truth for small games.

Everything here enumerates positional strategies outright, so it is only
usable on instances with a handful of nodes; the point is to have an
independent, obviously-correct reference for the real solvers.  Strategies
select out-edge indices (not successor nodes) so that parallel edges are
handled exactly.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .core import ALICE, BOB, INF, Energy, EnergyFn, GameGraph, _check_node

Penalty = Fraction | float  # the only float is INF


class BudgetExceeded(Exception):
    """The instance is too large for exhaustive enumeration."""


DEFAULT_MAX_PAIRS = 1_000_000
_MAX_PARTITION_NODES = 10


def _check_pair_budget(graph: GameGraph, max_pairs: int) -> None:
    if max_pairs < 1:  # every game has at least one strategy pair
        raise ValueError(f"max_pairs must be at least 1, got {max_pairs}")
    degrees = [len(out) for out in graph.out_edges]
    if 0 in degrees:
        raise ValueError(f"node {degrees.index(0)} has no out-edge; every node needs one")
    pairs = math.prod(degrees)
    if pairs > max_pairs:
        raise BudgetExceeded(f"{pairs} strategy pairs exceed the budget {max_pairs}")


def eval_pair(graph: GameGraph, choice: Sequence[int], start: int) -> Energy:
    """Minimal energy at ``start`` when both players follow ``choice``, the
    out-edge index chosen at each node.

    Walks the unique path until a node repeats.  If the reached cycle has
    negative total weight the energy is infinite; otherwise it is
    max(0, -min prefix sum) over the simple prefixes of the walk.  Raises
    ValueError unless ``start`` is a node in 0..n-1 and ``choice`` names, for
    each of the n nodes, an edge index in 0..m-1 that leaves that node.
    """
    _check_node(graph, start)
    if len(choice) != graph.n:
        raise ValueError(f"expected {graph.n} edge choices, got {len(choice)}")
    for node, edge in enumerate(choice):
        # checked before indexing: edges[-6] would silently alias an edge
        if not 0 <= edge < graph.m or graph.edges[edge][0] != node:
            raise ValueError(f"edge {edge} does not leave node {node}")
    values, _ = _lasso_walk(graph, tuple(choice))
    return values[start]


def _lasso_walk(
    graph: GameGraph, choice: tuple[int, ...]
) -> tuple[list[Energy], list[tuple[int, int]]]:
    """Per node under a fixed edge choice, the energy and the (total weight,
    length) of the unique reachable cycle, in O(n) overall.

    Each walk from a fresh start stops at a node already done or at a node it
    revisits, which closes a new cycle.  That node's value comes from the
    walk's prefix sums: infinite if the cycle is negative, else how far the
    sums dip below the sum at that node.  The out-degree-one recurrence
    e(u) = max(0, e(v) - w(u,v)) then pulls values back along the walk.
    """
    values: list[Energy | None] = [None] * graph.n
    cycles: list[tuple[int, int] | None] = [None] * graph.n
    for s in range(graph.n):
        if values[s] is not None:
            continue
        path: list[int] = []
        pos: dict[int, int] = {}
        sums = [0]
        cur = s
        while values[cur] is None and cur not in pos:
            pos[cur] = len(path)
            path.append(cur)
            _, dst, weight = graph.edges[choice[cur]]
            sums.append(sums[-1] + weight)
            cur = dst
        if values[cur] is None:
            # Found a fresh cycle: path[j:] closes on cur.
            j = pos[cur]
            total = sums[-1] - sums[j]
            cycles[cur] = (total, len(path) - j)
            values[cur] = INF if total < 0 else sums[j] - min(sums[j:])
        for node in reversed(path):
            cycles[node] = cycles[cur]
            if values[node] is not None:
                continue
            _, dst, weight = graph.edges[choice[node]]
            succ = values[dst]
            values[node] = INF if succ == INF else max(0, succ - weight)
    return values, cycles  # type: ignore[return-value]


def _choice_space(graph: GameGraph, owner: str) -> tuple[list[int], list[tuple[int, ...]]]:
    nodes = [v for v in range(graph.n) if graph.owners[v] == owner]
    return nodes, [graph.out_edges[v] for v in nodes]


def brute_force_energies(graph: GameGraph, max_pairs: int = DEFAULT_MAX_PAIRS) -> EnergyFn:
    """Minimal energies by full min-max enumeration over strategy pairs;
    raises BudgetExceeded above ``max_pairs`` pairs, ValueError below 1."""
    _check_pair_budget(graph, max_pairs)
    alice_nodes, alice_opts = _choice_space(graph, ALICE)
    bob_nodes, bob_opts = _choice_space(graph, BOB)
    base = [-1] * graph.n
    best: list[Energy] | None = None
    for sigma in itertools.product(*alice_opts):
        for node, edge in zip(alice_nodes, sigma):
            base[node] = edge
        worst: list[Energy] = [0] * graph.n
        for tau in itertools.product(*bob_opts):
            for node, edge in zip(bob_nodes, tau):
                base[node] = edge
            vals, _ = _lasso_walk(graph, tuple(base))
            worst = [max(a, b) for a, b in zip(worst, vals)]
        if best is None:
            best = worst
        else:
            best = [min(a, b) for a, b in zip(best, worst)]
    assert best is not None, "graphs have at least one strategy pair"
    return tuple(best)


@dataclass(frozen=True)
class PenaltyReport:
    """Per-node penalties, Bob's strategy taken to be optimal at the probed
    node only; the graph penalty is their minimum (INF on the empty game)."""

    per_node: tuple[Penalty, ...]

    @property
    def graph_penalty(self) -> Penalty:
        return min(self.per_node, default=INF)


def brute_force_penalty(graph: GameGraph, max_pairs: int = DEFAULT_MAX_PAIRS) -> PenaltyReport:
    """Exact per-node penalties by enumerating Bob's strategies; raises
    BudgetExceeded above ``max_pairs`` strategy pairs, ValueError below 1.

    For a fixed Bob strategy tau and start s, the defended bound D(tau, s) is
    the minimum of -total/length over the negative cycles Alice can steer s
    into (infinite when she cannot reach any).  The penalty at s maximizes
    D(tau, s) over the strategies tau that are optimal at s, whatever they
    do elsewhere.
    """
    _check_pair_budget(graph, max_pairs)
    alice_nodes, alice_opts = _choice_space(graph, ALICE)
    bob_nodes, bob_opts = _choice_space(graph, BOB)
    n = graph.n
    base = [-1] * n

    # One pass per tau: Alice's best responses and the defended bounds.
    tau_value: list[list[Energy]] = []
    tau_bound: list[list[Penalty]] = []
    for tau in itertools.product(*bob_opts):
        for node, edge in zip(bob_nodes, tau):
            base[node] = edge
        value: list[Energy] = [INF] * n
        bound: list[Penalty] = [INF] * n
        for sigma in itertools.product(*alice_opts):
            for node, edge in zip(alice_nodes, sigma):
                base[node] = edge
            vals, cycles = _lasso_walk(graph, tuple(base))
            for s in range(n):
                value[s] = min(value[s], vals[s])
                total, length = cycles[s]
                if total < 0:
                    bound[s] = min(bound[s], Fraction(-total, length))
        tau_value.append(value)
        tau_bound.append(bound)

    minimal: list[Energy] = [max(vals[s] for vals in tau_value) for s in range(n)]
    per_node: list[Penalty] = [Fraction(0)] * n
    for value, bound in zip(tau_value, tau_bound):
        for s in range(n):
            if value[s] == minimal[s]:
                per_node[s] = max(per_node[s], bound[s])
    return PenaltyReport(tuple(per_node))


def find_ergodic_partition(graph: GameGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Search all non-trivial node bipartitions for an ergodic one.

    A partition (S_A, S_B) is ergodic when Alice can keep play inside S_A and
    Bob cannot leave it, and symmetrically for S_B.  Returns the first match
    in ascending bitmask order, or None when the graph is ergodic.  Raises
    BudgetExceeded above 10 nodes.
    """
    n = graph.n
    if n > _MAX_PARTITION_NODES:
        raise BudgetExceeded(f"{n} nodes exceed the partition budget {_MAX_PARTITION_NODES}")
    succ_mask = [0] * n
    for src, dst, _ in graph.edges:
        succ_mask[src] |= 1 << dst
    alice = [graph.is_alice(v) for v in range(n)]
    full = (1 << n) - 1

    def holds(side: int, keeper_is_alice: bool) -> bool:
        """The keeper's nodes in ``side`` can stay in it; the other
        player's nodes in it cannot leave it."""
        return all(
            succ_mask[v] & side if alice[v] == keeper_is_alice else not succ_mask[v] & ~side
            for v in range(n)
            if (side >> v) & 1
        )

    for mask in range(1, full):
        if holds(mask, True) and holds(full ^ mask, False):
            side_a = frozenset(v for v in range(n) if (mask >> v) & 1)
            side_b = frozenset(v for v in range(n) if not (mask >> v) & 1)
            return side_a, side_b
    return None
