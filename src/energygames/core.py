"""Game-graph model and fixed-point primitives for two-player energy games.

An energy game is played on a finite directed graph whose nodes are owned by
Alice or Bob and whose edges carry integer weights.  Alice wins from a node if
some initial energy lets her keep the running sum of edge weights non-negative
forever; the minimal such energy per node is the quantity every solver in this
package computes.

This module holds the immutable graph representation, structural validation,
self-loop normalization, the local fixed-point checks used to verify candidate
energy functions, and the potential transformation that re-weights a game by a
lower bound on its minimal energies.
"""

from __future__ import annotations

import math
from collections.abc import Sized
from dataclasses import dataclass
from functools import cached_property

ALICE = "A"
BOB = "B"

INF = math.inf

# Finite energies and weights are ints; the only float ever used is INF.
Energy = int | float
EnergyFn = tuple[Energy, ...]
Edge = tuple[int, int, int]  # (source, target, weight)
# Per node, (neighbour, edge index) pairs in edge-list order.
Adjacency = list[list[tuple[int, int]]]

INT64_MAX = 2**63 - 1


class PotentialContractError(ValueError):
    """The energy function handed to apply_potential cannot have come from a
    sound approximation of the game it is applied to."""


def opponent(owner: str) -> str:
    return BOB if owner == ALICE else ALICE


@dataclass(frozen=True)
class GameGraph:
    """A weighted game graph.

    Nodes are identified by their index in ``owners``.  Parallel edges are
    permitted (reductions can produce them); self-loops are tolerated by the
    representation but rejected by :func:`validate` until normalized away.
    """

    owners: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        # Stored as tuples, so that a game built from lists is a value too.
        if type(self.owners) is not tuple:
            object.__setattr__(self, "owners", tuple(self.owners))
        n = len(self.owners)
        for owner in self.owners:
            if owner not in (ALICE, BOB):
                raise ValueError(f"unknown owner {owner!r}")
        try:
            if type(self.edges) is not tuple or not set(map(type, self.edges)) <= {tuple}:
                object.__setattr__(self, "edges", tuple(tuple(edge) for edge in self.edges))
            for src, dst, weight in self.edges:
                # Exact type checks: bool is an int subclass, and True emits as "True".
                if type(src) is not int or type(dst) is not int:
                    raise ValueError(f"edge ({src!r},{dst!r}) endpoint is not an integer")
                if not (0 <= src < n and 0 <= dst < n):
                    raise ValueError(f"edge ({src},{dst}) endpoint out of range")
                if type(weight) is not int:
                    raise ValueError(f"edge ({src},{dst}) weight {weight!r} is not an integer")
        except (TypeError, ValueError):
            # Unpacking a malformed edge fails with Python's own message.  On
            # this path only, the first malformed edge in the list is named
            # instead of any other edge problem.
            for index, edge in enumerate(self.edges):
                if not (isinstance(edge, Sized) and len(edge) == 3):
                    raise ValueError(
                        f"edge {index} {edge!r} is not a (source, target, weight) triple"
                    ) from None
            raise

    @property
    def n(self) -> int:
        return len(self.owners)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def max_weight(self) -> int:
        """W, the maximum absolute edge weight (0 for an edgeless graph)."""
        return max((abs(w) for _, _, w in self.edges), default=0)

    @cached_property
    def out_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge indices grouped by source node, in edge-list order."""
        out: list[list[int]] = [[] for _ in range(self.n)]
        for i, (src, _, _) in enumerate(self.edges):
            out[src].append(i)
        return tuple(tuple(ids) for ids in out)

    @cached_property
    def _adjacency(self) -> tuple[Adjacency, Adjacency, list[int], list[bool], list[int], list[int], list[int]]:
        """The graph's view for :func:`validate`, :func:`verify_minimal` and
        the value-iteration kernel, built once per graph: the successor and
        predecessor lists of every node (self-loops included), the source of
        every edge, every node's Alice flag and edge work (out- plus
        in-degree), the graph's own weights, which a call may replace, and
        the self-loops' indices.
        Edges are in edge-list order.  The lists are shared by every call
        and never mutated; they stay lists because converting them to tuples
        costs a one-call solve about a tenth of its time.
        """
        succ: Adjacency = [[] for _ in range(self.n)]
        pred: Adjacency = [[] for _ in range(self.n)]
        sources: list[int] = []
        loops: list[int] = []
        for i, (src, dst, _) in enumerate(self.edges):
            if src == dst:
                loops.append(i)
            succ[src].append((dst, i))
            pred[dst].append((src, i))
            sources.append(src)
        alice = [owner == ALICE for owner in self.owners]
        work = [len(out) + len(inc) for out, inc in zip(succ, pred)]
        return succ, pred, sources, alice, work, [weight for _, _, weight in self.edges], loops

    def is_alice(self, node: int) -> bool:
        return self.owners[node] == ALICE

    def default_bound(self) -> int:
        """The universal upper bound n*W on finite minimal energies."""
        return self.n * self.max_weight


def _check_node(graph: GameGraph, node: int) -> None:
    """Raise ValueError unless ``node`` is a node of ``graph``; a negative
    index would alias a node from the end."""
    if not 0 <= node < graph.n:
        where = f" 0..{graph.n - 1}" if graph.n else ": the game has no nodes"
        raise ValueError(f"node {node} out of range{where}")


def validate(graph: GameGraph) -> tuple[str, ...]:
    """Check the game-graph invariants: every violation found, one message
    each, or none when the game is playable.

    A graph is playable when every node has at least one outgoing edge, no
    self-loops remain (see :func:`eliminate_self_loops`), and weights leave
    enough signed 64-bit headroom for the n^2*W values reductions can create.
    Sinks and then self-loops are read from the graph's view, which the
    kernel reuses (``GameGraph._adjacency``).
    """
    succ, _, sources, _, _, _, loops = graph._adjacency
    problems = [f"node {node}: sink node (out-degree 0)" for node, out in enumerate(succ) if not out]
    problems += [f"edge {i} ({sources[i]}->{sources[i]}): self-loop (normalize first)" for i in loops]
    headroom = graph.n * graph.n * graph.max_weight
    if headroom > INT64_MAX:  # a bit count: n^2*W itself can have thousands of digits
        problems.append(
            f"weights: n^2*W has {headroom.bit_length()} bits, over the 64-bit headroom {INT64_MAX}"
        )
    return tuple(problems)


def eliminate_self_loops(graph: GameGraph) -> GameGraph:
    """Replace each self-loop (v,v) of weight w by a relay node v' and the two
    edges (v,v') and (v',v), both of weight w.

    Minimal energies at the original nodes and the average weight of every
    cycle are unchanged.  The relay belongs to the opposite player of v; the
    choice is immaterial because the relay has out-degree one, and fixing it
    keeps the construction deterministic.
    """
    if not any(src == dst for src, dst, _ in graph.edges):
        return graph
    owners = list(graph.owners)
    edges: list[Edge] = []
    appended: list[Edge] = []
    for src, dst, weight in graph.edges:
        if src != dst:
            edges.append((src, dst, weight))
            continue
        relay = len(owners)
        owners.append(opponent(graph.owners[src]))
        edges.append((src, relay, weight))
        appended.append((relay, src, weight))
    return GameGraph(tuple(owners), tuple(edges + appended))


def verify_minimal(graph: GameGraph, e: EnergyFn) -> bool:
    """Check the local fixed-point equations of the minimal energy function:
    True iff e = N(e) for the one-step operator N, which takes each node u to
    the min (Alice) or max (Bob) over its out-edges (u,v) of
    max(e(v) - w(u,v), 0), with infinity absorbing the subtraction.  Raises
    ValueError unless e has one entry per node and every node an out-edge.
    The minimal energy function always satisfies the equations; so do some
    inflated functions (the all-infinite function among them), so a passing
    check alone does not certify minimality.
    """
    if len(e) != graph.n:
        raise ValueError(f"expected {graph.n} energies, got {len(e)}")
    _, _, _, alice, _, _, _ = graph._adjacency
    best: list[Energy | None] = [None] * graph.n
    for src, dst, weight in graph.edges:
        target = e[dst] - weight
        if target < 0:
            target = 0
        current = best[src]
        if current is None or (target < current if alice[src] else target > current):
            best[src] = target
    if None in best:
        raise ValueError("every node needs an out-edge to check the fixed-point equations")
    return list(e) == best


@dataclass(frozen=True)
class PotentialTransform:
    """Result of re-weighting a game by a potential function.

    ``graph`` is the subgraph induced by the finite-potential nodes with
    weights w'(u,v) = w(u,v) + e(u) - e(v); ``kept`` maps each new node index
    to its original index, ``offsets`` records the potential at each kept
    node, and ``source_n`` is the original node count, so energies of the
    transformed game can be lifted back.
    """

    graph: GameGraph
    kept: tuple[int, ...]
    offsets: tuple[int, ...]
    source_n: int

    def lift(self, sub_energies: EnergyFn) -> EnergyFn:
        """Map energies of the transformed game back to the original node set,
        adding the recorded offsets; dropped nodes are infinite."""
        total: list[Energy] = [INF] * self.source_n
        for new_index, old_index in enumerate(self.kept):
            value = sub_energies[new_index]
            total[old_index] = value if value == INF else value + self.offsets[new_index]
        return tuple(total)


def apply_potential(graph: GameGraph, e: EnergyFn) -> PotentialTransform:
    """Re-weight the game by the potential e and drop the infinite-e nodes.

    Requires e(v) <= e*(v) pointwise and the progress conditions on the game e
    was computed from; under that contract every cycle keeps its total weight,
    minimal energies shift down by exactly e, and every kept node retains an
    outgoing edge.  Edges from an Alice node into a dropped node are removed.

    Raises PotentialContractError when a finite-e Bob node has an edge into a
    dropped node, or a finite-e Alice node has no finite-e successor: neither
    can happen for an energy function produced by a sound approximation.
    Raises ValueError unless e has one entry per node.
    """
    if len(e) != graph.n:
        raise ValueError(f"expected {graph.n} energies, got {len(e)}")
    kept = [v for v in range(graph.n) if e[v] != INF]
    new_index = {old: new for new, old in enumerate(kept)}
    edges: list[Edge] = []
    has_successor = [False] * graph.n
    for src, dst, weight in graph.edges:
        if e[src] == INF:
            continue
        if e[dst] == INF:
            if not graph.is_alice(src):
                raise PotentialContractError(
                    f"Bob node {src} has finite energy but successor {dst} does not"
                )
            continue
        has_successor[src] = True
        edges.append((new_index[src], new_index[dst], weight + e[src] - e[dst]))
    for old in kept:
        if not has_successor[old] and graph.is_alice(old):
            raise PotentialContractError(
                f"Alice node {old} has finite energy but no finite-energy successor"
            )
    sub = GameGraph(tuple(graph.owners[v] for v in kept), tuple(edges))
    return PotentialTransform(sub, tuple(kept), tuple(e[v] for v in kept), graph.n)
