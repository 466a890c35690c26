"""Polynomial-time reductions onto structurally restricted games.

Three composable transformations: (1) a gadget that preserves the winner at a
chosen start node while making one player win at every node, (2) an edge
subdivision that removes same-owner edges, preserving all minimal energies at
original nodes, and (3) a completion that adds every missing cross edge of a
bipartite win-everywhere game, with weights hostile enough that the added
edges are never worth taking.  The composition shows that complete bipartite
games (which are strongly ergodic and extremely uniform) are as hard as the
general case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ALICE, BOB, Edge, GameGraph, _check_node, opponent


@dataclass(frozen=True)
class ReductionTrace:
    """Provenance of a reduction output: per output node, where it came from.
    :meth:`lines` is the text of the CLI's ``.trace`` sidecar."""

    node_origin: tuple[str, ...]

    def lines(self) -> list[str]:
        return [f"{i} <- {origin}" for i, origin in enumerate(self.node_origin)]


def to_win_everywhere(
    graph: GameGraph, start: int
) -> tuple[GameGraph, int, ReductionTrace]:
    """Rebuild the game so that one player wins at every node while the winner
    at ``start`` is unchanged.

    Every edge (x,y) becomes a five-edge gadget through a fresh Alice node u
    and a fresh Bob node v: (x,u) keeps the original weight, (u,v) and (v,y)
    are free, and both fresh nodes can bail out to ``start`` — Alice suicidally
    (weight -nW), Bob generously (weight +nW).  Node and weight parameters are
    read from the input graph.  The start keeps its index.
    """
    _check_node(graph, start)
    n = graph.n
    cap = graph.max_weight
    owners = list(graph.owners)
    origin = [f"node {v}" for v in range(n)]
    edges: list[Edge] = []
    for i, (x, y, weight) in enumerate(graph.edges):
        u = len(owners)
        owners.append(ALICE)
        origin.append(f"edge {i} alice-relay")
        v = len(owners)
        owners.append(BOB)
        origin.append(f"edge {i} bob-relay")
        edges.extend(
            [
                (x, u, weight),
                (u, v, 0),
                (v, y, 0),
                (u, start, -n * cap),
                (v, start, n * cap),
            ]
        )
    return GameGraph(tuple(owners), tuple(edges)), start, ReductionTrace(tuple(origin))


def is_bipartite(graph: GameGraph) -> bool:
    return all(graph.owners[src] != graph.owners[dst] for src, dst, _ in graph.edges)


def to_bipartite(graph: GameGraph) -> tuple[GameGraph, ReductionTrace]:
    """Split every same-owner edge (u,v) through a fresh relay of the opposite
    player: (u, relay) keeps the weight, (relay, v) is free.

    Minimal energies at the original nodes are unchanged: the relay merely
    delays the move by one free step taken by a player with no choice.
    """
    owners = list(graph.owners)
    origin = [f"node {v}" for v in range(graph.n)]
    edges: list[Edge] = []
    appended: list[Edge] = []
    for i, (src, dst, weight) in enumerate(graph.edges):
        if graph.owners[src] != graph.owners[dst]:
            edges.append((src, dst, weight))
            continue
        relay = len(owners)
        owners.append(opponent(graph.owners[src]))
        origin.append(f"edge {i} relay")
        edges.append((src, relay, weight))
        appended.append((relay, dst, 0))
    return GameGraph(tuple(owners), tuple(edges + appended)), ReductionTrace(tuple(origin))


def _missing_cross_pairs(
    graph: GameGraph,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The Alice-to-Bob pairs, then the Bob-to-Alice pairs, with no edge,
    each in ascending (source, target) order."""
    alice_nodes = [v for v in range(graph.n) if graph.is_alice(v)]
    bob_nodes = [v for v in range(graph.n) if not graph.is_alice(v)]
    present = {(src, dst) for src, dst, _ in graph.edges}
    return (
        [(u, v) for u in alice_nodes for v in bob_nodes if (u, v) not in present],
        [(u, v) for u in bob_nodes for v in alice_nodes if (u, v) not in present],
    )


def to_complete_bipartite(graph: GameGraph) -> tuple[GameGraph, ReductionTrace]:
    """Add every missing cross edge of a bipartite game.

    Callers must ensure one player wins everywhere (compose with
    :func:`to_win_everywhere`); only bipartiteness is checked here.  Missing
    Alice-to-Bob edges are added first with weight -nW, making them strictly
    losing detours for Alice; missing Bob-to-Alice edges are then added with
    weight n^2*W', W' the largest absolute weight after the first step (nW
    if it added edges), making them strictly winning detours Bob will never
    take.  The everywhere-winner is preserved.
    """
    if not is_bipartite(graph):
        raise ValueError("the completion step requires a bipartite game")
    n = graph.n
    to_bob, to_alice = _missing_cross_pairs(graph)
    cap1 = graph.max_weight
    cap2 = n * cap1 if to_bob else cap1  # W after step 1
    fill = [(u, v, -n * cap1) for u, v in to_bob]
    fill += [(u, v, n * n * cap2) for u, v in to_alice]
    trace = ReductionTrace(tuple(f"node {v}" for v in range(n)))
    return GameGraph(graph.owners, graph.edges + tuple(fill)), trace


def is_complete_bipartite(graph: GameGraph) -> bool:
    """True iff no same-owner edge exists and every cross pair has an edge."""
    return is_bipartite(graph) and _missing_cross_pairs(graph) == ([], [])
