"""Additive approximation of minimal energies by weight rounding.

Rounding every weight up to the nearest multiple of B can only help Alice, so
the minimal energies of the rounded game lower-bound the true ones.  When
every node's penalty is at least B (every negative cycle Bob can force has
average weight <= -B), the rounded game keeps all those cycles negative and
the loss is at most B per edge of a simple path: the true energies exceed the
rounded ones by at most n*B.  Solving the rounded game is cheap because its
energies are multiples of B.  The solver takes the rounded weights as a list
on the input graph, so it reuses that graph's adjacency; only
:func:`round_weights` builds the rounded game as a graph.
"""

from __future__ import annotations

from collections.abc import Sequence

from .admissible import multiples_list
from .core import GameGraph
from .value_iteration import ViterResult, solve_with_list


def _rounded_weights(graph: GameGraph, potential: Sequence[int], granularity: int) -> list[int]:
    """The weights round_up(w(u,v) + pi(u) - pi(v), B) in edge-list order:
    the rounded game of ``graph`` re-weighted by the potential pi.  B = 1
    rounds nothing."""
    return [
        -((potential[dst] - potential[src] - weight) // granularity) * granularity
        for src, dst, weight in graph.edges
    ]


def round_weights(graph: GameGraph, granularity: int) -> GameGraph:
    """The game with every edge weight rounded up to the nearest multiple of
    ``granularity``.

    Each rounded weight w_B satisfies w <= w_B < w + B; the owners and the
    edge order are the input's, and the input graph is untouched.
    """
    if granularity < 1:
        raise ValueError("granularity must be positive")
    rounded = _rounded_weights(graph, [0] * graph.n, granularity)
    edges = tuple((src, dst, w) for (src, dst, _), w in zip(graph.edges, rounded))
    return GameGraph(graph.owners, edges)


def approximate_energies(graph: GameGraph, bound: int, error_budget: int) -> ViterResult:
    """Solve the rounded game exactly, yielding a lower bound on the true
    minimal energies.

    ``bound`` must cap the finite minimal energies of the input game (it then
    also caps the rounded game's, which can only be smaller).  Returns the
    kernel's result on the rounded game; its energies e satisfy e <= e*
    unconditionally; when every node's penalty is at least
    B = floor(error_budget/n) they additionally satisfy
    e* <= e + n*B <= e + error_budget with identical infinite sets.
    Rejects the empty game, error budgets below the node count (B = 0) and,
    through :func:`multiples_list`, a negative bound.
    """
    if graph.n == 0:
        raise ValueError("the game has no nodes")
    if error_budget < graph.n:
        raise ValueError(
            f"error budget {error_budget} is below the node count {graph.n}"
        )
    granularity = error_budget // graph.n
    rounded = _rounded_weights(graph, [0] * graph.n, granularity)
    return solve_with_list(graph, multiples_list(granularity, bound), rounded)
