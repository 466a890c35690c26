"""Exact minimal energies via repeated approximation.

:func:`solve` first finds a trap that holds the losing region under a
small cap, trims it by Alice's attractor to the rest, finds the losing
region inside it with one full-range run of a dual game, and drops it
(:func:`_losing_region`), since losing nodes would otherwise climb to the
first level's bound in every guess.  The trim carries the pre-pass's
progress measure to the rest, and its max is that bound there in place
of the a-priori bound n*W; should a node of the rest come back infinite
from below the rest's n*W, the loop runs again from there.  On the rest it
guesses a lower bound D on the game's penalty, halving it until a guess is
accepted (:func:`_guess_loop`).  A guess runs levels on one graph
(:func:`_solve_level`): each level solves the game re-weighted by one
running potential, its weights rounded up to a multiple of the level's
granularity, and adds the result to it, until it is a fixed point.  The
nodes a first level makes infinite are cut as the region is (:func:`_cut`).
Why the region is exact is parts (a)-(c) of :func:`solve`'s docstring; why
an accepted guess is exact and the loop ends is (i)-(iv).
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .admissible import multiples_list
from .core import (
    INF,
    Energy,
    EnergyFn,
    GameGraph,
    PotentialTransform,
    apply_potential,
    opponent,
    verify_minimal,
)
from .rounding import _rounded_weights
from .value_iteration import ViterResult, solve_with_list


@dataclass(frozen=True)
class PhaseRecord:
    """One kernel call of a solve (:func:`_run_phase`): value iteration on
    ``nodes`` nodes over the multiples of ``granularity`` up to ``bound``."""

    nodes: int
    bound: int
    granularity: int  # B; a guess ends at its first level that rounds nothing, or sooner
    updates: int
    steps: int
    edge_work: int
    dropped: int  # nodes the call left infinite; of a guess's levels, only the first drops them


@dataclass(frozen=True)
class GuessRecord:
    error_budget: int  # c_k
    penalty_guess: Fraction  # D_k = c_k / n
    accepted: bool  # no level below the first found an infinite node
    phases: tuple[PhaseRecord, ...]  # a rejected guess ends at its refuting level


@dataclass(frozen=True)
class RegionRecord:
    """The pre-pass that finds and certifies the losing region L.

    ``size`` is |L|.  ``ended`` says how it ended: "empty" when the trap S'
    was empty, so L is too, or "dual" when the dual run on S' certified
    its finite set as L, which may be smaller than S'.
    """

    size: int
    ended: str  # "empty" or "dual"
    phases: tuple[PhaseRecord, ...]  # the primal, then the dual if S' is not empty


@dataclass(frozen=True)
class SolveReport:
    energies: EnergyFn
    region: RegionRecord
    guesses: tuple[GuessRecord, ...]
    wall_ms: float

    def _phases(self) -> Iterator[PhaseRecord]:
        yield from self.region.phases
        for guess in self.guesses:
            yield from guess.phases

    @property
    def fallback_used(self) -> bool:
        """Whether the accepted guess is below 2: full-range value iteration
        up to the first bound.  It can be the first guess, with none
        rejected: without a hint, whenever that bound is below 4n."""
        return bool(self.guesses) and self.guesses[-1].penalty_guess < 2

    @property
    def total_updates(self) -> int:
        return sum(p.updates for p in self._phases())

    @property
    def total_steps(self) -> int:
        return sum(p.steps for p in self._phases())

    @property
    def total_edge_work(self) -> int:
        return sum(p.edge_work for p in self._phases())


def _penalty_floor(penalty: Fraction | int | float | None) -> Fraction | None:
    """A penalty lower bound as a Fraction, or None when it caps nothing
    (None or ``INF``); a bound below 1, NaN or -inf raises ValueError.  The
    one check of both exact entry points."""
    if penalty is None or penalty == INF:
        return None
    if not penalty >= 1:  # NaN fails every comparison
        raise ValueError("the penalty lower bound must be at least 1")
    return Fraction(penalty)


def minimal_energy_with_penalty_bound(
    graph: GameGraph, penalty_floor: Fraction | int | float
) -> EnergyFn:
    """Minimal energies assuming ``penalty_floor`` <= P(G,w), from the
    a-priori bound n*W: one guess of :func:`solve`'s loop at that floor.

    The result is exact for any floor >= 1, ``INF`` included; a floor that a
    level below the first refutes raises ValueError instead (parts (i)-(iv)
    of :func:`solve`).
    """
    energies = _solve_level(graph, _penalty_floor(penalty_floor), [], graph.default_bound())
    if energies is None:
        raise ValueError("a level below the first refuted the penalty floor")
    return energies


def _error_budget(bound: int, n: int, floor: Fraction | None) -> int:
    """The error budget min(max(M // 2, n), floor(n*D)) of a level with
    bound M on n nodes, which is the next level's bound, under the penalty
    floor D; a floor of None caps nothing.  The guess loop starts at its
    first level's budget under the caller's hint.

    As D >= 1 gives floor(n*D) >= n, this is the paper's two regimes: one
    coarse step down to floor(n*D) when n*D < M/2 (then floor(n*D) <= M // 2),
    else halving, clamped up to n so that the granularity budget // n is
    never 0.
    """
    budget = max(bound // 2, n)
    if floor is not None:
        budget = min(budget, n * floor.numerator // floor.denominator)
    return budget


def _run_phase(
    graph: GameGraph, bound: int, granularity: int, phases: list[PhaseRecord],
    weights: list[int] | None = None,
) -> ViterResult:
    """One kernel call on ``graph``: value iteration over the multiples of
    ``granularity`` up to ``bound`` on ``weights``, by default the graph's
    own; appends the call's record to ``phases``.  On the graph's own
    weights the values round up, so the run gives a progress measure, at
    least e*; on weights rounded up to multiples of ``granularity``
    (:func:`_rounded_weights`), even under a zero potential, it gives the
    rounded game's energies, at most e*."""
    result = solve_with_list(graph, multiples_list(granularity, bound), weights)
    phases.append(PhaseRecord(
        graph.n, bound, granularity, result.total_updates, result.steps, result.edge_work,
        result.energies.count(INF),
    ))
    return result


def _cut(graph: GameGraph, energies: Sequence[Energy]) -> PotentialTransform:
    """``graph`` without the nodes where ``energies`` is infinite, weights kept."""
    return apply_potential(graph, tuple(INF if e == INF else 0 for e in energies))


def _solve_level(
    graph: GameGraph, floor: Fraction | None, phases: list[PhaseRecord], bound: int
) -> EnergyFn | None:
    """The levels of one penalty guess D on ``graph``, from a first ``bound``
    that caps its finite energies (part (i) of :func:`solve`); appends one
    record per level to ``phases``.  ``floor`` is D, or None when it caps
    nothing.  Returns the energies, or None when a level below the first
    refutes D.

    Each level is one :func:`_run_phase` on its own rounded weights: a level
    with bound M on n nodes runs over the multiples of B = budget // n up to
    M, where budget is its :func:`_error_budget` under D, the next level's
    bound.

    A level is a potential pi, the sum of the results so far, and a
    granularity B.  Its rounded game keeps the edges of ``graph`` with the
    weights round_up(w(u,v) + pi(u) - pi(v), B), which is the game that
    applying pi with :func:`apply_potential` and rounding would build, so the
    kernel reuses the graph's adjacency.  After the kernel, pi grows by its
    result e.  Only the first level may make nodes infinite: it cuts them
    (:func:`_cut`), and the loop goes on with pi on the nodes kept.  Any
    later level that makes a node infinite refutes D.  The first level whose
    pi passes :func:`verify_minimal` on the graph left after its cut is the
    last: pi is then exact, and a level that rounds nothing passes (part
    (iii) of :func:`solve`).  The result is pi, lifted back through the cut
    if the first level made one.
    """
    cut: PotentialTransform | None = None
    potential = [0] * graph.n
    first = True
    while graph.n:
        budget = _error_budget(bound, graph.n, floor)
        granularity = budget // graph.n
        weights = _rounded_weights(graph, potential, granularity)
        result = _run_phase(graph, bound, granularity, phases, weights)
        potential = [p + e for p, e in zip(potential, result.energies)]
        if phases[-1].dropped:
            if not first:
                return None
            cut = _cut(graph, potential)
            graph = cut.graph
            potential = [p for p in potential if p != INF]
        if verify_minimal(graph, potential):
            break
        bound = budget
        first = False
    energies = tuple(potential)
    return energies if cut is None else cut.lift(energies)


def _trim(graph: GameGraph, energies: EnergyFn) -> list[Energy]:
    """Carry the primal result p through Alice's attractor to the nodes
    outside its infinite set S.  Returns b: p outside S, a finite value on
    every attracted node of S, and INF exactly on S' = S minus the
    attractor, the nodes of S from which Bob can keep every play in S, a
    trap for Alice.  b is a progress measure outside S' (part (b) of
    :func:`solve`).

    A backward search from the nodes outside S over ``_adjacency``'s
    predecessor lists: an Alice node is attracted by its first attracted
    successor v, along an edge of weight w, and gets max(0, b(v) - w); a Bob
    node once all its out-edges lead to attracted nodes, which a per-node
    counter of the edges left tracks, and gets the max of max(0, b(v) - w)
    over them.
    """
    measure = list(energies)
    if INF not in measure:
        return measure
    succ, pred, _, alice, _, weights, _ = graph._adjacency
    left = [len(out) for out in succ]
    need = [0] * graph.n  # a Bob node's max over the edges counted so far
    frontier = [v for v in range(graph.n) if measure[v] != INF]
    while frontier:
        v = frontier.pop()
        for u, i in pred[v]:
            if measure[u] != INF:
                continue
            value = max(0, measure[v] - weights[i])
            if not alice[u]:
                need[u] = value = max(need[u], value)
                left[u] -= 1
                if left[u]:
                    continue
            measure[u] = value
            frontier.append(u)
    return measure


def _trap_dual(graph: GameGraph, trap: list[int]) -> GameGraph:
    """The dual of the subgame on ``trap``, a trap for Alice in ascending
    node order; part (a) of :func:`solve` reads a dual that is finite
    everywhere.

    The dual keeps the edges inside the trap in edge-list order, swaps the
    owners and re-weights each edge to -(k*w + 1) with k = |trap| + 1.  Every
    node keeps an out-edge: Alice's nodes have all their successors in the
    trap, Bob's at least one.
    """
    k = len(trap) + 1
    index = [-1] * graph.n
    for new, old in enumerate(trap):
        index[old] = new
    return GameGraph(
        tuple(opponent(graph.owners[v]) for v in trap),
        tuple(
            (index[src], index[dst], -(k * weight + 1))
            for src, dst, weight in graph.edges
            if index[src] >= 0 and index[dst] >= 0
        ),
    )


def _losing_region(graph: GameGraph) -> tuple[RegionRecord, list[Energy]]:
    """Find the losing region L and certify it.  Returns the region's record
    and a measure b whose infinite set is L and whose finite values cap e*.
    Why L is the losing region is parts (a)-(c) of :func:`solve`.

    One primal :func:`_run_phase` runs on the true weights up to the cap
    M = max(W, 1) at a level's granularity with no floor,
    :func:`_error_budget` // n.  Its infinite set S gives S' = S minus
    Alice's attractor to the rest, and the primal's measure carried there
    (:func:`_trim`).  An empty S' ends the region "empty".  Otherwise one
    full-range run of the dual of S' (:func:`_trap_dual`), up to the dual's
    own bound n'W', certifies its finite set as L, and the nodes of S' it
    leaves infinite, which win, get n*W in the measure: the region ends
    "dual".

    Two trade-offs.  The dual run has no work cap: its worst case is that
    of full-range value iteration with set lifts, which is not proven
    polynomial.  And when S' holds nodes that Alice wins, their n*W becomes
    the first bound of the guess loop on the rest.
    """
    n = graph.n
    if n == 0:
        return RegionRecord(0, "empty", ()), []
    bound = max(graph.max_weight, 1)
    phases: list[PhaseRecord] = []
    primal = _run_phase(graph, bound, _error_budget(bound, n, None) // n, phases)
    measure = _trim(graph, primal.energies)
    trap = [v for v in range(n) if measure[v] == INF]
    if not trap:
        return RegionRecord(0, "empty", tuple(phases)), measure
    dual = _trap_dual(graph, trap)
    run = _run_phase(dual, dual.default_bound(), 1, phases)
    winning = {v for v, e in zip(trap, run.energies) if e == INF}
    cap = graph.default_bound()
    measure = [cap if v in winning else b for v, b in enumerate(measure)]
    return RegionRecord(len(trap) - len(winning), "dual", tuple(phases)), measure


def _guess_loop(
    graph: GameGraph, floor: Fraction | None, bound: int
) -> tuple[EnergyFn, tuple[GuessRecord, ...]]:
    """The penalty-guess loop on ``graph`` from a first ``bound`` that caps
    its finite energies; returns the energies, certified at the accepted
    guess's last level, and the guesses, the accepted one last (see
    :func:`solve`)."""
    n = graph.n
    if n == 0:
        return (), ()
    budget = _error_budget(bound, n, floor)

    guesses: list[GuessRecord] = []
    while True:
        guess = Fraction(budget, n)
        phases: list[PhaseRecord] = []
        energies = _solve_level(graph, guess, phases, bound)
        guesses.append(GuessRecord(budget, guess, energies is not None, tuple(phases)))
        if energies is not None:
            break
        assert budget >= 2 * n, "a guess below 2 is never rejected"
        budget >>= 1
    return energies, tuple(guesses)


def solve(graph: GameGraph, *, penalty: Fraction | int | float | None = None) -> SolveReport:
    """Compute verified minimal energies without knowing the penalty.

    A ``penalty`` hint, a lower bound on the game's penalty, only sets the
    first guess below; it must be at least 1, and ``INF`` caps nothing.  By
    (i)-(iv) a wrong hint costs time but never changes the answer.

    First the losing region (:func:`_losing_region`).  Value iteration on
    the true weights under a small cap gives p; S is its infinite set, and
    S' is S minus Alice's attractor to the nodes outside S (:func:`_trim`).
    The losing region L is empty when S' is.  Otherwise take the dual game on
    S', with the owners swapped and each weight w re-weighted to
    -(k*w + 1), k = |S'| + 1 (:func:`_trap_dual`): a full-range run of it up
    to its own bound n'W' certifies its finite set as L, and the nodes of S'
    it leaves infinite win:

    (a) S' is a trap for Alice by construction (her nodes in S' have every
        successor in S', Bob's at least one), and by (b) every node outside
        S' wins, so Bob wins at a node of S' in the graph iff he wins there
        in the subgame on S': his winning strategy never leaves S', and
        Alice cannot leave it.  The dual's energy at a node is finite iff
        the dual's Alice, who is Bob, can keep every cycle, of total T and
        length 1 <= l <= |S'|, at k*T + l <= 0, that is T < 0; finite dual
        energies are at most n'W', so the full-range run gives them all and
        its finite set is exactly L;
    (b) p's finite values are a progress measure (Alice keeps them by moving
        along an edge that holds, Bob cannot break them), so every node
        outside S is winning; from her attractor to those nodes Alice forces
        a play into them, so the attractor wins too and S' holds every
        losing node;
    (c) S is the infinite set of a fixed point, so no Bob node outside S has
        an edge into S and every Alice node outside S keeps an edge out of
        it.  A Bob node in the attractor has every successor outside S', and
        an Alice node there has one.  So no Bob node outside S' has an edge
        into S' and every Alice node outside S' keeps an edge out of it.
        Inside S', a Bob node of S' minus L has no edge into L, or he would
        take it and win, and an Alice node there has an edge to a winning
        node, which lies in S' minus L.  So no Bob node outside L has an
        edge into L and every Alice node outside L keeps an edge out of it:
        cutting L (:func:`_cut`) cannot raise, and since Bob cannot enter L
        and Alice loses there, the rest is a subgame whose energies are the
        true ones.
    The trim also carries p into the attractor (:func:`_trim`): an Alice
    node there gets b = max(0, b(v) - w) from the successor v that attracted
    it along an edge of weight w, a Bob node the max of that over its
    out-edges, and b = p outside S.  So b is finite and non-negative off S',
    every Alice node there has an edge with b(u) + w >= b(v) and every Bob
    node has it on every edge: at an attracted node by construction, outside
    S by (b).  After a dual run, the nodes of S' minus L get b = n*W, which
    caps the energy of any winning node.  So e* <= b on the rest, and the
    rerun in (i) does not happen.

    The guess loop (:func:`_guess_loop`) runs on the rest, the graph minus
    b's infinite set, from a first bound M = max b, clamped at 0.  It tries
    error budgets c from max(M // 2, n) down (a hint only lowers the first
    to floor(n*penalty), never below n; see :func:`_error_budget`), halving
    until a guess is accepted.  A guess is accepted iff no level below the
    first makes a node infinite; :func:`_solve_level` stops at the first
    level that does, or after its first level whose potential pi is a fixed
    point, pi = N(pi) for the one-step operator N (:func:`verify_minimal`).
    This is exact and ends:

    (i) rounding up only helps Alice, so the rounded game's energies are at
        most e*, and a first bound M >= e*, such as n*W, caps the finite
        ones: the first level cuts only truly losing nodes.  A result with
        no ``INF`` entry made no node infinite at any level, so by (ii) and
        (iii) it is e* whatever M was.  The loop runs again from the rest's
        own n'W' iff the result has an ``INF`` entry and M < n'W', and the
        report lists those guesses after the first run's.  Every node of
        the rest wins, by (a)-(c), so an ``INF`` entry there can only come
        from an M below e*;
    (ii) a capped value iteration that makes no node infinite is the least
        fixed point of the uncapped operator, so each later level adds the
        exact energies of a rounded residual game, lower bounds: 0 <= pi <= e*;
    (iii) pi = N(pi) certifies pi: e* is the least fixed point of N, so
        e* <= pi, and pi <= e* by (i) and (ii); on the subgraph a first
        level's cut keeps, these are the graph's energies, as Bob has no
        edge out of it and Alice loses at the nodes it drops.  A level
        whose granularity B divides every residual weight w(u,v) + pi(u) -
        pi(v) rounds nothing: every value the kernel reaches is a multiple
        of B, so it makes a full-list run's updates and by (i) and (ii) adds
        e* of the game re-weighted by pi, and e*(G) = pi + e*(G re-weighted
        by pi) when 0 <= pi <= e*.  So a guess ends there at the latest;
    (iv) a guess below 2 has granularity 1 at its first level, which rounds
        nothing: full-range value iteration.  It is accepted at that
        level, after an M below e* too (pi is then a fixed point on the
        subgraph its cut keeps), and halving from c >= 2n reaches it.
    No caller can pass a bound: a run starts at max b, which (i)'s rerun
    replaces if it is below e*, or at n*W of the graph it is given.  No
    level's cut can raise PotentialContractError: the first level's result
    is a fixed point of the rounded game, which keeps the graph's edges, so
    its infinite set meets the contract of :func:`apply_potential`.
    """
    started = time.perf_counter()
    floor = _penalty_floor(penalty)
    region, measure = _losing_region(graph)
    cut = _cut(graph, measure) if INF in measure else None
    rest = graph if cut is None else cut.graph
    bound = max([0, *(b for b in measure if b != INF)])
    energies, guesses = _guess_loop(rest, floor, bound)
    if INF in energies and bound < rest.default_bound():
        energies, rerun = _guess_loop(rest, floor, rest.default_bound())
        guesses += rerun
    if cut is not None:
        energies = cut.lift(energies)
    return SolveReport(
        energies=energies,
        region=region,
        guesses=guesses,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )
