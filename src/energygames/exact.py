"""Exact minimal energies via repeated approximation.

Given a lower bound D on the game's penalty and an upper bound M on its
finite minimal energies, one round of the rounding approximation solves the
game to within half the bound; subtracting the approximation as a potential
yields a residual game with the same penalty and half the bound.  Iterating
ends at the first level whose granularity divides every residual weight: it
rounds nothing and is exact.  Granularity 1 always does; on weights with a
common divisor, such as clustered ones, an earlier level can.  The residual
games are never built as graphs: a level is the summed potential and a
granularity, passed to the kernel as a weight list on the graph it was
given.  Only the first level may drop infinite nodes, by building a smaller
graph; a later level that finds one refutes D (see :func:`_solve_level`).

The driver does not know the penalty: on the a-priori bound M = n*W it
halves a guessed lower bound until no level below the first refutes it, which
is exact and ends by a guess below 2, plain value iteration (see :func:`solve`).
A wrong guess, the caller's included, costs time but never changes the answer.

Losing nodes would climb to n*W in every guess, so before the guess loop
:func:`solve` finds the losing region under small caps, certifies it by a trap
check and a dual game, and drops it; the guess loop then runs on the rest.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .admissible import multiples_list
from .core import (
    INF,
    EnergyFn,
    GameGraph,
    PotentialContractError,
    PotentialTransform,
    apply_potential,
    opponent,
    verify_minimal,
)
from .rounding import _rounded_weights
from .value_iteration import ViterResult, solve_with_list


@dataclass(frozen=True)
class PhaseRecord:
    """One level of the approximate-transform-recurse pipeline."""

    nodes: int
    bound: int
    error_budget: int | None  # None for the region pre-pass's coarse steps
    granularity: int  # B; in a guess, the first level that rounds nothing is the last
    updates: int
    steps: int
    edge_work: int
    dropped: int


@dataclass(frozen=True)
class GuessRecord:
    error_budget: int  # c_k
    penalty_guess: Fraction  # D_k = c_k / n
    accepted: bool  # no level below the first found an infinite node
    phases: tuple[PhaseRecord, ...]  # a rejected guess ends at its refuting level


@dataclass(frozen=True)
class RegionRecord:
    """The pre-pass that finds and certifies the losing region."""

    size: int  # nodes in the last round's infinite set
    certified: bool
    rounds: int
    phases: tuple[PhaseRecord, ...]  # one per kernel call, primal and dual


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
        """Whether the accepted guess is below 2: full-range value iteration."""
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


def _value_iteration_phase(
    n: int, bound: int, result: ViterResult, granularity: int,
    error_budget: int | None = None, dropped: int = 0,
) -> PhaseRecord:
    return PhaseRecord(
        nodes=n,
        bound=bound,
        error_budget=error_budget,
        granularity=granularity,
        updates=result.total_updates,
        steps=result.steps,
        edge_work=result.edge_work,
        dropped=dropped,
    )


def _coarse_step(graph: GameGraph, cap: int, phases: list[PhaseRecord]) -> ViterResult:
    """Value iteration over the multiples of max(1, cap // 2n) up to ``cap``;
    appends its record to ``phases``."""
    granularity = max(1, cap // (2 * graph.n))
    result = solve_with_list(graph, multiples_list(granularity, cap))
    phases.append(_value_iteration_phase(graph.n, cap, result, granularity))
    return result


def minimal_energy_with_penalty_bound(
    graph: GameGraph, penalty_floor: Fraction | int | float
) -> EnergyFn:
    """Minimal energies assuming ``penalty_floor`` <= P(G,w), from the
    a-priori bound n*W.

    The result is exact for any floor >= 1, ``INF`` included; a floor that a
    level below the first refutes raises ValueError instead (see :func:`solve`).
    """
    if penalty_floor == INF:  # caps nothing: every floor above n*W halves each level
        penalty_floor = graph.default_bound() + 1
    floor = Fraction(penalty_floor)
    if floor < 1:
        raise ValueError("the penalty lower bound must be at least 1")
    energies = _solve_level(graph, floor, [])
    if energies is None:
        raise ValueError("a level below the first refuted the penalty floor")
    return energies


def _weight_gcd(graph: GameGraph) -> int:
    """The gcd of the edge weights (0 when every weight is 0)."""
    return gcd(*(weight for _, _, weight in graph.edges))


def _solve_level(
    graph: GameGraph, floor: Fraction, phases: list[PhaseRecord]
) -> EnergyFn | None:
    """The recursion behind :func:`minimal_energy_with_penalty_bound`, run as
    a loop over the levels of one graph from its a-priori bound n*W; appends
    one record per level to ``phases``.

    A level with bound M on n nodes runs over the multiples of B = budget // n
    up to M, where its error budget, the next level's bound, is
    min(max(M // 2, n), floor(n*D)).  As D >= 1 gives floor(n*D) >= n, this
    is the paper's two regimes: one coarse step down to floor(n*D) when
    n*D < M/2 (then floor(n*D) <= M // 2), else halving, clamped up to n so
    that B is never 0.  A level whose B divides every residual weight
    rounds nothing and is last; B = 1 always does.

    A level is a potential pi, the sum of the approximations so far, and a
    granularity B.  Its rounded game keeps the edges of ``graph`` with the
    weights round_up(w(u,v) + pi(u) - pi(v), B), which is the game that
    applying pi with :func:`apply_potential` and rounding would build, so the
    kernel reuses the graph's adjacency.  After the kernel, pi grows by its
    result e.  Only the first level may make nodes infinite: it applies pi to
    drop them, and the loop goes on with the kept subgraph and pi = 0.  Any
    later level that makes a node infinite refutes the floor (the loop
    returns None); the first level that rounds nothing ends the loop, before
    any transform.  The result is pi, lifted back through the first level's
    transform if it dropped nodes.

    Whether a level rounds nothing is an O(1) test.  ``common`` is the gcd of
    the weights of the graph the loop runs on, folded with the granularity
    of every level run on it since: pi is a sum of level results, each a
    multiple of its level's B, so every residual weight is a multiple of
    ``common``, and a level with ``common % B == 0`` rounds nothing.  The
    weight gcd is taken once per graph: at the start, and again when the
    first level's transform replaces the graph.
    """
    original_n = graph.n
    transform: PotentialTransform | None = None
    potential = [0] * graph.n
    bound = graph.default_bound()
    common = _weight_gcd(graph)
    first = True
    while graph.n:
        n = graph.n
        budget = min(max(bound // 2, n), n * floor.numerator // floor.denominator)
        granularity = budget // n
        weights = _rounded_weights(graph, potential, granularity)
        result = solve_with_list(graph, multiples_list(granularity, bound), weights)
        dropped = result.energies.count(INF)
        phases.append(_value_iteration_phase(n, bound, result, granularity, budget, dropped))
        if dropped and not first:
            return None
        potential = [p + e for p, e in zip(potential, result.energies)]
        if common % granularity == 0:
            break
        common = gcd(common, granularity)
        if dropped:
            transform = apply_potential(graph, tuple(potential))
            graph = transform.graph
            potential = [0] * graph.n
            common = _weight_gcd(graph)
        bound = budget
        first = False
    energies = tuple(potential)
    return energies if transform is None else transform.lift(energies, original_n)


def _trap_dual(graph: GameGraph, losing: list[int]) -> GameGraph | None:
    """The dual of the subgame on ``losing``, or None unless that set is a
    trap for Alice.

    The dual swaps the owners and re-weights each edge to -(k*w + 1) with
    k = |S| + 1.  A finite dual energy everywhere is a Bob strategy inside S
    under which every cycle has k*T + L <= 0 for its total T and length
    1 <= L <= |S|, that is T < 0.

    The trap test is :func:`apply_potential`'s contract on the owner-swapped
    game with potential 0 on S and infinity elsewhere: with the owners
    swapped, "no finite Bob node has an edge out of S" says that Alice cannot
    leave S, and "every finite Alice node keeps a successor in S" says that
    every Bob node of S can stay.  The kept subgame, in ascending node order
    with its weights unchanged by the zero potential, is the dual.
    """
    k = len(losing) + 1
    swapped = GameGraph(
        tuple(opponent(owner) for owner in graph.owners),
        tuple((src, dst, -(k * weight + 1)) for src, dst, weight in graph.edges),
    )
    potential = [INF] * graph.n
    for v in losing:
        potential[v] = 0
    try:
        return apply_potential(swapped, tuple(potential)).graph
    except PotentialContractError:
        return None


def _losing_region(graph: GameGraph) -> tuple[RegionRecord, list[int] | None]:
    """Find the losing region and certify it; the node list is None unless
    certified.  The argument is in :func:`solve`."""
    n = graph.n
    if n == 0:
        return RegionRecord(0, True, 0, ()), []
    cap = graph.default_bound()
    bound = max(graph.max_weight, 1)
    phases: list[PhaseRecord] = []
    primal_work = dual_work = 0
    rounds = 0
    tried: list[int] | None = None  # the last S whose dual was built
    dual: GameGraph | None = None
    dual_cap = 0
    while True:
        rounds += 1
        primal = _coarse_step(graph, bound, phases)
        primal_work += primal.edge_work
        losing = [v for v in range(n) if primal.energies[v] == INF]
        if not losing:
            return RegionRecord(0, True, rounds, tuple(phases)), losing
        size = len(losing)
        # The dual depends only on S, so for an unchanged S the ladder
        # resumes at the first cap it has not tried.
        if losing != tried:
            tried = losing
            dual = _trap_dual(graph, losing)
            if dual is not None:
                # A node's first update from 0 already reaches its one-step
                # target, so caps below the largest target fail for certain.
                succ, _ = dual._adjacency
                floor = max(
                    (min if dual.is_alice(u) else max)(-dual.edges[i][2] for _, i in succ[u])
                    for u in range(size)
                )
                dual_cap = size + 1
                while dual_cap < floor:
                    dual_cap *= 2
        if dual is not None:
            top = (size + 1) * bound
            while dual_cap <= top:
                result = _coarse_step(dual, dual_cap, phases)
                if INF not in result.energies:
                    return RegionRecord(size, True, rounds, tuple(phases)), losing
                dual_work += result.edge_work
                if dual_work > primal_work:
                    return RegionRecord(size, False, rounds, tuple(phases)), None
                dual_cap *= 2
        bound *= 2
        if bound >= cap:
            return RegionRecord(len(losing), False, rounds, tuple(phases)), None


def _guess_loop(
    graph: GameGraph, penalty: Fraction | int | float | None
) -> tuple[EnergyFn, tuple[GuessRecord, ...]]:
    """The penalty-guess loop on the a-priori bound n*W of ``graph``; returns
    the energies and the guesses, the accepted one last (see :func:`solve`)."""
    n = graph.n
    if n == 0:
        return (), ()
    budget = graph.default_bound() >> 1
    if penalty is not None and penalty != INF:
        budget = min(budget, n * Fraction(penalty) // 1)
    budget = max(budget, n)

    guesses: list[GuessRecord] = []
    while True:
        guess = Fraction(budget, n)
        phases: list[PhaseRecord] = []
        energies = _solve_level(graph, guess, phases)
        guesses.append(GuessRecord(budget, guess, energies is not None, tuple(phases)))
        if energies is not None:
            break
        assert budget >= 2 * n, "a guess below 2 is never rejected"
        budget >>= 1
    assert verify_minimal(graph, energies), "an accepted guess is exact"
    return energies, tuple(guesses)


def solve(graph: GameGraph, *, penalty: Fraction | int | float | None = None) -> SolveReport:
    """Compute verified minimal energies without knowing the penalty.

    First the losing region.  Starting at M = max(W, 1) and doubling M, value
    iteration on the true weights over the multiples of max(1, M // 2n) up
    to M gives p; S is its infinite set.  S is certified when it is a trap
    for Alice (her nodes in S have every successor in S, Bob's at least one)
    and a dual game on S is finite everywhere (see :func:`_trap_dual`).  The
    dual is solved over caps D = k, 2k, ... up to k*M, k = |S| + 1, each over
    the multiples of max(1, D // 2|S|); caps below the largest one-step
    target of the dual are skipped, because a node's first update reaches
    its target, and so are caps an earlier round already tried on the same
    S.  Then S is exactly the losing region:

    (a) the trap and the dual give Bob a strategy that keeps every play in S
        and makes every cycle negative, so S holds only losing nodes;
    (b) p's finite values are a progress measure (Alice keeps them by moving
        along an edge that holds, Bob cannot break them), so every node
        outside S is winning and S holds every losing node;
    (c) S is the infinite set of a fixed point, so no Bob node outside S has
        an edge into it and every Alice node outside S keeps an edge out of
        it: dropping S with :func:`apply_potential` cannot raise, and since
        Bob cannot enter S and Alice loses there, the rest is a subgame
        whose energies are the true ones.
    No S is certified when M reaches n*W, or when the dual's cumulative edge
    work passes the primal's; the guess loop then runs on the whole graph.

    The guess loop, on the a-priori bound M = n*W of the graph it is given,
    tries error budgets c from max(M >> 1, n) down (a finite ``penalty`` only
    lowers the first to floor(n*penalty), never below n), halving until a
    guess is accepted.  A guess is accepted iff no level below the first
    makes a node infinite; :func:`_solve_level` stops at the first level that
    does, or after its first level that rounds nothing.  This is exact and
    ends:

    (i) rounding up only helps Alice, and the rounded game's finite energies
        are at most n*W, so the first phase drops only truly losing nodes;
    (ii) a capped value iteration that makes no node infinite is the least
        fixed point of the uncapped operator, so each later level adds the
        exact energies of a rounded residual game, lower bounds: 0 <= pi <= e*;
    (iii) a level whose granularity B divides every residual weight
        w(u,v) + pi(u) - pi(v) rounds nothing: every value the kernel
        reaches is then a multiple of B, so its run over the multiples of B
        makes the updates a run over the full list would.  By (i) and (ii)
        it adds e* of the game re-weighted by pi, and e*(G) = pi + e*(G
        re-weighted by pi) whenever 0 <= pi <= e*: pi is e*, and a later
        level could neither add to it nor refute the guess, so the guess
        ends there;
    (iv) a guess below 2 has granularity 1 at its first level, which rounds
        nothing: full-range value iteration.  It is accepted, and halving
        from c >= 2n reaches it.
    (i) holds by construction: :func:`_solve_level` starts every run at n*W
    of the graph it is given, and no caller can pass a smaller bound.  No
    guess can raise PotentialContractError: the first level's approximation
    is a fixed point of the rounded game, which keeps the graph's edges, so
    it meets the contract of :func:`apply_potential`.
    """
    started = time.perf_counter()
    if penalty is not None and penalty < 1:
        raise ValueError("the penalty lower bound must be at least 1")
    region, losing = _losing_region(graph)
    rest, transform = graph, None
    if losing:
        drop = [0] * graph.n
        for v in losing:
            drop[v] = INF
        transform = apply_potential(graph, tuple(drop))
        rest = transform.graph
    energies, guesses = _guess_loop(rest, penalty)
    if transform is not None:
        energies = transform.lift(energies, graph.n)
    return SolveReport(
        energies=energies,
        region=region,
        guesses=guesses,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )
