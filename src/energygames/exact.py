"""Exact minimal energies via repeated approximation.

Given a lower bound D on the game's penalty and an upper bound M on its
finite minimal energies, one round of the rounding approximation solves the
game to within half the bound; subtracting the approximation as a potential
yields a residual game with the same penalty and half the bound.  Iterating
reaches a trivially small bound, where plain value iteration finishes.

The driver does not know the penalty: on the a-priori bound M = n*W it
guesses decreasing lower bounds, runs the recursion and keeps a result only
when a check that is exact on that bound passes (see :func:`solve`).  A wrong
guess, the caller's included, costs time but never changes the answer.

Losing nodes would climb to n*W in every guess, so before the guess loop
:func:`solve` finds the losing region under small caps, certifies it by a trap
check and a dual game, and drops it; the guess loop then runs on the rest.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .admissible import full_list, multiples_list
from .core import (
    INF,
    EnergyFn,
    GameGraph,
    PotentialContractError,
    apply_potential,
    opponent,
    verify_minimal,
)
from .rounding import approximate_energies
from .value_iteration import ViterResult, solve_with_list


@dataclass(frozen=True)
class PhaseRecord:
    """One level of the approximate-transform-recurse pipeline."""

    nodes: int
    bound: int
    error_budget: int | None  # None for a base-case value iteration
    granularity: int | None
    updates: int
    steps: int
    edge_work: int
    dropped: int


@dataclass(frozen=True)
class GuessRecord:
    error_budget: int  # c_k
    penalty_guess: Fraction  # D_k = c_k / n
    verified: bool
    infinite_consistent: bool
    contract_error: str | None
    phases: tuple[PhaseRecord, ...]

    @property
    def accepted(self) -> bool:
        return self.contract_error is None and self.verified and self.infinite_consistent


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
    bound: int  # the guess loop's a-priori bound, on the nodes it solved
    region: RegionRecord
    guesses: tuple[GuessRecord, ...]
    fallback: PhaseRecord | None  # the full-range value iteration, if it ran
    wall_ms: float

    def _phases(self) -> Iterator[PhaseRecord]:
        yield from self.region.phases
        for guess in self.guesses:
            yield from guess.phases
        if self.fallback is not None:
            yield self.fallback

    @property
    def fallback_used(self) -> bool:
        return self.fallback is not None

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
    n: int, bound: int, result: ViterResult, granularity: int | None = None
) -> PhaseRecord:
    return PhaseRecord(
        nodes=n,
        bound=bound,
        error_budget=None,
        granularity=granularity,
        updates=result.total_updates,
        steps=result.steps,
        edge_work=result.edge_work,
        dropped=0,
    )


def minimal_energy_with_penalty_bound(
    graph: GameGraph,
    bound: int,
    penalty_floor: Fraction | int,
) -> EnergyFn:
    """Minimal energies assuming ``penalty_floor`` <= P(G,w) and ``bound``
    caps the finite minimal energies.

    When either assumption is wrong the result may be wrong and must be
    checked by the caller (see :func:`solve`); a violated potential-transform
    contract surfaces as PotentialContractError.
    """
    floor = Fraction(penalty_floor)
    if floor < 1:
        raise ValueError("the penalty lower bound must be at least 1")
    if bound < 0:
        raise ValueError("the energy bound must be non-negative")
    return _solve_level(graph, bound, floor, [])


def _solve_level(
    graph: GameGraph, bound: int, floor: Fraction, phases: list[PhaseRecord]
) -> EnergyFn:
    """The recursion behind :func:`minimal_energy_with_penalty_bound`; appends
    one record per level to ``phases``."""
    n = graph.n
    if n == 0:
        return ()
    if floor >= Fraction(bound, 2 * n):
        if bound <= n:
            result = solve_with_list(graph, full_list(n))
            phases.append(_value_iteration_phase(n, bound, result))
            return result.energies
        # Halving step; the approximation rejects budgets below n, so small
        # odd bounds are clamped up (still within n * floor).
        budget = max(bound // 2, n)
    else:
        # One coarse step brings the bound down to n*D, after which the
        # halving regime applies all the way down.
        budget = (n * floor.numerator) // floor.denominator
    approx = approximate_energies(graph, bound, budget)
    transform = apply_potential(graph, approx.energies)
    phases.append(
        PhaseRecord(
            nodes=n,
            bound=bound,
            error_budget=budget,
            granularity=approx.granularity,
            updates=approx.viter.total_updates,
            steps=approx.viter.steps,
            edge_work=approx.viter.edge_work,
            dropped=n - len(transform.kept),
        )
    )
    residual = _solve_level(transform.graph, budget, floor, phases)
    return transform.lift(residual, n)


def _trap_dual(graph: GameGraph, losing: list[int]) -> GameGraph | None:
    """The dual of the subgame on ``losing``, or None unless that set is a
    trap for Alice.

    The dual swaps the owners and re-weights each edge to -(k*w + 1) with
    k = |S| + 1.  A finite dual energy everywhere is a Bob strategy inside S
    under which every cycle has k*T + L <= 0 for its total T and length
    1 <= L <= |S|, that is T < 0.
    """
    index = {v: i for i, v in enumerate(losing)}
    stays = [False] * len(losing)
    k = len(losing) + 1
    edges = []
    for src, dst, weight in graph.edges:
        i = index.get(src)
        if i is None:
            continue
        j = index.get(dst)
        if j is None:
            if graph.is_alice(src):
                return None  # Alice can leave S
            continue
        stays[i] = True
        edges.append((i, j, -(k * weight + 1)))
    if not all(stays):
        return None  # a Bob node cannot stay in S
    return GameGraph(tuple(opponent(graph.owners[v]) for v in losing), tuple(edges))


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
        granularity = max(1, bound // (2 * n))
        primal = solve_with_list(graph, multiples_list(granularity, bound))
        phases.append(_value_iteration_phase(n, bound, primal, granularity))
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
                floor = max(
                    (min if dual.is_alice(u) else max)(-dual.edges[i][2] for i in dual.out_edges[u])
                    for u in range(size)
                )
                dual_cap = size + 1
                while dual_cap < floor:
                    dual_cap *= 2
        if dual is not None:
            top = (size + 1) * bound
            while dual_cap <= top:
                dual_granularity = max(1, dual_cap // (2 * size))
                result = solve_with_list(dual, multiples_list(dual_granularity, dual_cap))
                phases.append(_value_iteration_phase(size, dual_cap, result, dual_granularity))
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
    graph: GameGraph, penalty: Fraction | int | None
) -> tuple[EnergyFn, int, tuple[GuessRecord, ...], PhaseRecord | None]:
    """The penalty-guess loop on the a-priori bound n*W of ``graph``; returns
    the energies, that bound, the guesses and the fallback, if it ran."""
    n = graph.n
    cap = graph.default_bound()
    if n == 0:
        return (), cap, (), None
    budget = cap >> 1
    if penalty is not None:
        budget = min(budget, n * Fraction(penalty) // 1)

    guesses: list[GuessRecord] = []
    while budget >= 2 * n:
        guess = Fraction(budget, n)
        phases: list[PhaseRecord] = []
        contract_error: str | None = None
        energies: EnergyFn | None = None
        try:
            energies = _solve_level(graph, cap, guess, phases)
        except PotentialContractError as exc:
            contract_error = str(exc)
        verified = energies is not None and verify_minimal(graph, energies)
        consistent = energies is not None and energies.count(INF) == phases[0].dropped
        record = GuessRecord(
            error_budget=budget,
            penalty_guess=guess,
            verified=verified,
            infinite_consistent=consistent,
            contract_error=contract_error,
            phases=tuple(phases),
        )
        guesses.append(record)
        if record.accepted:
            assert energies is not None
            return energies, cap, tuple(guesses), None
        budget >>= 1
    result = solve_with_list(graph, full_list(cap))
    assert verify_minimal(graph, result.energies), "full-range value iteration is exact"
    return result.energies, cap, tuple(guesses), _value_iteration_phase(n, cap, result)


def solve(graph: GameGraph, *, penalty: Fraction | int | None = None) -> SolveReport:
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
    tries error budgets c from M >> 1 down (``penalty`` only lowers the first
    to floor(n*penalty)), halving until the guess c/n would drop below 2,
    then runs full-range value iteration.  A run is accepted iff it passes
    the fixed-point check and has exactly as many infinite nodes as its
    first phase dropped (lifting keeps those infinite), that is, iff no
    deeper level found a new infinite node.  This is exact:

    (i) rounding up only helps Alice, and the rounded game's finite energies
        are at most n*W, so the first phase drops only truly losing nodes;
    (ii) a deeper level's capped value iteration is the least fixed point of
        an operator at least the true one: if it makes no new node infinite,
        its values are the rounded game's energies, lower bounds, so the
        lifted result is at most e*;
    (iii) passing :func:`verify_minimal` gives at least e*.
    A bound below n*W would break (i), so none is taken.
    """
    started = time.perf_counter()
    if penalty is not None and penalty < 1:
        raise ValueError("the penalty lower bound must be at least 1")
    region, losing = _losing_region(graph)
    if losing:
        drop = [0] * graph.n
        for v in losing:
            drop[v] = INF
        transform = apply_potential(graph, tuple(drop))
        energies, bound, guesses, fallback = _guess_loop(transform.graph, penalty)
        energies = transform.lift(energies, graph.n)
    else:
        energies, bound, guesses, fallback = _guess_loop(graph, penalty)
    return SolveReport(
        energies=energies,
        bound=bound,
        region=region,
        guesses=guesses,
        fallback=fallback,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )
