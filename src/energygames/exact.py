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
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .admissible import full_list
from .core import (
    INF,
    EnergyFn,
    GameGraph,
    PotentialContractError,
    apply_potential,
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
class SolveReport:
    energies: EnergyFn
    bound: int
    guesses: tuple[GuessRecord, ...]
    fallback: PhaseRecord | None  # the full-range value iteration, if it ran
    wall_ms: float

    def _phases(self) -> Iterator[PhaseRecord]:
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


def _value_iteration_phase(n: int, bound: int, result: ViterResult) -> PhaseRecord:
    return PhaseRecord(
        nodes=n,
        bound=bound,
        error_budget=None,
        granularity=None,
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


def solve(graph: GameGraph, *, penalty: Fraction | int | None = None) -> SolveReport:
    """Compute verified minimal energies without knowing the penalty.

    On the a-priori bound M = n*W, tries error budgets c from M >> 1 down
    (``penalty`` only lowers the first to floor(n*penalty)), halving until the
    guess c/n would drop below 2, then runs full-range value iteration.  A run
    is accepted iff it passes the fixed-point check and has exactly as many
    infinite nodes as its first phase dropped (lifting keeps those infinite),
    that is, iff no deeper level found a new infinite node.  This is exact:

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
    n = graph.n
    cap = graph.default_bound()
    budget = cap >> 1
    if penalty is not None:
        if penalty < 1:
            raise ValueError("the penalty lower bound must be at least 1")
        budget = min(budget, n * Fraction(penalty) // 1)

    guesses: list[GuessRecord] = []
    fallback: PhaseRecord | None = None
    while n > 0 and budget >= 2 * n:
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
            break
        budget >>= 1
    else:  # no guess accepted
        result = solve_with_list(graph, full_list(cap))
        assert verify_minimal(graph, result.energies), "full-range value iteration is exact"
        energies = result.energies
        fallback = _value_iteration_phase(n, cap, result)

    assert energies is not None
    return SolveReport(
        energies=energies,
        bound=cap,
        guesses=tuple(guesses),
        fallback=fallback,
        wall_ms=(time.perf_counter() - started) * 1000.0,
    )
