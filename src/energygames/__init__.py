"""Solvers, approximations, oracles, and reductions for two-player energy games."""

from .admissible import AdmissibleList, full_list, multiples_list, window_list
from .core import (
    ALICE,
    BOB,
    INF,
    Energy,
    EnergyFn,
    GameGraph,
    PotentialContractError,
    apply_potential,
    eliminate_self_loops,
    validate,
    verify_minimal,
)
from .exact import SolveReport, minimal_energy_with_penalty_bound, solve
from .fileio import GameFileError, emit_energies, emit_game, parse_energies, parse_game
from .generators import (
    GenSpec,
    SplitMix64,
    generate,
    high_penalty_family,
    multiples_game,
    random_game,
    windowed_game,
)
from .oracle import (
    BudgetExceeded,
    PenaltyReport,
    brute_force_energies,
    brute_force_penalty,
    eval_pair,
    find_ergodic_partition,
)
from .reductions import (
    ReductionTrace,
    is_bipartite,
    is_complete_bipartite,
    to_bipartite,
    to_complete_bipartite,
    to_win_everywhere,
)
from .rounding import approximate_energies, round_weights
from .value_iteration import ViterResult, solve_with_list

__version__ = "0.1.0"

__all__ = [
    "ALICE",
    "BOB",
    "INF",
    "AdmissibleList",
    "BudgetExceeded",
    "Energy",
    "EnergyFn",
    "GameFileError",
    "GameGraph",
    "GenSpec",
    "PenaltyReport",
    "PotentialContractError",
    "ReductionTrace",
    "SolveReport",
    "SplitMix64",
    "ViterResult",
    "apply_potential",
    "approximate_energies",
    "brute_force_energies",
    "brute_force_penalty",
    "eliminate_self_loops",
    "emit_energies",
    "emit_game",
    "eval_pair",
    "find_ergodic_partition",
    "full_list",
    "generate",
    "high_penalty_family",
    "is_bipartite",
    "is_complete_bipartite",
    "minimal_energy_with_penalty_bound",
    "multiples_game",
    "multiples_list",
    "parse_energies",
    "parse_game",
    "random_game",
    "round_weights",
    "solve",
    "solve_with_list",
    "to_bipartite",
    "to_complete_bipartite",
    "to_win_everywhere",
    "validate",
    "verify_minimal",
    "window_list",
    "windowed_game",
]
