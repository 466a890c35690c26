"""Spans around the public functions of each energygames layer.

The library is not instrumented.  A traced run replaces each public function
listed in ``TARGETS`` at every site that imported it (the defining module and
each energygames module holding the same object under the same name) with a
wrapper that records one span per call.  Spans stay in memory; the caller
reads them once the run ends.

Per-update methods such as ``AdmissibleList.index_at_least`` are not wrapped,
so the kernel's self time includes its list lookups.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable

INF = float("inf")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    instance: int | None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _viter_counts(args, result) -> dict[str, int]:
    on_infinite = sum(u for u, e in zip(result.updates, result.energies) if e == INF)
    return {
        "value_iteration.calls": 1,
        "value_iteration.node_updates": result.total_updates,
        "value_iteration.list_steps": result.steps,
        "value_iteration.edge_work": result.edge_work,
        "value_iteration.updates_on_infinite": on_infinite,
    }


def _list_counts(args, result) -> dict[str, int]:
    return {"admissible.values_built": len(result.finite)}


def _potential_counts(args, result) -> dict[str, int]:
    return {"core.potential_calls": 1, "core.dropped_nodes": args[0].n - len(result.kept)}


def _solve_counts(args, report) -> dict[str, int]:
    return {
        "exact.calls": 1,
        "exact.guesses": len(report.guesses),
        "exact.guesses_rejected": sum(1 for g in report.guesses if not g.accepted),
        "exact.fallbacks": int(report.fallback_used),
        "exact.phases": sum(len(g.phases) for g in report.guesses),
        "exact.report_updates": report.total_updates,
    }


def _verify_counts(args, result) -> dict[str, int]:
    return {"core.verify_calls": 1}


# (span name, defining module, attribute, counter hook).  A dotted attribute
# names a method, patched on its class.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.main", "energygames.cli", "main", None),
    ("fileio.parse_game", "energygames.fileio", "parse_game", None),
    ("fileio.emit_energies", "energygames.fileio", "emit_energies", None),
    ("core.validate", "energygames.core", "validate", None),
    ("core.verify_minimal", "energygames.core", "verify_minimal", _verify_counts),
    ("core.apply_potential", "energygames.core", "apply_potential", _potential_counts),
    ("core.lift", "energygames.core", "PotentialTransform.lift", None),
    ("admissible.full_list", "energygames.admissible", "full_list", _list_counts),
    ("admissible.multiples_list", "energygames.admissible", "multiples_list", _list_counts),
    ("value_iteration.solve_with_list", "energygames.value_iteration", "solve_with_list", _viter_counts),
    ("rounding.round_weights", "energygames.rounding", "round_weights", None),
    ("rounding.approximate_energies", "energygames.rounding", "approximate_energies", None),
    ("exact.solve", "energygames.exact", "solve", _solve_counts),
    ("exact.minimal_energy_with_penalty_bound", "energygames.exact", "minimal_energy_with_penalty_bound", None),
    ("reductions.to_win_everywhere", "energygames.reductions", "to_win_everywhere", None),
    ("reductions.to_bipartite", "energygames.reductions", "to_bipartite", None),
    ("reductions.to_complete_bipartite", "energygames.reductions", "to_complete_bipartite", None),
    ("generators.random_game", "energygames.generators", "random_game", None),
    ("generators.high_penalty_family", "energygames.generators", "high_penalty_family", None),
)


class Tracer:
    """Records spans; ``instance`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.instance)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install wrappers for every target while the block runs."""
    restore: list[tuple[object, str, object]] = []
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("energygames")]
    try:
        for span_name, module_name, attr, count in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = getattr(owner, method)
                restore.append((owner, method, original))
                setattr(owner, method, tracer.wrap(span_name, original, count))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(span_name, original, count)
            for site in modules:
                if getattr(site, attr, None) is original:
                    restore.append((site, attr, original))
                    setattr(site, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result: list[float] = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def totals(spans: Iterable[Span]) -> dict[str, int]:
    """Sum the counters recorded on the given spans."""
    out: dict[str, int] = {}
    for span in spans:
        for key, value in span.counts.items():
            out[key] = out.get(key, 0) + value
    return out
