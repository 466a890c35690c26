"""End-to-end and per-layer benchmark of the energygames solvers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload random-cli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run; the last line of standard output is one JSON
object.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from hostspeed import reference_seconds
from tracing import Tracer, self_times, totals, traced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE_DIR = HERE / ".cache"
SETUP_REPEATS = 5
# The reference computation's time on a quiet host (the 2-core box of
# README.md).  ``setup_s`` is set-up time in ref units times this constant:
# seconds as that host reads them when quiet.  Fixed, like the computation.
REF_SECONDS = 0.0011


def percentile(values: list[float], q: float, beyond: int = 10) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than ``beyond``
    samples lie above it (too few to say anything about that tail)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil, 1-based
    if len(ordered) - rank < beyond:
        return None
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _energies_json(energies) -> list:
    return [None if e == float("inf") else e for e in energies]


def _energies_from_json(values) -> tuple:
    return tuple(float("inf") if v is None else v for v in values)


def source_digest() -> str:
    """Hash of the library's and the benchmark's sources, so that stored
    counters are compared only between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "energygames").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Cache:
    """JSON files under ``CACHE_DIR``, one per kind and stem."""

    def __init__(self, stem: str) -> None:
        self.dir = CACHE_DIR
        self.stem = stem

    def load(self, kind: str) -> dict:
        path = self.dir / f"{kind}-{self.stem}.json"
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return {}

    def store(self, kind: str, data: dict) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        path = self.dir / f"{kind}-{self.stem}.json"
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)


class Measurement:
    """Outcome of the timed passes over one pool: per instance and per kind
    of pass (untraced, traced), one (seconds, ref) sample per pass, and the
    energies of the first pass."""

    def __init__(self, size: int) -> None:
        self.samples: dict[bool, list[list[tuple[float, float]]]] = {
            False: [[] for _ in range(size)],
            True: [[] for _ in range(size)],
        }
        self.references: list[float] = []
        self.outputs: list = [None] * size
        self.attempted = 0
        self.failed = 0
        self.passes: dict[bool, list[tuple[int, int]]] = {False: [], True: []}  # span ranges

    def ref(self, traced: bool, only: list[bool] | None = None) -> list[float]:
        """Per instance (of those ``only`` marks), the median over passes of
        its time in ref units."""
        samples = self.samples[traced]
        if only is not None:
            samples = [s for s, keep in zip(samples, only) if keep]
        return [statistics.median(r for _, r in s) for s in samples if s]

    def best_ms(self, traced: bool) -> list[float]:
        """Per instance, its fastest pass in milliseconds."""
        return [min(t for t, _ in s) * 1000.0 for s in self.samples[traced] if s]


def measure(workload, pool, seconds: float, tracer=None) -> Measurement:
    """Closed loop, one client: solve every pool instance in turn, pass after
    pass, until ``seconds`` have gone by.  The reference computation runs
    between consecutive solves, so each solve is bracketed by two readings of
    the host's speed.  With a tracer, passes alternate between untraced and
    traced, so both readings come from the same stretch of time."""
    result = Measurement(len(pool))
    started = time.perf_counter()
    before = reference_seconds()
    index = 0
    while True:
        use_trace = tracer is not None and index % 2 == 1
        first_span = len(tracer.spans) if tracer is not None else 0
        with traced(tracer) if use_trace else nullcontext():
            for i, inst in enumerate(pool):
                arg = workload.prepare(inst)
                if tracer is not None:
                    tracer.instance = i
                result.attempted += 1
                begin = time.perf_counter()
                try:
                    out = workload.run(arg)
                except Exception:
                    result.failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                elapsed = time.perf_counter() - begin
                after = reference_seconds()
                result.samples[use_trace][i].append((elapsed, 2.0 * elapsed / (before + after)))
                result.references.append(after)
                before = after
                energies = tuple(workload.energies(inst, out))
                if result.outputs[i] is None:
                    result.outputs[i] = energies
                elif result.outputs[i] != energies:
                    result.failed += 1
                    print(f"{inst.label}: energies differ between passes", file=sys.stderr)
        if tracer is not None:
            result.passes[use_trace].append((first_span, len(tracer.spans)))
        index += 1
        if index >= (2 if tracer else 1) and time.perf_counter() - started >= seconds:
            return result


def check_outputs(workload, pool, outputs, seed: int) -> int:
    """Compare each instance's energies with its reference; return mismatches."""
    cache = Cache(f"{workload.name}-{seed}")
    stored = cache.load("reference")
    fresh = {}
    bad = 0
    for inst, out in zip(pool, outputs):
        if out is None:
            continue  # every attempt raised; already counted
        key = workload.reference_key(inst)
        if key is not None and key in stored:
            reference = _energies_from_json(stored[key])
        else:
            reference = workload.reference(inst)
            if key is not None:
                fresh[key] = _energies_json(reference)
        if not workload.check(inst, out, reference):
            bad += 1
            print(f"{inst.label}: energies differ from the reference", file=sys.stderr)
    if fresh:
        cache.store("reference", {**stored, **fresh})
    return bad


def host_reference() -> float:
    """Median of five readings of the reference computation."""
    return statistics.median(reference_seconds() for _ in range(5))


def timed_setup(workload, seed: int) -> tuple[list, float]:
    """Build the pool; return it with its set-up time in quiet-host seconds."""
    before = host_reference()
    begin = time.perf_counter()
    pool = workload.setup(seed)
    elapsed = time.perf_counter() - begin
    return pool, 2.0 * elapsed / (before + host_reference()) * REF_SECONDS


def end_to_end(workload, seed: int, seconds: float) -> dict:
    # The repeated set-ups run after the timed region, so the memory they
    # free cannot absorb the solves' allocations.
    pool, first_setup = timed_setup(workload, seed)
    setup_rss = peak_rss_mb()
    m = measure(workload, pool, seconds)
    rss = peak_rss_mb()
    setups = [first_setup] + [timed_setup(workload, seed)[1] for _ in range(SETUP_REPEATS - 1)]
    failed = m.failed + check_outputs(workload, pool, m.outputs, seed)
    ref, best = m.ref(False), m.best_ms(False)
    heavy = m.ref(False, [inst.heavy for inst in pool])
    passes = len(m.samples[False][0])
    metrics = {
        "solve_ref.p50": (statistics.median(ref), "ref", f"{len(ref)} instances"),
        "heavy_ref.p50": (statistics.median(heavy), "ref", f"{len(heavy)} heavy instances"),
        "peak_rss_mb": (rss, "MB", "1 process"),
        "setup_s": (statistics.median(setups), "s", f"median of {SETUP_REPEATS} set-ups, quiet-host seconds"),
    }
    extra = {
        "setup_rss_mb": (setup_rss, "MB", "peak before the timed region"),
        "wall_ref": (sum(ref), "ref", f"{len(ref)} instances, median of {passes} passes each"),
        "wall_s": (sum(best) / 1000.0, "s", f"{len(best)} instances, fastest of {passes} passes each"),
        "solve_ms.p50": (statistics.median(best), "ms", f"{len(best)} instances"),
    }
    for name, values, unit in (("solve_ref.p90", ref, "ref"), ("solve_ms.p90", best, "ms")):
        p90 = percentile(values, 90)
        if p90 is not None:
            extra[name] = (p90, unit, f"{len(values)} instances")
    extra["ref_ms.p50"] = (statistics.median(m.references) * 1000.0, "ms", f"{len(m.references)} readings")
    extra["failed_frac"] = (failed / m.attempted, "1", f"{failed} of {m.attempted} solves")
    return {"correct": failed == 0, "attempted": m.attempted, "failed": failed, "metrics": metrics, "extra": extra}


LAYER_TIMES = {
    # metric: (span names, self time?)
    "cli.self_s": (("cli.main",), True),
    "fileio.parse_s": (("fileio.parse_game",), False),
    "fileio.emit_s": (("fileio.emit_energies",), False),
    "core.validate_s": (("core.validate",), False),
    "value_iteration.self_s": (("value_iteration.solve_with_list",), True),
    "admissible.build_s": (("admissible.full_list", "admissible.multiples_list"), False),
    "rounding.round_s": (("rounding.round_weights",), False),
    "rounding.approx_self_s": (("rounding.approximate_energies",), True),
    "core.potential_s": (("core.apply_potential", "core.lift"), False),
    "exact.self_s": (("exact.solve", "exact.minimal_energy_with_penalty_bound"), True),
    "core.verify_s": (("core.verify_minimal",), False),
    "reductions.reduce_s": (
        ("reductions.to_win_everywhere", "reductions.to_bipartite", "reductions.to_complete_bipartite"),
        False,
    ),
}
LAYER_COUNTS = (
    "value_iteration.calls",
    "value_iteration.node_updates",
    "value_iteration.list_steps",
    "value_iteration.edge_work",
    "value_iteration.updates_on_infinite",
    "admissible.values_built",
    "core.potential_calls",
    "core.dropped_nodes",
    "exact.guesses",
    "exact.guesses_rejected",
    "exact.fallbacks",
    "exact.phases",
    "core.verify_calls",
)


def layer_seconds(spans, selfs, start: int, stop: int) -> dict[str, float]:
    out = {}
    for metric, (names, use_self) in LAYER_TIMES.items():
        out[metric] = sum(
            (selfs[i] if use_self else spans[i].duration)
            for i in range(start, stop)
            if spans[i].name in names
        )
    return out


def per_layer(workload, seed: int, seconds: float) -> dict:
    setup_tracer = Tracer()
    with traced(setup_tracer):
        pool = workload.setup(seed)
    gen_s = sum(s.duration for s in setup_tracer.spans if s.name.startswith("generators."))

    tracer = Tracer()
    m = measure(workload, pool, seconds, tracer)
    failed = m.failed + check_outputs(workload, pool, m.outputs, seed)
    spans = tracer.spans
    selfs = self_times(spans)

    # Counters: one pass over the pool, identical in every traced pass.
    pass_counts = [totals(spans[a:b]) for a, b in m.passes[True]]
    consistent = all(c == pass_counts[0] for c in pass_counts)
    if not consistent:
        print("per-layer counters differ between traced passes", file=sys.stderr)
    # The kernel's traced updates must add up to what SolveReport reports.
    a, b = m.passes[True][0]
    for i, inst in enumerate(pool):
        mine = totals(s for s in spans[a:b] if s.instance == i)
        if m.outputs[i] is None or "exact.calls" not in mine:
            continue
        traced_updates = mine.get("value_iteration.node_updates", 0)
        reported = mine["exact.report_updates"]
        if traced_updates != reported:
            consistent = False
            print(f"{inst.label}: traced updates {traced_updates} != reported {reported}", file=sys.stderr)
    counts = pass_counts[0]
    metrics: dict[str, tuple] = {}
    per_pass = [layer_seconds(spans, selfs, a, b) for a, b in m.passes[True]]
    for metric in LAYER_TIMES:
        metrics[metric] = (statistics.median(p[metric] for p in per_pass), "s", "")
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count", "")
    node_updates = counts.get("value_iteration.node_updates", 0)
    share = counts.get("value_iteration.updates_on_infinite", 0) / node_updates if node_updates else 0.0
    metrics["value_iteration.infinite_update_share"] = (share, "ratio", "")
    metrics["generators.gen_s"] = (gen_s, "s", "")
    traced_wall, plain_wall = sum(m.ref(True)), sum(m.ref(False))
    metrics["trace.wall_ref"] = (traced_wall, "ref", "")
    metrics["trace.overhead_ref"] = (traced_wall - plain_wall, "ref", "")

    # The same seed must give the same counters on every run of the same code.
    cache = Cache(f"{workload.name}-{seed}-{source_digest()}")
    previous = cache.load("counters")
    if previous and previous != counts:
        consistent = False
        print("per-layer counters differ from an earlier run of this code with this seed", file=sys.stderr)
    elif not previous:
        cache.store("counters", counts)
    return {
        "correct": failed == 0 and consistent,
        "attempted": m.attempted,
        "failed": failed,
        "metrics": metrics,
        "extra": {},
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    workdir = HERE / ".work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](workdir)
        return (per_layer if trace else end_to_end)(workload, seed, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_result(name: str, result: dict) -> None:
    for metric, (value, unit, samples) in {**result["metrics"], **result["extra"]}.items():
        note = f"  ({samples})" if samples else ""
        print(f"{name:16} {metric:40} {value:>14.6g} {unit}{note}")


def as_json(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in result["metrics"].items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        one = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "energygames" / "__init__.py").is_file():
        print(f"perfbench: no energygames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(args.workload, result)
    print(json.dumps(as_json(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
