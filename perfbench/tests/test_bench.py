"""Tests of the benchmark's own logic: span arithmetic, percentiles, the hub
closed form and the traced counters.

Run with ``python -m pytest perfbench/tests``.
"""

import pytest

import energygames
from energygames import exact, generators, value_iteration
from energygames.oracle import brute_force_energies

import run
from run import Measurement, percentile
from tracing import Span, Tracer, self_times, totals, traced
from workloads import PenaltyHub, hub_energies


def test_self_time_subtracts_nested_children():
    spans = [
        Span("solve", 0.0, 10.0, None, 0),
        Span("approx", 1.0, 4.0, 0, 0),
        Span("kernel", 2.0, 3.0, 1, 0),
        Span("verify", 6.0, 7.5, 0, 0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 10.0, None, 0),
        Span("a", 2.0, 6.0, 0, 0),
        Span("b", 4.0, 8.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - 6.0 - 1.0


def test_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile(values[:99], 90) is None  # only 9 samples above rank 90
    assert percentile(values[:20], 50) == 10.0
    assert percentile([], 50) is None


def test_hub_closed_form_matches_oracle_and_solver():
    for seed in range(4):
        graph = generators.high_penalty_family(4, 16, seed)
        expected = hub_energies(graph)
        assert expected == brute_force_energies(graph)
        assert expected == exact.solve(graph).energies


def test_traced_updates_match_report_and_repeat():
    graph = generators.random_game(generators.GenSpec("random", 12, 40, 50, 3))
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with traced(tracer):
            report = exact.solve(energygames.GameGraph(graph.owners, graph.edges))
        counts = totals(tracer.spans)
        assert counts["value_iteration.node_updates"] == report.total_updates
        assert counts["exact.report_updates"] == report.total_updates
        runs.append(counts)
    assert runs[0] == runs[1]
    # wrappers are removed when the block ends
    assert exact.solve_with_list is value_iteration.solve_with_list
    assert not hasattr(exact.solve, "__wrapped__")


def test_spans_nest_under_their_caller():
    graph = generators.high_penalty_family(3, 16, 1)
    tracer = Tracer()
    with traced(tracer):
        exact.solve(graph)
    by_index = tracer.spans
    assert by_index[0].name == "exact.solve" and by_index[0].parent is None
    kernel = [s for s in by_index if s.name == "value_iteration.solve_with_list"]
    assert kernel and all(s.parent is not None for s in kernel)
    assert all(t >= -1e-9 for t in self_times(by_index))


def test_measurement_takes_median_ref_and_fastest_time():
    m = Measurement(2)
    m.samples[False][0] += [(0.010, 8.0), (0.012, 10.0), (0.030, 9.0)]
    m.samples[False][1] += [(0.002, 2.0)]
    assert m.ref(False) == [9.0, 2.0]
    assert m.ref(False, [False, True]) == [2.0]
    assert m.best_ms(False) == [10.0, 2.0]


class TinyHub(PenaltyHub):
    branches = 6
    count = 3
    weight = 64


def test_traced_run_is_correct_and_repeats(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE_DIR", tmp_path)
    first = run.per_layer(TinyHub(tmp_path), seed=5, seconds=0)
    assert first["correct"] and first["failed"] == 0
    assert (tmp_path / f"counters-penalty-hub-5-{run.source_digest()}.json").is_file()
    second = run.per_layer(TinyHub(tmp_path), seed=5, seconds=0)
    assert second["correct"]
    counts = {k: v for k, (v, unit, _) in first["metrics"].items() if unit == "count"}
    assert counts == {k: v for k, (v, unit, _) in second["metrics"].items() if unit == "count"}
    assert counts["exact.guesses"] == 3 and counts["value_iteration.node_updates"] > 0


def test_stored_counters_count_only_for_the_same_code(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(run, "source_digest", lambda: "old")
    run.Cache("penalty-hub-5-old").store("counters", {"value_iteration.node_updates": 1})
    # Changed code may change its counters: the old ones are not compared.
    monkeypatch.setattr(run, "source_digest", lambda: "new")
    assert run.per_layer(TinyHub(tmp_path), seed=5, seconds=0)["correct"]
    # The same code must reproduce them.
    monkeypatch.setattr(run, "source_digest", lambda: "old")
    assert not run.per_layer(TinyHub(tmp_path), seed=5, seconds=0)["correct"]


def test_source_digest_changes_with_a_library_source(tmp_path, monkeypatch):
    library = tmp_path / "src" / "energygames"
    library.mkdir(parents=True)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "HERE", tmp_path / "perfbench")
    (library / "core.py").write_text("A = 1\n")
    before = run.source_digest()
    assert run.source_digest() == before
    (library / "core.py").write_text("A = 2\n")
    assert run.source_digest() != before


def test_setup_time_is_scaled_to_the_quiet_host(monkeypatch):
    clock = iter([10.0, 10.5])  # the set-up takes 0.5 s ...
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    # ... on a host that runs the reference computation at half speed
    monkeypatch.setattr(run, "reference_seconds", lambda: 2 * run.REF_SECONDS)

    class Fixed:
        def setup(self, seed):
            return [seed]

    pool, seconds = run.timed_setup(Fixed(), 3)
    assert pool == [3] and seconds == pytest.approx(0.25)


def test_end_to_end_reports_every_gated_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE_DIR", tmp_path)
    result = run.end_to_end(TinyHub(tmp_path), seed=5, seconds=0)
    assert result["correct"] and result["attempted"] == 3
    assert set(result["metrics"]) == {"solve_ref.p50", "heavy_ref.p50", "peak_rss_mb", "setup_s"}
    assert {"setup_rss_mb", "wall_ref", "wall_s"} <= set(result["extra"])
    assert result["extra"]["setup_rss_mb"][0] <= result["metrics"]["peak_rss_mb"][0]
    assert "solve_ref.p90" not in result["extra"]  # three instances are too few
