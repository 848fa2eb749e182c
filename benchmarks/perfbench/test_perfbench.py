"""Self-tests of the repo benchmark, on toy-size instances of every workload."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import perfbench_driver as drv  # noqa: E402
from perfbench_trace import Hook, Tracer, rebound, self_times, span_totals  # noqa: E402

drv.require_source()

BENCHMARK = json.loads((drv.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_driver():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: w.why for name, w in drv.WORKLOADS.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(drv.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == drv.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == drv.PER_LAYER
    assert BENCHMARK["command"][1] == str(Path(__file__).with_name("run.py").relative_to(drv.ROOT))


@pytest.mark.parametrize("name", list(drv.WORKLOADS))
def test_every_metric_is_emitted(name):
    plain = drv.run_workload(name, seed=3, seconds=0, trace=False, toy=True)
    assert plain.correct and plain.failed == 0 and plain.attempted >= 2
    assert list(plain.metrics) == list(drv.END_TO_END)
    assert all(value > 0 for value, _unit in plain.metrics.values())

    traced = drv.run_workload(name, seed=3, seconds=0, trace=True, toy=True)
    assert traced.correct and traced.failed == 0
    assert list(traced.metrics) == list(drv.PER_LAYER)
    assert traced.metrics["graphs.n"][0] > 0
    assert traced.metrics["congest.run_calls"][0] > 0


@pytest.mark.parametrize("name", list(drv.WORKLOADS))
def test_traced_solve_matches_untraced(name):
    workload = drv.WORKLOADS[name]
    m = drv.Measurement(workload, seed=5, toy=True)
    plain = m.iteration(0)
    tracer = Tracer()
    traced = m.iteration(0, tracer)
    assert m.failed == 0
    assert traced.outcome.key() == plain.outcome.key()
    assert plain.outcome.rounds > 0 and plain.outcome.messages > 0
    assert any(s[0] == "congest.run" for s in tracer.spans)


def test_same_seed_repeats_counts():
    first = drv.run_workload("construct_lb4k", seed=2, seconds=0, trace=False, toy=True)
    again = drv.run_workload("construct_lb4k", seed=2, seconds=0, trace=False, toy=True)
    for metric in ("rounds", "messages", "congestion", "dilation"):
        assert first.metrics[metric] == again.metrics[metric]


def test_self_time_subtracts_child_coverage():
    spans = [
        ["p", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 4.0, 6.0, 0, 0],
        ["c", 4.5, 5.0, 2, 0],
        ["q", 20.0, 30.0, -1, 0],
        ["x", 21.0, 24.0, 4, 0],
        ["y", 23.0, 26.0, 4, 0],  # overlaps x: the union (21..26) is covered once
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.5, 0.5, 5.0, 3.0, 3.0])
    totals = span_totals(spans)
    assert totals.total["p"] == pytest.approx(10.0)
    assert totals.own["b"] == pytest.approx(1.5)
    assert totals.calls == {"p": 1, "a": 1, "b": 1, "c": 1, "q": 1, "x": 1, "y": 1}


def test_tracer_nests_spans_and_tags_runs():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.run_id = 7
    with tracer.span("layer.outer"):
        with tracer.span("layer.inner"):
            pass
        with tracer.span("other.inner"):
            pass
    spans = tracer.run_spans(7)
    assert [s[0] for s in spans] == ["layer.outer", "layer.inner", "other.inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    totals = span_totals(spans)
    # outer 0..5 minus children 1..2 and 3..4; inner spans last one tick each.
    assert totals.own["layer.outer"] == pytest.approx(3.0)
    assert totals.layer_self("layer") == pytest.approx(4.0)


def test_rebound_restores_functions_and_classmethods():
    from repro.congest.bulk import PartAggregationKernel
    from repro.congest.network import Network

    run, build = Network.run, vars(PartAggregationKernel)["build"]
    with rebound(drv.TRACE_HOOKS, Tracer()):
        assert Network.run is not run
        assert vars(PartAggregationKernel)["build"] is not build
    assert Network.run is run
    assert vars(PartAggregationKernel)["build"] is build
    with pytest.raises(AttributeError):
        with rebound([Hook("repro.congest.network:Network.no_such_method", "x")], Tracer()):
            pass
    assert Network.run is run


def test_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "benchmarks" / "perfbench"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(drv.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "benchmarks/perfbench/run.py", "--workload", "mst_lb1k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
