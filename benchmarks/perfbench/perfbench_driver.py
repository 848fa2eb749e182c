"""Workloads, measurement loop and reporting of the repo benchmark.

A workload has a fixed number of seeded instances.  One iteration sets up,
solves and checks one instance; a run makes whole passes over the instances
until ``--seconds`` have passed, and at least ``MIN_PASSES`` of them.  Every
solve is checked against an oracle and against the first solve of the same
instance (a fixed seed must give identical outputs and counts).

Untraced run (``--trace 0``): the end-to-end metrics.  Times are in
reference seconds (see :func:`calibration_work`) and are the mean over
instances of each instance's median; counts are the mean over instances
(they repeat exactly for a fixed seed).

Traced run (``--trace 1``): every instance is run end to end once untraced
and once traced, alternating, for ``--seconds``.  The traced iteration
rebinds the layer entry points listed in :data:`TRACE_HOOKS` and derives
the per-layer metrics from the recorded spans; the outputs and counts of
the two iterations must be identical.

See ``README.md`` in this directory for the metric and workload tables.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from perfbench_trace import Hook, Tracer, rebound, span_totals

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Median time of :func:`calibration_work` on the reference machine, the
#: 2-core container the README's baseline was measured on.
CALIBRATION_REF_S = 0.005

#: Whole passes over the instances an untraced run makes at least, so that
#: each instance's median is taken over at least this many samples.
MIN_PASSES = 3

#: Instances per workload in the toy-size runs of the self-tests.
TOY_INSTANCES = 2


def require_source() -> None:
    """Put ``src/`` on the path, or exit non-zero when the checkout lacks it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def calibration_work() -> float:
    """Time a fixed loop of dict and integer work that uses no repo code.

    A shared host runs the same code up to ~50% slower for seconds or
    minutes at a time.  Each iteration is timed between two calibration
    samples, and its times are scaled by ``CALIBRATION_REF_S`` over their
    mean: they read as seconds on the reference machine, and a slow spell
    that slows the calibration and the program alike cancels out.  A change
    that slows the program leaves the calibration as it was, so it shows.
    """
    start = time.perf_counter()
    table = dict.fromkeys(range(4096), 0)
    acc = 0
    for i in range(20000):
        table[i & 4095] = i
        acc += table[(i * 7) & 4095] & 15
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one checked solve produced (compared across repeats and passes)."""

    rounds: int
    messages: int
    phases: int
    digest: str
    failure: Optional[str] = None
    congestion: float = 0.0
    dilation: float = 0.0

    def key(self) -> tuple:
        return (self.rounds, self.messages, self.congestion, self.dilation, self.digest)


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _capture(target: str, sink: list, pick: Callable[[Any], Any]) -> Hook:
    return Hook(target, "capture", "call", after=lambda _t, result: sink.append(pick(result)))


class Workload:
    """One benchmark workload: seeded set-up, one solve call, a check."""

    name: str
    why: str
    instances: int

    def setup(self, seed: int, toy: bool, span: Callable) -> Any:
        raise NotImplementedError

    def solve(self, inp: Any, seed: int) -> Any:
        raise NotImplementedError

    def capture_hooks(self, sink: list) -> list[Hook]:
        """Pass-through rebindings that collect what ``check`` and ``quality`` need."""
        return []

    def check(self, inp: Any, result: Any, captured: list, seed: int, span: Callable) -> Outcome:
        """The timed check: the oracle, and whatever the oracle needs."""
        raise NotImplementedError

    def quality(self, captured: list, seed: int) -> Optional[tuple[float, float]]:
        """(c, d) measured outside the timed steps, or ``None`` if ``check`` has them.

        The consumers' default: max congestion and max seeded sampled dilation
        over the per-phase shortcuts ``capture_hooks`` collected.  A consumer
        never measures these itself, so their cost stays out of ``total_s``.
        """
        from repro.rng import derive_seed

        congestion = dilation = 0.0
        for k, shortcut in enumerate(captured):
            q = shortcut.quality_report(exact_dilation=False, rng=derive_seed(seed, "dilation", k))
            congestion = max(congestion, q.congestion)
            dilation = max(dilation, q.dilation)
        return congestion, dilation

    def size(self, inp: Any) -> tuple[int, int]:
        return inp.num_vertices, inp.num_edges

    solve_span = "applications.solve"


class MstWorkload(Workload):
    """``shortcut_boruvka_mst`` on a weighted lower-bound instance."""

    def __init__(self, name: str, why: str, n: int, toy_n: int, instances: int,
                 drop_rate: float = 0.0) -> None:
        self.name, self.why, self.n, self.toy_n = name, why, n, toy_n
        self.instances, self.drop_rate = instances, drop_rate

    def setup(self, seed, toy, span):
        from repro.graphs.generators import with_random_weights
        from repro.graphs.lower_bound import lower_bound_instance
        from repro.rng import derive_seed

        with span("graphs.generate"):
            inst = lower_bound_instance(self.toy_n if toy else self.n, 6)
            graph = with_random_weights(inst.graph, rng=derive_seed(seed, "weights"))
        graph.csr()
        return graph

    def solve(self, inp, seed, drop_rate=None):
        from repro.applications.shortcut_mst import shortcut_boruvka_mst
        from repro.rng import derive_seed

        rate = self.drop_rate if drop_rate is None else drop_rate
        if rate:
            return shortcut_boruvka_mst(inp, rng=seed, drop_rate=rate,
                                        adversary_seed=derive_seed(seed, "faults"))
        return shortcut_boruvka_mst(inp, rng=seed)

    def capture_hooks(self, sink):
        return [_capture("repro.applications.shortcut_mst:build_kogan_parter_shortcut",
                         sink, lambda r: r.shortcut)]

    def check(self, inp, result, captured, seed, span):
        with span("harness.oracle"):
            failure = mst_failure(inp, result)
        return Outcome(
            rounds=result.total_rounds, messages=result.messages, phases=result.phases,
            digest=_digest(result.edges, result.weight, result.rounds_per_phase),
            failure=failure,
        )


def mst_failure(graph, result) -> Optional[str]:
    """Why ``result`` is not the Kruskal MST of ``graph`` (``None`` if it is)."""
    from repro.applications.mst import kruskal_mst
    from repro.graphs.graph import edge_key

    edges, weight = kruskal_mst(graph)
    if sorted(edge_key(u, v) for u, v in edges) != sorted(result.edges):
        return "MST edge set differs from Kruskal"
    if not math.isclose(weight, result.weight, rel_tol=1e-9, abs_tol=1e-6):
        return f"MST weight {result.weight} != Kruskal {weight}"
    return None


class ComponentsWorkload(Workload):
    """``shortcut_connected_components`` on a disjoint union of hub graphs."""

    def __init__(self, name: str, why: str, blocks: int, block_n: int, extra_edge_prob: float,
                 instances: int) -> None:
        self.name, self.why, self.blocks, self.block_n = name, why, blocks, block_n
        self.extra_edge_prob, self.instances = extra_edge_prob, instances

    def setup(self, seed, toy, span):
        from repro.graphs.generators import disjoint_union, hub_diameter_graph
        from repro.rng import derive_seed

        blocks, block_n, prob = (2, 40, 0.05) if toy else (
            self.blocks, self.block_n, self.extra_edge_prob)
        with span("graphs.generate"):
            graph = disjoint_union([
                hub_diameter_graph(block_n, 6, extra_edge_prob=prob,
                                   rng=derive_seed(seed, "block", b))
                for b in range(blocks)
            ])
        graph.csr()
        return graph

    def solve(self, inp, seed):
        from repro.applications.components import shortcut_connected_components

        return shortcut_connected_components(inp, rng=seed)

    def capture_hooks(self, sink):
        return [_capture("repro.applications.components:build_kogan_parter_shortcut",
                         sink, lambda r: r.shortcut)]

    def check(self, inp, result, captured, seed, span):
        from repro.graphs.components import connected_components

        with span("harness.oracle"):
            expected = [0] * inp.num_vertices
            for comp in connected_components(inp):
                low = min(comp)
                for v in comp:
                    expected[v] = low
            failure = None if expected == result.labels else "labels differ from traversal"
        return Outcome(
            rounds=result.total_rounds, messages=result.messages, phases=result.phases,
            digest=_digest(result.labels, result.rounds_per_phase), failure=failure,
        )


class ConstructWorkload(Workload):
    """``build_distributed_kogan_parter`` (unknown diameter) + quality report.

    The quality report is part of the timed check: it is what a user of the
    construction reads (``repro shortcut`` prints it), and the oracle checks
    its dilation.
    """

    solve_span = "shortcuts.construct"

    def __init__(self, name: str, why: str, n: int, toy_n: int, instances: int) -> None:
        self.name, self.why, self.n, self.toy_n, self.instances = name, why, n, toy_n, instances

    def setup(self, seed, toy, span):
        from repro.graphs.lower_bound import lower_bound_instance
        from repro.shortcuts.partition import Partition

        with span("graphs.generate"):
            inst = lower_bound_instance(self.toy_n if toy else self.n, 6)
        inst.graph.csr()
        return inst.graph, Partition(inst.graph, inst.parts)

    def size(self, inp):
        return inp[0].num_vertices, inp[0].num_edges

    def solve(self, inp, seed):
        from repro.shortcuts.distributed import build_distributed_kogan_parter

        graph, partition = inp
        return build_distributed_kogan_parter(graph, partition, known_diameter=False, rng=seed)

    def capture_hooks(self, sink):
        # Messages delivered by every simulated stage (the result only
        # carries the stage-4 metrics).
        return [_capture("repro.congest.network:Network.run", sink,
                         lambda m: m.messages_delivered)]

    def quality(self, captured, seed):
        return None

    def check(self, inp, result, captured, seed, span):
        import numpy as np

        q = result.shortcut.quality_report(exact_dilation=False, rng=seed)
        with span("harness.oracle"):
            failure = None
            if not result.spanning_ok:
                failure = "construction did not verify (spanning_ok is False)"
            elif not math.isfinite(q.dilation) or q.congestion < 1:
                failure = f"bad quality c={q.congestion} d={q.dilation}"
        sc = result.shortcut
        h = hashlib.sha256()
        for i in range(sc.num_parts):
            h.update(np.sort(sc.subgraph_edge_id_array(i)).tobytes())
            h.update(b"|")
        return Outcome(
            rounds=result.total_rounds, messages=sum(captured),
            congestion=float(q.congestion), dilation=float(q.dilation),
            phases=len(result.attempted_guesses),
            digest=_digest(h.hexdigest(), sorted(result.rounds_breakdown.items()),
                           result.attempted_guesses),
            failure=failure,
        )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    MstWorkload(
        "mst_lb1k",
        "shortcut Boruvka MST on the lower-bound family: bulk rounds take ~60% of the "
        "solve and bulk-kernel build/writeback ~30%; KP sampling ~3%; graphs does almost "
        "nothing",
        n=1000, toy_n=60, instances=8,
    ),
    MstWorkload(
        "mst_lossy100",
        "same consumer at drop_rate 0.05: every bulk kernel declines, so the per-node "
        "adversarial loop and ReliableChannel do ~99% of the solve (no change predicted "
        "for bulk work)",
        n=100, toy_n=40, instances=20, drop_rate=0.05,
    ),
    ComponentsWorkload(
        "components_hub2k",
        "components on 4 hub graphs: exact-diameter validation is ~93% of set-up; in the "
        "solve, per-instance aggregation set-up (kernel build, init, link masks) takes "
        "~45%, bulk rounds ~35%",
        blocks=4, block_n=500, extra_edge_prob=0.008, instances=4,
    ),
    ConstructWorkload(
        "construct_lb4k",
        "the paper's distributed construction (probe, detection, numbering, fleet, "
        "spanning) and the shortcut-quality report in its check, which no consumer "
        "workload times",
        n=4000, toy_n=200, instances=3,
    ),
)}


# ----------------------------------------------------------------------
# trace hooks: the layer entry points the traced pass rebinds
# ----------------------------------------------------------------------
def _count_edges(tracer: Tracer, result) -> None:
    tracer.count("shortcuts.edges", result.shortcut.total_shortcut_edges())


def _count_instances(tracer: Tracer, result) -> None:
    tracer.count("primitives.instances", len(result.simulated_parts))


def _count_run(tracer: Tracer, metrics) -> None:
    tracer.count("congest.messages_sent", metrics.messages_sent)
    tracer.count("congest.messages_delivered", metrics.messages_delivered)
    tracer.count("congest.messages_dropped", metrics.messages_dropped)
    tracer.count("congest.messages_duplicated", metrics.messages_duplicated)
    tracer.maximum("congest.max_link_backlog", metrics.max_link_backlog)


_CONSUMERS = ("repro.applications.shortcut_mst", "repro.applications.components")
PRELOAD = (
    *_CONSUMERS, "repro.applications.mst", "repro.congest.bulk", "repro.graphs.components",
    "repro.graphs.generators", "repro.graphs.lower_bound", "repro.shortcuts.distributed",
)
_KERNELS = ("FloodMaxKernel", "BFSKernel", "FleetKernel", "PartAggregationKernel")

TRACE_HOOKS: list[Hook] = [
    Hook("repro.graphs.generators:_ensure_exact_diameter", "graphs.diameter_check"),
    Hook("repro.graphs.traversal:bfs_distances", "graphs.bfs_calls", "call"),
    Hook("repro.graphs.csr:CSRGraph.from_graph", "graphs.csr_build"),
    *(Hook(f"{m}:max_component_diameter", "graphs.component_diameter") for m in _CONSUMERS),
    Hook("repro.shortcuts.partition:Partition.__init__", "shortcuts.partition"),
    *(Hook(f"{m}:build_kogan_parter_shortcut", "shortcuts.sample", after=_count_edges)
      for m in (*_CONSUMERS, "repro.shortcuts.distributed")),
    Hook("repro.shortcuts.shortcut:Shortcut.quality_report", "shortcuts.quality"),
    Hook("repro.congest.network:Network.__init__", "congest.network_init"),
    Hook("repro.congest.network:Network.run", "congest.run", after=_count_run),
    Hook("repro.congest.network:Network._run_bulk", "congest.bulk_run"),
    *(Hook(f"repro.congest.bulk:{k}.{attr}", f"congest.bulk_{label}")
      for k in _KERNELS
      for attr, label in (("build", "build"), ("bulk_round", "round"), ("finish", "finish"))),
    *(Hook(f"{m}:aggregate_over_shortcut", "primitives.aggregate", after=_count_instances)
      for m in _CONSUMERS),
    Hook("repro.congest.primitives.aggregation:shortcut_link_masks", "primitives.link_mask"),
    Hook("repro.congest.primitives.concurrent_bfs:ConcurrentMaskedBFS.__init__",
         "primitives.fleet_init"),
    Hook("repro.congest.primitives.aggregation:PartAggregation.__init__", "primitives.agg_init"),
    Hook("repro.congest.primitives.reliable:ReliableChannel.flush",
         "primitives.reliable_flush_calls", "call"),
    *(Hook(f"{m}:node_crossing_candidates", "applications.candidates") for m in _CONSUMERS),
]

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s", "solve_s": "s", "total_s": "s", "peak_rss_mb": "MiB",
    "rounds": "rounds", "messages": "msgs", "sim_msgs_per_s": "msgs/s",
    "congestion": "edges", "dilation": "hops",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "graphs.generate_s": "s", "graphs.diameter_check_s": "s", "graphs.bfs_calls": "count",
    "graphs.csr_build_s": "s", "graphs.n": "nodes", "graphs.m": "edges", "graphs.self_s": "s",
    "shortcuts.partition_s": "s", "shortcuts.sample_s": "s", "shortcuts.sample_calls": "count",
    "shortcuts.edges": "edges", "shortcuts.construct_self_s": "s", "shortcuts.quality_s": "s",
    "shortcuts.self_s": "s",
    "congest.network_init_s": "s", "congest.run_s": "s", "congest.run_calls": "count",
    "congest.run_self_s": "s", "congest.bulk_build_s": "s", "congest.bulk_round_s": "s",
    "congest.bulk_rounds": "count", "congest.bulk_finish_s": "s", "congest.bulk_runs": "count",
    "congest.per_node_runs": "count", "congest.fallback_warnings": "count",
    "congest.messages_sent": "msgs", "congest.messages_dropped": "msgs",
    "congest.messages_duplicated": "msgs", "congest.max_link_backlog": "msgs",
    "congest.delivered_ratio": "ratio", "congest.round_s": "s/round", "congest.self_s": "s",
    "primitives.aggregate_s": "s", "primitives.aggregate_calls": "count",
    "primitives.instances": "count", "primitives.link_mask_s": "s",
    "primitives.fleet_init_s": "s", "primitives.agg_init_s": "s",
    "primitives.reliable_flush_calls": "count", "primitives.self_s": "s",
    "adversary.rounds_factor": "x", "adversary.round_cost_factor": "x",
    "adversary.overhead": "x",
    "applications.self_s": "s", "applications.candidates_s": "s", "applications.phases": "count",
    "harness.oracle_s": "s", "harness.trace_overhead": "x",
}


def layer_metrics(tracer: Tracer, run_id: int, it: "Iteration", warned: int) -> dict[str, float]:
    """Per-layer metrics of one traced set-up + solve + check."""
    outcome, size = it.outcome, it.size
    tot = span_totals(tracer.run_spans(run_id))
    counts = tracer.counts[run_id]

    def total(name: str) -> float:
        return tot.total.get(name, 0.0)

    def calls(name: str) -> int:
        return tot.calls.get(name, 0)

    sent = counts["congest.messages_sent"]
    run_calls, bulk_runs = calls("congest.run"), calls("congest.bulk_run")
    return {
        "graphs.generate_s": total("graphs.generate"),
        "graphs.diameter_check_s": total("graphs.diameter_check"),
        "graphs.bfs_calls": counts["graphs.bfs_calls"],
        "graphs.csr_build_s": total("graphs.csr_build"),
        "graphs.n": size[0],
        "graphs.m": size[1],
        "graphs.self_s": tot.layer_self("graphs"),
        "shortcuts.partition_s": total("shortcuts.partition"),
        "shortcuts.sample_s": total("shortcuts.sample"),
        "shortcuts.sample_calls": calls("shortcuts.sample"),
        "shortcuts.edges": counts["shortcuts.edges"],
        "shortcuts.construct_self_s": tot.own.get("shortcuts.construct", 0.0),
        "shortcuts.quality_s": total("shortcuts.quality"),
        "shortcuts.self_s": tot.layer_self("shortcuts"),
        "congest.network_init_s": total("congest.network_init"),
        "congest.run_s": total("congest.run"),
        "congest.run_calls": run_calls,
        "congest.run_self_s": tot.own.get("congest.run", 0.0),
        "congest.bulk_build_s": total("congest.bulk_build"),
        "congest.bulk_round_s": total("congest.bulk_round"),
        "congest.bulk_rounds": calls("congest.bulk_round"),
        "congest.bulk_finish_s": total("congest.bulk_finish"),
        "congest.bulk_runs": bulk_runs,
        "congest.per_node_runs": run_calls - bulk_runs,
        "congest.fallback_warnings": warned,
        "congest.messages_sent": sent,
        "congest.messages_dropped": counts["congest.messages_dropped"],
        "congest.messages_duplicated": counts["congest.messages_duplicated"],
        "congest.max_link_backlog": counts["congest.max_link_backlog"],
        "congest.delivered_ratio": counts["congest.messages_delivered"] / sent if sent else 1.0,
        "congest.round_s": total("congest.run") / outcome.rounds if outcome.rounds else 0.0,
        "congest.self_s": tot.layer_self("congest"),
        "primitives.aggregate_s": total("primitives.aggregate"),
        "primitives.aggregate_calls": calls("primitives.aggregate"),
        "primitives.instances": counts["primitives.instances"],
        "primitives.link_mask_s": total("primitives.link_mask"),
        "primitives.fleet_init_s": total("primitives.fleet_init"),
        "primitives.agg_init_s": total("primitives.agg_init"),
        "primitives.reliable_flush_calls": counts["primitives.reliable_flush_calls"],
        "primitives.self_s": tot.layer_self("primitives"),
        "applications.self_s": tot.own.get("applications.solve", 0.0),
        "applications.candidates_s": total("applications.candidates"),
        "applications.phases": outcome.phases,
        "harness.oracle_s": total("harness.oracle"),
    }


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
@dataclass
class Iteration:
    """Wall-clock times of one iteration and its reference-speed ``scale``."""

    setup_s: float
    solve_s: float
    check_s: float
    outcome: Outcome
    size: tuple[int, int]
    scale: float

    @property
    def total_s(self) -> float:
        return self.setup_s + self.solve_s + self.check_s


@dataclass
class Report:
    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)
    spans: list = field(default_factory=list)


def _mean_of_medians(samples: list[list[float]]) -> float:
    return statistics.fmean(statistics.median(s) for s in samples)


class Measurement:
    """State of one benchmark run: instance seeds, failures, first outcomes."""

    def __init__(self, workload: Workload, seed: int, toy: bool) -> None:
        from repro.rng import derive_seed

        self.workload, self.toy = workload, toy
        count = TOY_INSTANCES if toy else workload.instances
        self.seeds = [derive_seed(seed, workload.name, k) for k in range(count)]
        self.first: list[Optional[Outcome]] = [None] * count
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, k: int, reason: str) -> None:
        self.failed += 1
        self.notes.append(f"instance {k}: {reason}")

    def iteration(self, k: int, tracer: Optional[Tracer] = None) -> Optional[Iteration]:
        """Set up, solve and check instance ``k`` once.

        With a ``tracer``, the three timed steps run under :data:`TRACE_HOOKS`
        and record spans.  Returns ``None`` (and records a failure) if any
        step raised.  The outcome is checked against the oracle and against
        the first outcome of the same instance.
        """
        workload, seed, clock = self.workload, self.seeds[k], time.perf_counter
        span = tracer.span if tracer is not None else nullcontext
        self.attempted += 1
        captured: list = []
        calibration = calibration_work()
        try:
            with rebound(TRACE_HOOKS, tracer) if tracer is not None else nullcontext():
                gc.collect()
                start = clock()
                inp = workload.setup(seed, self.toy, span)
                setup_s = clock() - start
                gc.collect()
                with rebound(workload.capture_hooks(captured), Tracer()):
                    with span(workload.solve_span):
                        start = clock()
                        result = workload.solve(inp, seed)
                        solve_s = clock() - start
                start = clock()
                outcome = workload.check(inp, result, captured, seed, span)
                check_s = clock() - start
            quality = workload.quality(captured, seed)
        except Exception:
            traceback.print_exc()
            self.fail(k, "raised")
            return None
        if quality is not None:
            outcome.congestion, outcome.dilation = quality
        if outcome.failure is not None:
            self.fail(k, outcome.failure)
        elif self.first[k] is None:
            self.first[k] = outcome
        elif outcome.key() != self.first[k].key():
            self.fail(k, "outputs or counts differ from the first solve of this instance")
        calibration += calibration_work()
        scale = CALIBRATION_REF_S / (calibration / 2)
        return Iteration(setup_s, solve_s, check_s, outcome, workload.size(inp), scale)


def run_untraced(workload: Workload, seed: int, seconds: float, toy: bool = False) -> Report:
    m = Measurement(workload, seed, toy)
    setups: list[float] = []
    solve: list[list[float]] = [[] for _ in m.seeds]
    total: list[list[float]] = [[] for _ in m.seeds]
    wall: list[list[float]] = [[] for _ in m.seeds]
    start = time.perf_counter()
    passes = 0
    # Whole passes over the instances, so every instance has as many samples.
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        passes += 1
        for k in range(len(m.seeds)):
            it = m.iteration(k)
            if it is not None:
                setups.append(it.setup_s * it.scale)
                solve[k].append(it.solve_s * it.scale)
                total[k].append(it.total_s * it.scale)
                wall[k].append(it.total_s)

    notes = [f"{len(m.seeds)} instances x {passes} passes"] + m.notes
    metrics: dict[str, tuple[float, str]] = {}
    outcomes = [o for o in m.first if o is not None]
    if m.failed == 0 and len(outcomes) == len(m.seeds):
        notes.insert(1, f"wall-clock total_s {_mean_of_medians(wall):.6g} s")
        solve_s = _mean_of_medians(solve)
        messages = statistics.fmean(o.messages for o in outcomes)
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": solve_s,
            "total_s": _mean_of_medians(total),
            "peak_rss_mb": peak_rss_mb(),
            "rounds": statistics.fmean(o.rounds for o in outcomes),
            "messages": messages,
            "sim_msgs_per_s": messages / solve_s,
            "congestion": statistics.fmean(o.congestion for o in outcomes),
            "dilation": statistics.fmean(o.dilation for o in outcomes),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes.append(f"fail_ratio {m.failed / max(m.attempted, 1):g} ratio")
    return Report(workload.name, seed, False, m.failed == 0 and bool(metrics),
                  m.attempted, m.failed, metrics, notes)


def run_traced(workload: Workload, seed: int, seconds: float, toy: bool = False) -> Report:
    from repro.congest.bulk import BulkFallbackWarning

    m = Measurement(workload, seed, toy)
    tracer = Tracer()
    plain: list[list[float]] = [[] for _ in m.seeds]
    traced: list[list[float]] = [[] for _ in m.seeds]
    layers: list[list[dict[str, float]]] = [[] for _ in m.seeds]
    adversary = _adversary_factors(workload, m) if getattr(workload, "drop_rate", 0) else None
    # Warm-up (checked, untimed): the first solve of a process pays one-off
    # costs that would otherwise land on the first untraced iteration.
    m.iteration(0)

    start = time.perf_counter()
    passes = 0
    while True:
        for k in range(len(m.seeds)):
            it = m.iteration(k)
            tracer.run_id += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", BulkFallbackWarning)
                it_traced = m.iteration(k, tracer)
            if it is None or it_traced is None:
                continue
            if it_traced.outcome.key() != it.outcome.key():
                m.fail(k, "traced outputs or counts differ from the untraced iteration")
            plain[k].append(it.total_s * it.scale)
            traced[k].append(it_traced.total_s * it_traced.scale)
            warned = sum(issubclass(w.category, BulkFallbackWarning) for w in caught)
            layers[k].append({
                name: value * it_traced.scale if PER_LAYER[name] in ("s", "s/round") else value
                for name, value in layer_metrics(tracer, tracer.run_id, it_traced, warned).items()
            })
        passes += 1
        if time.perf_counter() - start >= seconds:
            break

    notes = [f"{len(m.seeds)} instances x {passes} traced passes"] + m.notes
    metrics: dict[str, tuple[float, str]] = {}
    if m.failed == 0 and all(layers):
        values = {
            name: _mean_of_medians([[d[name] for d in per] for per in layers])
            for name in layers[0][0]
        }
        values.update(adversary or dict.fromkeys(
            ("adversary.rounds_factor", "adversary.round_cost_factor", "adversary.overhead"),
            0.0))
        values["harness.trace_overhead"] = _mean_of_medians(traced) / _mean_of_medians(plain)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    notes.append(f"fail_ratio {m.failed / max(m.attempted, 1):g} ratio")
    return Report(workload.name, seed, True, m.failed == 0 and bool(metrics),
                  m.attempted, m.failed, metrics, notes, tracer.spans)


def _adversary_factors(workload: MstWorkload, m: Measurement) -> Optional[dict[str, float]]:
    """Lossy vs clean solve of each instance (untraced, checked)."""
    rounds, costs, overheads = [], [], []
    for k, seed in enumerate(m.seeds):
        inp = workload.setup(seed, m.toy, nullcontext)
        timings = []
        for rate in (0.0, workload.drop_rate):
            m.attempted += 1
            start = time.perf_counter()
            result = workload.solve(inp, seed, drop_rate=rate)
            timings.append((time.perf_counter() - start, result.total_rounds))
            failure = mst_failure(inp, result)
            if failure is not None:
                m.fail(k, f"drop_rate {rate}: {failure}")
                return None
        (clean_s, clean_rounds), (lossy_s, lossy_rounds) = timings
        rounds.append(lossy_rounds / clean_rounds)
        overheads.append(lossy_s / clean_s)
        costs.append((lossy_s / lossy_rounds) / (clean_s / clean_rounds))
    return {
        "adversary.rounds_factor": statistics.fmean(rounds),
        "adversary.round_cost_factor": statistics.fmean(costs),
        "adversary.overhead": statistics.fmean(overheads),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> Report:
    import importlib

    from repro.congest.bulk import BulkFallbackWarning

    # Import every module a workload touches before any clock starts.
    for module in PRELOAD:
        importlib.import_module(module)
    workload = WORKLOADS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BulkFallbackWarning)
        if trace:
            return run_traced(workload, seed, seconds, toy)
        return run_untraced(workload, seed, seconds, toy)


# ----------------------------------------------------------------------
# machine record and output
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_record(seed: int) -> dict[str, Any]:
    import numpy

    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "rev": git_revision(),
        "seed": seed,
    }


def git_revision() -> str:
    """``<short rev>[-dirty]``, or ``"unknown"`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True).stdout
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.strip() + ("-dirty" if dirty.strip() else "")


def result_line(report_correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": report_correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def write_record(out_dir: Path, report: Report, machine: dict[str, Any], seconds: float) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{report.workload}-seed{report.seed}-trace{int(report.trace)}.json"
    record = {
        "workload": report.workload, "seed": report.seed, "seconds": seconds,
        "trace": report.trace, "machine": machine, "correct": report.correct,
        "attempted": report.attempted, "failed": report.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
        "notes": report.notes,
        "span_fields": ["name", "start", "end", "parent", "run_id"],
        "spans": report.spans,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


def print_report(report: Report, machine: dict[str, Any]) -> None:
    print(f"workload {report.workload} (seed {report.seed}, "
          f"{'traced' if report.trace else 'untraced'})")
    print("  machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for note in report.notes:
        print(f"  {note}")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
