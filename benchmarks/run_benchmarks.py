#!/usr/bin/env python
"""Standalone benchmark runner: track the perf trajectory PR-over-PR.

Runs the same workloads the ``benchmarks/test_bench_*`` suite times (plus
raw CONGEST-engine scenarios that isolate the simulator hot loop) without
any pytest machinery, and writes a ``BENCH_<date>_<rev>.json`` with wall
time, rounds and message counts per workload.  Committing one such file per
perf-relevant PR gives a queryable history of the hot-path speed.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--out BENCH.json]
        [--baseline OLD.json] [--repeat N] [--quick] [--only NAME]
        [--include-1m] [--check-latest] [--max-regression X]

With ``--baseline`` the report also contains per-workload speedup factors
relative to the older file (``old_wall_s / wall_s``).  ``--quick`` runs only
the four classic (small) workloads — the CI perf-smoke job uses it together
with ``--check-latest``, which compares against the newest committed
``BENCH_*.json`` and exits non-zero when any shared workload regressed by
more than ``--max-regression`` (a tolerant 2x by default, so CI noise does
not flake the build).

Workloads whose interesting cost is the engine loop (``congest_*``,
``grid_bfs_10k``, ...) construct their graph and network outside the timed
region and report a self-measured ``wall_s``; end-to-end experiment
workloads are timed whole.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.experiments import (  # noqa: E402
    run_all_experiments,
    run_congestion_experiment,
    run_distributed_experiment,
    run_shortcut_tree_experiment,
)
from repro.congest.network import Network  # noqa: E402
from repro.congest.primitives.bfs import DistributedBFS  # noqa: E402
from repro.congest.primitives.leader import FloodMax  # noqa: E402
from repro.congest.scheduler import RandomDelayScheduler, draw_random_delays  # noqa: E402
from repro.graphs.generators import grid_graph, random_connected_graph  # noqa: E402
from repro.graphs.lower_bound import lower_bound_instance  # noqa: E402
from repro.shortcuts.distributed import build_distributed_kogan_parter  # noqa: E402
from repro.shortcuts.partition import Partition  # noqa: E402


# ----------------------------------------------------------------------
# classic tier (same definitions across BENCH history)
# ----------------------------------------------------------------------
def _bench_congestion() -> dict:
    table = run_congestion_experiment(
        sizes=(200, 400, 800), diameter_value=6, kind="lower_bound",
        log_factor=0.25, seed=11,
    )
    return {"rows": len(table.rows), "max_congestion": max(table.column("congestion"))}


def _bench_shortcut_trees() -> dict:
    table = run_shortcut_tree_experiment(
        sizes=(200, 400), diameter_value=6, trials=20,
        probabilities=(0.05, 0.1, 0.2, 0.4, 0.8), seed=37,
    )
    return {"rows": len(table.rows)}


def _bench_distributed() -> dict:
    table = run_distributed_experiment(sizes=(60, 120, 240), seed=19)
    return {"rounds": int(sum(table.column("rounds")))}


def _bench_distributed_pipeline() -> dict:
    """Quick tier: the fully simulated CSR-mask pipeline, unknown diameter.

    Exercises every measured stage (probe, detection, numbering, concurrent
    BFS, verification) at a size small enough for the CI perf-smoke gate.
    """
    inst = lower_bound_instance(1_000, 6)
    partition = Partition(inst.graph, inst.parts, validate=False)
    start = time.perf_counter()
    result = build_distributed_kogan_parter(
        inst.graph, partition, known_diameter=False, log_factor=0.25, rng=3,
    )
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "n": inst.graph.num_vertices,
        "rounds": result.total_rounds,
        "guesses": len(result.attempted_guesses),
        "spanning": result.spanning_ok,
    }


def _bench_mst_shortcut_1k() -> dict:
    """Quick tier: the fully simulated shortcut-consumer Boruvka MST.

    Every phase re-invokes the KP construction on the merged-part
    partition and routes the MWOE aggregation over the shortcut-augmented
    fragment trees (concurrent masked BFS + PartAggregation).  The weight
    is checked against Kruskal so the benchmark doubles as an end-to-end
    correctness canary.
    """
    from repro.applications.mst import kruskal_mst
    from repro.applications.shortcut_mst import shortcut_boruvka_mst
    from repro.graphs.generators import with_random_weights

    inst = lower_bound_instance(1_000, 6)
    weighted = with_random_weights(inst.graph, rng=3)
    start = time.perf_counter()
    result = shortcut_boruvka_mst(
        weighted, engine="shortcut", diameter_value=6, log_factor=0.25, rng=3,
    )
    wall = time.perf_counter() - start
    _, kruskal_weight = kruskal_mst(weighted)
    return {
        "wall_s": wall,
        "n": weighted.num_vertices,
        "phases": result.phases,
        "rounds": result.total_rounds,
        "weight_ok": abs(result.weight - kruskal_weight) < 1e-6,
    }


def _bench_fault_sweep_1k() -> dict:
    """Quick tier: the shortcut-consumer MST under adversarial message loss.

    Runs the same 1k-node Boruvka consumer as ``mst_shortcut_1k`` twice —
    fault-free and at a 5% Bernoulli drop rate with the retry/ack protocol
    stack — and reports both walls plus the retry overhead factor.  Both
    runs check their weight against Kruskal, so the workload doubles as
    the end-to-end exactness-under-loss canary: with retries enabled a
    positive drop rate must not change the answer, only the cost.
    """
    from repro.applications.mst import kruskal_mst
    from repro.applications.shortcut_mst import shortcut_boruvka_mst
    from repro.graphs.generators import with_random_weights

    inst = lower_bound_instance(1_000, 6)
    weighted = with_random_weights(inst.graph, rng=3)
    _, kruskal_weight = kruskal_mst(weighted)

    start = time.perf_counter()
    clean = shortcut_boruvka_mst(
        weighted, engine="shortcut", diameter_value=6, log_factor=0.25, rng=3,
    )
    clean_wall = time.perf_counter() - start

    start = time.perf_counter()
    faulty = shortcut_boruvka_mst(
        weighted, engine="shortcut", diameter_value=6, log_factor=0.25, rng=3,
        drop_rate=0.05, adversary_seed=17,
    )
    faulty_wall = time.perf_counter() - start

    return {
        "wall_s": faulty_wall,
        "clean_wall_s": round(clean_wall, 4),
        "retry_overhead": round(faulty_wall / clean_wall, 2) if clean_wall else 0.0,
        "n": weighted.num_vertices,
        "drop_rate": 0.05,
        "rounds": faulty.total_rounds,
        "clean_rounds": clean.total_rounds,
        "weight_ok": (abs(clean.weight - kruskal_weight) < 1e-6
                      and abs(faulty.weight - kruskal_weight) < 1e-6),
    }


def _bench_sweep_fast_parallel() -> dict:
    """Quick tier: the full fast-tier E1-E14 sweep, sharded over 4 workers.

    Times the parallel experiment runtime end to end (cell planning,
    process-pool dispatch, ordered reduce) and re-runs the identical sweep
    serially for two purposes: the recorded ``parallel_speedup`` tracks how
    close the executor gets to the core count, and ``tables_ok`` is the
    bit-identity canary — every table's deterministic rows must match the
    serial run exactly, or the run fails as a correctness error.  On
    single-core machines the speedup degrades to ~1x (pool overhead);
    the canary still holds.
    """
    start = time.perf_counter()
    parallel_tables = run_all_experiments(fast=True, seed=1, workers=4)
    parallel_wall = time.perf_counter() - start
    start = time.perf_counter()
    serial_tables = run_all_experiments(fast=True, seed=1, workers=1)
    serial_wall = time.perf_counter() - start
    tables_ok = len(parallel_tables) == len(serial_tables) and all(
        p.experiment_id == s.experiment_id
        and p.headers == s.headers
        and p.deterministic_rows() == s.deterministic_rows()
        for p, s in zip(parallel_tables, serial_tables)
    )
    return {
        "wall_s": parallel_wall,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_speedup": round(serial_wall / parallel_wall, 2) if parallel_wall else 0.0,
        "workers": 4,
        "tables": len(parallel_tables),
        "tables_ok": tables_ok,
    }


def _bench_congest_flood() -> dict:
    """Raw engine benchmark: a full-graph BFS flood on a lower-bound instance.

    Isolates the simulator hot loop: the instance and network are built
    outside the timed region (instance generation is a separate, graph-layer
    concern tracked by the E2/E9 workloads).
    """
    inst = lower_bound_instance(600, 6)
    network = Network(inst.graph)
    algorithm = DistributedBFS({0})
    start = time.perf_counter()
    metrics = network.run(algorithm)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rounds": metrics.rounds, "messages": metrics.messages_delivered}


# ----------------------------------------------------------------------
# 10k-node tier: scales the active-set engine cannot be measured at with
# the classic workloads (the pre-active-set engine paid O(n + links) per
# round, making these sizes impractically slow to iterate on)
# ----------------------------------------------------------------------
def _bench_flood_10k() -> dict:
    """Full BFS flood over a ~10k-node lower-bound instance."""
    inst = lower_bound_instance(10_000, 6)
    network = Network(inst.graph)
    algorithm = DistributedBFS({0})
    start = time.perf_counter()
    metrics = network.run(algorithm)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "n": inst.graph.num_vertices,
        "rounds": metrics.rounds,
        "messages": metrics.messages_delivered,
    }


def _bench_grid_bfs_10k() -> dict:
    """BFS on a 100x100 grid: 198 rounds, frontier-sized active sets.

    The extreme O(touched)-vs-O(n) case: most rounds touch only the BFS
    frontier, which the legacy engine scanned all 10k nodes to find.
    """
    g = grid_graph(100, 100)
    network = Network(g)
    algorithm = DistributedBFS({0})
    start = time.perf_counter()
    metrics = network.run(algorithm)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "n": g.num_vertices,
        "rounds": metrics.rounds,
        "messages": metrics.messages_delivered,
    }


def _bench_leader_10k() -> dict:
    """FloodMax leader election on a sparse random 10k-node graph."""
    g = random_connected_graph(10_000, extra_edge_prob=0.0002, rng=101)
    network = Network(g)
    algorithm = FloodMax()
    start = time.perf_counter()
    metrics = network.run(algorithm)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "n": g.num_vertices,
        "rounds": metrics.rounds,
        "messages": metrics.messages_delivered,
    }


def _bench_components_10k() -> dict:
    """Shortcut-consumer connected components on 4 x 2.5k hub pieces.

    Boruvka-style hooking with the per-phase label minimum routed through
    PartAggregation over freshly sampled KP shortcuts; constant-diameter
    pieces keep the sampling probability in the non-degenerate regime.
    The label partition is checked against the sequential traversal.
    """
    from repro.applications.components import shortcut_connected_components
    from repro.graphs.components import connected_components
    from repro.graphs.generators import disjoint_union, hub_diameter_graph

    graph = disjoint_union([
        hub_diameter_graph(2_500, 6, extra_edge_prob=0.0016, rng=11 + i)
        for i in range(4)
    ])
    start = time.perf_counter()
    result = shortcut_connected_components(
        graph, engine="shortcut", diameter_value=6, log_factor=0.25, rng=3,
    )
    wall = time.perf_counter() - start
    by_label: dict[int, set] = {}
    for v, label in enumerate(result.labels):
        by_label.setdefault(label, set()).add(v)
    labels_ok = sorted(by_label.values(), key=min) == connected_components(graph)
    return {
        "wall_s": wall,
        "n": graph.num_vertices,
        "components": result.num_components,
        "phases": result.phases,
        "rounds": result.total_rounds,
        "labels_ok": labels_ok,
    }


def _bench_scheduler_10k() -> dict:
    """E5-style concurrent-BFS scenario at 10k nodes.

    Eight truncated BFS instances grown simultaneously under the
    random-delay scheduler on a 10k-node lower-bound instance — the
    round-dominant stage of the distributed construction, at a scale the
    per-round O(n) engine could not reach.
    """
    inst = lower_bound_instance(10_000, 6)
    network = Network(inst.graph)
    num = 8
    algos = [
        DistributedBFS({137 * i}, max_depth=40, prefix=f"s{i}_", algorithm_id=i)
        for i in range(num)
    ]
    delays = draw_random_delays(num, 24, rng=7)
    scheduler = RandomDelayScheduler(algos, delays)
    start = time.perf_counter()
    metrics = network.run(scheduler)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "n": inst.graph.num_vertices,
        "rounds": metrics.rounds,
        "messages": metrics.messages_delivered,
        "max_link_backlog": metrics.max_link_backlog,
    }


def _bench_distributed_10k() -> dict:
    """Full distributed construction on a ~10k-node lower-bound instance.

    Times the CSR-mask pipeline with all five stages simulated, best of 3.
    """
    inst = lower_bound_instance(10_000, 6)
    partition = Partition(inst.graph, inst.parts, validate=False)
    wall = float("inf")
    result = None
    for _ in range(3):
        start = time.perf_counter()
        attempt = build_distributed_kogan_parter(
            inst.graph, partition, diameter_value=6, log_factor=0.25, rng=3,
        )
        elapsed = time.perf_counter() - start
        if elapsed < wall:
            wall, result = elapsed, attempt
    return {
        "wall_s": wall,
        "n": inst.graph.num_vertices,
        "rounds": result.total_rounds,
        "spanning": result.spanning_ok,
    }


# ----------------------------------------------------------------------
# 100k-node tier: the bulk round kernels' home turf.  Per-node rounds at
# this scale pay six-figure Python dispatch per round; every workload
# here advances whole rounds as numpy array ops and doubles as an
# at-scale exercise of one ported kernel (BFS, FloodMax, fleet,
# aggregation).  All graphs come from ``lower_bound_instance`` — the hub
# family's exact-diameter validation is quadratic and already takes
# minutes at this size.
# ----------------------------------------------------------------------
def _bench_flood_100k() -> dict:
    """Full BFS flood over a ~100k-node lower-bound instance."""
    inst = lower_bound_instance(100_000, 6)
    network = Network(inst.graph)
    algorithm = DistributedBFS({0})
    start = time.perf_counter()
    metrics = network.run(algorithm)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "n": inst.graph.num_vertices,
        "rounds": metrics.rounds,
        "messages": metrics.messages_delivered,
    }


def _bench_leader_100k() -> dict:
    """FloodMax leader election on a ~100k-node lower-bound instance."""
    inst = lower_bound_instance(100_000, 6)
    network = Network(inst.graph)
    algorithm = FloodMax()
    start = time.perf_counter()
    metrics = network.run(algorithm)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "n": inst.graph.num_vertices,
        "rounds": metrics.rounds,
        "messages": metrics.messages_delivered,
    }


def _flood_label_components(num_pieces: int, piece_size: int) -> dict:
    """Connected components by min/max-label flooding at bulk scale.

    The classic distributed components algorithm: every vertex floods the
    extremal id it has seen, converging per component in diameter rounds —
    exactly FloodMax on a disconnected union, so the whole run rides the
    bulk express kernel.  (The shortcut-consumer components of
    ``components_10k`` is quadratic in its early Boruvka phases — every
    singleton fragment is an aggregation instance — and infeasible at
    this size; see ROADMAP.)  The label partition is checked against the
    sequential traversal, making the workload a correctness canary too.
    """
    from repro.graphs.components import connected_components
    from repro.graphs.generators import disjoint_union
    from repro.congest.primitives.leader import read_leaders

    graph = disjoint_union([
        lower_bound_instance(piece_size, 6).graph for _ in range(num_pieces)
    ])
    network = Network(graph)
    start = time.perf_counter()
    metrics = network.run(FloodMax())
    wall = time.perf_counter() - start
    leaders = read_leaders(network)
    by_label: dict[int, set] = {}
    for v in range(graph.num_vertices):
        by_label.setdefault(leaders[v], set()).add(v)
    labels_ok = sorted(by_label.values(), key=min) == connected_components(graph)
    return {
        "wall_s": wall,
        "n": graph.num_vertices,
        "components": len(by_label),
        "rounds": metrics.rounds,
        "messages": metrics.messages_delivered,
        "labels_ok": labels_ok,
    }


def _bench_components_100k() -> dict:
    """Flood-label components over 40 disjoint ~2.5k-node pieces."""
    return _flood_label_components(40, 2_500)


def _bench_fleet_agg_100k() -> dict:
    """Masked-BFS fleet + min-aggregation pipeline over a 100k instance.

    Eight concurrent BFS trees grown over the intra-part link masks of
    the instance's eight largest parts (long-path parts, so the trees are
    deep), then a part-wise min convergecast over the same trees — the
    two stages exercise the fleet and aggregation kernels back to back on
    one network, composed via ``reset=False``.
    """
    import random

    import numpy as np

    from repro.congest.primitives.aggregation import PartAggregation
    from repro.congest.primitives.concurrent_bfs import ConcurrentMaskedBFS
    from repro.graphs.csr import CSRLinkMask

    inst = lower_bound_instance(100_000, 6)
    n = inst.graph.num_vertices
    partition = Partition(inst.graph, inst.parts, validate=False)
    largest = sorted(range(len(inst.parts)),
                     key=lambda i: -len(inst.parts[i]))[:8]
    labels = np.full(n, -1, dtype=np.int64)
    for k, i in enumerate(largest):
        labels[np.asarray(list(inst.parts[i]), dtype=np.int64)] = k
    csr = inst.graph.csr()
    tails = np.asarray([e[0] for e in csr.edge_list], dtype=np.int64)
    heads = np.asarray([e[1] for e in csr.edge_list], dtype=np.int64)
    masks = [
        CSRLinkMask(csr, (labels[tails] == k) & (labels[heads] == k))
        for k in range(8)
    ]
    rng = random.Random(5)
    network = Network(inst.graph)
    fleet = ConcurrentMaskedBFS(
        [partition.leader(i) for i in largest], masks,
        draw_random_delays(8, 4, rng), n,
        [f"pa{i}_" for i in range(8)], n,
        suppress_parent_echo=True, sparse_labels=True,
    )
    start = time.perf_counter()
    m1 = network.run(fleet, reset=False, max_rounds=400_000)
    values = [
        {int(v): int(v) for v in np.flatnonzero(labels == k)}
        for k in range(8)
    ]
    aggregation = PartAggregation(
        masks, fleet.parent, values, "min",
        delays=draw_random_delays(8, 4, rng),
    )
    m2 = network.run(aggregation, reset=False, max_rounds=400_000)
    wall = time.perf_counter() - start
    expected = [min(vals) for vals in values]
    return {
        "wall_s": wall,
        "n": n,
        "rounds": m1.rounds + m2.rounds,
        "messages": m1.messages_delivered + m2.messages_delivered,
        "results_ok": list(aggregation.results) == expected,
    }


# ----------------------------------------------------------------------
# 1M-node tier: opt-in (--include-1m, or --only).  Feasible only through
# the bulk kernels; network construction alone takes ~20s at this size,
# so the tier stays out of the default sweep and the nightly lane enables
# it via a workflow_dispatch input.
# ----------------------------------------------------------------------
def _bench_flood_1m() -> dict:
    """Full BFS flood over a ~1M-node lower-bound instance."""
    inst = lower_bound_instance(1_000_000, 6)
    network = Network(inst.graph)
    algorithm = DistributedBFS({0})
    start = time.perf_counter()
    metrics = network.run(algorithm)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "n": inst.graph.num_vertices,
        "rounds": metrics.rounds,
        "messages": metrics.messages_delivered,
    }


def _bench_components_1m() -> dict:
    """Flood-label components over 40 disjoint ~25k-node pieces."""
    return _flood_label_components(40, 25_000)


CLASSIC_WORKLOADS: dict[str, Callable[[], dict]] = {
    "congestion_E2": _bench_congestion,
    "shortcut_trees_E9": _bench_shortcut_trees,
    "distributed_E5": _bench_distributed,
    "distributed_pipeline_1k": _bench_distributed_pipeline,
    "mst_shortcut_1k": _bench_mst_shortcut_1k,
    "fault_sweep_1k": _bench_fault_sweep_1k,
    "sweep_fast_parallel": _bench_sweep_fast_parallel,
    "congest_flood": _bench_congest_flood,
}

SCALE_WORKLOADS: dict[str, Callable[[], dict]] = {
    "flood_10k": _bench_flood_10k,
    "grid_bfs_10k": _bench_grid_bfs_10k,
    "leader_10k": _bench_leader_10k,
    "scheduler_10k": _bench_scheduler_10k,
    "distributed_10k": _bench_distributed_10k,
    "components_10k": _bench_components_10k,
    "flood_100k": _bench_flood_100k,
    "leader_100k": _bench_leader_100k,
    "components_100k": _bench_components_100k,
    "fleet_agg_100k": _bench_fleet_agg_100k,
}

SCALE_1M_WORKLOADS: dict[str, Callable[[], dict]] = {
    "flood_1m": _bench_flood_1m,
    "components_1m": _bench_components_1m,
}


def _git_rev() -> Optional[str]:
    """The working tree's revision, with a ``-dirty`` suffix when it differs
    from HEAD (the seed of this file recorded a clean hash for a dirty tree,
    which made ``git_rev`` and ``baseline_rev`` indistinguishable)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        )
        rev = out.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        )
        if status.stdout.strip():
            rev += "-dirty"
        return rev
    except Exception:
        return None


def run_benchmarks(repeat: int = 1, quick: bool = False,
                   only: Optional[list[str]] = None,
                   include_1m: bool = False) -> dict:
    """Run every workload ``repeat`` times and keep the best wall time.

    Workloads may return their own ``wall_s`` (measured around just the
    interesting region); otherwise the full call is timed.  Repeats are
    interleaved (one pass over all workloads per repetition) rather than
    run back-to-back, so every workload samples several time windows and
    transient machine noise is less likely to poison any single best-of.

    ``only`` restricts the run to the named workloads (any tier) — the CI
    fault-smoke lane uses it to gate just ``fault_sweep_1k`` without
    paying for the whole quick tier.  The 1M tier never runs implicitly:
    it needs ``include_1m`` or an explicit ``--only`` naming.
    """
    workloads = dict(CLASSIC_WORKLOADS)
    if not quick:
        workloads.update(SCALE_WORKLOADS)
        if include_1m:
            workloads.update(SCALE_1M_WORKLOADS)
    if only:
        everything = {**CLASSIC_WORKLOADS, **SCALE_WORKLOADS,
                      **SCALE_1M_WORKLOADS}
        unknown = [name for name in only if name not in everything]
        if unknown:
            raise SystemExit(
                f"unknown workload(s) {unknown}; "
                f"choose from {sorted(everything)}")
        workloads = {name: everything[name] for name in only}
    best: dict[str, float] = {name: float("inf") for name in workloads}
    extras: dict[str, dict] = {name: {} for name in workloads}
    for _ in range(repeat):
        for name, fn in workloads.items():
            start = time.perf_counter()
            extra = fn()
            elapsed = extra.pop("wall_s", None)
            if elapsed is None:
                elapsed = time.perf_counter() - start
            if elapsed < best[name]:
                best[name] = elapsed
                extras[name] = extra
    results: dict[str, dict] = {}
    for name in workloads:
        results[name] = {"wall_s": round(best[name], 4), **extras[name]}
        print(f"{name:24s} {best[name]:8.3f}s  {extras[name]}")
    return results


def _latest_committed_bench() -> Optional[Path]:
    """The most recently *committed* BENCH file.

    Candidates come from ``git ls-files`` so uncommitted local runs (the
    default output path writes into the repo root) can never become the
    regression baseline, and recency is the file's last commit time — a
    lexicographic sort would order same-day files by arbitrary rev hash.
    Falls back to a name sort over the on-disk files outside a git checkout.
    """
    try:
        out = subprocess.run(
            ["git", "ls-files", "BENCH_*.json"], cwd=REPO_ROOT,
            capture_output=True, text=True, check=True,
        )
        candidates = [REPO_ROOT / name for name in out.stdout.split()]
        if not candidates:
            return None

        def commit_time(path: Path) -> int:
            log = subprocess.run(
                ["git", "log", "-1", "--format=%ct", "--", str(path)],
                cwd=REPO_ROOT, capture_output=True, text=True, check=True,
            )
            return int(log.stdout.strip() or 0)

        return max(candidates, key=lambda p: (commit_time(p), p.name))
    except Exception:
        candidates = sorted(REPO_ROOT.glob("BENCH_*.json"))
        return candidates[-1] if candidates else None


def _check_regression(results: dict, baseline: dict, max_regression: float) -> list[str]:
    """Return failure messages for workloads slower than ``max_regression``x."""
    failures = []
    for name, entry in results.items():
        old = baseline.get("workloads", {}).get(name)
        if not old or not old.get("wall_s"):
            continue
        ratio = entry["wall_s"] / old["wall_s"]
        if ratio > max_regression:
            failures.append(
                f"{name}: {entry['wall_s']:.4f}s vs baseline {old['wall_s']:.4f}s "
                f"({ratio:.2f}x > {max_regression}x allowed)"
            )
    return failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default BENCH_<date>_<rev>.json)")
    parser.add_argument("--baseline", default=None,
                        help="older BENCH json to compute speedups against")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repetitions per workload (best-of)")
    parser.add_argument("--quick", action="store_true",
                        help="run only the classic small workloads (CI smoke)")
    parser.add_argument("--only", action="append", metavar="NAME",
                        help="run only the named workload (repeatable; "
                             "any tier)")
    parser.add_argument("--include-1m", action="store_true",
                        help="add the opt-in 1M-node tier to the full sweep "
                             "(the nightly lane enables this via a "
                             "workflow_dispatch input)")
    parser.add_argument("--check-latest", action="store_true",
                        help="compare against the newest committed BENCH_*.json "
                             "and fail on regression")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="allowed slowdown factor for --check-latest (default 2.0)")
    args = parser.parse_args(argv)

    results = run_benchmarks(repeat=args.repeat, quick=args.quick,
                             only=args.only, include_1m=args.include_1m)
    # Workloads that double as correctness canaries (mst_shortcut_1k's
    # Kruskal check, components_10k's label check, distributed spanning
    # flags) report boolean fields; a falsy one fails the run regardless
    # of timings — a perf gate must not print "ok" over wrong answers.
    correctness_failures = [
        f"{name}: {key} = {value!r}"
        for name, entry in results.items()
        for key, value in entry.items()
        if (key.endswith("_ok") or key in ("spanning", "labels_ok", "weight_ok"))
        and not value
    ]
    report = {
        "date": datetime.date.today().isoformat(),
        "git_rev": _git_rev(),
        "python": sys.version.split()[0],
        "repeat": args.repeat,
        "workloads": results,
    }
    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        speedups = {}
        for name, entry in results.items():
            old = baseline.get("workloads", {}).get(name)
            if old and entry["wall_s"] > 0:
                speedups[name] = round(old["wall_s"] / entry["wall_s"], 2)
        report["baseline_rev"] = baseline.get("git_rev")
        report["baseline_date"] = baseline.get("date")
        report["baseline_wall_s"] = {
            name: baseline["workloads"][name]["wall_s"]
            for name in results if name in baseline.get("workloads", {})
        }
        report["speedup_vs_baseline"] = speedups
        print("speedups vs baseline:", speedups)

    exit_code = 0
    if correctness_failures:
        print("CORRECTNESS FAILURE:")
        for failure in correctness_failures:
            print("  " + failure)
        exit_code = 1
    if args.check_latest:
        latest = _latest_committed_bench()
        if latest is None:
            print("no committed BENCH_*.json found; skipping regression check")
        else:
            baseline = json.loads(latest.read_text())
            failures = _check_regression(results, baseline, args.max_regression)
            if failures:
                print(f"PERF REGRESSION vs {latest.name}:")
                for f in failures:
                    print("  " + f)
                exit_code = 1
            else:
                print(f"perf-smoke ok vs {latest.name} "
                      f"(threshold {args.max_regression}x)")

    if args.out:
        out = Path(args.out)
    else:
        rev = report["git_rev"] or "unknown"
        out = REPO_ROOT / f"BENCH_{report['date']}_{rev}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
