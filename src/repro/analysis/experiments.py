"""Experiment harness: workload generation, sweeps and result tables.

The paper has no experimental section, so the "tables and figures" this
repository reproduces are its quantitative claims (see DESIGN.md §5 and
EXPERIMENTS.md).  Each ``run_*`` function below regenerates one experiment:
it builds the workloads, runs the constructions / applications, and returns
an :class:`ExperimentTable` whose rows are what EXPERIMENTS.md reports.  The
benchmark suite calls the same functions (so `pytest benchmarks/` both times
them and re-produces the numbers), and the example scripts print them.

Every experiment is decomposed into three deterministic pieces:

* a **planner** (``plan_*``) that enumerates the sweep as a list of
  :class:`~repro.analysis.parallel.CellTask` — pure, picklable per-cell
  (typically per ``(size, trial)``) tasks — plus a reducer that assembles
  the table from the cell results *in cell order*;
* a **cell runner** (registered in :data:`CELL_RUNNERS`) that executes one
  cell; every random decision inside a cell draws from a stream derived
  with :func:`repro.rng.derive_seed` from the base seed and the cell's
  coordinates, so cells never share RNG state;
* the public ``run_*`` wrapper, which executes the plan — serially by
  default, or sharded over a process pool via ``workers=N``.

Because cells are independent and the reducers are order-deterministic,
parallel runs are bit-identical to serial runs at any worker count (the
test-suite pins this); the only nondeterministic columns are wall-clock
timings, which tables declare in ``nondeterministic_columns``.

Design choices documented once here:

* **Workloads.**  ``hub`` — hub-backbone graphs of exact diameter ``D`` with
  adversarial long-path partitions; ``lower_bound`` — the Elkin/Das-Sarma
  instances with their canonical path parts; ``cluster`` — diameter-4
  cluster stars with the clusters as parts.
* **Sampling regime.**  The default ``log_factor`` is below 1 so that the
  sampling probability stays meaningfully below 1 at simulator scale (the
  paper's exact ``p`` clamps to 1 for small ``n``, collapsing the
  construction to the naive shortcut); EXPERIMENTS.md reports the factor
  used for every table.
* **Determinism.**  Every experiment takes a seed and is reproducible —
  per cell, not just per sweep.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..applications.mincut import approximate_min_cut, stoer_wagner_min_cut
from ..applications.mst import boruvka_mst, default_shortcut_factory, kruskal_mst
from ..applications.sssp import bellman_ford, dijkstra, shortcut_accelerated_sssp
from ..applications.two_ecss import two_ecss_approximation
from ..applications.aggregation import estimate_aggregation_rounds
from ..graphs.generators import (
    cluster_star_graph,
    hub_diameter_graph,
    planted_cut_graph,
    with_random_weights,
)
from ..graphs.graph import Graph, WeightedGraph
from ..graphs.lower_bound import lower_bound_instance
from ..graphs.partitions import path_partition, random_connected_partition, singleton_free
from ..params import (
    elkin_lower_bound,
    ghaffari_haeupler_quality,
    k_d_value,
    predicted_congestion,
    predicted_dilation,
    predicted_quality,
    predicted_rounds_distributed,
)
from ..shortcuts.baselines import (
    build_empty_shortcut,
    build_ghaffari_haeupler_shortcut,
    build_kitamura_style_shortcut,
    build_naive_shortcut,
)
from ..shortcuts.distributed import build_distributed_kogan_parter
from ..shortcuts.kogan_parter import build_kogan_parter_shortcut
from ..shortcuts.partition import Partition
from ..shortcuts.shortcut_trees import ShortcutTree
from ..graphs.traversal import shortest_path

from ..rng import derive_rng, derive_seed, ensure_rng
from .parallel import CellTask, run_cells


# ----------------------------------------------------------------------
# result tables
# ----------------------------------------------------------------------
@dataclass
class ExperimentTable:
    """A rendered experiment result: a named table of rows.

    Attributes:
        experiment_id: identifier from DESIGN.md (e.g. ``"E1"``).
        title: human-readable description.
        headers: column names.
        rows: the data rows (values are rendered with :func:`render`).
        notes: free-form annotations (parameters used, caveats).
        nondeterministic_columns: headers whose values vary between runs of
            the same seed (wall-clock timings); excluded by
            :meth:`deterministic_rows`.
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    nondeterministic_columns: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        """Append a row (must match the header count)."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} values but the table has {len(self.headers)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list[object]:
        """Return one column by header name."""
        idx = self.headers.index(name)
        return [row[idx] for row in self.rows]

    def deterministic_rows(self) -> list[list[object]]:
        """Rows with the nondeterministic (timing) columns masked out.

        This is the payload the determinism contract covers: two runs with
        the same seed — serial or parallel, any worker count — produce
        identical ``deterministic_rows()``.
        """
        skip = {
            self.headers.index(name)
            for name in self.nondeterministic_columns
            if name in self.headers
        }
        if not skip:
            return [list(row) for row in self.rows]
        return [
            [value for idx, value in enumerate(row) if idx not in skip]
            for row in self.rows
        ]

    def render(self) -> str:
        """Render the table as aligned monospace text."""
        def fmt(value: object) -> str:
            if isinstance(value, float):
                if value == float("inf"):
                    return "inf"
                return f"{value:.3g}"
            return str(value)

        str_rows = [[fmt(v) for v in row] for row in self.rows]
        widths = [len(h) for h in self.headers]
        for row in str_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(self.headers)))
        lines.append("  ".join("-" * widths[i] for i in range(len(self.headers))))
        for row in str_rows:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: A plan is the cell list plus the reducer that turns ordered cell results
#: into the experiment's table.
ExperimentPlan = tuple[list[CellTask], Callable[[list], ExperimentTable]]


def _rows_reducer(**table_kwargs):
    """Reducer for experiments whose cells each produce one complete row
    (or ``None`` for skipped cells); ``table_kwargs`` construct the table."""

    def reduce(results: list) -> ExperimentTable:
        table = ExperimentTable(**table_kwargs)
        for row in results:
            if row is not None:
                table.add_row(*row)
        return table

    return reduce


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """A graph plus a part collection, ready for shortcut construction.

    Attributes:
        name: workload family name.
        graph: the host graph.
        partition: the parts.
        diameter: the exact graph diameter.
    """

    name: str
    graph: Graph
    partition: Partition
    diameter: int


def make_workload(kind: str, n: int, diameter_value: int, *, seed: int = 0) -> Workload:
    """Build one of the named workload families.

    Args:
        kind: ``"hub"``, ``"lower_bound"`` or ``"cluster"``.
        n: approximate number of vertices.
        diameter_value: target diameter (``cluster`` always has diameter 4).
        seed: RNG seed.

    Returns:
        A :class:`Workload`.
    """
    rng = ensure_rng(seed)
    if kind == "hub":
        # A sparse layer of random chords between the non-backbone vertices
        # gives the graph enough path structure for the adversarial long-path
        # partition to exist (without the chords, almost every vertex is a
        # degree-1 leaf of a hub and no long induced path can be carved).
        extra = min(0.05, 4.0 / max(n, 1))
        graph = hub_diameter_graph(n, diameter_value, extra_edge_prob=extra, rng=rng)
        k_d = k_d_value(graph.num_vertices, diameter_value)
        path_len = max(3, int(3 * k_d))
        num_paths = max(2, int(graph.num_vertices / max(path_len, 2)))
        parts = path_partition(graph, num_paths, path_len, rng=rng)
        parts = singleton_free(parts)
        if not parts:
            parts = singleton_free(random_connected_partition(graph, num_paths, rng=rng))
        partition = Partition(graph, parts, validate=False)
        return Workload(name="hub", graph=graph, partition=partition, diameter=diameter_value)
    if kind == "lower_bound":
        inst = lower_bound_instance(n, diameter_value)
        partition = Partition(inst.graph, inst.parts, validate=False)
        return Workload(
            name="lower_bound",
            graph=inst.graph,
            partition=partition,
            diameter=inst.diameter,
        )
    if kind == "cluster":
        cluster_size = max(3, int(math.sqrt(n)))
        num_clusters = max(2, n // cluster_size)
        graph = cluster_star_graph(num_clusters, cluster_size, rng=rng)
        parts = []
        for c in range(num_clusters):
            base = 1 + c * cluster_size
            parts.append(set(range(base, base + cluster_size)))
        partition = Partition(graph, parts, validate=False)
        return Workload(name="cluster", graph=graph, partition=partition, diameter=4)
    raise ValueError(f"unknown workload kind {kind!r}")


def make_weighted_workload(
    kind: str, n: int, diameter_value: int, *, seed: int = 0
) -> tuple[WeightedGraph, int]:
    """Build a weighted graph of the named family (for the application experiments)."""
    workload = make_workload(kind, n, diameter_value, seed=seed)
    weighted = with_random_weights(workload.graph, rng=seed + 1)
    return weighted, workload.diameter


@functools.lru_cache(maxsize=8)
def _cached_lower_bound_instance(n: int, diameter_value: int):
    """Memoized lower-bound instance for per-trial cells.

    The construction is deterministic and seed-free, but per-trial cell
    granularity would otherwise rebuild the identical instance once per
    cell (25x for E11's default sweep).  Cells treat the instance as
    read-only — nothing in the sampling or measurement path mutates the
    host graph — so sharing one object per (n, D) within a process is
    safe, and each worker process builds its own cache, preserving the
    bit-identity contract.
    """
    return lower_bound_instance(n, diameter_value)


# ----------------------------------------------------------------------
# E1-E3: quality / congestion / dilation of the KP construction
# ----------------------------------------------------------------------
def _quality_cell(
    *, kind: str, n: int, diameter_value: int, log_factor: float, seed: int, trial: int
) -> dict:
    """E1 cell: one trial of one (diameter, size) sweep point."""
    workload = make_workload(
        kind, n, diameter_value,
        seed=derive_seed(seed, "E1", diameter_value, n, trial, "workload"),
    )
    result = build_kogan_parter_shortcut(
        workload.graph,
        workload.partition,
        diameter_value=workload.diameter,
        log_factor=log_factor,
        rng=derive_seed(seed, "E1", diameter_value, n, trial, "sample"),
    )
    report = result.shortcut.quality_report(
        exact_dilation=False,
        rng=derive_seed(seed, "E1", diameter_value, n, trial, "dilation"),
    )
    return {
        "name": workload.name,
        "n_actual": workload.graph.num_vertices,
        "diameter": workload.diameter,
        "quality": report.quality,
        "congestion": report.congestion,
        "dilation": report.dilation,
    }


def plan_quality_experiment(
    *,
    sizes: Sequence[int] = (200, 400, 800),
    diameters: Sequence[int] = (4, 6, 8),
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    seed: int = 7,
    trials: int = 1,
) -> ExperimentPlan:
    """Plan E1: one cell per (diameter, size, trial)."""
    tasks = [
        CellTask("E1", dict(kind=kind, n=n, diameter_value=diameter_value,
                            log_factor=log_factor, seed=seed, trial=t))
        for diameter_value in diameters
        for n in sizes
        for t in range(trials)
    ]

    def reduce(results: list) -> ExperimentTable:
        table = ExperimentTable(
            experiment_id="E1",
            title="Kogan-Parter shortcut quality vs predicted k_D log n (Theorem 1.1)",
            headers=[
                "workload", "n", "D", "k_D", "congestion", "dilation", "quality",
                "predicted", "ratio",
            ],
            notes=[f"kind={kind}, log_factor={log_factor}, trials={trials}, seed={seed}"],
        )
        it = iter(results)
        for _diameter_value in diameters:
            for _n in sizes:
                cells = [next(it) for _ in range(trials)]
                last = cells[-1]
                predicted = max(
                    1.0, log_factor * predicted_quality(last["n_actual"], last["diameter"])
                )
                quality = statistics.mean(c["quality"] for c in cells)
                table.add_row(
                    last["name"],
                    last["n_actual"],
                    last["diameter"],
                    round(k_d_value(last["n_actual"], last["diameter"]), 2),
                    statistics.mean(c["congestion"] for c in cells),
                    statistics.mean(c["dilation"] for c in cells),
                    quality,
                    round(predicted, 2),
                    round(quality / predicted, 3),
                )
        return table

    return tasks, reduce


def run_quality_experiment(
    *,
    sizes: Sequence[int] = (200, 400, 800),
    diameters: Sequence[int] = (4, 6, 8),
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    seed: int = 7,
    trials: int = 1,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E1: measured KP shortcut quality vs. the predicted ``k_D log n`` curve."""
    tasks, reduce = plan_quality_experiment(
        sizes=sizes, diameters=diameters, kind=kind, log_factor=log_factor,
        seed=seed, trials=trials,
    )
    return reduce(run_cells(tasks, workers=workers))


def _congestion_cell(
    *, kind: str, n: int, diameter_value: int, log_factor: float, seed: int
) -> list:
    """E2 cell: one size point — one construction, one table row."""
    workload = make_workload(
        kind, n, diameter_value, seed=derive_seed(seed, "E2", n, "workload")
    )
    result = build_kogan_parter_shortcut(
        workload.graph,
        workload.partition,
        diameter_value=workload.diameter,
        log_factor=log_factor,
        rng=derive_seed(seed, "E2", n, "sample"),
    )
    loads = result.shortcut.edge_loads()
    congestion = max(loads.values(), default=0)
    mean_load = statistics.mean(loads.values()) if loads else 0.0
    n_actual = workload.graph.num_vertices
    predicted = max(1.0, log_factor * predicted_congestion(n_actual, workload.diameter))
    return [
        workload.name,
        n_actual,
        workload.diameter,
        congestion,
        round(mean_load, 2),
        round(predicted, 2),
        round(congestion / predicted, 3),
    ]


def plan_congestion_experiment(
    *,
    sizes: Sequence[int] = (200, 400, 800),
    diameter_value: int = 6,
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    seed: int = 11,
) -> ExperimentPlan:
    """Plan E2: one cell per size."""
    tasks = [
        CellTask("E2", dict(kind=kind, n=n, diameter_value=diameter_value,
                            log_factor=log_factor, seed=seed))
        for n in sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E2",
        title="Edge congestion of the KP construction vs O(D k_D log n) (Section 2)",
        headers=["workload", "n", "D", "congestion", "mean_load", "predicted", "ratio"],
        notes=[f"kind={kind}, log_factor={log_factor}, seed={seed}"],
    )


def run_congestion_experiment(
    *,
    sizes: Sequence[int] = (200, 400, 800),
    diameter_value: int = 6,
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    seed: int = 11,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E2: measured edge congestion vs. the ``O(D k_D log n)`` Chernoff bound."""
    tasks, reduce = plan_congestion_experiment(
        sizes=sizes, diameter_value=diameter_value, kind=kind,
        log_factor=log_factor, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


def _dilation_cell(
    *, kind: str, n: int, diameter_value: int, log_factor: float, seed: int
) -> list:
    """E3 cell: one (diameter, size) point."""
    workload = make_workload(
        kind, n, diameter_value,
        seed=derive_seed(seed, "E3", diameter_value, n, "workload"),
    )
    empty = build_empty_shortcut(workload.graph, workload.partition)
    induced = empty.dilation(
        exact=False, rng=derive_seed(seed, "E3", diameter_value, n, "induced_dilation")
    )
    result = build_kogan_parter_shortcut(
        workload.graph,
        workload.partition,
        diameter_value=workload.diameter,
        log_factor=log_factor,
        rng=derive_seed(seed, "E3", diameter_value, n, "sample"),
    )
    dilation = result.shortcut.dilation(
        exact=False, rng=derive_seed(seed, "E3", diameter_value, n, "dilation")
    )
    n_actual = workload.graph.num_vertices
    predicted = max(1.0, log_factor * predicted_dilation(n_actual, workload.diameter))
    return [
        workload.name,
        n_actual,
        workload.diameter,
        induced,
        dilation,
        round(predicted, 2),
        round(dilation / predicted, 3),
    ]


def plan_dilation_experiment(
    *,
    sizes: Sequence[int] = (200, 400, 800),
    diameters: Sequence[int] = (4, 6),
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    seed: int = 13,
) -> ExperimentPlan:
    """Plan E3: one cell per (diameter, size)."""
    tasks = [
        CellTask("E3", dict(kind=kind, n=n, diameter_value=diameter_value,
                            log_factor=log_factor, seed=seed))
        for diameter_value in diameters
        for n in sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E3",
        title="Dilation of augmented parts vs O(k_D log n) (Theorem 3.1)",
        headers=[
            "workload", "n", "D", "induced_diam", "dilation", "predicted", "ratio",
        ],
        notes=[f"kind={kind}, log_factor={log_factor}, seed={seed}"],
    )


def run_dilation_experiment(
    *,
    sizes: Sequence[int] = (200, 400, 800),
    diameters: Sequence[int] = (4, 6),
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    seed: int = 13,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E3: measured dilation vs. the ``O(k_D log n)`` bound (Theorem 3.1).

    The induced part diameter (the dilation with no shortcut at all) is
    reported alongside, showing how much the sampled edges shorten the parts.
    """
    tasks, reduce = plan_dilation_experiment(
        sizes=sizes, diameters=diameters, kind=kind, log_factor=log_factor, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E4: baselines and lower bound
# ----------------------------------------------------------------------
def _baseline_cell(
    *, kind: str, n: int, diameter_value: int, log_factor: float, seed: int
) -> list:
    """E4 cell: every engine on one (diameter, size) workload."""
    workload = make_workload(
        kind, n, diameter_value,
        seed=derive_seed(seed, "E4", diameter_value, n, "workload"),
    )
    graph, partition = workload.graph, workload.partition
    n_actual = graph.num_vertices

    def dilation_rng(engine: str) -> int:
        return derive_seed(seed, "E4", diameter_value, n, engine, "dilation")

    kp = build_kogan_parter_shortcut(
        graph, partition, diameter_value=workload.diameter,
        log_factor=log_factor,
        rng=derive_seed(seed, "E4", diameter_value, n, "kp"),
    ).shortcut.quality_report(exact_dilation=False, rng=dilation_rng("kp"))
    kit = build_kitamura_style_shortcut(
        graph, partition, diameter_value=workload.diameter,
        log_factor=log_factor,
        rng=derive_seed(seed, "E4", diameter_value, n, "kitamura"),
    ).shortcut.quality_report(exact_dilation=False, rng=dilation_rng("kitamura"))
    gh = build_ghaffari_haeupler_shortcut(graph, partition).quality_report(
        exact_dilation=False, rng=dilation_rng("gh")
    )
    naive = build_naive_shortcut(graph, partition).quality_report(
        exact_dilation=False, rng=dilation_rng("naive")
    )
    empty = build_empty_shortcut(graph, partition).quality_report(
        exact_dilation=False, rng=dilation_rng("empty")
    )

    return [
        workload.name,
        n_actual,
        workload.diameter,
        round(elkin_lower_bound(n_actual, workload.diameter), 2),
        kp.quality,
        kit.quality,
        gh.quality,
        naive.quality,
        empty.quality,
        round(ghaffari_haeupler_quality(n_actual, workload.diameter), 2),
    ]


def plan_baseline_experiment(
    *,
    sizes: Sequence[int] = (200, 400),
    diameters: Sequence[int] = (4, 6, 8),
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    seed: int = 17,
) -> ExperimentPlan:
    """Plan E4: one cell per (diameter, size)."""
    tasks = [
        CellTask("E4", dict(kind=kind, n=n, diameter_value=diameter_value,
                            log_factor=log_factor, seed=seed))
        for diameter_value in diameters
        for n in sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E4",
        title="Shortcut quality: KP vs baselines vs Elkin lower bound",
        headers=[
            "workload", "n", "D", "lower_bound", "kp_quality", "kitamura_quality",
            "gh_quality", "naive_quality", "empty_quality", "gh_predicted",
        ],
        notes=[f"kind={kind}, log_factor={log_factor}, seed={seed}"],
    )


def run_baseline_experiment(
    *,
    sizes: Sequence[int] = (200, 400),
    diameters: Sequence[int] = (4, 6, 8),
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    seed: int = 17,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E4: KP vs Ghaffari-Haeupler vs Kitamura-style vs naive/empty baselines.

    Also reports the Elkin lower-bound value ``k_D`` and the predicted GH
    quality ``sqrt(n) + D`` so the measured values can be placed between the
    two curves.
    """
    tasks, reduce = plan_baseline_experiment(
        sizes=sizes, diameters=diameters, kind=kind, log_factor=log_factor, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E5: distributed construction rounds
# ----------------------------------------------------------------------
def _distributed_cell(
    *, kind: str, n: int, diameter_value: int, log_factor: float,
    known_diameter: bool, seed: int,
) -> list:
    """E5 cell: one CONGEST construction at one size."""
    workload = make_workload(
        kind, n, diameter_value, seed=derive_seed(seed, "E5", n, "workload")
    )
    result = build_distributed_kogan_parter(
        workload.graph,
        workload.partition,
        diameter_value=workload.diameter,
        known_diameter=known_diameter,
        log_factor=log_factor,
        rng=derive_seed(seed, "E5", n, "distributed"),
    )
    n_actual = workload.graph.num_vertices
    predicted = max(1.0, predicted_rounds_distributed(n_actual, workload.diameter))
    return [
        workload.name,
        n_actual,
        workload.diameter,
        result.total_rounds,
        result.rounds_breakdown.get("concurrent_bfs", 0),
        round(predicted, 1),
        round(result.total_rounds / predicted, 3),
        result.spanning_ok,
    ]


def plan_distributed_experiment(
    *,
    sizes: Sequence[int] = (60, 120, 240),
    diameter_value: int = 6,
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    known_diameter: bool = True,
    seed: int = 19,
) -> ExperimentPlan:
    """Plan E5: one cell per size."""
    tasks = [
        CellTask("E5", dict(kind=kind, n=n, diameter_value=diameter_value,
                            log_factor=log_factor, known_diameter=known_diameter,
                            seed=seed))
        for n in sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E5",
        title="Distributed construction rounds vs predicted k_D log^2 n (Section 2)",
        headers=[
            "workload", "n", "D", "rounds", "bfs_rounds", "predicted", "ratio", "spanning",
        ],
        notes=[
            f"kind={kind}, log_factor={log_factor}, known_diameter={known_diameter}, seed={seed}",
            "bfs_rounds = measured rounds of the concurrent random-delay BFS stage",
        ],
    )


def run_distributed_experiment(
    *,
    sizes: Sequence[int] = (60, 120, 240),
    diameter_value: int = 6,
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    known_diameter: bool = True,
    seed: int = 19,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E5: rounds of the CONGEST shortcut construction vs ``~O(k_D)``."""
    tasks, reduce = plan_distributed_experiment(
        sizes=sizes, diameter_value=diameter_value, kind=kind,
        log_factor=log_factor, known_diameter=known_diameter, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E6: MST
# ----------------------------------------------------------------------
def _mst_cell(
    *, kind: str, n: int, diameter_value: int, log_factor: float, seed: int
) -> list:
    """E6 cell: Boruvka with all three engines on one weighted workload."""
    weighted, diameter_actual = make_weighted_workload(
        kind, n, diameter_value, seed=derive_seed(seed, "E6", n, "workload")
    )
    _, kruskal_weight = kruskal_mst(weighted)

    kp_factory = default_shortcut_factory(
        diameter_value=diameter_actual, log_factor=log_factor,
        rng=derive_seed(seed, "E6", n, "kp"),
    )
    kp = boruvka_mst(
        weighted, shortcut_factory=kp_factory,
        rng=derive_seed(seed, "E6", n, "kp_quality"),
    )

    gh_rng = derive_rng(seed, "E6", n, "gh_build")

    def gh_factory(graph, partition):
        shortcut = build_ghaffari_haeupler_shortcut(graph, partition)
        quality = shortcut.quality_report(exact_dilation=False, rng=gh_rng)
        return shortcut, estimate_aggregation_rounds(quality, graph.num_vertices)

    gh = boruvka_mst(
        weighted, shortcut_factory=gh_factory,
        rng=derive_seed(seed, "E6", n, "gh_quality"),
    )

    naive_rng = derive_rng(seed, "E6", n, "naive_build")

    def naive_factory(graph, partition):
        shortcut = build_naive_shortcut(graph, partition)
        quality = shortcut.quality_report(exact_dilation=False, rng=naive_rng)
        return shortcut, estimate_aggregation_rounds(quality, graph.num_vertices)

    naive = boruvka_mst(
        weighted, shortcut_factory=naive_factory,
        rng=derive_seed(seed, "E6", n, "naive_quality"),
    )

    matches = (
        abs(kp.weight - kruskal_weight) < 1e-6
        and abs(gh.weight - kruskal_weight) < 1e-6
        and abs(naive.weight - kruskal_weight) < 1e-6
    )
    return [
        kind,
        weighted.num_vertices,
        diameter_actual,
        kp.total_rounds,
        gh.total_rounds,
        naive.total_rounds,
        kp.phases,
        matches,
    ]


def plan_mst_experiment(
    *,
    sizes: Sequence[int] = (100, 200, 400),
    diameter_value: int = 6,
    kind: str = "hub",
    log_factor: float = 0.25,
    seed: int = 23,
) -> ExperimentPlan:
    """Plan E6: one cell per size."""
    tasks = [
        CellTask("E6", dict(kind=kind, n=n, diameter_value=diameter_value,
                            log_factor=log_factor, seed=seed))
        for n in sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E6",
        title="MST rounds with different shortcut engines (Corollary 1.2)",
        headers=[
            "workload", "n", "D", "kp_rounds", "gh_rounds", "naive_rounds",
            "phases", "weight_matches_kruskal",
        ],
        notes=[f"kind={kind}, log_factor={log_factor}, seed={seed}"],
    )


def run_mst_experiment(
    *,
    sizes: Sequence[int] = (100, 200, 400),
    diameter_value: int = 6,
    kind: str = "hub",
    log_factor: float = 0.25,
    seed: int = 23,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E6: Boruvka-over-shortcuts MST — correctness and charged rounds per engine."""
    tasks, reduce = plan_mst_experiment(
        sizes=sizes, diameter_value=diameter_value, kind=kind,
        log_factor=log_factor, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E7: approximate min-cut
# ----------------------------------------------------------------------
def _mincut_cell(*, half: int, cut_k: int, log_factor: float, seed: int) -> list:
    """E7 cell: one planted-cut instance."""
    graph = planted_cut_graph(
        half, cut_k, rng=derive_seed(seed, "E7", half, cut_k, "graph")
    )
    exact_value, _ = stoer_wagner_min_cut(graph)
    factory = default_shortcut_factory(
        log_factor=log_factor, rng=derive_seed(seed, "E7", half, cut_k, "factory")
    )
    approx = approximate_min_cut(
        graph, epsilon=0.5, num_trees=4, shortcut_factory=factory,
        rng=derive_seed(seed, "E7", half, cut_k, "approx"),
    )
    ratio = approx.value / exact_value if exact_value else float("inf")
    return [
        graph.num_vertices,
        cut_k,
        exact_value,
        approx.value,
        round(ratio, 3),
        approx.num_trees,
        approx.total_rounds,
    ]


def plan_mincut_experiment(
    *,
    half_sizes: Sequence[int] = (30, 50),
    cut_edges: Sequence[int] = (3, 6),
    seed: int = 29,
    log_factor: float = 0.25,
) -> ExperimentPlan:
    """Plan E7: one cell per (half size, planted cut size)."""
    tasks = [
        CellTask("E7", dict(half=half, cut_k=k, log_factor=log_factor, seed=seed))
        for half in half_sizes
        for k in cut_edges
    ]
    return tasks, _rows_reducer(
        experiment_id="E7",
        title="Approximate min-cut vs exact (Corollary 1.2)",
        headers=[
            "n", "planted_cut", "exact", "approx", "ratio", "trees", "rounds",
        ],
        notes=[f"seed={seed}, log_factor={log_factor}"],
    )


def run_mincut_experiment(
    *,
    half_sizes: Sequence[int] = (30, 50),
    cut_edges: Sequence[int] = (3, 6),
    seed: int = 29,
    log_factor: float = 0.25,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E7: approximate min-cut value and rounds on planted-cut instances."""
    tasks, reduce = plan_mincut_experiment(
        half_sizes=half_sizes, cut_edges=cut_edges, seed=seed, log_factor=log_factor,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E8: SSSP and 2-ECSS
# ----------------------------------------------------------------------
def _applications_cell(
    *, kind: str, n: int, diameter_value: int, log_factor: float, seed: int
) -> list:
    """E8 cell: SSSP and 2-ECSS on one size point."""
    workload = make_workload(
        kind, n, diameter_value, seed=derive_seed(seed, "E8", n, "workload")
    )
    weighted = with_random_weights(
        workload.graph, rng=derive_seed(seed, "E8", n, "weights")
    )
    partition = workload.partition
    kp = build_kogan_parter_shortcut(
        weighted, partition, diameter_value=workload.diameter,
        log_factor=log_factor, rng=derive_seed(seed, "E8", n, "sample"),
    ).shortcut

    source = 0
    sssp = shortcut_accelerated_sssp(
        weighted, source, kp, max_phases=8,
        rng=derive_seed(seed, "E8", n, "sssp_quality"),
    )
    baseline = bellman_ford(weighted, source, max_hops=sssp.phases)
    exact = dijkstra(weighted, source)
    bf_stretch = 1.0
    for v, d_exact in exact.items():
        if d_exact == 0:
            continue
        d_apx = baseline.get(v, float("inf"))
        bf_stretch = max(bf_stretch, d_apx / d_exact if d_apx != float("inf") else float("inf"))

    # The 2-ECSS experiment needs a 2-edge-connected input (bridges of the
    # input can never be covered); the planted-cut family is
    # 2-edge-connected by construction whenever it has >= 2 crossing edges.
    ecss_graph = planted_cut_graph(
        max(10, n // 2), 4, rng=derive_seed(seed, "E8", n, "ecss_graph")
    )
    factory = default_shortcut_factory(
        log_factor=log_factor, rng=derive_seed(seed, "E8", n, "ecss_factory")
    )
    ecss = two_ecss_approximation(
        ecss_graph, shortcut_factory=factory,
        rng=derive_seed(seed, "E8", n, "ecss_quality"),
    )
    weight_ratio = ecss.weight / ecss.mst_weight if ecss.mst_weight else float("inf")

    return [
        weighted.num_vertices,
        workload.diameter,
        round(sssp.max_stretch, 3),
        sssp.phases,
        sssp.total_rounds,
        round(bf_stretch, 3) if bf_stretch != float("inf") else float("inf"),
        round(weight_ratio, 3),
        ecss.is_two_edge_connected,
        ecss.total_rounds,
    ]


def plan_applications_experiment(
    *,
    sizes: Sequence[int] = (100, 200),
    diameter_value: int = 6,
    kind: str = "hub",
    log_factor: float = 0.25,
    seed: int = 31,
) -> ExperimentPlan:
    """Plan E8: one cell per size."""
    tasks = [
        CellTask("E8", dict(kind=kind, n=n, diameter_value=diameter_value,
                            log_factor=log_factor, seed=seed))
        for n in sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E8",
        title="Shortcut-driven SSSP and 2-ECSS (Corollaries 4.2, 4.3)",
        headers=[
            "n", "D", "sssp_stretch", "sssp_phases", "sssp_rounds",
            "bf_baseline_stretch", "ecss_weight_ratio", "ecss_2ec", "ecss_rounds",
        ],
        notes=[
            f"kind={kind}, log_factor={log_factor}, seed={seed}",
            "bf_baseline_stretch = stretch of plain Bellman-Ford run for the same number of phases",
            "ecss_weight_ratio = 2-ECSS weight / MST weight (MST is a lower bound on OPT)",
        ],
    )


def run_applications_experiment(
    *,
    sizes: Sequence[int] = (100, 200),
    diameter_value: int = 6,
    kind: str = "hub",
    log_factor: float = 0.25,
    seed: int = 31,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E8: SSSP stretch/rounds and 2-ECSS weight/rounds over KP shortcuts."""
    tasks, reduce = plan_applications_experiment(
        sizes=sizes, diameter_value=diameter_value, kind=kind,
        log_factor=log_factor, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E9: shortcut trees / Lemma 3.3
# ----------------------------------------------------------------------
def _shortcut_tree_cell(
    *, n: int, diameter_value: int, path_length: int, trials: int,
    sampling_p: float, seed: int,
) -> Optional[list]:
    """E9 cell: all trials of one (size, sampling probability) point.

    The auxiliary tree is deterministic given ``n``; each trial draws from
    its own derived stream so any single trial can be reproduced alone.
    Returns ``None`` when the instance admits no usable path.
    """
    inst = _cached_lower_bound_instance(n, diameter_value)
    graph = inst.graph
    part = sorted(inst.parts[0])
    endpoints = (part[0], part[min(path_length, len(part) - 1)])
    path = shortest_path(graph, endpoints[0], endpoints[1])
    if path is None or len(path) < 3:
        return None
    ell = diameter_value // 2
    q_nodes = set(list(inst.tree_vertices)[: max(2, len(inst.tree_vertices) // 4)])
    tree = ShortcutTree(graph, path, q_nodes, ell=ell)
    n_actual = graph.num_vertices
    k_d = k_d_value(n_actual, diameter_value)
    lemma_p = min(1.0, k_d / max(n_actual / k_d, 1.0))
    budget = max(4.0, 4.0 * k_d * math.log(max(n_actual, 2)))
    top_layer = ell + 1
    successes = 0
    top_distances = []
    for t in range(trials):
        analysis = tree.analyze(
            probability=sampling_p,
            rng=derive_rng(seed, "E9", n, sampling_p, t),
            diameter_value=diameter_value,
        )
        reach = min(
            [analysis.distance_to_end]
            + list(analysis.distance_to_layer.values())
        )
        top = analysis.distance_to_layer.get(top_layer, float("inf"))
        top_distances.append(min(top, 10 * budget))
        if reach <= budget:
            successes += 1
    return [
        n_actual,
        diameter_value,
        ell,
        round(sampling_p, 3),
        round(lemma_p, 3),
        round(successes / trials, 3),
        round(statistics.mean(top_distances), 2),
        round(budget, 1),
    ]


def plan_shortcut_tree_experiment(
    *,
    sizes: Sequence[int] = (200, 400),
    diameter_value: int = 6,
    path_length: int = 12,
    trials: int = 20,
    probabilities: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.8),
    seed: int = 37,
) -> ExperimentPlan:
    """Plan E9: one cell per (size, sampling probability)."""
    tasks = [
        CellTask("E9", dict(n=n, diameter_value=diameter_value,
                            path_length=path_length, trials=trials,
                            sampling_p=sampling_p, seed=seed))
        for n in sizes
        for sampling_p in probabilities
    ]
    return tasks, _rows_reducer(
        experiment_id="E9",
        title="Shortcut trees: empirical success of Lemma 3.3 walk bounds",
        headers=[
            "n", "D", "ell", "sampling_p", "lemma_p", "success_rate",
            "mean_top_layer_dist", "budget",
        ],
        notes=[f"trials={trials}, seed={seed}"],
    )


def run_shortcut_tree_experiment(
    *,
    sizes: Sequence[int] = (200, 400),
    diameter_value: int = 6,
    path_length: int = 12,
    trials: int = 20,
    probabilities: Sequence[float] = (0.05, 0.1, 0.2, 0.4, 0.8),
    seed: int = 37,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E9: empirical (i, k)-walk reach in sampled shortcut trees (Lemma 3.3).

    For each instance a shortest path ``P`` inside one part and a target set
    ``Q`` (the connector core) define the auxiliary tree; the table sweeps
    the non-self-edge sampling probability and reports how often the start
    of the path reaches the path end or the top layer within the lemma's
    length budget, plus the mean distance to the top layer.  The lemma's
    threshold probability ``~k_D / N`` should show up as the point where the
    success rate saturates.
    """
    tasks, reduce = plan_shortcut_tree_experiment(
        sizes=sizes, diameter_value=diameter_value, path_length=path_length,
        trials=trials, probabilities=probabilities, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E10-E12: ablations
# ----------------------------------------------------------------------
def _distributed_mst_cell(
    *, n: int, diameter_value: int, log_factor: float, seed: int
) -> list:
    """E10 cell: shortcut vs induced-only distributed Boruvka at one size.

    Both lanes simulate every fragment, singletons included
    (``min_simulated_size=1``), so each phase pays for a tree per fragment.
    """
    from ..applications.shortcut_mst import shortcut_boruvka_mst

    inst = _cached_lower_bound_instance(n, diameter_value)
    weighted = with_random_weights(
        inst.graph, rng=derive_seed(seed, "E10", n, "weights")
    )
    with_sc = shortcut_boruvka_mst(
        weighted, engine="shortcut", diameter_value=diameter_value,
        log_factor=log_factor, min_simulated_size=1,
        rng=derive_seed(seed, "E10", n, "shortcut"),
    )
    without_sc = shortcut_boruvka_mst(
        weighted, engine="raw", min_simulated_size=1,
        rng=derive_seed(seed, "E10", n, "induced"),
    )
    _, kruskal_weight = kruskal_mst(weighted)
    weight_ok = (
        abs(with_sc.weight - kruskal_weight) < 1e-6
        and abs(without_sc.weight - kruskal_weight) < 1e-6
    )
    return [
        inst.graph.num_vertices,
        diameter_value,
        weight_ok,
        with_sc.phases,
        max(with_sc.rounds_per_phase, default=0),
        max(without_sc.rounds_per_phase, default=0),
        with_sc.total_rounds,
        without_sc.total_rounds,
    ]


def plan_distributed_mst_experiment(
    *,
    sizes: Sequence[int] = (80, 140),
    diameter_value: int = 6,
    log_factor: float = 0.3,
    seed: int = 41,
) -> ExperimentPlan:
    """Plan E10: one cell per size."""
    tasks = [
        CellTask("E10", dict(n=n, diameter_value=diameter_value,
                             log_factor=log_factor, seed=seed))
        for n in sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E10",
        title="Simulated distributed MST: shortcut vs induced-only fragment trees",
        headers=[
            "n", "D", "weight_ok", "phases",
            "max_phase_rounds_shortcut", "max_phase_rounds_induced",
            "total_rounds_shortcut", "total_rounds_induced",
        ],
        notes=[
            f"log_factor={log_factor}, seed={seed}; rounds columns are the "
            "simulated MWOE stages of shortcut_boruvka_mst with every "
            "fragment simulated (min_simulated_size=1)",
            "finding: with the consumers' default singleton folding, "
            "shortcut routing costs more rounds than raw fragment trees on "
            "these lower-bound instances (seed 41, max-phase rounds "
            "shortcut/raw: 34/23 at n=96, 49/33 at n=166, 150/138 at n=1063)",
        ],
    )


def run_distributed_mst_experiment(
    *,
    sizes: Sequence[int] = (80, 140),
    diameter_value: int = 6,
    log_factor: float = 0.3,
    seed: int = 41,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E10: simulated distributed Boruvka — shortcut-augmented vs induced-only trees.

    The MWOE stage of every Boruvka phase runs on the CONGEST simulator
    (:func:`~repro.applications.shortcut_mst.shortcut_boruvka_mst`, every
    fragment simulated); the table compares the maximum per-phase simulated
    rounds when the fragment trees are grown over Kogan-Parter augmented
    subgraphs (``engine="shortcut"``) against the no-shortcut baseline
    (``engine="raw"``), on lower-bound instances whose fragments become
    long paths.  At these sizes the shortcut lane does not win: it stays
    within a few rounds of the baseline when singletons are simulated, and
    falls further behind once they are folded (see the table notes).
    """
    tasks, reduce = plan_distributed_mst_experiment(
        sizes=sizes, diameter_value=diameter_value, log_factor=log_factor, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


def _repetition_cell(
    *, n: int, diameter_value: int, repetitions: int, log_factor: float,
    seed: int, trial: int,
) -> tuple:
    """E11 cell: one sampling trial at one repetition count."""
    inst = _cached_lower_bound_instance(n, diameter_value)
    partition = Partition(inst.graph, inst.parts, validate=False)
    result = build_kogan_parter_shortcut(
        inst.graph,
        partition,
        diameter_value=diameter_value,
        repetitions=repetitions,
        log_factor=log_factor,
        rng=derive_seed(seed, "E11", repetitions, trial, "sample"),
    )
    report = result.shortcut.quality_report(
        exact_dilation=False,
        rng=derive_seed(seed, "E11", repetitions, trial, "dilation"),
    )
    return (inst.graph.num_vertices, report.congestion, report.dilation)


def plan_repetition_ablation(
    *,
    n: int = 400,
    diameter_value: int = 6,
    repetition_choices: Sequence[int] = (1, 2, 3, 6, 12),
    log_factor: float = 0.25,
    trials: int = 5,
    seed: int = 43,
) -> ExperimentPlan:
    """Plan E11: one cell per (repetition count, trial)."""
    tasks = [
        CellTask("E11", dict(n=n, diameter_value=diameter_value, repetitions=reps,
                             log_factor=log_factor, seed=seed, trial=t))
        for reps in repetition_choices
        for t in range(trials)
    ]

    def reduce(results: list) -> ExperimentTable:
        table = ExperimentTable(
            experiment_id="E11",
            title="Ablation: number of sampling repetitions vs congestion and dilation",
            headers=["n", "D", "repetitions", "congestion", "dilation", "quality"],
            notes=[f"log_factor={log_factor}, trials={trials}, seed={seed}, workload=lower_bound"],
        )
        it = iter(results)
        for reps in repetition_choices:
            cells = [next(it) for _ in range(trials)]
            n_actual = cells[-1][0]
            congestion = statistics.mean(c[1] for c in cells)
            dilation = statistics.mean(c[2] for c in cells)
            table.add_row(
                n_actual,
                diameter_value,
                reps,
                round(congestion, 2),
                round(dilation, 2),
                round(congestion + dilation, 2),
            )
        return table

    return tasks, reduce


def run_repetition_ablation(
    *,
    n: int = 400,
    diameter_value: int = 6,
    repetition_choices: Sequence[int] = (1, 2, 3, 6, 12),
    log_factor: float = 0.25,
    trials: int = 5,
    seed: int = 43,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E11: ablation of the number of sampling repetitions (Step 3).

    The paper repeats the edge sampling D times; the recursion of the
    dilation argument consumes one repetition per level.  The ablation
    varies the repetition count while keeping the per-repetition probability
    fixed and reports the resulting congestion / dilation trade-off,
    averaged over ``trials`` independent samplings (a single sampling is
    noisy because the dilation is a maximum over parts).
    """
    tasks, reduce = plan_repetition_ablation(
        n=n, diameter_value=diameter_value, repetition_choices=repetition_choices,
        log_factor=log_factor, trials=trials, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


def _probability_cell(
    *, n: int, diameter_value: int, log_factor: float, seed: int
) -> list:
    """E12 cell: one sampling probability point."""
    inst = _cached_lower_bound_instance(n, diameter_value)
    partition = Partition(inst.graph, inst.parts, validate=False)
    result = build_kogan_parter_shortcut(
        inst.graph,
        partition,
        diameter_value=diameter_value,
        log_factor=log_factor,
        rng=derive_seed(seed, "E12", log_factor, "sample"),
    )
    report = result.shortcut.quality_report(
        exact_dilation=False,
        rng=derive_seed(seed, "E12", log_factor, "dilation"),
    )
    return [
        inst.graph.num_vertices,
        diameter_value,
        log_factor,
        round(result.parameters.probability, 4),
        report.congestion,
        report.dilation,
        report.quality,
    ]


def plan_probability_ablation(
    *,
    n: int = 400,
    diameter_value: int = 6,
    log_factors: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0),
    seed: int = 47,
) -> ExperimentPlan:
    """Plan E12: one cell per log_factor."""
    tasks = [
        CellTask("E12", dict(n=n, diameter_value=diameter_value,
                             log_factor=factor, seed=seed))
        for factor in log_factors
    ]
    return tasks, _rows_reducer(
        experiment_id="E12",
        title="Ablation: sampling probability vs congestion/dilation trade-off",
        headers=["n", "D", "log_factor", "probability", "congestion", "dilation", "quality"],
        notes=[f"seed={seed}, workload=lower_bound"],
    )


def run_probability_ablation(
    *,
    n: int = 400,
    diameter_value: int = 6,
    log_factors: Sequence[float] = (0.05, 0.1, 0.25, 0.5, 1.0),
    seed: int = 47,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E12: ablation of the sampling probability (via the log_factor knob).

    Larger probabilities lower the dilation and raise the congestion; the
    paper's choice p = k_D log n / N balances the two at ~k_D log n each.
    The table reports the measured trade-off, including the degenerate
    clamped regime (probability 1) where the construction coincides with the
    naive shortcut.
    """
    tasks, reduce = plan_probability_ablation(
        n=n, diameter_value=diameter_value, log_factors=log_factors, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E13: distributed construction at scale
# ----------------------------------------------------------------------
def _distributed_scale_cell(
    *, kind: str, n: int, diameter_value: int, log_factor: float,
    known_diameter: bool, seed: int,
) -> list:
    """E13 cell: one at-scale construction (wall time measured in-cell)."""
    workload = make_workload(
        kind, n, diameter_value, seed=derive_seed(seed, "E13", n, "workload")
    )
    # E13 measures wall time on purpose; the table declares ``wall_s`` in
    # ``nondeterministic_columns`` so determinism pins skip it.
    start = time.perf_counter()  # repro: noqa[RPR003] declared wall_s column
    result = build_distributed_kogan_parter(
        workload.graph,
        workload.partition,
        diameter_value=None if not known_diameter else workload.diameter,
        known_diameter=known_diameter,
        log_factor=log_factor,
        rng=derive_seed(seed, "E13", n, "distributed"),
    )
    wall = time.perf_counter() - start  # repro: noqa[RPR003] declared wall_s column
    bfs = result.bfs_metrics
    return [
        workload.name,
        workload.graph.num_vertices,
        workload.graph.num_edges,
        result.accepted_guess,
        len(result.attempted_guesses),
        result.probe_rounds,
        result.total_rounds,
        result.rounds_breakdown.get("concurrent_bfs", 0),
        bfs.messages_delivered if bfs is not None else 0,
        round(wall, 3),
        result.spanning_ok,
    ]


def plan_distributed_scale_experiment(
    *,
    sizes: Sequence[int] = (1_000, 3_000, 10_000),
    diameter_value: int = 6,
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    known_diameter: bool = False,
    seed: int = 53,
) -> ExperimentPlan:
    """Plan E13: one cell per size."""
    tasks = [
        CellTask("E13", dict(kind=kind, n=n, diameter_value=diameter_value,
                             log_factor=log_factor, known_diameter=known_diameter,
                             seed=seed))
        for n in sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E13",
        title="Distributed construction at scale (fully simulated CSR-mask pipeline)",
        headers=[
            "workload", "n", "m", "D_guess", "guesses", "probe_rounds",
            "rounds", "bfs_rounds", "bfs_messages", "wall_s", "spanning",
        ],
        notes=[
            f"kind={kind}, log_factor={log_factor}, known_diameter={known_diameter}, seed={seed}",
            "all rounds_breakdown stages are simulated; guesses = attempted diameter guesses "
            "(geometric doubling from the measured BFS 2-approximation)",
        ],
        nondeterministic_columns=["wall_s"],
    )


def run_distributed_scale_experiment(
    *,
    sizes: Sequence[int] = (1_000, 3_000, 10_000),
    diameter_value: int = 6,
    kind: str = "lower_bound",
    log_factor: float = 0.25,
    known_diameter: bool = False,
    seed: int = 53,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E13: the fully simulated distributed construction at 10k-node scale.

    Sweeps the CSR-mask pipeline (every stage of ``rounds_breakdown``
    measured, unknown-diameter guessing by default) over instance sizes the
    dict-of-sets driver could not reach interactively, reporting rounds,
    guesses, message volume of the round-dominant stage and wall time.
    """
    tasks, reduce = plan_distributed_scale_experiment(
        sizes=sizes, diameter_value=diameter_value, kind=kind,
        log_factor=log_factor, known_diameter=known_diameter, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E14: shortcut-routed vs raw part-tree aggregation
# ----------------------------------------------------------------------
def _aggregation_routing_cell(
    *, family: str, size: int, log_factor: float, seed: int
) -> list:
    """E14 cell: shortcut-routed vs raw aggregation on one workload."""
    from ..congest.primitives.aggregation import aggregate_over_shortcut
    from ..graphs.generators import broom_graph, caterpillar_graph

    if family == "broom":
        graph = broom_graph(size, max(1, size // 2), hub=True)
        parts = [set(range(size))]
        diameter_value = 4
    elif family == "caterpillar":
        graph = caterpillar_graph(size, 1, hub=True)
        parts = [set(range(size))]
        diameter_value = 4
    elif family == "lower_bound":
        inst = lower_bound_instance(size * 5, 6)
        graph = inst.graph
        parts = inst.parts
        diameter_value = inst.diameter
    else:
        raise ValueError(f"unknown E14 family {family!r}")
    partition = Partition(graph, parts, validate=False)
    shortcut = build_kogan_parter_shortcut(
        graph, partition, diameter_value=diameter_value,
        log_factor=log_factor, rng=derive_seed(seed, "E14", family, size, "sample"),
    ).shortcut
    raw = build_empty_shortcut(graph, partition)
    values = {v: v for v in partition.covered_vertices()}
    # Both routings draw their scheduler delays from the same derived seed,
    # so the comparison isolates the tree structure, not the delay draws.
    agg_seed = derive_seed(seed, "E14", family, size, "aggregate")
    routed = aggregate_over_shortcut(shortcut, values, "min", rng=agg_seed)
    bare = aggregate_over_shortcut(raw, values, "min", rng=agg_seed)
    return [
        family,
        graph.num_vertices,
        max(len(p) for p in parts),
        diameter_value,
        routed.rounds,
        bare.rounds,
        round(bare.rounds / max(routed.rounds, 1), 2),
        routed.values == bare.values,
    ]


def plan_aggregation_routing_experiment(
    *,
    part_sizes: Sequence[int] = (40, 80, 160),
    families: Sequence[str] = ("broom", "caterpillar", "lower_bound"),
    log_factor: float = 1.0,
    seed: int = 59,
) -> ExperimentPlan:
    """Plan E14: one cell per (family, part size)."""
    tasks = [
        CellTask("E14", dict(family=family, size=size, log_factor=log_factor, seed=seed))
        for family in families
        for size in part_sizes
    ]
    return tasks, _rows_reducer(
        experiment_id="E14",
        title="Part-wise aggregation rounds: shortcut-routed vs raw part trees",
        headers=[
            "family", "n", "part_size", "D", "rounds_shortcut", "rounds_raw",
            "speedup", "values_equal",
        ],
        notes=[
            f"log_factor={log_factor}, seed={seed}; rounds are the measured "
            "two-stage fleet (concurrent masked BFS + PartAggregation "
            "convergecast/broadcast), op=min over node ids",
        ],
    )


def run_aggregation_routing_experiment(
    *,
    part_sizes: Sequence[int] = (40, 80, 160),
    families: Sequence[str] = ("broom", "caterpillar", "lower_bound"),
    log_factor: float = 1.0,
    seed: int = 59,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E14: rounds of one part-wise aggregation, shortcut-routed vs raw trees.

    The quantity Theorem 1.1 is *for*: the same part-wise min aggregation
    (the MWOE/hooking step of every consumer phase) is executed twice on
    the CONGEST simulator — once over Kogan-Parter augmented part trees,
    once over the bare induced part trees — and the measured two-stage
    rounds are compared.  Workloads are the worst-case long-path parts: a
    broom handle and a caterpillar spine embedded in a constant-diameter
    hub host, and the Elkin/Das-Sarma lower-bound instance with its
    canonical path parts.
    """
    tasks, reduce = plan_aggregation_routing_experiment(
        part_sizes=part_sizes, families=families, log_factor=log_factor, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# E15: fault tolerance — surviving shortcuts and consumers under faults
# ----------------------------------------------------------------------
def _fault_tolerance_cell(
    *, family: str, size: int, drop_rate: float, crashes: int, seed: int
) -> list:
    """E15 cell: one (family, drop rate, crash count) fault workload.

    Three measurements per cell:

    * **surviving shortcut quality** — build the Kogan-Parter shortcut,
      then project the fault pattern onto it (every shortcut edge incident
      to a crash victim dies, every other edge survives a Bernoulli drop)
      and re-measure congestion/dilation of what survives;
    * **MST consumer** — :func:`~repro.applications.shortcut_mst.
      shortcut_boruvka_mst` with the same fault knobs, checked against
      Kruskal;
    * **components consumer** — :func:`~repro.applications.components.
      shortcut_connected_components` on a two-block disjoint union of the
      family, checked against the sequential traversal.

    Fault-degraded consumer runs (possible once ``crashes > 0``) surface
    as ``ok=False`` rows — the row the fault sweep is *about* — never as
    exceptions: a stalled stage's
    :class:`~repro.congest.network.PartialRunError` is caught and its
    partial metrics folded into the round count.
    """
    from ..applications.components import shortcut_connected_components
    from ..applications.shortcut_mst import shortcut_boruvka_mst
    from ..congest.network import PartialRunError
    from ..graphs.components import connected_components
    from ..graphs.generators import GENERATOR_FAMILIES, disjoint_union, make_family_graph
    from ..shortcuts.shortcut import Shortcut

    if family not in GENERATOR_FAMILIES:
        raise ValueError(f"unknown E15 family {family!r}")
    graph = make_family_graph(
        family, size, rng=derive_rng(seed, "E15", family, size, "graph")
    )
    n = graph.num_vertices

    # --- surviving-shortcut quality ---------------------------------
    num_parts = max(2, n // 16)
    parts = singleton_free(random_connected_partition(
        graph, num_parts, rng=derive_rng(seed, "E15", family, size, "parts"),
        cover_all=True,
    ))
    partition = Partition(graph, parts, validate=False)
    shortcut = build_kogan_parter_shortcut(
        graph, partition,
        rng=derive_rng(seed, "E15", family, size, "sample"),
    ).shortcut
    fault_rng = derive_rng(seed, "E15", family, size, "survive")
    victims = set(fault_rng.sample(range(n), crashes)) if crashes else set()
    edge_list = graph.csr().edge_list
    surviving_ids = []
    total_edges = 0
    lost_edges = 0
    for i in range(partition.num_parts):
        ids = shortcut.subgraph_edge_ids(i)
        total_edges += len(ids)
        kept = set()
        for eid in ids:
            u, v = edge_list[eid]
            if u in victims or v in victims:
                continue
            if drop_rate and fault_rng.random() < drop_rate:
                continue
            kept.add(eid)
        lost_edges += len(ids) - len(kept)
        surviving_ids.append(kept)
    survived = Shortcut.from_edge_ids(partition, surviving_ids)
    report = survived.quality_report(exact_dilation=False, rng=fault_rng)

    # --- MST consumer under live faults -----------------------------
    weighted = with_random_weights(
        graph, rng=derive_rng(seed, "E15", family, size, "weights")
    )
    _, kruskal_weight = kruskal_mst(weighted)
    try:
        mst = shortcut_boruvka_mst(
            weighted,
            rng=derive_rng(seed, "E15", family, size, "mst"),
            drop_rate=drop_rate, crashes=crashes,
            adversary_seed=derive_seed(seed, "E15", family, size, "mst-adv"),
            recover_after=16,
        )
        mst_rounds = mst.total_rounds
        mst_phases = mst.phases
        mst_ok = abs(mst.weight - kruskal_weight) < 1e-6
    except PartialRunError as stall:
        mst_rounds = stall.metrics.rounds if stall.metrics is not None else -1
        mst_phases = -1
        mst_ok = False

    # --- components consumer on a disconnected workload -------------
    half = max(4, size // 2)
    blocks = [
        make_family_graph(family, half,
                          rng=derive_rng(seed, "E15", family, size, "block", b))
        for b in range(2)
    ]
    comp_graph = disjoint_union(blocks)
    expected_labels = [0] * comp_graph.num_vertices
    comps = connected_components(comp_graph)
    for comp in comps:
        leader = min(comp)
        for v in comp:
            expected_labels[v] = leader
    try:
        comp = shortcut_connected_components(
            comp_graph,
            rng=derive_rng(seed, "E15", family, size, "components"),
            drop_rate=drop_rate, crashes=crashes,
            adversary_seed=derive_seed(seed, "E15", family, size, "comp-adv"),
            recover_after=16,
        )
        comp_rounds = comp.total_rounds
        comp_ok = (comp.labels == expected_labels
                   and comp.num_components == len(comps))
    except PartialRunError as stall:
        comp_rounds = stall.metrics.rounds if stall.metrics is not None else -1
        comp_ok = False

    return [
        family,
        n,
        drop_rate,
        crashes,
        total_edges,
        lost_edges,
        report.congestion,
        report.dilation,
        mst_rounds,
        mst_phases,
        mst_ok,
        comp_rounds,
        comp_ok,
    ]


def plan_fault_tolerance_experiment(
    *,
    families: Optional[Sequence[str]] = None,
    size: int = 96,
    drop_rates: Sequence[float] = (0.0, 0.05, 0.15),
    crash_counts: Sequence[int] = (0, 2),
    seed: int = 61,
) -> ExperimentPlan:
    """Plan E15: one cell per (family, drop rate, crash count)."""
    if families is None:
        from ..graphs.generators import GENERATOR_FAMILIES

        families = tuple(sorted(GENERATOR_FAMILIES))
    tasks = [
        CellTask("E15", dict(family=family, size=size, drop_rate=drop_rate,
                             crashes=crashes, seed=seed))
        for family in families
        for drop_rate in drop_rates
        for crashes in crash_counts
    ]
    return tasks, _rows_reducer(
        experiment_id="E15",
        title="Fault sweep: surviving shortcut quality and consumer rounds",
        headers=[
            "family", "n", "drop_rate", "crashes", "shortcut_edges",
            "edges_lost", "surv_congestion", "surv_dilation",
            "mst_rounds", "mst_phases", "mst_ok", "comp_rounds", "comp_ok",
        ],
        notes=[
            f"size={size}, seed={seed}; surviving quality projects the fault "
            "pattern onto the built shortcut (crash-incident edges die, the "
            "rest survive Bernoulli drops; dilation inf = a part got "
            "disconnected); consumer columns run the live fault stack "
            "(retry/ack protocols, per-phase adversaries, recover_after=16) "
            "and check exactness against the sequential oracles",
        ],
    )


def run_fault_tolerance_experiment(
    *,
    families: Optional[Sequence[str]] = None,
    size: int = 96,
    drop_rates: Sequence[float] = (0.0, 0.05, 0.15),
    crash_counts: Sequence[int] = (0, 2),
    seed: int = 61,
    workers: Optional[int] = None,
) -> ExperimentTable:
    """E15: what survives an adversarial CONGEST network.

    The robustness closing of the pipeline: every other experiment assumes
    fault-free delivery, and this one measures the same artifacts —
    shortcut quality and consumer rounds — as messages drop and nodes
    crash.  Zero-fault rows double as the identity pin (``mst_ok`` and
    ``comp_ok`` must hold there by the adversary-free oracle tests); at
    positive drop rates the ack/retry protocol stack keeps the consumers
    exact while the round counts expose the retransmission cost; crash
    rows show graceful degradation (lost aggregates retry next phase, and
    ``ok`` may honestly turn ``False``).
    """
    tasks, reduce = plan_fault_tolerance_experiment(
        families=families, size=size, drop_rates=drop_rates,
        crash_counts=crash_counts, seed=seed,
    )
    return reduce(run_cells(tasks, workers=workers))


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
#: All experiment runners, keyed by experiment id (used by the CLI example
#: and the benchmark suite).
EXPERIMENT_RUNNERS: dict[str, Callable[..., ExperimentTable]] = {
    "E1": run_quality_experiment,
    "E2": run_congestion_experiment,
    "E3": run_dilation_experiment,
    "E4": run_baseline_experiment,
    "E5": run_distributed_experiment,
    "E6": run_mst_experiment,
    "E7": run_mincut_experiment,
    "E8": run_applications_experiment,
    "E9": run_shortcut_tree_experiment,
    "E10": run_distributed_mst_experiment,
    "E11": run_repetition_ablation,
    "E12": run_probability_ablation,
    "E13": run_distributed_scale_experiment,
    "E14": run_aggregation_routing_experiment,
    "E15": run_fault_tolerance_experiment,
}

#: Planners produce the (cells, reducer) decomposition the parallel
#: executor shards; ``run_all_experiments`` uses them to run every
#: experiment's cells through one shared pool.
EXPERIMENT_PLANNERS: dict[str, Callable[..., ExperimentPlan]] = {
    "E1": plan_quality_experiment,
    "E2": plan_congestion_experiment,
    "E3": plan_dilation_experiment,
    "E4": plan_baseline_experiment,
    "E5": plan_distributed_experiment,
    "E6": plan_mst_experiment,
    "E7": plan_mincut_experiment,
    "E8": plan_applications_experiment,
    "E9": plan_shortcut_tree_experiment,
    "E10": plan_distributed_mst_experiment,
    "E11": plan_repetition_ablation,
    "E12": plan_probability_ablation,
    "E13": plan_distributed_scale_experiment,
    "E14": plan_aggregation_routing_experiment,
    "E15": plan_fault_tolerance_experiment,
}

#: Per-experiment cell runners — the functions worker processes execute.
#: Every entry is a module-level function whose kwargs are primitives, so a
#: :class:`CellTask` pickles cheaply and runs anywhere the package imports.
CELL_RUNNERS: dict[str, Callable[..., object]] = {
    "E1": _quality_cell,
    "E2": _congestion_cell,
    "E3": _dilation_cell,
    "E4": _baseline_cell,
    "E5": _distributed_cell,
    "E6": _mst_cell,
    "E7": _mincut_cell,
    "E8": _applications_cell,
    "E9": _shortcut_tree_cell,
    "E10": _distributed_mst_cell,
    "E11": _repetition_cell,
    "E12": _probability_cell,
    "E13": _distributed_scale_cell,
    "E14": _aggregation_routing_cell,
    "E15": _fault_tolerance_cell,
}


def experiment_id_order(ids: Sequence[str]) -> list[str]:
    """Sort experiment ids numerically (``E2`` before ``E10``).

    A plain ``sorted`` orders lexicographically — E1, E10, E11, ..., E2 —
    which is not "id order" for two-digit experiments.
    """
    return sorted(ids, key=lambda key: int(key.lstrip("E")))


def run_all_experiments(
    *, fast: bool = True, seed: int = 1, workers: Optional[int] = None
) -> list[ExperimentTable]:
    """Run every experiment with (optionally reduced) default parameters.

    All experiments' cells are flattened into one task list and executed
    through a single (optionally parallel) pass, then reduced back into
    per-experiment tables — so a multi-worker run shards the *whole* sweep,
    not one experiment at a time.

    Args:
        fast: use the smaller parameter sets intended for CI / quick runs.
        seed: base RNG seed.
        workers: worker processes for the cell executor (serial when
            ``None``/``0``/``1``; negative means all cores).  Tables are
            bit-identical for every worker count.

    Returns:
        One :class:`ExperimentTable` per experiment, in numeric id order
        (E1, E2, ..., E15).
    """
    if fast:
        overrides: dict[str, dict[str, object]] = {
            "E1": {"sizes": (150, 300), "diameters": (4, 6), "seed": seed},
            "E2": {"sizes": (150, 300), "seed": seed},
            "E3": {"sizes": (150, 300), "diameters": (4, 6), "seed": seed},
            "E4": {"sizes": (150, 300), "diameters": (4, 6), "seed": seed},
            "E5": {"sizes": (60, 120), "seed": seed},
            "E6": {"sizes": (80, 160), "seed": seed},
            "E7": {"half_sizes": (20,), "cut_edges": (3,), "seed": seed},
            "E8": {"sizes": (80,), "seed": seed},
            "E9": {"sizes": (150,), "trials": 10, "seed": seed},
            "E10": {"sizes": (80,), "seed": seed},
            "E11": {"n": 200, "seed": seed},
            "E12": {"n": 200, "seed": seed},
            "E13": {"sizes": (400,), "seed": seed},
            "E14": {"part_sizes": (30, 60), "seed": seed},
            "E15": {"families": ("torus", "hub"), "size": 48,
                    "drop_rates": (0.0, 0.05), "crash_counts": (0,),
                    "seed": seed},
        }
    else:
        # Full tier keeps each experiment's default parameter sets but still
        # honours the base seed (the fast branch overrides it above).
        overrides = {key: {"seed": seed} for key in EXPERIMENT_RUNNERS}
    plans: list[tuple[list[CellTask], Callable[[list], ExperimentTable]]] = []
    for key in experiment_id_order(EXPERIMENT_PLANNERS):
        planner = EXPERIMENT_PLANNERS[key]
        plans.append(planner(**overrides.get(key, {})))
    flat = [task for tasks, _ in plans for task in tasks]
    results = run_cells(flat, workers=workers)
    tables: list[ExperimentTable] = []
    position = 0
    for tasks, reduce in plans:
        tables.append(reduce(results[position:position + len(tasks)]))
        position += len(tasks)
    return tables
