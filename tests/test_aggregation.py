"""Unit tests for the part-wise aggregation primitive."""

from __future__ import annotations

import pytest

from repro.applications import estimate_aggregation_rounds, partwise_aggregate
from repro.congest.primitives.aggregation import aggregate_over_shortcut
from repro.graphs import cluster_star_graph, cycle_graph, grid_graph
from repro.shortcuts import Partition, Shortcut, build_kogan_parter_shortcut


@pytest.fixture
def cluster_setup():
    g = cluster_star_graph(5, 4, rng=1)
    parts = [set(range(1 + c * 4, 1 + (c + 1) * 4)) for c in range(5)]
    partition = Partition(g, parts)
    shortcut = Shortcut(partition, [[] for _ in parts])
    return g, partition, shortcut


class TestAnalyticAggregation:
    def test_min_per_part(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: float(v) for v in g.vertices()}
        result = partwise_aggregate(shortcut, values, op="min")
        for idx in range(partition.num_parts):
            assert result.values[idx] == float(min(partition.part(idx)))

    def test_max_per_part(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: float(v) for v in g.vertices()}
        result = partwise_aggregate(shortcut, values, op="max")
        for idx in range(partition.num_parts):
            assert result.values[idx] == float(max(partition.part(idx)))

    def test_sum_per_part(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: 1 for v in g.vertices()}
        result = partwise_aggregate(shortcut, values, op="sum")
        for idx in range(partition.num_parts):
            assert result.values[idx] == len(partition.part(idx))

    def test_missing_values_skipped(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {min(partition.part(0)): 5.0}
        result = partwise_aggregate(shortcut, values, op="min")
        assert result.values == {0: 5.0}

    def test_unsupported_op(self, cluster_setup):
        _, _, shortcut = cluster_setup
        with pytest.raises(ValueError):
            partwise_aggregate(shortcut, {}, op="median")

    def test_rounds_positive_and_scale_with_quality(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: 1 for v in g.vertices()}
        result = partwise_aggregate(shortcut, values, op="sum")
        assert result.rounds >= 1
        quality = shortcut.quality_report()
        assert result.rounds == estimate_aggregation_rounds(quality, g.num_vertices)


class TestEstimateRounds:
    def test_formula(self):
        g = cycle_graph(16)
        p = Partition(g, [set(range(8))])
        sc = Shortcut(p, [[]])
        q = sc.quality_report()
        rounds = estimate_aggregation_rounds(q, 16)
        assert rounds == int(q.congestion + q.dilation * 4)

    def test_infinite_dilation_charged_as_n(self):
        from repro.shortcuts import QualityReport

        q = QualityReport(
            congestion=2, dilation=float("inf"), num_parts=1,
            num_shortcut_edges=0, max_part_shortcut_edges=0,
        )
        assert estimate_aggregation_rounds(q, 32) == 2 + 32 * 5


class TestSimulatedAggregation:
    """The CONGEST runtime reproduces the analytic oracle's values."""

    def test_simulated_matches_analytic_on_clusters(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: float(v) for v in g.vertices()}
        analytic = partwise_aggregate(shortcut, values, op="min")
        simulated = aggregate_over_shortcut(shortcut, values, "min", rng=3)
        assert simulated.simulated_parts == list(range(partition.num_parts))
        assert simulated.values == analytic.values
        assert simulated.rounds > 0

    def test_simulated_with_kp_shortcut(self):
        g = grid_graph(6, 6)
        from repro.graphs import grid_strip_partition

        parts = grid_strip_partition(6, 6, strip_height=2)
        partition = Partition(g, parts)
        kp = build_kogan_parter_shortcut(g, partition, diameter_value=10, log_factor=0.3, rng=1)
        values = {v: float(v % 7) for v in g.vertices()}
        analytic = partwise_aggregate(kp.shortcut, values, op="min")
        simulated = aggregate_over_shortcut(kp.shortcut, values, "min", rng=5)
        assert simulated.values == analytic.values

    def test_simulated_sum(self, cluster_setup):
        g, partition, shortcut = cluster_setup
        values = {v: 2 for v in g.vertices()}
        simulated = aggregate_over_shortcut(shortcut, values, "sum", rng=7)
        for idx in range(partition.num_parts):
            assert simulated.values[idx] == 2 * len(partition.part(idx))
