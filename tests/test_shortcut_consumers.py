"""Oracle equivalence for the shortcut-consumer applications.

The acceptance contract of the applications layer: the fully simulated
Boruvka MST reproduces the Kruskal oracle (weight *and* edge set) on every
generator family and both routing engines, and the hooking
connected-components consumer reproduces the sequential traversal labels.
"""

from __future__ import annotations

import pytest

from repro.applications.components import shortcut_connected_components
from repro.applications.mst import kruskal_mst
from repro.applications.shortcut_mst import (
    CONSUMER_ENGINES,
    shortcut_boruvka_mst,
)
from repro.graphs.components import connected_components
from repro.graphs.generators import (
    GENERATOR_FAMILIES,
    cycle_graph,
    disjoint_union,
    grid_graph,
    make_family_graph,
    with_random_weights,
)
from repro.graphs.graph import Graph
from repro.graphs.lower_bound import lower_bound_instance


#: Fixed MST inputs beside the generator families: a grid and a cycle.
_EXTRA_MST_INPUTS = {
    "grid5x5": lambda: with_random_weights(grid_graph(5, 5), rng=1),
    "cycle20": lambda: with_random_weights(cycle_graph(20), rng=6),
}


def _mst_input(name):
    if name in _EXTRA_MST_INPUTS:
        return _EXTRA_MST_INPUTS[name]()
    return with_random_weights(make_family_graph(name, 70, rng=4), rng=11)


def _components_of_labels(labels):
    by_label: dict[int, set[int]] = {}
    for v, label in enumerate(labels):
        by_label.setdefault(label, set()).add(v)
    return sorted(by_label.values(), key=min)


class TestShortcutMSTOracle:
    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES) + sorted(_EXTRA_MST_INPUTS))
    @pytest.mark.parametrize("engine", CONSUMER_ENGINES)
    def test_every_family_matches_kruskal(self, family, engine):
        weighted = _mst_input(family)
        result = shortcut_boruvka_mst(weighted, engine=engine, rng=2)
        kruskal_edges, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9
        assert result.edges == sorted(kruskal_edges)
        assert len(result.edges) == weighted.num_vertices - 1
        assert result.engine == engine
        assert result.phases == len(result.rounds_per_phase)
        assert result.total_rounds == sum(result.rounds_per_phase)
        assert all(r > 0 for r in result.rounds_per_phase)

    def test_lower_bound_instance(self):
        inst = lower_bound_instance(200, 6)
        weighted = with_random_weights(inst.graph, rng=5)
        result = shortcut_boruvka_mst(weighted, engine="shortcut",
                                      diameter_value=inst.diameter, rng=3)
        _, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9

    def test_shortcuts_help_on_long_fragment_instances(self):
        """On the lower-bound topology fragments quickly become long paths.
        With every fragment simulated, the shortcut-routed MWOE stage costs
        at most a few rounds more per phase than raw fragment trees."""
        inst = lower_bound_instance(120, 6)
        weighted = with_random_weights(inst.graph, rng=10)
        with_sc = shortcut_boruvka_mst(
            weighted, engine="shortcut", diameter_value=6, log_factor=0.3,
            min_simulated_size=1, rng=11,
        )
        without_sc = shortcut_boruvka_mst(
            weighted, engine="raw", min_simulated_size=1, rng=12,
        )
        assert with_sc.weight == pytest.approx(without_sc.weight)
        assert max(with_sc.rounds_per_phase) <= max(without_sc.rounds_per_phase) + 5

    def test_spanning_forest_on_disconnected_graph(self):
        blocks = [make_family_graph("torus", 40, rng=1),
                  make_family_graph("expander", 40, rng=2)]
        weighted = with_random_weights(disjoint_union(blocks), rng=7)
        result = shortcut_boruvka_mst(weighted, engine="shortcut", rng=1)
        kruskal_edges, kruskal_weight = kruskal_mst(weighted)
        assert abs(result.weight - kruskal_weight) < 1e-9
        assert result.edges == sorted(kruskal_edges)
        assert len(result.edges) == weighted.num_vertices - 2

    def test_determinism(self):
        weighted = with_random_weights(make_family_graph("hub", 90, rng=3), rng=9)
        a = shortcut_boruvka_mst(weighted, engine="shortcut", rng=6)
        b = shortcut_boruvka_mst(weighted, engine="shortcut", rng=6)
        assert a.edges == b.edges
        assert a.rounds_per_phase == b.rounds_per_phase

    def test_phase_rounds_are_simulated(self):
        weighted = with_random_weights(make_family_graph("torus", 80, rng=2), rng=3)
        result = shortcut_boruvka_mst(weighted, engine="shortcut", rng=4)
        # Later phases have multi-node fragments, hence real simulation.
        assert result.phases >= 2
        assert any(r > 1 for r in result.rounds_per_phase)
        assert result.messages > 0
        assert len(result.bfs_rounds_per_phase) == result.phases
        assert len(result.aggregation_rounds_per_phase) == result.phases

    def test_unknown_engine_rejected(self):
        weighted = with_random_weights(make_family_graph("hub", 40, rng=1), rng=1)
        with pytest.raises(ValueError):
            shortcut_boruvka_mst(weighted, engine="warp")

    def test_empty_graph(self):
        from repro.graphs.graph import WeightedGraph

        result = shortcut_boruvka_mst(WeightedGraph(0))
        assert result.edges == [] and result.weight == 0.0


class TestComponentsOracle:
    @pytest.mark.parametrize("engine", CONSUMER_ENGINES)
    def test_disconnected_pieces_match_traversal(self, engine):
        blocks = [make_family_graph("torus", 50, rng=i) for i in range(3)]
        graph = disjoint_union(blocks)
        result = shortcut_connected_components(graph, engine=engine, rng=3)
        assert _components_of_labels(result.labels) == connected_components(graph)
        assert result.num_components == 3

    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    def test_connected_family_single_component(self, family):
        graph = make_family_graph(family, 60, rng=8)
        result = shortcut_connected_components(graph, engine="shortcut", rng=5)
        assert result.num_components == 1
        assert set(result.labels) == {0}
        assert _components_of_labels(result.labels) == connected_components(graph)

    def test_isolated_vertices_and_mixed_sizes(self):
        graph = Graph(12)
        for u, v in [(0, 1), (1, 2), (2, 0), (4, 5), (7, 8), (8, 9), (9, 10)]:
            graph.add_edge(u, v)
        for engine in CONSUMER_ENGINES:
            result = shortcut_connected_components(graph, engine=engine, rng=2)
            assert _components_of_labels(result.labels) == connected_components(graph)
            assert result.num_components == 6  # {0,1,2},{3},{4,5},{6},{7..10},{11}

    def test_edgeless_graph(self):
        graph = Graph(5)
        result = shortcut_connected_components(graph, rng=1)
        assert result.labels == list(range(5))
        assert result.num_components == 5
        assert result.total_rounds == 0

    def test_multi_phase_hooking_simulates_aggregations(self):
        graph = make_family_graph("torus", 100, rng=6)
        result = shortcut_connected_components(graph, engine="shortcut", rng=6)
        assert result.phases >= 2
        assert any(r > 1 for r in result.rounds_per_phase)
        assert result.messages > 0

    def test_determinism(self):
        graph = disjoint_union([make_family_graph("expander", 40, rng=i)
                                 for i in range(2)])
        a = shortcut_connected_components(graph, rng=9)
        b = shortcut_connected_components(graph, rng=9)
        assert a.labels == b.labels
        assert a.rounds_per_phase == b.rounds_per_phase

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            shortcut_connected_components(Graph(3), engine="warp")
