"""Oracle tests and cost pins for the BoundingDiameters ``diameter``.

:func:`repro.graphs.traversal.diameter` runs Takes & Kosters'
BoundingDiameters instead of one BFS per vertex.  Two oracles pin its
answers: the all-sources eccentricity loop it replaced (kept here, and only
here, as the reference) and ``networkx``.  The cost pins count BFS runs by
wrapping the ``bfs_levels`` attribute the traversal module calls, so they
are deterministic and free of wall-clock assertions.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import (
    GENERATOR_FAMILIES,
    INFINITY,
    Graph,
    Subgraph,
    cycle_graph,
    diameter,
    disjoint_union,
    eccentricity,
    hub_diameter_graph,
    layered_diameter_graph,
    make_family_graph,
    max_component_diameter,
    path_graph,
    torus_graph,
    traversal,
)
from repro.graphs.components import connected_components
from repro.graphs.generators import _ensure_exact_diameter
from repro.shortcuts import Partition


def all_sources_diameter(graph, vertices=None, allowed=None) -> float:
    """Reference oracle: the exact eccentricity of every target vertex."""
    if vertices is None:
        is_sub = isinstance(graph, Subgraph)
        verts = set(graph.vertex_set if is_sub else graph.vertices())
    else:
        verts = set(vertices)
    if len(verts) <= 1:
        return 0.0
    worst = 0.0
    for v in verts:
        ecc = eccentricity(graph, v, allowed=allowed, targets=verts)
        if ecc == INFINITY:
            return INFINITY
        worst = max(worst, ecc)
    return worst


def networkx_diameter(graph, vertices=None) -> float:
    """Second oracle: ``networkx`` on the (optionally induced) graph."""
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.vertices() if vertices is None else vertices)
    nxg.add_edges_from(
        (u, v) for u, v in graph.edges() if u in nxg and v in nxg
    )
    if nxg.number_of_nodes() <= 1:
        return 0.0
    if not nx.is_connected(nxg):
        return INFINITY
    return float(nx.diameter(nxg))


def gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


@pytest.fixture
def bfs_counter(monkeypatch):
    """Count the BFS runs the traversal module makes (one per call)."""
    calls = [0]
    raw = traversal.bfs_levels

    def counted(*args, **kwargs):
        calls[0] += 1
        return raw(*args, **kwargs)

    monkeypatch.setattr(traversal, "bfs_levels", counted)
    return calls


@st.composite
def gnp_graphs(draw):
    n = draw(st.integers(0, 40))
    p = draw(st.floats(0.0, 0.35))
    return gnp(n, p, draw(st.integers(0, 10_000)))


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
class TestAgainstOracles:
    @given(gnp_graphs())
    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
    def test_random_gnp(self, g):
        got = diameter(g)
        assert got == all_sources_diameter(g)
        assert got == networkx_diameter(g)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_and_empty(self, n):
        assert diameter(Graph(n)) == (INFINITY if n == 2 else 0.0)
        assert diameter(path_graph(n)) == max(n - 1, 0)

    def test_isolated_vertex_is_disconnected(self):
        g = path_graph(5)
        g = disjoint_union([g, Graph(1)])
        assert diameter(g) == INFINITY
        assert diameter(g, vertices=range(5)) == 4

    @given(gnp_graphs(), st.integers(0, 10_000))
    @settings(max_examples=100, suppress_health_check=[HealthCheck.too_slow])
    def test_target_subsets(self, g, seed):
        rng = random.Random(seed)
        subset = {v for v in g.vertices() if rng.random() < 0.6}
        # Restricted traversal: the diameter of the induced subgraph.
        got = diameter(g, vertices=subset, allowed=subset)
        assert got == all_sources_diameter(g, subset, subset)
        assert got == networkx_diameter(g, subset)
        # Unrestricted traversal: distances through the whole graph.
        assert diameter(g, vertices=subset) == all_sources_diameter(g, subset)

    def test_allowed_superset_of_targets(self):
        # Paths may leave the target set but not the allowed set.
        g = cycle_graph(10)
        allowed = set(range(8))
        assert diameter(g, vertices={0, 7}, allowed=allowed) == 7
        assert diameter(g, vertices={0, 7}) == 3

    def test_target_outside_allowed_raises(self):
        with pytest.raises(ValueError, match="not in the allowed vertex set"):
            diameter(path_graph(4), vertices={0, 3}, allowed={0, 1, 2})

    def test_target_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            diameter(path_graph(4), vertices={0, 9})

    @given(gnp_graphs(), st.integers(0, 10_000))
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    def test_subgraph_inputs(self, g, seed):
        rng = random.Random(seed)
        edges = [e for e in g.edges() if rng.random() < 0.7]
        present = {v for v in g.vertices() if rng.random() < 0.3}
        sub = Subgraph(g.num_vertices, present, edges)
        got = diameter(sub)
        assert got == all_sources_diameter(sub)
        assert got == networkx_diameter(sub, sub.vertex_set)

    def test_induced_subgraph(self):
        g = cycle_graph(12)
        sub = g.induced_subgraph(range(9))
        assert diameter(sub) == 8 == all_sources_diameter(sub)


class TestGeneratorFamilies:
    @pytest.mark.parametrize("family", sorted(GENERATOR_FAMILIES))
    @pytest.mark.parametrize("n", [4, 17, 60, 120])
    def test_family(self, family, n):
        g = make_family_graph(family, n, rng=n)
        got = diameter(g)
        assert got == all_sources_diameter(g)
        assert got == networkx_diameter(g)

    @pytest.mark.parametrize("target", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("prob", [0.0, 0.05])
    def test_hub_and_layered_odd_and_even(self, target, prob):
        for g in (
            hub_diameter_graph(90, target, extra_edge_prob=prob, rng=target),
            layered_diameter_graph(90, target, extra_edge_prob=prob, rng=target),
        ):
            assert diameter(g) == target == all_sources_diameter(g)
            assert networkx_diameter(g) == target


# ----------------------------------------------------------------------
# callers: Partition.induced_diameter, max_component_diameter(exact=True)
# ----------------------------------------------------------------------
def _multi_component_union(seed: int) -> Graph:
    rng = random.Random(seed)
    blocks = [
        hub_diameter_graph(30, 4, extra_edge_prob=0.05, rng=seed),
        cycle_graph(9),
        path_graph(7),
        Graph(1),
        gnp(15, 0.25, seed),
    ]
    rng.shuffle(blocks)
    return disjoint_union(blocks)


class TestCallers:
    @pytest.mark.parametrize("seed", range(6))
    def test_max_component_diameter_exact(self, seed):
        g = _multi_component_union(seed)
        want = 0.0
        for component in connected_components(g):
            want = max(want, all_sources_diameter(g, component, set(component)))
        assert max_component_diameter(g, exact=True) == want
        # The double sweep stays a lower bound within a factor of two.
        approx = max_component_diameter(g, exact=False)
        assert want / 2 <= approx <= want

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_induced_diameter(self, seed):
        g = _multi_component_union(seed)
        rng = random.Random(seed)
        parts = []
        for component in connected_components(g):
            # A BFS-grown connected region of every component.
            order = sorted(component)
            start = rng.choice(order)
            size = rng.randint(1, len(order))
            region, frontier = {start}, [start]
            while frontier and len(region) < size:
                u = frontier.pop(0)
                for v in sorted(g.neighbors(u)):
                    if v not in region and len(region) < size:
                        region.add(v)
                        frontier.append(v)
            parts.append(region)
        partition = Partition(g, parts)
        for index, part in enumerate(parts):
            got = partition.induced_diameter(index)
            assert got == all_sources_diameter(g, part, part)
            assert got == networkx_diameter(g, part)

    def test_partition_part_across_components_is_infinite(self):
        g = disjoint_union([path_graph(3), path_graph(3)])
        partition = Partition(g, [{0, 1, 2, 3}], validate=False)
        assert partition.induced_diameter(0) == INFINITY


# ----------------------------------------------------------------------
# generator validation
# ----------------------------------------------------------------------
class TestEnsureExactDiameter:
    def test_accepts_exact_target(self):
        _ensure_exact_diameter(path_graph(5), 4, [0, 4])

    def test_disconnected(self):
        with pytest.raises(ValueError, match="disconnected"):
            _ensure_exact_diameter(Graph(4, [(0, 1), (2, 3)]), 1, [0, 1])

    def test_diameter_above_target(self):
        with pytest.raises(ValueError, match="diameter > 3"):
            _ensure_exact_diameter(path_graph(6), 3, [0, 3])

    def test_diameter_below_target(self):
        with pytest.raises(ValueError, match="diameter 3.0, wanted 5"):
            _ensure_exact_diameter(path_graph(4), 5, [0, 3])

    def test_witness_pair_must_achieve_target(self):
        with pytest.raises(ValueError, match="witnesses 0 and 2 are at distance 2"):
            _ensure_exact_diameter(path_graph(5), 4, [0, 2])


# ----------------------------------------------------------------------
# deterministic cost pins (BFS runs, no wall clock)
# ----------------------------------------------------------------------
class TestCost:
    def test_hub_validates_in_a_handful_of_bfs_runs(self, bfs_counter):
        hub_diameter_graph(20_000, 6, rng=1)
        assert 1 <= bfs_counter[0] <= 16

    def test_layered_validates_in_a_handful_of_bfs_runs(self, bfs_counter):
        layered_diameter_graph(20_000, 6, extra_edge_prob=0.0, rng=1)
        assert 1 <= bfs_counter[0] <= 16

    @given(gnp_graphs(), st.integers(0, 10_000))
    @settings(max_examples=80, suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    def test_never_more_bfs_than_targets(self, bfs_counter, g, seed):
        rng = random.Random(seed)
        subset = {v for v in g.vertices() if rng.random() < 0.5}
        for vertices in (None, subset):
            bfs_counter[0] = 0
            diameter(g, vertices=vertices, allowed=vertices)
            size = g.num_vertices if vertices is None else len(vertices)
            assert bfs_counter[0] <= size

    def test_torus_is_the_worst_case(self, bfs_counter):
        # Vertex-transitive: every eccentricity is equal, so no vertex is
        # pruned before it has been a BFS source.
        g = torus_graph(6, 7)
        assert diameter(g) == 3 + 3
        assert bfs_counter[0] == g.num_vertices
