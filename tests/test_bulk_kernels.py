"""Bulk-kernel equivalence oracle: the vectorized round kernels are pinned
bit-identical to the per-node engine.

Every test runs the same algorithm twice — once with ``bulk_capable``
forced off (the authoritative per-node path) and once with it on — and
compares the *full* observable surface: round count, messages sent and
delivered, max link backlog, per-edge traffic (including multicast-folded
sends), termination flag, node state, and the algorithm's own outputs.
The sweep covers all six generator families for each ported primitive,
plus the boundary behaviours: ``max_rounds`` cutoffs composed with
``reset=False`` (spilled in-flight traffic must be delivered identically
by a follow-up run), resumed algorithm objects, and the warn-once
fallback for configurations no kernel models (retry mode, adversarial
runs).  The aggregation kernel's silent decline rule (only ``min``/``max``
over exactly ranked values on a fresh object) is pinned directly on
``PartAggregationKernel.build``, and both shortcut consumers must keep
engaging the kernel.
"""

import random
import warnings

import numpy as np
import pytest

from repro.applications.components import shortcut_connected_components
from repro.applications.shortcut_mst import NO_CANDIDATE, shortcut_boruvka_mst
from repro.congest.bulk import PartAggregationKernel
from repro.congest.network import BulkFallbackWarning, Network
from repro.congest.adversary import RetryPolicy, make_fault_adversary
from repro.congest.primitives.aggregation import (
    PartAggregation,
    draw_random_delays,
    run_part_aggregation,
)
from repro.congest.primitives.bfs import DistributedBFS
from repro.congest.primitives.concurrent_bfs import ConcurrentMaskedBFS
from repro.congest.primitives.leader import FloodMax, read_leaders
from repro.graphs.csr import CSRLinkMask
from repro.graphs.generators import (
    GENERATOR_FAMILIES,
    disjoint_union,
    hub_diameter_graph,
    path_graph,
    with_random_weights,
)
from repro.graphs.lower_bound import lower_bound_instance

FAMILIES = sorted(GENERATOR_FAMILIES)

#: Classes whose ``bulk_capable`` flag the oracle toggles.
BULK_CLASSES = (FloodMax, DistributedBFS, ConcurrentMaskedBFS, PartAggregation)


@pytest.fixture
def bulk_toggle(monkeypatch):
    def set_bulk(enabled: bool) -> None:
        for cls in BULK_CLASSES:
            monkeypatch.setattr(cls, "bulk_capable", enabled)

    return set_bulk


def metrics_tuple(m):
    return (m.rounds, m.messages_sent, m.messages_delivered,
            m.max_link_backlog, m.terminated, dict(m.per_edge_messages))


def node_states(net):
    # Double-underscore entries (e.g. the per-node path's ``<prefix>__allowed``
    # adjacency memo) are engine-internal caches, not algorithm state.
    return {
        v: {k: s for k, s in ctx.state.items() if "__" not in k}
        for v, ctx in enumerate(net._node_list)
    }


def family_graph(family, n=36, seed=5):
    return GENERATOR_FAMILIES[family](n, random.Random(seed))


def label_masks(g, num_parts=4, seed=5):
    """A random vertex partition's intra-part link masks + roots + values."""
    rng = random.Random(seed)
    csr = g.csr()
    lab = np.asarray(
        [rng.randrange(num_parts) for _ in range(g.num_vertices)],
        dtype=np.int64,
    )
    masks = [
        CSRLinkMask(csr, np.asarray(
            [lab[u] == k and lab[v] == k for (u, v) in csr.edge_list],
            dtype=bool,
        ))
        for k in range(num_parts)
    ]
    roots = [
        int(np.flatnonzero(lab == k)[0]) if (lab == k).any() else 0
        for k in range(num_parts)
    ]
    values = [
        {v: 7 * v + k for v in np.flatnonzero(lab == k).tolist()}
        for k in range(num_parts)
    ]
    return masks, roots, values


def fleet_labels(fleet, num):
    out = []
    for i in range(num):
        row = []
        for container in (fleet.dist[i], fleet.parent[i], fleet.root[i]):
            if isinstance(container, list):
                row.append(tuple(container))
            else:
                row.append(tuple(sorted(
                    (k, v) for k, v in container.items() if v != -1
                )))
        out.append(tuple(row))
    return out


# ----------------------------------------------------------------------
# per-primitive equivalence across all six generator families
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", FAMILIES)
def test_floodmax_bulk_matches_per_node(family, bulk_toggle):
    def once(enabled):
        bulk_toggle(enabled)
        net = Network(family_graph(family))
        algo = FloodMax()
        m = net.run(algo)
        return metrics_tuple(m), node_states(net), read_leaders(net)

    assert once(True) == once(False)


@pytest.mark.parametrize("family", FAMILIES)
def test_bfs_bulk_matches_per_node(family, bulk_toggle):
    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph(family)
        net = Network(g)
        algo = DistributedBFS({0, g.num_vertices // 2})
        m = net.run(algo)
        return metrics_tuple(m), node_states(net)

    assert once(True) == once(False)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sparse", [True, False])
def test_fleet_bulk_matches_per_node(family, sparse, bulk_toggle):
    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph(family)
        masks, roots, _ = label_masks(g)
        net = Network(g)
        fleet = ConcurrentMaskedBFS(
            roots, masks, [1, 0, 2, 0], g.num_vertices,
            [f"pa{i}_" for i in range(4)], g.num_vertices,
            suppress_parent_echo=True, sparse_labels=sparse,
        )
        m = net.run(fleet, reset=False, max_rounds=200_000)
        return metrics_tuple(m), fleet_labels(fleet, 4)

    assert once(True) == once(False)


@pytest.mark.parametrize("family", FAMILIES)
# ``sum`` is declined by the kernel's build, so it pins the silent per-node
# fallback; ``min``/``max`` engage the ranked value plane.
@pytest.mark.parametrize("op,broadcast", [("sum", True), ("min", False), ("max", True)])
def test_aggregation_pipeline_bulk_matches_per_node(
    family, op, broadcast, bulk_toggle
):
    def once(enabled):
        bulk_toggle(enabled)
        g = family_graph(family)
        masks, roots, values = label_masks(g)
        net = Network(g)
        res = run_part_aggregation(
            net, roots, masks, values, op, rng=random.Random(3),
            broadcast_result=broadcast,
        )
        return (res.rounds, res.messages, res.results,
                [dict(sorted(d.items())) for d in res.delivered])

    assert once(True) == once(False)


# ----------------------------------------------------------------------
# boundary behaviour: cutoffs, reset=False composition, resumed objects
# ----------------------------------------------------------------------
def _two_stage(family, enabled, max_rounds, bulk_toggle, seed=7):
    """Fleet + aggregation on one network, both stages under ``max_rounds``.

    A cutoff mid-flight forces the kernel's spill path: undelivered bulk
    traffic must land in the per-node queues so the next ``reset=False``
    stage (which then declines bulk on the dirty network) delivers it
    identically to a pure per-node composition.
    """
    bulk_toggle(enabled)
    g = family_graph(family)
    masks, roots, values = label_masks(g)
    rng = random.Random(seed)
    net = Network(g)
    fleet = ConcurrentMaskedBFS(
        roots, masks, draw_random_delays(4, 2, rng), g.num_vertices,
        [f"pa{i}_" for i in range(4)], g.num_vertices,
        suppress_parent_echo=True, sparse_labels=True,
    )
    m1 = net.run(fleet, reset=False, max_rounds=max_rounds,
                 raise_on_limit=False)
    agg = PartAggregation(
        masks, fleet.parent, values, "min",
        delays=draw_random_delays(4, 2, rng),
    )
    m2 = net.run(agg, reset=False, max_rounds=max_rounds,
                 raise_on_limit=False)
    # Resume the same (possibly cut off) algorithm objects to completion:
    # bulk state handed back by the kernels must compose with the per-node
    # continuation exactly.
    m3 = net.run(agg, reset=False, max_rounds=200_000, raise_on_limit=False)
    return (
        [metrics_tuple(m) for m in (m1, m2, m3)],
        fleet_labels(fleet, 4),
        list(agg.results),
        [dict(sorted(d.items())) for d in agg.delivered],
        node_states(net),
    )


@pytest.mark.parametrize("family", ["expander", "caterpillar"])
@pytest.mark.parametrize("max_rounds", [200_000, 9, 4, 1, 0])
def test_cutoff_and_resume_composition(family, max_rounds, bulk_toggle):
    bulk = _two_stage(family, True, max_rounds, bulk_toggle)
    node = _two_stage(family, False, max_rounds, bulk_toggle)
    assert bulk == node


def test_multicast_folded_per_edge_messages(bulk_toggle):
    """The ANN phase multicasts one payload over a node's whole mask slice;
    the bulk kernel must still charge every directed link individually.
    ``min`` runs the kernel; ``sum`` pins the declined per-node fallback."""

    def once(enabled, op):
        bulk_toggle(enabled)
        g = family_graph("torus")
        masks, roots, values = label_masks(g)
        net = Network(g)
        rng = random.Random(11)
        fleet = ConcurrentMaskedBFS(
            roots, masks, draw_random_delays(4, 2, rng), g.num_vertices,
            [f"pa{i}_" for i in range(4)], g.num_vertices,
            suppress_parent_echo=True, sparse_labels=True,
        )
        net.run(fleet, reset=False, max_rounds=200_000)
        agg = PartAggregation(
            masks, fleet.parent, values, op,
            delays=draw_random_delays(4, 2, rng),
        )
        m = net.run(agg, reset=False, max_rounds=200_000)
        return dict(m.per_edge_messages), m.messages_delivered

    for op in ("sum", "min"):
        per_edge_bulk, delivered_bulk = once(True, op)
        per_edge_node, delivered_node = once(False, op)
        assert per_edge_bulk == per_edge_node
        assert delivered_bulk == delivered_node
        # The folded multicast really fans out: total per-edge traffic
        # accounts for every delivery, not one count per multicast call.
        assert sum(per_edge_bulk.values()) == delivered_bulk


# ----------------------------------------------------------------------
# aggregation value plane: which configurations the kernel takes
# ----------------------------------------------------------------------
#: Values that compare equal but are not interchangeable.  One rank would
#: stand for whichever came first, so the kernel must decline them and the
#: per-node fold decides the result's type and sign.
EQUAL_BUT_DISTINCT = [{2: 1, 0: 1.0}, {1: True, 0: 1}, {2: 0.0, 0: -0.0}]

#: (op, values, identity) configurations the kernel must take: ints,
#: floats and MWOE-style ``(weight, u, v)`` tuples under ``min`` and ``max``.
ENGAGED = [
    ("min", {0: 3, 1: 1, 2: 2}, None),
    ("max", {0: 3, 1: 1, 2: 2}, None),
    ("min", {0: 2.5, 2: -1.0}, None),
    ("max", {0: 2.5, 2: -1.0}, None),
    ("min", {0: (2.0, 0, 1), 1: NO_CANDIDATE, 2: (1.5, 1, 2)}, NO_CANDIDATE),
    ("min", {}, NO_CANDIDATE),
    ("max", {0: (2.0, 0, 1), 2: (1.5, 1, 2)}, (float("-inf"), -1, -1)),
]

#: (op, values, identity) configurations the kernel must decline.
DECLINED = [
    ("sum", {0: 3, 1: 1, 2: 2}, None),
    ("count", {0: 1, 1: 1, 2: 1}, None),
    ("min", {0: frozenset({1}), 1: frozenset({2})}, frozenset({1, 2})),
    ("min", {0: float("nan"), 1: 1.0}, None),
    ("max", {0: 1, 1: "a"}, None),
] + [("min", values, None) for values in EQUAL_BUT_DISTINCT]


def _path_mask(g):
    return CSRLinkMask(g.csr(), np.ones(g.csr().num_edges, dtype=bool))


def _path_aggregation(op, values, identity):
    """One instance over the whole path 0-1-2, rooted at 0."""
    g = path_graph(3)
    agg = PartAggregation([_path_mask(g)], [[0, 0, 1]], [values], op,
                          identity=identity)
    return Network(g), agg


@pytest.mark.parametrize("op,values,identity", ENGAGED, ids=repr)
def test_aggregation_kernel_engages(op, values, identity):
    net, agg = _path_aggregation(op, values, identity)
    assert PartAggregationKernel.build(agg, net) is not None


@pytest.mark.parametrize("op,values,identity", DECLINED, ids=repr)
def test_aggregation_kernel_declines(op, values, identity):
    net, agg = _path_aggregation(op, values, identity)
    assert PartAggregationKernel.build(agg, net) is None


def test_aggregation_kernel_declines_resumed_object():
    net, agg = _path_aggregation("min", {0: 3, 1: 1, 2: 2}, None)
    net.run(agg)
    assert agg.results == [1]
    # A completed object re-run with reset=False carries per-node state.
    assert PartAggregationKernel.build(agg, net) is None


@pytest.mark.parametrize(
    "op,values,identity",
    [("min", values, None) for values in EQUAL_BUT_DISTINCT] + ENGAGED,
    ids=repr,
)
def test_aggregation_values_bulk_matches_per_node_by_repr(
    op, values, identity, bulk_toggle
):
    """Results and receipts keep the per-node fold's exact values:
    ``repr`` tells ``1`` from ``1.0`` and ``True``, and ``0.0`` from
    ``-0.0``, where ``==`` does not."""

    def once(enabled):
        bulk_toggle(enabled)
        g = path_graph(3)
        res = run_part_aggregation(
            Network(g), [0], [_path_mask(g)], [values], op,
            identity=identity, rng=random.Random(1),
        )
        return res.rounds, res.messages, repr(res.results), repr(res.delivered)

    assert once(True) == once(False)


def _hub_components():
    g = disjoint_union([
        hub_diameter_graph(40, 6, extra_edge_prob=0.05, rng=b) for b in range(2)
    ])
    return shortcut_connected_components(g, rng=1)


def _lower_bound_mst():
    g = with_random_weights(lower_bound_instance(60, 6).graph, rng=1)
    return shortcut_boruvka_mst(g, rng=1)


@pytest.mark.parametrize("consumer", [_lower_bound_mst, _hub_components],
                         ids=["mst_lower_bound", "components_hub"])
def test_consumers_build_aggregation_kernels(consumer, monkeypatch):
    """A rank rule that pushed a production consumer onto the per-node
    path would only show as lost speed; pin that the kernel engages."""
    built = []
    build = PartAggregationKernel.build.__func__

    def counting_build(cls, algorithm, network):
        kernel = build(cls, algorithm, network)
        built.append(kernel is not None)
        return kernel

    monkeypatch.setattr(PartAggregationKernel, "build", classmethod(counting_build))
    consumer()
    assert sum(built) >= 1


# ----------------------------------------------------------------------
# fallback observability: declined configurations warn once per network
# ----------------------------------------------------------------------
def _retry_aggregation(g, masks, roots, values):
    rng = random.Random(3)
    net = Network(g)
    fleet = ConcurrentMaskedBFS(
        roots, masks, draw_random_delays(4, 2, rng), g.num_vertices,
        [f"pa{i}_" for i in range(4)], g.num_vertices,
        suppress_parent_echo=True, sparse_labels=True,
    )
    net.run(fleet, reset=False, max_rounds=200_000)
    agg = PartAggregation(
        masks, fleet.parent, values, "min",
        delays=draw_random_delays(4, 2, rng), retry=RetryPolicy(),
    )
    return net, agg


def test_retry_config_warns_once_per_network(bulk_toggle):
    bulk_toggle(True)
    g = family_graph("hub")
    masks, roots, values = label_masks(g)
    net, agg = _retry_aggregation(g, masks, roots, values)
    with pytest.warns(BulkFallbackWarning, match="retry") as record:
        net.run(agg, reset=False, max_rounds=200_000)
    # The warning points at the caller of Network.run, not engine internals.
    assert record.pop(BulkFallbackWarning).filename == __file__
    # Same network, same reason: the fallback stays silent the second time.
    _, agg2 = _retry_aggregation(g, masks, roots, values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BulkFallbackWarning)
        net.run(agg2, reset=False, max_rounds=200_000)
    # A fresh network warns again — the de-duplication is per network, not
    # per process.
    net3, agg3 = _retry_aggregation(g, masks, roots, values)
    with pytest.warns(BulkFallbackWarning, match="retry"):
        net3.run(agg3, reset=False, max_rounds=200_000)


def test_adversarial_run_warns_and_matches_fault_free_per_node(bulk_toggle):
    bulk_toggle(True)
    g = family_graph("broom")
    adversary = make_fault_adversary(0.2, 0, seed=13)
    net = Network(g)
    with pytest.warns(BulkFallbackWarning, match="adversary") as record:
        net.run(FloodMax(), adversary=adversary, max_rounds=500)
    assert record.pop(BulkFallbackWarning).filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error", BulkFallbackWarning)
        net.run(FloodMax(prefix="second_"), adversary=adversary,
                max_rounds=500)
