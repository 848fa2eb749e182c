"""Equivalence and behaviour tests for the active-set CONGEST engine.

Extends the replica pattern of ``tests/test_csr.py``: the pre-refactor
engine semantics (full per-round node scans, ``LinkQueue``-per-link
delivery, the delay-rescanning scheduler) are re-implemented here as
reference oracles and compared metric-for-metric against the production
active-set engine — ``rounds``, ``messages_sent``, ``messages_delivered``,
``max_link_backlog`` and ``per_edge_messages`` must be identical on flood,
BFS, leader election and random-delay-scheduler workloads, on both the
express delivery lane (single-channel algorithms) and the ring path
(multi-channel).

Also covers the engine behaviours the refactor introduced or preserved:
ring-buffer compaction, strict bandwidth raising mid-run, ``reset=False``
composition with the awake-node worklist, the cached
``RunMetrics.per_edge_messages`` dict and the ``top_k_edges`` helper.
"""

from __future__ import annotations

import pytest

from repro.congest import (
    BandwidthExceededError,
    ComposedAlgorithm,
    DistributedAlgorithm,
    Network,
    RandomDelayScheduler,
    draw_random_delays,
)
from repro.congest.message import Message
from repro.congest.node import NodeContext
from repro.congest.primitives.bfs import DistributedBFS, extract_bfs_tree
from repro.congest.primitives.leader import FloodMax, read_leaders
from repro.congest.primitives.trees import TreeAggregate
from repro.graphs.generators import (
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from repro.graphs.lower_bound import lower_bound_instance

from test_csr import LegacyNetwork

SEEDS = list(range(12))


class PreRefactorNetwork:
    """Replica of the pre-refactor (PR 1) engine: dense directed link ids,
    ring-buffered queues drained in link-activation order, a full per-round
    scan over all nodes, and outbox collection after each round.

    Multi-channel workloads are sensitive to delivery order, so the oracle
    must reproduce the activation-order semantics exactly (the seed-era
    ``LegacyNetwork`` in ``test_csr.py`` delivers in link-creation order
    instead, which only coincides for order-insensitive algorithms).
    """

    def __init__(self, graph, bandwidth=1):
        self.graph = graph
        self.bandwidth = bandwidth
        self.nodes = {
            v: NodeContext(node_id=v, neighbors=tuple(sorted(graph.neighbors(v))))
            for v in graph.vertices()
        }
        csr = graph.csr()
        num_links = 2 * csr.num_edges
        self._link_of = {}
        self._receiver_of = [0] * num_links
        for eid, (u, v) in enumerate(csr.edge_list):
            self._link_of[(u, v)] = 2 * eid
            self._link_of[(v, u)] = 2 * eid + 1
            self._receiver_of[2 * eid] = v
            self._receiver_of[2 * eid + 1] = u
        self._edge_list = csr.edge_list
        self._queues = [[] for _ in range(num_links)]
        self._heads = [0] * num_links
        self._link_max = [0] * num_links
        self._active = []
        self._is_active = bytearray(num_links)

    def run(self, algorithm, max_rounds=100_000):
        metrics = {
            "rounds": 0, "messages_sent": 0, "messages_delivered": 0,
            "max_link_backlog": 0, "edge_counts": {},
        }
        for ctx in self.nodes.values():
            algorithm.initialize(ctx)
        self._collect(metrics)
        while metrics["rounds"] < max_rounds:
            if not self._active and all(c.halted for c in self.nodes.values()):
                metrics["per_edge_messages"] = dict(metrics.pop("edge_counts"))
                return metrics
            metrics["rounds"] += 1
            inboxes = self._deliver(metrics)
            for v, ctx in self.nodes.items():
                incoming = inboxes.get(v)
                if incoming:
                    ctx.wake()
                    algorithm.on_round(ctx, incoming)
                elif not ctx.halted:
                    algorithm.on_round(ctx, [])
            self._collect(metrics)
        raise AssertionError("pre-refactor reference engine hit the round limit")

    def _deliver(self, metrics):
        inboxes = {}
        still_active = []
        for link in self._active:
            buf = self._queues[link]
            head = self._heads[link]
            take = min(self.bandwidth, len(buf) - head)
            batch = buf[head:head + take]
            head += take
            if head >= len(buf):
                buf.clear()
                head = 0
                self._is_active[link] = 0
            else:
                still_active.append(link)
            self._heads[link] = head
            receiver = self._receiver_of[link]
            inboxes.setdefault(receiver, []).extend(batch)
            metrics["messages_delivered"] += take
            edge = self._edge_list[link >> 1]
            metrics["edge_counts"][edge] = metrics["edge_counts"].get(edge, 0) + take
            if self._link_max[link] > metrics["max_link_backlog"]:
                metrics["max_link_backlog"] = self._link_max[link]
        self._active = still_active
        return inboxes

    def _collect(self, metrics):
        for ctx in self.nodes.values():
            for message in ctx._collect_outbox():
                link = self._link_of[(message.sender, message.receiver)]
                buf = self._queues[link]
                buf.append(message)
                backlog = len(buf) - self._heads[link]
                if backlog > self._link_max[link]:
                    self._link_max[link] = backlog
                if not self._is_active[link]:
                    self._is_active[link] = 1
                    self._active.append(link)
                metrics["messages_sent"] += 1


class LegacyScheduler(DistributedAlgorithm):
    """The pre-refactor RandomDelayScheduler: rescan all N delays per node
    per round, halt when ``all(started)``.  Kept verbatim as an oracle."""

    name = "legacy_random_delay_scheduler"

    def __init__(self, sub_algorithms, delays):
        self.sub_algorithms = list(sub_algorithms)
        self.delays = list(delays)

    def initialize(self, node):
        node.state["__sched_round"] = 0
        node.state["__sched_started"] = [False] * len(self.sub_algorithms)
        self._start_due(node)
        self._maybe_halt(node)

    def on_round(self, node, messages):
        node.state["__sched_round"] += 1
        self._start_due(node)
        by_algorithm = {}
        for msg in messages:
            by_algorithm.setdefault(msg.algorithm_id, []).append(msg)
        for idx, batch in by_algorithm.items():
            if 0 <= idx < len(self.sub_algorithms):
                if not node.state["__sched_started"][idx]:
                    node.state["__sched_started"][idx] = True
                self.sub_algorithms[idx].on_round(node, batch)
        self._maybe_halt(node)

    def _maybe_halt(self, node):
        if all(node.state["__sched_started"]):
            node.halt()
        else:
            node.wake()

    def _start_due(self, node):
        current = node.state["__sched_round"]
        started = node.state["__sched_started"]
        for idx, delay in enumerate(self.delays):
            if not started[idx] and current >= delay:
                started[idx] = True
                self.sub_algorithms[idx].initialize(node)


def _assert_metrics_match(new_metrics, legacy):
    assert new_metrics.rounds == legacy["rounds"]
    assert new_metrics.messages_sent == legacy["messages_sent"]
    assert new_metrics.messages_delivered == legacy["messages_delivered"]
    assert new_metrics.max_link_backlog == legacy["max_link_backlog"]
    assert new_metrics.per_edge_messages == legacy["per_edge_messages"]
    assert new_metrics.terminated


# ----------------------------------------------------------------------
# engine equivalence: express lane (single-channel algorithms)
# ----------------------------------------------------------------------
class TestExpressLaneEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bfs_flood_matches_legacy(self, seed):
        g = random_connected_graph(35 + seed, extra_edge_prob=0.08, rng=seed)
        new_metrics = Network(g).run(DistributedBFS({0}))
        legacy = LegacyNetwork(g).run(DistributedBFS({0}))
        _assert_metrics_match(new_metrics, legacy)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_multi_source_truncated_bfs_matches_legacy(self, seed):
        g = erdos_renyi_graph(40, 0.12, rng=seed)
        sources = {0, 3, 7}
        algo = lambda: DistributedBFS(sources, max_depth=3)  # noqa: E731
        new_metrics = Network(g).run(algo())
        legacy = LegacyNetwork(g).run(algo())
        _assert_metrics_match(new_metrics, legacy)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_leader_election_matches_legacy(self, seed):
        g = random_connected_graph(30 + seed, extra_edge_prob=0.1, rng=100 + seed)
        new_net = Network(g)
        new_metrics = new_net.run(FloodMax())
        legacy_net = LegacyNetwork(g)
        legacy = legacy_net.run(FloodMax())
        _assert_metrics_match(new_metrics, legacy)
        # Same elected leader everywhere, same per-node state.
        new_leaders = read_leaders(new_net)
        assert set(new_leaders.values()) == {g.num_vertices - 1}
        for v in g.vertices():
            assert new_net.node(v).state.get("flood_leader") == \
                legacy_net.nodes[v].state.get("flood_leader")

    def test_flood_on_lower_bound_instance_matches_legacy(self):
        inst = lower_bound_instance(200, 6)
        new_metrics = Network(inst.graph).run(DistributedBFS({0}))
        legacy = LegacyNetwork(inst.graph).run(DistributedBFS({0}))
        _assert_metrics_match(new_metrics, legacy)

    def test_grid_bfs_states_match_legacy(self):
        g = grid_graph(12, 12)
        new_net = Network(g)
        new_net.run(DistributedBFS({0}))
        legacy_net = LegacyNetwork(g)
        legacy_net.run(DistributedBFS({0}))
        _parent, new_dist = extract_bfs_tree(new_net)
        for v in g.vertices():
            assert legacy_net.nodes[v].state.get("bfs_dist") == new_dist.get(v)


# ----------------------------------------------------------------------
# engine equivalence: ring path (multi-channel / random-delay scheduler)
# ----------------------------------------------------------------------
class TestSchedulerEquivalence:
    def _make_algos(self, num, depth=None):
        return [
            DistributedBFS({i}, max_depth=depth, prefix=f"q{i}_", algorithm_id=i)
            for i in range(num)
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scheduler_matches_legacy_engine_and_scheduler(self, seed):
        g = random_connected_graph(24, extra_edge_prob=0.12, rng=seed)
        num = 4
        delays = draw_random_delays(num, 6, rng=seed)
        new_metrics = Network(g).run(
            RandomDelayScheduler(self._make_algos(num), list(delays))
        )
        legacy = PreRefactorNetwork(g).run(
            LegacyScheduler(self._make_algos(num), list(delays))
        )
        _assert_metrics_match(new_metrics, legacy)

    @pytest.mark.parametrize("bandwidth", [1, 2, 4])
    def test_scheduler_bandwidth_variants_match(self, bandwidth):
        g = path_graph(12)
        num = 5
        delays = [0] * num
        new_metrics = Network(g, bandwidth=bandwidth).run(
            RandomDelayScheduler(self._make_algos(num), list(delays))
        )
        legacy = PreRefactorNetwork(g, bandwidth=bandwidth).run(
            LegacyScheduler(self._make_algos(num), list(delays))
        )
        _assert_metrics_match(new_metrics, legacy)

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_scheduler_node_states_match(self, seed):
        g = erdos_renyi_graph(20, 0.2, rng=40 + seed)
        num = 3
        delays = draw_random_delays(num, 5, rng=seed)
        new_net = Network(g)
        new_net.run(RandomDelayScheduler(self._make_algos(num), list(delays)))
        legacy_net = PreRefactorNetwork(g)
        legacy_net.run(LegacyScheduler(self._make_algos(num), list(delays)))
        for v in g.vertices():
            for i in range(num):
                key = f"q{i}_dist"
                assert new_net.node(v).state.get(key) == \
                    legacy_net.nodes[v].state.get(key)


# ----------------------------------------------------------------------
# ring-buffer compaction
# ----------------------------------------------------------------------
class _Burst(DistributedAlgorithm):
    """Node 0 sends ``count`` messages to node 1 in the first round, using
    distinct algorithm ids to load a single link far beyond bandwidth."""

    name = "burst"

    def __init__(self, count):
        self.count = count

    def initialize(self, node):
        if node.node_id == 0:
            for i in range(self.count):
                node.send(1, "burst", i, algorithm_id=i)
        node.halt()

    def on_round(self, node, messages):
        node.state.setdefault("got", []).extend(m.payload for m in messages)
        node.halt()


class TestRingBufferCompaction:
    def test_compaction_branch_preserves_fifo(self):
        # bandwidth 66 with a 200-message burst drives the head cursor past
        # 64 while half the buffer is dead, exercising the `head > 64 and
        # head * 2 >= len(buf)` compaction branch in _deliver.
        net = Network(path_graph(2), bandwidth=66)
        metrics = net.run(_Burst(200))
        assert metrics.terminated
        assert metrics.messages_delivered == 200
        assert net.node(1).state["got"] == list(range(200))
        assert metrics.rounds == -(-200 // 66)  # ceil(200/66) delivery rounds
        assert metrics.max_link_backlog == 200
        assert metrics.per_edge_messages == {(0, 1): 200}

    @pytest.mark.parametrize("bandwidth,count", [(1, 150), (3, 200), (66, 200), (70, 139)])
    def test_compaction_never_reorders_or_drops(self, bandwidth, count):
        net = Network(path_graph(2), bandwidth=bandwidth)
        metrics = net.run(_Burst(count))
        assert metrics.terminated
        assert net.node(1).state["got"] == list(range(count))
        assert metrics.messages_delivered == count

    def test_linkqueue_compaction_standalone(self):
        from repro.congest.message import LinkQueue

        q = LinkQueue(capacity_per_round=66)
        messages = [Message(0, 1, "t", i) for i in range(200)]
        for m in messages:
            q.enqueue(m)
        drained = []
        while q.backlog:
            drained.extend(q.drain())
        assert drained == messages


# ----------------------------------------------------------------------
# strict bandwidth mid-run
# ----------------------------------------------------------------------
class _LateOverload(DistributedAlgorithm):
    """Pings along a path for a few rounds, then bursts two messages onto
    one link (distinct algorithm ids) to trigger strict mode mid-run."""

    name = "late_overload"

    def __init__(self, burst_round):
        self.burst_round = burst_round

    def initialize(self, node):
        if node.node_id == 0:
            node.send(1, "tick", 0)
        node.halt()

    def on_round(self, node, messages):
        for msg in messages:
            if msg.tag != "tick":
                continue
            count = msg.payload + 1
            node.state["seen"] = count
            if node.node_id == 1 and count >= self.burst_round:
                # Two messages on link 1->0 in one round: the second send
                # must raise with the first still queued (partially drained
                # queues elsewhere in the network).
                node.send(0, "tick", count, algorithm_id=0)
                node.send(0, "tick", count, algorithm_id=1)
            else:
                node.send(msg.sender, "tick", count)
        node.halt()


class TestStrictBandwidthMidRun:
    def test_strict_raises_mid_run_with_queues_partially_drained(self):
        net = Network(path_graph(2), strict_bandwidth=True)
        with pytest.raises(BandwidthExceededError):
            net.run(_LateOverload(burst_round=4))
        # The run progressed before aborting: earlier ticks were delivered.
        assert net.node(1).state["seen"] >= 4

    def test_strict_ok_without_overload(self):
        net = Network(grid_graph(4, 4), strict_bandwidth=True)
        metrics = net.run(DistributedBFS({0}))
        assert metrics.terminated

    def test_strict_scheduler_overload_raises(self):
        g = path_graph(5)
        num = 3
        algos = [DistributedBFS({0}, prefix=f"x{i}_", algorithm_id=i) for i in range(num)]
        net = Network(g, strict_bandwidth=True)
        with pytest.raises(BandwidthExceededError):
            net.run(RandomDelayScheduler(algos, [0] * num))


# ----------------------------------------------------------------------
# reset=False composition with active sets
# ----------------------------------------------------------------------
class _LeaderPing(DistributedAlgorithm):
    """Follow-up algorithm: the elected leader (read from FloodMax state)
    broadcasts a token; everyone else starts halted and must be re-woken by
    the engine when the token arrives."""

    name = "leader_ping"
    single_channel = True

    def initialize(self, node):
        if node.state.get("flood_leader") == node.node_id:
            node.broadcast("token", node.node_id)
        node.halt()

    def on_round(self, node, messages):
        for msg in messages:
            if msg.tag == "token":
                node.state["token_from"] = msg.payload
        node.halt()


class TestResetFalseComposition:
    def test_follow_up_algorithm_rewakes_halted_nodes(self):
        g = random_connected_graph(25, extra_edge_prob=0.1, rng=5)
        net = Network(g)
        first = net.run(FloodMax())
        assert first.terminated
        # All nodes are halted and the awake worklist is empty.
        assert all(ctx.halted for ctx in net.nodes.values())
        assert not net._awake
        second = net.run(_LeaderPing(), reset=False)
        assert second.terminated
        assert second.rounds >= 1
        leader = g.num_vertices - 1
        for v in g.neighbors(leader):
            assert net.node(v).state["token_from"] == leader

    def test_chained_runs_match_legacy_chained_runs(self):
        g = random_connected_graph(22, extra_edge_prob=0.12, rng=9)
        net = Network(g)
        net.run(FloodMax())
        new_second = net.run(DistributedBFS({g.num_vertices - 1}), reset=False)

        legacy_net = LegacyNetwork(g)
        legacy_net.run(FloodMax())
        legacy_second = legacy_net.run(DistributedBFS({g.num_vertices - 1}))
        assert new_second.rounds == legacy_second["rounds"]
        assert new_second.messages_sent == legacy_second["messages_sent"]
        assert new_second.messages_delivered == legacy_second["messages_delivered"]
        assert new_second.per_edge_messages == legacy_second["per_edge_messages"]

    def test_bfs_then_tree_aggregate_matches_pre_refactor(self):
        g = random_connected_graph(20, extra_edge_prob=0.15, rng=13)
        agg = lambda: TreeAggregate("count", broadcast_result=True)  # noqa: E731

        net = Network(g)
        net.run(DistributedBFS({0}))
        new_metrics = net.run(agg(), reset=False)

        ref = PreRefactorNetwork(g)
        ref.run(DistributedBFS({0}))
        legacy = ref.run(agg())
        assert new_metrics.rounds == legacy["rounds"]
        assert new_metrics.messages_sent == legacy["messages_sent"]
        assert new_metrics.messages_delivered == legacy["messages_delivered"]
        assert new_metrics.per_edge_messages == legacy["per_edge_messages"]
        assert net.node(0).state["agg_result"] == g.num_vertices

    def test_same_prefix_followup_rebuilds_allowed_neighbors(self):
        # A fresh same-prefix BFS with a different (here: absent)
        # allowed_adjacency must not inherit the previous instance's cached
        # neighbour filter: source 1 improves its own dist to 0 and must
        # re-announce over its FULL neighbour list, reaching node 2.
        g = path_graph(3)
        net = Network(g)
        net.run(DistributedBFS({0}, allowed_adjacency={0: {1}, 1: {0}}, prefix="x_"))
        assert "x_dist" not in net.node(2).state
        net.run(DistributedBFS({1}, prefix="x_"), reset=False)
        assert net.node(2).state["x_dist"] == 1

    def test_reset_wipes_externally_mutated_state(self):
        # reset() promises a fresh network even when nothing ran: state
        # poked in from outside and externally halted nodes are wiped.
        net = Network(path_graph(3))
        net.node(0).state["marker"] = 42
        net.node(1).halt()
        net.reset()
        assert "marker" not in net.node(0).state
        assert not net.node(1).halted
        assert 1 in net._awake

    @pytest.mark.parametrize("bulk", [True, False])
    def test_resumed_express_traffic_shares_link_bandwidth(self, bulk, monkeypatch):
        # The cut-off run leaves FloodMax's 0 -> 1 message in flight; the
        # resume's initialize re-sends behind it on the same bandwidth-1
        # link, so the two cross in consecutive rounds (backlog 2), never
        # both in one round.
        monkeypatch.setattr(FloodMax, "bulk_capable", bulk)
        net = Network(path_graph(2))
        algorithm = FloodMax()
        net.run(algorithm, max_rounds=1, raise_on_limit=False)
        resumed = net.run(algorithm, reset=False)
        assert resumed.terminated
        assert resumed.rounds == 3
        assert resumed.max_link_backlog == 2
        assert resumed.messages_delivered == 4
        assert read_leaders(net) == {0: 1, 1: 1}

    def test_express_then_ring_composition(self):
        # A single-channel (express) run followed by a multi-channel (ring)
        # scheduler run on the same un-reset network.
        g = grid_graph(5, 5)
        net = Network(g)
        net.run(DistributedBFS({0}))
        num = 3
        algos = [DistributedBFS({i}, prefix=f"r{i}_", algorithm_id=i) for i in range(num)]
        metrics = net.run(RandomDelayScheduler(algos, [0, 1, 2]), reset=False)
        assert metrics.terminated
        # First run's outputs are still readable.
        assert net.node(24).state["bfs_dist"] == 8


# ----------------------------------------------------------------------
# RunMetrics: per-edge cache and top_k_edges
# ----------------------------------------------------------------------
class TestRunMetricsHelpers:
    def _run(self):
        g = star_graph(6)
        net = Network(g)
        return net.run(FloodMax())

    def test_per_edge_messages_cached(self):
        metrics = self._run()
        first = metrics.per_edge_messages
        assert first is metrics.per_edge_messages  # same dict object: cached

    def test_top_k_edges_matches_full_dict(self):
        inst = lower_bound_instance(120, 4)
        metrics = Network(inst.graph).run(DistributedBFS({0}))
        full = metrics.per_edge_messages
        top = metrics.top_k_edges(5)
        assert len(top) == min(5, len(full))
        # Counts descending, ties by ascending edge id; entries agree with
        # the full dict and are the true top-k counts.
        counts = [c for _, c in top]
        assert counts == sorted(counts, reverse=True)
        for edge, count in top:
            assert full[edge] == count
        threshold = counts[-1]
        assert sum(1 for c in full.values() if c > threshold) <= len(top)

    def test_top_k_edges_edge_cases(self):
        metrics = self._run()
        assert metrics.top_k_edges(0) == []
        everything = metrics.top_k_edges(10_000)
        assert dict(everything) == metrics.per_edge_messages
        from repro.congest.network import RunMetrics

        assert RunMetrics().top_k_edges(3) == []
        assert RunMetrics().per_edge_messages == {}

    def test_express_and_ring_agree_on_metrics(self):
        # The same single-channel workload forced down the ring path (by
        # hiding the single_channel flag) must produce identical metrics.
        g = random_connected_graph(30, extra_edge_prob=0.1, rng=3)

        class RingBFS(DistributedBFS):
            single_channel = False

        express = Network(g).run(DistributedBFS({0}))
        ring = Network(g).run(RingBFS({0}))
        assert express.rounds == ring.rounds
        assert express.messages_sent == ring.messages_sent
        assert express.messages_delivered == ring.messages_delivered
        assert express.max_link_backlog == ring.max_link_backlog
        assert express.per_edge_messages == ring.per_edge_messages


# ----------------------------------------------------------------------
# timer protocol (wake_at_rounds)
# ----------------------------------------------------------------------
class TestTimerProtocol:
    def test_large_delay_tail_is_charged_exactly(self):
        # One sub-algorithm with a huge start delay and no traffic until it
        # begins: the run must still last until the delay elapses, with the
        # silent stretch charged but not executed round by round.
        g = path_graph(4)
        algos = [
            DistributedBFS({0}, prefix="a0_", algorithm_id=0),
            DistributedBFS({3}, prefix="a1_", algorithm_id=1),
        ]
        delays = [0, 60]
        new_metrics = Network(g).run(RandomDelayScheduler(algos, list(delays)))
        legacy = PreRefactorNetwork(g).run(LegacyScheduler(
            [DistributedBFS({0}, prefix="a0_", algorithm_id=0),
             DistributedBFS({3}, prefix="a1_", algorithm_id=1)], list(delays)))
        _assert_metrics_match(new_metrics, legacy)
        assert new_metrics.rounds > 60

    def test_scheduler_declares_its_delays_as_timers(self):
        algos = [DistributedBFS({i}, prefix=f"t{i}_", algorithm_id=i) for i in range(4)]
        sched = RandomDelayScheduler(algos, [0, 5, 3, 5])
        # Distinct nonzero delays, sorted; delay 0 starts in initialize.
        assert sched.wake_at_rounds == (3, 5)

    def test_nodes_halt_while_waiting_out_delays(self):
        # With timers honoured, a long delay tail keeps no node awake: the
        # engine jumps the silent stretch instead of ticking n handlers.
        g = path_graph(4)
        algos = [
            DistributedBFS({0}, prefix="a0_", algorithm_id=0),
            DistributedBFS({3}, prefix="a1_", algorithm_id=1),
        ]
        net = Network(g)
        metrics = net.run(RandomDelayScheduler(algos, [0, 60]))
        assert metrics.terminated
        assert net.node(0).state["a1_dist"] == 3  # delayed BFS did run

    def test_composed_timer_stage_matches_sequential_runs(self):
        # A timer-declaring stage inside a composition must behave exactly
        # as if it had been run standalone after its predecessor (stage
        # timers are rebased to the hand-off round): same metrics totals,
        # same outputs.
        g = grid_graph(4, 4)

        def scheduler():
            algos = [
                DistributedBFS({0}, prefix="s0_", algorithm_id=0),
                DistributedBFS({15}, prefix="s1_", algorithm_id=1),
            ]
            return RandomDelayScheduler(algos, [0, 7])

        seq_net = Network(g)
        first = seq_net.run(FloodMax())
        second = seq_net.run(scheduler(), reset=False)

        comp_net = Network(g)
        composed = comp_net.run(ComposedAlgorithm([FloodMax(), scheduler()]))

        assert composed.terminated
        assert composed.rounds == first.rounds + second.rounds
        assert composed.messages_sent == first.messages_sent + second.messages_sent
        assert composed.messages_delivered == (
            first.messages_delivered + second.messages_delivered
        )
        for v in range(16):
            assert comp_net.node(v).state["s0_dist"] == seq_net.node(v).state["s0_dist"]
            assert comp_net.node(v).state["s1_dist"] == seq_net.node(v).state["s1_dist"]

    def test_composed_timer_stage_first_matches_standalone(self):
        # Stage 0's timers need no rebasing; a later stage after the timer
        # stage still runs correctly.
        g = path_graph(6)

        def scheduler():
            algos = [
                DistributedBFS({0}, prefix="s0_", algorithm_id=0),
                DistributedBFS({5}, prefix="s1_", algorithm_id=1),
            ]
            return RandomDelayScheduler(algos, [0, 9])

        seq_net = Network(g)
        first = seq_net.run(scheduler())
        second = seq_net.run(FloodMax(), reset=False)

        comp_net = Network(g)
        composed = comp_net.run(ComposedAlgorithm([scheduler(), FloodMax()]))

        assert composed.terminated
        assert composed.rounds == first.rounds + second.rounds
        assert composed.messages_sent == first.messages_sent + second.messages_sent
        for v in range(6):
            assert comp_net.node(v).state["s1_dist"] == seq_net.node(v).state["s1_dist"]

    def test_composed_stages_unaffected_by_timer_protocol(self):
        g = grid_graph(4, 4)
        stages = ComposedAlgorithm([FloodMax(), DistributedBFS({15})])
        metrics = Network(g).run(stages)
        assert metrics.terminated


# ----------------------------------------------------------------------
# wired NodeContext behaviours
# ----------------------------------------------------------------------
class TestWiredNodeContext:
    def test_wired_send_to_non_neighbor_raises(self):
        net = Network(path_graph(3))
        with pytest.raises(ValueError):
            net.node(0).send(2, "nope")

    def test_wired_duplicate_send_raises_express_and_ring(self):
        class DoubleSend(DistributedAlgorithm):
            name = "double"

            def initialize(self, node):
                if node.node_id == 0:
                    node.send(1, "a", 1)
                    node.send(1, "b", 2)
                node.halt()

            def on_round(self, node, messages):
                node.halt()

        for single in (True, False):
            algo = DoubleSend()
            algo.single_channel = single
            net = Network(path_graph(2))
            with pytest.raises(ValueError):
                net.run(algo)

    def test_wired_multicast_duplicate_target_raises(self):
        class DupMulticast(DistributedAlgorithm):
            name = "dup_multicast"
            single_channel = True

            def initialize(self, node):
                if node.node_id == 0:
                    node.multicast([1, 1], "t", 0)
                node.halt()

            def on_round(self, node, messages):
                node.halt()

        net = Network(path_graph(2))
        with pytest.raises(ValueError):
            net.run(DupMulticast())

    def test_halt_wake_maintains_awake_worklist(self):
        net = Network(path_graph(3))
        ctx = net.node(1)
        assert 1 in net._awake
        ctx.halt()
        assert 1 not in net._awake
        ctx.halt()  # idempotent
        assert 1 not in net._awake
        ctx.wake()
        assert 1 in net._awake

    def test_standalone_context_still_buffers_outbox(self):
        node = NodeContext(node_id=0, neighbors=(1, 2))
        node.multicast((1, 2), "t", 7)
        out = node._collect_outbox()
        assert [m.receiver for m in out] == [1, 2]
        assert all(m.payload == 7 for m in out)
