"""The synchronous CONGEST round engine.

The :class:`Network` wraps a :class:`~repro.graphs.graph.Graph` and executes
a :class:`~repro.congest.algorithm.DistributedAlgorithm` in synchronous
rounds:

1. every directed link with pending traffic delivers up to ``bandwidth``
   queued messages;
2. every *touched* node — awake (not halted), or a receiver of a message
   this round — runs its ``on_round`` handler;
3. the messages the handlers produce are enqueued on their links for
   delivery in the next round.

Messages beyond a link's per-round bandwidth are *queued*, so an algorithm
that overloads a link simply takes more rounds — exactly the penalty the
CONGEST model charges.  The engine records the metrics the paper's bounds
talk about: total rounds to quiescence, total messages, the maximum backlog
observed on any link (a per-link congestion proxy) and per-edge message
counts.

Active-set round engine
-----------------------
A round costs O(nodes-and-links-actually-touched), not O(n + links):

* **Awake-node worklist.**  ``NodeContext.halt`` / ``wake`` incrementally
  maintain the set of non-halted nodes, so the engine never scans all ``n``
  nodes per round — it runs exactly ``awake ∪ receivers`` (in ascending node
  id order, matching the legacy full-scan order).  Quiescence becomes an
  O(1) check: no active link and an empty awake set.
* **Active-link worklist.**  Links are indexed by dense *directed link ids*
  derived from the graph's CSR snapshot: the undirected edge with id ``e``
  (canonical ``(u, v)``, ``u < v``) owns link ``2e`` for ``u -> v`` and
  ``2e + 1`` for ``v -> u``.  Per-link queues are flat ring-buffered lists
  drained ``bandwidth`` at a time; only links with pending traffic are
  visited.
* **Zero-allocation message fast path.**  Each wired ``NodeContext`` holds a
  precomputed ``neighbor -> directed link id`` table, so ``send`` enqueues
  directly onto the target ring buffer — there is no per-round outbox
  collection pass and no ``(sender, receiver)`` tuple-keyed link dict.
  Per-receiver inbox lists are pooled and reused across rounds, and
  per-edge message counters live in one flat list indexed by edge id
  (exposed through the cached :attr:`RunMetrics.per_edge_messages` dict
  property and the :meth:`RunMetrics.top_k_edges` helper).
* **Express delivery lane.**  An algorithm declaring ``single_channel``
  sends at most one message per directed link per round (its duplicate-send
  guard proves it), so link queues are pass-through: sends land directly in
  the receiver's next-round inbox and the round flip is O(receivers) with
  no per-link delivery pass at all.  Multi-channel runs (the random-delay
  scheduler) keep the metered ring path, and so does a ``reset=False`` run
  that starts with traffic in flight: the leftover messages move onto the
  rings, where they share each link's bandwidth with the new run's sends.
* **Timer protocol.**  An algorithm declaring ``wake_at_rounds`` (globally
  known deadlines, e.g. the scheduler's delay start rounds) lets waiting
  nodes halt instead of ticking no-op handlers: the engine revives every
  node exactly at the declared rounds and charges silent stretches between
  them without executing them, keeping the measured round count identical.

Fault injection
---------------
``run(..., adversary=...)`` is a few branches of the same round loop, not a
separate engine: the adversary's crash/recover schedule is applied before
``initialize`` and at the start of each round (crashed nodes never run),
its event rounds are forced rounds alongside the timers, and ring delivery
asks its ``on_deliver`` to rule on each message.  With no faults the
metrics are bit-identical to an adversary-free run.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, field
from typing import Optional

from ..graphs.graph import Graph
from .algorithm import ComposedAlgorithm, DistributedAlgorithm
from .bulk import BulkFallbackWarning
from .message import Message
from .node import NodeContext

#: Shared empty inbox passed to awake nodes with no incoming messages.
#: Handlers receive it read-only by contract (no algorithm mutates its
#: ``messages`` argument); sharing it avoids one list allocation per awake
#: node per round.
_NO_MESSAGES: list[Message] = []


class RoundLimitExceeded(RuntimeError):
    """Raised when an algorithm fails to reach quiescence within ``max_rounds``.

    The run's progress is not discarded: :attr:`metrics` carries the partial
    :class:`RunMetrics` accumulated up to the cutoff (``terminated=False``,
    send counts reconciled against the queued backlog) and
    :attr:`last_active_set` the number of awake nodes at the moment the
    limit was hit — together they say *where* a stalled run was stuck.
    """

    def __init__(
        self,
        message: str,
        *,
        metrics: Optional["RunMetrics"] = None,
        last_active_set: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.metrics = metrics
        self.last_active_set = last_active_set


class PartialRunError(RoundLimitExceeded):
    """A fault-injected run stalled before quiescence.

    Raised instead of the bare :class:`RoundLimitExceeded` when an
    adversarial run (``Network.run(..., adversary=...)``) hits
    ``max_rounds``: under faults a stall usually means the adversary starved
    a primitive of an un-retried message, and the partial metrics plus the
    surviving active-set size are the debugging evidence.  Subclasses
    :class:`RoundLimitExceeded`, so existing ``except`` clauses keep
    working.
    """


@dataclass
class RunMetrics:
    """Metrics of one simulation run.

    Attributes:
        rounds: number of synchronous rounds until global quiescence.
        messages_sent: total messages handed to the network by nodes.
        messages_delivered: total messages delivered to receivers.
        max_link_backlog: largest queue length observed on any directed link.
        terminated: ``True`` if the run reached quiescence (as opposed to
            being stopped by ``max_rounds`` with ``raise_on_limit=False``).
        messages_dropped: messages consumed by the adversary (or addressed
            to a crashed node) instead of reaching their receiver; always 0
            in fault-free runs.
        messages_duplicated: extra at-least-once copies injected by the
            adversary; always 0 in fault-free runs.
        crashes / recoveries: node-fault events applied during the run.
    """

    rounds: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    max_link_backlog: int = 0
    terminated: bool = False
    messages_dropped: int = 0
    messages_duplicated: int = 0
    crashes: int = 0
    recoveries: int = 0
    _edge_counts: Optional[list] = field(default=None, repr=False, compare=False)
    _edge_list: Optional[list] = field(default=None, repr=False, compare=False)
    _per_edge_cache: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def per_edge_messages(self) -> dict[tuple[int, int], int]:
        """Messages that crossed each undirected edge (both directions summed).

        Keyed by canonical edge tuple; edges that carried no message are
        omitted.  The dict is materialized from the flat edge-id counter
        array on first access and cached (runs are finished by the time
        their metrics are read, so the counters no longer change).
        """
        cached = self._per_edge_cache
        if cached is None:
            if self._edge_counts is None or self._edge_list is None:
                return {}
            edge_list = self._edge_list
            cached = {edge_list[e]: c for e, c in enumerate(self._edge_counts) if c}
            self._per_edge_cache = cached
        return cached

    @property
    def max_edge_messages(self) -> int:
        """Largest number of messages carried by any single undirected edge."""
        if self._edge_counts is None or not self._edge_counts:
            return 0
        return max(self._edge_counts)

    def top_k_edges(self, k: int) -> list[tuple[tuple[int, int], int]]:
        """The ``k`` busiest undirected edges as ``((u, v), count)`` pairs.

        Sorted by message count descending, ties broken by ascending edge
        id; edges that carried no message never appear.  Runs a heap
        selection over the flat counter array, so the full per-edge dict is
        never materialized — use this instead of
        :attr:`per_edge_messages` when only the hottest edges matter.
        """
        if k <= 0 or self._edge_counts is None or self._edge_list is None:
            return []
        top = heapq.nlargest(
            k, ((c, -e) for e, c in enumerate(self._edge_counts) if c)
        )
        edge_list = self._edge_list
        return [(edge_list[-ne], c) for c, ne in top]


class Network:
    """A CONGEST network over a given communication graph.

    Args:
        graph: the communication topology.
        bandwidth: messages a directed link may deliver per round (1 for the
            standard model; larger values model CONGEST with B-bit messages,
            used by a few tests to isolate algorithmic from congestion
            effects).
        strict_bandwidth: if ``True``, overloading a link raises
            :class:`~repro.congest.message.BandwidthExceededError` instead of
            queueing (the error surfaces from the offending ``send``, i.e.
            mid-round, with the other queues in whatever partially drained
            state the round reached).
    """

    def __init__(self, graph: Graph, *, bandwidth: int = 1, strict_bandwidth: bool = False) -> None:
        if bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")
        self.graph = graph
        self.bandwidth = bandwidth
        self.strict_bandwidth = strict_bandwidth
        self._wiring_csr = None
        self._ran = False
        self._structures_clean = True
        # (network, reason) pairs already warned about a declined bulk run;
        # deliberately not cleared by reset() so each network warns once.
        self._bulk_fallback_warned: set[str] = set()
        self.reset()

    @property
    def nodes(self) -> dict[int, NodeContext]:
        """Map of node id -> :class:`NodeContext` (built lazily per reset)."""
        cache = self._nodes_cache
        if cache is None:
            cache = self._nodes_cache = dict(enumerate(self._node_list))
        return cache

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Reset all node state and link queues (a fresh network).

        Cheap when possible: when the topology is unchanged and the last run
        drained cleanly (or nothing ran at all), only the node state and
        per-link maxima need clearing — the link queues, head cursors and
        inboxes are empty by invariant.  State mutated from outside a run
        (``node(v).state[...] = ...``, ``node(v).halt()``) is wiped either
        way, as "a fresh network" promises.
        """
        csr = self.graph.csr()
        if self._wiring_csr is csr:
            if self._structures_clean and not self._active and not self._pending_receivers:
                self._link_max_backlog[:] = self._zero_links
                awake = self._awake
                awake.clear()
                awake.update(range(csr.num_vertices))
                for ctx in self._node_list:
                    ctx.state = {}
                    ctx.halted = False
                    ctx._payload_ok = None
                self._ran = False
                return
        self._full_reset(csr)

    def _full_reset(self, csr) -> None:
        self._csr = csr
        n = csr.num_vertices
        num_links = 2 * csr.num_edges
        if self._wiring_csr is not csr:
            # Directed link 2e carries lo -> hi of canonical edge e; 2e + 1
            # the reverse.  Each node gets its own neighbor -> out-link table
            # so a send resolves its link with one int-keyed dict lookup.
            # The tables only depend on the CSR snapshot, so they are built
            # once and shared by every reset of the same topology.  Hot
            # per-link tables are plain lists: unlike array('l') they hand
            # back cached small ints instead of boxing on every read.
            receiver_of = [0] * num_links
            out_links: list[dict[int, int]] = [{} for _ in range(n)]
            for eid, (u, v) in enumerate(csr.edge_list):
                link = eid + eid
                receiver_of[link] = v
                receiver_of[link + 1] = u
                out_links[u][v] = link
                out_links[v][u] = link + 1
            self._receiver_of = receiver_of
            self._out_links = out_links
            self._neighbor_tuples = [tuple(csr.neighbors(v)) for v in range(n)]
            self._zero_links: list[int] = [0] * num_links
            self._wiring_csr = csr
        self._queues: list[list[Message]] = [[] for _ in range(num_links)]
        self._heads: list[int] = [0] * num_links
        self._link_max_backlog: list[int] = [0] * num_links
        self._active: list[int] = []
        self._is_active = bytearray(num_links)
        # Pooled per-node inboxes, reused across rounds (cleared after use),
        # plus the express lane's next-round pending lists (swapped with the
        # inboxes at each flip, so both pools recycle forever).
        self._inbox_of: list[list[Message]] = [[] for _ in range(n)]
        self._pending: list[list[Message]] = [[] for _ in range(n)]
        self._pending_receivers: list[int] = []
        # Awake-node worklist: every node starts non-halted.  halt()/wake()
        # keep this set current, so quiescence checks and per-round node
        # selection never scan the full node table.
        self._awake: set[int] = set(range(n))
        strict_limit = self.bandwidth if self.strict_bandwidth else float("inf")
        out_links = self._out_links
        neighbor_tuples = self._neighbor_tuples
        queues, heads = self._queues, self._heads
        link_max, is_active = self._link_max_backlog, self._is_active
        active, awake = self._active, self._awake
        # Positional construction (field order of the NodeContext dataclass):
        # measurably cheaper than keyword binding at n = 10^4 nodes.
        self._node_list = [
            NodeContext(
                v, neighbor_tuples[v], {}, False, [], set(),
                out_links[v], queues, heads, link_max, is_active, active,
                awake, strict_limit, None,
            )
            for v in range(n)
        ]
        pending_receivers = self._pending_receivers
        for ctx in self._node_list:
            ctx._pending_receivers = pending_receivers
        self._nodes_cache: Optional[dict[int, NodeContext]] = None
        self._ran = False
        self._structures_clean = True

    def node(self, v: int) -> NodeContext:
        """Return the :class:`NodeContext` of node ``v`` (for inspecting outputs)."""
        return self.nodes[v]

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm: DistributedAlgorithm,
        *,
        max_rounds: int = 100_000,
        raise_on_limit: bool = True,
        reset: bool = True,
        adversary=None,
    ) -> RunMetrics:
        """Execute ``algorithm`` until global quiescence.

        Global quiescence means every node reports ``finished`` and no
        message is queued on any link.  For :class:`ComposedAlgorithm` the
        engine advances all nodes to the next stage whenever the current
        stage is quiescent.

        Args:
            algorithm: the algorithm to run.
            max_rounds: safety limit on the number of rounds.
            raise_on_limit: raise :class:`RoundLimitExceeded` when the limit
                is hit (otherwise return metrics with ``terminated=False``).
            reset: start from a clean network state (set to ``False`` to run
                a follow-up algorithm that reads earlier algorithms' state;
                nodes left halted by the earlier run stay halted until this
                algorithm's ``initialize`` wakes them or a message arrives).
                Messages a cut-off run left in flight are delivered first,
                sharing each link's bandwidth with the new run's sends.
            adversary: optional :class:`~repro.congest.adversary.Adversary`
                interposed on ring delivery (message drops/duplication/
                latency/reordering and scheduled node crashes; see "Fault
                injection" in the module docstring).  A no-fault adversary
                produces bit-identical metrics to ``None``.  A stalled
                adversarial run raises :class:`PartialRunError` instead of
                the bare limit error.

        Returns:
            The :class:`RunMetrics` of the run.
        """
        if reset and self._ran:
            self.reset()
        if getattr(algorithm, "bulk_capable", False):
            bulk = self._try_bulk(algorithm, max_rounds, raise_on_limit, adversary)
            if bulk is not None:
                return bulk
        metrics = RunMetrics()
        metrics._edge_counts = [0] * self._csr.num_edges
        metrics._edge_list = self._csr.edge_list
        # Sends enqueue without touching a counter; the send total is an
        # invariant of the queues instead: sent = delivered + dropped -
        # duplicated + backlog growth.
        backlog_start = self._pending_backlog()
        self._ran = True
        self._structures_clean = False

        # Express lane: a single-channel algorithm sends at most one message
        # per directed link per round (its duplicate-send guard proves it),
        # so every link queue is pass-through and messages can be placed
        # straight into the receivers' next-round inboxes — no per-link
        # delivery pass at all.  Multi-channel algorithms (the random-delay
        # scheduler), adversarial runs (no per-message delivery point) and
        # runs resuming with traffic in flight (it must meter the bandwidth
        # this run's sends compete for) use the ring path.
        express = (
            adversary is None
            and bool(getattr(algorithm, "single_channel", False))
            and not self._active
            and not self._pending_receivers
        )
        if self._pending_receivers:
            self._flush_pending_to_rings()

        nodes = self._node_list
        pending = self._pending if express else None
        edge_counts = metrics._edge_counts
        # Timer protocol (opt-in; see the module docstring of
        # repro.congest.algorithm): the algorithm declares the global rounds
        # at which every node must run, so waiting nodes can halt and the
        # engine both revives the network at exactly those rounds and
        # charges silent stretches between them without executing them.
        timers: tuple = getattr(algorithm, "wake_at_rounds", ()) or ()
        num_timers = len(timers)
        timer_pos = 0
        if num_timers:
            algorithm.current_round = 0
        # Opt-in escape hatch for timer schedules that over-provision (retry
        # checkpoints): at a silent moment, an algorithm whose probe reports
        # no pending timer-driven work lets the run terminate instead of
        # charging the remaining (provably no-op) checkpoints.
        timer_probe = getattr(algorithm, "pending_timer_work", None)

        # Fault injection: crashed nodes never run, and the adversary's
        # scheduled crash/recover rounds are forced rounds like timers.
        crashed: set[int] = set()
        on_deliver = None
        event_rounds: tuple = ()
        if adversary is not None:
            on_deliver = adversary.on_deliver
            adversary.reset(self)
            event_rounds = tuple(adversary.event_rounds())
            # Round-0 events: nodes crashed "before the run" never initialize.
            events = adversary.begin_round(0)
            if events:
                self._apply_fault_events(events, algorithm, crashed, metrics)
        num_events = len(event_rounds)
        event_pos = 0
        while event_pos < num_events and event_rounds[event_pos] <= 0:
            event_pos += 1

        for ctx in nodes:
            ctx._express_pending = pending
            ctx._edge_counts = edge_counts
            if ctx.node_id in crashed:
                continue
            algorithm.initialize(ctx)
            ctx._sent_this_round.clear()

        composed = isinstance(algorithm, ComposedAlgorithm)
        awake = self._awake
        inbox_of = self._inbox_of
        on_round = algorithm.on_round

        pending_receivers = self._pending_receivers
        while metrics.rounds < max_rounds:
            if not self._active and not pending_receivers and not awake:
                # Silent: the next round that can execute anything is a
                # pending timer or a scheduled fault event.
                if timer_pos < num_timers and (timer_probe is None or timer_probe()):
                    forced = timers[timer_pos]
                else:
                    if composed:
                        advanced = False
                        for ctx in nodes:
                            if ctx.node_id in crashed:
                                continue
                            if algorithm.advance_stage(ctx):
                                advanced = True
                            ctx._sent_this_round.clear()
                        if advanced:
                            # The newly active stage may declare its own
                            # deadlines, relative to its start: rebase them
                            # to absolute rounds at the hand-off point.
                            timers = algorithm.rebase_timers(metrics.rounds)
                            num_timers = len(timers)
                            timer_pos = 0
                            if num_timers:
                                algorithm.current_round = metrics.rounds
                            continue
                    forced = None
                # A recovery can re-inject work and a crash wipes observable
                # state, so a quiescent run still plays its fault schedule out.
                if event_pos < num_events and (
                    forced is None or event_rounds[event_pos] < forced
                ):
                    forced = event_rounds[event_pos]
                if forced is None:
                    # Quiescent: no message in flight, every node halted.
                    metrics.terminated = True
                    metrics.messages_sent = (
                        metrics.messages_delivered
                        + metrics.messages_dropped
                        - metrics.messages_duplicated
                        - backlog_start
                    )
                    self._structures_clean = True
                    return metrics
                # Every round before the forced one provably executes
                # nothing: charge the stretch in one step and run it.
                jump = forced - 1
                if jump > metrics.rounds:
                    metrics.rounds = jump if jump < max_rounds else max_rounds
                    if metrics.rounds >= max_rounds:
                        continue

            metrics.rounds += 1
            timer_fired = False
            if timer_pos < num_timers:
                algorithm.current_round = metrics.rounds
                if timers[timer_pos] <= metrics.rounds:
                    timer_fired = True
                    timer_pos += 1
                    while timer_pos < num_timers and timers[timer_pos] <= metrics.rounds:
                        timer_pos += 1
            elif num_timers:
                algorithm.current_round = metrics.rounds
            if adversary is not None:
                while event_pos < num_events and event_rounds[event_pos] <= metrics.rounds:
                    event_pos += 1
                events = adversary.begin_round(metrics.rounds)
                if events:
                    self._apply_fault_events(events, algorithm, crashed, metrics)
            if express:
                # Express flip: the pending lists ARE the inboxes; swap them
                # with the (empty) inbox pool so both recycle with zero
                # allocation, and account deliveries per receiver.
                if pending_receivers:
                    receivers = pending_receivers.copy()
                    pending_receivers.clear()
                    delivered = 0
                    for v in receivers:
                        plist = pending[v]
                        delivered += len(plist)
                        inbox_of[v], pending[v] = plist, inbox_of[v]
                    metrics.messages_delivered += delivered
                    if not metrics.max_link_backlog:
                        metrics.max_link_backlog = 1
                else:
                    receivers = ()
            else:
                receivers = self._deliver(metrics, on_deliver, crashed)

            # The ids to run this round, ascending (matching the legacy
            # full-scan order): awake nodes plus this round's receivers —
            # or every live node when a timer is due.  sorted() copies, so
            # handlers are free to halt()/wake().
            if timer_fired:
                to_run = range(len(nodes))
                if crashed:
                    to_run = sorted(set(to_run) - crashed)
            elif not awake:
                to_run = sorted(receivers)
            elif receivers:
                to_run = sorted(awake.union(receivers))
            else:
                to_run = sorted(awake)
            for v in to_run:
                ctx = nodes[v]
                inbox = inbox_of[v]
                if inbox:
                    if ctx.halted:
                        # Engine-level wake with deferred registration: most
                        # receivers halt again before their handler returns,
                        # so the awake set is only touched when the node
                        # actually stays awake (halt()/wake() calls inside
                        # the handler keep the set consistent on their own).
                        ctx.halted = False
                        on_round(ctx, inbox)
                        if not ctx.halted:
                            awake.add(v)
                    else:
                        on_round(ctx, inbox)
                    inbox.clear()
                else:
                    on_round(ctx, _NO_MESSAGES)
                ctx._sent_this_round.clear()

        metrics.messages_sent = (
            metrics.messages_delivered
            + metrics.messages_dropped
            - metrics.messages_duplicated
            + self._pending_backlog()
            - backlog_start
        )
        if express and pending_receivers:
            # Count-at-send ran ahead of the legacy count-at-delivery
            # semantics; retract the messages still awaiting their flip.
            out_links = self._out_links
            for v in pending_receivers:
                for m in self._pending[v]:
                    edge_counts[out_links[m.sender][v] >> 1] -= 1
        self._structures_clean = True
        metrics.terminated = False
        if raise_on_limit:
            if adversary is None:
                raise RoundLimitExceeded(
                    f"algorithm {algorithm.name!r} did not terminate within {max_rounds} rounds",
                    metrics=metrics,
                    last_active_set=len(awake),
                )
            raise PartialRunError(
                f"algorithm {algorithm.name!r} stalled under adversary "
                f"{adversary.name!r}: no quiescence within {max_rounds} rounds",
                metrics=metrics,
                last_active_set=len(awake),
            )
        return metrics

    # ------------------------------------------------------------------
    # bulk execution (vectorized whole-round kernels; see repro.congest.bulk)
    # ------------------------------------------------------------------
    def _warn_bulk_fallback(self, algorithm, reason: str) -> None:
        if reason in self._bulk_fallback_warned:
            return
        self._bulk_fallback_warned.add(reason)
        warnings.warn(
            f"bulk-capable algorithm {algorithm.name!r} falling back to the "
            f"per-node path ({reason})",
            BulkFallbackWarning,
            stacklevel=4,
        )

    def _try_bulk(self, algorithm, max_rounds: int, raise_on_limit: bool, adversary):
        """Attempt a vectorized run; ``None`` means use the per-node path.

        Declined configurations (retry mode, an adversary, whose delivery
        interposition point is per-message) warn once per network so the
        de-optimization is observable; dirty queues and kernel build guards
        (packed-key overflow, the aggregation kernel's operator/rank/resume
        rule) fall back silently — they are per-run conditions, not
        configuration mistakes.
        """
        if not algorithm.bulk_supported():
            if adversary is None and getattr(algorithm, "retry", None) is not None:
                self._warn_bulk_fallback(algorithm, "retry")
            return None
        if adversary is not None:
            self._warn_bulk_fallback(algorithm, "adversary")
            return None
        if self._active or self._pending_receivers or not self._structures_clean:
            return None
        kernel = algorithm.bulk_kernel(self)
        if kernel is None:
            return None
        return self._run_bulk(algorithm, kernel, max_rounds, raise_on_limit)

    def _run_bulk(self, algorithm, kernel, max_rounds: int, raise_on_limit: bool) -> RunMetrics:
        """Drive a bulk kernel round by round.

        The kernel owns all round work; this driver only reproduces the
        per-node loop's round accounting: round 0 is ``start`` (the
        per-node ``initialize``), each event round executes via
        ``bulk_round``, silent stretches are skipped (the per-node engine
        charges them without executing), and a kernel reporting no further
        events terminates with the round count of the last event.
        """
        metrics = RunMetrics()
        self._ran = True
        kernel.start(max_rounds)
        rnd = 0
        terminated = False
        while True:
            nxt = kernel.next_round(rnd)
            if nxt is None:
                terminated = rnd < max_rounds
                break
            if nxt > max_rounds:
                rnd = max_rounds
                break
            rnd = nxt
            kernel.bulk_round(rnd)
            if rnd >= max_rounds:
                break
        kernel.finish(self, metrics, terminated, rnd)
        metrics.rounds = rnd
        metrics.terminated = terminated
        # Queues were never touched, so the network stays cheap-resettable;
        # only the per-link maxima the kernel wrote back need clearing then.
        self._structures_clean = True
        if not terminated and raise_on_limit:
            raise RoundLimitExceeded(
                f"algorithm {algorithm.name!r} did not terminate within {max_rounds} rounds",
                metrics=metrics,
                last_active_set=kernel.awake_at_cutoff(rnd),
            )
        return metrics

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _apply_fault_events(self, events, algorithm, crashed: set, metrics: RunMetrics) -> None:
        """Apply one round's crash/recover events from the adversary."""
        nodes = self._node_list
        awake = self._awake
        inbox_of = self._inbox_of
        for kind, v in events:
            if kind == "crash":
                if v in crashed:
                    continue
                crashed.add(v)
                ctx = nodes[v]
                # The hook runs before the wipe so fleet algorithms can
                # retract this node's entries from their shared bookkeeping.
                algorithm.on_crash(ctx)
                ctx.state = {}
                ctx._payload_ok = None
                ctx.halted = True
                awake.discard(v)
                inbox_of[v].clear()
                metrics.crashes += 1
            elif kind == "recover":
                if v not in crashed:
                    continue
                crashed.discard(v)
                ctx = nodes[v]
                ctx.state = {}
                ctx._payload_ok = None
                ctx.halted = False
                awake.add(v)
                algorithm.on_recover(ctx)
                ctx._sent_this_round.clear()
                metrics.recoveries += 1
            else:
                raise ValueError(f"unknown adversary event kind {kind!r}")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pending_backlog(self) -> int:
        """Messages queued but undelivered (O(active links + pending nodes))."""
        queues = self._queues
        heads = self._heads
        total = sum(len(queues[link]) - heads[link] for link in self._active)
        if self._pending_receivers:
            pending = self._pending
            total += sum(len(pending[v]) for v in self._pending_receivers)
        return total

    def _flush_pending_to_rings(self) -> None:
        """Move leftover express traffic onto the ring buffers.

        Needed when a run is cut off by ``max_rounds`` with express messages
        still in flight and any algorithm follows with ``reset=False``: the
        ring path then delivers them in FIFO order, ahead of the follow-up
        run's own sends on the same links.
        """
        out_links = self._out_links
        queues = self._queues
        heads = self._heads
        link_max = self._link_max_backlog
        is_active = self._is_active
        active = self._active
        pending = self._pending
        for v in self._pending_receivers:
            plist = pending[v]
            for m in plist:
                link = out_links[m.sender][v]
                buf = queues[link]
                buf.append(m)
                backlog = len(buf) - heads[link]
                if backlog > 1 and backlog > link_max[link]:
                    link_max[link] = backlog
                if not is_active[link]:
                    is_active[link] = 1
                    active.append(link)
            plist.clear()
        self._pending_receivers.clear()

    def _deliver(self, metrics: RunMetrics, on_deliver, crashed: set) -> list[int]:
        """Deliver one round of traffic into the pooled inboxes.

        Returns the ids of the nodes that received at least one message.
        Only links on the active worklist are visited.  Fault-free runs
        (``on_deliver`` is ``None``) move each link's quota as one slice.
        Otherwise the adversary's ``on_deliver(link, message, round)``
        rules on every message: ``DROP`` consumes it (it occupied the link);
        ``DUPLICATE`` delivers two copies in the same round; ``HOLD``
        freezes the link's queue for this round (FIFO preserved); messages
        to ``crashed`` nodes are discarded and counted as dropped.
        """
        active = self._active
        receivers: list[int] = []
        if not active:
            return receivers
        bandwidth = self.bandwidth
        queues = self._queues
        heads = self._heads
        receiver_of = self._receiver_of
        link_max = self._link_max_backlog
        edge_counts = metrics._edge_counts
        inbox_of = self._inbox_of
        is_active = self._is_active
        round_no = metrics.rounds
        max_backlog = metrics.max_link_backlog
        still_active: list[int] = []
        delivered = 0
        dropped = 0
        duplicated = 0
        for link in active:
            buf = queues[link]
            head = heads[link]
            size = len(buf)
            receiver = receiver_of[link]
            inbox = inbox_of[receiver]
            had_mail = bool(inbox)
            if on_deliver is None:
                backlog = size - head
                take = backlog if backlog <= bandwidth else bandwidth
                if take == 1:
                    inbox.append(buf[head])
                elif head or take < backlog:
                    inbox.extend(buf[head:head + take])
                else:
                    inbox.extend(buf)
                head += take
                delivered += take
                edge_counts[link >> 1] += take
            else:
                edge = link >> 1
                receiver_crashed = receiver in crashed
                quota = bandwidth
                while quota and head < size:
                    msg = buf[head]
                    if receiver_crashed:
                        head += 1
                        quota -= 1
                        edge_counts[edge] += 1
                        dropped += 1
                        continue
                    action = on_deliver(link, msg, round_no)
                    if action == 3:  # HOLD: freeze this link for the round
                        break
                    head += 1
                    quota -= 1
                    edge_counts[edge] += 1
                    if action == 1:  # DROP
                        dropped += 1
                        continue
                    if action == 2:  # DUPLICATE
                        inbox.append(msg)
                        edge_counts[edge] += 1
                        delivered += 1
                        duplicated += 1
                    inbox.append(msg)
                    delivered += 1
            if head >= size:
                buf.clear()
                if heads[link]:
                    heads[link] = 0
                is_active[link] = 0
            else:
                if head > 64 and head * 2 >= size:
                    del buf[:head]
                    head = 0
                heads[link] = head
                still_active.append(link)
            if inbox and not had_mail:
                receivers.append(receiver)
            lm = link_max[link]
            if lm > max_backlog:
                max_backlog = lm
        if (delivered or dropped) and not max_backlog:
            # Senders only record backlogs above 1; any consumed message
            # implies a backlog of at least 1 was observed.
            max_backlog = 1
        metrics.max_link_backlog = max_backlog
        metrics.messages_delivered += delivered
        metrics.messages_dropped += dropped
        metrics.messages_duplicated += duplicated
        # In-place so the wired NodeContexts' cached reference stays valid.
        active[:] = still_active
        return receivers
