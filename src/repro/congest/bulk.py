"""Vectorized whole-round kernels for regular CONGEST primitives.

The active-set engine is O(touched) per round, but every touched node still
runs a Python callback; on 100k+-node workloads that callback cost dominates
wall time.  The *bulk round protocol* removes it for the regular primitives:
an algorithm declares ``bulk_capable`` and builds a kernel object here, and
``Network._run_bulk`` advances whole rounds with flat array ops over the CSR
directed-link ids — ``np.minimum.at``-style scatter for min-relaxation,
frontier masks for flood/BFS — instead of per-node dispatch.

The per-node path remains authoritative.  Kernels are pinned
**bit-identical** to it (rounds, messages sent/delivered, per-edge traffic,
max link backlog, final node state) by ``tests/test_bulk_kernels.py``; every
modelling decision below exists to reproduce an engine behaviour exactly:

* **Express kernels** (:class:`FloodMaxKernel`, :class:`BFSKernel`): the
  engine's express lane delivers every send in the next round, so one
  pending frontier per round suffices.  Candidate ranking is a packed-key
  ``np.minimum.at``/``np.maximum.at`` scatter over the compacted receiver
  set; the uniform-wave argument (all candidates of round ``r`` carry
  distance ``r``) makes the lexicographic ``(dist, root, sender)`` minimum
  a single integer minimum.
* **Ring kernels** (:class:`FleetKernel`, :class:`PartAggregationKernel`):
  unit-bandwidth ring queues are modelled by one ``avail`` cursor per
  directed link (the next free delivery round) — appending ``k`` messages
  at round ``r`` books delivery rounds ``max(avail, r+1) .. +k`` and bumps
  the cursor, which reproduces FIFO metering exactly.  Activation stamps
  (:class:`_LinkScheduler`) reproduce the engine's active-list order, which
  is what fixes per-receiver inbox order, and the per-round send stream is
  ordered by the engine's ``(node, band, sub)`` dispatch order before
  scheduling.

Fallback rules (enforced by ``Network._try_bulk``): adversarial runs, retry
(ack/retransmit) configurations, composed pipelines and dirty queues all
take the per-node path; the first two warn once per network with
:class:`BulkFallbackWarning` so silent de-optimization is observable.
Kernel build guards decline silently: packed keys that would overflow, and
for :class:`PartAggregationKernel` any operator other than ``min``/``max``,
any value (or identity) without an exact rank (:func:`_rank_key`), and a
resumed algorithm object.

Lint: every kernel declares its mutable state arrays in ``bulk_state``; the
``repro lint`` rule RPR013 flags ``bulk_round`` implementations assigning
``self.<attr>`` outside that tuple.
"""

from __future__ import annotations

from itertools import chain
from math import copysign
from typing import Optional

import numpy as np

from .message import Message

I64 = np.int64
#: Internal "unreached" distance sentinel (labels are exported as the
#: primitives' own sentinels / missing keys at finish time).
_HUGE = np.iinfo(np.int64).max
UNREACHED = -1
#: Packed ``((dist + 1) * n + root) * n + sender`` keys must fit in int64.
_PACKED_NODE_LIMIT = 2_000_000


class BulkFallbackWarning(RuntimeWarning):
    """A bulk-capable algorithm fell back to the per-node path.

    Emitted once per network and reason (``"retry"``, ``"adversary"``) so a
    de-optimized run is observable without spamming sweeps that fall back
    thousands of times on purpose.
    """


def _ranks(counts: np.ndarray) -> np.ndarray:
    """Within-group rank ``0..count-1`` for groups of the given sizes."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=I64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=I64) - np.repeat(ends - counts, counts)


def _flat_slices(starts: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions of each node's CSR slice, concatenated in node order.

    Returns ``(positions, counts)`` where ``positions`` indexes the flat
    ``targets``/``links`` arrays and ``counts[i]`` is node ``i``'s slice
    length — the vectorized equivalent of per-node ``starts[v]:starts[v+1]``
    slicing.
    """
    counts = starts[nodes + 1] - starts[nodes]
    return np.repeat(starts[nodes], counts) + _ranks(counts), counts


def _rank_key(value):
    """Exact identity of a value the ranked fold may take, else ``None``.

    Ranked folding replaces pairwise ``min``/``max`` with an integer-rank
    extremum, which is only sound for totally ordered values: plain numbers,
    strings, bytes, and tuples thereof.  Partial orders (sets) and NaN are
    excluded — their pairwise fold is order-dependent.  The key also tells
    apart values that compare equal but are not interchangeable (``1``,
    ``1.0`` and ``True``; ``0.0`` and ``-0.0``; element by element inside
    tuples): one rank would stand for whichever of them came first, not for
    what the per-node fold returns.
    """
    cls = type(value)
    if isinstance(value, float):
        return (cls, value, copysign(1.0, value)) if value == value else None
    if isinstance(value, tuple):
        keys = tuple(map(_rank_key, value))
        return None if None in keys else (cls, keys)
    if isinstance(value, (bool, int, str, bytes)):
        return (cls, value)
    return None


def _rank_table(algorithm) -> Optional[list]:
    """Sorted distinct values (identity included) of a part aggregation.

    ``None`` when some value has no exact rank: unrankable (:func:`_rank_key`),
    equal to a distinct value of another type or sign, or not comparable
    with the rest (``int`` mixed with ``str``).
    """
    seen: dict = {}
    pool = chain((algorithm.identity,), *(vals.values() for vals in algorithm.values))
    for value in pool:
        key = _rank_key(value)
        if key is None or seen.setdefault(value, key) != key:
            return None
    try:
        return sorted(seen)
    except TypeError:
        return None


class _LinkScheduler:
    """Event-time model of the engine's unit-bandwidth ring queues.

    Per directed link, ``avail`` is the next free delivery round: appending
    ``k`` messages during round ``r`` books delivery rounds
    ``base .. base + k - 1`` with ``base = max(avail, r + 1)`` and advances
    ``avail`` to ``base + k`` — exactly one delivery per link per round, FIFO.

    ``act`` reproduces the engine's active-list order: a link whose queue is
    empty at append time (``avail <= r + 1``) is (re)activated and receives a
    fresh globally increasing stamp, assigned in the order of each link's
    first send within the round's send stream.  Sorting a round's deliveries
    by ``act`` therefore reproduces per-receiver inbox order.

    ``linkmax`` mirrors the engine's send-time backlog recording: the
    backlog after the group's last append is ``base + k - 1 - r``; values
    below 2 are filtered at read time (the engine never records backlog 1).
    ``recorded_max`` folds only values from rounds the run's metric can
    observe (sends at ``rnd == max_rounds`` are recorded in ``linkmax`` for
    follow-up ``reset=False`` runs but never read by this run's deliveries).
    """

    __slots__ = ("avail", "act", "seq", "linkmax", "recorded_max")

    def __init__(self, num_links: int) -> None:
        self.avail = np.zeros(num_links, dtype=I64)
        self.act = np.zeros(num_links, dtype=I64)
        self.seq = 0
        self.linkmax = np.zeros(num_links, dtype=I64)
        self.recorded_max = 0

    def schedule(self, rnd: int, links: np.ndarray, record: bool) -> tuple[np.ndarray, np.ndarray]:
        """Book delivery rounds for sends made during round ``rnd``.

        ``links`` is the round's full send stream in engine dispatch order.
        Returns ``(delivery_rounds, activation_stamps)`` parallel to it.
        """
        nsend = len(links)
        order = np.argsort(links, kind="stable")
        slinks = links[order]
        firsts = np.flatnonzero(np.r_[True, slinks[1:] != slinks[:-1]])
        glinks = slinks[firsts]
        counts = np.diff(np.append(firsts, nsend))
        prev_avail = self.avail[glinks]
        base = np.maximum(prev_avail, rnd + 1)
        newly = np.flatnonzero(prev_avail <= rnd + 1)
        if len(newly):
            # Stamp empty->nonempty transitions in the order of each link's
            # first send in the stream (engine active-list append order).
            first_orig = order[firsts[newly]]
            na_order = newly[np.argsort(first_orig, kind="stable")]
            self.act[glinks[na_order]] = self.seq + np.arange(len(na_order), dtype=I64)
            self.seq += len(na_order)
        sdeliv = np.repeat(base, counts) + _ranks(counts)
        self.avail[glinks] = base + counts
        if record:
            gmax = base + counts - 1 - rnd
            np.maximum(self.linkmax[glinks], gmax, out=gmax)
            self.linkmax[glinks] = gmax
            top = int(gmax.max())
            if top > self.recorded_max:
                self.recorded_max = top
        else:
            # Sends at the cutoff round are still recorded for follow-up
            # reset=False runs (the engine's link_max list keeps them), but
            # this run's metric never reads them.
            gmax = base + counts - 1 - rnd
            np.maximum(self.linkmax[glinks], gmax, out=gmax)
            self.linkmax[glinks] = gmax
        deliv = np.empty(nsend, dtype=I64)
        deliv[order] = sdeliv
        return deliv, self.act[links]


def _bucket_push(buckets: dict, deliv: np.ndarray, cols: tuple) -> None:
    """Split column arrays by delivery round into the round-bucket dict."""
    order = np.argsort(deliv, kind="stable")
    sd = deliv[order]
    firsts = np.flatnonzero(np.r_[True, sd[1:] != sd[:-1]])
    bounds = np.append(firsts, len(sd))
    for i, f in enumerate(firsts):
        rnd = int(sd[f])
        sel = order[f:bounds[i + 1]]
        chunk = tuple(c[sel] for c in cols)
        prev = buckets.get(rnd)
        if prev is None:
            buckets[rnd] = chunk
        else:
            buckets[rnd] = tuple(
                np.concatenate((a, b)) for a, b in zip(prev, chunk)
            )


def _halt_all(network) -> None:
    """Leave every node halted, as a quiesced per-node run would."""
    for ctx in network._node_list:
        ctx.halted = True
    network._awake.clear()


def _finish_metrics(kernel, network, metrics) -> None:
    """Fill the shared RunMetrics fields every kernel accounts identically."""
    metrics.messages_sent = kernel.sent
    metrics.messages_delivered = kernel.delivered
    metrics._edge_counts = kernel.edge_counts.tolist()
    metrics._edge_list = network._csr.edge_list


# ----------------------------------------------------------------------
# express kernels (single-channel algorithms: every send lands next round)
# ----------------------------------------------------------------------
class FloodMaxKernel:
    """Bulk twin of :class:`~repro.congest.primitives.leader.FloodMax`.

    Only the unrestricted configuration (``allowed_adjacency is None``) is
    bulk-eligible, so every node participates and announces at round 0; the
    per-round step is a compacted ``np.maximum.at`` scatter over this
    round's receivers followed by a frontier expansion of the strict
    improvements.
    """

    bulk_state = ("leader", "pending", "sent", "delivered", "edge_counts")

    def __init__(self, algorithm, network) -> None:
        csr = network._csr
        arrays = csr.adjacency_arrays()
        self.n = csr.num_vertices
        self.indptr = np.asarray(csr.indptr, dtype=I64)
        self.indices = arrays.indices
        self.adj_edges = arrays.edge_ids
        self.key_leader = algorithm._key_leader
        self.tag = algorithm._tag_max
        self.algorithm_id = algorithm.algorithm_id
        self.leader = np.arange(self.n, dtype=I64)
        self.pending: Optional[tuple] = None
        self.sent = 0
        self.delivered = 0
        self.edge_counts = np.zeros(csr.num_edges, dtype=I64)

    @classmethod
    def build(cls, algorithm, network) -> Optional["FloodMaxKernel"]:
        return cls(algorithm, network)

    def _expand(self, nodes: np.ndarray) -> None:
        """Announce ``leader[nodes]`` to every neighbour (next-round pending)."""
        flat, counts = _flat_slices(self.indptr, nodes)
        if not len(flat):
            self.pending = None
            return
        targets = self.indices[flat]
        edges = self.adj_edges[flat]
        values = np.repeat(self.leader[nodes], counts)
        senders = np.repeat(nodes, counts)
        self.sent += len(targets)
        self.pending = (targets, edges, values, senders)

    def start(self, max_rounds: int) -> None:
        # initialize: every node sets leader = own id and announces it.
        self._expand(np.arange(self.n, dtype=I64))

    def next_round(self, after: int) -> Optional[int]:
        return after + 1 if self.pending is not None else None

    def bulk_round(self, rnd: int) -> None:
        targets, edges, values, _ = self.pending
        self.delivered += len(targets)
        self.edge_counts += np.bincount(edges, minlength=len(self.edge_counts))
        uniq, inv = np.unique(targets, return_inverse=True)
        best = np.full(len(uniq), -1, dtype=I64)
        np.maximum.at(best, inv, values)
        improved = best > self.leader[uniq]
        frontier = uniq[improved]
        if len(frontier):
            self.leader[frontier] = best[improved]
            self._expand(frontier)
        else:
            self.pending = None

    def awake_at_cutoff(self, rnd: int) -> int:
        return 0

    def finish(self, network, metrics, terminated: bool, final_round: int) -> None:
        _finish_metrics(self, network, metrics)
        metrics.max_link_backlog = 1 if self.delivered else 0
        if self.pending is not None:
            targets, _, values, senders = self.pending
            tag, aid = self.tag, self.algorithm_id
            _spill_express(network, (
                (t, Message(s, -1, tag, v, aid))
                for t, v, s in zip(
                    targets.tolist(), values.tolist(), senders.tolist()
                )
            ))
            self.pending = None
        key = self.key_leader
        leaders = self.leader.tolist()
        for ctx, lead in zip(network._node_list, leaders):
            ctx.state[key] = lead
        _halt_all(network)


class BFSKernel:
    """Bulk twin of :class:`~repro.congest.primitives.bfs.DistributedBFS`.

    Eligible without retry mode and without a dict-of-sets adjacency
    restriction (a CSR ``allowed_links`` mask or the full adjacency both
    vectorize).  The uniform-wave property of an express-lane BFS — every
    candidate delivered at round ``r`` offers distance exactly ``r`` — turns
    the engine's lexicographic ``(dist, root, sender)`` minimum into a
    ``np.minimum.at`` over packed ``root * n + sender`` keys on the
    still-improvable receivers.
    """

    bulk_state = ("dist", "parent", "root", "pending", "sent", "delivered",
                  "edge_counts")

    def __init__(self, algorithm, network) -> None:
        csr = network._csr
        n = csr.num_vertices
        self.n = n
        mask = algorithm.allowed_links
        if mask is not None:
            self.starts, self.targets, self.links = mask.arrays()
        else:
            arrays = csr.adjacency_arrays()
            self.starts = np.asarray(csr.indptr, dtype=I64)
            self.targets = arrays.indices
            self.links = arrays.adj_link_ids
        self.sources = np.asarray(sorted(algorithm.sources), dtype=I64)
        md = algorithm.max_depth
        self.max_depth = _HUGE if md is None else md
        self.key_dist = algorithm._key_dist
        self.key_parent = algorithm._key_parent
        self.key_root = algorithm._key_root
        self.tag = algorithm._tag_explore
        self.algorithm_id = algorithm.algorithm_id
        self.dist = np.full(n, _HUGE, dtype=I64)
        self.parent = np.full(n, -1, dtype=I64)
        self.root = np.full(n, -1, dtype=I64)
        # reset=False composition: DistributedBFS reads prior state under
        # its own keys, so preload any labels an earlier run left behind.
        node_list = network._node_list
        if any(ctx.state for ctx in node_list):
            kd, kp, kr = self.key_dist, self.key_parent, self.key_root
            for v, ctx in enumerate(node_list):
                d = ctx.state.get(kd)
                if d is not None:
                    self.dist[v] = d
                    self.parent[v] = ctx.state[kp]
                    self.root[v] = ctx.state[kr]
        self.pending: Optional[tuple] = None
        self.sent = 0
        self.delivered = 0
        self.edge_counts = np.zeros(csr.num_edges, dtype=I64)

    @classmethod
    def build(cls, algorithm, network) -> Optional["BFSKernel"]:
        if network._csr.num_vertices > _PACKED_NODE_LIMIT:
            return None
        return cls(algorithm, network)

    def _expand(self, nodes: np.ndarray) -> None:
        """Announce from ``nodes`` (packed next-round candidate keys)."""
        flat, counts = _flat_slices(self.starts, nodes)
        if not len(flat):
            self.pending = None
            return
        targets = self.targets[flat]
        edges = self.links[flat] >> 1
        packed = np.repeat(self.root[nodes] * self.n + nodes, counts)
        self.sent += len(targets)
        self.pending = (targets, edges, packed)

    def start(self, max_rounds: int) -> None:
        src = self.sources
        self.dist[src] = 0
        self.parent[src] = src
        self.root[src] = src
        if 0 < self.max_depth:
            self._expand(src)

    def next_round(self, after: int) -> Optional[int]:
        return after + 1 if self.pending is not None else None

    def bulk_round(self, rnd: int) -> None:
        targets, edges, packed = self.pending
        self.delivered += len(targets)
        self.edge_counts += np.bincount(edges, minlength=len(self.edge_counts))
        uniq, inv = np.unique(targets, return_inverse=True)
        best = np.full(len(uniq), _HUGE, dtype=I64)
        np.minimum.at(best, inv, packed)
        improved = rnd < self.dist[uniq]
        frontier = uniq[improved]
        if len(frontier):
            bpk = best[improved]
            n = self.n
            self.dist[frontier] = rnd
            self.root[frontier] = bpk // n
            self.parent[frontier] = bpk % n
        if len(frontier) and rnd < self.max_depth:
            self._expand(frontier)
        else:
            self.pending = None

    def awake_at_cutoff(self, rnd: int) -> int:
        return 0

    def finish(self, network, metrics, terminated: bool, final_round: int) -> None:
        _finish_metrics(self, network, metrics)
        metrics.max_link_backlog = 1 if self.delivered else 0
        if self.pending is not None:
            targets, _, packed = self.pending
            n = self.n
            senders = packed % n
            roots = packed // n
            dists = self.dist[senders]
            tag, aid = self.tag, self.algorithm_id
            _spill_express(network, (
                (t, Message(s, -1, tag, (d, r), aid))
                for t, s, d, r in zip(
                    targets.tolist(), senders.tolist(),
                    dists.tolist(), roots.tolist(),
                )
            ))
            self.pending = None
        reached = np.flatnonzero(self.dist < _HUGE)
        kd, kp, kr = self.key_dist, self.key_parent, self.key_root
        node_list = network._node_list
        dl = self.dist[reached].tolist()
        pl = self.parent[reached].tolist()
        rl = self.root[reached].tolist()
        for v, d, p, r in zip(reached.tolist(), dl, pl, rl):
            state = node_list[v].state
            state[kd] = d
            state[kp] = p
            state[kr] = r
        _halt_all(network)


# ----------------------------------------------------------------------
# ring kernels (multi-channel algorithms: metered unit-bandwidth queues)
# ----------------------------------------------------------------------
def _ring_backlog(kernel) -> int:
    """The run's ``max_link_backlog`` under the ring-queue model.

    The engine folds the live ``link_max`` list value of every delivered
    link (inherited values from earlier ``reset=False`` runs included) and
    floors at 1 once anything delivered; every kernel-recorded value from a
    round the run observes is folded by that link's next delivery, so the
    scalar maxima are exact.
    """
    if not kernel.delivered:
        return 0
    return max(1, kernel.sched.recorded_max, kernel.seen_linkmax)


def _writeback_linkmax(kernel, network) -> None:
    """Max-merge recorded backlogs into the network's shared link_max list.

    In place — the list object is aliased by every NodeContext.  Values
    below 2 are skipped: they cannot change any later run's folded metric
    (any delivery floors it at 1).
    """
    lm = network._link_max_backlog
    km = kernel.sched.linkmax
    hot = np.flatnonzero(km >= 2)
    for link, val in zip(hot.tolist(), km[hot].tolist()):
        if val > lm[link]:
            lm[link] = val


def _prune_pending(pending: dict, final_round: int) -> None:
    """Drop start entries the run executed, as per-node popping would."""
    for v in list(pending):
        keep = [entry for entry in pending[v] if entry[0] > final_round]
        if keep:
            pending[v] = keep
        else:
            del pending[v]


# ----------------------------------------------------------------------
# cutoff spill: a round-limited per-node run leaves its undelivered
# traffic in the network queues, where a ``reset=False`` follow-up run
# delivers and counts it.  Kernels reconstruct that state exactly.
# ----------------------------------------------------------------------
def _spill_express(network, stream) -> None:
    """Materialize undelivered express traffic into ``network._pending``.

    ``stream`` yields ``(target, message)`` in send order; receiver pools
    and the first-touch ``_pending_receivers`` order match what
    ``NodeContext.multicast`` would have built during the cutoff round.
    """
    pending = network._pending
    receivers = network._pending_receivers
    for target, msg in stream:
        pool = pending[target]
        if not pool:
            receivers.append(target)
        pool.append(msg)


def _spill_ring(network, entries) -> None:
    """Materialize undelivered ring traffic into ``network._queues``.

    ``entries`` is a list of ``(act_stamp, link, message)`` with per-link
    FIFO order (iterate delivery rounds ascending: unit bandwidth means at
    most one delivery per link per round).  The rebuilt active list is
    sorted by activation stamp, which is the engine's activation-time
    insertion order.
    """
    queues = network._queues
    is_active = network._is_active
    first_act: dict[int, int] = {}
    for act, link, msg in entries:
        queues[link].append(msg)
        if link not in first_act:
            first_act[link] = act
    for link in sorted(first_act, key=first_act.get):
        if not is_active[link]:
            is_active[link] = 1
            network._active.append(link)


class FleetKernel:
    """Bulk twin of :class:`~repro.congest.primitives.concurrent_bfs.
    ConcurrentMaskedBFS` (non-retry fleets).

    Participants of every instance get a *slot* (``slot_keys`` is
    instance-major, node-sorted, so ``np.searchsorted`` resolves
    ``(instance, node)`` pairs); labels, announce slices and the relaxation
    all operate on flat per-slot arrays.  Per round, delivered candidates
    are ranked by the packed ``((dist + 1) * n + root) * n + sender`` key —
    a single ``np.minimum.at`` reproduces the per-node lexicographic
    ``(dist, root, sender)`` minimum — and improvements re-announce over
    their mask slices, minus the same-round senders the parent-echo
    suppression provably cannot improve.
    """

    bulk_state = ("dist", "parent", "root", "buckets", "start_events",
                  "sent", "delivered", "edge_counts", "seen_linkmax",
                  "max_rounds")

    def __init__(self, algorithm, network) -> None:
        self.alg = algorithm
        csr = network._csr
        n = csr.num_vertices
        self.n = n
        num = len(algorithm.sources)
        self.max_depth = algorithm.max_depth
        self.suppress = algorithm.suppress_parent_echo
        arrays = [mask.arrays() for mask in algorithm.masks]
        parts = [
            np.unique(np.append(arr[1], algorithm.sources[idx])).astype(I64, copy=False)
            for idx, arr in enumerate(arrays)
        ]
        counts_per = np.asarray([len(p) for p in parts], dtype=I64)
        self.slot_v = np.concatenate(parts) if num else np.empty(0, dtype=I64)
        self.slot_i = np.repeat(np.arange(num, dtype=I64), counts_per)
        self.slot_keys = self.slot_i * n + self.slot_v
        num_slots = len(self.slot_keys)
        seg_t, seg_l, seg_c = [], [], []
        for idx, (mstarts, mtargets, mlinks) in enumerate(arrays):
            flat, cnts = _flat_slices(mstarts, parts[idx])
            seg_t.append(mtargets[flat])
            seg_l.append(mlinks[flat])
            seg_c.append(cnts)
        self.ann_targets = np.concatenate(seg_t) if num else np.empty(0, dtype=I64)
        self.ann_links = np.concatenate(seg_l) if num else np.empty(0, dtype=I64)
        cnts_all = np.concatenate(seg_c) if num else np.empty(0, dtype=I64)
        self.ann_starts = np.concatenate(([0], np.cumsum(cnts_all))).astype(I64)
        ann_insts = np.repeat(self.slot_i, cnts_all)
        self.ann_tslot = np.searchsorted(
            self.slot_keys, ann_insts * n + self.ann_targets
        )
        # Labels, preloaded: a reused fleet object keeps its labels between
        # runs and the per-node relaxation would see them.
        self.dist = np.full(num_slots, _HUGE, dtype=I64)
        self.parent = np.full(num_slots, UNREACHED, dtype=I64)
        self.root = np.full(num_slots, UNREACHED, dtype=I64)
        offsets = np.concatenate(([0], np.cumsum(counts_per))).astype(I64)
        for idx in range(num):
            base = int(offsets[idx])
            p = parts[idx]
            cont = algorithm.dist[idx]
            if isinstance(cont, list):
                seg = np.asarray(cont, dtype=I64)[p]
                hit = np.flatnonzero(seg != UNREACHED)
                if len(hit):
                    self.dist[base + hit] = seg[hit]
                    pseg = np.asarray(algorithm.parent[idx], dtype=I64)
                    rseg = np.asarray(algorithm.root[idx], dtype=I64)
                    self.parent[base + hit] = pseg[p[hit]]
                    self.root[base + hit] = rseg[p[hit]]
            elif cont:
                par = algorithm.parent[idx]
                rt = algorithm.root[idx]
                size = len(p)
                for v, d in cont.items():
                    j = int(np.searchsorted(p, v))
                    if j < size and p[j] == v and d != UNREACHED:
                        self.dist[base + j] = d
                        self.parent[base + j] = par[v]
                        self.root[base + j] = rt[v]
        # Start schedule from the algorithm's remaining pending entries
        # (delays <= 0 fire during initialize, i.e. round 0); ticking
        # sources mirror the per-node __cmb_round counter at finish.
        events: dict[int, list] = {}
        tick_last: dict[int, int] = {}
        for v, lst in algorithm._pending.items():
            last = 0
            for delay, idx in lst:
                events.setdefault(max(delay, 0), []).append((v, delay, idx))
                if delay > last:
                    last = delay
            if last > 0:
                tick_last[v] = last
        self.start_events = {rnd: sorted(ev) for rnd, ev in events.items()}
        self.tick_last = tick_last
        self.sched = _LinkScheduler(2 * csr.num_edges)
        self.inherited = np.asarray(network._link_max_backlog, dtype=I64)
        self.buckets: dict[int, tuple] = {}
        self.sent = 0
        self.delivered = 0
        self.edge_counts = np.zeros(csr.num_edges, dtype=I64)
        self.seen_linkmax = 0
        self.max_rounds = 0

    @classmethod
    def build(cls, algorithm, network) -> Optional["FleetKernel"]:
        if network.bandwidth != 1 or network.strict_bandwidth:
            return None
        if network._csr.num_vertices > _PACKED_NODE_LIMIT:
            return None
        return cls(algorithm, network)

    def start(self, max_rounds: int) -> None:
        self.max_rounds = max_rounds
        self._do_round(0, self.start_events.pop(0, None), None)

    def next_round(self, after: int) -> Optional[int]:
        if self.buckets:
            # Every nonempty link queue delivers next round, so the earliest
            # pending delivery is always exactly one round away.
            return after + 1
        if self.start_events:
            return min(self.start_events)
        return None

    def bulk_round(self, rnd: int) -> None:
        self._do_round(
            rnd, self.start_events.pop(rnd, None), self.buckets.pop(rnd, None)
        )

    def _do_round(self, rnd: int, starts, chunk) -> None:
        n = self.n
        stream0 = stream1 = None
        if starts:
            vs = np.asarray([e[0] for e in starts], dtype=I64)
            idxs = np.asarray([e[2] for e in starts], dtype=I64)
            slots = np.searchsorted(self.slot_keys, idxs * n + vs)
            self.dist[slots] = 0
            self.parent[slots] = vs
            self.root[slots] = vs
            if 0 < self.max_depth:
                flat, cnts = _flat_slices(self.ann_starts, slots)
                if len(flat):
                    nodes = np.repeat(vs, cnts)
                    stream0 = (
                        nodes,
                        np.repeat(np.arange(len(slots), dtype=I64), cnts),
                        self.ann_links[flat],
                        self.ann_targets[flat],
                        self.ann_tslot[flat],
                        nodes,
                        np.zeros(len(flat), dtype=I64),
                        np.repeat(vs, cnts),
                    )
        if chunk is not None:
            acts, links, targets, tslots, senders, dists, roots = chunk
            self.delivered += len(links)
            self.edge_counts += np.bincount(
                links >> 1, minlength=len(self.edge_counts)
            )
            seen = int(self.inherited[links].max())
            if seen > self.seen_linkmax:
                self.seen_linkmax = seen
            order = np.lexsort((acts, targets))
            slots_s = tslots[order]
            senders_s = senders[order]
            dists_s = dists[order]
            roots_s = roots[order]
            uq, first_pos, inv = np.unique(
                slots_s, return_index=True, return_inverse=True
            )
            packed = ((dists_s + 1) * n + roots_s) * n + senders_s
            best = np.full(len(uq), _HUGE, dtype=I64)
            np.minimum.at(best, inv, packed)
            nd = best // (n * n)
            rem = best - nd * n * n
            improved = nd < self.dist[uq]
            win = np.flatnonzero(improved)
            if len(win):
                islots = uq[win]
                self.dist[islots] = nd[win]
                self.root[islots] = rem[win] // n
                self.parent[islots] = rem[win] % n
            announcing = np.flatnonzero(improved & (nd < self.max_depth))
            if len(announcing):
                # Per-node announce order: instances in first-message order.
                announcing = announcing[
                    np.argsort(first_pos[announcing], kind="stable")
                ]
                a_slots = uq[announcing]
                flat, cnts = _flat_slices(self.ann_starts, a_slots)
                e_nodes = np.repeat(self.slot_v[a_slots], cnts)
                e_sub = np.repeat(np.arange(len(a_slots), dtype=I64), cnts)
                e_links = self.ann_links[flat]
                e_targets = self.ann_targets[flat]
                e_tslots = self.ann_tslot[flat]
                e_d = np.repeat(self.dist[a_slots], cnts)
                e_root = np.repeat(self.root[a_slots], cnts)
                if self.suppress:
                    # Same-round senders whose announced distance is within
                    # one of the new label cannot be improved by the echo.
                    supp = improved[inv] & (dists_s <= self.dist[slots_s] + 1)
                    if supp.any():
                        supp_keys = np.unique(
                            inv[supp] * n + senders_s[supp]
                        )
                        e_uqpos = np.repeat(announcing, cnts)
                        keep = ~np.isin(e_uqpos * n + e_targets, supp_keys)
                        e_nodes = e_nodes[keep]
                        e_sub = e_sub[keep]
                        e_links = e_links[keep]
                        e_targets = e_targets[keep]
                        e_tslots = e_tslots[keep]
                        e_d = e_d[keep]
                        e_root = e_root[keep]
                if len(e_links):
                    stream1 = (e_nodes, e_sub, e_links, e_targets, e_tslots,
                               e_nodes, e_d, e_root)
        if stream0 is None and stream1 is None:
            return
        if stream1 is None:
            cols = stream0
            bands = np.zeros(len(cols[0]), dtype=I64)
        elif stream0 is None:
            cols = stream1
            bands = np.zeros(len(cols[0]), dtype=I64)
        else:
            cols = tuple(np.concatenate(pair) for pair in zip(stream0, stream1))
            bands = np.concatenate((
                np.zeros(len(stream0[0]), dtype=I64),
                np.ones(len(stream1[0]), dtype=I64),
            ))
        nodes, subs, links, targets, tslots, senders, dists, roots = cols
        order = np.lexsort((subs, bands, nodes))
        links_o = links[order]
        deliv, acts = self.sched.schedule(rnd, links_o, rnd < self.max_rounds)
        self.sent += len(links_o)
        _bucket_push(self.buckets, deliv, (
            acts, links_o, targets[order], tslots[order], senders[order],
            dists[order], roots[order],
        ))

    def awake_at_cutoff(self, rnd: int) -> int:
        return sum(
            1 for lst in self.alg._pending.values()
            if lst and lst[-1][0] > rnd
        )

    def _spill(self, network) -> None:
        tags = self.alg.tags
        slot_i = self.slot_i
        entries = []
        for rnd in sorted(self.buckets):
            acts, links, targets, tslots, senders, dists, roots = \
                self.buckets[rnd]
            idxs = slot_i[tslots].tolist()
            for act, link, sender, d, r, idx in zip(
                acts.tolist(), links.tolist(), senders.tolist(),
                dists.tolist(), roots.tolist(), idxs,
            ):
                entries.append(
                    (act, link, Message(sender, -1, tags[idx], (d, r), idx))
                )
        self.buckets.clear()
        _spill_ring(network, entries)

    def finish(self, network, metrics, terminated: bool, final_round: int) -> None:
        alg = self.alg
        _finish_metrics(self, network, metrics)
        metrics.max_link_backlog = _ring_backlog(self)
        _writeback_linkmax(self, network)
        if self.buckets:
            self._spill(network)
        reached = np.flatnonzero(self.dist != _HUGE)
        vs = self.slot_v[reached].tolist()
        idxs = self.slot_i[reached].tolist()
        ds = self.dist[reached].tolist()
        ps = self.parent[reached].tolist()
        rs = self.root[reached].tolist()
        dist_c, par_c, root_c = alg.dist, alg.parent, alg.root
        for i, v, d, p, r in zip(idxs, vs, ds, ps, rs):
            dist_c[i][v] = d
            par_c[i][v] = p
            root_c[i][v] = r
        _halt_all(network)
        node_list = network._node_list
        for v, last in self.tick_last.items():
            node_list[v].state["__cmb_round"] = min(last, final_round)
        pending = alg._pending
        _prune_pending(pending, final_round)
        for v in pending:
            # Sources still waiting on a start keep ticking past a cutoff.
            node_list[v].halted = False
            network._awake.add(v)


_K_ANN, _K_UP, _K_DOWN = 0, 1, 2


class PartAggregationKernel:
    """Bulk twin of :class:`~repro.congest.primitives.aggregation.
    PartAggregation` (non-retry configurations).

    The announce volume (every participant multicasts its parent pointer
    over its full mask slice) is vectorized, and so is the value plane:
    the kernel only takes ``min``/``max`` over values with an exact rank
    (:func:`_rank_table`), so every distinct value and the identity get an
    integer rank once, convergecast folds are ``np.minimum.at`` /
    ``np.maximum.at`` over ranks, children live in flat arrays, and
    UP/DOWN payloads travel as ranks in the integer columns.  The result
    writes that remain Python loops are O(tree edges) per round instead
    of O(mask edges).

    :meth:`build` declines (returns ``None``, the silent per-node
    fallback) for any other operator, for values without an exact rank,
    and for a resumed algorithm object (non-empty ``_heard`` / ``_done`` /
    ``_child_targets`` / ``_child_values``); the per-node engine is the
    reference for all of them.

    The kernel writes back ``results`` / ``delivered`` (the documented
    accessors) and prunes ``_pending`` exactly like the per-node run.  On
    finish it mirrors heard counts, children, child reports and fired
    slots into the per-node dicts, so a cut-off run resumes per-node.
    """

    bulk_state = ("heard", "done", "buckets", "start_events", "sent",
                  "delivered", "edge_counts", "seen_linkmax", "max_rounds",
                  "last_executed")

    def __init__(self, algorithm, network, rank_table: list) -> None:
        self.alg = algorithm
        csr = network._csr
        n = csr.num_vertices
        self.n = n
        num = len(algorithm.masks)
        self.broadcast = algorithm.broadcast_result
        self.identity = algorithm.identity
        arrays = [mask.arrays() for mask in algorithm.masks]
        # Participants of every instance at once: mask targets and value
        # holders pack into ``idx * n + v`` keys, and one global unique is
        # the (sorted) slot key array — no per-instance unique/union.
        mt_cnt = np.asarray([len(a[1]) for a in arrays], dtype=I64)
        if num and n:
            mt_all = np.concatenate([a[1] for a in arrays])
            mt_keys = mt_all + np.repeat(
                np.arange(num, dtype=I64) * n, mt_cnt
            )
            vkeys = np.asarray(
                [
                    idx * n + v
                    for idx, vals in enumerate(algorithm.values)
                    for v in vals
                ],
                dtype=I64,
            )
            self.slot_keys = np.unique(np.concatenate((mt_keys, vkeys)))
            self.slot_i, self.slot_v = np.divmod(self.slot_keys, n)
            counts_per = np.bincount(self.slot_i, minlength=num)
        else:
            self.slot_keys = np.empty(0, dtype=I64)
            self.slot_i = np.empty(0, dtype=I64)
            self.slot_v = np.empty(0, dtype=I64)
            counts_per = np.zeros(num, dtype=I64)
        num_slots = len(self.slot_keys)
        offsets = np.concatenate(([0], np.cumsum(counts_per))).astype(I64)
        # Announce rows: per instance only the two boundary gathers run;
        # the flat positions resolve globally against the concatenated
        # target/link arrays.
        moff = np.concatenate(([0], np.cumsum(mt_cnt))).astype(I64)
        seg_s, seg_e = [], []
        for idx in range(num):
            mstarts = arrays[idx][0]
            p = self.slot_v[offsets[idx]:offsets[idx + 1]]
            seg_s.append(mstarts[p] + moff[idx])
            seg_e.append(mstarts[p + 1] + moff[idx])
        if num_slots:
            lo = np.concatenate(seg_s)
            cnts_all = np.concatenate(seg_e) - lo
            flat_all = np.repeat(lo, cnts_all) + _ranks(cnts_all)
            cat_l = np.concatenate([a[2] for a in arrays])
            self.ann_targets = mt_all[flat_all]
            self.ann_links = cat_l[flat_all]
        else:
            cnts_all = np.empty(0, dtype=I64)
            self.ann_targets = np.empty(0, dtype=I64)
            self.ann_links = np.empty(0, dtype=I64)
        self.ann_starts = np.concatenate(([0], np.cumsum(cnts_all))).astype(I64)
        ann_insts = np.repeat(self.slot_i, cnts_all)
        self.ann_tslot = np.searchsorted(
            self.slot_keys, ann_insts * n + self.ann_targets
        )
        self.expected = np.diff(self.ann_starts)
        # Python-list mirrors for the per-slot result writes (indexing a
        # numpy scalar per row costs ~10x a list element).
        self.slot_v_list = self.slot_v.tolist()
        self.slot_i_list = self.slot_i.tolist()
        # Parent pointers: invalid trees (parent neither self, UNREACHED,
        # a fellow participant, nor graph-adjacent) abort the build — the
        # caller falls back to the per-node path.  All vectorized: per
        # instance, parent values come from one fancy index (list
        # containers) or one fromiter (dict containers); adjacency and
        # participant membership resolve with two global searchsorteds
        # (``rows * n + indices`` is globally ascending because CSR
        # adjacency rows are).
        self.parent_of = np.full(num_slots, UNREACHED, dtype=I64)
        self.up_link = np.full(num_slots, -1, dtype=I64)
        self.up_tslot = np.full(num_slots, -1, dtype=I64)
        self.valid = True
        for idx in range(num):
            lo, hi = offsets[idx], offsets[idx + 1]
            if lo == hi:
                continue
            p = self.slot_v[lo:hi]
            cont = algorithm.parents[idx]
            try:
                if isinstance(cont, list):
                    arr = np.asarray(cont, dtype=I64)
                    if arr.ndim != 1 or (len(arr) and int(p[-1]) >= len(arr)):
                        self.valid = False
                        return
                    vals = arr[p]
                elif isinstance(cont, dict):
                    # Sort the container once and resolve every participant
                    # with one searchsorted — no per-key Python lookups.
                    kv = np.fromiter(cont.keys(), dtype=I64, count=len(cont))
                    pv = np.fromiter(cont.values(), dtype=I64, count=len(cont))
                    order = np.argsort(kv)
                    kv = kv[order]
                    vals = np.full(len(p), UNREACHED, dtype=I64)
                    if len(kv):
                        j = np.searchsorted(kv, p)
                        jc = np.minimum(j, len(kv) - 1)
                        hit = kv[jc] == p
                        vals[hit] = pv[order][jc[hit]]
                    else:
                        hit = np.zeros(len(p), dtype=bool)
                    if not hit.all():
                        # Absent keys resolve through the container itself:
                        # a defaultdict (the sparse BFS parent map) yields
                        # its default — with the same key-inserting side
                        # effect the per-node path has — while a plain dict
                        # raises and aborts the build.
                        miss = p[~hit].tolist()
                        vals[~hit] = np.fromiter(
                            (cont[v] for v in miss), dtype=I64,
                            count=len(miss),
                        )
                else:
                    vals = np.fromiter(
                        (cont[v] for v in p.tolist()), dtype=I64, count=len(p)
                    )
            except (KeyError, IndexError, TypeError, ValueError):
                self.valid = False
                return
            self.parent_of[lo:hi] = vals
        up = np.flatnonzero(
            (self.parent_of != self.slot_v) & (self.parent_of != UNREACHED)
        )
        if len(up):
            adj = csr.adjacency_arrays()
            row_keys = adj.rows * n + adj.indices
            keys = self.slot_v[up] * n + self.parent_of[up]
            j = np.searchsorted(row_keys, keys)
            jc = np.minimum(j, max(len(row_keys) - 1, 0))
            if not len(row_keys) or not (row_keys[jc] == keys).all():
                self.valid = False
                return
            self.up_link[up] = adj.adj_link_ids[jc]
            pkeys = self.slot_i[up] * n + self.parent_of[up]
            j = np.searchsorted(self.slot_keys, pkeys)
            jc = np.minimum(j, num_slots - 1)
            if not (self.slot_keys[jc] == pkeys).all():
                self.valid = False
                return
            self.up_tslot[up] = jc
        # Convergecast state of a fresh object.  ``n_children`` /
        # ``n_child_vals`` count registrations and reports so fire
        # eligibility is one array test; ``acc_rank`` starts at each
        # slot's own value (the identity for relays) and folds every child
        # report on arrival.
        self.heard = np.zeros(num_slots, dtype=I64)
        self.done = np.zeros(num_slots, dtype=bool)
        self.n_children = np.zeros(num_slots, dtype=I64)
        self.n_child_vals = np.zeros(num_slots, dtype=I64)
        self.rank_table = rank_table
        self.fold_at = np.minimum.at if algorithm.op is min else np.maximum.at
        rank_of = {value: r for r, value in enumerate(rank_table)}
        self.acc_rank = np.full(num_slots, rank_of[self.identity], dtype=I64)
        own_keys: list[int] = []
        own_ranks: list[int] = []
        for idx, vals in enumerate(algorithm.values):
            base = idx * n
            for v, value in vals.items():
                own_keys.append(base + v)
                own_ranks.append(rank_of[value])
        if own_keys:
            pos = np.searchsorted(
                self.slot_keys, np.asarray(own_keys, dtype=I64)
            )
            self.acc_rank[pos] = np.asarray(own_ranks, dtype=I64)
        # Children in registration order, capacity-bounded by the announce
        # rows (masks permit both directions, so a slot's in-degree equals
        # its out-degree); ``n_children`` doubles as the write cursor.
        cap = len(self.ann_targets)
        self.child_t_flat = np.empty(cap, dtype=I64)
        self.child_l_flat = np.empty(cap, dtype=I64)
        self.child_s_flat = np.empty(cap, dtype=I64)
        events: dict[int, list] = {}
        for v, lst in algorithm._pending.items():
            for delay, idx in lst:
                events.setdefault(delay if delay > 0 else 0, []).append(
                    (v, delay, idx)
                )
        # Start rows as column arrays, pre-sorted in per-node event order.
        self.start_events = {}
        for rnd_key, ev in events.items():
            ev.sort()
            self.start_events[rnd_key] = (
                np.asarray([e[0] for e in ev], dtype=I64),
                np.asarray([e[2] for e in ev], dtype=I64),
            )
        self.timer_rounds = sorted(algorithm.wake_at_rounds)
        self.sched = _LinkScheduler(2 * csr.num_edges)
        self.inherited = np.asarray(network._link_max_backlog, dtype=I64)
        self.buckets: dict[int, tuple] = {}
        self.sent = 0
        self.delivered = 0
        self.edge_counts = np.zeros(csr.num_edges, dtype=I64)
        self.seen_linkmax = 0
        self.max_rounds = 0
        self.last_executed = 0

    @classmethod
    def build(cls, algorithm, network) -> Optional["PartAggregationKernel"]:
        if network.bandwidth != 1 or network.strict_bandwidth:
            return None
        n = network._csr.num_vertices
        if (len(algorithm.masks) + 1) * n >= 2**62 or n > _PACKED_NODE_LIMIT:
            return None
        if algorithm.op is not min and algorithm.op is not max:
            return None
        if any(
            algorithm._heard[idx] or algorithm._done[idx]
            or algorithm._child_targets[idx] or algorithm._child_values[idx]
            for idx in range(len(algorithm.masks))
        ):
            return None
        table = _rank_table(algorithm)
        if table is None:
            return None
        kernel = cls(algorithm, network, table)
        return kernel if kernel.valid else None

    def start(self, max_rounds: int) -> None:
        self.max_rounds = max_rounds
        self._do_round(0)

    def next_round(self, after: int) -> Optional[int]:
        cands = []
        if self.buckets:
            cands.append(after + 1)
        if self.start_events:
            cands.append(min(self.start_events))
        for t in self.timer_rounds:
            # Declared timer rounds all execute (the per-node probe keeps
            # them), even when no start or message lands on them.
            if t > after:
                cands.append(t)
                break
        return min(cands) if cands else None

    def bulk_round(self, rnd: int) -> None:
        self._do_round(rnd)

    def _do_round(self, rnd: int) -> None:
        self.last_executed = rnd
        # Column-array chunks of this round's sends, laid out as
        # (node, sub, band, kind, link, target, tslot, sender, ival).
        chunks: list = []
        starts = self.start_events.pop(rnd, None)
        if starts is not None:
            vs, idxs = starts
            slots = np.searchsorted(self.slot_keys, idxs * self.n + vs)
            announcing = np.flatnonzero(self.expected[slots] > 0)
            if len(announcing):
                a_slots = slots[announcing]
                flat, cnts = _flat_slices(self.ann_starts, a_slots)
                nodes = np.repeat(vs[announcing], cnts)
                chunks.append((
                    nodes,
                    np.repeat(announcing.astype(I64), cnts),
                    np.zeros(len(flat), dtype=I64),
                    np.full(len(flat), _K_ANN, dtype=I64),
                    self.ann_links[flat],
                    self.ann_targets[flat],
                    self.ann_tslot[flat],
                    nodes,
                    np.repeat(self.parent_of[a_slots], cnts),
                ))
            isolated = np.flatnonzero(self.expected[slots] == 0)
            if len(isolated):
                # Isolated participants: the per-node start fires inline.
                # Nothing can have reached a fresh slot before its start, so
                # the fire guards hold.
                self._fire_batch_ranked(slots[isolated], isolated, 0, chunks)
        chunk = self.buckets.pop(rnd, None)
        if chunk is not None:
            acts, kinds, links, targets, tslots, senders, ivals = chunk
            self.delivered += len(links)
            self.edge_counts += np.bincount(
                links >> 1, minlength=len(self.edge_counts)
            )
            seen = int(self.inherited[links].max())
            if seen > self.seen_linkmax:
                self.seen_linkmax = seen
            order = np.lexsort((acts, targets))
            kinds_s = kinds[order]
            links_s = links[order]
            targets_s = targets[order]
            tslots_s = tslots[order]
            senders_s = senders[order]
            ivals_s = ivals[order]
            ann = kinds_s == _K_ANN
            np.add.at(self.heard, tslots_s[ann], 1)
            reg = np.flatnonzero(ann & (ivals_s == targets_s))
            if len(reg):
                # Child registrations, batched: the sender announced in
                # this instance, so its slot lookup always hits.  Group the
                # batch by slot (stable, so in-batch order is kept) and
                # place each row at its slot's cursor plus its in-group
                # rank in the flat child arrays.
                rslots = tslots_s[reg]
                rsenders = senders_s[reg]
                ts = np.searchsorted(
                    self.slot_keys, self.slot_i[rslots] * self.n + rsenders
                )
                grp = np.argsort(rslots, kind="stable")
                rs = rslots[grp]
                glen = np.unique(rs, return_counts=True)[1]
                pos = self.ann_starts[rs] + self.n_children[rs] + _ranks(glen)
                self.child_t_flat[pos] = rsenders[grp]
                self.child_l_flat[pos] = links_s[reg][grp] ^ 1
                self.child_s_flat[pos] = ts[grp]
                np.add.at(self.n_children, rslots, 1)
            ups = np.flatnonzero(kinds_s == _K_UP)
            if len(ups):
                np.add.at(self.n_child_vals, tslots_s[ups], 1)
                self.fold_at(self.acc_rank, tslots_s[ups], ivals_s[ups])
            downs = np.flatnonzero(kinds_s == _K_DOWN)
            if len(downs):
                self._downs_ranked(tslots_s[downs], ivals_s[downs], chunks)
            au = kinds_s <= _K_UP
            uq, first = np.unique(tslots_s[au], return_index=True)
            # Fire eligibility as one array test (the per-node
            # ``_maybe_send_up`` guards); the per-node fire order is
            # first-touch order, and the skipped slots would not have
            # advanced the engine's tiebreak counter.
            elig = (
                ~self.done[uq]
                & (self.heard[uq] >= self.expected[uq])
                & (self.n_child_vals[uq] >= self.n_children[uq])
            )
            uq = uq[elig]
            first = first[elig]
            if len(uq):
                fire = uq[np.argsort(first, kind="stable")]
                self._fire_batch_ranked(
                    fire, np.arange(len(fire), dtype=I64), 2, chunks
                )
        if not chunks:
            return
        if len(chunks) == 1:
            vec = chunks[0]
        else:
            # Rows with equal (node, band, sub) keys never span chunks (the
            # only equal-key groups are single multicasts, each emitted by
            # one chunk), so the stable lexsort below is order-insensitive
            # to chunk concatenation order.
            vec = tuple(np.concatenate(pair) for pair in zip(*chunks))
        nodes, subs, bands, kinds, links, targets, tslots, senders, ivals = vec
        order = np.lexsort((subs, bands, nodes))
        links_o = links[order]
        deliv, acts = self.sched.schedule(rnd, links_o, rnd < self.max_rounds)
        self.sent += len(links_o)
        _bucket_push(self.buckets, deliv, (
            acts, kinds[order], links_o, targets[order], tslots[order],
            senders[order], ivals[order],
        ))

    def _children_rows(self, slots, subs, ranks, band, chunks) -> None:
        """Emit each slot's DOWN multicast as one vectorized chunk.

        One shared payload per multicast; per-link traffic still counts
        every directed link (the per_edge_messages pin).
        """
        cnt = self.n_children[slots]
        total = int(cnt.sum())
        if not total:
            return
        flat = np.repeat(self.ann_starts[slots], cnt) + _ranks(cnt)
        nodes = np.repeat(self.slot_v[slots], cnt)
        chunks.append((
            nodes,
            np.repeat(subs, cnt),
            np.full(total, band, dtype=I64),
            np.full(total, _K_DOWN, dtype=I64),
            self.child_l_flat[flat],
            self.child_t_flat[flat],
            self.child_s_flat[flat],
            nodes,
            np.repeat(ranks, cnt),
        ))

    def _downs_ranked(self, dslots, dranks, chunks) -> None:
        table = self.rank_table
        delivered = self.alg.delivered
        slot_v_list = self.slot_v_list
        slot_i_list = self.slot_i_list
        for slot, rank in zip(dslots.tolist(), dranks.tolist()):
            delivered[slot_i_list[slot]][slot_v_list[slot]] = table[rank]
        self._children_rows(
            dslots, np.arange(len(dslots), dtype=I64), dranks, 1, chunks
        )

    def _fire_batch_ranked(self, slots, subs, band, chunks) -> None:
        """Fire every slot in ``slots`` (whose guards all hold) at once.

        Roots record the result and, when broadcasting, multicast it to
        their children; other reached slots send their folded rank UP.
        """
        self.done[slots] = True
        alg = self.alg
        table = self.rank_table
        ranks = self.acc_rank[slots]
        vs = self.slot_v[slots]
        parents = self.parent_of[slots]
        isroot = parents == vs
        ridx = np.flatnonzero(isroot)
        if len(ridx):
            results = alg.results
            delivered = alg.delivered
            for idx, v, rank in zip(
                self.slot_i[slots[ridx]].tolist(),
                vs[ridx].tolist(), ranks[ridx].tolist(),
            ):
                value = table[rank]
                results[idx] = value
                delivered[idx][v] = value
            if self.broadcast:
                self._children_rows(
                    slots[ridx], subs[ridx], ranks[ridx], band, chunks
                )
        uidx = np.flatnonzero(~isroot & (parents != UNREACHED))
        if len(uidx):
            upslots = slots[uidx]
            chunks.append((
                vs[uidx],
                subs[uidx],
                np.full(len(uidx), band, dtype=I64),
                np.full(len(uidx), _K_UP, dtype=I64),
                self.up_link[upslots],
                parents[uidx],
                self.up_tslot[upslots],
                vs[uidx],
                ranks[uidx],
            ))

    def awake_at_cutoff(self, rnd: int) -> int:
        # Waiting participants halt between timer rounds, so the per-node
        # engine's awake set is empty at any cutoff.
        return 0

    def _spill(self, network) -> None:
        alg = self.alg
        table = self.rank_table
        slot_i = self.slot_i
        entries = []
        for rnd in sorted(self.buckets):
            acts, kinds, links, targets, tslots, senders, ivals = \
                self.buckets[rnd]
            idxs = slot_i[tslots].tolist()
            rows = zip(
                acts.tolist(), kinds.tolist(), links.tolist(),
                targets.tolist(), senders.tolist(), ivals.tolist(), idxs,
            )
            for act, kind, link, target, sender, ival, idx in rows:
                if kind == _K_ANN:
                    msg = Message(sender, -1, alg._tags_ann[idx], ival, idx)
                elif kind == _K_UP:
                    msg = Message(
                        sender, target, alg._tags_up[idx], table[ival], idx
                    )
                else:
                    msg = Message(
                        sender, -1, alg._tags_down[idx], table[ival], idx
                    )
                entries.append((act, link, msg))
        self.buckets.clear()
        _spill_ring(network, entries)

    def finish(self, network, metrics, terminated: bool, final_round: int) -> None:
        alg = self.alg
        _finish_metrics(self, network, metrics)
        metrics.max_link_backlog = _ring_backlog(self)
        _writeback_linkmax(self, network)
        if self.buckets:
            self._spill(network)
        _halt_all(network)
        if alg.wake_at_rounds:
            alg.current_round = self.last_executed
        _prune_pending(alg._pending, final_round)
        self._writeback_state()

    def _writeback_state(self) -> None:
        """Mirror the kernel's convergecast state into the per-node dicts.

        A cut-off run hands the algorithm object back with spilled traffic
        in the queues; the follow-up ``reset=False`` run continues on the
        per-node path (dirty network), so heard counts, registered
        children, child reports and fired slots must land in the exact
        per-node containers.
        """
        alg = self.alg
        slot_i, slot_v = self.slot_i_list, self.slot_v_list
        for slot, h in zip(
            np.flatnonzero(self.heard).tolist(),
            self.heard[self.heard > 0].tolist(),
        ):
            alg._heard[slot_i[slot]][slot_v[slot]] = h
        for slot in np.flatnonzero(self.done).tolist():
            alg._done[slot_i[slot]].add(slot_v[slot])
        for slot in np.flatnonzero(self.n_children).tolist():
            idx, v = slot_i[slot], slot_v[slot]
            start = int(self.ann_starts[slot])
            end = start + int(self.n_children[slot])
            alg._child_targets[idx][v] = self.child_t_flat[start:end].tolist()
            alg._child_links[idx][v] = self.child_l_flat[start:end].tolist()
        table = self.rank_table
        identity = self.identity
        for slot in np.flatnonzero(self.n_child_vals).tolist():
            # The individual child reports were folded on arrival; a
            # partially-folded head padded with the identity reproduces
            # both the pending-report count and (``min``/``max`` being
            # order-free) the final fold.
            count = int(self.n_child_vals[slot])
            head = table[int(self.acc_rank[slot])]
            alg._child_values[slot_i[slot]][slot_v[slot]] = \
                [head] + [identity] * (count - 1)
