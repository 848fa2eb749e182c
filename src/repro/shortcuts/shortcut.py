"""The shortcut container and its quality measures.

Definition 1.1 of the paper: given ``G`` and parts ``S_1, ..., S_l``, a
``(d, c)``-shortcut is a collection of subgraphs ``H_1, ..., H_l`` of ``G``
such that

1. the diameter of ``G[S_i] ∪ H_i`` is at most ``d`` (dilation), and
2. every edge of ``G`` appears in at most ``c`` of the augmented subgraphs
   ``G[S_i] ∪ H_i`` (congestion).

:class:`Shortcut` stores the ``H_i`` edge sets, exposes the augmented
subgraphs and computes congestion, dilation and quality.

Internally every ``H_i`` is a set of dense *edge ids* from the host graph's
:class:`~repro.graphs.csr.CSRGraph` snapshot.  Congestion is one
``np.bincount`` over the ``(edge, part)`` entries of all augmented subgraphs:
the induced part edges, found through a vertex -> part label array, plus the
``H_i`` ids.  Dilation is a bit-parallel multi-source BFS (MS-BFS, Then et
al., VLDB 2014) over the CSR: each (part, source) pair is one bit column of
a ``uint64`` matrix, each adjacency slot allows the columns of the parts
whose augmented subgraph holds its edge, and a BFS level is
``front[indices] & allow``, an ``np.bitwise_or.reduceat`` over the CSR rows
and an ``& ~seen``.  The public API still speaks canonical edge tuples.

Measurement conventions
-----------------------
*Congestion* follows the definition exactly: for each edge we count the
augmented subgraphs containing it (induced part edges count for their own
part, shortcut edges for each part whose ``H_i`` contains them).

*Dilation* is reported as the maximum, over parts, of the largest distance
between two **part** vertices inside the augmented subgraph
``G[S_i] ∪ H_i``.  This is the quantity the paper's dilation argument
bounds (Theorem 3.1 bounds ``dist_H(s, t)`` for ``s, t ∈ S_j``) and the one
the applications rely on; the full subgraph diameter can be larger or even
infinite because sampled edges may land outside the part's component, which
is irrelevant for routing inside the part.
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence as SequenceT

import numpy as np

from ..graphs.graph import Graph, Subgraph, union_subgraph
from ..graphs.traversal import INFINITY
from ..rng import RandomLike, ensure_rng
from .partition import Partition


@dataclass(frozen=True)
class QualityReport:
    """Summary of a shortcut's measured quality.

    Attributes:
        congestion: max number of augmented subgraphs sharing one edge.
        dilation: max part-to-part distance inside any augmented subgraph
            (:data:`math.inf` if some part is disconnected in its augmented
            subgraph, which a *valid* shortcut never is).
        quality: congestion + dilation.
        num_parts: number of parts.
        num_shortcut_edges: total size of all ``H_i`` (with multiplicity).
        max_part_shortcut_edges: size of the largest single ``H_i``.
    """

    congestion: int
    dilation: float
    num_parts: int
    num_shortcut_edges: int
    max_part_shortcut_edges: int

    @property
    def quality(self) -> float:
        """Congestion plus dilation — the paper's quality measure."""
        return self.congestion + self.dilation


class Shortcut:
    """A low-congestion shortcut: one edge set ``H_i`` per part.

    Args:
        partition: the part collection the shortcut serves.
        subgraphs: for each part, an iterable of edges (``(u, v)`` pairs of
            graph vertices) forming ``H_i``.  Every edge must exist in the
            host graph.  Missing trailing entries are treated as empty.
        validate_edges: accepted for API compatibility but no longer skips
            anything: every edge is resolved to its dense edge id, which
            checks membership as a side effect at no extra cost.  (The seed
            version could store edges absent from the host graph when this
            was ``False``; the edge-id representation cannot, and no caller
            in the repository relied on it.)
    """

    def __init__(
        self,
        partition: Partition,
        subgraphs: Sequence[Iterable[tuple[int, int]]],
        *,
        validate_edges: bool = True,
    ) -> None:
        if len(subgraphs) > partition.num_parts:
            raise ValueError(
                f"got {len(subgraphs)} shortcut subgraphs for {partition.num_parts} parts"
            )
        self.partition = partition
        self.graph = partition.graph
        self._csr = self.graph.csr()
        eid_map = self._csr.edge_id_map
        id_sets: list[set[int]] = []
        # Several baselines pass the SAME edge list for every part; convert
        # it once and share the conversion (not the set) across parts.  The
        # cache value holds the keyed object itself so its id cannot be
        # recycled by the allocator while the cache is alive.
        conversion_cache: dict[int, tuple[object, set[int]]] = {}
        for i in range(partition.num_parts):
            edges = subgraphs[i] if i < len(subgraphs) else ()
            hit = conversion_cache.get(id(edges))
            if hit is not None and hit[0] is edges:
                cached = hit[1]
            else:
                cached = set()
                for u, v in edges:
                    if u == v:
                        raise ValueError(f"self-loop ({u}, {v}) is not a valid edge")
                    key = (u, v) if u < v else (v, u)
                    eid = eid_map.get(key)
                    if eid is None:
                        raise ValueError(
                            f"shortcut edge ({key[0]}, {key[1]}) is not an edge of the graph"
                        )
                    cached.add(eid)
                conversion_cache[id(edges)] = (edges, cached)
            id_sets.append(set(cached))
        self._init_from_ids(partition, id_sets)

    # ------------------------------------------------------------------
    @classmethod
    def from_edge_ids(cls, partition: Partition, id_sets: SequenceT[set[int]]) -> "Shortcut":
        """Build a shortcut directly from per-part edge-id sets.

        This is the fast entry point used by the samplers, which already work
        in edge-id space; ids refer to ``partition.graph.csr()``.  Missing
        trailing entries are treated as empty.
        """
        if len(id_sets) > partition.num_parts:
            raise ValueError(
                f"got {len(id_sets)} shortcut subgraphs for {partition.num_parts} parts"
            )
        self = cls.__new__(cls)
        self.partition = partition
        self.graph = partition.graph
        self._csr = self.graph.csr()
        padded = [set(id_sets[i]) if i < len(id_sets) else set() for i in range(partition.num_parts)]
        self._init_from_ids(partition, padded)
        return self

    def _init_from_ids(self, partition: Partition, id_sets: list[set[int]]) -> None:
        self._subgraph_ids = id_sets
        self._part_edge_id_cache: list[Optional[frozenset[int]]] = [None] * partition.num_parts

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        """Number of parts (and of shortcut subgraphs)."""
        return self.partition.num_parts

    def _part_edge_ids(self, index: int) -> frozenset[int]:
        """Edge ids of the induced subgraph ``G[S_index]`` (cached)."""
        cached = self._part_edge_id_cache[index]
        if cached is None:
            csr = self._csr
            indptr = csr.indptr
            indices = csr.indices
            edge_ids = csr.edge_ids
            part = self.partition.part(index)
            ids: set[int] = set()
            for u in part:
                for i in range(indptr[u], indptr[u + 1]):
                    v = indices[i]
                    if v > u and v in part:
                        ids.add(edge_ids[i])
            cached = frozenset(ids)
            self._part_edge_id_cache[index] = cached
        return cached

    def subgraph_edge_ids(self, index: int) -> set[int]:
        """Return the edge ids of ``H_index`` (ids refer to ``graph.csr()``)."""
        return set(self._subgraph_ids[index])

    def subgraph_edge_id_array(self, index: int):
        """Return the edge ids of ``H_index`` as a numpy ``int64`` array.

        The copy-free companion of :meth:`subgraph_edge_ids` for vectorized
        consumers (the distributed driver builds its per-part CSR link masks
        from these).
        """
        ids = self._subgraph_ids[index]
        return np.fromiter(ids, dtype=np.int64, count=len(ids))

    def augmented_edge_ids(self, index: int) -> set[int]:
        """Return the edge ids of ``G[S_index] ∪ H_index``."""
        return self._part_edge_ids(index) | self._subgraph_ids[index]

    def subgraph_edges(self, index: int) -> set[tuple[int, int]]:
        """Return the edge set ``H_index`` (canonical edge tuples)."""
        edge_list = self._csr.edge_list
        return {edge_list[e] for e in self._subgraph_ids[index]}

    def augmented_edges(self, index: int) -> set[tuple[int, int]]:
        """Return the edges of the augmented subgraph ``G[S_index] ∪ H_index``."""
        edge_list = self._csr.edge_list
        return {edge_list[e] for e in self.augmented_edge_ids(index)}

    def augmented_subgraph(self, index: int) -> Subgraph:
        """Return ``G[S_index] ∪ H_index`` as a :class:`Subgraph`.

        The subgraph always contains all part vertices (even isolated ones,
        e.g. a singleton part with no shortcut edges).
        """
        sub = union_subgraph(self.graph.num_vertices, self.augmented_edges(index))
        for v in self.partition.part(index):
            sub.vertex_set.add(v)
        return sub

    def augmented_adjacency(self, index: int) -> dict[int, set[int]]:
        """Return the adjacency map of ``G[S_index] ∪ H_index``.

        This is the per-node edge knowledge the distributed algorithms work
        with ("each node knows its incident edges in each ``G[S_i] ∪ H_i``").
        """
        adj: dict[int, set[int]] = {v: set() for v in self.partition.part(index)}
        edge_list = self._csr.edge_list
        get = adj.get
        # Iterate the part and shortcut id collections directly rather than
        # materializing their union: re-adding an edge present in both is
        # idempotent on the adjacency sets.
        for ids in (self._part_edge_ids(index), self._subgraph_ids[index]):
            for e in ids:
                u, v = edge_list[e]
                su = get(u)
                if su is None:
                    su = adj[u] = set()
                su.add(v)
                sv = get(v)
                if sv is None:
                    sv = adj[v] = set()
                sv.add(u)
        return adj

    def total_shortcut_edges(self) -> int:
        """Return the total number of shortcut edges summed over parts."""
        return sum(len(s) for s in self._subgraph_ids)

    # ------------------------------------------------------------------
    # quality measures
    # ------------------------------------------------------------------
    def _kernel_inputs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(labels, entry_ids, entry_parts)``: each vertex's part (``-1`` if
        none) and one ``(edge id, i)`` entry per edge of each ``G[S_i] ∪ H_i``
        (an edge is induced iff both endpoints carry the same label)."""
        labels = np.full(self.graph.num_vertices, -1)
        vertices, vertex_parts = _flatten(self.partition.parts)
        labels[vertices] = vertex_parts
        arrays = self._csr.adjacency_arrays()
        lu = labels[arrays.edge_u]
        own = np.where(lu == labels[arrays.edge_v], lu, -1)
        induced = np.flatnonzero(own >= 0)
        h_ids, h_parts = _flatten(self._subgraph_ids)
        keep = own[h_ids] != h_parts
        return (labels, np.concatenate([induced, h_ids[keep]]),
                np.concatenate([own[induced], h_parts[keep]]))

    def _edge_load_array(self, inputs=None) -> np.ndarray:
        """Per-edge load (#augmented subgraphs holding the edge), by edge id."""
        return np.bincount((inputs or self._kernel_inputs())[1], minlength=self._csr.num_edges)

    def congestion(self) -> int:
        """Return the congestion: max #augmented subgraphs sharing one edge."""
        return int(self._edge_load_array().max(initial=0))

    def edge_loads(self) -> dict[tuple[int, int], int]:
        """Return the full per-edge load map (edges with zero load omitted)."""
        edge_list = self._csr.edge_list
        return {edge_list[e]: c for e, c in enumerate(self._edge_load_array().tolist()) if c}

    def _part_dilations(self, indices, exact: bool, rng: RandomLike, sample_size: int,
                        *, stop: bool, inputs=None) -> list[float]:
        """Dilations of the parts in ``indices`` from one kernel call, with
        sources drawn as a loop of :meth:`part_dilation` calls would draw
        them.  With ``stop`` the result is ``[inf]`` if a part is
        disconnected, and a shared ``random.Random`` stops after that part."""
        partition = self.partition
        big = [i for i in indices if len(partition.part(i)) > 1]

        def draw(i: int) -> list[int]:
            r = ensure_rng(rng)
            pool = list(partition.part(i))
            return [r.choice(pool) for _ in range(min(sample_size, len(pool)))]

        start = rng.getstate() if stop and not exact and isinstance(rng, random.Random) else None
        src, column_part = _flatten([list(partition.part(i)) if exact
                                     else [partition.leader(i)] + draw(i) for i in big])
        column_part = np.asarray(big, dtype=np.int64)[column_part]
        inputs, arrays = inputs or self._kernel_inputs(), self._csr.adjacency_arrays()
        width = 64 * max(1, _PASS_BYTES // (8 * (len(arrays.indices) + len(inputs[0]))))
        ecc = np.zeros(len(src))
        for k in range(0, len(src), width):
            ecc[k:k + width] = _bit_parallel_bfs(arrays, *inputs, src[k:k + width],
                                                 column_part[k:k + width], self.num_parts)
        per_part = np.maximum.reduceat(ecc, np.searchsorted(column_part, big))
        found = dict(zip(big, per_part.tolist()))
        if stop and INFINITY in found.values():
            if start is not None:
                # A disconnected part is infinite in every column: replay up to it.
                rng.setstate(start)
                for i in big:
                    draw(i)
                    if found[i] == INFINITY:
                        break
            return [INFINITY]
        return [found.get(i, 0.0) for i in indices]

    def part_dilation(self, index: int, *, exact: bool = True, rng: RandomLike = None,
                      sample_size: int = 4) -> float:
        """Return the dilation of one part.

        Args:
            exact: if ``True``, BFS from every part vertex (exact maximum
                pairwise distance); otherwise BFS from the part leader plus
                ``sample_size`` random part vertices, which gives a value in
                ``[true/2, true]`` (the leader eccentricity alone is already a
                2-approximation).
            rng: randomness for the sampled variant.
        """
        return self._part_dilations([index], exact, rng, sample_size, stop=False)[0]

    def part_dilations(self, *, exact: bool = True, rng: RandomLike = None,
                       sample_size: int = 4) -> list[float]:
        """Return every part's :meth:`part_dilation` from one kernel call,
        drawing sampled sources as a loop of those calls would."""
        return self._part_dilations(range(self.num_parts), exact, rng, sample_size, stop=False)

    def dilation(self, *, exact: bool = True, rng: RandomLike = None) -> float:
        """Return the dilation over all parts (see the module docstring)."""
        return max(self._part_dilations(range(self.num_parts), exact, rng, 4, stop=True),
                   default=0.0)

    def quality_report(self, *, exact_dilation: bool = True, rng: RandomLike = None) -> QualityReport:
        """Return a :class:`QualityReport` with congestion, dilation and sizes."""
        inputs = self._kernel_inputs()
        return QualityReport(
            congestion=int(self._edge_load_array(inputs).max(initial=0)),
            dilation=max(self._part_dilations(range(self.num_parts), exact_dilation, rng, 4,
                                              stop=True, inputs=inputs), default=0.0),
            num_parts=self.num_parts,
            num_shortcut_edges=self.total_shortcut_edges(),
            max_part_shortcut_edges=max((len(s) for s in self._subgraph_ids), default=0),
        )

    def __repr__(self) -> str:
        return (
            f"Shortcut(num_parts={self.num_parts}, "
            f"total_shortcut_edges={self.total_shortcut_edges()})"
        )


#: Bytes of one bit-parallel BFS pass: a word per adjacency slot and vertex for
#: each 64 sources.  More sources (exact dilation) run in several passes.
_PASS_BYTES = 1 << 22


def _flatten(groups) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate integer collections; also return each value's group index."""
    sizes = [len(g) for g in groups]
    return (np.fromiter(chain.from_iterable(groups), np.int64, sum(sizes)),
            np.repeat(np.arange(len(sizes)), sizes))


def _spread(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand row ``r`` into ``first[r], ..., first[r] + count[r] - 1``;
    returns ``(row, value)`` with one entry per expanded value."""
    row = np.repeat(np.arange(len(first)), count)
    return row, first[row] + np.arange(len(row)) - np.repeat(np.cumsum(count) - count, count)


def _column_words(lo: np.ndarray, hi: np.ndarray):
    """Split each column range ``[lo[r], hi[r])`` at 64-bit word boundaries:
    ``(row, word, bits)`` with ``bits`` the range's mask inside ``word``."""
    row, word = _spread(lo >> 6, ((hi - 1) >> 6) - (lo >> 6) + 1)
    a = np.maximum(lo[row] - (word << 6), 0).astype(np.uint64)
    b = np.minimum(hi[row] - (word << 6), 64).astype(np.uint64)
    return row, word, (~np.uint64(0) >> (np.uint64(64) - b + a)) << a


def _columns_set(words: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the columns ``< k`` with a bit set in any row."""
    union = np.bitwise_or.reduce(words, axis=0).astype("<u8", copy=False)
    return np.unpackbits(union.view(np.uint8), bitorder="little")[:k].astype(bool)


def _bit_parallel_bfs(arrays, labels, entry_ids, entry_parts, src, column_part,
                      num_parts: int) -> np.ndarray:
    """One BFS pass with one bit column per source: column ``c`` starts at
    ``src[c]`` and crosses only the edges of ``G[S_p] ∪ H_p`` for
    ``p = column_part[c]``.  Returns every column's eccentricity over
    ``S_p`` (``inf`` if a vertex of ``S_p`` is unreached)."""
    n, k, width = len(labels), len(src), (len(src) + 63) >> 6
    lo = np.searchsorted(column_part, np.arange(num_parts))
    hi = np.searchsorted(column_part, np.arange(num_parts), side="right")
    # Part p's columns are the pieces (word, bits)[first[p]:first[p] + count[p]].
    present = np.flatnonzero(hi > lo)
    row, word, bits = _column_words(lo[present], hi[present])
    count = np.zeros(len(hi), dtype=np.int64)
    count[present] = np.bincount(row, minlength=len(present))
    first = np.cumsum(count) - count

    def pieces(of_part):
        take = np.flatnonzero(count[of_part])
        at, piece = _spread(first[of_part[take]], count[of_part[take]])
        return take[at], word[piece], bits[piece]

    # allow[s]: the columns whose augmented subgraph holds slot s's edge.
    at, w, b = pieces(entry_parts)
    by_edge = np.zeros((len(arrays.edge_u), width), dtype=np.uint64)
    np.bitwise_or.at(by_edge, (entry_ids[at], w), b)
    allow = by_edge[arrays.edge_ids]
    live = np.flatnonzero(allow.any(axis=1))
    allow, nbr, owner = allow[live], arrays.indices[live], arrays.rows[live]
    seg = np.flatnonzero(np.diff(owner, prepend=-1))
    # target[v]: the columns whose part holds v.
    vert = np.flatnonzero(labels >= 0)
    at, w, b = pieces(labels[vert])
    target = np.zeros((n, width), dtype=np.uint64)
    target[vert[at], w] = b
    col = np.arange(k)
    seen = np.zeros((n, width), dtype=np.uint64)
    np.bitwise_or.at(seen, (src, col >> 6), np.uint64(1) << (col & 63).astype(np.uint64))
    front, ecc, depth = seen.copy(), np.zeros(k), 0
    while len(seg):
        gathered = front[nbr]
        gathered &= allow
        front = np.zeros_like(seen)
        front[owner[seg]] = np.bitwise_or.reduceat(gathered, seg, axis=0)
        front &= ~seen
        if not front.any():
            break
        depth += 1
        seen |= front
        ecc[_columns_set(front & target, k)] = depth
    ecc[_columns_set(target & ~seen, k)] = np.inf
    return ecc
