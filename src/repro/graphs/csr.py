"""Immutable compressed-sparse-row (CSR) graph snapshots and array kernels.

Every quantity the paper measures — rounds, per-edge congestion, dilation of
the augmented subgraphs — reduces to graph traversals and per-edge counters.
The mutable :class:`~repro.graphs.graph.Graph` (adjacency sets) is the
construction-time front door; the hot paths run on a :class:`CSRGraph`
snapshot instead:

* ``indptr`` / ``indices`` are the usual CSR arrays: the neighbours of ``v``
  are ``indices[indptr[v]:indptr[v+1]]``, sorted ascending;
* every undirected edge has a dense *edge id* (its index in the sorted
  canonical edge list), and ``edge_ids`` holds, parallel to ``indices``, the
  id of the edge each adjacency entry crosses — so per-edge bookkeeping is a
  flat array indexed by edge id instead of a dict keyed by tuples;
* the traversal kernels below work frontier-at-a-time over flat ``array``
  distance labels, avoiding the per-vertex set/dict churn of the legacy
  implementations while producing identical results (the equivalence suite
  in ``tests/test_csr.py`` pins this down).

Snapshots are built once per graph via :meth:`Graph.csr` (cached, invalidated
on mutation) and shared by the traversal layer, the shortcut quality
measurements and the CONGEST engine's link/edge indexing.

Directed link ids
-----------------
The CONGEST engine assigns every undirected edge ``e = (lo, hi)`` two dense
*directed link ids*: ``2e`` for ``lo -> hi`` and ``2e + 1`` for ``hi -> lo``.
:class:`CSRLinkMask` expresses an "allowed subgraph" as a flat permit array
over these link ids and materializes, per node, the permitted out-neighbour
and out-link lists the distributed BFS primitives consume — replacing the
per-part dict-of-sets adjacency maps the distributed driver used to build in
O(n·Δ) Python per diameter guess.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from typing import Optional

import numpy as np

#: Distance label used for unreached vertices in the array kernels.
UNREACHED = -1


class CSRGraph:
    """An immutable CSR snapshot of a simple undirected graph.

    Edge ids are assigned by sorting the canonical edge tuples, so they are
    deterministic for a given edge set and stable across snapshots of equal
    graphs.  Instances are created via :meth:`from_graph` or
    :meth:`from_edges`; do not mutate the arrays.

    Attributes:
        num_vertices: size of the vertex id space.
        num_edges: number of undirected edges (``m``).
        edge_list: canonical ``(u, v)`` tuple of every edge, indexed by edge
            id (sorted ascending).
        indptr: ``array('l')`` of length ``n + 1``; adjacency row pointers.
        indices: ``array('l')`` of length ``2m``; concatenated neighbour
            lists, each sorted ascending.
        edge_ids: ``array('l')`` of length ``2m``; ``edge_ids[i]`` is the edge
            id crossed by the adjacency entry ``indices[i]``.
    """

    __slots__ = ("num_vertices", "num_edges", "edge_list", "indptr", "indices",
                 "edge_ids", "_edge_id_map", "_adjacency_arrays")

    def __init__(self, num_vertices: int, edge_list: list[tuple[int, int]]) -> None:
        n = num_vertices
        m = len(edge_list)
        self.num_vertices = n
        self.num_edges = m
        self.edge_list = edge_list
        deg = [0] * n
        for u, v in edge_list:
            deg[u] += 1
            deg[v] += 1
        # Fill into plain lists (cheaper element stores than array('l')) and
        # convert once at the end; the conversion is a single C pass.
        indptr_list = [0] * (n + 1)
        acc = 0
        for v in range(n):
            indptr_list[v] = acc
            acc += deg[v]
        indptr_list[n] = acc
        cursor = indptr_list[:n]
        indices = [0] * (2 * m)
        edge_ids = [0] * (2 * m)
        # Filling in edge-id order yields ascending neighbour lists: for a
        # vertex x, all canonical edges (w, x) with w < x sort before every
        # (x, v), and both groups are ascending in the other endpoint.
        for eid, (u, v) in enumerate(edge_list):
            cu = cursor[u]
            indices[cu] = v
            edge_ids[cu] = eid
            cursor[u] = cu + 1
            cv = cursor[v]
            indices[cv] = u
            edge_ids[cv] = eid
            cursor[v] = cv + 1
        self.indptr = array("l", indptr_list)
        self.indices = array("l", indices)
        self.edge_ids = array("l", edge_ids)
        self._edge_id_map: Optional[dict[tuple[int, int], int]] = None
        self._adjacency_arrays: Optional["AdjacencyArrays"] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph) -> "CSRGraph":
        """Build a snapshot of a :class:`~repro.graphs.graph.Graph`."""
        return cls(graph.num_vertices, sorted(graph.edges()))

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[tuple[int, int]]) -> "CSRGraph":
        """Build a snapshot from an edge iterable (canonicalized and sorted)."""
        canonical = {(u, v) if u < v else (v, u) for u, v in edges}
        return cls(num_vertices, sorted(canonical))

    # ------------------------------------------------------------------
    @property
    def edge_id_map(self) -> dict[tuple[int, int], int]:
        """Canonical edge tuple -> edge id map (built lazily, then O(1) lookups)."""
        mapping = self._edge_id_map
        if mapping is None:
            mapping = {e: i for i, e in enumerate(self.edge_list)}
            self._edge_id_map = mapping
        return mapping

    def edge_id(self, u: int, v: int) -> int:
        """Return the edge id of ``{u, v}`` (either endpoint order).

        Raises:
            KeyError: if the edge is not present.
        """
        key = (u, v) if u < v else (v, u)
        return self.edge_id_map[key]

    def degree(self, v: int) -> int:
        """Return the degree of ``v``."""
        return self.indptr[v + 1] - self.indptr[v]

    def neighbors(self, v: int) -> array:
        """Return the neighbours of ``v`` as an ascending ``array('l')`` slice."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def incident_edge_ids(self, v: int) -> array:
        """Return the ids of the edges incident to ``v``."""
        return self.edge_ids[self.indptr[v]:self.indptr[v + 1]]

    def adjacency_arrays(self) -> "AdjacencyArrays":
        """Return the cached :class:`AdjacencyArrays` of this snapshot."""
        arrays = self._adjacency_arrays
        if arrays is None:
            arrays = self._adjacency_arrays = AdjacencyArrays(self)
        return arrays

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.num_vertices}, m={self.num_edges})"


class AdjacencyArrays:
    """Vectorized (numpy) companions of a CSR snapshot's adjacency.

    Built once per snapshot (via :meth:`CSRGraph.adjacency_arrays`) and shared
    by every :class:`CSRLinkMask` over that snapshot.  All arrays are parallel
    to the snapshot's ``indices`` adjacency entries:

    Attributes:
        indices: the neighbour of each adjacency entry.
        edge_ids: the undirected edge id each entry crosses.
        rows: the row (source vertex) owning each entry.
        adj_link_ids: the *directed link id* each entry sends over — edge
            ``e = (lo, hi)`` owns link ``2e`` for ``lo -> hi`` and ``2e + 1``
            for ``hi -> lo``, the CONGEST engine's convention.
        edge_u / edge_v: endpoint arrays of the canonical edge list, indexed
            by edge id (``edge_u < edge_v``).
        edge_positions: ``(m, 2)`` table of each edge's two adjacency
            positions (ascending), computed lazily on first use — the
            inverse of ``edge_ids`` that lets a mask over ``k`` edges
            resolve its adjacency entries in ``O(k log k)``.
    """

    __slots__ = ("num_vertices", "indices", "edge_ids", "rows", "adj_link_ids",
                 "edge_u", "edge_v", "_edge_positions")

    def __init__(self, csr: CSRGraph) -> None:
        self.num_vertices = csr.num_vertices
        indptr = np.asarray(csr.indptr, dtype=np.int64)
        self.indices = np.asarray(csr.indices, dtype=np.int64)
        self.edge_ids = np.asarray(csr.edge_ids, dtype=np.int64)
        self.rows = np.repeat(
            np.arange(csr.num_vertices, dtype=np.int64), np.diff(indptr)
        )
        # Entry u -> v crosses link 2e when u < v (u is the canonical lo
        # endpoint) and 2e + 1 otherwise.
        self.adj_link_ids = 2 * self.edge_ids + (self.indices < self.rows)
        if csr.num_edges:
            edge_arr = np.asarray(csr.edge_list, dtype=np.int64)
            self.edge_u = edge_arr[:, 0]
            self.edge_v = edge_arr[:, 1]
        else:
            self.edge_u = np.empty(0, dtype=np.int64)
            self.edge_v = np.empty(0, dtype=np.int64)
        self._edge_positions = None

    @property
    def edge_positions(self) -> np.ndarray:
        table = self._edge_positions
        if table is None:
            # Every edge id appears exactly twice in ``edge_ids``; a stable
            # argsort groups the pairs in ascending-position order.
            table = self._edge_positions = np.argsort(
                self.edge_ids, kind="stable"
            ).reshape(-1, 2)
        return table


class CSRLinkMask:
    """An "allowed subgraph" view: flat per-directed-link permits over a CSR.

    The mask stores, for every node, the permitted out-neighbours and the
    directed link ids those sends travel over, in adjacency (ascending
    neighbour) order.  Per-node reads are plain list slices, so a BFS
    touching a node pays O(deg) once with no per-node set filtering and no
    dict-of-sets construction.

    Instances are built vectorized from a permit array over directed link
    ids (length ``2m``) or over undirected edge ids (length ``m``, both
    directions allowed).  Nodes with no permitted incident link simply have
    empty neighbour lists, which is how "this node does not participate in
    the subgraph" is expressed.
    """

    __slots__ = ("num_vertices", "_starts", "_targets", "_links", "_np")

    def __init__(self, csr: CSRGraph, link_permits: np.ndarray) -> None:
        arrays = csr.adjacency_arrays()
        permits = np.asarray(link_permits, dtype=bool)
        if len(permits) == csr.num_edges:
            # Undirected permits: both directions of each permitted edge.
            pos = np.flatnonzero(permits[arrays.edge_ids])
        elif len(permits) == 2 * csr.num_edges:
            pos = np.flatnonzero(permits[arrays.adj_link_ids])
        else:
            raise ValueError(
                f"permit array has {len(link_permits)} entries; expected "
                f"{csr.num_edges} (per edge) or {2 * csr.num_edges} (per "
                f"directed link)"
            )
        self._init_from_positions(csr, pos, arrays)

    def _init_from_positions(self, csr: CSRGraph, pos, arrays) -> None:
        n = csr.num_vertices
        self.num_vertices = n
        targets_np = arrays.indices[pos]
        links_np = arrays.adj_link_ids[pos]
        starts_np = np.searchsorted(arrays.rows[pos], np.arange(n + 1, dtype=np.int64))
        # The construction has the flat arrays in hand; keep them for the
        # bulk round kernels (repro.congest.bulk), which index the mask with
        # vectorized gathers instead of per-node list slices.
        self._np = (starts_np, targets_np.astype(np.int64, copy=False),
                    links_np.astype(np.int64, copy=False))
        # The list views materialize lazily: a fleet of small masks consumed
        # only by the bulk kernels never pays the O(n) tolist per mask.
        self._starts = None
        self._targets = None
        self._links = None

    # Bulk tolist: per-announce numpy slicing + tolist costs ~2us per
    # touched node, which dominates a BFS flood; Python list slices do not.
    @property
    def starts(self) -> list[int]:
        lst = self._starts
        if lst is None:
            lst = self._starts = self._np[0].tolist()
        return lst

    @property
    def targets(self) -> list[int]:
        lst = self._targets
        if lst is None:
            lst = self._targets = self._np[1].tolist()
        return lst

    @property
    def links(self) -> list[int]:
        lst = self._links
        if lst is None:
            lst = self._links = self._np[2].tolist()
        return lst

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(starts, targets, links)`` as int64 numpy arrays.

        The arrays view the same permit structure as the list fields; they
        are cached at construction, so repeated kernel builds over one mask
        pay the conversion once.
        """
        return self._np

    # ------------------------------------------------------------------
    @classmethod
    def from_edge_ids(cls, csr: CSRGraph, edge_ids: Iterable[int]) -> "CSRLinkMask":
        """Build a mask permitting both directions of the given edge ids.

        Sub-linear in the host graph: the adjacency positions of the listed
        edges resolve through the cached per-edge position table, so a
        fleet of small masks never scans the full permit array per mask.
        """
        if isinstance(edge_ids, np.ndarray):
            ids = edge_ids.astype(np.int64, copy=False)
        else:
            seq = edge_ids if hasattr(edge_ids, "__len__") else list(edge_ids)
            ids = np.fromiter(seq, dtype=np.int64, count=len(seq))
        arrays = csr.adjacency_arrays()
        pos = np.sort(arrays.edge_positions[ids].ravel())
        mask = cls.__new__(cls)
        mask._init_from_positions(csr, pos, arrays)
        return mask

    @classmethod
    def intra_partition(cls, csr: CSRGraph, labels: np.ndarray) -> "CSRLinkMask":
        """Build the mask of edges whose endpoints share a (non-negative) label.

        ``labels`` assigns every vertex a part index, with ``-1`` for
        vertices outside every part; an edge is permitted (both directions)
        exactly when its endpoints carry the same non-negative label.  This
        is the union of the induced subgraphs ``G[S_i]`` — the stage-1
        detection BFS of the distributed construction runs on it.
        """
        arrays = csr.adjacency_arrays()
        labels = np.asarray(labels, dtype=np.int64)
        lu = labels[arrays.edge_u]
        permit_edges = (lu == labels[arrays.edge_v]) & (lu >= 0)
        return cls(csr, permit_edges)

    # ------------------------------------------------------------------
    def neighbors_of(self, v: int) -> list[int]:
        """Return the permitted out-neighbours of ``v`` (ascending)."""
        return self.targets[self.starts[v]:self.starts[v + 1]]

    def links_of(self, v: int) -> list[int]:
        """Return the directed link ids of ``v``'s permitted sends."""
        return self.links[self.starts[v]:self.starts[v + 1]]

    def degree(self, v: int) -> int:
        """Return the number of permitted out-links of ``v``."""
        return self.starts[v + 1] - self.starts[v]

    def __repr__(self) -> str:
        return (
            f"CSRLinkMask(n={self.num_vertices}, "
            f"allowed_links={len(self.targets)})"
        )


# ----------------------------------------------------------------------
# frontier-at-a-time kernels
# ----------------------------------------------------------------------
def bfs_levels(
    csr: CSRGraph,
    sources: Iterable[int],
    *,
    max_depth: Optional[int] = None,
    mask: Optional[bytearray] = None,
) -> tuple[array, list[int]]:
    """Multi-source BFS over a CSR snapshot.

    Args:
        csr: the graph snapshot.
        sources: start vertices (distance 0).
        max_depth: stop expanding beyond this depth.
        mask: optional ``bytearray`` of length ``n``; vertices with a zero
            entry are never visited (sources must be allowed by the caller).

    Returns:
        ``(dist, visited)`` where ``dist`` is an ``array('l')`` with
        :data:`UNREACHED` for unreached vertices and ``visited`` lists every
        reached vertex in BFS discovery order (sources first).
    """
    n = csr.num_vertices
    dist = array("l", [UNREACHED]) * n
    indptr = csr.indptr
    indices = csr.indices
    frontier: list[int] = []
    for s in sources:
        if dist[s] == UNREACHED:
            dist[s] = 0
            frontier.append(s)
    visited = list(frontier)
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        nxt: list[int] = []
        for u in frontier:
            for v in indices[indptr[u]:indptr[u + 1]]:
                if dist[v] == UNREACHED and (mask is None or mask[v]):
                    dist[v] = depth
                    nxt.append(v)
        visited.extend(nxt)
        frontier = nxt
    return dist, visited


def bfs_parents(
    csr: CSRGraph,
    sources: Iterable[int],
    *,
    max_depth: Optional[int] = None,
    mask: Optional[bytearray] = None,
) -> tuple[array, array, list[int]]:
    """Multi-source BFS tree over a CSR snapshot.

    Returns:
        ``(parent, dist, visited)``; ``parent`` is an ``array('l')`` with the
        BFS parent of every reached vertex (sources point to themselves) and
        :data:`UNREACHED` elsewhere.
    """
    n = csr.num_vertices
    dist = array("l", [UNREACHED]) * n
    parent = array("l", [UNREACHED]) * n
    indptr = csr.indptr
    indices = csr.indices
    frontier: list[int] = []
    for s in sources:
        if dist[s] == UNREACHED:
            dist[s] = 0
            parent[s] = s
            frontier.append(s)
    visited = list(frontier)
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        nxt: list[int] = []
        for u in frontier:
            for v in indices[indptr[u]:indptr[u + 1]]:
                if dist[v] == UNREACHED and (mask is None or mask[v]):
                    dist[v] = depth
                    parent[v] = u
                    nxt.append(v)
        visited.extend(nxt)
        frontier = nxt
    return parent, dist, visited


def component_labels(csr: CSRGraph) -> tuple[array, int]:
    """Label the connected components of a CSR snapshot.

    Components are numbered ``0, 1, ...`` in order of their smallest member
    (so labels are deterministic and match the ordering contract of
    :func:`repro.graphs.components.connected_components`).

    Returns:
        ``(labels, num_components)`` with ``labels`` an ``array('l')``.
    """
    n = csr.num_vertices
    labels = array("l", [UNREACHED]) * n
    indptr = csr.indptr
    indices = csr.indices
    current = 0
    for start in range(n):
        if labels[start] != UNREACHED:
            continue
        labels[start] = current
        frontier = [start]
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for v in indices[indptr[u]:indptr[u + 1]]:
                    if labels[v] == UNREACHED:
                        labels[v] = current
                        nxt.append(v)
            frontier = nxt
        current += 1
    return labels, current

