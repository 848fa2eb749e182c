"""Breadth-first traversal, distances, eccentricity and diameter.

All shortcut quality measurements ultimately reduce to BFS computations:

* the *dilation* of a shortcut is the diameter of each augmented subgraph
  ``G[S_i] ∪ H_i`` restricted to the part ``S_i``;
* the distributed construction uses truncated BFS trees of depth ``~k_D``;
* the auxiliary shortcut trees of Section 3.1 are BFS trees of a layered
  graph.

The functions here operate on any :class:`~repro.graphs.graph.Graph`
(including :class:`~repro.graphs.graph.Subgraph` views) and on optional
vertex restrictions, so the same code serves the full graph, induced parts
and augmented subgraphs.

Unrestricted traversals of a real :class:`Graph` run frontier-at-a-time on
the graph's cached :class:`~repro.graphs.csr.CSRGraph` snapshot (flat array
distance labels instead of per-vertex dict/set churn); traversals with an
``allowed`` restriction, and traversals of duck-typed adjacency views, fall
back to the legacy queue implementation.  Both paths return identical
results (pinned by ``tests/test_csr.py``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable
from typing import Optional

import numpy as np

from .csr import UNREACHED, bfs_levels, bfs_parents
from .graph import Graph, Subgraph

#: Distance value used for unreachable vertices.
INFINITY = float("inf")


def _csr_or_none(graph: Graph, allowed: Optional[set[int]]):
    """Return the graph's CSR snapshot when the fast path applies."""
    if allowed is None and isinstance(graph, Graph):
        return graph.csr()
    return None


def bfs_distances(
    graph: Graph,
    source: int,
    *,
    allowed: Optional[set[int]] = None,
    max_depth: Optional[int] = None,
) -> dict[int, int]:
    """Compute BFS distances from ``source``.

    Args:
        graph: the graph to traverse.
        source: start vertex.
        allowed: if given, the traversal is restricted to this vertex set
            (``source`` must be in it).
        max_depth: if given, the traversal stops at this depth; vertices
            further away are not reported.

    Returns:
        A dict mapping each reached vertex to its hop distance from
        ``source``.
    """
    if allowed is not None and source not in allowed:
        raise ValueError(f"source {source} is not in the allowed vertex set")
    csr = _csr_or_none(graph, allowed)
    if csr is not None:
        graph._check_vertex(source)
        levels, visited = bfs_levels(csr, (source,), max_depth=max_depth)
        return {v: levels[v] for v in visited}
    dist: dict[int, int] = {source: 0}
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for v in graph.neighbors(u):
            if v in dist:
                continue
            if allowed is not None and v not in allowed:
                continue
            dist[v] = du + 1
            queue.append(v)
    return dist


def bfs_tree(
    graph: Graph,
    source: int,
    *,
    allowed: Optional[set[int]] = None,
    max_depth: Optional[int] = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """Compute a BFS tree from ``source``.

    Returns:
        A pair ``(parent, dist)`` where ``parent[v]`` is the BFS parent of
        ``v`` (the source maps to itself) and ``dist[v]`` its hop distance.
    """
    if allowed is not None and source not in allowed:
        raise ValueError(f"source {source} is not in the allowed vertex set")
    csr = _csr_or_none(graph, allowed)
    if csr is not None:
        graph._check_vertex(source)
        parents, levels, visited = bfs_parents(csr, (source,), max_depth=max_depth)
        return (
            {v: parents[v] for v in visited},
            {v: levels[v] for v in visited},
        )
    parent: dict[int, int] = {source: source}
    dist: dict[int, int] = {source: 0}
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if max_depth is not None and du >= max_depth:
            continue
        for v in graph.neighbors(u):
            if v in dist:
                continue
            if allowed is not None and v not in allowed:
                continue
            parent[v] = u
            dist[v] = du + 1
            queue.append(v)
    return parent, dist


def shortest_path(
    graph: Graph,
    source: int,
    target: int,
    *,
    allowed: Optional[set[int]] = None,
) -> Optional[list[int]]:
    """Return a shortest ``source``-``target`` path as a vertex list, or ``None``.

    The path includes both endpoints.  Used by the dilation analysis (the
    paper's argument is phrased on an ``s``-``t`` shortest path inside
    ``G[S_j]``) and by the shortcut-tree experiments.
    """
    parent, dist = bfs_tree(graph, source, allowed=allowed)
    if target not in dist:
        return None
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def eccentricity(
    graph: Graph,
    source: int,
    *,
    allowed: Optional[set[int]] = None,
    targets: Optional[set[int]] = None,
) -> float:
    """Return the eccentricity of ``source``.

    Args:
        targets: if given, the eccentricity is the maximum distance to a
            vertex in ``targets`` (this is the quantity needed for dilation:
            max distance between *part* vertices within the augmented
            subgraph).  Unreachable targets yield :data:`INFINITY`.
    """
    dist = bfs_distances(graph, source, allowed=allowed)
    if targets is None:
        if allowed is not None:
            targets = allowed
        else:
            targets = set(dist)
    worst = 0.0
    for t in targets:
        d = dist.get(t)
        if d is None:
            return INFINITY
        if d > worst:
            worst = float(d)
    return worst


def diameter(
    graph: Graph,
    *,
    vertices: Optional[Iterable[int]] = None,
    allowed: Optional[set[int]] = None,
) -> float:
    """Return the (hop) diameter over a vertex set.

    Runs Takes & Kosters' *BoundingDiameters* (2011) instead of one BFS per
    vertex: every target vertex keeps an eccentricity lower and upper bound,
    and each BFS from a vertex ``v`` with eccentricity ``e`` tightens them for
    every target ``w`` via ``max(d, e - d) <= ecc(w) <= e + d`` with
    ``d = dist(v, w)``.  Sources alternate between the candidate with the
    highest upper bound and the one with the lowest lower bound (ties go to
    the higher degree); candidates that can no longer move either diameter
    bound are pruned, and the loop stops when the two bounds meet.  On the
    constant-diameter families a handful of BFS runs suffices.  Each BFS
    fixes its source's eccentricity, so the worst case is one BFS per
    target vertex — which vertex-transitive graphs (cycles, tori) reach,
    since every vertex has the same eccentricity and nothing gets pruned
    early.

    Args:
        graph: graph to measure.
        vertices: the vertices whose pairwise distances are maximized.  For a
            plain :class:`Graph` the default is all vertices; for a
            :class:`Subgraph` the default is its present vertex set.
        allowed: optional restriction on which vertices traversals may use
            (defaults to ``vertices`` related behaviour: no restriction).
            Every target vertex must be allowed.

    Returns:
        The maximum pairwise distance, or :data:`INFINITY` if some pair is
        disconnected.  An empty or single-vertex set has diameter 0.
    """
    if vertices is None:
        if isinstance(graph, Subgraph):
            targets = sorted(graph.vertex_set)
        else:
            targets = list(graph.vertices())
    else:
        targets = sorted(set(vertices))
        for v in targets:
            graph._check_vertex(v)
    if len(targets) <= 1:
        return 0.0
    csr = graph.csr()
    n = csr.num_vertices
    mask: Optional[bytearray] = None
    if allowed is not None:
        mask = bytearray(n)
        for v in allowed:
            if 0 <= v < n:
                mask[v] = 1
        for v in targets:
            if not mask[v]:
                raise ValueError(f"source {v} is not in the allowed vertex set")
    index = np.asarray(targets, dtype=np.int64)
    degree = np.diff(np.asarray(csr.indptr, dtype=np.int64))[index]

    def distances_from(source: int) -> np.ndarray:
        levels, _ = bfs_levels(csr, (source,), mask=mask)
        return np.asarray(levels, dtype=np.int64)[index]

    return _bounding_diameters(distances_from, targets, degree)


def _bounding_diameters(
    distances_from: Callable[[int], np.ndarray],
    targets: list[int],
    degree: np.ndarray,
) -> float:
    """Exact diameter over ``targets`` from a "BFS from v -> distances" callable.

    ``distances_from(v)`` returns the hop distance from ``v`` to every target
    (parallel to ``targets``, :data:`~repro.graphs.csr.UNREACHED` where
    unreachable).  See :func:`diameter` for the bound rules.
    """
    k = len(targets)
    unbounded = int(np.iinfo(np.int64).max)
    lower = np.zeros(k, dtype=np.int64)
    upper = np.full(k, unbounded, dtype=np.int64)
    live = np.ones(k, dtype=bool)
    d_lower, d_upper = 0, unbounded
    pick_high = True
    while d_lower < d_upper:
        candidates = np.flatnonzero(live)
        if pick_high:
            key = upper[candidates]
            tied = candidates[key == key.max()]
        else:
            key = lower[candidates]
            tied = candidates[key == key.min()]
        source = int(tied[np.argmax(degree[tied])])
        dist = distances_from(targets[source])
        if (dist == UNREACHED).any():
            return INFINITY
        ecc = dist.max()
        np.maximum(lower, np.maximum(dist, ecc - dist), out=lower)
        np.minimum(upper, ecc + dist, out=upper)
        d_lower, d_upper = int(lower.max()), int(upper.max())
        # Prune a vertex that can neither raise the lower bound (its upper
        # bound is already reached) nor, as a BFS source, lower the upper one
        # (2·ecc >= 2·lower >= d_upper); a vertex with exact bounds (every
        # BFS source included) is settled.
        live &= ~(((upper <= d_lower) & (2 * lower >= d_upper)) | (lower == upper))
        pick_high = not pick_high
    return float(d_lower)


def max_component_diameter(graph: Graph, *, exact: bool = True) -> int:
    """Return the largest diameter of any connected component of ``graph``.

    This is the "effective" diameter the shortcut parameters use on a
    possibly disconnected host (the connected-components consumer runs on
    such graphs): shortcuts never route between components, so the relevant
    ``D`` is the worst per-component hop diameter, not the global
    :data:`INFINITY`.  An edgeless graph has effective diameter 0.

    Args:
        exact: with ``True`` every component runs the exact
            :func:`diameter` (a handful of BFS runs per component on the
            constant-diameter families, one per vertex in the worst case).
            ``False`` runs one double sweep per component instead (two BFS
            runs), returning a value in ``[D/2, D]`` — what the shortcut
            *parameter* defaults use, mirroring the distributed pipeline's
            measured BFS 2-approximation probe.
    """
    from .components import connected_components

    worst = 0
    for component in connected_components(graph):
        if len(component) <= 1:
            continue
        members = set(component)
        if exact:
            d = diameter(graph, vertices=component, allowed=members)
        else:
            d = diameter_lower_bound_double_sweep(
                graph, start=min(members), allowed=members
            )
        if d > worst:
            worst = int(d)
    return worst


def diameter_lower_bound_double_sweep(
    graph: Graph,
    *,
    start: int = 0,
    allowed: Optional[set[int]] = None,
) -> int:
    """Return a lower bound on the diameter via a double BFS sweep.

    The double sweep (BFS from an arbitrary vertex, then BFS from the
    farthest vertex found) gives the exact diameter on trees and a good
    lower bound in general.  It is used by generators to cheaply validate
    that constructed graphs meet their target diameter before the exact
    check.
    """
    if allowed is not None and start not in allowed:
        start = next(iter(allowed))
    dist = bfs_distances(graph, start, allowed=allowed)
    far = max(dist, key=dist.get)  # type: ignore[arg-type]
    dist2 = bfs_distances(graph, far, allowed=allowed)
    return max(dist2.values(), default=0)


def is_connected(graph: Graph, vertices: Optional[Iterable[int]] = None) -> bool:
    """Return ``True`` if the given vertex set is connected in ``graph``.

    With no ``vertices`` argument, a plain :class:`Graph` is checked over all
    its vertices and a :class:`Subgraph` over its present vertex set.
    Vertices are only allowed to be connected *through* the given set (i.e.
    this checks connectivity of the induced subgraph).
    """
    if vertices is None:
        if isinstance(graph, Subgraph):
            verts = set(graph.vertex_set)
        else:
            verts = set(graph.vertices())
    else:
        verts = set(vertices)
    if not verts:
        return True
    source = next(iter(verts))
    dist = bfs_distances(graph, source, allowed=verts)
    return len(dist) == len(verts)


def distances_to_set(graph: Graph, targets: Iterable[int]) -> dict[int, int]:
    """Multi-source BFS: distance of every vertex to the nearest target.

    Used by the shortcut-tree construction, where layer depth bounds are
    phrased in terms of ``dist_G(P, Q) = max_{u in P} dist_G(u, Q)``.
    """
    if isinstance(graph, Graph):
        levels, visited = bfs_levels(graph.csr(), targets)
        return {v: levels[v] for v in visited}
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for t in targets:
        if t not in dist:
            dist[t] = 0
            queue.append(t)
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = du + 1
                queue.append(v)
    return dist
