"""Graph generators used by the experiments and tests.

The paper's results hold for *every* n-vertex graph of constant diameter D.
The experiments therefore exercise the construction on three kinds of
instance:

* benign constant-diameter graphs (hub-augmented random graphs, stars of
  clusters, complete bipartite-ish cores) that model the "real-world small
  diameter" motivation,
* adversarial instances derived from the Elkin / Das-Sarma et al. lower
  bound topology (see :mod:`repro.graphs.lower_bound`), and
* small classic graphs (paths, cycles, grids, cliques) used by the unit
  tests.

Every randomized generator takes an explicit :class:`random.Random` (or
integer seed) so that experiments are reproducible.
"""

from __future__ import annotations

from typing import Callable

from .graph import Graph, WeightedGraph
from .traversal import INFINITY, bfs_distances, diameter, is_connected

from ..rng import RandomLike, ensure_rng as _rng


# ----------------------------------------------------------------------
# classic graphs
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """Return the path on ``n`` vertices ``0 - 1 - ... - n-1``."""
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Return the cycle on ``n`` vertices (``n >= 3``)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    """Return the complete graph K_n (diameter 1 for ``n >= 2``)."""
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> Graph:
    """Return the star with centre 0 and ``n - 1`` leaves (diameter 2)."""
    if n < 1:
        raise ValueError("star needs at least 1 vertex")
    return Graph(n, [(0, i) for i in range(1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """Return the ``rows x cols`` grid graph; vertex (r, c) has id ``r*cols + c``."""
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                g.add_edge(v, v + 1)
            if r + 1 < rows:
                g.add_edge(v, v + cols)
    return g


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Return K_{a,b}; the first ``a`` ids form one side (diameter 2)."""
    g = Graph(a + b)
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    return g


def binary_tree_graph(depth: int) -> Graph:
    """Return a complete binary tree of the given depth (root has id 0)."""
    n = 2 ** (depth + 1) - 1
    g = Graph(n)
    for v in range(1, n):
        g.add_edge(v, (v - 1) // 2)
    return g


def torus_graph(rows: int, cols: int) -> Graph:
    """Return the ``rows x cols`` torus (grid with wraparound, 4-regular).

    Vertex ``(r, c)`` has id ``r * cols + c``.  Both dimensions must be at
    least 3 so the wraparound edges do not coincide with grid edges (which
    would create parallel edges in a simple graph).
    """
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be at least 3")
    g = Graph(rows * cols)
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            g.add_edge(v, r * cols + (c + 1) % cols)
            g.add_edge(v, ((r + 1) % rows) * cols + c)
    return g


def caterpillar_graph(
    spine_length: int,
    legs_per_vertex: int = 1,
    *,
    hub: bool = False,
) -> Graph:
    """Return a caterpillar: a spine path with ``legs_per_vertex`` leaves each.

    Spine vertices are ``0 .. spine_length - 1``; leaves get the following
    ids, grouped by spine vertex.  Caterpillars (and brooms, see
    :func:`broom_graph`) are the classic worst-case part shapes for part-wise
    aggregation: the spine is a long induced path, so aggregation over the
    raw part tree costs its full length.

    Args:
        spine_length: number of spine vertices (``>= 2``).
        legs_per_vertex: leaves attached to every spine vertex.
        hub: also add one extra vertex (the last id) adjacent to every spine
            vertex.  A bare caterpillar is a tree of diameter
            ``Theta(spine_length)`` — outside the paper's constant-diameter
            regime, and with no chords a shortcut has nothing to route over.
            The hub embeds the same adversarial part in a diameter-<=4 host,
            which is the setting where Kogan-Parter shortcuts shorten it.
    """
    if spine_length < 2:
        raise ValueError("caterpillar needs a spine of at least 2 vertices")
    if legs_per_vertex < 0:
        raise ValueError("legs_per_vertex must be non-negative")
    n = spine_length * (1 + legs_per_vertex) + (1 if hub else 0)
    g = Graph(n)
    for i in range(spine_length - 1):
        g.add_edge(i, i + 1)
    leaf = spine_length
    for i in range(spine_length):
        for _ in range(legs_per_vertex):
            g.add_edge(i, leaf)
            leaf += 1
    if hub:
        for i in range(spine_length):
            g.add_edge(n - 1, i)
    return g


def broom_graph(
    handle_length: int,
    bristles: int,
    *,
    hub: bool = False,
) -> Graph:
    """Return a broom: a handle path ending in a star of ``bristles`` leaves.

    Handle vertices are ``0 .. handle_length - 1``; the bristle leaves hang
    off vertex ``handle_length - 1``.  Like the caterpillar, the handle is a
    long induced path — the worst case for raw part-tree aggregation.

    Args:
        handle_length: number of handle vertices (``>= 2``).
        bristles: number of leaves at the far end.
        hub: add one extra vertex (the last id) adjacent to every handle
            vertex, embedding the broom in a diameter-<=4 host (see
            :func:`caterpillar_graph` for why: a bare broom is a tree, and a
            shortcut can only use edges the graph actually has).
    """
    if handle_length < 2:
        raise ValueError("broom needs a handle of at least 2 vertices")
    if bristles < 1:
        raise ValueError("broom needs at least 1 bristle")
    n = handle_length + bristles + (1 if hub else 0)
    g = Graph(n)
    for i in range(handle_length - 1):
        g.add_edge(i, i + 1)
    for leaf in range(handle_length, handle_length + bristles):
        g.add_edge(handle_length - 1, leaf)
    if hub:
        for i in range(handle_length):
            g.add_edge(n - 1, i)
    return g


# ----------------------------------------------------------------------
# random graphs
# ----------------------------------------------------------------------
def erdos_renyi_graph(n: int, p: float, rng: RandomLike = None) -> Graph:
    """Return a G(n, p) Erdos-Renyi random graph."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    r = _rng(rng)
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if r.random() < p:
                g.add_edge(u, v)
    return g


def random_connected_graph(n: int, extra_edge_prob: float = 0.05, rng: RandomLike = None) -> Graph:
    """Return a connected random graph: a random spanning tree plus extra edges."""
    r = _rng(rng)
    g = Graph(n)
    order = list(range(n))
    r.shuffle(order)
    for i in range(1, n):
        g.add_edge(order[i], order[r.randrange(i)])
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and r.random() < extra_edge_prob:
                g.add_edge(u, v)
    return g


def random_regular_graph(n: int, degree: int = 4, rng: RandomLike = None) -> Graph:
    """Return a connected random ``degree``-regular graph (pairing model).

    Random regular graphs of degree >= 3 are expanders with high
    probability: logarithmic diameter, no sparse cuts — the benign end of
    the workload spectrum for the shortcut experiments (parts stay shallow
    no matter how they are carved).  The construction retries the pairing
    until it yields a simple connected graph, which takes O(1) attempts in
    expectation for constant degree.

    Args:
        n: number of vertices; ``n * degree`` must be even and
            ``degree < n``.
        degree: vertex degree (``>= 3`` for connectivity to hold w.h.p.).
        rng: seed or Random.
    """
    if degree < 1 or degree >= n:
        raise ValueError("need 1 <= degree < n")
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    r = _rng(rng)
    for _attempt in range(200):
        # Greedy pairing with leftover re-shuffling: pair shuffled stubs,
        # keep the pairs that form new simple edges, re-shuffle the rest.
        # Unlike whole-sample rejection (success probability
        # ~exp(-(d^2-1)/4) per draw), this restarts O(1) times.
        edges: set[tuple[int, int]] = set()
        stubs = [v for v in range(n) for _ in range(degree)]
        while stubs:
            r.shuffle(stubs)
            leftover: list[int] = []
            for i in range(0, len(stubs), 2):
                u, v = stubs[i], stubs[i + 1]
                key = (u, v) if u < v else (v, u)
                if u == v or key in edges:
                    leftover.append(u)
                    leftover.append(v)
                else:
                    edges.add(key)
            if len(leftover) == len(stubs):
                # No progress: the leftover stubs admit no new simple edge.
                break
            stubs = leftover
        if stubs:
            continue
        g = Graph(n, sorted(edges))
        if degree < 3 or is_connected(g):
            return g
    raise ValueError(
        f"failed to sample a simple {degree}-regular graph on {n} vertices"
    )


def preferential_attachment_graph(n: int, attach: int = 2, rng: RandomLike = None) -> Graph:
    """Return a Barabasi-Albert preferential-attachment graph.

    Starts from a clique on ``attach + 1`` vertices; every later vertex
    attaches to ``attach`` distinct existing vertices chosen with
    probability proportional to their current degree.  The result is
    connected, has a heavy-tailed degree distribution (a few hubs carry most
    of the traffic) and logarithmic diameter — the "scale-free" scenario of
    the workload sweep.

    Args:
        n: number of vertices (``> attach``).
        attach: edges added per new vertex (``>= 1``).
        rng: seed or Random.
    """
    if attach < 1:
        raise ValueError("attach must be at least 1")
    if n <= attach:
        raise ValueError("need n > attach")
    r = _rng(rng)
    g = Graph(n)
    # Degree-proportional sampling via the repeated-endpoints list: every
    # endpoint of every edge appears once, so a uniform draw from the list
    # is a draw proportional to degree.
    endpoints: list[int] = []
    seed_size = attach + 1
    for u in range(seed_size):
        for v in range(u + 1, seed_size):
            g.add_edge(u, v)
            endpoints.append(u)
            endpoints.append(v)
    for v in range(seed_size, n):
        chosen: set[int] = set()
        while len(chosen) < attach:
            chosen.add(r.choice(endpoints))
        for u in chosen:
            g.add_edge(u, v)
            endpoints.append(u)
            endpoints.append(v)
    return g


# ----------------------------------------------------------------------
# constant-diameter families
# ----------------------------------------------------------------------
def hub_diameter_graph(
    n: int,
    target_diameter: int,
    *,
    extra_edge_prob: float = 0.0,
    rng: RandomLike = None,
) -> Graph:
    """Return a connected n-vertex graph with diameter exactly ``target_diameter``.

    Construction: a "backbone" path ``b_0 - b_1 - ... - b_D`` of
    ``target_diameter + 1`` hub vertices fixes the diameter from below; every
    other vertex attaches to one of the interior hubs plus (optionally) a few
    random chords between vertices on the same or adjacent hubs.  Hanging
    every vertex off an interior hub caps all distances at the target, and
    a chord advances at most one backbone position, so no chord chain can
    shorten the backbone path: the diameter is exactly the target by
    construction.  The exact diameter and the backbone endpoints' distance
    are still verified, and a miss raises :class:`ValueError`.

    This is the workhorse "benign" family for the quality experiments:
    constant diameter, linear number of vertices hanging off a small core.

    Args:
        n: number of vertices, must satisfy ``n >= target_diameter + 1``.
        target_diameter: desired hop diameter (``>= 2``).
        extra_edge_prob: probability of adding each random chord between
            non-backbone vertices.
        rng: seed or Random.

    Raises:
        ValueError: if the parameters are infeasible.
    """
    if target_diameter < 2:
        raise ValueError("target_diameter must be at least 2")
    if n < target_diameter + 1:
        raise ValueError("need at least target_diameter + 1 vertices")
    r = _rng(rng)
    g = Graph(n)
    backbone = list(range(target_diameter + 1))
    for i in range(target_diameter):
        g.add_edge(backbone[i], backbone[i + 1])
    # Attach remaining vertices to interior hubs only, so that the backbone
    # endpoints keep their full distance.
    interior = backbone[1:-1] if target_diameter >= 2 else backbone
    others = list(range(target_diameter + 1, n))
    hub_of: dict[int, int] = {}
    for v in others:
        hub = r.choice(interior)
        hub_of[v] = hub
        g.add_edge(v, hub)
    if extra_edge_prob > 0 and len(others) >= 2:
        # Chords are only allowed between vertices hanging off the same or
        # adjacent hubs: such a chord advances at most one backbone position
        # per edge, so no chain of chords can ever beat the backbone path and
        # the diameter stays pinned at the target.
        for i, u in enumerate(others):
            for v in others[i + 1:]:
                if abs(hub_of[u] - hub_of[v]) > 1:
                    continue
                if r.random() < extra_edge_prob:
                    g.add_edge(u, v)
    _ensure_exact_diameter(g, target_diameter, backbone)
    return g


def cluster_star_graph(
    num_clusters: int,
    cluster_size: int,
    *,
    rng: RandomLike = None,
) -> Graph:
    """Return a "star of clusters" graph of diameter 4.

    A central hub vertex connects to one representative of each cluster;
    each cluster is a clique of ``cluster_size`` vertices.  The diameter is
    4 (clique vertex -> representative -> hub -> representative -> clique
    vertex), a common shape for data-centre style topologies.  The clusters
    are natural parts for the shortcut problem.
    """
    if num_clusters < 2 or cluster_size < 1:
        raise ValueError("need at least 2 clusters of size >= 1")
    n = 1 + num_clusters * cluster_size
    g = Graph(n)
    hub = 0
    for c in range(num_clusters):
        base = 1 + c * cluster_size
        members = list(range(base, base + cluster_size))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                g.add_edge(u, v)
        g.add_edge(hub, members[0])
    return g


def layered_diameter_graph(
    n: int,
    target_diameter: int,
    *,
    width_decay: float = 0.5,
    extra_edge_prob: float = 0.1,
    rng: RandomLike = None,
) -> Graph:
    """Return a layered random graph with diameter exactly ``target_diameter``.

    A spine path ``s_0 - s_1 - ... - s_D`` pins the diameter from below.
    The remaining vertices are split into interior layers ``1 .. D-1`` whose
    sizes decay geometrically away from the middle; a vertex of layer ``i``
    connects to the two spine vertices ``s_{i-1}`` and ``s_i`` plus random
    chords to vertices of the same or an adjacent layer.  Every non-spine
    vertex advances at most one spine position per edge, so no combination
    of chords can beat the spine path and the diameter stays exactly ``D``;
    at the same time the layers are dense enough that long induced paths
    (adversarial parts) exist.
    """
    if target_diameter < 2:
        raise ValueError("target_diameter must be at least 2")
    if n < target_diameter + 1:
        raise ValueError("need at least target_diameter + 1 vertices")
    r = _rng(rng)
    num_layers = target_diameter + 1
    spine = list(range(num_layers))
    g = Graph(n)
    for i in range(target_diameter):
        g.add_edge(spine[i], spine[i + 1])

    interior = num_layers - 2
    others = list(range(num_layers, n))
    layer_of: dict[int, int] = {}
    if interior > 0 and others:
        weights = []
        for i in range(interior):
            centre_dist = abs(i - (interior - 1) / 2)
            weights.append(width_decay ** centre_dist)
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        for idx, v in enumerate(others):
            # Deterministic proportional assignment (round-robin over the
            # cumulative weights) keeps layer sizes close to the target split.
            fraction = (idx + 0.5) / len(others)
            layer = 1 + next(i for i, c in enumerate(cumulative) if fraction <= c or i == interior - 1)
            layer_of[v] = layer
            g.add_edge(v, spine[layer - 1])
            g.add_edge(v, spine[layer])
        if extra_edge_prob > 0:
            for i, u in enumerate(others):
                for v in others[i + 1:]:
                    if abs(layer_of[u] - layer_of[v]) > 1:
                        continue
                    if r.random() < extra_edge_prob:
                        g.add_edge(u, v)
    elif others:
        # Diameter 2: everything hangs off the middle spine vertex.
        for v in others:
            g.add_edge(v, spine[1])
    _ensure_exact_diameter(g, target_diameter, [spine[0], spine[-1]])
    return g


def _ensure_exact_diameter(g: Graph, target: int, witnesses: list[int]) -> None:
    """Validate that ``g`` has diameter exactly ``target``.

    ``witnesses`` should contain two vertices at distance ``target`` by
    construction; the function verifies connectivity, that no pair exceeds
    the target, and that the witness pair achieves it.  One exact
    :func:`~repro.graphs.traversal.diameter` call covers the first two (a
    handful of BFS runs on these families), plus one BFS from the first
    witness.

    Raises:
        ValueError: if the construction missed the target (callers treat this
            as a programming error in the generator, not a user error).
    """
    exact = diameter(g)
    if exact == INFINITY:
        raise ValueError("generated graph is disconnected")
    if exact > target:
        raise ValueError(f"generated graph has diameter > {target}")
    if exact != target:
        raise ValueError(f"generated graph has diameter {exact}, wanted {target}")
    source, sink = witnesses[0], witnesses[-1]
    reached = bfs_distances(g, source).get(sink)
    if reached != target:
        raise ValueError(
            f"witnesses {source} and {sink} are at distance {reached}, wanted {target}"
        )


# ----------------------------------------------------------------------
# weighted graphs
# ----------------------------------------------------------------------
def with_random_weights(
    graph: Graph,
    *,
    low: float = 1.0,
    high: float = 100.0,
    rng: RandomLike = None,
    unique: bool = True,
) -> WeightedGraph:
    """Return a weighted copy of ``graph`` with random edge weights.

    Args:
        low, high: weight range.
        unique: if ``True`` (default), weights are perturbed to be pairwise
            distinct, which makes the MST unique and simplifies equality
            checks in tests.
    """
    r = _rng(rng)
    wg = WeightedGraph(graph.num_vertices)
    edges = list(graph.edges())
    for idx, (u, v) in enumerate(edges):
        w = r.uniform(low, high)
        if unique:
            w = round(w, 3) + idx * 1e-6
        wg.add_weighted_edge(u, v, w)
    return wg


# ----------------------------------------------------------------------
# named family registry (CLI `repro generate` and the family sweeps)
# ----------------------------------------------------------------------
def _family_expander(n: int, rng: RandomLike = None) -> Graph:
    if n <= 5:
        # Degenerate sizes: K_n is the (n-1)-regular "expander".
        return complete_graph(n)
    return random_regular_graph(n, 4, rng)


def _family_preferential(n: int, rng: RandomLike = None) -> Graph:
    return preferential_attachment_graph(n, attach=min(2, max(1, n - 2)), rng=rng)


def _family_torus(n: int, rng: RandomLike = None) -> Graph:
    side = max(3, round(n ** 0.5))
    rows = max(3, n // side)
    return torus_graph(rows, side)


def _family_caterpillar(n: int, rng: RandomLike = None) -> Graph:
    # One leg per spine vertex plus the hub host: spine ~ n / 2.
    spine = max(2, (n - 1) // 2)
    return caterpillar_graph(spine, legs_per_vertex=1, hub=True)


def _family_broom(n: int, rng: RandomLike = None) -> Graph:
    # Half handle, half bristles, plus the hub host.
    handle = max(2, (n - 1) // 2)
    bristles = max(1, n - 1 - handle)
    return broom_graph(handle, bristles, hub=True)


def _family_hub(n: int, rng: RandomLike = None) -> Graph:
    if n < 4:
        return complete_graph(n)
    # hub_diameter_graph needs n >= target + 1 (and target >= 2).
    target = min(6, max(2, n - 1))
    extra = min(0.05, 4.0 / max(n, 1))
    return hub_diameter_graph(n, target, extra_edge_prob=extra, rng=rng)


#: Named graph families with a normalized ``(n, rng) -> Graph`` signature.
#: Every family returns a connected graph with approximately ``n`` vertices
#: (``torus`` rounds to a grid shape, ``caterpillar``/``broom`` to their
#: structural split).  Used by ``repro generate`` and by the oracle sweeps
#: that check the shortcut consumers on every family.
GENERATOR_FAMILIES: dict[str, Callable[[int, RandomLike], Graph]] = {
    "expander": _family_expander,
    "preferential": _family_preferential,
    "torus": _family_torus,
    "caterpillar": _family_caterpillar,
    "broom": _family_broom,
    "hub": _family_hub,
}


def disjoint_union(blocks: "list[Graph]") -> Graph:
    """Return the disjoint union of ``blocks`` on a shared vertex id space.

    Block ``i``'s vertices are shifted by the total size of the blocks
    before it.  This is the standard multi-component workload constructor
    (the connected-components consumer and its benchmarks are the main
    customers).
    """
    graph = Graph(sum(b.num_vertices for b in blocks))
    offset = 0
    for block in blocks:
        for u, v in block.edges():
            graph.add_edge(offset + u, offset + v)
        offset += block.num_vertices
    return graph


def make_family_graph(family: str, n: int, rng: RandomLike = None) -> Graph:
    """Build a graph of one of the :data:`GENERATOR_FAMILIES` (by name)."""
    try:
        builder = GENERATOR_FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown graph family {family!r}; "
            f"choose from {sorted(GENERATOR_FAMILIES)}"
        ) from None
    if n < 2:
        raise ValueError("family graphs need at least 2 vertices")
    return builder(n, rng)


def planted_cut_graph(
    half_size: int,
    cut_edges: int,
    *,
    intra_prob: float = 0.3,
    rng: RandomLike = None,
) -> WeightedGraph:
    """Return a weighted graph with a planted sparse cut of ``cut_edges`` unit edges.

    Two dense random halves of ``half_size`` vertices each are joined by
    exactly ``cut_edges`` crossing edges of weight 1; intra-half edges get
    weight 10.  The minimum cut therefore has value ``cut_edges`` (for
    reasonable densities), which gives the min-cut experiments a known
    ground truth.
    """
    if half_size < 2 or cut_edges < 1:
        raise ValueError("need half_size >= 2 and cut_edges >= 1")
    r = _rng(rng)
    n = 2 * half_size
    wg = WeightedGraph(n)
    for base in (0, half_size):
        members = list(range(base, base + half_size))
        # Spanning cycle guarantees each half is 2-edge-connected.
        for i in range(half_size):
            wg.add_weighted_edge(members[i], members[(i + 1) % half_size], 10.0)
        for i in range(half_size):
            for j in range(i + 2, half_size):
                if r.random() < intra_prob:
                    wg.add_weighted_edge(members[i], members[j], 10.0)
    crossing = set()
    while len(crossing) < cut_edges:
        u = r.randrange(half_size)
        v = half_size + r.randrange(half_size)
        crossing.add((u, v))
    for u, v in crossing:
        wg.add_weighted_edge(u, v, 1.0)
    return wg
