"""The bit-parallel shortcut quality kernel against the per-part BFS loop.

``Shortcut.congestion``/``edge_loads`` come from one ``np.bincount`` and
``part_dilation``/``part_dilations``/``dilation``/``quality_report`` from a
word-packed multi-source BFS over the host CSR.  The oracle below is the
per-part, per-source Python loop those measures used to run: it draws its
sampled sources the same way (one ``ensure_rng`` per non-singleton part, the
leader, then ``min(sample_size, |S_i|)`` draws of ``r.choice(list(part))``),
stops ``dilation`` at the first disconnected part, and counts loads part by
part.  Values and the state of a shared ``random.Random`` must match it
exactly.
"""

from __future__ import annotations

import random
from collections import Counter, deque

import pytest

import repro.shortcuts.shortcut as shortcut_module
from repro.analysis.experiments import make_workload
from repro.graphs import INFINITY, Graph, path_graph, random_connected_graph
from repro.graphs.partitions import random_connected_partition
from repro.rng import ensure_rng
from repro.shortcuts import Partition, Shortcut, build_kogan_parter_shortcut

# ----------------------------------------------------------------------
# oracle: the per-part, per-source BFS loop
# ----------------------------------------------------------------------


def oracle_part_dilation(sc: Shortcut, index: int, *, exact: bool = True, rng=None,
                         sample_size: int = 4) -> float:
    part = sc.partition.part(index)
    if len(part) <= 1:
        return 0.0
    adjacency: dict[int, list[int]] = {v: [] for v in part}
    for u, v in sc.augmented_edges(index):
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    if exact:
        sources = list(part)
    else:
        r = ensure_rng(rng)
        sources = [sc.partition.leader(index)]
        pool = list(part)
        for _ in range(min(sample_size, len(pool))):
            sources.append(r.choice(pool))
    worst = 0
    for s in sources:
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for t in part:
            if t not in dist:
                return INFINITY
            worst = max(worst, dist[t])
    return float(worst)


def oracle_dilation(sc: Shortcut, *, exact: bool = True, rng=None) -> float:
    worst = 0.0
    for i in range(sc.num_parts):
        d = oracle_part_dilation(sc, i, exact=exact, rng=rng)
        if d == INFINITY:
            return INFINITY
        worst = max(worst, d)
    return worst


def oracle_edge_loads(sc: Shortcut) -> dict[tuple[int, int], int]:
    loads: Counter = Counter()
    for i in range(sc.num_parts):
        for e in sc.augmented_edges(i):
            loads[e] += 1
    return dict(loads)


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------


def kp_case(kind: str, n: int, seed: int) -> Shortcut:
    w = make_workload(kind, n, 6, seed=seed)
    return build_kogan_parter_shortcut(
        w.graph, w.partition, diameter_value=w.diameter, rng=seed
    ).shortcut


def random_case(seed: int) -> Shortcut:
    """Random parts (singletons included, cover not forced) and random ``H_i``
    (some empty, many edges with no part endpoint)."""
    r = random.Random(seed)
    g = random_connected_graph(r.randint(20, 70), extra_edge_prob=0.06, rng=r)
    parts = random_connected_partition(g, r.randint(1, 8), rng=r)
    covered = set().union(*parts)
    free = [v for v in range(g.num_vertices) if v not in covered]
    if free:
        parts.append({free[0]})
    edges = sorted(g.edges())
    subgraphs = [r.sample(edges, r.randint(0, len(edges) // 3)) if r.random() < 0.8 else []
                 for _ in parts]
    return Shortcut(Partition(g, parts), subgraphs)


CASES = {
    **{f"lower_bound_{n}": (lambda n=n: kp_case("lower_bound", n, 1)) for n in (200, 500)},
    **{f"hub_{s}": (lambda s=s: kp_case("hub", 300, s)) for s in (1, 2)},
    "cluster": lambda: kp_case("cluster", 200, 3),
    **{f"random_{s}": (lambda s=s: random_case(s)) for s in range(8)},
}


@pytest.fixture(params=sorted(CASES), scope="module")
def case(request) -> Shortcut:
    return CASES[request.param]()


# ----------------------------------------------------------------------
# pins
# ----------------------------------------------------------------------


def test_edge_loads_and_congestion_match_oracle(case):
    loads = oracle_edge_loads(case)
    assert case.edge_loads() == loads
    assert case.congestion() == max(loads.values(), default=0)
    assert type(case.congestion()) is int


def test_exact_dilation_matches_oracle(case):
    per_part = [oracle_part_dilation(case, i) for i in range(case.num_parts)]
    assert [case.part_dilation(i) for i in range(case.num_parts)] == per_part
    assert case.part_dilations() == per_part
    assert case.dilation() == max(per_part, default=0.0)
    assert case.quality_report().dilation == oracle_dilation(case)


@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_dilation_matches_oracle_int_seed(case, seed):
    per_part = [oracle_part_dilation(case, i, exact=False, rng=seed)
                for i in range(case.num_parts)]
    assert [case.part_dilation(i, exact=False, rng=seed)
            for i in range(case.num_parts)] == per_part
    assert case.part_dilations(exact=False, rng=seed) == per_part
    assert case.dilation(exact=False, rng=seed) == oracle_dilation(case, exact=False, rng=seed)
    report = case.quality_report(exact_dilation=False, rng=seed)
    assert report.dilation == oracle_dilation(case, exact=False, rng=seed)
    assert report.congestion == case.congestion()


def test_sampled_dilation_matches_oracle_shared_rng(case):
    mine, theirs = random.Random(5), random.Random(5)
    assert case.dilation(exact=False, rng=mine) == oracle_dilation(case, exact=False, rng=theirs)
    assert mine.random() == theirs.random()
    assert (case.quality_report(exact_dilation=False, rng=mine).dilation
            == oracle_dilation(case, exact=False, rng=theirs))
    assert mine.random() == theirs.random()
    assert case.part_dilations(exact=False, rng=mine, sample_size=2) == [
        oracle_part_dilation(case, i, exact=False, rng=theirs, sample_size=2)
        for i in range(case.num_parts)
    ]
    assert mine.random() == theirs.random()


def test_disconnected_part_is_infinite_and_stops_drawing():
    # Part 1 = {6, 9} is not connected in G[S_1] ∪ H_1; parts 0 and 2 are.
    g = path_graph(16)
    partition = Partition(g, [{0, 1, 2, 3}, {6, 9}, {11, 12, 13, 14}], validate=False)
    sc = Shortcut(partition, [[(3, 4)], [(6, 7)], []])
    assert sc.dilation() == INFINITY
    assert sc.part_dilations() == [3.0, INFINITY, 3.0]
    mine, theirs = random.Random(9), random.Random(9)
    assert sc.dilation(exact=False, rng=mine) == INFINITY
    assert oracle_dilation(sc, exact=False, rng=theirs) == INFINITY
    assert mine.getstate() == theirs.getstate()
    # The oracle really stopped: part 2 would have drawn more.
    drew_all = random.Random(9)
    assert sc.part_dilations(exact=False, rng=drew_all) == [3.0, INFINITY, 3.0]
    assert drew_all.getstate() != mine.getstate()
    assert sc.quality_report(exact_dilation=False, rng=mine).dilation == INFINITY
    assert oracle_dilation(sc, exact=False, rng=theirs) == INFINITY
    assert mine.random() == theirs.random()


def test_singleton_parts_and_empty_shortcut_edges():
    g = path_graph(10)
    partition = Partition(g, [{0}, {2, 3, 4}, {7}, {8, 9}])
    sc = Shortcut(partition, [[(0, 1), (5, 6)], [], [], [(6, 7)]])
    assert sc.part_dilations() == [0.0, 2.0, 0.0, 1.0]
    rng = random.Random(1)
    assert sc.part_dilations(exact=False, rng=rng) == [0.0, 2.0, 0.0, 1.0]
    # Only the two non-singleton parts drew (one leader pass + draws each).
    expected = random.Random(1)
    for size in (3, 2):
        for _ in range(size):
            expected.choice(range(size))
    assert rng.getstate() == expected.getstate()
    assert sc.edge_loads() == oracle_edge_loads(sc)
    assert Shortcut(Partition(g, [{4}]), [[]]).quality_report().dilation == 0.0
    empty = Shortcut(Partition(g, []), [])
    assert (empty.congestion(), empty.dilation(), empty.edge_loads()) == (0, 0.0, {})


def test_shortcut_edges_without_part_endpoints_relay_and_load():
    # H_0 holds a detour 0-5-6-4 around the path 0-1-2-3-4; its middle edge
    # touches no part vertex, and (5, 7) ends in the singleton part {7}.
    g = Graph(8)
    for u, v in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 4), (5, 7)]:
        g.add_edge(u, v)
    h0 = [(0, 5), (5, 6), (6, 4), (5, 7)]
    sc = Shortcut(Partition(g, [{0, 1, 2, 3, 4}, {7}]), [h0, []])
    assert Shortcut(sc.partition, [[], []]).part_dilation(0) == 4.0
    assert sc.part_dilation(0) == oracle_part_dilation(sc, 0) == 3.0
    assert sc.edge_loads() == oracle_edge_loads(sc)
    assert sc.edge_loads()[(5, 6)] == sc.edge_loads()[(5, 7)] == 1


def test_exact_dilation_across_words_and_passes(monkeypatch):
    sc = kp_case("lower_bound", 500, 2)
    sources = sum(len(p) for p in sc.partition.parts if len(p) > 1)
    arrays = sc.graph.csr().adjacency_arrays()
    # Two 64-bit words per pass: parts straddle word and pass boundaries.
    monkeypatch.setattr(shortcut_module, "_PASS_BYTES",
                        2 * 8 * (len(arrays.indices) + sc.graph.num_vertices))
    passes = []
    kernel = shortcut_module._bit_parallel_bfs

    def counting(*args):
        passes.append(len(args[4]))
        return kernel(*args)

    monkeypatch.setattr(shortcut_module, "_bit_parallel_bfs", counting)
    assert sources > 3 * 128
    assert sc.part_dilations() == [oracle_part_dilation(sc, i) for i in range(sc.num_parts)]
    assert sum(passes) == sources and len(passes) > 3 and max(passes) == 128
