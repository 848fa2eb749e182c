#!/usr/bin/env python3
"""Run the distributed (CONGEST) shortcut construction on the simulator.

The example builds an Elkin-style lower-bound instance (disjoint long paths
glued by a shallow connector tree — the adversarial topology behind the
~Omega(n^((D-2)/(2D-2))) bound), then runs the paper's distributed
construction end to end:

* large-part detection by truncated BFS inside every part,
* local edge sampling,
* concurrent truncated BFS over all augmented subgraphs under the
  random-delay scheduler (the round-dominant stage, fully simulated with
  per-edge bandwidth 1),
* verification — including the diameter-guessing loop used when D is not
  known in advance.

Run with:  python examples/distributed_construction.py
"""

from __future__ import annotations

from repro import Partition, build_distributed_kogan_parter, lower_bound_instance
from repro.params import k_d_value, predicted_rounds_distributed


def show(result, n: int, diameter: int, label: str) -> None:
    print(f"\n--- {label} ---")
    print(f"attempted diameter guesses : {result.attempted_guesses}")
    print(f"accepted guess             : {result.accepted_guess}")
    print(f"spanning verification      : {result.spanning_ok}")
    print("rounds breakdown:")
    for stage, rounds in result.rounds_breakdown.items():
        print(f"    {stage:<22} {rounds}")
    print(f"total rounds               : {result.total_rounds}")
    print(f"predicted  k_D log^2 n     : {predicted_rounds_distributed(n, diameter):.0f}")
    if result.bfs_metrics is not None:
        m = result.bfs_metrics
        print(f"concurrent BFS: {m.rounds} rounds, {m.messages_delivered} messages, "
              f"max per-edge load {m.max_edge_messages}")
    report = result.shortcut.quality_report(exact_dilation=False, rng=4)
    print(f"shortcut quality           : congestion {report.congestion} + "
          f"dilation {report.dilation} = {report.quality}")


def main() -> None:
    n, diameter = 240, 6
    inst = lower_bound_instance(n, diameter)
    graph = inst.graph
    partition = Partition(graph, inst.parts)
    print(f"Lower-bound instance: n={graph.num_vertices}, m={graph.num_edges}, "
          f"D={inst.diameter}, {inst.num_paths} paths of {inst.path_length} vertices")
    print(f"k_D = {k_d_value(graph.num_vertices, diameter):.2f}")

    known = build_distributed_kogan_parter(
        graph, partition, diameter_value=diameter, log_factor=0.25, rng=1
    )
    show(known, graph.num_vertices, diameter, "known diameter")

    unknown = build_distributed_kogan_parter(
        graph,
        partition,
        diameter_value=diameter,
        known_diameter=False,
        log_factor=0.25,
        rng=2,
    )
    show(unknown, graph.num_vertices, diameter, "unknown diameter (guessing loop)")


if __name__ == "__main__":
    main()
