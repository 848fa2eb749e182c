#!/usr/bin/env python3
"""Repo benchmark: run one workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 benchmarks/perfbench/run.py --workload mst_lb1k --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run.  ``--workload all`` runs every workload in its
own child process, one after the other.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is non-zero when any check failed.  A record of
the run (metrics, machine, and the spans of a traced run) is written to
``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in a child process and print a combined result."""
    import perfbench_driver as drv

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in drv.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        if child.returncode != 0 or result is None:
            print(f"workload {name}: exit code {child.returncode}")
            correct = False
            continue
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (entry["value"], entry["unit"])
    print(drv.result_line(correct, max(attempted, 1), failed, metrics))
    return 0 if correct and failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    import perfbench_driver as drv

    drv.require_source()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in drv.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(drv.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    report = drv.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    machine = drv.machine_record(args.seed)
    drv.print_report(report, machine)
    print(f"  record {drv.write_record(drv.ROOT / '.perfbench', report, machine, args.seconds)}")
    print(drv.result_line(report.correct, max(report.attempted, 1), report.failed,
                          report.metrics))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
