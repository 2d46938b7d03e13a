"""Benchmark of heraldsim's CLI paths: simulate, sweep, analyze and plot.

Run from the root of a heraldsim checkout::

    python3 bench/run.py --workload simulate-qm --seed 1 --seconds 20 --trace 0

The workloads are listed in ``bench/workloads.py`` and BENCHMARK.json.
With ``--trace 0`` the run reports the end-to-end metrics (calibrated wall
time of the command chain, bins per second, peak RSS, set-up time); with
``--trace 1`` it reports the per-layer metrics of a traced run.  The human
readable report goes first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "heraldsim" / "__init__.py").is_file():
        print(f"bench: no heraldsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # imports heraldsim, so only once SRC is on the path
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    # Reference, repeats and child runs share one CPU, so the reference
    # measures the speed of the core the timed work runs on.
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    bench = harness.Bench(workload, args.seed, ROOT, SRC)
    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"  pinned with its child processes to cpu {cpu} of {len(cpus)}")
    for line in harness.environment_lines(bench.base):
        print("  " + line)
    if args.trace:
        metrics = bench.measure_traced(args.seconds)
    else:
        metrics = bench.measure(args.seconds)

    for name, digest in zip((argv[0] for argv in bench.commands), bench.digests):
        print(f"  sha256 {name}: {digest}")
    ledger = bench.ledger
    for name, failures in ledger.verdicts.items():
        print(f"  check {name}: {'FAIL' if failures else 'PASS'}")
        for failure in failures[:5]:
            print(f"    {failure}")
    for name, metric in metrics.items():
        print(f"  metric {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": ledger.correct,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
