#!/usr/bin/env python3
"""Time the brute-force oracle on scalable generator families.

For each family and size, the full net is explored with ``explore`` and its
concurrency relation computed with ``oracle_concurrency``; each row holds the
state count, the exploration status, and the median over 3 runs of both
times and of the exploration rate.  The runs are interleaved: each of the 3
passes times every row once, so a burst of load on the machine moves one
run of many rows rather than every run of one.  Run from the repo root:

    PYTHONPATH=src python scripts/bench_scaling.py [--output BENCH_explore.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from tfgkit import generators as gen
from tfgkit.petri import explore, oracle_concurrency

MAX_STATES = 1_000_000
REPEATS = 3

FAMILIES = {
    "chain_line": ((50, 100, 200, 500, 1000, 2000, 5000), lambda n: gen.chain_line(n).build()),
    "two_phase_branches": ((8, 10, 12, 14, 16), lambda w: gen.two_phase_branches(w).build()),
    "diamond_chain": ((4, 6, 8, 10), gen.diamond_chain),
    "choice_loop": ((10, 100, 500, 1000, 2000), lambda b: gen.choice_loop(b).build()),
}


def time_once(net, m0) -> tuple[int, str, float, float | None]:
    """States, status and seconds of one ``explore``, plus the seconds of
    ``oracle_concurrency`` on its space when that is complete."""
    start = time.perf_counter()
    space = explore(net, m0, max_states=MAX_STATES)
    explore_s = time.perf_counter() - start
    oracle_s = None
    if space.is_complete:
        start = time.perf_counter()
        oracle_concurrency(space, net.places)
        oracle_s = time.perf_counter() - start
    return len(space), space.status, explore_s, oracle_s


def summarize(family: str, size: int, runs: list[tuple[int, str, float, float | None]]) -> dict:
    """One row: the last run's states and status, the median times."""
    states, status = runs[-1][:2]
    seconds = statistics.median(run[2] for run in runs)
    oracle_s = [run[3] for run in runs if run[3] is not None]
    return {
        "family": family,
        "size": size,
        "states": states,
        "status": status,
        "explore_s": seconds,
        "oracle_concurrency_s": statistics.median(oracle_s) if oracle_s else None,
        "states_per_s": states / seconds if seconds else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_explore.json")
    args = parser.parse_args(argv)
    cases = [(family, size, build(size))
             for family, (sizes, build) in FAMILIES.items() for size in sizes]
    runs: list[list] = [[] for _ in cases]
    for repeat in range(REPEATS):
        for (_, _, (net, m0)), case_runs in zip(cases, runs):
            case_runs.append(time_once(net, m0))
        print(f"pass {repeat + 1} of {REPEATS} done", flush=True)
    rows = [summarize(family, size, case_runs)
            for (family, size, _), case_runs in zip(cases, runs)]
    for row in rows:
        print(f"{row['family']}({row['size']}): {row['states']} states {row['status']}, "
              f"explore {row['explore_s']:.4f} s")
    document = {
        "command": "python scripts/bench_scaling.py",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "repeats": REPEATS,
        "rows": rows,
    }
    Path(args.output).write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
