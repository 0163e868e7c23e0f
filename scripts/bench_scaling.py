#!/usr/bin/env python3
"""Time the brute-force oracle on scalable generator families.

For each family and size, the full net is explored with ``explore`` and its
concurrency relation computed with ``oracle_concurrency``; each row holds the
state count, the exploration status, and the median over 3 runs of both
times and of the exploration rate.  Run from the repo root:

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


def measure(family: str, size: int) -> dict:
    net, m0 = FAMILIES[family][1](size)
    explore_s, oracle_s = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        space = explore(net, m0, max_states=MAX_STATES)
        explore_s.append(time.perf_counter() - start)
        if space.is_complete:
            start = time.perf_counter()
            oracle_concurrency(space, net.places)
            oracle_s.append(time.perf_counter() - start)
    seconds = statistics.median(explore_s)
    return {
        "family": family,
        "size": size,
        "states": len(space),
        "status": space.status,
        "explore_s": seconds,
        "oracle_concurrency_s": statistics.median(oracle_s) if oracle_s else None,
        "states_per_s": len(space) / seconds if seconds else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_explore.json")
    args = parser.parse_args(argv)
    rows = []
    for family, (sizes, _) in FAMILIES.items():
        for size in sizes:
            row = measure(family, size)
            rows.append(row)
            print(f"{family}({size}): {row['states']} states {row['status']}, "
                  f"explore {row['explore_s']:.4f} s", flush=True)
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
