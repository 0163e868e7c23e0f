#!/usr/bin/env python3
"""Time the brute-force oracle, the reduction front end and the concurrency
lift on scalable generator families.

For each family and size, the full net is explored with ``explore``
within ``MAX_STATES`` states, its concurrency relation computed with
``oracle_concurrency`` and that matrix written as text with
``write_matrix(to_document(...))``; the net is also reduced with ``reduce``
and its token flow graph built with ``build_graph``, the reduced relation
``rel2`` of a fresh ``Analysis`` computed (its components, their spaces and
the relation), and that relation lifted through the graph with ``matrix``,
and, with its first-by-last cell hidden, with ``partial_matrix``.  Each row
holds the state count, the exploration status, the median over 5 runs of
the eight times and of the exploration rate, and the minimum of the eight
times.  The largest ``diamond_chain`` rows go past the oracle: their
exploration stops at ``MAX_STATES``, so their status is truncated and their
oracle and text times are null, while the accelerated columns are timed as
on every row.  The runs are interleaved: each of the 5 passes times every
row once, so a burst of load on the machine moves one run of many rows
rather than every run of one.  Load only ever adds time, so a change is
judged on the minimums (``explore_min_s``, ``oracle_concurrency_min_s``,
``matrix_text_min_s``, ``reduce_min_s``, ``graph_min_s``, ``rel2_min_s``,
``lift_min_s``, ``partial_min_s``).  Run from the repo root:

    PYTHONPATH=src python scripts/bench_scaling.py [--output BENCH_explore.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from tfgkit import generators as gen
from tfgkit.conc import matrix, partial_matrix, to_document
from tfgkit.net_io import write_matrix
from tfgkit.petri import explore, oracle_concurrency
from tfgkit.reach import Analysis
from tfgkit.reductions import build_graph, reduce
from tfgkit.relation import UNKNOWN

MAX_STATES = 100_000
REPEATS = 5

FAMILIES = {
    "chain_line": ((50, 100, 200, 500, 1000, 2000, 5000), lambda n: gen.chain_line(n).build()),
    "ring": ((500, 1000, 2000, 5000), lambda n: gen.ring(n).build()),
    "two_phase_branches": ((8, 10, 12, 14, 16), lambda w: gen.two_phase_branches(w).build()),
    # 3**k states: past the oracle from k = 100 on
    "diamond_chain": ((4, 6, 8, 10, 100, 200, 400), gen.diamond_chain),
    "choice_loop": ((10, 100, 500, 1000, 2000), lambda b: gen.choice_loop(b).build()),
    # 3 states, one of them with every branch marked: no two markings share
    # their upper places, so the oracle's rows merge nothing
    "fork_join": ((100, 500, 1000, 2000), lambda w: gen.fork_join(w).build()),
    # one state per stage, each marking as wide as the net: the oracle's
    # widest linear case
    "duplicate_ladder": ((500, 1000, 2000), lambda s: gen.duplicate_ladder(s).build()),
    # every merge of the chain hands the hub's k producers on: the
    # reducer's widest columns
    "fan_in_chain": ((500, 1000, 2000), lambda k: gen.fan_in_chain(k).build()),
}


Run = tuple[int, str, float, float | None, float | None, float, float, float, float, float]


def time_once(net, m0) -> Run:
    """States, status and seconds of one ``explore``, plus the seconds of
    ``oracle_concurrency`` on its space and of writing that matrix as text
    when the space is complete, of one ``reduce`` and one ``build_graph``
    on its result, of the reduced relation of a fresh ``Analysis``, and of
    one ``matrix`` and one ``partial_matrix`` on that relation.  The
    collector runs before, not during, the timed calls, as in ``timeit``:
    with every row's net alive, a full collection takes milliseconds, and
    it falls at the same allocation in every pass, so it would add to one
    stage of one row in all five."""
    gc.collect()
    gc.disable()
    try:
        return _timed(net, m0)
    finally:
        gc.enable()


def _timed(net, m0) -> Run:
    start = time.perf_counter()
    result = reduce(net, m0)
    reduce_s = time.perf_counter() - start
    start = time.perf_counter()
    graph = build_graph(net, result)
    graph_s = time.perf_counter() - start
    start = time.perf_counter()
    rel2 = Analysis(net, m0, result).rel2
    rel2_s = time.perf_counter() - start
    start = time.perf_counter()
    matrix(graph, rel2)
    lift_s = time.perf_counter() - start
    rel2.set(rel2.order[0], rel2.order[-1], UNKNOWN)
    start = time.perf_counter()
    partial_matrix(graph, rel2)
    partial_s = time.perf_counter() - start
    start = time.perf_counter()
    space = explore(net, m0, max_states=MAX_STATES)
    explore_s = time.perf_counter() - start
    oracle_s = text_s = None
    if space.is_complete:
        start = time.perf_counter()
        relation = oracle_concurrency(space, net.places)
        oracle_s = time.perf_counter() - start
        start = time.perf_counter()
        write_matrix(to_document(relation))
        text_s = time.perf_counter() - start
    return (len(space), space.status, explore_s, oracle_s, text_s, reduce_s, graph_s, rel2_s,
            lift_s, partial_s)


def summarize(family: str, size: int, runs: list[Run]) -> dict:
    """One row: the last run's states and status, the median and the
    minimum times."""
    states, status = runs[-1][:2]
    explore_s = [run[2] for run in runs]
    oracle_s = [run[3] for run in runs if run[3] is not None]
    text_s = [run[4] for run in runs if run[4] is not None]
    reduce_s = [run[5] for run in runs]
    graph_s = [run[6] for run in runs]
    rel2_s = [run[7] for run in runs]
    lift_s = [run[8] for run in runs]
    partial_s = [run[9] for run in runs]
    seconds = statistics.median(explore_s)
    return {
        "family": family,
        "size": size,
        "states": states,
        "status": status,
        "explore_s": seconds,
        "explore_min_s": min(explore_s),
        "oracle_concurrency_s": statistics.median(oracle_s) if oracle_s else None,
        "oracle_concurrency_min_s": min(oracle_s) if oracle_s else None,
        "matrix_text_s": statistics.median(text_s) if text_s else None,
        "matrix_text_min_s": min(text_s) if text_s else None,
        "reduce_s": statistics.median(reduce_s),
        "reduce_min_s": min(reduce_s),
        "graph_s": statistics.median(graph_s),
        "graph_min_s": min(graph_s),
        "rel2_s": statistics.median(rel2_s),
        "rel2_min_s": min(rel2_s),
        "lift_s": statistics.median(lift_s),
        "lift_min_s": min(lift_s),
        "partial_s": statistics.median(partial_s),
        "partial_min_s": min(partial_s),
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
              f"explore {row['explore_s']:.4f} s (min {row['explore_min_s']:.4f} s), "
              f"reduce {row['reduce_min_s']:.4f} s, graph {row['graph_min_s']:.4f} s, "
              f"rel2 {row['rel2_min_s']:.4f} s, lift {row['lift_min_s']:.4f} s, "
              f"partial {row['partial_min_s']:.4f} s (min)")
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
