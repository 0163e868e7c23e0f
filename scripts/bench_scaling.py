#!/usr/bin/env python3
"""Time the net reader, the brute-force oracle, the reduction front end and
the concurrency lift on scalable generator families.

For each family and size, the net's text (``write_net``) is read back with
``parse_net``.  The full net is explored with ``explore`` within
``MAX_STATES`` states, its concurrency relation computed with
``oracle_concurrency`` and that matrix written as text with
``write_matrix(to_document(...))``; the net is also reduced with ``reduce``,
and one ``Analysis`` of the result builds its token flow graph and the
reduced relation ``rel2`` (its components, their spaces and the relation),
which is lifted through the graph with ``matrix``, and, with its
first-by-last cell hidden, with ``partial_matrix``.  The lifted matrix is
written as text as CLI ``conc`` writes it: ``restrict`` to the net's
places, ``to_document`` and ``write_matrix`` (``lift_text``).  Each row
holds the state count, the exploration status, the median over 5 runs of
the ten times and of the exploration rate, and the minimum of the ten
times.  It
also holds the counts of the ``Analysis``: reduced places, graph nodes,
components, the states summed over the component spaces and the lift's
cell ``writes``; and ``agree``, whether the lifted place matrix equals the
oracle's in every run, null where the oracle is truncated; and
``speedup``, the paper's headline: the oracle's ``explore`` +
``oracle_concurrency`` over the accelerated ``reduce`` + ``graph`` +
``rel2`` + ``lift``, from the minimums, null where the oracle is
truncated.  The largest ``two_phase_branches`` and ``diamond_chain`` rows
go past the oracle: their exploration stops at ``MAX_STATES``, so their
status is truncated and their oracle and text times are null, while the
accelerated columns are timed as on every row.
The runs are interleaved: each of the 5 passes times every row once, so a
burst of load on the machine moves one run of many rows rather than every
run of one.  Load only ever adds time, so a change is judged on the
minimums (``parse_min_s``, ``explore_min_s``, ``oracle_concurrency_min_s``,
``matrix_text_min_s``, ``reduce_min_s``, ``graph_min_s``, ``rel2_min_s``,
``lift_min_s``, ``lift_text_min_s``, ``partial_min_s``).  Run from the repo
root:

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
from tfgkit.net_io import parse_net, write_matrix, write_net
from tfgkit.petri import explore, oracle_concurrency
from tfgkit.reach import Analysis
from tfgkit.reductions import reduce
from tfgkit.relation import UNKNOWN

MAX_STATES = 100_000
REPEATS = 5

FAMILIES = {
    "chain_line": ((50, 100, 200, 500, 1000, 2000, 5000, 10000),
                   lambda n: gen.chain_line(n).build()),
    "ring": ((500, 1000, 2000, 5000, 10000), lambda n: gen.ring(n).build()),
    # 2**w + 2 states: past the oracle from w = 100 on
    "two_phase_branches": ((8, 10, 12, 14, 16, 100, 300, 1000),
                           lambda w: gen.two_phase_branches(w).build()),
    # 3**k states: past the oracle from k = 100 on
    "diamond_chain": ((4, 6, 8, 10, 100, 200, 400, 800), gen.diamond_chain),
    "choice_loop": ((10, 100, 500, 1000, 2000, 4000), lambda b: gen.choice_loop(b).build()),
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


# the timed stages, in the order of the row's columns; a stage that did
# not run (the oracle's, past ``MAX_STATES``) has the time None
STAGES = ("parse", "explore", "oracle_concurrency", "matrix_text", "reduce", "graph", "rel2",
          "lift", "lift_text", "partial")
# the stages that ``speedup`` weighs: the oracle's, and the accelerated route's
ORACLE = ("explore", "oracle_concurrency")
ACCELERATED = ("reduce", "graph", "rel2", "lift")


def time_once(net, m0) -> dict:
    """One run: the seconds of each stage in ``STAGES``, the state count
    and status of ``explore``, the counts of the row's ``Analysis``, and
    whether the lifted place matrix agrees with the oracle's.  The
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


def _timed(net, m0) -> dict:
    """One ``parse_net`` of the net's text; one ``reduce``; then, on one
    ``Analysis`` of its result, the graph, the reduced relation ``rel2``
    (its components, their spaces and the relation), ``matrix`` on it, the
    text of the lifted place matrix and ``partial_matrix`` with its
    first-by-last cell hidden; then one ``explore`` of the full net and,
    when that space is complete, ``oracle_concurrency`` on it and the text
    of that matrix."""
    run: dict = dict.fromkeys(STAGES)

    def lap(stage: str, start: float) -> None:
        run[stage] = time.perf_counter() - start

    text = write_net(net, m0)
    start = time.perf_counter()
    parse_net(text)
    lap("parse", start)
    start = time.perf_counter()
    result = reduce(net, m0)
    lap("reduce", start)
    analysis = Analysis(net, m0, result)
    start = time.perf_counter()
    graph = analysis.graph
    lap("graph", start)
    start = time.perf_counter()
    rel2 = analysis.rel2
    lap("rel2", start)
    start = time.perf_counter()
    lifted = matrix(graph, rel2)
    lap("lift", start)
    start = time.perf_counter()
    places = lifted.restrict(net.places)
    write_matrix(to_document(places))
    lap("lift_text", start)
    run.update(reduced_places=len(result.reduced_net.places), graph_nodes=len(graph.nodes),
               components=len(analysis.spaces),
               component_states=sum(map(len, analysis.spaces)), writes=lifted.writes)
    rel2.set(rel2.order[0], rel2.order[-1], UNKNOWN)
    start = time.perf_counter()
    partial_matrix(graph, rel2)
    lap("partial", start)
    start = time.perf_counter()
    space = explore(net, m0, max_states=MAX_STATES)
    lap("explore", start)
    run.update(states=len(space), status=space.status, agree=None)
    if space.is_complete:
        start = time.perf_counter()
        relation = oracle_concurrency(space, net.places)
        lap("oracle_concurrency", start)
        start = time.perf_counter()
        write_matrix(to_document(relation))
        lap("matrix_text", start)
        run["agree"] = places == relation
    return run


def summarize(family: str, size: int, runs: list[dict]) -> dict:
    """One row: the last run's states, status and counts, the median and
    the minimum time of each stage, whether every run agreed with the
    oracle and the speedup (both None when it was truncated)."""
    last = runs[-1]
    row = {"family": family, "size": size, "states": last["states"], "status": last["status"]}
    for stage in STAGES:
        seconds = [run[stage] for run in runs if run[stage] is not None]
        row[f"{stage}_s"] = statistics.median(seconds) if seconds else None
        row[f"{stage}_min_s"] = min(seconds) if seconds else None
    explore_s = row["explore_s"]
    row["states_per_s"] = last["states"] / explore_s if explore_s else None
    for count in ("reduced_places", "graph_nodes", "components", "component_states", "writes"):
        row[count] = last[count]
    agree = [run["agree"] for run in runs]
    row["agree"] = None if None in agree else all(agree)
    row["speedup"] = None
    if row["oracle_concurrency_min_s"] is not None:
        row["speedup"] = (sum(row[f"{stage}_min_s"] for stage in ORACLE)
                          / sum(row[f"{stage}_min_s"] for stage in ACCELERATED))
    return row


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
              f"parse {row['parse_min_s']:.4f} s, "
              f"reduce {row['reduce_min_s']:.4f} s, graph {row['graph_min_s']:.4f} s, "
              f"rel2 {row['rel2_min_s']:.4f} s, lift {row['lift_min_s']:.4f} s, "
              f"lift text {row['lift_text_min_s']:.4f} s, "
              f"partial {row['partial_min_s']:.4f} s (min); {row['component_states']} states "
              f"in {row['components']} components, agree {row['agree']}, "
              f"speedup {row['speedup']}")
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
