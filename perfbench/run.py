#!/usr/bin/env python3
"""tfgkit benchmark: verdict latency on three seeded workloads.

Run from the repository root (tfgkit is imported from ``src/``):

    python3 perfbench/run.py --workload pipeline_reduce --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload is a closed loop in one thread: an op starts when the previous
one ends.  Ops drive tfgkit as its users do, through ``tfgkit.cli.main`` in
process or through the library functions, and every answer is checked
against the answer key of ``nets.py``.  ``--trace 0`` times the ops and
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
cycles of the same ops and prints the per-layer metrics.  The last line of
output is one JSON object.  See README.md for the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

sys.path[:0] = [str(HERE), str(ROOT / "src")]
import nets  # noqa: E402
from nets import Product  # noqa: E402
from tracing import Tracer  # noqa: E402

# tfgkit is measured from this checkout's sources, never from an install
if not (ROOT / "src" / "tfgkit" / "__init__.py").is_file():
    sys.exit(f"error: no tfgkit sources under {ROOT / 'src'}")
import tfgkit  # noqa: E402
import tfgkit.cli as cli  # noqa: E402

KINDS = ("reduce", "reach", "conc", "conc_partial", "oracle")
TAILED = ("reach", "conc")
# Fixed, so that it means the same on every run; every workload makes at
# least 40 samples of each tailed kind in 30 s, ten or more beyond p75.
TAIL_PERCENTILE = 75
SETUP_REPEATS = 5
# reference_kernel() seconds on an otherwise idle core of the machine the
# benchmark was calibrated on; set-up seconds are reported at this speed.
REFERENCE_S = 0.00085
# Closed-form chain depth of the probe: past the recursion cliff of reach
# and conc (between 800 and 1,000 steps) and deep enough that the quadratic
# T3 scan dominates tfg-check.
PROBE_DEPTH = 2000

@dataclass(eq=False)
class Op:
    """One closed-loop operation.

    ``run`` does the timed work and returns its raw result; ``judge`` turns
    that into (failure reason, wrong-answer description), either None.
    """

    kind: str
    net: str
    run: Callable[[], Any]
    judge: Callable[[Any], tuple[str | None, str | None]]
    expected: str
    probe: bool = False


@dataclass
class Workload:
    name: str
    nets: list[Product]
    ops: list[Op]
    probe: list[Op]
    files: Path


# ---------------------------------------------------------------------------
# answer checks


def compare_matrix(key: Product, order, value_of, partial: bool) -> str | None:
    """First cell where ``value_of(i, j)`` (1, 0 or None) contradicts the key."""
    if list(order) != key.places:
        return "matrix order differs from the net's places"
    for i, p in enumerate(order):
        for j in range(i + 1):
            got = value_of(i, j)
            if got is None and partial:
                continue
            want = 1 if key.concurrent(p, order[j]) else 0
            if got != want:
                return f"cell ({p}, {order[j]}) is {got}, expected {want}"
    return None


def matrix_file_check(key: Product, path: Path, partial: bool) -> str | None:
    order, rows = nets.parse_matrix(path.read_text())
    symbol = {"1": 1, "0": 0, ".": None}
    return compare_matrix(key, order, lambda i, j: symbol[rows[i][j]], partial)


def library_matrix_check(key: Product, matrix, partial: bool) -> str | None:
    order = matrix.order
    return compare_matrix(key, order, lambda i, j: matrix.get(order[i], order[j]), partial)


# ---------------------------------------------------------------------------
# CLI ops


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def exit_failure(code: int, allowed=(0,)) -> str | None:
    return None if code in allowed else f"exit {code}"


class NetFiles:
    """Input and output files of one net in the work directory."""

    def __init__(self, root: Path, key: Product):
        self.key = key
        self.net = root / f"{key.name}.net"
        self.eq = root / f"{key.name}.eq"
        self.reduced = root / f"{key.name}.reduced.net"
        self.out_eq = root / f"{key.name}.out.eq"
        self.out_reduced = root / f"{key.name}.out.reduced.net"
        self.out_matrix = root / f"{key.name}.out.cm"
        self.net.write_text(key.net_text())
        self.eq.write_text(key.equations_text())
        self.reduced.write_text(key.reduced_net_text())
        self.root = root

    def reduce_op(self) -> Op:
        key = self.key
        expected = f"{len(key.reduced_places)} places, {key.equation_count} equations"
        argv = ["reduce", str(self.net), "--output", str(self.out_eq),
                "--reduced-net", str(self.out_reduced)]

        def judge(raw):
            code, _ = raw
            if code != 0:
                return f"exit {code}", None
            places = sum(line.startswith("pl ") for line in self.out_reduced.read_text().splitlines())
            equations = sum(bool(line.strip()) for line in self.out_eq.read_text().splitlines())
            got = f"{places} places, {equations} equations"
            return None, None if got == expected else got

        return Op("reduce", key.name, lambda: run_cli(argv), judge, expected)

    def reach_op(self, index: int, target: frozenset[str], closed_form=False, probe=False) -> Op:
        query = self.root / f"{self.key.name}.q{index}"
        query.write_text(nets.query_text(target))
        argv = ["reach", str(self.net), str(query)] + self._closed_form(closed_form)
        reachable = self.key.reachable(target)
        expected = "REACHABLE" if reachable else "UNREACHABLE"

        def judge(raw):
            code, out = raw
            failure = exit_failure(code, (0, 1))
            if failure:
                return failure, None
            got = "REACHABLE" if code == 0 else "UNREACHABLE"
            return None, None if got == expected else f"{got} ({out.strip()})"

        return Op("reach", self.key.name, lambda: run_cli(argv), judge,
                  f"{expected} for {sorted(target)}", probe)

    def conc_op(self, closed_form=False, probe=False) -> Op:
        argv = ["conc", str(self.net), "--output", str(self.out_matrix)] + self._closed_form(closed_form)
        return Op("conc", self.key.name, lambda: run_cli(argv), self._matrix_judge(False),
                  "the exact concurrency matrix", probe)

    def partial_op(self, mask: Path) -> Op:
        argv = ["conc", str(self.net), "--rel2", str(mask), "--output", str(self.out_matrix)]
        argv += self._closed_form(True)
        return Op("conc_partial", self.key.name, lambda: run_cli(argv), self._matrix_judge(True),
                  f"no cell contradicting the key, from {mask.name}")

    def oracle_op(self) -> Op:
        argv = ["oracle", str(self.net), "--conc", "--output", str(self.out_matrix)]
        matrix_judge = self._matrix_judge(False)

        def judge(raw):
            code, out = raw
            words = out.split()
            if code == 0 and words[:2] != ["states", str(self.key.full_states)]:
                return None, out.strip()
            return matrix_judge(raw)

        return Op("oracle", self.key.name, lambda: run_cli(argv), judge,
                  f"states {self.key.full_states} and the exact matrix")

    def tfg_check_op(self) -> Op:
        argv = ["tfg-check", str(self.net)] + self._closed_form(True)

        def judge(raw):
            return exit_failure(raw[0]), None

        return Op("tfg_check", self.key.name, lambda: run_cli(argv), judge, "well-formed", True)

    def masks(self, rng: random.Random, count: int) -> list[Path]:
        """rel2 files for the closed-form reduced net, each with its own
        seeded quarter of the cells unknown (see ``hidden_cells``)."""
        reduced = Product(f"{self.key.name}_reduced", self.key.reduced_blocks)
        n = len(reduced.places)
        paths = []
        for k, hidden in enumerate(hidden_cells(rng, [(i, j) for i in range(n) for j in range(i + 1)], count)):
            path = self.root / f"{self.key.name}.mask{k}.cm"
            path.write_text(nets.masked_matrix_text(reduced, hidden))
            paths.append(path)
        return paths

    def _closed_form(self, on: bool) -> list[str]:
        return ["--equations", str(self.eq), "--reduced-net", str(self.reduced)] if on else []

    def _matrix_judge(self, partial: bool):
        def judge(raw):
            code, _ = raw
            if code != 0:
                return f"exit {code}", None
            return None, matrix_file_check(self.key, self.out_matrix, partial)

        return judge


def hidden_cells(rng: random.Random, cells: list, count: int) -> list[set]:
    """``count`` disjoint seeded sets, each a quarter of ``cells`` (at least
    one): on a two-place reduced net every cell is hidden by exactly one
    mask, whatever the seed."""
    cells = list(cells)
    rng.shuffle(cells)
    size = max(1, len(cells) // 4)
    return [set(cells[k * size:(k + 1) * size]) for k in range(count)]


def prefix(rng: random.Random, tag: str, index: int) -> str:
    return f"{tag}{index}x{rng.randrange(16 ** 4):04x}"


def targets(key: Product, rng: random.Random, count: int, kinds: tuple[str, ...]) -> list[frozenset[str]]:
    """``count`` targets cycling through ``kinds``.

    reachable: a reachable marking drawn block by block; flip: a reachable
    marking with one random place flipped; redundant: the same, flipping a
    place the duplicate rule removes, so projection refutes it; unreachable:
    a choice loop's hub and one of its branches marked together, which
    projects but is not reachable.
    """
    out = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        marked = key.sample_reachable(rng)
        if kind == "flip":
            marked = nets.flip(marked, rng.choice(key.places))
        elif kind == "redundant":
            marked = nets.flip(marked, rng.choice(key.redundant))
        elif kind == "unreachable":
            block = rng.choice(key.choices)
            marked = marked - set(block.places) | {block.places[0], rng.choice(block.places[1:])}
        out.append(marked)
    return out


# ---------------------------------------------------------------------------
# workloads


def cli_ops(f: NetFiles, reach_targets: list[frozenset[str]], masks: int, rng) -> list[Op]:
    # reduce and conc run twice per cycle, for enough samples of each
    reduce, conc = f.reduce_op(), f.conc_op()
    return [
        reduce,
        *(f.reach_op(i, t) for i, t in enumerate(reach_targets)),
        conc,
        *(f.partial_op(m) for m in f.masks(rng, masks)),
        f.oracle_op(),
        reduce,
        conc,
    ]


def interleave(per_net: list[list[Op]]) -> list[Op]:
    """One cycle: the nets' op lists taken in turn, so no net waits for the
    others to finish."""
    out = []
    for k in range(max(len(ops) for ops in per_net)):
        out.extend(ops[k] for ops in per_net if k < len(ops))
    return out


def probe_ops(rng: random.Random, root: Path) -> list[Op]:
    key = Product("probe", [nets.chain_line(PROBE_DEPTH, prefix(rng, "z", 0))])
    files = NetFiles(root, key)
    target = key.sample_reachable(rng)
    return [files.tfg_check_op(), files.reach_op(0, target, closed_form=True, probe=True),
            files.conc_op(closed_form=True, probe=True)]


def pipeline_reduce(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    chain = Product("chain", [nets.chain_line(48, prefix(rng, "h", 0))])
    ladder = Product("ladder", [nets.duplicate_ladder(32, prefix(rng, "l", 0))])
    diamond = Product("diamond", [nets.diamond_block(prefix(rng, "d", i)) for i in range(16)])
    per_net = [cli_ops(NetFiles(root, key), targets(key, rng, 4, ("reachable", "flip")), 3, rng)
               for key in (chain, ladder)]
    per_net.append([NetFiles(root, diamond).reduce_op()] * 2)
    return Workload("pipeline_reduce", [chain, ladder, diamond], interleave(per_net),
                    probe_ops(rng, root), root)


PRODUCT_NETS = (
    ("p1", [("choice_loop", 3)] * 4 + [("fork_join", 3), ("two_phase_branches", 2)]),
    ("p2", [("choice_loop", 3)] * 3 + [("diamond_block",)] * 2 + [("ring", 3), ("fork_join", 2)]),
    ("p3", [("choice_loop", 4)] * 3 + [("two_phase_branches", 2), ("diamond_block",), ("ring", 2)]),
)

# Full state spaces of 3.4-4.4 thousand markings each, so that the oracle
# samples of the three nets fall close together and their median is steady.
QUERY_NETS = (
    ("q1", [("choice_loop", 3)] * 3 + [("diamond_block",)] * 2 + [("fork_join", 2), ("ring", 2)]),
    ("q2", [("choice_loop", 4)] * 2 + [("choice_loop", 3), ("diamond_block",), ("fork_join", 3), ("ring", 4)]),
    ("q3", [("choice_loop", 2)] * 4 + [("diamond_block",)] * 2 + [("two_phase_branches", 2)]),
)
TARGET_KINDS = ("reachable", "redundant", "unreachable")


def product(rng: random.Random, name: str, spec) -> Product:
    blocks = []
    for i, (family, *params) in enumerate(spec):
        build = getattr(nets, family)
        blocks.append(build(*params, prefix(rng, family[0], i)))
    return Product(name, blocks)


def product_explore(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    keys = [product(rng, name, spec) for name, spec in PRODUCT_NETS]
    per_net = [cli_ops(NetFiles(root, key), targets(key, rng, 3, TARGET_KINDS), 3, rng)
               for key in keys]
    return Workload("product_explore", keys, interleave(per_net), [], root)


class Session:
    """Library session on one net: parse once, ``reduce`` + ``build_graph``
    once, then many ``decide`` calls, ``matrix``, ``partial_matrix`` on a
    masked reduced relation, and the full-net oracle."""

    def __init__(self, key: Product, rng: random.Random, decides: int, root: Path):
        self.key = key
        (root / f"{key.name}.net").write_text(key.net_text())
        self.net, self.m0 = tfgkit.parse_net(key.net_text())
        self.targets = targets(key, rng, decides, TARGET_KINDS)
        closed_net, closed_m0 = tfgkit.parse_net(key.reduced_net_text())
        self.closed = tfgkit.ReductionResult(
            closed_net, closed_m0, tuple(tfgkit.parse_equations(key.equations_text())), 0.0
        )
        reduced = Product(f"{key.name}_reduced", key.reduced_blocks)
        self.rel2 = []
        cells = [(p, reduced.places[j]) for i, p in enumerate(reduced.places) for j in range(i + 1)]
        for hidden in hidden_cells(rng, cells, 3):
            rel2 = tfgkit.ConcurrencyMatrix(reduced.places, fill=0)
            for p, q in cells:
                rel2.set(p, q, None if (p, q) in hidden else int(reduced.concurrent(p, q)))
            self.rel2.append(rel2)
        self.result = self.graph = None

    def ops(self) -> list[Op]:
        key = self.key
        expected_size = f"{len(key.reduced_places)} places, {key.equation_count} equations"

        def reduce_run():
            self.result = self.graph = None
            self.result = tfgkit.reduce(self.net, self.m0)
            self.graph = tfgkit.build_graph(self.net, self.result)
            return self.result

        def reduce_judge(result):
            got = f"{len(result.reduced_net.places)} places, {len(result.equations)} equations"
            return None, None if got == expected_size else got

        conc = Op("conc", key.name, self._matrix, self._matrix_judge(False),
                  "the exact concurrency matrix")
        return [
            Op("reduce", key.name, reduce_run, reduce_judge, expected_size),
            *(self._decide_op(t) for t in self.targets[: len(self.targets) // 2]),
            conc,
            *(Op("conc_partial", key.name, functools.partial(self._partial, rel2),
                 self._matrix_judge(True), "no cell contradicting the key") for rel2 in self.rel2),
            *(self._decide_op(t) for t in self.targets[len(self.targets) // 2:]),
            Op("oracle", key.name, self._oracle, self._oracle_judge,
               f"states {key.full_states} and the exact matrix"),
            conc,  # twice per session, for enough samples beyond the tail percentile
        ]

    def _decide_op(self, marked: frozenset[str]) -> Op:
        target = tfgkit.Marking({p: 1 for p in marked})
        expected = tfgkit.REACHABLE if self.key.reachable(marked) else tfgkit.UNREACHABLE

        def run():
            return tfgkit.decide(self.net, self.m0, target, self.result)

        def judge(verdict):
            if verdict.answer == tfgkit.UNKNOWN:
                return f"unknown ({verdict.reason})", None
            return None, None if verdict.answer == expected else f"{verdict.answer} ({verdict.reason})"

        return Op("reach", self.key.name, run, judge, f"{expected} for {sorted(marked)}")

    def _matrix(self):
        result = self.result
        space2 = tfgkit.explore(result.reduced_net, result.reduced_marking)
        rel2 = tfgkit.oracle_concurrency(space2, result.reduced_net.places)
        return tfgkit.matrix(self.graph, rel2).restrict(self.net.places)

    def _partial(self, rel2):
        graph = tfgkit.build_graph(self.net, self.closed)
        return tfgkit.partial_matrix(graph, rel2).restrict(self.net.places)

    def _oracle(self):
        space = tfgkit.explore(self.net, self.m0)
        return space, tfgkit.oracle_concurrency(space, self.net.places)

    def _oracle_judge(self, raw):
        space, matrix = raw
        if len(space.markings) != self.key.full_states:
            return None, f"states {len(space.markings)} ({space.status})"
        return self._matrix_judge(False)(matrix)

    def _matrix_judge(self, partial: bool):
        return lambda matrix: (None, library_matrix_check(self.key, matrix, partial))


def query_batch(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    sessions = [Session(product(rng, name, spec), rng, 18, root) for name, spec in QUERY_NETS]
    return Workload("query_batch", [s.key for s in sessions],
                    [op for s in sessions for op in s.ops()], [], root)


WORKLOADS = {
    "pipeline_reduce": pipeline_reduce,
    "product_explore": product_explore,
    "query_batch": query_batch,
}


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Outcome:
    """One op run.  ``ref`` is the mean of the reference-kernel times taken
    just before and just after it (see ``reference_kernel``)."""

    op: Op
    seconds: float
    failure: str | None
    wrong: str | None
    ref: float = 0.0

    @property
    def normalized(self) -> float:
        return self.seconds / self.ref


def reference_kernel() -> int:
    """Fixed pure-Python work, independent of tfgkit: tuple keys, dict
    updates and frozensets, like tfgkit's inner loops.  Its duration next to
    each op measures how fast this core runs Python at that moment."""
    counts: dict[tuple[int, int], int] = {}
    seen = set()
    for i in range(1500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        seen.add(frozenset(key + (i % 7,)))
    return len(seen) + len(counts)


def time_reference() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def execute(op: Op, tracer: Tracer | None = None) -> Outcome:
    if tracer is not None:
        tracer.begin_op(op.kind, op.net, op.probe)
    start = perf_counter()
    raw = failure = wrong = None
    try:
        raw = op.run()
    except RecursionError:
        failure = "RecursionError"
    except (Exception, SystemExit) as exc:  # an op failure is data, not a crash
        failure = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op(failure)
    if failure is None:
        failure, wrong = op.judge(raw)
    return Outcome(op, seconds, failure, wrong)


def report_wrong(workload: Workload, outcome: Outcome) -> None:
    op = outcome.op
    print(f"WRONG {workload.name} net {op.net} op {op.kind}: "
          f"expected {op.expected}; got {outcome.wrong}")
    print(f"  net file: {workload.files / (op.net + '.net')}")


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def build(name: str, seed: int, root: Path) -> tuple[Workload, float, float]:
    """Make the workload's nets, files and answer key in a fresh ``root``.

    Returns the workload, the wall seconds taken and those seconds scaled to
    the reference kernel's nominal speed, as op latencies are normalized.
    """
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    before = time_reference()
    start = perf_counter()
    workload = WORKLOADS[name](seed, root)
    seconds = perf_counter() - start
    ref = (before + time_reference()) / 2
    return workload, seconds, seconds / ref * REFERENCE_S


class Tally:
    def __init__(self, workload: Workload):
        self.workload = workload
        self.outcomes: list[Outcome] = []

    def run(self, ops: list[Op], tracer: Tracer | None = None) -> None:
        before = time_reference()
        for op in ops:
            outcome = execute(op, tracer)
            after = time_reference()
            outcome.ref = (before + after) / 2
            before = after
            self.outcomes.append(outcome)
            if outcome.wrong is not None:
                report_wrong(self.workload, outcome)

    def ok(self, kind: str | None = None) -> list[Outcome]:
        return [o for o in self.outcomes
                if o.failure is None and (kind is None or o.op.kind == kind)]

    def normalized(self, kind: str, net: str | None = None) -> list[float]:
        return [o.normalized for o in self.ok(kind) if net is None or o.op.net == net]

    @property
    def failed(self) -> int:
        return sum(o.failure is not None for o in self.outcomes)

    @property
    def wrong(self) -> int:
        return sum(o.wrong is not None for o in self.outcomes)


def oracle_gaps(tally: Tally) -> dict[str, float]:
    """Per net: median oracle op over median conc op (reference units), the
    paper's accelerated-versus-exhaustive ratio."""
    gaps = {}
    for net in sorted({o.op.net for o in tally.ok("oracle")}):
        conc = tally.normalized("conc", net)
        if conc:
            gaps[net] = statistics.median(tally.normalized("oracle", net)) / statistics.median(conc)
    return gaps


def print_probe(name: str, tally: Tally) -> None:
    for o in tally.outcomes:
        status = "ok" if o.failure is None else f"FAILED {o.failure.splitlines()[0][:80]}"
        print(f"{name} depth_probe {o.op.kind} depth {PROBE_DEPTH} {o.seconds * 1000:.1f} ms {status}")
    if tally.outcomes:
        print(f"{name} depth_probe.error_rate {tally.failed / len(tally.outcomes):.3f} "
              f"({tally.failed}/{len(tally.outcomes)}; kept out of 'failed', see README.md)")


def measure(workload: Workload, seed: int, seconds: float,
            setups: list[tuple[float, float]]) -> dict:
    """Run cycles until ``seconds`` pass.  One more set-up is timed after
    each cycle, in a spare directory, so that set-up time is sampled across
    the run as the ops are."""
    tally = Tally(workload)
    spare = workload.files.with_name(workload.files.name + "-setup")
    start = perf_counter()
    setup_wall = 0.0
    cycles = 0
    while perf_counter() - start < seconds:
        tally.run(workload.ops)
        cycles += 1
        t0 = perf_counter()
        setups.append(build(workload.name, seed, spare)[1:])
        setup_wall += perf_counter() - t0
    wall = perf_counter() - start - setup_wall
    shutil.rmtree(spare, ignore_errors=True)
    setup_s = statistics.median(scaled for _, scaled in setups)
    setup_wall_s = statistics.median(wall_s for wall_s, _ in setups)
    rss = peak_rss_mb()
    probe = Tally(workload)
    probe.run(workload.probe)

    name = workload.name
    metrics = {"setup_s": (setup_s, "s")}
    print(f"{name} setup_s {setup_s:.5f} s at reference speed (median of {len(setups)} "
          f"set-ups; wall clock {setup_wall_s:.5f} s)")
    for kind in KINDS:
        ratios = tally.normalized(kind)
        if not ratios:
            sys.exit(f"error: no {kind} op of {name} succeeded")
        metrics[f"{kind}.p50_ref"] = (statistics.median(ratios), "ref")
        if kind in TAILED:
            metrics[f"{kind}.tail_ref"] = (percentile(ratios, TAIL_PERCENTILE), "ref")
        beyond = sum(v > percentile(ratios, TAIL_PERCENTILE) for v in ratios)
        ms = [o.seconds * 1000 for o in tally.ok(kind)]
        tail = f", tail p{TAIL_PERCENTILE} {metrics[f'{kind}.tail_ref'][0]:.3f} ref" if kind in TAILED else ""
        print(f"{name} {kind}.p50_ref {statistics.median(ratios):.3f} ref{tail} "
              f"({len(ratios)} samples, {beyond} beyond p{TAIL_PERCENTILE}); wall clock "
              f"p50 {statistics.median(ms):.2f} ms, p{TAIL_PERCENTILE} {percentile(ms, TAIL_PERCENTILE):.2f} ms")
    ref_ms = [o.ref * 1000 for o in tally.outcomes]
    print(f"{name} reference kernel p50 {statistics.median(ref_ms):.3f} ms, "
          f"min {min(ref_ms):.3f} ms, max {max(ref_ms):.3f} ms over {len(ref_ms)} runs")
    metrics["peak_rss_mb"] = (rss, "MB")
    print(f"{name} peak_rss_mb {rss:.2f} MB")
    print(f"{name} ops_per_s {len(tally.ok()) / wall:.3f} 1/s "
          f"({len(tally.ok())} ops in {cycles} cycles, {wall:.1f} s; not gated)")
    print(f"{name} error_rate {tally.failed / len(tally.outcomes):.4f} "
          f"({tally.failed}/{len(tally.outcomes)})")
    print(f"{name} wrong_answers {tally.wrong + probe.wrong}")
    for net, gap in oracle_gaps(tally).items():
        print(f"{name} oracle_gap_x {net} {gap:.2f} x (median oracle / median conc; not gated)")
    print_probe(name, probe)
    return {
        "correct": tally.wrong == 0 and probe.wrong == 0,
        "attempted": len(tally.outcomes),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


PER_LAYER_TIMES = (
    "net_io.parse_s", "net_io.write_s", "reductions.reduce_s", "tfg.build_s",
    "petri.explore_s", "petri.oracle_concurrency_s", "petri.other_s",
    "reach.project_s", "reach.decide_s", "conc.matrix_s", "conc.partial_matrix_s",
    "conc.other_s", "relation.restrict_s", "cli.self_s",
)
PER_LAYER_COUNTS = (
    "reductions.places_removed", "reductions.equations", "tfg.nodes", "tfg.depth",
    "petri.states", "reach.projection_failed", "conc.writes",
)
MAX_COUNTS = ("tfg.nodes", "tfg.depth")


def measure_traced(workload: Workload, seconds: float) -> tuple[dict, Tracer]:
    """Alternate an untraced and a traced cycle of the same ops, probe ops
    included, until ``seconds`` pass; report layer figures per cycle."""
    tracer = Tracer()
    untraced, traced = Tally(workload), Tally(workload)
    ops = workload.ops + workload.probe
    untraced_s = traced_s = 0.0
    start = perf_counter()
    cycles = 0
    while cycles == 0 or perf_counter() - start < seconds:
        t0 = perf_counter()
        untraced.run(ops)
        untraced_s += perf_counter() - t0
        tracer.install()
        t0 = perf_counter()
        try:
            traced.run(ops, tracer)
        finally:
            traced_s += perf_counter() - t0
            tracer.uninstall()
        cycles += 1

    per_op = tracer.layer_times()
    layer = {m: 0.0 for m in PER_LAYER_TIMES}
    for times in per_op.values():
        for metric, value in times.items():
            layer[metric] += value
    metrics = {m: (v / cycles, "s") for m, v in layer.items()}
    for m in PER_LAYER_COUNTS:
        value = tracer.counts[m]
        metrics[m] = (value if m in MAX_COUNTS else value / cycles, "count")
    explore_s = layer["petri.explore_s"]
    metrics["petri.states_per_s"] = (tracer.counts["petri.states"] / explore_s if explore_s else 0.0, "1/s")
    cells = tracer.counts["conc.partial_cells"]
    metrics["conc.filling_ratio"] = (tracer.counts["conc.partial_known"] / cells if cells else 0.0, "ratio")

    def share(numerator: list[str], kinds) -> float:
        ids = [i for i, op in enumerate(tracer.ops) if not op["probe"] and op["kind"] in kinds]
        total = sum(sum(per_op[i].values()) for i in ids)
        return sum(per_op[i][m] for i in ids for m in numerator) / total if total else 0.0

    metrics["reductions.share"] = (share(["reductions.reduce_s"], ("reduce", "reach", "conc")), "ratio")
    metrics["petri.share"] = (share(["petri.explore_s", "petri.oracle_concurrency_s"], KINDS), "ratio")
    metrics["trace.overhead_s"] = ((traced_s - untraced_s) / cycles, "s")
    probe_failed = sum(op["probe"] and op["error"] is not None for op in tracer.ops)
    metrics["probe.failed"] = (probe_failed / cycles, "count")
    gaps = oracle_gaps(untraced)
    metrics["oracle_gap_x"] = (statistics.median(gaps.values()), "x")

    name = workload.name
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} {value:.6g} {unit}")
    print(f"{name} per-layer figures are per cycle, over {cycles} traced cycles")
    rate, nominal = metrics["petri.states_per_s"][0], cli.NOMINAL_STATES_PER_SECOND
    print(f"{name} explorer rate {rate:.0f} states/s measured; --timeout assumes "
          f"{nominal} states/s ({rate / nominal:.2f} of nominal)")
    measured = [o for o in untraced.outcomes + traced.outcomes if not o.op.probe]
    result = {
        "correct": untraced.wrong == 0 and traced.wrong == 0,
        "attempted": len(measured),
        "failed": sum(o.failure is not None for o in measured),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    setups = []
    for _ in range(SETUP_REPEATS):
        workload, *taken = build(name, seed, root)
        setups.append(tuple(taken))
    print(f"{name} seed {seed}: " + "; ".join(key.describe() for key in workload.nets))
    if trace:
        result, tracer = measure_traced(workload, seconds)
        spans = WORK / f"spans-{name}-seed{seed}.json"
        tracer.dump(spans, {"workload": name, "seed": seed})
        print(f"{name} spans written to {spans.relative_to(ROOT)}")
    else:
        result = measure(workload, seed, seconds, setups)
    if result["correct"]:
        shutil.rmtree(root, ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("TFGKIT_LOG", None)
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    for name, result in results.items():
        if set(result["metrics"]) != declared:
            sys.exit(f"error: {name} metrics differ from BENCHMARK.json: "
                     f"{sorted(set(result['metrics']) ^ declared)}")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
