"""Command-line front end.

Subcommands reduce a net, decide reachability through the reduced net,
compute concurrency matrices, check equation files, query the brute-force
oracle, and benchmark a corpus directory.  ``reduce``, ``conc`` and ``bench``
hold each net's reduction, graph and reduced relation in one
:class:`tfgkit.reach.Analysis`, which explores the reduced net one connected
component at a time; ``--max-states`` and ``--timeout`` bound the states
stored over all components.  ``reach`` and ``conc`` get theirs from
:func:`_analysis`, which checks an external reduced net against the net's
initial marking.  It takes the analysis that the one-shot
:func:`tfgkit.reach.decide` keeps and reuses, so the verdict of ``reach``
reads the graph that the check built.

Exit codes are a stable contract: 0 success (or Reachable, or well-formed),
1 negative verdict (Unreachable, check failed, disagreement), 2 input error,
3 Unknown.  ``main`` alone turns input errors, ill-formed equations,
inconsistent root relations (:class:`tfgkit.conc.InconsistentInputError`)
and truncated state spaces into exit 2.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from pathlib import Path

from tfgkit import conc as conc_mod
from tfgkit import net_io, reach, reductions, tfg
from tfgkit.petri import (
    IncompleteStateSpaceError,
    Marking,
    PetriNet,
    explore,
    is_safe,
    oracle_concurrency,
    oracle_reachable,
    random_walk,
    truncated,
)
from tfgkit.relation import ConcurrencyMatrix

log = logging.getLogger("tfgkit")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3

# Cooperative timeout: wall-clock signals are nondeterministic, so --timeout
# is converted into a state budget at a fixed nominal exploration rate: the
# median petri.states_per_s of the explorer over three runs (seeds 3-5) of
# `perfbench/run.py --workload product_explore --trace 1` (557k-634k,
# median 621k; CPython 3.11 on a shared 2-core x86-64 container), rounded
# down to two significant digits.
NOMINAL_STATES_PER_SECOND = 620_000


class CliError(Exception):
    """Input-level failure; message goes to stderr, exit code 2."""


def _configure_logging() -> None:
    level_name = os.environ.get("TFGKIT_LOG", "").upper()
    if level_name:
        level = getattr(logging, level_name, None)
        if not isinstance(level, int):
            level = logging.INFO
        logging.basicConfig(
            stream=sys.stderr, level=level,
            format="%(levelname)s %(name)s: %(message)s",
        )


def _parse(path: str, parse, *args):
    """``parse`` applied to the text of ``path``; a file that cannot be read
    or parsed is an input error naming the path."""
    try:
        return parse(Path(path).read_text(), *args)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except net_io.ParseError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _write_file(path: str, text: str) -> None:
    """``text`` into ``path``; a file that cannot be written is an input
    error naming the path."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_file(path, text)


def _load_net(path: str) -> tuple[PetriNet, Marking]:
    """The net of ``path``: PNML when its text opens with ``<`` or its name
    ends in ``.pnml`` or ``.xml``, else the plain net format."""
    def parse(text: str) -> tuple[PetriNet, Marking]:
        if text.lstrip().startswith("<") or path.endswith((".pnml", ".xml")):
            return net_io.parse_pnml(text)
        return net_io.parse_net(text)

    return _parse(path, parse)


def _effective_max_states(args: argparse.Namespace) -> int:
    budget = args.max_states
    if args.timeout is not None:
        if not math.isfinite(args.timeout) or args.timeout <= 0:
            raise CliError(f"--timeout must be finite and positive, got {args.timeout}")
        states = args.timeout * NOMINAL_STATES_PER_SECOND  # inf past the float range
        if states < budget:
            budget = max(1, int(states))
    return budget


def _reduction_inputs(
    net: PetriNet, m0: Marking, args: argparse.Namespace
) -> reductions.ReductionResult:
    """Internal reducer by default; --equations switches to externally
    produced equations, which then need --reduced-net for the target side.
    Either flag alone is an input error."""
    if args.equations is None:
        if args.reduced_net is not None:
            raise CliError("--reduced-net needs --equations to tie it to the net")
        return reductions.reduce(net, m0)
    if args.reduced_net is None:
        raise CliError("--equations needs --reduced-net for the reduced side")
    equations = _parse(args.equations, net_io.parse_equations)
    net2, m2 = _load_net(args.reduced_net)
    removed = len(net.places) - len(net2.places)
    ratio = removed / len(net.places) if net.places else 0.0
    return reductions.ReductionResult(net2, m2, tuple(equations), ratio)


def _analysis(net: PetriNet, m0: Marking, args: argparse.Namespace) -> reach.Analysis:
    """The :class:`reach.Analysis` of ``reach`` and ``conc``, within the
    exploration limits of ``args``.  An external reduced net must start at
    the projection of ``m0`` (condition A2), else its verdicts are wrong."""
    analysis = reach._shared(net, m0, _reduction_inputs(net, m0, args),
                             _effective_max_states(args), args.max_token)
    if args.equations is not None:
        if reach.project(analysis.graph, m0) != analysis.result.reduced_marking:
            raise CliError(f"{args.reduced_net}: initial marking is not the "
                           "projection of the net's initial marking (A2)")
    return analysis


def cmd_reduce(args: argparse.Namespace) -> int:
    net, m0 = _load_net(args.net)
    analysis = reach.Analysis(net, m0)
    analysis.graph  # the equations must compile to a well-formed graph
    result = analysis.result
    equations_text = net_io.write_equations(result.equations)
    _write_output(args.output, equations_text)
    if args.reduced_net is not None:
        _write_file(args.reduced_net, net_io.write_net(result.reduced_net, result.reduced_marking))
    print(f"ratio {result.ratio:.3f}")
    # each rule writes one equation shape: constant R, variable R, A
    constants = sum(e.constant is not None for e in result.equations)
    chains = sum(e.tag == "A" for e in result.equations)
    log.info(
        "reduced %d places to %d with %d equations "
        "(hits: constant %d, duplicate %d, chain %d)",
        len(net.places), len(result.reduced_net.places), len(result.equations),
        constants, len(result.equations) - constants - chains, chains,
    )
    return EXIT_OK


def cmd_reach(args: argparse.Namespace) -> int:
    net, m0 = _load_net(args.net)
    target = _parse(args.query, net_io.parse_marking_query, net.places)
    analysis = _analysis(net, m0, args)
    verdict = reach.decide(net, m0, target, analysis.result,
                           max_states=analysis.max_states, max_token=analysis.max_token)
    print(f"{verdict.answer.upper()} {verdict.reason}")
    if verdict.answer == reach.REACHABLE:
        return EXIT_OK
    if verdict.answer == reach.UNREACHABLE:
        return EXIT_NEGATIVE
    return EXIT_UNKNOWN


def _matrix_summary(matrix: ConcurrencyMatrix) -> str:
    n = len(matrix.order)
    known, ones = matrix.known_count(), matrix.ones_count()
    zeros, unknowns = known - ones, n * (n + 1) // 2 - known
    ratio = conc_mod.filling_ratio(matrix)
    return f"filling {ratio:.3f} ones {ones} zeros {zeros} unknown {unknowns}"


def cmd_conc(args: argparse.Namespace) -> int:
    net, m0 = _load_net(args.net)
    analysis = _analysis(net, m0, args)
    if args.rel2 is not None:
        rel2 = conc_mod.from_document(_parse(args.rel2, net_io.parse_matrix))
    else:
        rel2 = analysis.rel2
    lift = conc_mod.matrix if rel2.is_complete() else conc_mod.partial_matrix
    matrix = lift(analysis.graph, rel2).restrict(net.places)
    _write_output(args.output, net_io.write_matrix(conc_mod.to_document(matrix)))
    print(_matrix_summary(matrix), file=sys.stderr)
    return EXIT_OK


def cmd_tfg_check(args: argparse.Namespace) -> int:
    net, m0 = _load_net(args.net)
    result = _reduction_inputs(net, m0, args)
    graph, violations = tfg.check(result.equations, net.places, result.reduced_net.places)
    failed = {v.check_id for v in violations}
    for check_id in tfg.CHECK_IDS:
        status = "fail" if check_id in failed else "ok"
        print(f"{check_id} {status}")
    for violation in violations:
        print(f"  {violation.check_id}: {violation.detail} [{violation.witness}]")
    if violations:
        return EXIT_NEGATIVE
    print(
        f"well-formed: {len(graph.nodes)} nodes, "
        f"{len(graph.r_arcs)} redundancy arcs, "
        f"{len(graph.a_arcs)} agglomeration arcs"
    )
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    net, m0 = _load_net(args.net)
    target = None
    if args.query is not None:
        target = _parse(args.query, net_io.parse_marking_query, net.places)
    space = explore(
        net, m0, max_states=_effective_max_states(args), max_token=args.max_token
    )
    # a space cut at the token cap saw a place exceed it; any other space
    # stored no count above the cap, so at a cap of 1 it needs no scan
    safe = space.status != truncated("max-token") and (args.max_token == 1 or is_safe(space))
    print(f"states {len(space)} status {space.status} safe {'yes' if safe else 'no'}")
    if args.conc:
        matrix = oracle_concurrency(space, net.places)
        _write_output(args.output, net_io.write_matrix(conc_mod.to_document(matrix)))
        print(_matrix_summary(matrix), file=sys.stderr)
    if target is not None:
        # every stored marking is reachable, even in a truncated space
        if target in space:
            print("REACHABLE oracle")
            return EXIT_OK
        if not space.is_complete:
            print("UNKNOWN oracle")
            return EXIT_UNKNOWN
        print("UNREACHABLE oracle")
        return EXIT_NEGATIVE
    return EXIT_OK


def _bench_targets(net: PetriNet, m0: Marking, seed: int) -> list[Marking]:
    """Deterministic target mix: three random-walk markings, each followed
    by a mutation that flips one of its places."""
    targets = []
    for i in range(3):
        walked = random_walk(net, m0, steps=3 + 7 * i, seed=seed + i)
        targets.append(walked)
        if net.places:
            place = net.places[(seed + i) % len(net.places)]
            flipped = dict(walked.items())
            flipped[place] = 0 if walked[place] else 1
            targets.append(Marking(flipped))
    return targets


def _bench_row(
    name: str, path: Path, args: argparse.Namespace
) -> tuple[str, float | None, bool]:
    """One corpus instance: returns (TSV row, ratio or None if skipped,
    whether an accelerated answer disagreed with the oracle)."""
    net, m0 = _load_net(str(path))
    max_states = _effective_max_states(args)
    space1 = explore(net, m0, max_states=max_states, max_token=args.max_token)
    if not space1.is_complete:
        return f"{name}\t{len(net.places)}\t-\t-\t-\t-\t-\tskipped({space1.status})", None, False
    analysis = reach.Analysis(net, m0, max_states=max_states, max_token=args.max_token)
    result = analysis.result

    reach_ok = True
    for target in _bench_targets(net, m0, args.seed):
        verdict = analysis.decide(target)
        if verdict.answer == reach.UNKNOWN:
            continue
        expected = oracle_reachable(space1, target)
        if (verdict.answer == reach.REACHABLE) != expected:
            reach_ok = False

    accelerated = conc_mod.matrix(analysis.graph, analysis.rel2).restrict(net.places)
    conc_ok = accelerated == oracle_concurrency(space1, net.places)

    work = len(space1) + math.prod(map(len, analysis.spaces))
    row = "\t".join([
        name,
        str(len(net.places)),
        str(len(result.reduced_net.places)),
        f"{result.ratio:.3f}",
        str(work),
        "ok" if reach_ok else "FAIL",
        "ok" if conc_ok else "FAIL",
        "complete",
    ])
    return row, result.ratio, not (reach_ok and conc_ok)


def _ratio_histogram(ratios: list[float]) -> list[str]:
    buckets = [0] * 10
    for ratio in ratios:
        buckets[min(9, int(ratio * 10))] += 1
    lines = []
    for i, count in enumerate(buckets):
        lines.append(f"# {i / 10:.1f}-{(i + 1) / 10:.1f} {'#' * count}")
    return lines


def cmd_bench(args: argparse.Namespace) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise CliError(f"{args.corpus} is not a directory")
    header = "name\tplaces\treduced\tratio\tstates\treach\tconc\tstatus"
    rows = []
    ratios = []
    failed = False
    for path in sorted(corpus.glob("*.net")):
        row, ratio, row_failed = _bench_row(path.stem, path, args)
        rows.append(row)
        if ratio is not None:
            ratios.append(ratio)
        failed |= row_failed
    report = "\n".join([header, *rows, *_ratio_histogram(ratios)]) + "\n"
    _write_output(args.output, report)
    log.info("benchmarked %d instances", len(rows))
    return EXIT_NEGATIVE if failed else EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


_FLAGS = {
    "--max-states": dict(type=_positive_int, default=100_000,
                         help="state budget for exploration"),
    "--max-token": dict(type=_positive_int, default=1,
                        help="per-place token cap during exploration"),
    "--timeout": dict(type=float, default=None,
                      help="budget in seconds, converted to a state count at "
                           f"a nominal {NOMINAL_STATES_PER_SECOND:,} states/s"),
    "--seed": dict(type=int, default=0, help="PRNG seed for benchmark targets"),
    "--output": dict(default=None, help="output file (default stdout)"),
    "--equations": dict(default=None,
                        help="equation file to use instead of reducing internally"),
    "--reduced-net": dict(default=None, help="reduced net matching --equations"),
}
_LIMITS = ("--max-states", "--timeout")
_EXTERNAL = ("--equations", "--reduced-net")


def _add_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfgkit",
        description="Safe Petri net reduction with token flow graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a net, emit equations and ratio")
    p.add_argument("net")
    p.add_argument("--reduced-net", default=None,
                   help="write the reduced net to this file")
    _add_flags(p, "--output")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("reach", help="decide reachability of a target marking")
    p.add_argument("net")
    p.add_argument("query", help="file of name=nat tokens")
    _add_flags(p, *_EXTERNAL, *_LIMITS, "--max-token")
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("conc", help="compute the place-concurrency matrix")
    p.add_argument("net")
    p.add_argument("--rel2", default=None,
                   help="matrix file with the reduced net's relation")
    _add_flags(p, *_EXTERNAL, *_LIMITS, "--output")
    # the lift holds for safe nets only: explore at one token per place
    p.set_defaults(func=cmd_conc, max_token=1)

    p = sub.add_parser("tfg-check",
                       help="build the token flow graph and report T1-T6")
    p.add_argument("net")
    _add_flags(p, *_EXTERNAL)
    p.set_defaults(func=cmd_tfg_check)

    p = sub.add_parser("oracle", help="brute-force answers from the full net")
    p.add_argument("net")
    p.add_argument("query", nargs="?", default=None,
                   help="optional marking query file")
    p.add_argument("--conc", action="store_true",
                   help="also write the oracle concurrency matrix")
    _add_flags(p, *_LIMITS, "--max-token", "--output")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="benchmark every *.net in a directory")
    p.add_argument("corpus")
    _add_flags(p, *_LIMITS, "--seed", "--output")
    p.set_defaults(func=cmd_bench, max_token=1)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, conc_mod.InconsistentInputError) as exc:
        message = str(exc)
    except tfg.NotWellFormedError as exc:
        message = f"equations are not well formed: {exc}"
    except IncompleteStateSpaceError as exc:
        if str(exc) == truncated("max-token"):
            message = f"state space {exc}; a place exceeds the token cap of {args.max_token}"
        else:
            message = f"state space {exc}; raise --max-states"
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
