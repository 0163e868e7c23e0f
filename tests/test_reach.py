"""Projection, accelerated reachability decisions, and the state-space partition."""

import itertools
import logging
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfgkit.cli
import tfgkit.petri
import tfgkit.reach
import tfgkit.tfg
from conftest import (
    BOUNDED_MAX_TOKEN,
    CORPUS_DIR,
    TWO_RINGS_TEXT,
    bounded_nets,
    load_instance,
    lower_rows,
    marking_key,
    pairwise_rows,
    two_loops,
)
from tfgkit.cli import EXIT_OK, _bench_targets, main
from tfgkit.conc import matrix
from tfgkit.generators import chain_line, composite, diamond_chain, two_phase_branches
from tfgkit.net_io import TaggedEquation
from tfgkit.net_io import parse_equations, parse_net, write_net
from tfgkit.petri import (
    IncompleteStateSpaceError,
    Marking,
    PetriNet,
    explore,
    is_safe,
    oracle_concurrency,
    oracle_reachable,
    random_walk,
)
from tfgkit.reach import (
    BACKEND_EXHAUSTED,
    BACKEND_HIT,
    BACKEND_TRUNCATED,
    PROJECTION_FAILED,
    REACHABLE,
    STATE_EQUATION,
    UNKNOWN,
    UNREACHABLE,
    Analysis,
    ReachVerdict,
    decide,
    partition,
    project,
)
from tfgkit.reductions import ReductionResult, build_graph, reduce
from tfgkit.relation import ConcurrencyMatrix
from tfgkit.tfg import build, enumerate_extensions, is_well_defined, restrict

GOLDEN_VERDICTS = Path(__file__).resolve().parent / "golden" / "decide.txt"

CASCADE_TEXT = """\
# R |- p5 = p4
# A |- a1 = p2 + p1
# A |- a2 = p4 + p3
# R |- a1 = a2
"""
CASCADE_P1 = tuple(f"p{i}" for i in range(7))
CASCADE_P2 = ("p0", "a2", "p6")

A1_TEXT = "pl x 1\npl y 0\npl z 0\ntr t1 x -> y\ntr t2 y -> z\n"
# the state equation admits a=1 (it undoes t), but nothing marks a
BACKWARD_TEXT = "pl a 0\npl b 1\npl c 0\ntr t a -> b\ntr u b -> c\n"
D1_TEXT = "pl p 1\npl q 0\npl r 0\ntr t p -> q r\n"


def refuse(*args, **kwargs):
    raise AssertionError("called")


def searches(monkeypatch, calls: list) -> None:
    """Record each search of a compiled net, the whole net's in ``explore``
    and each component's, as (fields, budget, whether it stops at a goal,
    stored states); a whole-net search has fields -1."""
    search = tfgkit.petri._Compiled.search

    def counted(compiled, max_states, target=-1, fields=-1, transitions=-1):
        space = search(compiled, max_states, target, fields, transitions)
        calls.append((fields, max_states, target != -1, len(space)))
        return space

    monkeypatch.setattr(tfgkit.petri._Compiled, "search", counted)


@pytest.fixture(scope="module")
def cascade():
    return build(parse_equations(CASCADE_TEXT), CASCADE_P1, CASCADE_P2)


class TestBottomUp:
    """``project`` reads the graph bottom-up: a head takes the sum of the
    places below it."""

    def test_doubled_roots_double_the_heads(self, cascade):
        # a1 = p2 + p1 = 2 and a2 = p4 + p3 = 2, so a1 = a2 holds
        projected = project(cascade, Marking({"p1": 2, "p3": 1, "p4": 1, "p5": 1}))
        assert projected == Marking({"a2": 2})
        assert project(cascade, Marking({"p1": 1, "p3": 1, "p4": 1, "p5": 1})) is None

    def test_isolated_node_untouched(self, cascade):
        projected = project(cascade, Marking({"p0": 1}))
        assert projected["p0"] == 1

    def test_zero_marking_zeroes_variables(self, cascade):
        projected = project(cascade, Marking({}))
        assert projected["a2"] == 0 and projected == Marking({})


def closed_form_chain(length: int):
    """``chain_line(length)`` with its agglomeration chain written out:
    ``a1 = p1 + p2``, ``a<i> = a<i-1> + p<i+1>``, a TFG ``length`` arcs deep."""
    net, m0 = chain_line(length).build()
    p = [f"h_p{i}" for i in range(length + 1)]
    equations = [TaggedEquation("A", "a1", terms=(p[1], p[2]))]
    equations += [
        TaggedEquation("A", f"a{i}", terms=(f"a{i - 1}", p[i + 1])) for i in range(2, length)
    ]
    top = f"a{length - 1}"
    reduced = PetriNet(
        (p[0], top),
        ("h_t1", "h_wrap"),
        {"h_t1": {p[0]: 1}, "h_wrap": {top: 1}},
        {"h_t1": {top: 1}, "h_wrap": {p[0]: 1}},
    )
    return net, m0, ReductionResult(reduced, Marking({p[0]: 1}), tuple(equations), 0.0)


class TestDepth:
    """Chains far past the interpreter's recursion limit."""

    def test_project_and_decide_on_5000_step_chain(self):
        net, m0, result = closed_form_chain(5000)
        graph = build_graph(net, result)
        target = Marking({"h_p4321": 1})
        assert project(graph, target) == Marking({"a4999": 1})
        assert project(graph, Marking({"h_p1": 1, "h_p5000": 1})) == Marking({"a4999": 2})
        verdict = decide(net, m0, target, result)
        assert (verdict.answer, verdict.reason) == (REACHABLE, BACKEND_HIT)
        verdict = decide(net, m0, Marking({"h_p0": 1, "h_p9": 1}), result)
        assert (verdict.answer, verdict.reason) == (UNREACHABLE, STATE_EQUATION)

    @pytest.mark.parametrize("count", [1, 2])
    def test_project_a_target_marking_every_leaf(self, count):
        """Every one of the 5,000 leaves under ``a4999``: a walk from each
        leaf to the root would take 12.5 million steps."""
        net, m0, result = closed_form_chain(5000)
        graph = build_graph(net, result)
        graph.projection  # compiled once, outside the timed call
        target = Marking({p: count for p in net.places})
        start = time.perf_counter()
        projected = project(graph, target)
        assert time.perf_counter() - start < 1.0
        assert projected == Marking({"h_p0": count, "a4999": 5000 * count})


class TestProject:
    def test_doubled_target_projects(self, cascade):
        target = Marking({"p1": 2, "p3": 1, "p4": 1, "p5": 1})
        assert project(cascade, target) == Marking({"p0": 0, "a2": 2, "p6": 0})

    def test_unbalanced_target_fails(self, cascade):
        target = Marking({"p4": 2, "p1": 0, "p2": 0})
        assert project(cascade, target) is None

    def test_zero_marking(self, cascade):
        assert project(cascade, Marking({})) == Marking({})

    def test_rejects_non_p1_names(self, cascade):
        with pytest.raises(ValueError):
            project(cascade, Marking({"a2": 1}))


def reference_project(graph, target: Marking) -> Marking | None:
    """``project`` as a walk over the whole graph: the original places take
    their counts, the constants their values and every agglomeration head
    the sum of its children, in reverse topological order; the result is
    checked with ``is_well_defined`` and restricted to the roots."""
    stray = target.support() - graph.p1
    if stray:
        raise ValueError(f"target mentions non-places {sorted(stray)}")
    c = {p: target[p] for p in graph.p1}
    c.update(graph.constants)
    for v in reversed(graph.topo_order):
        splits = graph.a_children[v]
        if splits:
            c[v] = sum(c[w] for w in splits)
    if not is_well_defined(graph, c):
        return None
    return restrict(c, graph.p2)


def assert_projects_as_reference(graph, target: Marking) -> None:
    try:
        expected = reference_project(graph, target)
    except ValueError as error:
        with pytest.raises(ValueError, match=re.escape(str(error))):
            project(graph, target)
        return
    assert project(graph, target) == expected, target


def drawn_targets(places, rng: random.Random, count: int) -> list[Marking]:
    """``count`` markings of random subsets of ``places`` with counts 1-3,
    every fifth one naming a stray place too."""
    out = []
    for i in range(count):
        marked = rng.sample(places, rng.randint(0, len(places)))
        tokens = {p: rng.randint(1, 3) for p in marked}
        if i % 5 == 4:
            tokens["stray"] = 1
        out.append(Marking(tokens))
    return out


class TestCompiledProjection:
    """The compiled ``project`` against the whole-graph walk it replaced,
    on reachable markings, doubled ones, random counts up to 3 and names
    outside the net."""

    def test_corpus(self, corpus):
        rng = random.Random(0)
        for inst in corpus:
            places = list(inst.net.places)
            reached = sorted(inst.space1.markings, key=marking_key)
            doubled = [Marking({p: 2 * n for p, n in m.items()}) for m in reached]
            for target in [*reached, *doubled, *drawn_targets(places, rng, 40)]:
                assert_projects_as_reference(inst.graph, target)

    @settings(max_examples=60)
    @given(st.integers(0, 10_000).map(composite), st.randoms(use_true_random=False))
    def test_composites(self, net_m0, rng):
        net, m0 = net_m0
        graph = build_graph(net, reduce(net, m0))
        walks = [random_walk(net, m0, steps=k, seed=k) for k in range(0, 30, 3)]
        for target in [*walks, *drawn_targets(list(net.places), rng, 20)]:
            assert_projects_as_reference(graph, target)

    def test_cascade(self, cascade):
        rng = random.Random(1)
        for target in drawn_targets(list(CASCADE_P1), rng, 200):
            assert_projects_as_reference(cascade, target)


class TestDecide:
    def test_a1_reachable(self):
        net, m0 = parse_net(A1_TEXT)
        res = reduce(net, m0)
        verdict = decide(net, m0, Marking({"z": 1}), res)
        assert verdict.answer == REACHABLE
        assert verdict.reason == BACKEND_HIT
        assert verdict.projected == Marking({"a1": 1})

    def test_a1_unreachable_by_state_equation(self):
        net, m0 = parse_net(A1_TEXT)
        res = reduce(net, m0)
        verdict = decide(net, m0, Marking({"y": 1, "z": 1}), res)
        assert verdict.answer == UNREACHABLE
        assert verdict.reason == STATE_EQUATION
        assert verdict.projected == Marking({"a1": 2})

    def test_d1_unreachable_by_projection(self):
        net, m0 = parse_net(D1_TEXT)
        res = reduce(net, m0)
        verdict = decide(net, m0, Marking({"q": 1, "r": 0}), res)
        assert verdict.answer == UNREACHABLE
        assert verdict.reason == PROJECTION_FAILED
        assert verdict.projected is None

    def test_truncated_backend_is_unknown(self):
        net, m0 = parse_net(BACKWARD_TEXT)
        res = reduce(net, m0)
        verdict = decide(net, m0, Marking({"a": 1}), res, max_states=1)
        assert verdict.answer == UNKNOWN
        assert verdict.reason == BACKEND_TRUNCATED

    def test_unreachable_by_backend(self):
        net, m0 = parse_net(BACKWARD_TEXT)
        res = reduce(net, m0)
        verdict = decide(net, m0, Marking({"a": 1}), res)
        assert verdict.answer == UNREACHABLE
        assert verdict.reason == BACKEND_EXHAUSTED

    def test_hit_wins_even_when_truncated(self):
        net, m0 = parse_net(A1_TEXT)
        res = reduce(net, m0)
        verdict = decide(net, m0, Marking({"x": 1}), res, max_states=1)
        assert verdict.answer == REACHABLE

    def test_agreement_with_oracle_on_sample(self, corpus):
        for inst in corpus[:15]:
            for seed in range(3):
                target = random_walk(inst.net, inst.m0, steps=5, seed=seed)
                verdict = decide(inst.net, inst.m0, target, inst.result)
                assert verdict.answer == REACHABLE, (inst.name, target)


class TestAnalysis:
    def test_one_exploration_answers_every_bench_target(self, corpus, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append((args[0], kwargs.get("goal") is not None))
            return explore(*args, **kwargs)

        for inst in corpus:
            targets = _bench_targets(inst.net, inst.m0, seed=0)
            one_shot = [decide(inst.net, inst.m0, t, inst.result) for t in targets]
            with monkeypatch.context() as patch:
                patch.setattr(tfgkit.reach, "explore", counted)
                calls.clear()
                analysis = Analysis(inst.net, inst.m0)
                assert [analysis.decide(t) for t in targets] == one_shot, inst.name
            # per component net: at most one search stopped at its part of a
            # target, then one full exploration
            per_part: dict[tuple[str, ...], list[bool]] = {}
            for net, goal in calls:
                per_part.setdefault(net.places, []).append(goal)
            explored = [p for places in per_part for p in places]
            assert len(explored) == len(set(explored)), inst.name
            assert set(explored) <= set(analysis.result.reduced_net.places), inst.name
            assert all(goals in ([True], [True, False]) for goals in per_part.values()), inst.name

    def test_decide_logs_the_settling_step(self, caplog):
        analysis, refuted = Analysis(*parse_net(A1_TEXT)), Analysis(*parse_net(D1_TEXT))
        loops = Analysis(*two_loops())
        caplog.set_level(logging.DEBUG, logger="tfgkit")  # after reduce logged its hits
        for target in ({"y": 1, "z": 1}, {"z": 1}, {"y": 1}):
            analysis.decide(Marking(target))
        assert caplog.messages == [
            "decide settled by state equation: Marking(a1=2)",
            "decide settled by search (backend-hit): Marking(a1=1) "
            "among 2 stored reduced states in 1 components",
            "decide settled by search (backend-hit): Marking(a1=1) "
            "among 2 stored reduced states in 1 components",
        ]
        caplog.clear()
        refuted.decide(Marking({"q": 1}))
        assert caplog.messages == ["decide settled by projection: no reduced marking"]
        caplog.clear()
        # the loops of 3 and 4 states: searches storing 2 + 2 states, then
        # full explorations of 3 + 4 states
        loops.decide(Marking({"c_m0": 1, "d_m0": 1}))
        loops.decide(Marking({"c_m1": 1, "d_m2": 1}))
        assert caplog.messages == [
            "decide settled by search (backend-hit): Marking(c_m0=1 d_m0=1) "
            "among 4 stored reduced states in 2 components",
            "decide settled by search (backend-hit): Marking(c_m1=1 d_m2=1) "
            "among 7 stored reduced states in 2 components",
        ]

    def test_decide_calls_project_through_the_module(self, monkeypatch):
        """Tracers time ``reach.project`` by replacing the module attribute,
        so ``decide`` must look it up there on every call."""
        calls = []

        def counted(*args):
            calls.append(args)
            return project(*args)

        analysis = Analysis(*parse_net(A1_TEXT))
        monkeypatch.setattr(tfgkit.reach, "project", counted)
        assert analysis.decide(Marking({"z": 1})).answer == REACHABLE
        assert len(calls) == 1

    def test_a_series_compiles_the_projection_and_the_flows_once(self, monkeypatch):
        compiled, flows = [], []
        compile_projection, flow_basis = tfgkit.tfg.Projection, tfgkit.petri._flows

        def projection(graph):
            compiled.append(graph)
            return compile_projection(graph)

        def counted_flows(*args):
            flows.append(args)
            return flow_basis(*args)

        net, m0 = composite(10)  # 13 reduced places in 4 components
        targets = [t for seed in range(4) for t in _bench_targets(net, m0, seed)]
        analysis = Analysis(net, m0)
        monkeypatch.setattr(tfgkit.tfg, "Projection", projection)
        monkeypatch.setattr(tfgkit.petri, "_flows", counted_flows)
        verdicts = [analysis.decide(t) for t in targets]
        assert {v.reason for v in verdicts} >= {STATE_EQUATION, BACKEND_HIT}
        assert len(compiled) == 1 and len(flows) == 1

    def test_reduces_when_no_result_is_given(self, corpus):
        for inst in corpus:
            assert Analysis(inst.net, inst.m0).result == reduce(inst.net, inst.m0)

    def test_conc_from_given_rel2_never_explores(self, tmp_path, monkeypatch, capsys):
        net_path, eq, net2 = tmp_path / "d1.net", tmp_path / "d1.eq", tmp_path / "d1.reduced.net"
        net_path.write_text(D1_TEXT)
        main(["reduce", str(net_path), "--output", str(eq), "--reduced-net", str(net2)])
        capsys.readouterr()
        rel2 = tmp_path / "rel2.txt"
        rel2.write_text("# order: p q\n1\n.1\n")
        monkeypatch.setattr(tfgkit.petri._Compiled, "search", refuse)
        argv = ["conc", str(net_path), "--rel2", str(rel2),
                "--equations", str(eq), "--reduced-net", str(net2)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("# order: p q r\n")


class TestOneShot:
    """The one-shot ``decide`` keeps the ``Analysis`` of its last call while
    the calls pass the same result and net, an equal ``m0`` and equal
    limits.  Each test reduces afresh, so its first call builds anew."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """The graph builds behind ``decide``, and its searches as
        (component fields, whether the search stopped at a goal)."""
        built, explored = [], []

        def graph(*args, **kwargs):
            built.append(args)
            return build_graph(*args, **kwargs)

        monkeypatch.setattr(tfgkit.reach, "build_graph", graph)
        searches(monkeypatch, explored)
        return built, explored

    def test_a_series_builds_one_graph_and_explores_each_component_twice_at_most(
            self, counted):
        built, explored = counted
        net, m0 = composite(10)  # 13 reduced places in 4 components
        result = reduce(net, m0)
        targets = [t for seed in range(4) for t in _bench_targets(net, m0, seed)]
        for target in targets:
            decide(net, m0, target, result)
        assert len(built) == 1
        per_part: dict[int, list[bool]] = {}
        for fields, _, goal, _ in explored:
            per_part.setdefault(fields, []).append(goal)
        assert len(per_part) == 4
        assert all(goals in ([True], [True, False]) for goals in per_part.values())
        assert [True, False] in per_part.values()

    @pytest.mark.parametrize("change", ["result", "net", "m0", "max_states", "max_token"])
    def test_a_changed_key_builds_a_new_analysis(self, change, counted):
        built, _ = counted
        net, m0 = parse_net(A1_TEXT)
        result = reduce(net, m0)
        key = dict(net=net, m0=m0, result=result, max_states=100_000, max_token=1)
        other = dict(key, **{change: {
            "result": ReductionResult(result.reduced_net, result.reduced_marking,
                                      result.equations, result.ratio),
            "net": parse_net(A1_TEXT)[0],
            "m0": Marking({"y": 1}),
            "max_states": 99_999,
            "max_token": 2,
        }[change]})
        if change in ("result", "net"):  # equal, but another object
            assert other[change] == key[change] and other[change] is not key[change]
        target = Marking({"z": 1})
        for args, graphs in ((key, 1), (key, 1), (other, 2), (other, 2), (key, 3)):
            assert decide(target=target, **args).answer == REACHABLE
            assert len(built) == graphs, args

    @pytest.mark.parametrize("net_m0", [two_loops(), parse_net(TWO_RINGS_TEXT), composite(10)],
                             ids=["two_loops", "two_rings", "composite10"])
    def test_a_binding_budget_is_shared_as_on_one_analysis(self, net_m0):
        net, m0 = net_m0
        result = reduce(net, m0)
        targets = [t for seed in (0, 1) for t in _bench_targets(net, m0, seed)]
        one_shot = [decide(net, m0, t, result, max_states=1) for t in targets]
        analysis = Analysis(net, m0, result, max_states=1)
        assert one_shot == [analysis.decide(t) for t in targets]
        assert UNKNOWN in {verdict.answer for verdict in one_shot}

    def test_log_counts_the_components_searched_before(self, caplog, capsys):
        net, m0 = two_loops()
        result = reduce(net, m0)
        decide(net, m0, Marking({"c_m0": 1, "d_m0": 1}), result)  # goal searches
        decide(net, m0, Marking({"c_m1": 1, "d_m2": 1}), result)  # full explorations
        caplog.set_level(logging.DEBUG, logger="tfgkit")
        decide(net, m0, Marking({"c_hub": 1, "d_m1": 1}), result)
        assert caplog.messages == [
            "decide settled by search (backend-hit): Marking(c_hub=1 d_m1=1) "
            "among 7 stored reduced states in 2 components, 2 searched by earlier calls",
        ]
        assert capsys.readouterr().out == ""


# the components {a, b}, {iso} (no transition, marked) and {d, e} (dead),
# with their places interleaved, and a transition without arcs, in none
SPLIT_TEXT = (
    "pl a 1\npl iso 1\npl d 0\npl b 0\npl e 0\n"
    "tr t a -> b\ntr u b -> a\ntr v d -> e\ntr z ->\n"
)


class CheckedComponents:
    """Each connected component of a reduced net built as a checked
    ``PetriNet`` and searched with ``explore``, with the budget and search
    order that ``Analysis`` documents: the reference that its one compiled
    layout must match."""

    def __init__(self, result: ReductionResult, max_states: int, max_token: int):
        net, m0 = result.reduced_net, result.reduced_marking
        self.max_states, self.max_token = max_states, max_token
        arcs = {t: {*net.pre_of(t), *net.post_of(t)} for t in net.transitions}
        self.parts = []
        placed: set[str] = set()
        for p in net.places:  # a walk from each first place not yet placed
            if p in placed:
                continue
            places = {p}
            while True:
                touching = [t for t in net.transitions if arcs[t] & places]
                reached = places.union(*(arcs[t] for t in touching))
                if reached == places:
                    break
                places = reached
            placed |= places
            order = tuple(q for q in net.places if q in places)
            part = PetriNet(order, tuple(touching), {t: net.pre_of(t) for t in touching},
                            {t: net.post_of(t) for t in touching})
            self.parts.append((part, Marking({q: m0[q] for q in order})))
        self.found = [None] * len(self.parts)

    def space(self, k, goal=None):
        space = self.found[k]
        if space is not None and space.status != "truncated(goal)":
            return space
        budget = self.max_states - sum(len(other) for j, other in enumerate(self.found)
                                       if j != k and other is not None)
        if budget < 1:
            return None
        net, m0 = self.parts[k]
        self.found[k] = explore(net, m0, max_states=budget, max_token=self.max_token,
                                goal=goal if space is None else None)
        return self.found[k]

    def decide(self, graph, equation, target) -> ReachVerdict:
        projected = project(graph, target)
        if projected is None:
            return ReachVerdict(UNREACHABLE, PROJECTION_FAILED)
        if not equation.admits(projected):
            return ReachVerdict(UNREACHABLE, STATE_EQUATION, projected)
        verdict = ReachVerdict(REACHABLE, BACKEND_HIT, projected)
        for k, (net, _) in enumerate(self.parts):
            goal = Marking({p: projected[p] for p in net.places})
            space = self.space(k, goal)
            if space is not None and goal in space:
                continue
            if space is not None and space.is_complete:
                return ReachVerdict(UNREACHABLE, BACKEND_EXHAUSTED, projected)
            verdict = ReachVerdict(UNKNOWN, BACKEND_TRUNCATED, projected)
        return verdict

    def spaces(self):
        out = []
        for k in range(len(self.parts)):
            space = self.space(k)
            if space is None:
                return "truncated(max-states)"
            if not space.is_complete:
                return space.status
            out.append(space)
        return out


def reduced_rel2(result: ReductionResult):
    space2 = explore(result.reduced_net, result.reduced_marking)
    return oracle_concurrency(space2, result.reduced_net.places)


def assert_agrees_with_oracles(net, m0, result, targets):
    """``Analysis.decide`` agrees with the full-net oracle on every target.
    On a safe net, ``Analysis.rel2`` also equals the oracle relation of the
    whole reduced net, and its lift the full net's relation."""
    analysis = Analysis(net, m0, result, max_token=BOUNDED_MAX_TOKEN)
    space1 = explore(net, m0, max_token=BOUNDED_MAX_TOKEN)
    if is_safe(space1):
        assert analysis.rel2 == reduced_rel2(result)
        lifted = matrix(analysis.graph, analysis.rel2).restrict(net.places)
        assert lifted == oracle_concurrency(space1, net.places)
    for target in targets:
        verdict = analysis.decide(target)
        assert verdict.answer != UNKNOWN, target
        assert (verdict.answer == REACHABLE) == oracle_reachable(space1, target), target


class TestComponents:
    """Exploring the reduced net one connected component at a time gives
    the answers of the whole reduced net and of the full net."""

    def test_agrees_on_corpus(self, corpus):
        for inst in corpus:
            targets = [t for seed in (0, 1) for t in _bench_targets(inst.net, inst.m0, seed)]
            assert_agrees_with_oracles(inst.net, inst.m0, inst.result, targets)

    @settings(max_examples=40)
    @given(st.one_of(st.integers(0, 10_000).map(composite), bounded_nets()))
    def test_agrees_on_composites(self, net_m0):
        net, m0 = net_m0
        targets = [t for seed in (0, 1) for t in _bench_targets(net, m0, seed)]
        assert_agrees_with_oracles(net, m0, reduce(net, m0), targets)

    @settings(max_examples=40)
    @given(st.one_of(st.integers(0, 10_000).map(composite), bounded_nets()))
    def test_one_shot_series_equals_fresh_analyses(self, net_m0):
        """At the default budget, reusing one analysis across a series of
        one-shot calls changes no answer, reason or projected marking."""
        net, m0 = net_m0
        result = reduce(net, m0)
        targets = [t for seed in (0, 1) for t in _bench_targets(net, m0, seed)]
        one_shot = [decide(net, m0, t, result) for t in targets]
        assert one_shot == [Analysis(net, m0, result).decide(t) for t in targets]

    @settings(max_examples=40)
    @given(st.one_of(st.integers(0, 10_000).map(composite), bounded_nets(),
                     st.just(parse_net(SPLIT_TEXT))))
    def test_components_partition_the_places_and_the_transitions_with_arcs(self, net_m0):
        """The components share out the reduced places, in order of their
        first places, and the transitions with arcs; every arc of a
        component's transition ends at a place of that component, each
        component's place mask and fields cover its places, and the parts
        are connected: no two of them could be split further."""
        analysis = Analysis(*net_m0)
        reduced = analysis.result.reduced_net
        owner, parts = analysis._components
        width = analysis._compiled.packing.width
        assert sorted(i for positions, _, _, _ in parts for i in positions) == \
            list(range(len(reduced.places)))
        assert [positions[0] for positions, _, _, _ in parts] == sorted(
            positions[0] for positions, _, _, _ in parts)
        assert sum(moves for _, _, _, moves in parts) == sum(
            1 << j for j, t in enumerate(reduced.transitions)
            if reduced.pre_of(t) or reduced.post_of(t))
        for k, (positions, places, fields, moves) in enumerate(parts):
            assert all(owner[i] == k for i in positions)
            assert places == sum(1 << i for i in positions)
            assert fields == sum((1 << width) - 1 << i * width for i in positions)
            ts = [t for j, t in enumerate(reduced.transitions) if moves >> j & 1]
            arcs = {reduced.places.index(p) for t in ts
                    for p in (*reduced.pre_of(t), *reduced.post_of(t))}
            assert arcs <= set(positions)
            # connected: a walk over the arcs from the first place reaches all
            reached, frontier = {positions[0]}, [positions[0]]
            while frontier:
                i = frontier.pop()
                for t in ts:
                    ends = {reduced.places.index(p)
                            for p in (*reduced.pre_of(t), *reduced.post_of(t))}
                    if i in ends:
                        frontier += ends - reached
                        reached |= ends
            assert reached == set(positions)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.integers(0, 10_000).map(composite), bounded_nets(),
                     st.just(parse_net(SPLIT_TEXT))),
           st.booleans(), st.data())
    def test_components_match_checked_nets_under_any_budget(self, net_m0, identity, data):
        """Under a ``max_states`` budget from 1 up to the reduced net's
        state count, a series of decides gives the verdicts, reasons and
        projected markings of the components built as checked nets and
        explored alone, leaves each component with the same stored set and
        status, and ``spaces`` then ends the same way."""
        net, m0 = net_m0
        result = ReductionResult(net, m0, (), 0.0) if identity else reduce(net, m0)
        whole = explore(result.reduced_net, result.reduced_marking, max_token=BOUNDED_MAX_TOKEN)
        max_states = data.draw(st.integers(1, len(whole)), label="max_states")
        analysis = Analysis(net, m0, result, max_states=max_states, max_token=BOUNDED_MAX_TOKEN)
        checked = CheckedComponents(result, max_states, BOUNDED_MAX_TOKEN)
        assert len(analysis._components[1]) == len(checked.parts)
        targets = [t for seed in (0, 1) for t in _bench_targets(net, m0, seed)]
        for target in targets:
            verdict = analysis.decide(target)
            assert verdict == checked.decide(analysis.graph, analysis.state_equation, target)
        for k, space in enumerate(checked.found):
            found = analysis._found.get(k)
            assert (found is None) == (space is None), k
            if space is not None:
                assert found.markings == space.markings and found.status == space.status, k
        expected = checked.spaces()
        if isinstance(expected, str):
            with pytest.raises(IncompleteStateSpaceError, match=re.escape(expected)):
                analysis.spaces
        else:
            assert [s.markings for s in analysis.spaces] == [s.markings for s in expected]

    @pytest.mark.parametrize("k", [50, 200, 800])
    def test_diamond_chain_rel2_and_seed_do_not_scale_their_passes(self, k, monkeypatch):
        """On ``diamond_chain(k)``, ``rel2`` makes no restrict, and
        ``_seed`` makes the same passes over whole rows at every ``k``:
        one transpose, the move's, and no pass per run of positions,
        although there are ``k + 1`` runs."""
        analysis = Analysis(*diamond_chain(k))
        with monkeypatch.context() as patch:
            patch.setattr(ConcurrencyMatrix, "restrict", refuse)
            rel2 = analysis.rel2
        assert len(analysis._components[1]) == k
        passes = []

        class Runs(list):
            def __iter__(self):  # each run is one pass over the rows
                passes.append(len(self))
                return super().__iter__()

        runs, transpose = tfgkit.conc._runs, tfgkit.conc.transpose
        monkeypatch.setattr(tfgkit.conc, "_runs", lambda nodes: Runs(runs(nodes)))
        monkeypatch.setattr(tfgkit.conc, "transpose",
                            lambda rows: passes.append(1) or transpose(rows))
        tfgkit.conc._seed(analysis.graph, rel2)
        assert passes == [1]

    def test_rel2_equals_the_reduced_oracle_on_corpus(self, corpus, monkeypatch):
        """On every corpus net, ``rel2`` equals ``oracle_concurrency`` of
        the whole reduced net, order and rows included, counts no writes
        and is never restricted, since its rows are written at the reduced
        net's positions.  The corpus holds nets of one component, of several
        in order, and of interleaved ones."""
        shapes = set()
        for inst in corpus:
            places = inst.result.reduced_net.places
            expected = oracle_concurrency(inst.space2, places)
            analysis = Analysis(inst.net, inst.m0, inst.result)
            with monkeypatch.context() as patch:
                patch.setattr(ConcurrencyMatrix, "restrict", refuse)
                rel2 = analysis.rel2
            parts = analysis._components[1]
            layout = [i for positions, _, _, _ in parts for i in positions]
            assert rel2 == expected and rel2.order == places, inst.name
            assert rel2.writes == 0, inst.name
            shapes.add((len(parts) > 1, layout == sorted(layout)))
        assert shapes == {(False, True), (True, True), (True, False)}

    @pytest.mark.parametrize("seed", [0, 10, 21, 24, 35])
    def test_rel2_matches_pairwise_scan(self, seed):
        # 2-4 components whose product holds 24-80 states
        analysis = Analysis(*composite(seed))
        reduced = analysis.result.reduced_net
        space2 = explore(reduced, analysis.result.reduced_marking)
        assert lower_rows(analysis.rel2) == pairwise_rows(space2.markings, reduced.places)

    @pytest.mark.parametrize("net_m0, components, states", [
        *((two_phase_branches(w).build(), 1, 2**w + 2) for w in (3, 6, 10)),
        *((diamond_chain(k), k, 3**k) for k in (2, 4, 6)),
    ])
    def test_component_spaces_stay_flat_while_the_full_space_explodes(
            self, net_m0, components, states):
        assert [len(space) for space in Analysis(*net_m0).spaces] == [2] * components
        assert len(explore(*net_m0)) == states

    @pytest.mark.parametrize("identity", [True, False], ids=["unreduced", "reduced"])
    def test_isolated_place_and_dead_component(self, identity):
        net, m0 = parse_net(SPLIT_TEXT)
        result = ReductionResult(net, m0, (), 0.0) if identity else reduce(net, m0)
        targets = [Marking({p: 1 for p in marked})
                   for k in range(len(net.places) + 1)
                   for marked in itertools.combinations(net.places, k)]
        assert_agrees_with_oracles(net, m0, result, targets)
        if identity:
            rel2 = Analysis(net, m0, result).rel2
            # a, b alternate; iso is marked beside both; d and e are dead
            assert lower_rows(rel2) == ["1", "11", "000", "0101", "00000"]

    def test_refuted_target_never_splits(self, monkeypatch):
        monkeypatch.setattr(tfgkit.reach, "_connected_components", refuse)
        monkeypatch.setattr(tfgkit.reach, "_Compiled", refuse)
        verdict = Analysis(*parse_net(A1_TEXT)).decide(Marking({"y": 1, "z": 1}))
        assert verdict.reason == STATE_EQUATION
        verdict = Analysis(*parse_net(D1_TEXT)).decide(Marking({"q": 1}))
        assert verdict.reason == PROJECTION_FAILED

    def test_spaces_are_the_complete_component_spaces(self, monkeypatch):
        net, m0 = two_loops()  # the loops c and d: two components
        with pytest.raises(IncompleteStateSpaceError, match="max-states"):
            Analysis(net, m0, max_states=6).spaces  # 3 states of c leave 3 for d
        analysis = Analysis(net, m0)
        analysis.rel2
        monkeypatch.setattr(tfgkit.petri._Compiled, "search", refuse)
        assert [len(space) for space in analysis.spaces] == [3, 4]
        assert all(space.is_complete for space in analysis.spaces)

    def test_search_that_leaves_no_budget_is_unknown(self):
        net, m0 = parse_net(TWO_RINGS_TEXT)  # two components, a-b and c-d
        analysis = Analysis(net, m0, max_states=2)
        assert analysis.result.reduced_net.places == net.places
        # the search of a-b stores both of its states, so c-d gets none
        target = Marking({"b": 1, "d": 1})
        assert analysis.decide(target) == ReachVerdict(UNKNOWN, BACKEND_TRUNCATED, target)
        assert Analysis(net, m0, max_states=4).decide(target).reason == BACKEND_HIT

    @pytest.mark.parametrize("max_states, budgets", [
        (2, [2]),  # a-b's 2 states leave c-d nothing: it is never explored
        (3, [3, 1]),  # c-d gets 1 state, a truncated exploration
    ])
    def test_spaces_beyond_the_budget_raise(self, max_states, budgets, monkeypatch):
        net, m0 = parse_net(TWO_RINGS_TEXT)
        calls = []
        searches(monkeypatch, calls)
        with pytest.raises(IncompleteStateSpaceError, match=r"^truncated\(max-states\)$"):
            Analysis(net, m0, max_states=max_states).spaces
        assert [budget for _, budget, _, _ in calls] == budgets

    def test_conc_and_reach_never_explore_the_whole_reduced_net(self, tmp_path, monkeypatch, capsys):
        net, m0 = composite(10)  # 13 reduced places in 4 components
        reduced = reduce(net, m0).reduced_net
        path = tmp_path / "net.net"
        path.write_text(write_net(net, m0))
        whole = len(explore(reduced, reduce(net, m0).reduced_marking))
        calls = []
        searches(monkeypatch, calls)  # whole-net searches, in explore, have fields -1
        assert main(["conc", str(path), "--output", str(tmp_path / "out.cm")]) == EXIT_OK
        assert len(calls) > 1
        assert all(fields != -1 for fields, _, _, _ in calls)
        component_states = sum(n for _, _, _, n in calls)
        assert component_states < whole
        for seed in range(5):
            target = random_walk(net, m0, steps=20, seed=seed)
            (tmp_path / "q.txt").write_text(" ".join(f"{p}={n}" for p, n in target.items()))
            calls.clear()
            assert main(["reach", str(path), str(tmp_path / "q.txt")]) == EXIT_OK
            assert all(fields != -1 for fields, _, _, _ in calls)
            assert sum(n for _, _, _, n in calls) <= component_states
        capsys.readouterr()


class TestUnicity:
    def test_no_two_extensions_share_a_restriction(self, corpus):
        for inst in corpus:
            seen = {}
            for m2 in sorted(inst.space2.markings, key=marking_key):
                roots = {p: m2[p] for p in inst.result.reduced_net.places}
                for c in enumerate_extensions(inst.graph, roots):
                    m1 = restrict(c, tuple(inst.graph.p1))
                    key = tuple(m1.items())
                    assert key not in seen or seen[key] == dict(c), inst.name
                    seen[key] = dict(c)


class TestPartition:
    def test_a1_partition(self):
        net, m0 = parse_net(A1_TEXT)
        res = reduce(net, m0)
        graph = build_graph(net, res)
        space2 = explore(res.reduced_net, res.reduced_marking)
        parts = dict(partition(graph, space2))
        assert parts[Marking({"x": 1})] == frozenset({Marking({"x": 1})})
        assert parts[Marking({"a1": 1})] == frozenset(
            {Marking({"y": 1}), Marking({"z": 1})}
        )

    def test_d1_partition_forces_duplicate(self):
        net, m0 = parse_net(D1_TEXT)
        res = reduce(net, m0)
        graph = build_graph(net, res)
        space2 = explore(res.reduced_net, res.reduced_marking)
        parts = dict(partition(graph, space2))
        assert parts[Marking({"q": 1})] == frozenset({Marking({"q": 1, "r": 1})})

    def test_identity_reduction_gives_singletons(self):
        net, m0 = parse_net("pl a 1\npl b 0\ntr t a -> b\n")
        res = reduce(net, m0)
        graph = build_graph(net, res)
        space2 = explore(res.reduced_net, res.reduced_marking)
        for m2, inv in partition(graph, space2):
            assert inv == frozenset({m2})

    def test_refuses_truncated_space(self, cascade):
        net, m0 = parse_net(A1_TEXT)
        res = reduce(net, m0)
        graph = build_graph(net, res)
        space2 = explore(res.reduced_net, res.reduced_marking, max_states=1)
        with pytest.raises(IncompleteStateSpaceError):
            partition(graph, space2)

    def test_partition_properties_on_sample(self, corpus):
        for inst in corpus[:15]:
            parts = partition(inst.graph, inst.space2)
            blocks = [inv for _, inv in parts]
            assert all(blocks), inst.name
            union = set()
            total = 0
            for block in blocks:
                union |= block
                total += len(block)
            assert total == len(union), f"{inst.name}: blocks overlap"
            assert union == set(inst.space1.markings), inst.name


def verdicts_text(instances) -> str:
    """Per corpus net, the verdict of one ``Analysis`` on each bench target
    of seeds 0 and 1, in turn: the target, answer, reason and projected
    marking."""
    lines = []
    for inst in instances:
        analysis = Analysis(inst.net, inst.m0, inst.result)
        for target in (t for seed in (0, 1) for t in _bench_targets(inst.net, inst.m0, seed)):
            verdict = analysis.decide(target)
            lines.append(f"{inst.name} {target!r} {verdict.answer} {verdict.reason} "
                         f"{verdict.projected!r}\n")
    return "".join(lines)


class TestPinnedVerdicts:
    def test_golden(self, corpus):
        """Answer, reason and projected marking of every bench target match
        the committed ones.

        Regenerate with ``PYTHONPATH=src python tests/test_reach.py``.
        """
        assert verdicts_text(corpus) == GOLDEN_VERDICTS.read_text()


if __name__ == "__main__":
    GOLDEN_VERDICTS.write_text(
        verdicts_text([load_instance(path) for path in sorted(CORPUS_DIR.glob("*.net"))])
    )
