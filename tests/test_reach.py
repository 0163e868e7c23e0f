"""Projection, accelerated reachability decisions, and the state-space partition."""

import logging

import pytest

import tfgkit.cli
import tfgkit.reach
from conftest import marking_key
from tfgkit.cli import EXIT_OK, _bench_targets, main
from tfgkit.generators import chain_line
from tfgkit.net_io import TaggedEquation
from tfgkit.net_io import parse_equations, parse_net
from tfgkit.petri import (
    IncompleteStateSpaceError,
    Marking,
    PetriNet,
    explore,
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
    decide,
    partition,
    project,
)
from tfgkit.reductions import ReductionResult, build_graph, reduce
from tfgkit.tfg import bottom_up, build, enumerate_extensions, restrict

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


@pytest.fixture(scope="module")
def cascade():
    return build(parse_equations(CASCADE_TEXT), CASCADE_P1, CASCADE_P2)


class TestBottomUp:
    def test_doubled_roots_double_the_heads(self, cascade):
        c = bottom_up(cascade, Marking({"p1": 2, "p3": 1, "p4": 1, "p5": 1}))
        assert c["a1"] == 2
        assert c["a2"] == 2

    def test_isolated_node_untouched(self, cascade):
        c = bottom_up(cascade, Marking({"p0": 1}))
        assert c["p0"] == 1

    def test_zero_marking_zeroes_variables(self, cascade):
        c = bottom_up(cascade, Marking({}))
        assert c["a1"] == 0 and c["a2"] == 0


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
            # at most one search stopped at a target, then one full exploration
            assert all(net == analysis.result.reduced_net for net, _ in calls), inst.name
            assert [goal for _, goal in calls] in ([], [True], [True, False]), inst.name

    def test_decide_logs_the_settling_step(self, caplog):
        analysis, refuted = Analysis(*parse_net(A1_TEXT)), Analysis(*parse_net(D1_TEXT))
        caplog.set_level(logging.DEBUG, logger="tfgkit")  # after reduce logged its hits
        for target in ({"y": 1, "z": 1}, {"z": 1}, {"y": 1}):
            analysis.decide(Marking(target))
        assert caplog.messages == [
            "decide settled by state equation: Marking(a1=2)",
            "decide settled by search (backend-hit): Marking(a1=1) "
            "among 2 stored reduced states, truncated(goal)",
            "decide settled by search (backend-hit): Marking(a1=1) "
            "among 2 stored reduced states, complete",
        ]
        caplog.clear()
        refuted.decide(Marking({"q": 1}))
        assert caplog.messages == ["decide settled by projection: no reduced marking"]

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

        def refuse(*args, **kwargs):
            raise AssertionError("explored")

        monkeypatch.setattr(tfgkit.reach, "explore", refuse)
        monkeypatch.setattr(tfgkit.cli, "explore", refuse)
        argv = ["conc", str(net_path), "--rel2", str(rel2),
                "--equations", str(eq), "--reduced-net", str(net2)]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("# order: p q r\n")


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
