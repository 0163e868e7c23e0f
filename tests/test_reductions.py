"""Reduction rules, ratios, and the E-equivalence validator."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOUNDED_MAX_TOKEN, CORPUS_DIR, bounded_nets, marking_key
from tfgkit import generators
from tfgkit.net_io import (
    TaggedEquation,
    parse_equations,
    parse_net,
    write_equations,
    write_net,
)
from tfgkit.petri import IncompleteStateSpaceError, Marking, PetriNet, explore, is_safe
from tfgkit.reach import validate_equivalence
from tfgkit.reductions import ReductionResult, build_graph, reduce

D1_TEXT = "pl p 1\npl q 0\npl r 0\ntr t p -> q r\n"
A1_TEXT = "pl x 1\npl y 0\npl z 0\ntr t1 x -> y\ntr t2 y -> z\n"
RING_TEXT = "pl a 1\npl b 0\ntr t a -> b\ntr u b -> a\n"

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "reduce.txt"
GOLDEN_SCALED = GOLDEN_DIR / "reduce_scaled.txt"


def _sections(nets) -> str:
    """Equations and reduced net of each ``(name, (net, m0))`` under a
    ``### <name>`` header."""
    sections = []
    for name, (net, m0) in nets:
        res = reduce(net, m0)
        sections.append(
            f"### {name}\n{write_equations(res.equations)}---\n"
            + write_net(res.reduced_net, res.reduced_marking)
        )
    return "".join(sections)


def golden_text() -> str:
    """Every corpus net and three small generator families."""
    nets = [(path.stem, parse_net(path.read_text())) for path in sorted(CORPUS_DIR.glob("*.net"))]
    nets += [
        ("chain_line(48)", generators.chain_line(48).build()),
        ("duplicate_ladder(32)", generators.duplicate_ladder(32).build()),
        ("diamond_chain(16)", generators.diamond_chain(16)),
    ]
    return _sections(nets)


def scaled_golden_text() -> str:
    """Six generator families at a few hundred places and twenty composite
    nets, where a change to the order in which rules find their candidates
    would show."""
    nets = [
        ("chain_line(300)", generators.chain_line(300).build()),
        ("diamond_chain(60)", generators.diamond_chain(60)),
        ("duplicate_ladder(100)", generators.duplicate_ladder(100).build()),
        ("two_phase_branches(40)", generators.two_phase_branches(40).build()),
        ("fork_join(30)", generators.fork_join(30).build()),
        ("ring(50)", generators.ring(50).build()),
    ]
    nets += [(f"composite({seed}, 8)", generators.composite(seed, 8)) for seed in range(20)]
    return _sections(nets)


class TestRules:
    def test_duplicate_rule_on_d1(self):
        net, m0 = parse_net(D1_TEXT)
        res = reduce(net, m0)
        assert res.reduced_net.places == ("p", "q")
        assert [(e.tag, e.lhs, e.terms) for e in res.equations] == [
            ("R", "r", ("q",))
        ]
        assert res.reduced_marking == Marking({"p": 1})
        assert res.ratio == pytest.approx(1 / 3)

    def test_chain_rule_on_a1(self):
        net, m0 = parse_net(A1_TEXT)
        res = reduce(net, m0)
        assert res.reduced_net.places == ("x", "a1")
        assert [(e.tag, e.lhs, e.terms) for e in res.equations] == [
            ("A", "a1", ("y", "z"))
        ]
        assert res.reduced_net.pre["t1"] == {"x": 1}
        assert res.reduced_net.post["t1"] == {"a1": 1}
        assert res.ratio == pytest.approx(1 / 3)

    def test_irreducible_net(self):
        net, m0 = parse_net("pl a 1\npl b 0\ntr t a -> b\n")
        res = reduce(net, m0)
        assert res.equations == ()
        assert res.ratio == 0.0
        assert res.reduced_net == net

    def test_constant_rule_marked_place(self):
        net, m0 = parse_net("pl c 1\npl a 1\npl b 0\ntr t a -> b\n")
        res = reduce(net, m0)
        constant = [e for e in res.equations if e.lhs == "c"]
        assert constant and constant[0].tag == "R"
        assert constant[0].constant == 1
        assert "c" not in res.reduced_net.places

    def test_chain_rule_needs_empty_ends(self):
        # A marked interior place cannot be agglomerated away.
        net, m0 = parse_net("pl x 0\npl y 1\npl z 0\ntr t1 x -> y\ntr t2 y -> z\n")
        res = reduce(net, m0)
        assert "y" in res.reduced_net.places or not any(
            e.tag == "A" and "y" in e.terms for e in res.equations
        )
        report = validate_equivalence(net, m0, res)
        assert report.valid

    @pytest.mark.parametrize("text", [
        # a and b share their columns but not their initial marking
        "pl a 1\npl b 0\npl c 0\ntr t a b -> c\n",
        # t1 moves p to q, but p has a second consumer t2
        "pl s 1\npl p 0\npl q 0\npl r 0\ntr t0 s -> p\ntr t1 p -> q\ntr t2 p -> r\n",
        # t1 moves two tokens, not one
        "pl s 1\npl p 0\npl q 0\ntr t0 s -> p*2\ntr t1 p*2 -> q\n",
        # a and b share a producer, or a consumer, at different weights
        "pl s 1\npl a 0\npl b 0\ntr t s -> a b*2\n",
        "pl a 1\npl b 1\npl c 0\ntr t a b*2 -> c\n",
    ])
    def test_blocked_rule_leaves_net_unchanged(self, text):
        net, m0 = parse_net(text)
        res = reduce(net, m0)
        assert res.equations == ()
        assert res.reduced_net == net

    def test_removed_variables_absent_from_reduced_net(self, corpus):
        for inst in corpus:
            removed = set()
            for eq in inst.result.equations:
                if eq.tag == "R":
                    removed.add(eq.lhs)
                else:
                    removed.update(eq.terms)
            assert removed.isdisjoint(inst.result.reduced_net.places), inst.name

    def test_fresh_names_skip_existing_places(self):
        text = "pl a1 1\npl x 1\npl y 0\npl z 0\ntr t1 x -> y\ntr t2 y -> z\ntr t3 a1 -> a1\n"
        net, m0 = parse_net(text)
        res = reduce(net, m0)
        fresh = [e.lhs for e in res.equations if e.tag == "A"]
        assert fresh and fresh[0] != "a1"

    def test_deterministic(self):
        net, m0 = parse_net(D1_TEXT)
        assert reduce(net, m0) == reduce(net, m0)

    def test_ratio_formula(self, corpus):
        for inst in corpus:
            n1 = len(inst.net.places)
            n2 = len(inst.result.reduced_net.places)
            assert inst.result.ratio == pytest.approx((n1 - n2) / n1)


class TestEquationsOutput:
    def test_round_trip_through_text(self, corpus):
        for inst in corpus:
            text = write_equations(inst.result.equations)
            assert list(parse_equations(text)) == list(inst.result.equations)

    def test_graph_builds_for_every_instance(self, corpus):
        for inst in corpus:
            graph = build_graph(inst.net, inst.result)
            assert set(graph.roots) - set(graph.constants) == set(
                inst.result.reduced_net.places
            )


class TestValidator:
    def test_d1_valid(self):
        net, m0 = parse_net(D1_TEXT)
        report = validate_equivalence(net, m0, reduce(net, m0))
        assert report.valid
        assert report.n1_markings == 2
        assert report.n2_markings == 2

    def test_a1_valid(self):
        net, m0 = parse_net(A1_TEXT)
        report = validate_equivalence(net, m0, reduce(net, m0))
        assert report.valid
        assert report.n1_markings == 3
        assert report.n2_markings == 2

    def test_corrupted_equation_detected(self):
        net, m0 = parse_net(D1_TEXT)
        res = reduce(net, m0)
        # Claim r = p instead of r = q: configuration {p:1, q:0, r:1} breaks it.
        corrupted = ReductionResult(
            res.reduced_net,
            res.reduced_marking,
            (TaggedEquation("R", "r", terms=("p",)),),
            res.ratio,
        )
        report = validate_equivalence(net, m0, corrupted)
        assert not report.valid
        assert (report.condition, report.witness) == ("A1", {"p": 1})

    @pytest.mark.parametrize("text1, text2, equations, condition, witness, detail", [
        # the same ring, but the reduced copy starts at b
        (RING_TEXT, "pl a 0\npl b 1\ntr t a -> b\ntr u b -> a\n", "",
         "A2", {"a": 1}, "initial markings"),
        # the ring reaches {b: 1}; the reduced net, without transitions, does not
        (RING_TEXT, "pl a 1\npl b 0\n", "",
         "A3", {"b": 1}, "unreachable reduced marking"),
        # x = a + b holds at {b: 1}, which the input net, without transitions, never reaches
        ("pl a 1\npl b 0\n", "pl x 1\n", "# A |- x = a + b\n",
         "A3", {"b": 1}, "unreachable input marking"),
    ], ids=["A2", "A3-forward", "A3-reverse"])
    def test_failed_condition_and_witness(self, text1, text2, equations, condition, witness,
                                          detail):
        net, m0 = parse_net(text1)
        net2, m2 = parse_net(text2)
        result = ReductionResult(net2, m2, tuple(parse_equations(equations)), 0.0)
        report = validate_equivalence(net, m0, result)
        assert not report.valid
        assert (report.condition, report.witness) == (condition, witness)
        assert detail in report.detail

    def test_wide_agglomeration_valid(self):
        """``a`` agglomerates 1,500 places, one of which holds the token."""
        width = 1500
        text = "pl p0 1\n" + "".join(f"pl p{i} 0\ntr t{i} p0 -> p{i}\n" for i in range(1, width))
        net, m0 = parse_net(text)
        net2, m2 = parse_net("pl a 1\n")
        equation = TaggedEquation("A", "a", terms=tuple(net.places))
        result = ReductionResult(net2, m2, (equation,), (width - 1) / width)
        report = validate_equivalence(net, m0, result)
        assert report.valid
        assert (report.n1_markings, report.n2_markings) == (width, 1)

    def test_truncated_space_refused(self):
        net, m0 = parse_net(A1_TEXT)
        res = reduce(net, m0)
        with pytest.raises(IncompleteStateSpaceError):
            validate_equivalence(net, m0, res, max_states=1)

    def test_whole_corpus_validates(self, corpus):
        for inst in corpus:
            report = validate_equivalence(inst.net, inst.m0, inst.result)
            assert report.valid, (inst.name, report)


class TestSafenessPreservation:
    def test_reduced_spaces_stay_one_bounded(self, corpus):
        for inst in corpus:
            assert is_safe(inst.space1), inst.name
            assert is_safe(inst.space2), inst.name


class TestEndToEndShapes:
    def test_ring_collapses_to_two_places(self):
        from tfgkit.generators import ring

        net, m0 = ring(6).build()
        res = reduce(net, m0)
        assert len(res.reduced_net.places) == 2
        assert validate_equivalence(net, m0, res).valid

    def test_fork_join_collapses_branches(self):
        from tfgkit.generators import fork_join

        net, m0 = fork_join(3).build()
        res = reduce(net, m0)
        assert len(res.reduced_net.places) == 2
        tags = [e.tag for e in res.equations]
        assert "R" in tags and "A" in tags

    def test_diamond_block_reduces_three_of_five(self):
        from tfgkit.generators import diamond_chain

        net, m0 = diamond_chain(1)
        res = reduce(net, m0)
        assert res.ratio == pytest.approx(0.6)
        assert validate_equivalence(net, m0, res).valid

    def test_choice_loop_is_irreducible(self):
        from tfgkit.generators import choice_loop

        net, m0 = choice_loop(3).build()
        res = reduce(net, m0)
        assert res.equations == ()
        assert res.ratio == 0.0


class TestScale:
    """Nets of 10^4 places: sizes only, since a rescan of every place after
    each hit would take minutes here."""

    def test_chain_line_collapses_to_two_places(self):
        res = reduce(*generators.chain_line(10_000).build())
        assert len(res.reduced_net.places) == 2
        assert len(res.equations) == 9_999

    def test_diamond_chain_keeps_two_places_per_block(self):
        net, m0 = generators.diamond_chain(2_000)
        assert len(net.places) == 10_000
        res = reduce(net, m0)
        assert len(res.reduced_net.places) == 4_000
        assert len(res.equations) == 6_000


class TestPinnedOutput:
    def test_golden(self):
        """Equation order, fresh names and the reduced net, place and
        transition order included, match the committed output exactly.

        Regenerate with ``PYTHONPATH=src python tests/test_reductions.py``,
        which writes this file and the scaled one.
        """
        assert golden_text() == GOLDEN.read_text()

    def test_golden_scaled(self):
        """The same pin on nets of a few hundred places."""
        assert scaled_golden_text() == GOLDEN_SCALED.read_text()

    @settings(max_examples=50)
    @given(st.one_of(st.integers(0, 10_000).map(generators.composite), bounded_nets()))
    def test_composite_nets_validate_and_reduce_deterministically(self, instance):
        net, m0 = instance
        res = reduce(net, m0)
        assert validate_equivalence(net, m0, res, max_token=BOUNDED_MAX_TOKEN).valid
        assert reduce(net, m0) == res
        # the rules ran to a fixpoint, so the reduced net is irreducible
        assert reduce(res.reduced_net, res.reduced_marking).equations == ()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    GOLDEN.write_text(golden_text())
    GOLDEN_SCALED.write_text(scaled_golden_text())
