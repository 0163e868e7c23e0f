"""Reduction rules, ratios, and the E-equivalence validator."""

import logging
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOUNDED_MAX_TOKEN, CORPUS_DIR, bounded_nets, marking_key
from tfgkit import generators, reductions
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
GOLDEN_RANDOM = GOLDEN_DIR / "reduce_random.txt"


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


def random_net(seed: int) -> tuple[PetriNet, Marking]:
    """Seeded net of 6-12 places and arc weights 1-3, with shared inputs and
    self-loops, plus up to two twins, which copy a place's columns, and up
    to two relays: one or two feeders into a run of empty places."""
    rng = random.Random(seed)
    places = [f"p{i}" for i in range(rng.randint(6, 12))]
    tokens = {p: rng.choice((0, 0, 0, 1)) for p in places}

    def weight() -> int:
        return rng.choice((1, 1, 1, 1, 2, 3))

    pre: dict[str, dict[str, int]] = {}
    post: dict[str, dict[str, int]] = {}
    for j in range(rng.randint(len(places) // 2, len(places))):
        t = f"t{j}"
        pre[t] = {p: weight() for p in rng.sample(places, rng.choice((0, 1, 1, 2)))}
        post[t] = {p: weight() for p in rng.sample(places, rng.choice((0, 1, 1, 2)))}
        if rng.random() < 0.2:
            p = rng.choice(places)
            pre[t][p] = post[t][p] = weight()
    for _ in range(rng.randint(0, 2)):
        p, twin = rng.choice(places), f"p{len(places)}"
        places.append(twin)
        tokens[twin] = tokens[p]
        for arcs in (*pre.values(), *post.values()):
            if p in arcs:
                arcs[twin] = arcs[p]
    for _ in range(rng.randint(0, 2)):
        prev = None
        for _ in range(rng.randint(1, 3)):
            cur = f"p{len(places)}"
            places.append(cur)
            tokens[cur] = 0
            for source in [prev] if prev else rng.sample(places[:-1], rng.randint(1, 2)):
                t = f"t{len(pre)}"
                pre[t], post[t] = {source: 1}, {cur: rng.choice((1, 1, 1, 2))}
            prev = cur
        t = f"t{len(pre)}"
        pre[t], post[t] = {prev: 1}, {rng.choice(places): 1}
    return PetriNet(tuple(places), tuple(pre), pre, post), Marking(tokens)


def random_golden_text() -> str:
    """Two hundred seeded random nets and four small ``fan_in_chain``
    nets, where each rule meets weights, self-loops and shared columns."""
    nets = [(f"random_net({seed})", random_net(seed)) for seed in range(200)]
    nets += [(f"fan_in_chain({k})", generators.fan_in_chain(k).build()) for k in (1, 2, 3, 8)]
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

    def test_renamed_arcs_keep_the_order_of_renaming_at_each_merge(self):
        """Arcs are renamed when the reduced net is assembled, in the dict
        order that renaming them at each merge leaves: an arc moves to the
        end when renamed, so ``x`` comes first, then ``a1``, then ``a2``."""
        net, m0 = parse_net("pl s 1\npl u0 0\npl u1 0\npl v0 0\npl v1 0\npl x 0\n"
                            "tr f s -> u1*2 x*3 u0\ntr a u0 -> v0\ntr b u1 -> v1\n"
                            "tr j v1*2 x v0 -> s\n")
        res = reduce(net, m0)
        assert [(e.lhs, e.terms) for e in res.equations] == [("a1", ("u0", "v0")),
                                                             ("a2", ("u1", "v1"))]
        assert list(res.reduced_net.post["f"].items()) == [("x", 3), ("a1", 1), ("a2", 2)]
        assert list(res.reduced_net.pre["j"].items()) == [("x", 1), ("a1", 1), ("a2", 2)]

    def test_debug_log_names_each_hit(self, caplog):
        net, m0 = parse_net("pl c 1\npl p 1\npl q 0\npl r 0\npl s 0\n"
                            "tr t p -> q r\ntr u q r -> s\n")
        with caplog.at_level(logging.DEBUG, logger="tfgkit.reductions"):
            reduce(net, m0)
        assert [r.getMessage() for r in caplog.records] == [
            "constant place c = 1", "duplicate place r = q", "chain agglomeration a1 = q + s via u"]

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


class CountingArcs(dict):
    """A transition's arcs that count every write made to them."""

    writes = 0

    def __setitem__(self, place, weight):
        CountingArcs.writes += 1
        super().__setitem__(place, weight)

    def __delitem__(self, place):
        CountingArcs.writes += 1
        super().__delitem__(place)

    def pop(self, place, *default):
        CountingArcs.writes += 1
        return super().pop(place, *default)


class TestFanInChain:
    """A hub with k producers heads a chain of k empty places: every merge
    hands the hub's k producers on to the next variable."""

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_chain_folds_onto_the_hub(self, k):
        net, m0 = generators.fan_in_chain(k).build()
        res = reduce(net, m0)
        assert len(net.places) == 2 * k + 1
        assert len(res.reduced_net.places) == k + 1
        assert [e.tag for e in res.equations] == ["A"] * k
        report = validate_equivalence(net, m0, res)
        assert report.valid and report.n1_markings == k + 2

    def test_work_per_merge_stays_flat_as_k_doubles(self, monkeypatch):
        """Arc writes and heap pushes per merge, counted over the whole
        reduction, do not grow with the width of the hub's column; renaming
        the hub's arcs at every merge would write 2k per merge."""
        init = reductions._Work.__init__

        def counting_init(self, net, m0):
            init(self, net, m0)
            self.pre = {t: CountingArcs(arcs) for t, arcs in self.pre.items()}
            self.post = {t: CountingArcs(arcs) for t, arcs in self.post.items()}

        pushes = 0
        heappush = reductions.heapq.heappush

        def counting_push(heap, item):
            nonlocal pushes
            pushes += 1
            heappush(heap, item)

        monkeypatch.setattr(reductions._Work, "__init__", counting_init)
        monkeypatch.setattr(reductions.heapq, "heappush", counting_push)
        per_merge = []
        for k in (250, 500, 1000):
            CountingArcs.writes = pushes = 0
            res = reduce(*generators.fan_in_chain(k).build())
            assert len(res.equations) == k
            per_merge.append((CountingArcs.writes / k, pushes / k))
        assert all(writes < 3 and pushes < 2 for writes, pushes in per_merge), per_merge


class TestPinnedOutput:
    def test_golden(self):
        """Equation order, fresh names and the reduced net, place and
        transition order included, match the committed output exactly.

        Regenerate with ``PYTHONPATH=src python tests/test_reductions.py``,
        which writes this file, the scaled one and the random one.
        """
        assert golden_text() == GOLDEN.read_text()

    def test_golden_scaled(self):
        """The same pin on nets of a few hundred places."""
        assert scaled_golden_text() == GOLDEN_SCALED.read_text()

    def test_golden_random(self):
        """The same pin on seeded random nets and small fan-in chains."""
        assert random_golden_text() == GOLDEN_RANDOM.read_text()

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
    GOLDEN_RANDOM.write_text(random_golden_text())
