"""Accelerated concurrency matrices, complete and partial modes."""

import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, bounded_nets, load_instance, marking_key, reference_matrix_text
from test_reach import closed_form_chain
from test_tfg import equation_systems
from tfgkit import conc, generators
from tfgkit.conc import (
    IncompleteInputError,
    InconsistentInputError,
    _seed,
    _zero_fixpoint,
    filling_ratio,
    from_document,
    matrix,
    partial_matrix,
    propagate,
    to_document,
)
from tfgkit.net_io import TaggedEquation, parse_equations, parse_matrix, parse_net, write_matrix
from tfgkit.petri import Marking, explore, oracle_concurrency
from tfgkit.reach import Analysis
from tfgkit.reductions import build_graph, reduce
from tfgkit.relation import _BAND, UNKNOWN, ConcurrencyMatrix, transpose
from tfgkit.tfg import TokenFlowGraph, build, check

CASCADE_TEXT = """\
# R |- p5 = p4
# A |- a1 = p2 + p1
# A |- a2 = p4 + p3
# R |- a1 = a2
"""
CASCADE_P1 = tuple(f"p{i}" for i in range(7))
CASCADE_P2 = ("p0", "a2", "p6")

D1_TEXT = "pl p 1\npl q 0\npl r 0\ntr t p -> q r\n"
GOLDEN_WRITES = Path(__file__).resolve().parent / "golden" / "writes.txt"
# (fraction blanked, seed) of the masked relations pinned in GOLDEN_WRITES
WRITES_MASKS = ((0.2, 1), (0.5, 2), (0.8, 3))


@pytest.fixture(scope="module")
def cascade():
    return build(parse_equations(CASCADE_TEXT), CASCADE_P1, CASCADE_P2)


def cascade_rel2():
    rel2 = ConcurrencyMatrix(("p0", "a2", "p6"))
    for v, w, val in [
        ("p0", "p0", 1), ("a2", "a2", 1), ("p6", "p6", 1),
        ("p0", "a2", 0), ("p0", "p6", 0), ("a2", "p6", 1),
    ]:
        rel2.set(v, w, val)
    return rel2


def degrade(rel2, fraction, seed):
    """Blank out a seeded fraction of the known cells."""
    rng = random.Random(seed)
    out = rel2.restrict(rel2.order)
    cells = [(v, w) for v, w, value in rel2.cells() if value is not UNKNOWN]
    for v, w in rng.sample(cells, int(len(cells) * fraction)):
        out.set(v, w, UNKNOWN)
    return out


class TestCompleteMatrix:
    def test_cascade_concurrent_quadruple(self, cascade):
        mat = matrix(cascade, cascade_rel2())
        for v, w in [
            ("p1", "p4"), ("p1", "p5"), ("p1", "p6"),
            ("p4", "p5"), ("p4", "p6"), ("p5", "p6"),
        ]:
            assert mat.get(v, w) == 1, (v, w)

    def test_cascade_exclusions(self, cascade):
        mat = matrix(cascade, cascade_rel2())
        assert mat.get("p1", "p2") == 0
        assert mat.get("p3", "p4") == 0
        assert mat.get("p0", "p6") == 0

    def test_d1_redundancy_loop(self):
        net, m0 = parse_net(D1_TEXT)
        res = reduce(net, m0)
        graph = build_graph(net, res)
        space2 = explore(res.reduced_net, res.reduced_marking)
        rel2 = oracle_concurrency(space2, res.reduced_net.places)
        mat = matrix(graph, rel2)
        assert mat.get("q", "r") == 1
        assert mat.get("p", "r") == 0
        assert mat.get("r", "r") == 1

    def test_all_roots_dead_gives_zero_matrix(self, cascade):
        rel2 = ConcurrencyMatrix(("p0", "a2", "p6"))
        for v in rel2.order:
            for w in rel2.order:
                rel2.set(v, w, 0)
        mat = matrix(cascade, rel2)
        assert all(value == 0 for _, _, value in mat.cells())

    def test_one_beside_a_dead_root_rejected(self):
        net, m0 = parse_net(D1_TEXT)
        graph = build_graph(net, reduce(net, m0))
        rel2 = ConcurrencyMatrix(("p", "q"))  # p and q concurrent, q never marked
        for v, w, val in [("p", "p", 1), ("q", "p", 1), ("q", "q", 0)]:
            rel2.set(v, w, val)
        with pytest.raises(InconsistentInputError, match=r"cell \(q, p\) is 1 but q is dead"):
            matrix(graph, rel2)

    @pytest.mark.parametrize("lift", [matrix, partial_matrix])
    def test_one_propagated_onto_a_zero_rejected(self, lift):
        net, m0 = parse_net("pl p 1\npl q 1\ntr t p -> p\ntr u q -> q\n")
        graph = build_graph(net, reduce(net, m0))
        # asymmetric rows: (p, q) is 1 in p's row, (q, p) is 0 in q's row
        with pytest.raises(InconsistentInputError, match=r"^cell \(q, p\) is both 0 and 1$"):
            lift(graph, ConcurrencyMatrix.from_rows(("p", "q"), [0b11, 0b10], [0, 0b01]))

    @pytest.mark.parametrize("lift", [matrix, partial_matrix])
    @pytest.mark.parametrize("text", ["pl p 1\npl q 1\ntr t p -> p\ntr u q -> q\n",
                                      "pl p 1\npl q 1\npl r 1\ntr t p -> p\ntr u q r -> q r\n"],
                             ids=["lone_roots", "root_with_child"])
    @pytest.mark.parametrize("ones, zeros, message", [
        ([0b11, 0b10], [0, 0b01], r"cell \(q, p\) is both 0 and 1"),
        ([0b01, 0b11], [0b10, 0], r"cell \(p, q\) is both 0 and 1"),
        ([0b11, 0b10], [0, 0], r"cell \(p, q\) is 1 but \(q, p\) is unknown"),
        ([0b01, 0b11], [0, 0], r"cell \(q, p\) is 1 but \(p, q\) is unknown"),
        ([0b01, 0b10], [0b10, 0], r"cell \(p, q\) is 0 but \(q, p\) is unknown"),
    ])
    def test_asymmetric_rel2_rejected(self, lift, text, ones, zeros, message):
        # in the second net q's duplicate r hangs below it, so q's cone is
        # not q alone
        net, m0 = parse_net(text)
        graph = build_graph(net, reduce(net, m0))
        with pytest.raises(InconsistentInputError, match=f"^{message}$"):
            lift(graph, ConcurrencyMatrix.from_rows(("p", "q"), ones, zeros))

    def test_incomplete_rel2_rejected(self, cascade):
        rel2 = ConcurrencyMatrix(("p0", "a2", "p6"))
        rel2.set("p0", "p0", 1)
        with pytest.raises(IncompleteInputError):
            matrix(cascade, rel2)

    def test_wrong_order_rejected(self, cascade):
        with pytest.raises(ValueError):
            matrix(cascade, ConcurrencyMatrix(("p0", "p6")))

    def test_exactness_on_sample(self, corpus):
        for inst in corpus[:15]:
            rel2 = oracle_concurrency(inst.space2, inst.result.reduced_net.places)
            accelerated = matrix(inst.graph, rel2).restrict(inst.net.places)
            expected = oracle_concurrency(inst.space1, inst.net.places)
            assert accelerated == expected, inst.name

    def test_symmetric_and_nondead_consistent(self, corpus):
        for inst in corpus[:10]:
            rel2 = oracle_concurrency(inst.space2, inst.result.reduced_net.places)
            mat = matrix(inst.graph, rel2)
            for v, w, value in mat.cells():
                assert mat.get(v, w) == mat.get(w, v)
                if value == 1:
                    assert mat.get(v, v) == 1 and mat.get(w, w) == 1


def seed_ones(graph, *roots, pairs=()):
    """1-rows over ``graph.nodes`` with live ``roots`` and concurrent root
    ``pairs``."""
    ones = [0] * len(graph.nodes)
    for v, w in [(v, v) for v in roots] + list(pairs):
        i, j = graph.index[v], graph.index[w]
        ones[i] |= 1 << j
        ones[j] |= 1 << i
    return ones


def propagate_from(graph, *roots, pairs=()):
    """The 1s that live ``roots`` and concurrent root ``pairs`` force."""
    ones, _ = propagate(graph, seed_ones(graph, *roots, pairs=pairs), [0] * len(graph.nodes))
    return ConcurrencyMatrix.from_rows(graph.nodes, ones, [0] * len(graph.nodes))


class TestPropagate:
    def test_leaf_touches_only_its_diagonal(self, cascade):
        # p6 is an isolated root: its cone is itself
        mat = propagate_from(cascade, "p6")
        ones = [(v, w) for v, w, value in mat.cells() if value == 1]
        assert ones == [("p6", "p6")]

    def test_a2_cone_and_redundancy_split(self, cascade):
        mat = propagate_from(cascade, "a2")
        for w in cascade.successors("a2"):
            assert mat.get("a2", w) == 1
        # a2 ->* a1 split: the non-a1 part of the cone against a1's cone
        assert mat.get("p3", "p1") == 1
        assert mat.get("p4", "p1") == 1
        assert mat.get("p5", "p2") == 1
        # children of one agglomeration get no 1
        assert mat.get("p1", "p2") is UNKNOWN
        assert mat.get("p3", "p4") is UNKNOWN
        # no root pair is concurrent, so nothing meets the other roots
        assert mat.get("p6", "p6") is UNKNOWN
        assert mat.get("p0", "p3") is UNKNOWN

    def test_concurrent_roots_make_their_cones_concurrent(self, cascade):
        mat = propagate_from(cascade, "a2", "p6", pairs=[("a2", "p6")])
        for w in cascade.successors("a2"):
            assert mat.get("p6", w) == 1
        assert mat.get("p0", "p6") is UNKNOWN

    def test_idempotent(self, cascade):
        zeros = [0] * len(cascade.nodes)
        once, writes = propagate(cascade, seed_ones(cascade, "a2", "p6", pairs=[("a2", "p6")]), zeros)
        assert propagate(cascade, once, zeros) == (once, writes)


def chain_relation(places):
    """Closed-form relation of ``chain_line``: one token goes round, so every
    place is marked and no two are marked together."""
    out = ConcurrencyMatrix(places, fill=0)
    for p in places:
        out.set(p, p, 1)
    return out


class TestDepth:
    """Past the default recursion limit, against the closed form of the chain."""

    @pytest.mark.parametrize("length", [40, 5000])
    def test_closed_form_matches_oracle(self, length):
        net, m0, _ = closed_form_chain(length)
        assert chain_relation(net.places) == oracle_concurrency(explore(net, m0), net.places)

    def test_matrix_on_5000_step_chain(self):
        net, m0, result = closed_form_chain(5000)
        graph = build_graph(net, result)
        rel2 = oracle_concurrency(
            explore(result.reduced_net, result.reduced_marking), result.reduced_net.places
        )
        assert matrix(graph, rel2).restrict(net.places) == chain_relation(net.places)

    def test_partial_matrix_on_5000_step_chain(self):
        """With the two roots' pair cell masked, the zero fixpoint settles
        every pair of places below the top of the chain, and only the head's
        pairs stay unknown."""
        net, m0, result = closed_form_chain(5000)
        graph = build_graph(net, result)
        rel2 = oracle_concurrency(
            explore(result.reduced_net, result.reduced_marking), result.reduced_net.places
        )
        rel2.set(*rel2.order, UNKNOWN)
        out = partial_matrix(graph, rel2).restrict(net.places)
        expected = chain_relation(net.places)
        head = net.places[0]
        for p in net.places[1:]:
            expected.set(head, p, UNKNOWN)
        assert out == expected


def diamond_relation(places):
    """Closed-form relation of ``diamond_chain``: the blocks run independently,
    and a block's token sits on its home, on q1 and r1, or on q2 and r2."""
    def block_stage(p):
        block, name = p.split("_")
        return block, name[-1] if name != "home" else "0"

    keys = [block_stage(p) for p in places]
    blocks, stages = {}, {}
    for i, (block, stage) in enumerate(keys):
        blocks[block] = blocks.get(block, 0) | 1 << i
        stages[block, stage] = stages.get((block, stage), 0) | 1 << i
    full = (1 << len(places)) - 1
    rows = [full & ~blocks[block] | stages[block, stage] for block, stage in keys]
    return ConcurrencyMatrix.from_rows(places, rows)


class TestOneOnlyRelation:
    """The 1s of the reduced relation and no 0, as a truncated exploration
    of the reduced net yields them."""

    def test_closed_form_matches_oracle(self):
        net, m0 = generators.diamond_chain(2)
        assert diamond_relation(net.places) == oracle_concurrency(explore(net, m0), net.places)

    def test_partial_matrix_on_400_roots(self):
        net, m0 = generators.diamond_chain(200)
        result = reduce(net, m0)
        graph = build_graph(net, result)
        # each root's cone lies in one block; roots of one block exclude each other
        places = result.reduced_net.places
        block = {r: min(w.split("_")[0] for w in graph.successors(r) if w in net.places)
                 for r in places}
        ones = [sum(1 << j for j, w in enumerate(places) if w == v or block[w] != block[v])
                for v in places]
        rel2 = ConcurrencyMatrix.from_rows(places, ones, [0] * len(places))
        assert len(places) == 400
        out = partial_matrix(graph, rel2).restrict(net.places)
        expected = diamond_relation(net.places)
        for known, got, want in zip(out.known, out.ones, expected.ones):
            assert (got ^ want) & known == 0
        assert out.ones == expected.ones


composite_nets = st.integers(0, 10_000).map(generators.composite)


class TestPartialOnComposites:
    @settings(max_examples=60)
    @given(composite_nets, st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    def test_masked_relation_never_contradicts_oracle(self, net_m0, fraction, rng):
        net, m0 = net_m0
        result = reduce(net, m0)
        graph = build_graph(net, result)
        rel2 = oracle_concurrency(
            explore(result.reduced_net, result.reduced_marking), result.reduced_net.places
        )
        masked = rel2.restrict(rel2.order)
        for v, w, _ in rel2.cells():
            if rng.random() < fraction:
                masked.set(v, w, UNKNOWN)
        out = partial_matrix(graph, masked).restrict(net.places)
        expected = oracle_concurrency(explore(net, m0), net.places)
        for v, w, value in out.cells():
            if value is not UNKNOWN:
                assert value == expected.get(v, w), (v, w)

    @settings(max_examples=60)
    @given(composite_nets)
    def test_unmasked_relation_gives_the_complete_matrix(self, net_m0):
        net, m0 = net_m0
        result = reduce(net, m0)
        graph = build_graph(net, result)
        rel2 = oracle_concurrency(
            explore(result.reduced_net, result.reduced_marking), result.reduced_net.places
        )
        assert partial_matrix(graph, rel2) == matrix(graph, rel2)


class TestPartialMatrix:
    def test_all_unknown_stays_unknown_except_constants(self):
        net, m0 = parse_net("pl c 1\npl d 0\npl a 1\npl b 0\ntr t a -> b\n")
        res = reduce(net, m0)
        graph = build_graph(net, res)
        rel2 = ConcurrencyMatrix(res.reduced_net.places)
        out = partial_matrix(graph, rel2)
        restricted = out.restrict(net.places)
        # d reduces to the constant 0, its row is dead
        assert restricted.get("d", "d") == 0
        assert restricted.get("d", "a") == 0
        # c reduces to the constant 1, concurrent with the other constant
        assert restricted.get("c", "c") == 1
        assert restricted.get("c", "d") == 0
        # cells about live places a, b stay unknown without root facts
        assert restricted.get("a", "b") is UNKNOWN

    def test_complete_rel2_reproduces_complete_matrix(self, corpus):
        for inst in corpus[:15]:
            rel2 = oracle_concurrency(inst.space2, inst.result.reduced_net.places)
            full = matrix(inst.graph, rel2)
            part = partial_matrix(inst.graph, rel2)
            assert part == full, inst.name

    def test_d1_dead_root_propagates(self):
        net, m0 = parse_net(D1_TEXT)
        res = reduce(net, m0)
        graph = build_graph(net, res)
        rel2 = ConcurrencyMatrix(res.reduced_net.places)
        rel2.set("q", "q", 0)
        out = partial_matrix(graph, rel2)
        assert out.get("r", "r") == 0
        for v in ("p", "q", "r"):
            assert out.get("q", v) == 0
            assert out.get("r", v) == 0

    def test_no_oracle_contradictions_on_degraded_input(self, corpus):
        for index, inst in enumerate(corpus[:12]):
            rel2 = oracle_concurrency(inst.space2, inst.result.reduced_net.places)
            degraded = degrade(rel2, 0.5, seed=index)
            out = partial_matrix(inst.graph, degraded).restrict(inst.net.places)
            expected = oracle_concurrency(inst.space1, inst.net.places)
            for v, w, value in out.cells():
                if value is not UNKNOWN:
                    assert value == expected.get(v, w), (inst.name, v, w)

    def test_monotone_in_rel2(self, corpus):
        for index, inst in enumerate(corpus[:10]):
            rel2 = oracle_concurrency(inst.space2, inst.result.reduced_net.places)
            weaker = degrade(rel2, 0.6, seed=index)
            stronger = degrade(rel2, 0.3, seed=index)
            # same seed: the blanked cell set of `stronger` is a subset
            blanked_weaker = {
                (v, w) for v, w, value in weaker.cells() if value is UNKNOWN
            }
            blanked_stronger = {
                (v, w) for v, w, value in stronger.cells() if value is UNKNOWN
            }
            if not blanked_stronger <= blanked_weaker:
                continue
            out_weak = partial_matrix(inst.graph, weaker)
            out_strong = partial_matrix(inst.graph, stronger)
            for v, w, value in out_weak.cells():
                if value is not UNKNOWN:
                    assert out_strong.get(v, w) == value, inst.name

    def test_inconsistent_input_detected(self):
        net, m0 = parse_net(D1_TEXT)
        res = reduce(net, m0)
        graph = build_graph(net, res)
        rel2 = ConcurrencyMatrix(res.reduced_net.places)
        # q dead yet concurrent with p: impossible
        rel2.set("q", "q", 0)
        rel2.set("p", "q", 1)
        with pytest.raises(InconsistentInputError):
            partial_matrix(graph, rel2)


def naive_zero_fixpoint(graph, ones, zeros):
    """The 0-rows of the least fixpoint of the six rules of
    ``partial_matrix``, applied one cell at a time, over cells that
    ``ones`` leaves open, from the cells of ``zeros`` taken both ways."""
    n = len(graph.nodes)
    groups = [(graph.index[h], [graph.index[w] for w in ms]) for h, ms in graph.groups]
    settled = {(i, j) for i in range(n) for j in range(n) if zeros[i] >> j & 1}
    settled |= {(j, i) for i, j in settled}

    def forced():
        for i in range(n):
            if (i, i) in settled:  # a dead node is nonconcurrent with everything
                yield from ((i, x) for x in range(n))
        for h, ms in groups:
            if all((m, m) in settled for m in ms):  # a head dies with all its members
                yield h, h
            if (h, h) in settled:  # and its members die with it
                yield from ((m, m) for m in ms)
            yield from ((m, k) for m in ms for k in ms if m != k)  # one token pool
            for x in range(n):
                if all((m, x) in settled for m in ms):  # what every member is not with
                    yield h, x
                if (h, x) in settled:  # what the head is not with
                    yield from ((m, x) for m in ms)

    grew = True
    while grew:
        grew = False
        for i, j in forced():
            if (i, j) not in settled and not ones[i] >> j & 1:
                settled |= {(i, j), (j, i)}
                grew = True
    rows = [0] * n
    for i, j in settled:
        rows[i] |= 1 << j
    return rows


def random_cells(rng, n, fraction):
    """Symmetric 1-rows and disjoint 0-rows over ``n`` nodes, each cell 1
    or 0 with probability ``fraction`` / 2."""
    ones, zeros = [0] * n, [0] * n
    for i in range(n):
        for j in range(i + 1):
            draw = rng.random()
            rows = ones if draw < fraction / 2 else zeros if draw < fraction else None
            if rows is not None:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return ones, zeros


def leaves_and_roots(equations, p1=(), p2=()):
    """The graph of ``equations`` checked against their own leaves and roots
    as the place sets, and the checks it fails."""
    graph, _ = check(equations, p1, p2)
    leaves = set(graph.nodes) - {v for v, _ in graph.a_arcs} - set(graph.constants)
    return check(equations, sorted(leaves), sorted(set(graph.roots) - set(graph.constants)))


@st.composite
def checked_graphs(draw):
    """Graphs of ``equation_systems`` that pass ``check``: the drawn place
    sets are replaced by the roots and leaves of the drawn equations."""
    graph, found = leaves_and_roots(*draw(equation_systems()))
    assume(not found)
    return graph


class TestZeroFixpoint:
    """The worklist fixpoint against rules applied one cell at a time: the
    least fixpoint does not depend on the order the rules are applied in."""

    @settings(max_examples=150)
    @given(checked_graphs(), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    # p2 sums three redundancy parents and heads an agglomeration
    @example(build([TaggedEquation("R", "p2", terms=("p3", "p0", "p1")),
                    TaggedEquation("A", "p2", terms=("a1", "a2"))],
                   ("a1", "a2", "p0", "p1", "p3"), ("p3", "p0", "p1")),
             0.3, random.Random(1))
    # two constants beside an agglomeration and a redundancy with two parents
    @example(build([TaggedEquation("A", "a1", terms=("p0", "p1")), TaggedEquation("R", "k0", constant=1),
                    TaggedEquation("R", "a2", terms=("p2", "p3")), TaggedEquation("R", "k1", constant=0)],
                   ("a2", "k0", "k1", "p0", "p1", "p2", "p3"), ("a1", "p2", "p3")),
             0.6, random.Random(2))
    def test_random_graphs(self, graph, fraction, rng):
        ones, zeros = random_cells(rng, len(graph.nodes), fraction)
        assert _zero_fixpoint(graph, ones, zeros) == naive_zero_fixpoint(graph, ones, zeros)

    def test_corpus_under_random_masks(self, corpus):
        for index, inst in enumerate(corpus):
            rel2 = oracle_concurrency(inst.space2, inst.result.reduced_net.places)
            for fraction in (0.25, 0.6, 1.0):
                masked = degrade(rel2, fraction, seed=index)
                ones, zeros = _seed(inst.graph, masked)
                ones, _ = propagate(inst.graph, ones, zeros)
                got = _zero_fixpoint(inst.graph, ones, zeros)
                assert got == naive_zero_fixpoint(inst.graph, ones, zeros), (inst.name, fraction)


def random_root_relation(graph, rng, fraction):
    """A symmetric relation over the places among ``graph.roots``.  A fifth
    of them are dead: 0 on the diagonal, 0 or unknown beside it.  Every
    other cell is settled with probability ``fraction``: 1 or 0 evenly off
    the diagonal, 1 on it."""
    places = [v for v in graph.roots if v not in graph.constants]
    dead = {v for v in places if rng.random() < 0.2}
    rel2 = ConcurrencyMatrix(places)
    for i, v in enumerate(places):
        for w in places[: i + 1]:
            draw = rng.random()
            if v == w and v in dead:
                rel2.set(v, v, 0)
            elif draw < fraction:
                rel2.set(v, w, 0 if v in dead or w in dead else int(draw < fraction / 2 or v == w))
    return rel2


def is_forest(graph) -> bool:
    """Whether every node but the roots has exactly one arc into it."""
    return all(n < 2 for n in graph.in_degree) and not graph.r_arcs & graph.a_arcs


class TestPartialRoutes:
    """``partial_matrix`` against ``_seed``, ``propagate`` and the rules
    applied one cell at a time: on forests its 0s are the complement of the
    upper relation's lift, elsewhere the zero fixpoint's."""

    def test_random_graphs_and_relations(self):
        kinds = set()

        @settings(max_examples=400)
        @given(checked_graphs(), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
        # one token pool of two redundancy parents settles (p0, a2) to 0
        @example(leaves_and_roots(parse_equations("# R |- p2 = a2 + p0\n"))[0], 0.0, random.Random(0))
        # a positive constant beside a place marked on its diagonal
        @example(leaves_and_roots(parse_equations("# R |- p3 = 1\n# A |- a1 = p0 + p1\n# R |- p2 = a1\n"))[0],
                 1.0, random.Random(3))
        def check_one(graph, fraction, rng):
            kinds.add(graph.is_forest)
            assert graph.is_forest == is_forest(graph)
            rel2 = random_root_relation(graph, rng, fraction)
            ones, zeros = _seed(graph, rel2)
            ones, _ = propagate(graph, ones, zeros)
            expected = ConcurrencyMatrix.from_rows(graph.nodes, ones, naive_zero_fixpoint(graph, ones, zeros))
            got = partial_matrix(graph, rel2)
            assert got == expected
            assert got.writes == expected.known_count()

        check_one()
        assert kinds == {True, False}

    @pytest.fixture
    def fixpoint_calls(self, monkeypatch):
        """The calls of ``conc._zero_fixpoint``, one item each."""
        calls = []
        fixpoint = conc._zero_fixpoint
        monkeypatch.setattr(conc, "_zero_fixpoint", lambda *args: calls.append(1) or fixpoint(*args))
        return calls

    @pytest.mark.parametrize("family", ["corpus", "chain", "ladder"])
    def test_reducer_graphs_skip_the_zero_fixpoint(self, fixpoint_calls, corpus, family):
        if family == "corpus":
            cases = [(inst.graph, oracle_concurrency(inst.space2, inst.result.reduced_net.places))
                     for inst in corpus]
        else:
            build_net = generators.chain_line if family == "chain" else generators.duplicate_ladder
            nets = [build_net(k).build() for k in (5, 40)]
            analyses = [Analysis(net, m0, reduce(net, m0)) for net, m0 in nets]
            cases = [(analysis.graph, analysis.rel2) for analysis in analyses]
        for index, (graph, rel2) in enumerate(cases):
            assert is_forest(graph)
            for fraction in (0.3, 1.0):
                partial_matrix(graph, degrade(rel2, fraction, seed=index))
        assert not fixpoint_calls

    def test_unknown_pairs_meet_column_wise(self, monkeypatch):
        """On ``diamond_chain(12)`` with every root cell unknown, the upper
        relation makes all 24 roots concurrent: 18 pairs per branching root,
        216 in all, against 168 row operations column-wise (see
        ``TestRootPairs``), so its cones meet through ``_by_columns``, while
        the 1s make no pair.  Half masked or whole, the 0s equal the zero
        fixpoint's."""
        net, m0 = generators.diamond_chain(12)
        analysis = Analysis(net, m0, reduce(net, m0))
        graph = analysis.graph
        routes = []
        by_columns = conc._by_columns
        monkeypatch.setattr(conc, "_by_columns", lambda *args: routes.append(1) or by_columns(*args))
        for fraction in (0.5, 1.0):
            rel2 = degrade(analysis.rel2, fraction, seed=1)
            routes.clear()
            got = partial_matrix(graph, rel2)
            ones, zeros = _seed(graph, rel2)
            ones, _ = propagate(graph, ones, zeros)
            assert got == ConcurrencyMatrix.from_rows(graph.nodes, ones, _zero_fixpoint(graph, ones, zeros))
        assert routes == [1]

    def test_two_redundancy_parents_take_the_zero_fixpoint(self, fixpoint_calls):
        graph, _ = leaves_and_roots(parse_equations("# R |- p2 = a2 + p0\n"))
        out = partial_matrix(graph, ConcurrencyMatrix(("a2", "p0")))
        assert fixpoint_calls == [1]
        assert out.get("a2", "p0") == 0


class Unforested(TokenFlowGraph):
    """A graph that the lifts read as having a node of two parents, so
    ``propagate`` takes its topological pass and ``partial_matrix`` the
    zero fixpoint."""

    is_forest = False


def assert_walk_matches_the_pass(graph, rel2):
    """On the forest ``graph``, from the seed of ``rel2``, ``propagate``'s
    walk gives the rows and writes of its topological pass, and
    ``partial_matrix`` the matrix and writes of the zero fixpoint."""
    assert graph.is_forest
    general = Unforested(*(getattr(graph, field.name) for field in dataclasses.fields(graph)))
    ones, zeros = _seed(graph, rel2)
    assert propagate(graph, ones, zeros) == propagate(general, ones, zeros)
    walked, fixed = partial_matrix(graph, rel2), partial_matrix(general, rel2)
    assert (walked, walked.writes) == (fixed, fixed.writes)


# c copies the one token of a and b, so its R equation has two terms
TWO_TERM_NET = "pl a 1\npl b 0\npl x 0\npl c 1\ntr t a -> b\ntr u b c -> x\ntr v x -> a c\n"
TWO_TERM_REDUCED = "pl a 1\npl b 0\npl x 0\ntr t a -> b\ntr u b -> x\ntr v x -> a\n"


class TestForestWalk:
    """On forests, the tree walk of the lifts against the general routes,
    which the graphs of the reducer never take."""

    def test_corpus(self, corpus):
        for index, inst in enumerate(corpus):
            rel2 = oracle_concurrency(inst.space2, inst.result.reduced_net.places)
            for fraction in (0.0, 0.5, 1.0):
                assert_walk_matches_the_pass(inst.graph, degrade(rel2, fraction, seed=index))

    def test_composites(self):
        rng = random.Random(6)
        for seed in range(300):
            analysis = Analysis(*generators.composite(seed, 6))
            assert_walk_matches_the_pass(analysis.graph, analysis.rel2)
            assert_walk_matches_the_pass(analysis.graph, degrade(analysis.rel2, rng.random(), seed))

    @settings(max_examples=100)
    @given(bounded_nets(), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    def test_bounded_nets(self, net_m0, fraction, rng):
        net, m0 = net_m0
        graph = build_graph(net, reduce(net, m0))
        assert_walk_matches_the_pass(graph, random_root_relation(graph, rng, fraction))

    @settings(max_examples=150)
    @given(checked_graphs(), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    def test_forest_draws(self, graph, fraction, rng):
        assume(graph.is_forest)
        assert_walk_matches_the_pass(graph, random_root_relation(graph, rng, fraction))

    def test_two_term_redundancy_takes_the_pass(self, monkeypatch):
        net, m0 = parse_net(TWO_TERM_NET)
        reduced, _ = parse_net(TWO_TERM_REDUCED)
        graph = build(parse_equations("# R |- c = a + b\n"), net.places, reduced.places)
        assert not graph.is_forest
        rel2 = oracle_concurrency(explore(reduced, Marking({"a": 1})), reduced.places)
        assert counted_transposes(monkeypatch, matrix, graph, rel2) == 1
        expected = oracle_concurrency(explore(net, m0), net.places)
        assert matrix(graph, rel2).restrict(net.places) == expected
        assert expected.get("a", "c") == expected.get("b", "c") == 1


class TestRootPairs:
    """The two routes of ``propagate`` through the pairs of concurrent
    roots give each root the same mask and count the same writes."""

    @settings(max_examples=150)
    @given(checked_graphs(), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    def test_pairs_and_columns_agree(self, graph, fraction, rng):
        succ = graph.successor_masks
        roots = [graph.index[v] for v in graph.roots]
        size = {i: succ[i].bit_count() for i in roots if succ[i] != 1 << i}
        ones = [0] * len(graph.nodes)
        for k, i in enumerate(roots):
            for j in roots[: k + 1]:
                if rng.random() < fraction:
                    ones[i] |= 1 << j
                    ones[j] |= 1 << i
        lone = [i for i in roots if i not in size]
        by_pairs, by_columns = [0] * len(graph.nodes), [0] * len(graph.nodes)
        writes = conc._by_pairs(succ, ones, lone, sum(1 << i for i in size), size, by_pairs)
        assert writes == conc._by_columns(succ, ones, roots, sum(1 << i for i in roots), size,
                                          by_columns)
        assert by_pairs == by_columns

    @pytest.mark.parametrize("k, columns", [(3, False), (10, False), (11, True), (40, True)])
    def test_diamond_chain_takes_the_columns_from_eleven_blocks(self, k, columns, monkeypatch):
        """k blocks give 2k roots, k of them branching with a cone of 5
        nodes, and each root is live and concurrent with every root of the
        other blocks: k(k - 1) pairs of a lone and a branching root and
        k(k - 1) / 2 of two branching ones, counted as k(k - 1 + k // 2),
        against 5k + 6k + 2k + k row operations column-wise.  Either way,
        the lift equals the oracle's relation."""
        net, m0 = generators.diamond_chain(k)
        result = reduce(net, m0)
        graph = build_graph(net, result)
        rel2 = Analysis(net, m0, result).rel2
        routes = []
        by_columns = conc._by_columns
        monkeypatch.setattr(conc, "_by_columns",
                            lambda *args: routes.append(1) or by_columns(*args))
        lifted = matrix(graph, rel2)
        assert routes == ([1] if columns else [])
        if k <= 10:
            assert lifted.restrict(net.places) == oracle_concurrency(explore(net, m0), net.places)


def counted_transposes(monkeypatch, lift, graph, rel2) -> int:
    """Calls of ``transpose`` on rows over ``graph.nodes`` made by
    ``lift(graph, rel2)``, which leaves out the symmetry check's over the
    smaller ``rel2``."""
    assert len(rel2.order) < len(graph.nodes)
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return transpose(rows)

    monkeypatch.setattr(conc, "transpose", counting)
    lift(graph, rel2)
    return calls.count(len(graph.nodes))


class TestRounds:
    """The lifts make no transpose over the graph's nodes on graphs 50 to
    800 stages long, ``partial_matrix`` with one root cell hidden: these are
    forests, so ``propagate`` walks the ladder's splits down its trees."""

    @pytest.mark.parametrize("lift", [matrix, partial_matrix])
    @pytest.mark.parametrize("family", ["chain", "ladder"])
    def test_transposes_per_lift(self, monkeypatch, lift, family):
        counts = []
        for k in (50, 200, 800):
            if family == "chain":
                net, m0, result = closed_form_chain(k)
            else:
                net, m0 = generators.duplicate_ladder(k).build()
                result = reduce(net, m0)
            graph = build_graph(net, result)
            rel2 = oracle_concurrency(
                explore(result.reduced_net, result.reduced_marking), result.reduced_net.places
            )
            if lift is partial_matrix:
                rel2.set(rel2.order[0], rel2.order[-1], UNKNOWN)
            counts.append(counted_transposes(monkeypatch, lift, graph, rel2))
        assert counts == [0] * 3


class TestFillingRatio:
    def test_complete_three_place(self):
        mat = ConcurrencyMatrix(("a", "b", "c"), fill=0)
        assert filling_ratio(mat) == pytest.approx(1.0)

    def test_all_unknown(self):
        mat = ConcurrencyMatrix(("a", "b", "c"))
        assert filling_ratio(mat) == pytest.approx(0.0)

    def test_empty_matrix_is_full(self):
        assert filling_ratio(ConcurrencyMatrix(())) == 1.0

    def test_half_known(self):
        mat = ConcurrencyMatrix(("a", "b", "c"))
        mat.set("a", "a", 1)
        mat.set("b", "a", 0)
        mat.set("c", "b", 1)
        assert filling_ratio(mat) == pytest.approx(0.5)


class TestRelation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="^duplicate names in matrix order$"):
            ConcurrencyMatrix(("a", "b", "a"))

    def test_restrict_to_any_subset_keeps_every_cell(self):
        rng = random.Random(7)
        names = [f"p{i}" for i in range(40)]
        mat = ConcurrencyMatrix(names)
        for i, v in enumerate(names):
            for w in names[: i + 1]:
                mat.set(v, w, rng.choice((0, 1, UNKNOWN)))
        for order in (names[:25], names[::-3], rng.sample(names, 30)):
            sub = mat.restrict(order)
            assert sub.order == tuple(order)
            for v, w, value in sub.cells():
                assert value == mat.get(v, w) == sub.get(w, v)
            assert sub.writes == 0

    @pytest.mark.parametrize("fill", [UNKNOWN, 0, 1])
    def test_set_matches_a_dict_reference(self, fill):
        rng = random.Random(3)
        names = ("a", "b", "c", "d", "e")
        mat = ConcurrencyMatrix(names, fill=fill)
        reference = {frozenset((v, w)): fill for v in names for w in names}
        # a 1 overwritten by 0, a 0 cleared, then random writes over few cells
        writes = [("b", "a", 1), ("a", "b", 0), ("c", "c", 0), ("c", "c", UNKNOWN),
                  ("d", "e", 1), ("e", "d", UNKNOWN)]
        writes += [(rng.choice(names), rng.choice(names), rng.choice((0, 1, UNKNOWN)))
                   for _ in range(200)]
        for v, w, value in writes:
            mat.set(v, w, value)
            reference[frozenset((v, w))] = value
            assert [mat.get(x, y) for x in names for y in names] == [
                reference[frozenset((x, y))] for x in names for y in names]
            assert all(one & ~known == 0 for one, known in zip(mat.ones, mat.known))
        assert mat.writes == len(writes)

    def test_counts(self):
        mat = ConcurrencyMatrix(("a", "b", "c"))
        mat.set("a", "a", 1)
        mat.set("b", "a", 1)
        mat.set("c", "a", 0)
        mat.set("c", "a", UNKNOWN)
        assert (mat.known_count(), mat.ones_count(), mat.writes) == (2, 2, 4)
        assert not mat.is_complete()

    def test_from_rows_rebuilds_any_matrix(self):
        rng = random.Random(11)
        names = [f"p{i}" for i in range(30)]
        mat = ConcurrencyMatrix(names)
        for i, v in enumerate(names):
            for w in names[: i + 1]:
                mat.set(v, w, rng.choice((0, 1, UNKNOWN)))
        zeros = [known & ~ones for known, ones in zip(mat.known, mat.ones)]
        assert ConcurrencyMatrix.from_rows(names, mat.ones, zeros) == mat
        complete = ConcurrencyMatrix.from_rows(names, mat.ones)
        assert complete.is_complete()
        for v, w, value in mat.cells():
            assert complete.get(v, w) == complete.get(w, v) == (1 if value == 1 else 0)

    def test_transpose(self):
        """Against a bit-by-bit reference, at widths that are not whole
        bytes and around the tile edge; bits at or above the width, which
        the rows carry here, are ignored."""
        rng = random.Random(5)
        for n in (0, 1, 5, 9, 70, 100, _BAND - 1, _BAND, _BAND + 1, 2 * _BAND + 3):
            sparse = n > 100  # a quarter of the bits, to keep the reference quick
            rows = [rng.getrandbits(n + 9) & (rng.getrandbits(n + 9) if sparse else -1)
                    & (rng.getrandbits(n + 9) if sparse else -1) for _ in range(n)]
            expected = [0] * n
            for i, row in enumerate(rows):
                for j in range(n):
                    if row >> j & 1:
                        expected[j] |= 1 << i
            flipped = transpose(rows)
            assert flipped == expected, n
            assert transpose(flipped) == [row & (1 << n) - 1 for row in rows], n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(60, 1100), st.sampled_from(["dense", "blocks", "few"]),
           st.randoms(use_true_random=False))
    @example(65, "dense", random.Random(0))
    @example(_BAND + 1, "blocks", random.Random(0))
    def test_transpose_from_60_to_1100_rows(self, n, kind, rng):
        """Against the transpose read off each row's set bits, across the
        one-field rows, the one-tile rows of two fields or more, and two
        bands of tiles.  ``blocks`` sets bits only in 64-wide diagonal
        blocks, so a matrix of two bands has two empty tiles, and ``few``
        leaves most rows empty; rows carry bits above ``n``."""
        if kind == "dense":
            rows = [rng.getrandbits(n + 9) for _ in range(n)]
        elif kind == "blocks":
            rows = [rng.getrandbits(64) << i // 64 * 64 for i in range(n)]
        else:
            rows = [rng.getrandbits(n + 9) if rng.random() < 0.05 else 0 for _ in range(n)]
        expected = [0] * n
        for i, row in enumerate(rows):
            row &= (1 << n) - 1
            while row:
                low = row & -row
                row ^= low
                expected[low.bit_length() - 1] |= 1 << i
        assert transpose(rows) == expected


@st.composite
def run_matrices(draw) -> ConcurrencyMatrix:
    """Partial matrices of 0-60 places whose lower triangle, read row by
    row, is drawn as runs of equal cells: short runs of 1-6 cells, so runs
    of exactly 3, 4 and 5 cells occur, and long ones of up to two rows,
    which end on a diagonal or cover a whole row."""
    n = draw(st.integers(0, 60))
    ones, zeros = [0] * n, [0] * n
    cells = [(i, j) for i in range(n) for j in range(i + 1)]
    at = 0
    while at < len(cells):
        value = draw(st.sampled_from((0, 1, UNKNOWN)))
        length = draw(st.integers(1, 6) | st.integers(1, 2 * n + 1))
        for i, j in cells[at : at + length]:
            if value is not UNKNOWN:
                rows = ones if value else zeros
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        at += length
    return ConcurrencyMatrix.from_rows([f"p{i}" for i in range(n)], ones, zeros)


class TestDocumentConversion:
    def test_round_trip(self, cascade):
        mat = matrix(cascade, cascade_rel2())
        assert from_document(to_document(mat)) == mat

    def test_unknown_cells_survive(self):
        mat = ConcurrencyMatrix(("a", "b"))
        mat.set("a", "a", 1)
        again = from_document(to_document(mat))
        assert again.get("b", "b") is UNKNOWN
        assert again.get("a", "a") == 1

    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.sampled_from((0, 1, UNKNOWN)),
                    min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2,
                ),
            )
        )
    )
    def test_text_round_trip_any_matrix(self, size_and_cells):
        n, cells = size_and_cells
        ones, zeros = [0] * n, [0] * n
        flat = iter(cells)
        for i in range(n):
            for j in range(i + 1):
                value = next(flat)
                if value is not UNKNOWN:
                    rows = ones if value else zeros
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        mat = ConcurrencyMatrix.from_rows([f"p{i}" for i in range(n)], ones, zeros)
        assert from_document(parse_matrix(write_matrix(to_document(mat)))) == mat

    @given(run_matrices())
    @example(ConcurrencyMatrix(("a", "b", "c", "d", "e"), fill=0))
    @example(ConcurrencyMatrix(("a", "b", "c", "d", "e")))
    def test_writer_matches_reference(self, mat):
        """The writer's bytes are those of a cell-by-cell spelling whose
        runs of four or more equal symbols a regex compresses."""
        assert write_matrix(to_document(mat)) == reference_matrix_text(mat)

    def test_empty_matrix_text(self):
        assert write_matrix(to_document(ConcurrencyMatrix(()))) == "# order: \n"


def writes_text(instances) -> str:
    """Per corpus net: ``writes`` of ``matrix``, of ``partial_matrix`` on
    each of WRITES_MASKS, and of ``oracle_concurrency`` on the full net."""
    lines = []
    for inst in instances:
        rel2 = oracle_concurrency(inst.space2, inst.result.reduced_net.places)
        fields = [inst.name, f"matrix={matrix(inst.graph, rel2).writes}"]
        for fraction, seed in WRITES_MASKS:
            part = partial_matrix(inst.graph, degrade(rel2, fraction, seed))
            fields.append(f"partial{seed}={part.writes}")
        fields.append(f"oracle={oracle_concurrency(inst.space1, inst.net.places).writes}")
        lines.append(" ".join(fields) + "\n")
    return "".join(lines)


class TestPinnedWrites:
    def test_golden(self, corpus):
        """Cell writes of every matrix builder match the committed counts.

        Regenerate with ``PYTHONPATH=src python tests/test_conc.py``.
        """
        assert writes_text(corpus) == GOLDEN_WRITES.read_text()


if __name__ == "__main__":
    GOLDEN_WRITES.write_text(
        writes_text([load_instance(path) for path in sorted(CORPUS_DIR.glob("*.net"))])
    )
