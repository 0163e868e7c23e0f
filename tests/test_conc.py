"""Accelerated concurrency matrices, complete and partial modes."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, load_instance, marking_key
from test_reach import closed_form_chain
from tfgkit import generators
from tfgkit.conc import (
    IncompleteInputError,
    InconsistentInputError,
    filling_ratio,
    from_document,
    matrix,
    partial_matrix,
    propagate,
    to_document,
)
from tfgkit.net_io import parse_equations, parse_matrix, parse_net, write_matrix
from tfgkit.petri import Marking, explore, oracle_concurrency
from tfgkit.reductions import build_graph, reduce
from tfgkit.relation import UNKNOWN, ConcurrencyMatrix, transpose
from tfgkit.tfg import build

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
        rel2 = ConcurrencyMatrix.from_rows(("p", "q"), [0b11, 0b10], [0, 0b01])
        with pytest.raises(InconsistentInputError, match=r"^cell \(q, p\) is both 0 and 1$"):
            lift(graph, rel2)

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


class TestFillingRatio:
    def test_complete_three_place(self):
        mat = ConcurrencyMatrix(("a", "b", "c"), fill=0)
        assert filling_ratio(mat) == pytest.approx(1.0)

    def test_all_unknown(self):
        mat = ConcurrencyMatrix(("a", "b", "c"))
        assert filling_ratio(mat) == pytest.approx(0.0)

    def test_half_known(self):
        mat = ConcurrencyMatrix(("a", "b", "c"))
        mat.set("a", "a", 1)
        mat.set("b", "a", 0)
        mat.set("c", "b", 1)
        assert filling_ratio(mat) == pytest.approx(0.5)


class TestRelation:
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
        rng = random.Random(5)
        for n in (0, 1, 9, 70):
            rows = [rng.getrandbits(n) if n else 0 for _ in range(n)]
            flipped = transpose(rows)
            assert all(flipped[j] >> i & 1 == rows[i] >> j & 1 for i in range(n) for j in range(n))
            assert transpose(flipped) == rows


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
