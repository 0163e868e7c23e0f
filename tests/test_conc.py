"""Accelerated concurrency matrices, complete and partial modes."""

import random

import pytest

from conftest import marking_key
from test_reach import closed_form_chain
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
from tfgkit.net_io import parse_equations, parse_net
from tfgkit.petri import Marking, explore, oracle_concurrency
from tfgkit.reductions import build_graph, reduce
from tfgkit.relation import UNKNOWN, ConcurrencyMatrix
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


def propagate_from(graph, mat, source):
    """Write into ``mat`` the 1s that a live ``source`` forces."""
    propagate(graph, (source,), lambda v, w: 1, lambda a, b: mat.set(a, b, 1))


class TestPropagate:
    def test_leaf_touches_only_its_diagonal(self, cascade):
        mat = ConcurrencyMatrix(cascade.nodes, fill=0)
        propagate_from(cascade, mat, "p5")
        assert mat.get("p5", "p5") == 1
        ones = [(v, w) for v, w, value in mat.cells() if value == 1]
        assert ones == [("p5", "p5")]

    def test_a2_cone_and_redundancy_split(self, cascade):
        mat = ConcurrencyMatrix(cascade.nodes, fill=0)
        propagate_from(cascade, mat, "a2")
        for w in cascade.successors("a2"):
            assert mat.get("a2", w) == 1
        # a2 ->* a1 split: the non-a1 part of the cone against a1's cone
        assert mat.get("p3", "p1") == 1
        assert mat.get("p4", "p1") == 1
        assert mat.get("p5", "p2") == 1
        # children of one agglomeration stay exclusive
        assert mat.get("p1", "p2") == 0
        assert mat.get("p3", "p4") == 0

    def test_idempotent(self, cascade):
        mat = ConcurrencyMatrix(cascade.nodes, fill=0)
        propagate_from(cascade, mat, "a2")
        snapshot = mat.restrict(mat.order)
        propagate_from(cascade, mat, "a2")
        assert mat == snapshot


class TestDepth:
    def test_matrix_on_1500_step_chain(self):
        """Past the default recursion limit; every place of the chain is
        concurrent with exactly the places it can share a state with."""
        net, m0, result = closed_form_chain(1500)
        graph = build_graph(net, result)
        rel2 = oracle_concurrency(
            explore(result.reduced_net, result.reduced_marking), result.reduced_net.places
        )
        mat = matrix(graph, rel2).restrict(net.places)
        expected = oracle_concurrency(explore(net, m0), net.places)
        assert mat == expected


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
