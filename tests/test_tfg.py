"""Token flow graph construction, well-formedness, and configuration semantics."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import marking_key
from tfgkit.net_io import TaggedEquation, parse_equations
from tfgkit.petri import Marking
from tfgkit.tfg import (
    NotWellFormedError,
    build,
    check,
    enumerate_extensions,
    is_well_defined,
    restrict,
)

CASCADE_TEXT = """\
# R |- p5 = p4
# A |- a1 = p2 + p1
# A |- a2 = p4 + p3
# R |- a1 = a2
"""
CASCADE_P1 = tuple(f"p{i}" for i in range(7))
CASCADE_P2 = ("p0", "a2", "p6")


@pytest.fixture(scope="module")
def cascade():
    return build(parse_equations(CASCADE_TEXT), CASCADE_P1, CASCADE_P2)


def brute_force_extensions(graph, roots):
    """Oracle: try every assignment over non-root nodes up to the total root
    token count, keep the total well-defined ones agreeing with `roots`."""
    total = sum(roots.get(v, graph.constants.get(v, 0)) for v in graph.roots)
    ceiling = max(total, max(graph.constants.values(), default=0), 1)
    free = [v for v in graph.nodes if v not in graph.roots]
    found = []
    for values in itertools.product(range(ceiling + 1), repeat=len(free)):
        c = dict(zip(free, values))
        for v in graph.roots:
            c[v] = roots.get(v, graph.constants.get(v, 0))
        if is_well_defined(graph, c):
            found.append(c)
    return found


class TestBuild:
    def test_cascade_arcs(self, cascade):
        assert set(cascade.r_arcs) == {("p4", "p5"), ("a2", "a1")}
        assert set(cascade.a_arcs) == {
            ("a1", "p1"), ("a1", "p2"), ("a2", "p3"), ("a2", "p4")
        }

    def test_cascade_roots_and_leaves(self, cascade):
        assert set(cascade.roots) == {"p0", "a2", "p6"}
        leaves = {v for v in cascade.nodes if not cascade.a_children[v]}
        assert leaves - set(cascade.constants) == set(CASCADE_P1)

    def test_cascade_passes_all_checks(self):
        graph, violations = check(parse_equations(CASCADE_TEXT), CASCADE_P1, CASCADE_P2)
        assert violations == []

    def test_double_removal_is_t3(self):
        eqs = [
            TaggedEquation("R", "q", terms=("p",)),
            TaggedEquation("A", "a1", terms=("q", "r")),
        ]
        with pytest.raises(NotWellFormedError) as exc:
            build(eqs, ("p", "q", "r"), ("p", "a1"))
        assert exc.value.check_id == "T3"

    def test_cycle_is_t5(self):
        eqs = [
            TaggedEquation("R", "a", terms=("b",)),
            TaggedEquation("R", "b", terms=("a",)),
        ]
        with pytest.raises(NotWellFormedError) as exc:
            build(eqs, ("a", "b"), ("a", "b"))
        assert exc.value.check_id == "T5"

    def test_constant_nodes_are_roots(self):
        eqs = [TaggedEquation("R", "c", constant=1)]
        graph = build(eqs, ("c", "x"), ("x",))
        (k,) = [v for v in graph.nodes if v in graph.constants]
        assert graph.constants[k] == 1
        assert k in graph.roots

    @pytest.mark.parametrize("eq, p1, p2, witness, side", [
        # q is a root but not a reduced place
        (TaggedEquation("R", "r", terms=("q",)), ("p", "q", "r"), ("p",), ("q",), "roots"),
        # the agglomeration head a is an original place but not a leaf
        (TaggedEquation("A", "a", terms=("p", "q")), ("a", "p", "q"), ("a",), ("a",), "leaves"),
    ], ids=["roots", "leaves"])
    def test_wrong_p2_is_t6(self, eq, p1, p2, witness, side):
        with pytest.raises(NotWellFormedError) as exc:
            build([eq], p1, p2)
        assert exc.value.check_id == "T6"
        assert exc.value.witness == witness
        assert exc.value.detail.startswith(f"{side} differ")

    def test_equation_order_does_not_matter(self):
        eqs = parse_equations(CASCADE_TEXT)
        reference = build(eqs, CASCADE_P1, CASCADE_P2)
        for perm in itertools.permutations(eqs):
            graph = build(list(perm), CASCADE_P1, CASCADE_P2)
            assert set(graph.r_arcs) == set(reference.r_arcs)
            assert set(graph.a_arcs) == set(reference.a_arcs)
            assert graph.constants == reference.constants

    def test_fresh_constant_names_skip_clashes(self):
        eqs = [TaggedEquation("R", "k0", constant=3)]
        graph = build(eqs, ("k0", "x"), ("x",))
        constant_nodes = set(graph.constants)
        assert "k0" not in constant_nodes
        assert len(constant_nodes) == 1


class TestSuccessors:
    def test_a2_cone(self, cascade):
        assert set(cascade.successors("a2")) == {
            "a2", "a1", "p1", "p2", "p3", "p4", "p5"
        }

    def test_isolated_node(self, cascade):
        assert set(cascade.successors("p0")) == {"p0"}

    def test_leaf(self, cascade):
        assert set(cascade.successors("p5")) == {"p5"}

    def test_unknown_node(self, cascade):
        with pytest.raises(KeyError):
            cascade.successors("nope")


class TestWellDefined:
    def test_mixed_token_witness(self, cascade):
        c = {"p0": 0, "p6": 1, "p1": 1, "p2": 0, "p3": 0, "p4": 1, "p5": 1,
             "a1": 1, "a2": 1}
        assert is_well_defined(cascade, c)

    def test_all_undefined_is_well_defined(self, cascade):
        assert is_well_defined(cascade, {})

    def test_sum_mismatch(self, cascade):
        c = {"p0": 0, "p6": 1, "p1": 1, "p2": 0, "p3": 0, "p4": 1, "p5": 1,
             "a1": 2, "a2": 1}
        assert not is_well_defined(cascade, c)

    def test_partial_definedness_violates_cbot(self, cascade):
        assert not is_well_defined(cascade, {"a1": 1})

    def test_constant_must_hold_stored_value(self):
        eqs = [TaggedEquation("R", "c", constant=2)]
        graph = build(eqs, ("c", "x"), ("x",))
        (k,) = graph.constants
        assert is_well_defined(graph, {k: 2, "c": 2, "x": 0})
        assert not is_well_defined(graph, {k: 1, "c": 1, "x": 0})


class TestEnumerateExtensions:
    def test_cascade_four_configurations(self, cascade):
        roots = {"p0": 0, "p6": 1, "a2": 1}
        got = enumerate_extensions(cascade, roots)
        expected = brute_force_extensions(cascade, roots)
        assert sorted(got, key=sorted_items) == sorted(expected, key=sorted_items)
        assert len(got) == 4

    def test_zero_roots_single_zero_configuration(self, cascade):
        (only,) = enumerate_extensions(cascade, {"p0": 0, "p6": 0, "a2": 0})
        assert all(value == 0 for value in only.values())

    def test_constant_over_split(self):
        eqs = [
            TaggedEquation("R", "a", constant=1),
            TaggedEquation("A", "a", terms=("x", "y")),
        ]
        graph = build(eqs, ("x", "y"), ())
        got = enumerate_extensions(graph, {})
        restrictions = sorted(
            tuple(sorted(restrict(c, ("x", "y")).items())) for c in got
        )
        assert restrictions == [(("x", 1),), (("y", 1),)]

    def test_no_duplicates(self, cascade):
        got = enumerate_extensions(cascade, {"p0": 1, "p6": 1, "a2": 1})
        as_items = [tuple(sorted(c.items())) for c in got]
        assert len(as_items) == len(set(as_items))

    def test_all_results_are_well_defined_and_total(self, cascade):
        for roots in ({"p0": 0, "p6": 1, "a2": 1}, {"p0": 1, "p6": 0, "a2": 2}):
            for c in enumerate_extensions(cascade, roots):
                assert set(c) == set(cascade.nodes)
                assert is_well_defined(cascade, c)
                for v, value in roots.items():
                    assert c[v] == value

    def test_brute_force_agreement_on_corpus(self, corpus):
        for inst in corpus:
            if len(inst.graph.nodes) > 12:
                continue
            for m2 in sorted(inst.space2.markings, key=marking_key):
                roots = {p: m2[p] for p in inst.result.reduced_net.places}
                got = enumerate_extensions(inst.graph, roots)
                expected = brute_force_extensions(inst.graph, roots)
                assert sorted(got, key=sorted_items) == sorted(
                    expected, key=sorted_items
                ), inst.name

    def test_wide_agglomeration(self):
        """One split over 1,500 children, in lexicographic order: the last
        child takes the token first."""
        places = tuple(f"p{i}" for i in range(1500))
        graph = build([TaggedEquation("A", "a", terms=places)], places, ("a",))
        got = enumerate_extensions(graph, {"a": 1})
        marked = [next(p for p in places if c[p]) for c in got]
        assert marked == list(reversed(places))


def sorted_items(c):
    return tuple(sorted(c.items()))


class TestEquationCorrespondence:
    def equations_hold(self, equations, c, constants):
        for eq in equations:
            lhs = c[eq.lhs]
            if eq.constant is not None:
                if lhs != eq.constant:
                    return False
            elif lhs != sum(c[t] for t in eq.terms):
                return False
        return True

    def test_every_extension_solves_the_equations(self, corpus):
        for inst in corpus:
            equations = inst.result.equations
            for m2 in sorted(inst.space2.markings, key=marking_key):
                roots = {p: m2[p] for p in inst.result.reduced_net.places}
                for c in enumerate_extensions(inst.graph, roots):
                    assert self.equations_hold(equations, c, inst.graph.constants)


class TestSafeConfigurations:
    def test_bound_one_keeps_values_binary(self, corpus):
        for inst in corpus:
            for m2 in sorted(inst.space2.markings, key=marking_key):
                roots = {p: m2[p] for p in inst.result.reduced_net.places}
                for c in enumerate_extensions(inst.graph, roots):
                    assert all(value in (0, 1) for value in c.values()), inst.name


class TestRestrict:
    def test_restriction_drops_other_nodes(self, cascade):
        c = {"p0": 0, "p6": 1, "p1": 1, "p2": 0, "p3": 0, "p4": 1, "p5": 1,
             "a1": 1, "a2": 1}
        m = restrict(c, CASCADE_P1)
        assert m == Marking({"p6": 1, "p1": 1, "p4": 1, "p5": 1})


@st.composite
def chain_equations(draw):
    """Random well-formed single-parent equation systems over a small node pool."""
    n = draw(st.integers(2, 5))
    places = [f"p{i}" for i in range(n)]
    equations = []
    removed = []
    if draw(st.booleans()):
        equations.append(TaggedEquation("R", places[-1], terms=(places[-2],)))
        removed.append(places[-1])
    if n >= 3 and draw(st.booleans()):
        equations.append(
            TaggedEquation("A", "a1", terms=(places[0], places[1]))
        )
        removed.extend([places[0], places[1]])
    p2 = tuple(p for p in places if p not in removed)
    if any(eq.tag == "A" for eq in equations):
        p2 = p2 + ("a1",)
    return equations, tuple(places), p2


NAME_POOL = ("p0", "p1", "p2", "p3", "a1", "a2", "k0", "k1")


@st.composite
def equation_systems(draw):
    """Random equation systems over a small name pool, well-formed or not.
    The pool holds names that fresh constants would take, to make them
    step aside."""
    equations = []
    for _ in range(draw(st.integers(0, 5))):
        tag = draw(st.sampled_from("RA"))
        lhs = draw(st.sampled_from(NAME_POOL))
        if draw(st.booleans()):
            equations.append(TaggedEquation(tag, lhs, constant=draw(st.integers(0, 2))))
        else:
            others = [name for name in NAME_POOL if name != lhs]
            terms = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))
            equations.append(TaggedEquation(tag, lhs, terms=tuple(terms)))
    p1 = draw(st.lists(st.sampled_from(NAME_POOL), unique=True))
    p2 = draw(st.lists(st.sampled_from(NAME_POOL), unique=True))
    return equations, tuple(p1), tuple(p2)


class TestBuildProperties:
    @given(equation_systems())
    def test_nodes_are_places_variables_and_constants(self, drawn):
        """T1 holds by construction: the nodes are the places, the
        equations' variables and one fresh constant per constant equation."""
        equations, p1, p2 = drawn
        graph, found = check(equations, p1, p2)
        variables = {eq.lhs for eq in equations} | {t for eq in equations for t in eq.terms}
        named = set(p1) | set(p2) | variables
        constants = set(graph.constants)
        assert len(set(graph.nodes)) == len(graph.nodes)
        assert set(graph.nodes) == named | constants
        assert not constants & named
        assert len(constants) == sum(eq.constant is not None for eq in equations)
        assert "T1" not in {v.check_id for v in found}


    @given(chain_equations())
    def test_build_or_reject_is_stable_under_order(self, drawn):
        equations, p1, p2 = drawn
        outcomes = []
        for perm in itertools.permutations(equations):
            try:
                graph = build(list(perm), p1, p2)
                outcomes.append((set(graph.r_arcs), set(graph.a_arcs)))
            except NotWellFormedError as exc:
                outcomes.append(exc.check_id)
        assert len(set(map(repr, outcomes))) == 1
