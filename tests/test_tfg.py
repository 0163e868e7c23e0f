"""Token flow graph construction, well-formedness, and configuration semantics."""

import itertools
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings
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

    def test_defined_member_under_undefined_head(self, cascade):
        assert not is_well_defined(cascade, {"p1": 1})


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

    @pytest.mark.parametrize("roots, message", [
        ({"p1": 0}, "'p1' is not a root of the graph"),
        ({"p0": -1}, "negative value for root 'p0'"),
        ({"k0": 2}, "constant k0 pinned to a different value"),
    ])
    def test_root_valuation_checked(self, roots, message):
        eqs = [*parse_equations(CASCADE_TEXT), TaggedEquation("R", "q", constant=1)]
        graph = build(eqs, (*CASCADE_P1, "q"), CASCADE_P2)
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_extensions(graph, roots)

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


def reference_views(graph):
    """``children`` and ``a_children`` by a sort of their targets' node
    positions, ``r_parents`` by a sort of the sources', the in-degree by a
    count, ``roots``, and Kahn's order from a first-in-first-out queue of
    the roots in node order."""
    position = {v: i for i, v in enumerate(graph.nodes)}.__getitem__
    arcs = graph.r_arcs | graph.a_arcs

    def targets(pairs, v):
        return tuple(sorted((w for u, w in pairs if u == v), key=position))

    children = {v: targets(arcs, v) for v in graph.nodes}
    a_children = {v: targets(graph.a_arcs, v) for v in graph.nodes}
    r_parents = {v: tuple(sorted((u for u, w in graph.r_arcs if w == v), key=position))
                 for v in graph.nodes}
    in_degree = Counter(w for _, w in arcs)
    roots = tuple(v for v in graph.nodes if not in_degree[v])
    left, ready, order = in_degree.copy(), deque(roots), []
    while ready:
        v = ready.popleft()
        order.append(v)
        for w in children[v]:
            left[w] -= 1
            if not left[w]:
                ready.append(w)
    return children, a_children, r_parents, in_degree, roots, tuple(order)


def reference_violations(equations, graph):
    """``(check id, witness)`` of every violation, T2..T6, read off
    :func:`reference_views` one node and one arc at a time."""
    children, _, _, in_degree, roots, order = reference_views(graph)
    position = {v: i for i, v in enumerate(graph.nodes)}.__getitem__
    constants = set(graph.constants)
    found = [("T2", (c,)) for c in sorted(constants) if in_degree[c]]
    found += [("T3", arc) for arc in sorted(graph.r_arcs & graph.a_arcs)]
    a_targets = {w for _, w in graph.a_arcs}
    for v in graph.nodes:
        if v in a_targets and in_degree[v] > 1:
            parents = {u for u, w in graph.r_arcs | graph.a_arcs if w == v}
            found.append(("T3", (v, *sorted(parents, key=position))))
    heads = Counter((eq.tag, eq.lhs) for eq in equations)
    repeated = [lhs for (_, lhs), count in heads.items() if count > 1]
    if repeated:
        found.append(("T4", (min(repeated),)))
    if len(order) != len(graph.nodes):
        return found + [("T5", tuple(sorted(set(graph.nodes) - set(order))))]
    root_places = set(roots) - constants
    if root_places != graph.p2:
        found.append(("T6", tuple(sorted(root_places ^ graph.p2))))
    leaf_places = set(graph.nodes) - {u for u, _ in graph.a_arcs} - constants
    if leaf_places != graph.p1:
        found.append(("T6", tuple(sorted(leaf_places ^ graph.p1))))
    return found


def assert_views_match_the_reference(graph):
    """The position views and the name-keyed views of ``graph`` against
    :func:`reference_views`."""
    children, a_children, r_parents, in_degree, roots, order = reference_views(graph)
    position = graph.index.__getitem__
    assert graph.child_positions == tuple(tuple(map(position, children[v])) for v in graph.nodes)
    assert graph.in_degree == tuple(in_degree[v] for v in graph.nodes)
    assert graph.redundant == tuple(bool(r_parents[v]) for v in graph.nodes)
    assert graph.root_positions == tuple(map(position, roots))
    assert graph.topo_positions == tuple(map(position, order))
    assert (graph.children, graph.a_children, graph.r_parents, graph.roots,
            graph.topo_order) == (children, a_children, r_parents, roots, order)


class TestViews:
    """The adjacency views, dealt from the arcs in one pass over node
    positions, and the checks that read them, against a node-by-node
    reference."""

    @settings(max_examples=300)
    @given(equation_systems())
    # a cycle through two redundancy equations
    @example(([TaggedEquation("R", "p0", terms=("p1",)), TaggedEquation("R", "p1", terms=("p0",))],
              ("p0", "p1"), ("p0",)))
    # p2 sums three redundancy parents and heads an agglomeration
    @example(([TaggedEquation("R", "p2", terms=("p3", "p0", "p1")),
               TaggedEquation("A", "p2", terms=("a1", "a2"))], ("a1", "a2"), ("p3", "p0", "p1")))
    def test_views_and_verdicts_match_the_reference(self, drawn):
        equations, p1, p2 = drawn
        graph, found = check(equations, p1, p2)
        assert_views_match_the_reference(graph)
        assert [(v.check_id, v.witness) for v in found] == reference_violations(equations, graph)

    def test_corpus_views_match_the_reference(self, corpus):
        for inst in corpus:
            assert_views_match_the_reference(inst.graph)
