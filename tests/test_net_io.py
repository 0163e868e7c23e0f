"""Text format round-trips and parse errors."""

import re
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfgkit.net_io import (
    MatrixDocument,
    ParseError,
    TaggedEquation,
    parse_equations,
    parse_marking_query,
    parse_matrix,
    parse_net,
    parse_pnml,
    write_equations,
    write_matrix,
    write_net,
)
from tfgkit.petri import Marking

CASCADE_EQUATIONS = """\
# R |- p5 = p4
# A |- a1 = p2 + p1
# A |- a2 = p4 + p3
# R |- a1 = a2
"""


class TestParseNet:
    def test_t1(self):
        net, m0 = parse_net("pl a 1\npl b 0\ntr t a -> b")
        assert net.places == ("a", "b")
        assert net.transitions == ("t",)
        assert net.pre["t"] == {"a": 1}
        assert net.post["t"] == {"b": 1}
        assert m0 == Marking({"a": 1})

    def test_d1(self):
        net, m0 = parse_net("pl p 1\npl q 0\npl r 0\ntr t p -> q r")
        assert net.post["t"] == {"q": 1, "r": 1}

    def test_undeclared_place(self):
        with pytest.raises(ParseError, match=r"^line 1: undeclared place 'x'$"):
            parse_net("tr t x -> y")

    def test_weighted_arcs(self):
        net, _ = parse_net("pl a 0\npl b 0\ntr t a*2 -> b*3")
        assert net.pre["t"] == {"a": 2}
        assert net.post["t"] == {"b": 3}

    def test_comments_and_blanks(self):
        net, _ = parse_net("# heading\n\npl a 1\n  # indented\ntr t a ->\n")
        assert net.places == ("a",)
        assert net.post["t"] == {}

    def test_duplicate_place(self):
        with pytest.raises(ParseError, match=r"^line 2: name 'a' already declared$"):
            parse_net("pl a 1\npl a 0")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_net("pl a 1\npl b oops")
        assert exc.value.line == 2

    def test_numeric_place_name_rejected(self):
        with pytest.raises(ParseError):
            parse_net("pl 17 1")

    def test_duplicate_arc_entry_rejected(self):
        with pytest.raises(ParseError):
            parse_net("pl a 1\ntr t a a -> ")

    def test_empty_input_is_empty_net(self):
        net, m0 = parse_net("")
        assert net.places == ()
        assert m0 == Marking({})


class TestParsePnml:
    MINIMAL = """\
<?xml version="1.0"?>
<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
  <net id="n" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="g">
      <place id="a"><initialMarking><text>1</text></initialMarking></place>
      <place id="b"/>
      <transition id="t"/>
      <arc id="x1" source="a" target="t"/>
      <arc id="x2" source="t" target="b"/>
    </page>
  </net>
</pnml>
"""

    def test_minimal(self):
        net, m0 = parse_pnml(self.MINIMAL)
        assert net.places == ("a", "b")
        assert net.pre["t"] == {"a": 1}
        assert net.post["t"] == {"b": 1}
        assert m0 == Marking({"a": 1})

    def test_inscription_weight(self):
        text = self.MINIMAL.replace(
            '<arc id="x1" source="a" target="t"/>',
            '<arc id="x1" source="a" target="t">'
            "<inscription><text>2</text></inscription></arc>",
        )
        net, _ = parse_pnml(text)
        assert net.pre["t"] == {"a": 2}

    def test_inhibitor_arc_unsupported(self):
        text = self.MINIMAL.replace(
            '<arc id="x1" source="a" target="t"/>',
            '<arc id="x1" source="a" target="t">'
            "<type><text>inhibitor</text></type></arc>",
        )
        with pytest.raises(ParseError, match=r"^unsupported arc type 'inhibitor'$"):
            parse_pnml(text)

    def test_non_pt_net_unsupported(self):
        text = self.MINIMAL.replace("grammar/ptnet", "grammar/hlpng")
        with pytest.raises(ParseError, match=r"^unsupported net type '.*hlpng'$"):
            parse_pnml(text)

    def test_malformed_xml(self):
        with pytest.raises(ParseError):
            parse_pnml("<pnml><net>")


class TestEquations:
    def test_cascade_order_preserved(self):
        eqs = parse_equations(CASCADE_EQUATIONS)
        assert [(e.tag, e.lhs, e.terms) for e in eqs] == [
            ("R", "p5", ("p4",)),
            ("A", "a1", ("p2", "p1")),
            ("A", "a2", ("p4", "p3")),
            ("R", "a1", ("a2",)),
        ]

    def test_constant_form(self):
        (eq,) = parse_equations("# R |- c = 1")
        assert eq.lhs == "c"
        assert eq.constant == 1
        assert eq.terms == ()

    def test_unknown_tag(self):
        with pytest.raises(ParseError):
            parse_equations("# X |- a = b")

    def test_constant_must_stand_alone(self):
        with pytest.raises(ParseError):
            parse_equations("# A |- a = b + 1")

    def test_duplicate_term_rejected(self):
        with pytest.raises(ParseError):
            parse_equations("# A |- a = b + b")

    def test_lhs_in_rhs_rejected(self):
        with pytest.raises(ParseError):
            parse_equations("# R |- a = a")

    @pytest.mark.parametrize("fields, message", [
        (dict(tag="X", lhs="a", terms=("b",)), "bad tag 'X'"),
        (dict(tag="R", lhs="a"), "rhs must be either variables or a constant"),
        (dict(tag="R", lhs="a", terms=("b",), constant=1),
         "rhs must be either variables or a constant"),
        (dict(tag="R", lhs="a", constant=-1), "negative constant"),
    ])
    def test_equation_fields_checked(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TaggedEquation(**fields)

    def test_round_trip(self):
        eqs = parse_equations(CASCADE_EQUATIONS)
        assert write_equations(eqs) == CASCADE_EQUATIONS
        assert parse_equations(write_equations(eqs)) == list(eqs)


def _rows(*spelled: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The ``known`` and ``ones`` rows of rows spelled as in a matrix file,
    column 0 first."""
    return (tuple(sum(1 << j for j, c in enumerate(row) if c != ".") for row in spelled),
            tuple(sum(1 << j for j, c in enumerate(row) if c == "1") for row in spelled))


class TestMatrix:
    def test_single_nondead_place(self):
        doc = MatrixDocument(("p",), *_rows("1"))
        assert write_matrix(doc) == "# order: p\n1\n"

    def test_run_length_written_at_four(self):
        doc = MatrixDocument(("a", "b", "c", "d", "e", "f"), *_rows(*("0" * i + "1" for i in range(6))))
        text = write_matrix(doc)
        assert "0(5)1" in text
        assert parse_matrix(text) == doc

    def test_short_runs_stay_literal(self):
        doc = MatrixDocument(("a", "b", "c"), *_rows("1", "01", "001"))
        text = write_matrix(doc)
        assert "(" not in text.splitlines()[2]

    def test_triangular_parse(self):
        doc = parse_matrix("# order: a b\n1\n01\n")
        assert doc.place_order == ("a", "b")
        assert (doc.known, doc.ones) == _rows("1", "01")

    def test_readme_example_is_what_the_writer_writes(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = re.search(r"```\n(# order:.*?)```", readme, re.DOTALL)[1]
        assert "(" in example
        assert write_matrix(parse_matrix(example)) == example

    def test_ragged_row(self):
        with pytest.raises(ParseError, match=r"^line 3: row has more than 2 symbols$"):
            parse_matrix("# order: a b\n1\n011\n")

    @pytest.mark.parametrize("known, ones, message", [
        ((1, 3), (1, 2), "row count does not match order length"),
        ((1, 3, 15), (1, 2, 8), "row 2 has a bit above column 2 or a 1 outside known"),
        ((1, 3, -1), (1, 2, 4), "row 2 has a bit above column 2 or a 1 outside known"),
        ((1, 3, 3), (1, 2, 4), "row 2 has a bit above column 2 or a 1 outside known"),
        ((1, 3, 7), (1, 2, -4), "row 2 has a bit above column 2 or a 1 outside known"),
    ])
    def test_document_rejects_bad_shape(self, known, ones, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MatrixDocument(("a", "b", "c"), known, ones)

    def test_run_filling_the_row_accepted(self):
        doc = parse_matrix("# order: a b c\n1\n0(2)\n.(02)1\n")
        assert (doc.known, doc.ones) == _rows("1", "00", "..1")

    def test_zero_run_count_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_matrix("# order: a b\n1\n1(0)11\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("count", ["3", "9" * 13, "9" * 5000], ids=["3", "13 digits", "5000 digits"])
    def test_run_longer_than_row_rejected(self, count):
        """The count is checked before the run is expanded or even read."""
        with pytest.raises(ParseError, match=r"^line 3: row has more than 2 symbols$") as exc:
            parse_matrix(f"# order: a b\n1\n0({count})\n")
        assert exc.value.line == 3

    def test_missing_header(self):
        # a comment line that is not the header, and no row before it
        with pytest.raises(ParseError, match=r"^line 1: missing '# order:' header$") as exc:
            parse_matrix("# comment\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("text, line", [("1\n# order: p\n", 1), ("\n1\n# order: p\n", 2)])
    def test_row_before_header(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: row before '# order:' header$"):
            parse_matrix(text)

    def test_unknown_symbol_preserved(self):
        doc = parse_matrix("# order: a b\n.\n01\n")
        assert (doc.known[0], doc.ones[0]) == (0, 0)

    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.sampled_from("01."), min_size=n * (n + 1) // 2,
                    max_size=n * (n + 1) // 2,
                ),
            )
        )
    )
    def test_round_trip_any_document(self, size_and_cells):
        n, flat = size_and_cells
        order = tuple(f"p{i}" for i in range(n))
        rows = []
        at = 0
        for i in range(n):
            rows.append("".join(flat[at : at + i + 1]))
            at += i + 1
        doc = MatrixDocument(order, *_rows(*rows))
        assert parse_matrix(write_matrix(doc)) == doc


class TestMarkingQuery:
    PLACES = ("p1", "p2", "p3", "p4", "p5")

    def test_doubled_target_projects(self):
        m = parse_marking_query("p1=2 p3=1 p4=1 p5=1", self.PLACES)
        assert m == Marking({"p1": 2, "p3": 1, "p4": 1, "p5": 1})

    def test_empty_query_is_zero_marking(self):
        assert parse_marking_query("", self.PLACES) == Marking({})

    def test_duplicate_assignment(self):
        with pytest.raises(ParseError, match=r"^place 'p1' assigned twice$"):
            parse_marking_query("p1=2 p1=3", self.PLACES)

    def test_place_set_enforced_when_given(self):
        with pytest.raises(ParseError, match=r"^unknown place 'zz'$"):
            parse_marking_query("zz=1", places=("a", "b"))


def _pnml(body: str) -> str:
    return f'<pnml><net id="n" type="ptnet"><page id="g">{body}</page></net></pnml>'


def _query(text: str) -> Marking:
    return parse_marking_query(text, ("p",))


# (parser, text, reason, line): one case per error branch that no other test
# reaches; the line is None for the formats that are not line-based
PARSE_ERRORS = [
    (parse_net, "pl p 1\ntr t p*0 -> p\n", "bad arc weight in 'p*0'", 2),
    (parse_net, "pl p\n", "expected: pl <name> <tokens>", 1),
    (parse_net, "pl p 1\ntr\n", "expected: tr <name> <in>* -> <out>*", 2),
    (parse_net, "pl p 1\ntr p p -> p\n", "name 'p' already declared", 2),
    (parse_net, "pl p 1\ntr t p\n", "transition is missing '->'", 2),
    (parse_net, "pl p 1\n\narc p t\n", "unknown directive 'arc'", 3),
    (parse_pnml, "<pnml/>", "no <net> element", None),
    (parse_pnml, _pnml('<place id="p"/><place id="p"/>'), "id 'p' already declared", None),
    (parse_pnml, _pnml('<place id="p"/><transition id="p"/>'), "id 'p' already declared",
     None),
    (parse_pnml, _pnml('<place id="p"/><transition id="t"/><arc id="x" source="p" target="t">'
                       '<inscription><text>0</text></inscription></arc>'),
     "bad arc weight 0 on 'p'->'t'", None),
    (parse_pnml, _pnml('<place id="p"/><arc id="x" source="p" target="p"/>'),
     "arc 'p'->'p' does not join a place and a transition", None),
    (parse_equations, "# R |- p = q\n# R |- r = q +\n", "empty term on rhs", 2),
    # the order in which one line's faults are reported
    (parse_equations, "# R |- p = 9x +\n", "empty term on rhs", 1),
    (parse_equations, "# A |- a = 9x + 1\n", "a constant must be the only rhs term", 1),
    (parse_equations, "# A |- a = b + b + 9x\n", "invalid name '9x'", 1),
    (parse_equations, "# R |- a = a + a\n", "duplicate variable on rhs", 1),
    (parse_equations, "# R |- a = b + a\n", "lhs may not appear on rhs", 1),
    (parse_net, "pl p 1\ntr t p q*0 -> p\n", "bad arc weight in 'q*0'", 2),
    (parse_net, "pl p 1\ntr t p q -> p\n", "undeclared place 'q'", 2),
    (parse_net, "pl p 1\ntr t p p -> p\n", "place 'p' repeated in arc list", 2),
    (parse_net, "pl p 1\ntr t p -> p\npl t 0\n", "name 't' already declared", 3),
    (parse_matrix, "# order: p q\n1\n1x\n", "bad matrix symbol at column 2", 3),
    (parse_matrix, "# order: p q\n1\n0\n", "row has 1 symbols, expected 2", 3),
    (parse_matrix, "\n# note\n1\n", "missing '# order:' header", 2),
    (parse_matrix, "# order: p q\n1\n", "expected 2 rows, found 1", 1),
    (_query, "p=1 q", "bad assignment 'q'", None),
    # digits of other scripts, which ``int`` would read
    (parse_net, "pl p \u0663\n", "bad token count '\u0663'", 1),
    (parse_net, "pl p 1\ntr t p*\u0663 -> p\n", "bad arc weight in 'p*\u0663'", 2),
    (parse_pnml, _pnml('<place id="p"><initialMarking><text>\u0663</text></initialMarking></place>'),
     "bad initial marking of 'p' '\u0663'", None),
    (parse_equations, "# R |- p = \u0663\n", "invalid name '\u0663'", 1),
    (parse_matrix, "# order: a b c\n1\n01\n0(\u0663)\n", "bad matrix symbol at column 2", 4),
    (_query, "p=\u0663", "bad assignment 'p=\u0663'", None),
]


@pytest.mark.parametrize("parse, text, reason, line", PARSE_ERRORS)
def test_parse_error_reason_and_line(parse, text, reason, line):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.reason, exc.value.line) == (reason, line)
    assert str(exc.value) == (reason if line is None else f"line {line}: {reason}")


@st.composite
def arbitrary_nets(draw):
    n_places = draw(st.integers(1, 6))
    places = tuple(f"p{i}" for i in range(n_places))
    n_trans = draw(st.integers(0, 5))
    transitions = tuple(f"t{i}" for i in range(n_trans))
    pre = {}
    post = {}
    for t in transitions:
        pre[t] = draw(
            st.dictionaries(st.sampled_from(places), st.integers(1, 3), max_size=3)
        )
        post[t] = draw(
            st.dictionaries(st.sampled_from(places), st.integers(1, 3), max_size=3)
        )
    marking = Marking({p: draw(st.integers(0, 2)) for p in places})
    return places, transitions, pre, post, marking


def reference_net_text(net, m0) -> str:
    """``write_net``'s spelling, one place at a time: each side lists the
    places of its arcs in place order, a weight of 1 unspelled."""
    def side(arcs):
        return [p if arcs[p] == 1 else f"{p}*{arcs[p]}" for p in net.places if p in arcs]

    lines = [f"pl {p} {m0[p]}" for p in net.places]
    lines += [" ".join(["tr", t, *side(net.pre_of(t)), "->", *side(net.post_of(t))])
              for t in net.transitions]
    return "\n".join(lines) + "\n"


class TestNetRoundTrip:
    @given(arbitrary_nets())
    def test_write_then_parse_is_identity(self, parts):
        from tfgkit.petri import PetriNet

        places, transitions, pre, post, m0 = parts
        net = PetriNet(places, transitions, pre, post)
        text = write_net(net, m0)
        assert text == reference_net_text(net, m0)
        parsed_net, parsed_m0 = parse_net(text)
        assert parsed_net == net
        assert parsed_net.heaviest == net.heaviest
        assert parsed_m0 == m0
        assert hash(parsed_m0) == hash(m0)


@st.composite
def arbitrary_equations(draw):
    names = st.sampled_from([f"v{i}" for i in range(6)])
    equations = []
    for _ in range(draw(st.integers(0, 5))):
        tag, lhs = draw(st.sampled_from("RA")), draw(names)
        if draw(st.booleans()):
            equations.append(TaggedEquation(tag, lhs, constant=draw(st.integers(0, 12))))
        else:
            terms = draw(st.lists(names.filter(lambda v: v != lhs), min_size=1, max_size=4,
                                  unique=True))
            equations.append(TaggedEquation(tag, lhs, terms=tuple(terms)))
    return equations


class TestEquationRoundTrip:
    @given(arbitrary_equations())
    def test_write_then_parse_is_identity(self, equations):
        parsed = parse_equations(write_equations(equations))
        assert parsed == equations
