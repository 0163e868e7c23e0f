"""Text format round-trips and parse errors."""

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

    def test_round_trip(self):
        eqs = parse_equations(CASCADE_EQUATIONS)
        assert write_equations(eqs) == CASCADE_EQUATIONS
        assert parse_equations(write_equations(eqs)) == list(eqs)


class TestMatrix:
    def test_single_nondead_place(self):
        doc = MatrixDocument(("p",), ("1",))
        assert write_matrix(doc) == "# order: p\n1\n"

    def test_run_length_written_at_four(self):
        rows = tuple("0" * i + "1" for i in range(0, 6))
        doc = MatrixDocument(("a", "b", "c", "d", "e", "f"), rows)
        text = write_matrix(doc)
        assert "0(5)1" in text
        assert parse_matrix(text) == doc

    def test_short_runs_stay_literal(self):
        doc = MatrixDocument(("a", "b", "c"), ("1", "01", "001"))
        text = write_matrix(doc)
        assert "(" not in text.splitlines()[2]

    def test_triangular_parse(self):
        doc = parse_matrix("# order: a b\n1\n01\n")
        assert doc.place_order == ("a", "b")
        assert doc.rows == ("1", "01")

    def test_ragged_row(self):
        with pytest.raises(ParseError, match=r"^line 3: row has more than 2 symbols$"):
            parse_matrix("# order: a b\n1\n011\n")

    @pytest.mark.parametrize("row", ["x01", "0x1", "01x", "0 1"])
    def test_document_rejects_bad_symbol(self, row):
        with pytest.raises(ValueError):
            MatrixDocument(("a", "b", "c"), ("1", "01", row))

    def test_run_filling_the_row_accepted(self):
        doc = parse_matrix("# order: a b c\n1\n0(2)\n.(02)1\n")
        assert doc.rows == ("1", "00", "..1")

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
        with pytest.raises(ParseError):
            parse_matrix("1\n01\n")

    @pytest.mark.parametrize("text, line", [("1\n# order: p\n", 1), ("\n1\n# order: p\n", 2)])
    def test_row_before_header(self, text, line):
        with pytest.raises(ParseError, match=rf"^line {line}: row before '# order:' header$"):
            parse_matrix(text)

    def test_unknown_symbol_preserved(self):
        doc = parse_matrix("# order: a b\n.\n01\n")
        assert doc.rows[0] == "."

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
        doc = MatrixDocument(order, tuple(rows))
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
    (parse_matrix, "# order: p q\n1\n1x\n", "bad matrix symbol at column 2", 3),
    (parse_matrix, "# order: p q\n1\n0\n", "row has 1 symbols, expected 2", 3),
    (parse_matrix, "\n# note\n1\n", "missing '# order:' header", 2),
    (parse_matrix, "# order: p q\n1\n", "expected 2 rows, found 1", 1),
    (_query, "p=1 q", "bad assignment 'q'", None),
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


class TestNetRoundTrip:
    @given(arbitrary_nets())
    def test_write_then_parse_is_identity(self, parts):
        from tfgkit.petri import PetriNet

        places, transitions, pre, post, m0 = parts
        net = PetriNet(places, transitions, pre, post)
        parsed_net, parsed_m0 = parse_net(write_net(net, m0))
        assert parsed_net == net
        assert parsed_m0 == m0
