"""Text formats: plain nets, PNML, tagged reduction equations, triangular
concurrency matrices and marking queries.

All writers round-trip through their parser.  The plain net grammar is

    pl <name> <tokens>
    tr <name> <input>* -> <output>*

with arcs written ``<place>`` or ``<place>*<weight>`` and ``#`` starting a
comment.  Names must start with a letter or underscore: a purely numeric
token in an equation file always denotes a constant, so numeric names are
rejected everywhere for coherence.

A concurrency matrix row is one ``0/1/.`` string from the file through
:class:`MatrixDocument` to :meth:`ConcurrencyMatrix.from_lower_rows`, and back
from :meth:`ConcurrencyMatrix.lower_rows`.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterable

from tfgkit.petri import Marking, PetriNet

NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")

# a stretch of symbols, the last one optionally repeated as ``<symbol>(<count>)``
_RUN_RE = re.compile(r"([01.]+)(?:\((\d+)\))?")
_LONG_RUN_RE = re.compile(r"([01.])\1{3,}")  # what the writer compresses


class ParseError(ValueError):
    """Malformed or unsupported input (such as an inhibitor arc); carries
    the 1-based source line when known."""

    def __init__(self, reason: str, line: int | None = None):
        self.reason = reason
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + reason)


def _check_name(name: str, line: int | None) -> str:
    if not NAME_RE.match(name):
        raise ParseError(f"invalid name {name!r}", line)
    return name


# ---------------------------------------------------------------------------
# plain net format


def parse_net(text: str) -> tuple[PetriNet, Marking]:
    places: list[str] = []
    tokens: dict[str, int] = {}
    transitions: list[str] = []
    pre: dict[str, dict[str, int]] = {}
    post: dict[str, dict[str, int]] = {}

    def parse_arc(word: str, line: int) -> tuple[str, int]:
        if "*" in word:
            name, _, weight = word.partition("*")
            if not weight.isdecimal() or int(weight) < 1:
                raise ParseError(f"bad arc weight in {word!r}", line)
            return name, int(weight)
        return word, 1

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        words = stripped.split()
        if words[0] == "pl":
            if len(words) != 3:
                raise ParseError("expected: pl <name> <tokens>", lineno)
            name = _check_name(words[1], lineno)
            if name in tokens or name in pre:
                raise ParseError(f"name {name!r} already declared", lineno)
            if not words[2].isdecimal():
                raise ParseError(f"bad token count {words[2]!r}", lineno)
            places.append(name)
            tokens[name] = int(words[2])
        elif words[0] == "tr":
            if len(words) < 2:
                raise ParseError("expected: tr <name> <in>* -> <out>*", lineno)
            name = _check_name(words[1], lineno)
            if name in tokens or name in pre:
                raise ParseError(f"name {name!r} already declared", lineno)
            rest = words[2:]
            if "->" not in rest:
                raise ParseError("transition is missing '->'", lineno)
            split = rest.index("->")
            sides = []
            for group in (rest[:split], rest[split + 1 :]):
                arcs: dict[str, int] = {}
                for word in group:
                    place, weight = parse_arc(word, lineno)
                    if place not in tokens:
                        raise ParseError(f"undeclared place {place!r}", lineno)
                    if place in arcs:
                        raise ParseError(f"place {place!r} repeated in arc list", lineno)
                    arcs[place] = weight
                sides.append(arcs)
            transitions.append(name)
            pre[name], post[name] = sides
        else:
            raise ParseError(f"unknown directive {words[0]!r}", lineno)

    net = PetriNet(tuple(places), tuple(transitions), pre, post)
    return net, Marking(tokens)


def write_net(net: PetriNet, m0: Marking) -> str:
    lines = [f"pl {p} {m0[p]}" for p in net.places]
    for t in net.transitions:
        def side(arcs) -> list[str]:
            ordered = [p for p in net.places if p in arcs]
            return [p if arcs[p] == 1 else f"{p}*{arcs[p]}" for p in ordered]

        lines.append(" ".join(["tr", t, *side(net.pre_of(t)), "->", *side(net.post_of(t))]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PNML


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _pnml_count(text: str | None, default: int, what: str) -> int:
    """Nonnegative integer from a PNML ``<text>``; ``default`` when absent."""
    if text and not text.isdecimal():
        raise ParseError(f"bad {what} {text!r}")
    return int(text) if text else default


def parse_pnml(text: str) -> tuple[PetriNet, Marking]:
    """P/T subset of PNML: places, transitions, weighted arcs.

    Node ids are used as names.  Graphics, names and toolspecific data
    (including NUPN units) are ignored; inhibitor arcs and non-P/T net types
    are rejected.
    """
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ParseError(f"invalid XML: {exc}") from exc

    nets = [el for el in root.iter() if _local(el.tag) == "net"]
    if not nets:
        raise ParseError("no <net> element")
    net_el = nets[0]
    net_type = net_el.get("type", "")
    if net_type and "ptnet" not in net_type and "PTNet" not in net_type:
        raise ParseError(f"unsupported net type {net_type!r}")

    def text_of(el: ET.Element, tag: str) -> str | None:
        for child in el.iter():
            if _local(child.tag) == tag:
                for sub in child:
                    if _local(sub.tag) == "text":
                        return (sub.text or "").strip()
        return None

    places: list[str] = []
    tokens: dict[str, int] = {}
    transitions: list[str] = []
    pre: dict[str, dict[str, int]] = {}
    post: dict[str, dict[str, int]] = {}

    for el in net_el.iter():
        kind = _local(el.tag)
        if kind == "place":
            name = _check_name(el.get("id", ""), None)
            if name in tokens or name in pre:
                raise ParseError(f"id {name!r} already declared")
            places.append(name)
            tokens[name] = _pnml_count(
                text_of(el, "initialMarking"), 0, f"initial marking of {name!r}"
            )
        elif kind == "transition":
            name = _check_name(el.get("id", ""), None)
            if name in tokens or name in pre:
                raise ParseError(f"id {name!r} already declared")
            transitions.append(name)
            pre[name] = {}
            post[name] = {}

    for el in net_el.iter():
        if _local(el.tag) != "arc":
            continue
        src, dst = el.get("source", ""), el.get("target", "")
        type_el = next((child for child in el if _local(child.tag) == "type"), None)
        arc_type = text_of(el, "type") or (type_el.get("value") if type_el is not None else None)
        if arc_type and arc_type != "normal":
            raise ParseError(f"unsupported arc type {arc_type!r}")
        weight = _pnml_count(text_of(el, "inscription"), 1, f"arc weight on {src!r}->{dst!r}")
        if weight < 1:
            raise ParseError(f"bad arc weight {weight} on {src!r}->{dst!r}")
        if src in tokens and dst in pre:
            pre[dst][src] = pre[dst].get(src, 0) + weight
        elif src in pre and dst in tokens:
            post[src][dst] = post[src].get(dst, 0) + weight
        else:
            raise ParseError(f"arc {src!r}->{dst!r} does not join a place and a transition")

    net = PetriNet(tuple(places), tuple(transitions), pre, post)
    return net, Marking(tokens)


# ---------------------------------------------------------------------------
# reduction equations


@dataclass(frozen=True)
class TaggedEquation:
    """One reduction equation ``lhs = rhs``.

    ``tag`` is "R" (redundancy) or "A" (agglomeration).  The right-hand side
    is either a nonempty variable tuple or a single natural constant.
    """

    tag: str
    lhs: str
    terms: tuple[str, ...] = ()
    constant: int | None = None

    def __post_init__(self):
        if self.tag not in ("R", "A"):
            raise ValueError(f"bad tag {self.tag!r}")
        if (self.constant is None) == (not self.terms):
            raise ValueError("rhs must be either variables or a constant")
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("duplicate variable on rhs")
        if self.lhs in self.terms:
            raise ValueError("lhs may not appear on rhs")
        if self.constant is not None and self.constant < 0:
            raise ValueError("negative constant")

    def rhs_text(self) -> str:
        if self.constant is not None:
            return str(self.constant)
        return " + ".join(self.terms)


_EQ_RE = re.compile(r"#\s*([AR])\s*\|-\s*(\S+)\s*=\s*(.+?)\s*\Z")


def parse_equations(text: str) -> list[TaggedEquation]:
    """Parse an equation listing, one ``# <R|A> |- <var> = <rhs>`` per line.

    A purely numeric rhs term is a constant and must then stand alone.
    """
    out: list[TaggedEquation] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        match = _EQ_RE.match(stripped)
        if not match:
            raise ParseError(f"not an equation line: {stripped!r}", lineno)
        tag, lhs, rhs = match.groups()
        _check_name(lhs, lineno)
        terms = [term.strip() for term in rhs.split("+")]
        if any(not term for term in terms):
            raise ParseError("empty term on rhs", lineno)
        if any(term.isdecimal() for term in terms):
            if len(terms) != 1:
                raise ParseError("a constant must be the only rhs term", lineno)
            eq = TaggedEquation(tag, lhs, constant=int(terms[0]))
        else:
            for term in terms:
                _check_name(term, lineno)
            try:
                eq = TaggedEquation(tag, lhs, terms=tuple(terms))
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        out.append(eq)
    return out


def write_equations(equations: Iterable[TaggedEquation]) -> str:
    return "".join(f"# {eq.tag} |- {eq.lhs} = {eq.rhs_text()}\n" for eq in equations)


# ---------------------------------------------------------------------------
# concurrency matrix files


@dataclass(frozen=True)
class MatrixDocument:
    """Triangular matrix text: a name order plus one row string per name.

    Row ``i`` spells the pairs with the first ``i + 1`` names as ``i + 1``
    symbols from ``0``, ``1`` and ``.`` (unknown): the strings that
    :meth:`ConcurrencyMatrix.lower_rows` writes and
    :meth:`ConcurrencyMatrix.from_lower_rows` reads.
    """

    place_order: tuple[str, ...]
    rows: tuple[str, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.place_order):
            raise ValueError("row count does not match order length")
        for i, row in enumerate(self.rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} has {len(row)} symbols, expected {i + 1}")
            if row.strip("01."):
                raise ValueError(f"bad symbol in row {i}: {row!r}")


def _expand_row(line: str, width: int, lineno: int) -> str:
    """``line`` with its runs expanded; it must spell ``width`` symbols.  A
    run's count is checked against what is left of the row before the run
    is expanded, and its digits are counted before they are read."""
    row = ""
    pos = 0
    while pos < len(line):
        match = _RUN_RE.match(line, pos)
        if not match:
            raise ParseError(f"bad matrix symbol at column {pos + 1}", lineno)
        symbols, count = match.groups()
        if count is not None:  # the last symbol repeats ``count`` times
            left = width - len(row) - len(symbols) + 1
            count = count.lstrip("0")
            if not count:
                raise ParseError(f"run count 0 at column {match.end(1) + 1}", lineno)
            if len(count) > len(str(left)) or int(count) > left:
                raise ParseError(f"row has more than {width} symbols", lineno)
            symbols = symbols[:-1] + symbols[-1] * int(count)
        row += symbols
        if len(row) > width:
            raise ParseError(f"row has more than {width} symbols", lineno)
        pos = match.end()
    if len(row) != width:
        raise ParseError(f"row has {len(row)} symbols, expected {width}", lineno)
    return row


def parse_matrix(text: str) -> MatrixDocument:
    """Parse a triangular matrix file.

    The first line must be ``# order: <names>``.  Runs may be compressed as
    ``<symbol>(<count>)`` with a positive count; the reader accepts any mix
    of plain and compressed runs.  Blank lines and further comment lines are
    ignored.
    """
    header_line = None
    body: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if header_line is None:
                header_line = (lineno, stripped)
            continue
        if header_line is None:
            raise ParseError("row before '# order:' header", lineno)
        body.append((lineno, stripped))
    if header_line is None or not header_line[1].startswith("# order:"):
        raise ParseError("missing '# order:' header", header_line[0] if header_line else 1)
    names = header_line[1][len("# order:") :].split()
    for name in names:
        _check_name(name, header_line[0])
    if len(set(names)) != len(names):
        raise ParseError("name repeated in '# order:' header", header_line[0])
    if len(body) != len(names):
        raise ParseError(f"expected {len(names)} rows, found {len(body)}", header_line[0])
    rows = tuple(_expand_row(line, i + 1, lineno) for i, (lineno, line) in enumerate(body))
    return MatrixDocument(tuple(names), rows)


def write_matrix(doc: MatrixDocument) -> str:
    """Matrix text of ``doc``, every run of four or more equal symbols
    written as ``<symbol>(<count>)``."""
    lines = ["# order: " + " ".join(doc.place_order)]
    lines.extend(_LONG_RUN_RE.sub(lambda run: f"{run[1]}({len(run[0])})", row) for row in doc.rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# marking queries


def parse_marking_query(text: str, places: Iterable[str]) -> Marking:
    """Whitespace-separated ``name=count`` assignments over ``places``;
    absent places are zero, names outside ``places`` are rejected."""
    known = set(places)
    seen: dict[str, int] = {}
    for token in text.split():
        name, sep, value = token.partition("=")
        if not sep or not value.isdecimal():
            raise ParseError(f"bad assignment {token!r}")
        _check_name(name, None)
        if name in seen:
            raise ParseError(f"place {name!r} assigned twice")
        if name not in known:
            raise ParseError(f"unknown place {name!r}")
        seen[name] = int(value)
    return Marking(seen)
