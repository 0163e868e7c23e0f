"""Text formats: plain nets, PNML, tagged reduction equations, triangular
concurrency matrices and marking queries.

All writers round-trip through their parser.  The plain net grammar is

    pl <name> <tokens>
    tr <name> <input>* -> <output>*

with arcs written ``<place>`` or ``<place>*<weight>`` and ``#`` starting a
comment.  Names must start with a letter or underscore: a purely numeric
token in an equation file always denotes a constant, so numeric names are
rejected everywhere for coherence.  Counts, weights and constants are
ASCII digits (``\\d`` and ``int`` would take any script's), and line
numbers count lines as ``str.splitlines`` splits them (``\\r\\n``,
``\\r``, ``\\x0c``, ``\\u2028`` and the rest).

The net and equation readers first match each line against one ASCII
pattern of the form their writers write (one space between words, no
weight or comment), whose names and counts are then valid by
construction, and build it with a few whole-line checks: repeats by
length, declared places by one key-set comparison.  Every other line, and
a matching line that fails a check, goes word by word through the checked
reader, the only place that raises :class:`ParseError`; so either route
gives the same result, and every fault the same reason and line.

A concurrency matrix row is a pair of int bitsets, ``known`` and ``ones``,
from the file through :class:`MatrixDocument` to the lifts and back; only
:func:`parse_matrix` and :func:`write_matrix` spell its ``0/1/.`` symbols.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Iterable

from tfgkit.petri import Marking, PetriNet

_NAME = r"[A-Za-z_][A-Za-z0-9_.\-]*"
NAME_RE = re.compile(_NAME + r"\Z")

# a stretch of symbols, the last one optionally repeated as ``<symbol>(<count>)``
_RUN_RE = re.compile(r"([01.]+)(?:\(([0-9]+)\))?")
_COUNT_RE = re.compile(r"[0-9]+\Z")  # ASCII: \d and str.isdecimal take any script's digits
_KNOWN_DIGITS = str.maketrans("10.", "110")


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


def _arcs(words: list[str], tokens: dict[str, int], line: int) -> dict[str, int]:
    """The arcs of ``words``, each ``<place>`` or ``<place>*<weight>``; of a
    word's faults, a bad weight is reported first, then an undeclared place,
    then a repeat."""
    arcs: dict[str, int] = {}
    for word in words:
        place, star, weight = word.partition("*")
        if star and (not _COUNT_RE.match(weight) or int(weight) < 1):
            raise ParseError(f"bad arc weight in {word!r}", line)
        if place not in tokens:
            raise ParseError(f"undeclared place {place!r}", line)
        if place in arcs:
            raise ParseError(f"place {place!r} repeated in arc list", line)
        arcs[place] = int(weight) if star else 1
    return arcs


# the canonical line that :func:`write_net` writes, with every weight 1 and
# no comment: ASCII only, one space between words
_NET_LINE = re.compile(rf"pl ({_NAME}) ([0-9]+)|tr ({_NAME})((?: {_NAME})*) ->((?: {_NAME})*)")


def parse_net(text: str) -> tuple[PetriNet, Marking]:
    """The net and initial marking of a plain net text.

    Every rule of :class:`PetriNet` is checked here, with a line number:
    names are valid (so nonempty), unique and disjoint, every arc's place is
    declared before it, and every weight is at least 1.  So the net and the
    marking are built without checking them again.
    """
    tokens: dict[str, int] = {}  # every place, in declaration order
    pre: dict[str, dict[str, int]] = {}  # every transition, in declaration order
    post: dict[str, dict[str, int]] = {}
    heaviest = 0
    declared = tokens.keys()
    canonical = _NET_LINE.fullmatch
    fromkeys = dict.fromkeys

    for lineno, raw in enumerate(text.splitlines(), start=1):
        match = canonical(raw)
        if match:  # its names are valid and its count ASCII: check the rest
            place = match[1]
            if place:
                if place not in tokens and place not in pre:
                    tokens[place] = int(match[2])
                    continue
            else:
                name, ins, outs = match[3], match[4].split(), match[5].split()
                inputs, outputs = fromkeys(ins, 1), fromkeys(outs, 1)
                if (len(inputs) == len(ins) and len(outputs) == len(outs)
                        and declared >= inputs.keys() and declared >= outputs.keys()
                        and name not in tokens and name not in pre):
                    pre[name], post[name] = inputs, outputs
                    if not heaviest and (ins or outs):
                        heaviest = 1
                    continue
        # any other line, or a canonical one with a fault: checked word by word
        words = raw.partition("#")[0].split()
        if not words:
            continue
        kind = words[0]
        if kind == "pl":
            if len(words) != 3:
                raise ParseError("expected: pl <name> <tokens>", lineno)
        elif kind != "tr":
            raise ParseError(f"unknown directive {kind!r}", lineno)
        elif len(words) < 2:
            raise ParseError("expected: tr <name> <in>* -> <out>*", lineno)
        name = _check_name(words[1], lineno)
        if name in tokens or name in pre:
            raise ParseError(f"name {name!r} already declared", lineno)
        if kind == "pl":
            if not _COUNT_RE.match(words[2]):
                raise ParseError(f"bad token count {words[2]!r}", lineno)
            tokens[name] = int(words[2])
            continue
        try:
            split = words.index("->", 2)
        except ValueError:
            raise ParseError("transition is missing '->'", lineno) from None
        inputs = pre[name] = _arcs(words[2:split], tokens, lineno)
        outputs = post[name] = _arcs(words[split + 1 :], tokens, lineno)
        heaviest = max([heaviest, *inputs.values(), *outputs.values()])

    net = PetriNet._unchecked(tuple(tokens), tuple(pre), pre, post, heaviest)
    return net, Marking._unchecked({p: n for p, n in tokens.items() if n})


def write_net(net: PetriNet, m0: Marking) -> str:
    """The text of ``net`` marked ``m0``, as :func:`parse_net` reads it:
    each place with its count, then each transition with its arcs' places
    in place order, a weight spelled only when above 1.  A net whose
    ``heaviest`` is 1 has no weight to spell, so its sides are the sorted
    names alone, and a side of one arc is not sorted."""
    count = m0._tokens.get
    lines = [f"pl {p} {count(p, 0)}" for p in net.places]
    position = {p: i for i, p in enumerate(net.places)}.__getitem__

    def side(arcs) -> list[str]:
        ordered = sorted(arcs, key=position) if len(arcs) > 1 else list(arcs)
        if net.heaviest < 2:  # every weight is 1
            return ordered
        return [p if arcs[p] == 1 else f"{p}*{arcs[p]}" for p in ordered]

    pre, post = net.pre, net.post
    for t in net.transitions:
        lines.append(" ".join(["tr", t, *side(pre.get(t, {})), "->", *side(post.get(t, {}))]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PNML


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _pnml_count(text: str | None, default: int, what: str) -> int:
    """Nonnegative integer from a PNML ``<text>``; ``default`` when absent."""
    if text and not _COUNT_RE.match(text):
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

    @classmethod
    def _unchecked(cls, tag: str, lhs: str, terms: tuple[str, ...] = (),
                   constant: int | None = None) -> TaggedEquation:
        """The equation of these fields without the checks of
        ``__post_init__``, for a caller whose fields pass them by
        construction: the reducer, and :func:`parse_equations`, which makes
        the same checks as it reads."""
        eq = object.__new__(cls)
        eq.__dict__.update(tag=tag, lhs=lhs, terms=terms, constant=constant)
        return eq

    def rhs_text(self) -> str:
        if self.constant is not None:
            return str(self.constant)
        return " + ".join(self.terms)


_EQ_RE = re.compile(r"#\s*([AR])\s*\|-\s*(\S+)\s*=\s*(.+?)\s*\Z")
# the canonical line that :func:`write_equations` writes: ASCII only, one
# space around ``|-``, ``=`` and each ``+``
_EQ_LINE = re.compile(rf"# ([AR]) \|- ({_NAME}) = (?:({_NAME}(?: \+ {_NAME})*)|([0-9]+))")


def parse_equations(text: str) -> list[TaggedEquation]:
    """Parse an equation listing, one ``# <R|A> |- <var> = <rhs>`` per line.

    A purely numeric rhs term is a constant and must then stand alone.  Every
    rule of :class:`TaggedEquation` is checked here, with a line number, so
    the equations are built without checking them again.
    """
    out: list[TaggedEquation] = []
    valid = NAME_RE.match
    canonical = _EQ_LINE.fullmatch
    equation = TaggedEquation._unchecked
    for lineno, raw in enumerate(text.splitlines(), start=1):
        match = canonical(raw)
        if match:  # its names are valid and its constant ASCII: check the rest
            tag, lhs, rhs, constant = match.groups()
            if constant:
                out.append(equation(tag, lhs, constant=int(constant)))
                continue
            terms = rhs.split(" + ")
            if lhs not in terms and len(set(terms)) == len(terms):
                out.append(equation(tag, lhs, tuple(terms)))
                continue
        # any other line, or a canonical one with a fault: checked term by term
        stripped = raw.strip()
        if not stripped:
            continue
        match = _EQ_RE.match(stripped)
        if not match:
            raise ParseError(f"not an equation line: {stripped!r}", lineno)
        tag, lhs, rhs = match.groups()
        _check_name(lhs, lineno)
        terms = list(map(str.strip, rhs.split("+")))
        if "" in terms:
            raise ParseError("empty term on rhs", lineno)
        if not all(map(valid, terms)):  # a constant, or a bad name
            if any(map(_COUNT_RE.match, terms)):
                if len(terms) != 1:
                    raise ParseError("a constant must be the only rhs term", lineno)
                out.append(TaggedEquation._unchecked(tag, lhs, constant=int(terms[0])))
                continue
            for term in terms:
                _check_name(term, lineno)
        if len(set(terms)) < len(terms):
            raise ParseError("duplicate variable on rhs", lineno)
        if lhs in terms:
            raise ParseError("lhs may not appear on rhs", lineno)
        out.append(TaggedEquation._unchecked(tag, lhs, tuple(terms)))
    return out


def write_equations(equations: Iterable[TaggedEquation]) -> str:
    return "".join(f"# {eq.tag} |- {eq.lhs} = {eq.rhs_text()}\n" for eq in equations)


# ---------------------------------------------------------------------------
# concurrency matrix files


@dataclass(frozen=True)
class MatrixDocument:
    """Triangular matrix text: a name order plus two int rows per name.

    ``known[i]`` has bit ``j`` when cell (i, j) is settled and ``ones[i]``
    when it is 1, for ``j <= i`` only: row ``i`` has no bit above ``i``, and
    ``ones[i]`` is a subset of ``known[i]``.  Row ``i`` is written as
    ``i + 1`` symbols from ``0``, ``1`` and ``.`` (unknown), column 0 first.
    """

    place_order: tuple[str, ...]
    known: tuple[int, ...]
    ones: tuple[int, ...]

    def __post_init__(self):
        if not len(self.place_order) == len(self.known) == len(self.ones):
            raise ValueError("row count does not match order length")
        for i, (known, ones) in enumerate(zip(self.known, self.ones)):
            if known >> i + 1 or ones & ~known:  # a negative row shifts to -1
                raise ValueError(f"row {i} has a bit above column {i} or a 1 outside known")


def _row_bits(line: str, width: int, lineno: int) -> tuple[int, int]:
    """The ``known`` and ``ones`` bits of row text ``line``, column 0 as bit
    0; it must spell ``width`` symbols.  Each plain stretch is read by one
    ``int(..., 2)`` and each repeated run is a mask, so no run is spelled
    out.  A run's count is checked against what is left of the row before
    its mask is made, and its digits are counted before they are read."""
    if len(line) == width and not line.strip("01."):  # one plain stretch
        stretch = line[::-1]
        return int(stretch.translate(_KNOWN_DIGITS), 2), int(stretch.replace(".", "0"), 2)
    known = ones = col = pos = 0
    while pos < len(line):
        match = _RUN_RE.match(line, pos)
        if not match:
            raise ParseError(f"bad matrix symbol at column {pos + 1}", lineno)
        plain, count = match.groups()
        if count is not None:  # the last symbol repeats ``count`` times
            left = width - col - len(plain) + 1
            count = count.lstrip("0")
            if not count:
                raise ParseError(f"run count 0 at column {match.end(1) + 1}", lineno)
            if len(count) > len(str(left)) or int(count) > left:
                raise ParseError(f"row has more than {width} symbols", lineno)
            plain, symbol, repeat = plain[:-1], plain[-1], int(count)
        if col + len(plain) > width:
            raise ParseError(f"row has more than {width} symbols", lineno)
        if plain:  # reversed, so that its first symbol is the low bit
            stretch = plain[::-1]
            known |= int(stretch.translate(_KNOWN_DIGITS), 2) << col
            ones |= int(stretch.replace(".", "0"), 2) << col
            col += len(plain)
        if count is not None:
            mask = ((1 << repeat) - 1) << col
            if symbol != ".":
                known |= mask
            if symbol == "1":
                ones |= mask
            col += repeat
        pos = match.end()
    if col != width:
        raise ParseError(f"row has {col} symbols, expected {width}", lineno)
    return known, ones


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
    rows = [_row_bits(line, i + 1, lineno) for i, (lineno, line) in enumerate(body)]
    return MatrixDocument(tuple(names), tuple(k for k, _ in rows), tuple(o for _, o in rows))


def write_matrix(doc: MatrixDocument) -> str:
    """Matrix text of ``doc``, every maximal run of four or more equal
    symbols written as ``<symbol>(<count>)``.  A row is spelled once, in C,
    and its runs are found on its bits: bit ``j`` of ``same`` says that cells
    ``j`` and ``j + 1`` are equal.  So a run, not a cell, is a Python step."""
    lines = ["# order: " + " ".join(doc.place_order)]
    for i, (known, ones) in enumerate(zip(doc.known, doc.ones)):
        full = (2 << i) - 1
        if known == full:
            text = format(ones, f"0{i + 1}b")[::-1]
        else:  # binary digits read as hex, so that an unknown cell adds 2
            spelled = int(format(ones, "b"), 16) + 2 * int(format(full ^ known, "b"), 16)
            text = format(spelled, f"0{i + 1}x").replace("2", ".")[::-1]
        same = ~(known ^ known >> 1 | ones ^ ones >> 1) & full >> 1
        starts = same & same >> 1 & same >> 2
        first = starts & ~(same << 1)  # where each maximal run of 4+ begins
        last = starts << 3 & ~same  # and where it ends
        pieces, at = [], 0
        while first:
            begin = (first & -first).bit_length() - 1
            end = (last & -last).bit_length() - 1
            first &= first - 1
            last &= last - 1
            pieces += (text[at : begin + 1], f"({end - begin + 1})")
            at = end + 1
        lines.append("".join(pieces) + text[at:])
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
        if not sep or not _COUNT_RE.match(value):
            raise ParseError(f"bad assignment {token!r}")
        _check_name(name, None)
        if name in seen:
            raise ParseError(f"place {name!r} assigned twice")
        if name not in known:
            raise ParseError(f"unknown place {name!r}")
        seen[name] = int(value)
    return Marking(seen)
