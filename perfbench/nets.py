"""Benchmark nets, their closed-form reductions and the answer key.

The families mirror ``tfgkit.generators`` but are rebuilt here from plain
data, so that neither the inputs nor the expected answers depend on the code
under test.  Every net is a disjoint product of safe blocks.  The answer key
explores each block alone with the small explorer below and composes the
results: a target is reachable iff its restriction to every block is, and two
places of different blocks are concurrent iff both are live.  Each family
also carries its reduction in closed form (equation lines plus the reduced
block), written without the reducer; its sizes are what ``reduce`` must
produce, and its files feed the ``--equations`` / ``--reduced-net`` ops.
"""

from __future__ import annotations

import random
from math import prod


class Block:
    """One safe block: places, initial tokens, transitions as (name, pre, post).

    ``equations`` and ``reduced`` hold the closed-form reduction (``reduced``
    is None when the reducer leaves the block alone); ``redundant`` lists the
    places the duplicate-place rule removes, so a flip of one of them is
    refuted by projection.
    """

    def __init__(self, family: str):
        self.family = family
        self.places: list[str] = []
        self.tokens: dict[str, int] = {}
        self.transitions: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
        self.redundant: list[str] = []
        self.equations: list[str] = []
        self.reduced: Block | None = None

    def place(self, name: str, tokens: int = 0) -> str:
        self.places.append(name)
        self.tokens[name] = tokens
        return name

    def transition(self, name: str, pre, post) -> None:
        self.transitions.append((name, tuple(pre), tuple(post)))

    def states(self) -> list[frozenset[str]]:
        """Reachable markings as sets of marked places, in discovery order."""
        m0 = frozenset(p for p in self.places if self.tokens[p])
        # a transition is tried only when the first place it consumes is marked
        consumers: dict[str, list] = {p: [] for p in self.places}
        sources = [t for t in self.transitions if not t[1]]
        for t in self.transitions:
            if t[1]:
                consumers[t[1][0]].append(t)
        seen = {m0}
        order = [m0]
        for m in order:
            for name, pre, post in sources + [t for p in m for t in consumers[p]]:
                if not m.issuperset(pre):
                    continue
                rest = m.difference(pre)
                if rest.intersection(post):
                    raise ValueError(f"{self.family} is not safe at {name}")
                m2 = rest.union(post)
                if m2 not in seen:
                    seen.add(m2)
                    order.append(m2)
        return order

    def reduced_block(self) -> Block:
        return self if self.reduced is None else self.reduced


def _token_cycle(family: str, marked: str, var: str, t_in: str, t_out: str) -> Block:
    """The reduced form most families share: one token between two places."""
    b = Block(f"reduced {family}")
    b.place(marked, 1)
    b.place(var)
    b.transition(t_in, [marked], [var])
    b.transition(t_out, [var], [marked])
    return b


def _fold(prefix: str, first: str, rest: list[str]) -> tuple[list[str], str]:
    """Agglomeration chain ``a1 = first + rest[0]``, ``a<i> = a<i-1> + rest[i-1]``."""
    lines = []
    acc = first
    for i, term in enumerate(rest, start=1):
        var = f"{prefix}_a{i}"
        lines.append(f"# A |- {var} = {acc} + {term}")
        acc = var
    return lines, acc


def ring(n: int, prefix: str) -> Block:
    b = Block(f"ring({n})")
    ps = [b.place(f"{prefix}_p{i}", 1 if i == 0 else 0) for i in range(n)]
    for i in range(n):
        b.transition(f"{prefix}_t{i}", [ps[i]], [ps[(i + 1) % n]])
    if n >= 3:
        b.equations, top = _fold(prefix, ps[1], ps[2:])
        b.reduced = _token_cycle(b.family, ps[0], top, f"{prefix}_t0", f"{prefix}_t{n - 1}")
    return b


def fork_join(width: int, prefix: str) -> Block:
    b = Block(f"fork_join({width})")
    start = b.place(f"{prefix}_start", 1)
    branches = [b.place(f"{prefix}_b{i}") for i in range(width)]
    done = b.place(f"{prefix}_done")
    b.transition(f"{prefix}_fork", [start], branches)
    b.transition(f"{prefix}_join", branches, [done])
    b.transition(f"{prefix}_reset", [done], [start])
    b.redundant = branches[1:]
    b.equations = [f"# R |- {p} = {branches[0]}" for p in b.redundant]
    folded, top = _fold(prefix, branches[0], [done])
    b.equations += folded
    b.reduced = _token_cycle(b.family, start, top, f"{prefix}_fork", f"{prefix}_reset")
    return b


def two_phase_branches(width: int, prefix: str) -> Block:
    b = Block(f"two_phase_branches({width})")
    start = b.place(f"{prefix}_start", 1)
    first = [b.place(f"{prefix}_u{i}") for i in range(width)]
    second = [b.place(f"{prefix}_v{i}") for i in range(width)]
    done = b.place(f"{prefix}_done")
    b.transition(f"{prefix}_fork", [start], first)
    for i in range(width):
        b.transition(f"{prefix}_step{i}", [first[i]], [second[i]])
    b.transition(f"{prefix}_join", second, [done])
    b.transition(f"{prefix}_reset", [done], [start])
    branch = [f"{prefix}_x{i}" for i in range(width)]
    for i in range(width):
        b.equations.append(f"# A |- {branch[i]} = {first[i]} + {second[i]}")
        if i:
            b.equations.append(f"# R |- {branch[i]} = {branch[0]}")
    folded, top = _fold(prefix, branch[0], [done])
    b.equations += folded
    b.reduced = _token_cycle(b.family, start, top, f"{prefix}_fork", f"{prefix}_reset")
    return b


def choice_loop(branches: int, prefix: str) -> Block:
    b = Block(f"choice_loop({branches})")
    hub = b.place(f"{prefix}_hub", 1)
    for i in range(branches):
        mid = b.place(f"{prefix}_m{i}")
        b.transition(f"{prefix}_go{i}", [hub], [mid])
        b.transition(f"{prefix}_back{i}", [mid], [hub])
    return b


def diamond_block(prefix: str) -> Block:
    b = Block("diamond_block")
    home = b.place(f"{prefix}_home", 1)
    q1, r1 = b.place(f"{prefix}_q1"), b.place(f"{prefix}_r1")
    q2, r2 = b.place(f"{prefix}_q2"), b.place(f"{prefix}_r2")
    b.transition(f"{prefix}_enter", [home], [q1, r1])
    b.transition(f"{prefix}_shift", [q1, r1], [q2, r2])
    b.transition(f"{prefix}_leave", [q2, r2], [home])
    b.redundant = [r1, r2]
    b.equations = [f"# R |- {r1} = {q1}", f"# R |- {r2} = {q2}"]
    folded, top = _fold(prefix, q1, [q2])
    b.equations += folded
    b.reduced = _token_cycle(b.family, home, top, f"{prefix}_enter", f"{prefix}_leave")
    return b


def duplicate_ladder(stages: int, prefix: str) -> Block:
    b = Block(f"duplicate_ladder({stages})")
    head = b.place(f"{prefix}_head", 1)
    source = [head]
    qs = []
    for i in range(stages):
        q, r = b.place(f"{prefix}_q{i}"), b.place(f"{prefix}_r{i}")
        b.transition(f"{prefix}_s{i}", source, [q, r])
        source = [q, r]
        qs.append(q)
        b.redundant.append(r)
        b.equations.append(f"# R |- {r} = {q}")
    b.transition(f"{prefix}_close", source, [head])
    folded, top = _fold(prefix, qs[0], qs[1:])
    b.equations += folded
    b.reduced = _token_cycle(b.family, head, top, f"{prefix}_s0", f"{prefix}_close")
    return b


def chain_line(length: int, prefix: str) -> Block:
    b = Block(f"chain_line({length})")
    ps = [b.place(f"{prefix}_p0", 1)]
    for i in range(1, length + 1):
        ps.append(b.place(f"{prefix}_p{i}"))
        b.transition(f"{prefix}_t{i}", [ps[i - 1]], [ps[i]])
    b.transition(f"{prefix}_wrap", [ps[-1]], [ps[0]])
    b.equations, top = _fold(prefix, ps[1], ps[2:])
    b.reduced = _token_cycle(b.family, ps[0], top, f"{prefix}_t1", f"{prefix}_wrap")
    return b


def net_text(blocks: list[Block]) -> str:
    lines = [f"pl {p} {b.tokens[p]}" for b in blocks for p in b.places]
    for b in blocks:
        lines.extend(" ".join(["tr", t, *pre, "->", *post]) for t, pre, post in b.transitions)
    return "\n".join(lines) + "\n"


class Product:
    """Disjoint union of blocks with the composed answer key."""

    def __init__(self, name: str, blocks: list[Block]):
        self.name = name
        self.blocks = blocks
        self.places = [p for b in blocks for p in b.places]
        self.block_of = {p: i for i, b in enumerate(blocks) for p in b.places}
        self.block_states = [b.states() for b in blocks]
        self._state_sets = [set(states) for states in self.block_states]
        self.live = {p for states in self.block_states for m in states for p in m}
        self._pairs = [
            {(p, q) for m in states for p in m for q in m} for states in self.block_states
        ]
        self.full_states = prod(len(s) for s in self.block_states)
        self.redundant = [p for b in blocks for p in b.redundant]
        self.choices = [b for b in blocks if b.family.startswith("choice_loop")]
        self.reduced_blocks = [b.reduced_block() for b in blocks]
        self.reduced_places = [p for b in self.reduced_blocks for p in b.places]
        self.equation_count = sum(len(b.equations) for b in blocks)

    def describe(self) -> str:
        return f"{self.name} = " + " x ".join(b.family for b in self.blocks)

    def net_text(self) -> str:
        return net_text(self.blocks)

    def equations_text(self) -> str:
        return "".join(line + "\n" for b in self.blocks for line in b.equations)

    def reduced_net_text(self) -> str:
        return net_text(self.reduced_blocks)

    def reachable(self, marked: frozenset[str]) -> bool:
        parts: list[set[str]] = [set() for _ in self.blocks]
        for p in marked:
            parts[self.block_of[p]].add(p)
        return all(frozenset(part) in states for part, states in zip(parts, self._state_sets))

    def concurrent(self, p: str, q: str) -> bool:
        bp, bq = self.block_of[p], self.block_of[q]
        if bp == bq:
            return (p, q) in self._pairs[bp]
        return p in self.live and q in self.live

    def sample_reachable(self, rng: random.Random) -> frozenset[str]:
        return frozenset().union(*(rng.choice(states) for states in self.block_states))


def flip(marked: frozenset[str], place: str) -> frozenset[str]:
    return marked - {place} if place in marked else marked | {place}


def query_text(marked: frozenset[str]) -> str:
    return " ".join(f"{p}=1" for p in sorted(marked)) + "\n"


def masked_matrix_text(key: Product, hidden: set[tuple[int, int]]) -> str:
    """The exact relation of ``key`` as a matrix file, ``hidden`` cells as ``.``."""
    order = key.places
    rows = []
    for i, p in enumerate(order):
        rows.append("".join(
            "." if (i, j) in hidden else "1" if key.concurrent(p, order[j]) else "0"
            for j in range(i + 1)
        ))
    return "# order: " + " ".join(order) + "\n" + "\n".join(rows) + "\n"


def parse_matrix(text: str) -> tuple[list[str], list[list[str]]]:
    """Triangular matrix file: ``# order:`` header, rows of ``0 1 .`` with
    runs compressed as ``<symbol>(<count>)``."""
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("# order:"):
        raise ValueError("matrix without '# order:' header")
    order = lines[0][len("# order:"):].split()
    rows = []
    for line in lines[1:]:
        row: list[str] = []
        i = 0
        while i < len(line):
            sym = line[i]
            i += 1
            if i < len(line) and line[i] == "(":
                end = line.index(")", i)
                row.extend(sym * int(line[i + 1:end]))
                i = end + 1
            else:
                row.append(sym)
        rows.append(row)
    if [len(r) for r in rows] != list(range(1, len(order) + 1)):
        raise ValueError("matrix rows are not triangular")
    return order, rows
