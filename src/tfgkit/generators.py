"""Programmatic builders for safe test nets.

Everything here is safe by construction: each builder produces a block whose
reachable markings are known in closed form, and composite nets are disjoint
unions of blocks, so state counts multiply and 1-boundedness is preserved.
"""

from __future__ import annotations

import random

from tfgkit.petri import Marking, PetriNet


class NetBuilder:
    """Accumulates places and transitions under a common name prefix."""

    def __init__(self):
        self.places: list[str] = []
        self.tokens: dict[str, int] = {}
        self.transitions: list[str] = []
        self.pre: dict[str, dict[str, int]] = {}
        self.post: dict[str, dict[str, int]] = {}

    def place(self, name: str, tokens: int = 0) -> str:
        self.places.append(name)
        self.tokens[name] = tokens
        return name

    def transition(self, name: str, pre: dict[str, int], post: dict[str, int]) -> str:
        self.transitions.append(name)
        self.pre[name] = dict(pre)
        self.post[name] = dict(post)
        return name

    def build(self) -> tuple[PetriNet, Marking]:
        net = PetriNet(
            tuple(self.places), tuple(self.transitions), self.pre, self.post
        )
        return net, Marking(self.tokens)


def ring(n: int, prefix: str = "r") -> NetBuilder:
    """Token ring: n places in a cycle, one token.  n states."""
    b = NetBuilder()
    for i in range(n):
        b.place(f"{prefix}_p{i}", 1 if i == 0 else 0)
    for i in range(n):
        b.transition(
            f"{prefix}_t{i}", {f"{prefix}_p{i}": 1}, {f"{prefix}_p{(i + 1) % n}": 1}
        )
    return b


def fork_join(width: int, prefix: str = "f") -> NetBuilder:
    """Fork into ``width`` parallel branches, then join back.  Branches are
    filled and drained together, so there are 3 markings: idle, all branches
    running, all done."""
    b = NetBuilder()
    start = b.place(f"{prefix}_start", 1)
    branches = [b.place(f"{prefix}_b{i}") for i in range(width)]
    done = b.place(f"{prefix}_done")
    b.transition(f"{prefix}_fork", {start: 1}, {p: 1 for p in branches})
    b.transition(f"{prefix}_join", {p: 1 for p in branches}, {done: 1})
    b.transition(f"{prefix}_reset", {done: 1}, {start: 1})
    return b


def two_phase_branches(width: int, prefix: str = "g") -> NetBuilder:
    """Fork into branches that each take two independent steps before the
    join; branch progress interleaves, so states grow as 2^width."""
    b = NetBuilder()
    start = b.place(f"{prefix}_start", 1)
    first = [b.place(f"{prefix}_u{i}") for i in range(width)]
    second = [b.place(f"{prefix}_v{i}") for i in range(width)]
    done = b.place(f"{prefix}_done")
    b.transition(f"{prefix}_fork", {start: 1}, {p: 1 for p in first})
    for i in range(width):
        b.transition(f"{prefix}_step{i}", {first[i]: 1}, {second[i]: 1})
    b.transition(f"{prefix}_join", {p: 1 for p in second}, {done: 1})
    b.transition(f"{prefix}_reset", {done: 1}, {start: 1})
    return b


def choice_loop(branches: int, prefix: str = "c") -> NetBuilder:
    """One token choosing among ``branches`` detours and returning."""
    b = NetBuilder()
    hub = b.place(f"{prefix}_hub", 1)
    for i in range(branches):
        mid = b.place(f"{prefix}_m{i}")
        b.transition(f"{prefix}_go{i}", {hub: 1}, {mid: 1})
        b.transition(f"{prefix}_back{i}", {mid: 1}, {hub: 1})
    return b


def diamond_block(b: NetBuilder, prefix: str) -> None:
    """Cycle through two duplicated fork stages.

    The duplicated places collapse by the duplicate-place rule and the
    remaining two-step chain agglomerates, so each block loses three of its
    five places.  3 reachable markings per block.
    """
    home = b.place(f"{prefix}_home", 1)
    q1 = b.place(f"{prefix}_q1")
    r1 = b.place(f"{prefix}_r1")
    q2 = b.place(f"{prefix}_q2")
    r2 = b.place(f"{prefix}_r2")
    b.transition(f"{prefix}_enter", {home: 1}, {q1: 1, r1: 1})
    b.transition(f"{prefix}_shift", {q1: 1, r1: 1}, {q2: 1, r2: 1})
    b.transition(f"{prefix}_leave", {q2: 1, r2: 1}, {home: 1})


def diamond_chain(k: int) -> tuple[PetriNet, Marking]:
    """k independent diamond blocks: 5k places, 3^k reachable markings,
    reduction removes 3 places per block (ratio 0.6)."""
    b = NetBuilder()
    for i in range(k):
        diamond_block(b, f"d{i}")
    return b.build()


def duplicate_ladder(stages: int, prefix: str = "l") -> NetBuilder:
    """Pipeline whose stages each hold a duplicated place pair, closed into a
    cycle.  stages + 1 markings."""
    b = NetBuilder()
    head = b.place(f"{prefix}_head", 1)
    prev_pair = None
    for i in range(stages):
        q = b.place(f"{prefix}_q{i}")
        r = b.place(f"{prefix}_r{i}")
        source = {head: 1} if prev_pair is None else {p: 1 for p in prev_pair}
        b.transition(f"{prefix}_s{i}", source, {q: 1, r: 1})
        prev_pair = (q, r)
    b.transition(f"{prefix}_close", {p: 1 for p in prev_pair}, {head: 1})
    return b


def chain_line(length: int, prefix: str = "h") -> NetBuilder:
    """Marked head feeding a chain of empty places; the interior agglomerates.
    length + 1 markings."""
    b = NetBuilder()
    head = b.place(f"{prefix}_p0", 1)
    prev = head
    for i in range(1, length + 1):
        cur = b.place(f"{prefix}_p{i}")
        b.transition(f"{prefix}_t{i}", {prev: 1}, {cur: 1})
        prev = cur
    b.transition(f"{prefix}_wrap", {prev: 1}, {head: 1})
    return b


def fan_in_chain(k: int, prefix: str = "n") -> NetBuilder:
    """``k`` sources, the first one marked, each feeding one empty hub
    through its own transition; the hub heads a chain of ``k`` empty places
    that returns to the marked source.  2k + 1 places, k + 2 markings.  The
    chain agglomerates onto the hub, so every merge carries the hub's k
    producers along."""
    b = NetBuilder()
    sources = [b.place(f"{prefix}_s{i}", 1 if i == 0 else 0) for i in range(k)]
    hub = b.place(f"{prefix}_hub")
    for i, source in enumerate(sources):
        b.transition(f"{prefix}_in{i}", {source: 1}, {hub: 1})
    prev = hub
    for i in range(1, k + 1):
        cur = b.place(f"{prefix}_c{i}")
        b.transition(f"{prefix}_t{i}", {prev: 1}, {cur: 1})
        prev = cur
    b.transition(f"{prefix}_wrap", {prev: 1}, {sources[0]: 1})
    return b


def isolated_places(marked: int, empty: int, prefix: str = "i") -> NetBuilder:
    """Places no transition touches; all of them reduce to constants."""
    b = NetBuilder()
    for i in range(marked):
        b.place(f"{prefix}_on{i}", 1)
    for i in range(empty):
        b.place(f"{prefix}_off{i}")
    return b


def m_motif() -> tuple[PetriNet, Marking]:
    """Fork into a two-step chain, a duplicated two-step chain and a direct
    branch, joined back into a cycle.  Exercises all three reduction rules
    and keeps four places pairwise concurrent."""
    b = NetBuilder()
    for name, tokens in [("p0", 1), ("p1", 0), ("p2", 0), ("p3", 0), ("p4", 0), ("p5", 0), ("p6", 0)]:
        b.place(name, tokens)
    b.transition("t0", {"p0": 1}, {"p1": 1, "p3": 1, "p6": 1})
    b.transition("t1", {"p1": 1}, {"p2": 1})
    b.transition("t2", {"p3": 1}, {"p4": 1, "p5": 1})
    b.transition("t3", {"p2": 1, "p4": 1, "p5": 1, "p6": 1}, {"p0": 1})
    return b.build()


_BLOCKS = (
    lambda rng, prefix: ring(rng.randint(2, 6), prefix),
    lambda rng, prefix: fork_join(rng.randint(2, 4), prefix),
    lambda rng, prefix: two_phase_branches(rng.randint(2, 4), prefix),
    lambda rng, prefix: choice_loop(rng.randint(2, 4), prefix),
    lambda rng, prefix: duplicate_ladder(rng.randint(1, 3), prefix),
    lambda rng, prefix: chain_line(rng.randint(2, 5), prefix),
)


def composite(seed: int, max_blocks: int = 4) -> tuple[PetriNet, Marking]:
    """Seeded disjoint union of random blocks plus a few isolated places."""
    rng = random.Random(seed)
    b = NetBuilder()
    for i in range(rng.randint(2, max_blocks)):
        part = rng.choice(_BLOCKS)(rng, f"b{i}")
        for p in part.places:
            b.place(p, part.tokens[p])
        for t in part.transitions:
            b.transition(t, part.pre[t], part.post[t])
    for i in range(rng.randint(0, 2)):
        b.place(f"iso{i}", rng.randint(0, 1))
    return b.build()
