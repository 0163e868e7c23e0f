"""Shared fixtures: the bundled corpus, explored and reduced once per session."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from tfgkit.generators import NetBuilder, choice_loop
from tfgkit.net_io import parse_net
from tfgkit.petri import Marking, PetriNet, StateSpace, explore
from tfgkit.reductions import ReductionResult, build_graph, reduce
from tfgkit.tfg import TokenFlowGraph

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def marking_key(m: Marking):
    """Deterministic sort key for iterating marking sets in tests."""
    return tuple(m.items())


# two 2-state rings that no rule reduces: two components of 2 states each
TWO_RINGS_TEXT = "pl a 1\npl b 0\npl c 1\npl d 0\ntr t a -> b\ntr u b -> a\ntr v c -> d\ntr w d -> c\n"


# the limits within which every net of ``bounded_nets`` explores completely
BOUNDED_MAX_STATES = 500
BOUNDED_MAX_TOKEN = 3


@st.composite
def bounded_nets(draw) -> tuple[PetriNet, Marking]:
    """Random nets of 2-7 places and 1-7 transitions, with arc weights and
    initial tokens up to 2, kept only when they explore completely within
    ``BOUNDED_MAX_STATES`` states at ``BOUNDED_MAX_TOKEN``; many are not
    safe."""
    places = tuple(f"p{i}" for i in range(draw(st.integers(2, 7))))
    transitions = tuple(f"t{i}" for i in range(draw(st.integers(1, 7))))
    arcs = st.dictionaries(st.sampled_from(places), st.integers(1, 2), max_size=3)
    pre = {t: draw(arcs) for t in transitions}
    post = {t: draw(arcs) for t in transitions}
    net = PetriNet(places, transitions, pre, post)
    m0 = Marking({p: draw(st.integers(0, 2)) for p in places})
    space = explore(net, m0, max_states=BOUNDED_MAX_STATES, max_token=BOUNDED_MAX_TOKEN)
    assume(space.is_complete)
    return net, m0


def two_loops() -> tuple[PetriNet, Marking]:
    """Choice loops ``c`` of 3 states and ``d`` of 4 states side by side, 12
    states together.  No rule reduces them, so each is one component of the
    reduced net."""
    b = NetBuilder()
    for loop in (choice_loop(2, "c"), choice_loop(3, "d")):
        for p in loop.places:
            b.place(p, loop.tokens[p])
        for t in loop.transitions:
            b.transition(t, loop.pre[t], loop.post[t])
    return b.build()


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    net: PetriNet
    m0: Marking
    space1: StateSpace
    result: ReductionResult
    graph: TokenFlowGraph
    space2: StateSpace


def load_instance(path: Path) -> CorpusInstance:
    net, m0 = parse_net(path.read_text())
    space1 = explore(net, m0, max_states=10_000, max_token=1)
    assert space1.is_complete, f"{path.stem}: corpus net must explore completely"
    result = reduce(net, m0)
    graph = build_graph(net, result)
    space2 = explore(
        result.reduced_net, result.reduced_marking, max_states=10_000, max_token=1
    )
    assert space2.is_complete, f"{path.stem}: reduced net must explore completely"
    return CorpusInstance(path.stem, net, m0, space1, result, graph, space2)


@pytest.fixture(scope="session")
def corpus() -> list[CorpusInstance]:
    paths = sorted(CORPUS_DIR.glob("*.net"))
    assert len(paths) >= 30, "bundled corpus must hold at least 30 nets"
    return [load_instance(path) for path in paths]
