"""Net semantics, exploration, the state equation and the brute-force oracles."""

import random
import time
from collections import deque

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import tfgkit.petri
from conftest import side_by_side
from tfgkit import generators
from tfgkit.petri import (
    IncompleteStateSpaceError,
    Marking,
    NotEnabledError,
    PetriNet,
    StateEquation,
    _column_rows,
    _compile,
    _flows,
    _Packing,
    _remainder,
    _set_rows,
    enabled,
    explore,
    fire,
    is_safe,
    oracle_concurrency,
    oracle_reachable,
    random_walk,
)
from tfgkit.reductions import reduce

T1 = PetriNet(("a", "b"), ("t",), {"t": {"a": 1}}, {"t": {"b": 1}})
D1 = PetriNet(("p", "q", "r"), ("t",), {"t": {"p": 1}}, {"t": {"q": 1, "r": 1}})
U1 = PetriNet(("x",), ("t",), {"t": {}}, {"t": {"x": 1}})


class TestMarking:
    def test_absent_place_reads_zero(self):
        m = Marking({"a": 1})
        assert m["a"] == 1
        assert m["b"] == 0

    def test_sparse_and_dense_compare_equal(self):
        assert Marking({"a": 1, "b": 0}) == Marking({"a": 1})
        assert hash(Marking({"a": 1, "b": 0})) == hash(Marking({"a": 1}))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Marking({"a": -1})


class TestNetValidation:
    def test_place_transition_names_disjoint(self):
        with pytest.raises(ValueError):
            PetriNet(("a",), ("a",), {"a": {}}, {"a": {}})

    def test_unknown_place_in_flow(self):
        with pytest.raises(ValueError):
            PetriNet(("a",), ("t",), {"t": {"zz": 1}}, {"t": {}})

    def test_duplicate_places(self):
        with pytest.raises(ValueError):
            PetriNet(("a", "a"), (), {}, {})

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            PetriNet(("a",), ("t",), {"t": {"a": 0}}, {"t": {}})

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="^empty name$"):
            PetriNet(("a", ""), (), {}, {})

    def test_arcs_for_unknown_transition_rejected(self):
        with pytest.raises(ValueError, match="^arcs for unknown transition 'u'$"):
            PetriNet(("a",), ("t",), {"t": {"a": 1}}, {"u": {"a": 1}})


class TestEnabledFire:
    def test_single_enabled(self):
        assert enabled(T1, Marking({"a": 1})) == ["t"]

    def test_precondition_unmet(self):
        assert enabled(T1, Marking({"b": 1})) == []

    def test_d1_enabled(self):
        assert enabled(D1, Marking({"p": 1})) == ["t"]

    def test_fire_t1(self):
        assert fire(T1, Marking({"a": 1}), "t") == Marking({"b": 1})

    def test_fire_d1(self):
        assert fire(D1, Marking({"p": 1}), "t") == Marking({"q": 1, "r": 1})

    def test_fire_disabled_raises(self):
        with pytest.raises(NotEnabledError):
            fire(T1, Marking({"b": 1}), "t")


class TestExplore:
    def test_t1_space(self):
        space = explore(T1, Marking({"a": 1}), max_states=100, max_token=10)
        assert space.markings == frozenset({Marking({"a": 1}), Marking({"b": 1})})
        assert space.is_complete

    def test_d1_space(self):
        space = explore(D1, Marking({"p": 1}), max_states=100, max_token=10)
        assert space.markings == frozenset(
            {Marking({"p": 1}), Marking({"q": 1, "r": 1})}
        )
        assert space.is_complete

    def test_unbounded_truncates(self):
        space = explore(U1, Marking({}), max_states=5, max_token=10)
        assert not space.is_complete
        assert "truncated" in space.status

    def test_initial_always_present(self):
        space = explore(U1, Marking({}), max_states=1, max_token=10)
        assert Marking({}) in space.markings

    @pytest.mark.parametrize("max_states, max_token", [(0, 1), (1, 0)])
    def test_limits_below_one_rejected(self, max_states, max_token):
        with pytest.raises(ValueError, match="^limits must be at least 1$"):
            explore(T1, Marking({"a": 1}), max_states=max_states, max_token=max_token)


class TestOracles:
    def test_reachable_t1(self):
        m0 = Marking({"a": 1})
        space = explore(T1, m0)
        assert oracle_reachable(space, Marking({"b": 1}))
        assert not oracle_reachable(space, Marking({"a": 1, "b": 1}))
        assert oracle_reachable(space, m0)

    def test_reachable_refuses_truncated(self):
        space = explore(U1, Marking({}), max_states=2, max_token=10)
        with pytest.raises(IncompleteStateSpaceError):
            oracle_reachable(space, Marking({}))

    def test_concurrency_d1(self):
        space = explore(D1, Marking({"p": 1}))
        mat = oracle_concurrency(space, D1.places)
        assert mat.get("q", "r") == 1
        assert mat.get("p", "q") == 0
        assert mat.get("p", "r") == 0
        for place in D1.places:
            assert mat.get(place, place) == 1

    def test_concurrency_t1(self):
        space = explore(T1, Marking({"a": 1}))
        mat = oracle_concurrency(space, T1.places)
        assert mat.get("a", "b") == 0
        assert mat.get("a", "a") == 1
        assert mat.get("b", "b") == 1

    def test_dead_place_row_all_zero(self):
        net = PetriNet(("a", "b", "d"), ("t",), {"t": {"a": 1}}, {"t": {"b": 1}})
        space = explore(net, Marking({"a": 1}))
        mat = oracle_concurrency(space, net.places)
        assert mat.get("d", "d") == 0
        assert mat.get("d", "a") == 0
        assert mat.get("d", "b") == 0

    def test_concurrency_refuses_truncated(self):
        space = explore(U1, Marking({}), max_states=2, max_token=10)
        with pytest.raises(IncompleteStateSpaceError):
            oracle_concurrency(space, U1.places)

    def test_concurrency_implies_nondead(self, corpus):
        for inst in corpus:
            mat = oracle_concurrency(inst.space1, inst.net.places)
            for v, w, value in mat.cells():
                if value == 1:
                    assert mat.get(v, v) == 1 and mat.get(w, w) == 1


class TestRandomWalk:
    def test_zero_steps_returns_initial(self):
        assert random_walk(T1, Marking({"a": 1}), steps=0, seed=7) == Marking({"a": 1})

    def test_single_path(self):
        assert random_walk(T1, Marking({"a": 1}), steps=1, seed=0) == Marking({"b": 1})

    def test_deterministic(self):
        net = PetriNet(
            ("h", "x", "y"),
            ("tx", "ty", "bx", "by"),
            {"tx": {"h": 1}, "ty": {"h": 1}, "bx": {"x": 1}, "by": {"y": 1}},
            {"tx": {"x": 1}, "ty": {"y": 1}, "bx": {"h": 1}, "by": {"h": 1}},
        )
        runs = {random_walk(net, Marking({"h": 1}), steps=9, seed=42) for _ in range(5)}
        assert len(runs) == 1

    def test_walk_lands_on_reachable_marking(self, corpus):
        for inst in corpus[:10]:
            for seed in range(3):
                m = random_walk(inst.net, inst.m0, steps=7, seed=seed)
                assert oracle_reachable(inst.space1, m)


@st.composite
def small_nets(draw):
    n_places = draw(st.integers(1, 5))
    places = tuple(f"p{i}" for i in range(n_places))
    n_trans = draw(st.integers(0, 4))
    transitions = tuple(f"t{i}" for i in range(n_trans))
    pre = {}
    post = {}
    for t in transitions:
        pre[t] = draw(
            st.dictionaries(st.sampled_from(places), st.integers(1, 2), max_size=2)
        )
        post[t] = draw(
            st.dictionaries(st.sampled_from(places), st.integers(1, 2), max_size=2)
        )
    m0 = Marking(
        {p: draw(st.integers(0, 1)) for p in places}
    )
    return PetriNet(places, transitions, pre, post), m0


class TestProperties:
    @given(small_nets())
    def test_transition_order_does_not_change_marking_set(self, net_m0):
        net, m0 = net_m0
        space = explore(net, m0, max_states=200, max_token=2)
        reordered = PetriNet(
            net.places, tuple(reversed(net.transitions)), net.pre, net.post
        )
        other = explore(reordered, m0, max_states=200, max_token=2)
        if space.is_complete and other.is_complete:
            assert space.markings == other.markings

    @given(small_nets())
    def test_fired_markings_stay_nonnegative(self, net_m0):
        net, m0 = net_m0
        space = explore(net, m0, max_states=100, max_token=2)
        for m in space.markings:
            assert all(count >= 0 for _, count in m.items())

    def test_safe_corpus_spaces_are_one_bounded(self, corpus):
        for inst in corpus:
            assert is_safe(inst.space1), inst.name


def reference_explore(net, m0, max_states, max_token):
    """Breadth-first search over the public ``enabled``/``fire``, with the
    explorer's truncation rules: (markings in the order stored, status)."""
    seen = {m0: None}
    if any(n > max_token for _, n in m0.items()):
        return list(seen), "truncated(max-token)"
    queue = deque([m0])
    while queue:
        m = queue.popleft()
        for t in enabled(net, m):
            m2 = fire(net, m, t)
            if m2 in seen:
                continue
            if any(n > max_token for _, n in m2.items()):
                return list(seen), "truncated(max-token)"
            if len(seen) >= max_states:
                return list(seen), "truncated(max-states)"
            seen[m2] = None
            queue.append(m2)
    return list(seen), "complete"


@st.composite
def weighted_nets(draw, most: int = 5):
    n_places = draw(st.integers(1, most))
    places = tuple(f"p{i}" for i in range(n_places))
    transitions = tuple(f"t{i}" for i in range(draw(st.integers(0, most))))
    arcs = st.dictionaries(st.sampled_from(places), st.integers(1, 3), max_size=3)
    pre = {t: draw(arcs) for t in transitions}
    post = {t: draw(arcs) for t in transitions}
    m0 = Marking({p: draw(st.integers(0, 3)) for p in places})
    return PetriNet(places, transitions, pre, post), m0


nets_under_test = st.one_of(
    weighted_nets(),
    st.integers(0, 10_000).map(generators.composite),
    # long cycles: every firing re-tests only its neighbours
    st.integers(1, 60).map(lambda n: generators.chain_line(n).build()),
    st.integers(1, 60).map(lambda n: generators.ring(n).build()),
)

# Nets where a firing changes which transitions are enabled elsewhere:
READ_ARC = (  # r reads a and moves b to c: t enables it by marking a, u disables it
    PetriNet(("s", "a", "b", "c", "d"), ("t", "r", "u"),
             {"t": {"s": 1}, "r": {"a": 1, "b": 1}, "u": {"a": 1}},
             {"t": {"a": 1}, "r": {"a": 1, "c": 1}, "u": {"d": 1}}),
    Marking({"s": 1, "b": 1}),
)
DRAINED_PAIR = (  # t1 leaves one token on p, below t0's weight 2
    PetriNet(("p", "q", "r"), ("t0", "t1"),
             {"t0": {"p": 2}, "t1": {"p": 1}}, {"t0": {"q": 1}, "t1": {"r": 1}}),
    Marking({"p": 2}),
)
SOURCE = (  # src has no pre, so it stays enabled while mv consumes its output
    PetriNet(("x", "y"), ("src", "mv"), {"mv": {"x": 1}}, {"src": {"x": 1}, "mv": {"y": 1}}),
    Marking({}),
)
ARCLESS = (  # idle has no arcs at all and never changes a marking
    PetriNet(("u", "v"), ("idle", "t"), {"t": {"u": 1}}, {"t": {"v": 1}}),
    Marking({"u": 1}),
)
# Nets whose readers share a pre-vector, or a place but not a pre-vector:
EQUAL_PRE = (  # split and fork read the same {a: 2} and put different tokens
    PetriNet(("a", "b", "c"), ("split", "fork", "join"),
             {"split": {"a": 2}, "fork": {"a": 2}, "join": {"b": 1, "c": 1}},
             {"split": {"b": 2}, "fork": {"b": 1, "c": 1}, "join": {"a": 2}}),
    Marking({"a": 2}),
)
READ_AMONG_EQUAL = (  # look and take read {p: 2, q: 1}; look puts p back
    PetriNet(("p", "q", "s", "u"), ("look", "take", "refill"),
             {"look": {"p": 2, "q": 1}, "take": {"p": 2, "q": 1}, "refill": {"s": 1}},
             {"look": {"p": 2, "s": 1}, "take": {"u": 1}, "refill": {"q": 1}}),
    Marking({"p": 2, "q": 1}),
)
HUB_READERS = (  # go and sync both read hub, but sync also reads x, never marked
    PetriNet(("hub", "x", "a", "b"), ("go", "sync", "back"),
             {"go": {"hub": 1}, "sync": {"hub": 1, "x": 1}, "back": {"a": 1}},
             {"go": {"a": 1}, "sync": {"b": 1}, "back": {"hub": 1}}),
    Marking({"hub": 1}),
)

# Nets where a firing must wake a sleeping transition, or need not:
LOOK_BESIDE_TAKE = (  # look puts back the p it reads, and take consumes it
    PetriNet(("p", "s", "x", "y"), ("take", "look"),
             {"take": {"p": 1}, "look": {"p": 1, "s": 1}},
             {"take": {"y": 1}, "look": {"p": 1, "x": 1}}),
    Marking({"p": 1, "s": 1}),
)
PRODUCER_INTO_READ = (  # make only puts a token on the p that eat reads
    PetriNet(("s", "p", "q"), ("make", "eat"),
             {"make": {"s": 1}, "eat": {"p": 1}}, {"make": {"p": 1}, "eat": {"q": 1}}),
    Marking({"s": 1, "p": 1}),
)
TWO_PRODUCERS = (  # a and b never read p, and together put 2 tokens on it
    PetriNet(("s", "r", "p"), ("a", "b"),
             {"a": {"s": 1}, "b": {"r": 1}}, {"a": {"p": 1}, "b": {"p": 1}}),
    Marking({"s": 1, "r": 1}),
)
# Nets at the edges of what a move can tell about a reader in advance:
REFILL_TWO = (  # put leaves 2 tokens on p, exactly what take needs: take surely passes
    PetriNet(("s", "p", "q"), ("put", "take"),
             {"put": {"s": 1}, "take": {"p": 2}}, {"put": {"p": 2}, "take": {"q": 1}}),
    Marking({"s": 1}),
)
REFILL_ONE = (  # put leaves 1 token on p, one fewer than take needs: take is tested
    PetriNet(("s", "p", "q"), ("put", "take"),
             {"put": {"s": 1}, "take": {"p": 2}}, {"put": {"p": 1}, "take": {"q": 1}}),
    Marking({"s": 2}),
)


def nip_and_gulp(tokens: int) -> tuple[PetriNet, Marking]:
    """nip takes 1 of p's ``tokens`` and gulp takes 2: after nip, p keeps
    at most one token fewer than the token cap, which is below gulp's
    weight only at a cap of 2."""
    return (PetriNet(("p", "q", "r"), ("nip", "gulp"),
                     {"nip": {"p": 1}, "gulp": {"p": 2}}, {"nip": {"q": 1}, "gulp": {"r": 1}}),
            Marking({"p": tokens}))


LOOK_TWICE = (  # look reads 2 of p and puts them back; take drains p one token at a time
    PetriNet(("p", "s", "x", "y"), ("look", "take"),
             {"look": {"p": 2, "s": 1}, "take": {"p": 1}}, {"look": {"p": 2, "x": 1}, "take": {"y": 1}}),
    Marking({"p": 2, "s": 1}),
)


def gated_join(width: int) -> tuple[PetriNet, Marking]:
    """``fork_join(width)`` whose join also takes the token of a gate, so
    that the fork, which fills every branch, cannot tell that join passes."""
    b = generators.fork_join(width)
    b.place("gate", 1)
    b.pre["f_join"]["gate"] = 1
    return b.build()


# independent blocks: 3 x 3 x 6 = 54 and 3 x 4 x 3 = 36 states
BLOCKS = side_by_side(generators.choice_loop(2), generators.ring(3), generators.two_phase_branches(2))
MORE_BLOCKS = side_by_side(generators.fork_join(2), generators.choice_loop(3), generators.ring(3))


def mutex(users: int) -> tuple[PetriNet, Marking]:
    """``users`` processes that take turns holding one mutex token."""
    b = generators.NetBuilder()
    lock = b.place("mutex", 1)
    for i in range(users):
        idle, crit = b.place(f"idle{i}", 1), b.place(f"crit{i}")
        b.transition(f"acq{i}", {lock: 1, idle: 1}, {crit: 1})
        b.transition(f"rel{i}", {crit: 1}, {lock: 1, idle: 1})
    return b.build()


# every rel_i marks mutex, which six acquires read with six distinct
# pre-vectors: more than the explorer inlines, so they share one hub list
MUTEX = mutex(6)
# 27 transitions: the chain's enabled one at position 0 and the loop's at
# 21, 23 and 25, with no enabled transition between them
WINDOWS = side_by_side(generators.chain_line(20), generators.choice_loop(3))
# 47 transitions: the loop's enabled ones at 41, 43 and 45, more than one
# 30-bit CPython int digit above the chain's at position 0
WIDE = side_by_side(generators.chain_line(40), generators.choice_loop(3))


# Nets on which the concurrency rows merge markings that share their upper
# places, and nets on which they cannot:
TWO_PHASE_BY_RING = side_by_side(generators.two_phase_branches(3), generators.ring(3))
TWO_TOKENS = generators.ring(3, "w")  # 6 markings, 2 tokens on one place in 3 of them
TWO_TOKENS.tokens["w_p0"] = 2
BOUNDED_BY_RING = side_by_side(TWO_TOKENS, generators.ring(3))
LONE_UPPER = (  # {b} lies between the places of the other marking, {a, c}
    PetriNet(("a", "b", "c"), ("t",), {"t": {"a": 1, "c": 1}}, {"t": {"b": 1}}),
    Marking({"a": 1, "c": 1}),
)
# Nets whose stored markings number at least their places squared, so that
# the rows are built column-wise: 16 places and 256 states, and 14 places
# and 288 states at max_token 2
FOUR_LOOPS = side_by_side(*(generators.choice_loop(3, f"c{i}") for i in range(4)))
BOUNDED_LOOPS = side_by_side(TWO_TOKENS, generators.choice_loop(3, "a"),
                             generators.choice_loop(3, "b"), generators.ring(3))
# p0 and p1 each move a token to p5; p6 is marked beside p5 only while p5
# holds 2, and p4 lets p5 empty out.  At max_token 2 the fields are 3 bits
# wide, so p5's value bits 15 and 16 lie in two bytes, and its partner p6 is
# seen through bit 16 alone; the empty marking is stored too
STRADDLE = (
    PetriNet(tuple(f"p{i}" for i in range(7)), ("t", "u", "v", "x", "y"),
             {"t": {"p0": 1}, "u": {"p1": 1, "p2": 1}, "v": {"p6": 1},
              "x": {"p5": 1, "p4": 1}, "y": {"p4": 1}},
             {"t": {"p5": 1, "p2": 1}, "u": {"p5": 1, "p6": 1}, "v": {"p4": 1},
              "x": {"p4": 1}}),
    Marking({"p0": 1, "p1": 1}),
)


class TestPackedKernel:
    """The packed explorer and oracles against plain Marking-level scans."""

    @given(nets_under_test, st.integers(1, 3), st.integers(1, 300))
    @example((PetriNet(("a", "b"), ("t",), {}, {"t": {"a": 3}}), Marking({"a": 1})), 1, 10)
    @example(READ_ARC, 1, 300)
    @example(DRAINED_PAIR, 2, 300)
    @example(SOURCE, 3, 300)
    @example(SOURCE, 3, 2)
    @example(ARCLESS, 1, 300)
    @example(EQUAL_PRE, 2, 300)
    @example(READ_AMONG_EQUAL, 2, 300)
    @example(HUB_READERS, 1, 300)
    @example(WINDOWS, 1, 300)
    @example(WINDOWS, 1, 30)
    @example(WIDE, 1, 300)
    @example(WIDE, 1, 60)
    @example(MUTEX, 1, 300)
    @example(LOOK_BESIDE_TAKE, 1, 300)
    @example(LOOK_BESIDE_TAKE, 1, 3)
    @example(PRODUCER_INTO_READ, 2, 300)
    @example(PRODUCER_INTO_READ, 2, 4)
    @example(PRODUCER_INTO_READ, 1, 300)
    @example(TWO_PRODUCERS, 1, 300)
    @example(TWO_PRODUCERS, 2, 300)
    @example(TWO_PRODUCERS, 2, 3)
    @example(BLOCKS, 1, 300)
    @example(BLOCKS, 1, 10)
    @example(BLOCKS, 1, 20)
    @example(BLOCKS, 1, 31)
    @example(MORE_BLOCKS, 1, 300)
    @example(MORE_BLOCKS, 1, 7)
    @example(MORE_BLOCKS, 1, 20)
    @example(REFILL_TWO, 2, 300)
    @example(REFILL_TWO, 3, 300)
    @example(REFILL_ONE, 2, 300)
    @example(REFILL_ONE, 3, 300)
    @example(nip_and_gulp(2), 2, 300)
    @example(nip_and_gulp(2), 3, 300)
    @example(nip_and_gulp(3), 3, 300)
    @example(DRAINED_PAIR, 3, 300)
    @example(LOOK_TWICE, 2, 300)
    @example(LOOK_TWICE, 3, 300)
    @example(gated_join(50), 1, 300)
    @example(generators.fork_join(50).build(), 2, 300)
    def test_explore_matches_reference(self, net_m0, max_token, max_states):
        net, m0 = net_m0
        space = explore(net, m0, max_states=max_states, max_token=max_token)
        expected, status = reference_explore(net, m0, max_states, max_token)
        assert space.markings == frozenset(expected)
        assert space.status == status
        assert len(space) == len(expected)
        assert all(m in space for m in expected)
        assert is_safe(space) == all(n <= 1 for m in expected for _, n in m.items())

    @given(nets_under_test, st.integers(1, 3), st.randoms(use_true_random=False))
    @example(generators.diamond_chain(3), 1, random.Random(0))
    @example(TWO_PHASE_BY_RING, 1, random.Random(1))
    @example(BOUNDED_BY_RING, 2, random.Random(2))
    @example(generators.isolated_places(30, 5).build(), 1, random.Random(3))
    @example(generators.fork_join(20).build(), 1, random.Random(4))
    @example(LONE_UPPER, 1, random.Random(5))
    @example(FOUR_LOOPS, 1, random.Random(6))
    @example(BOUNDED_LOOPS, 2, random.Random(7))
    def test_concurrency_matches_pairwise_scan(self, net_m0, max_token, rng):
        net, m0 = net_m0
        space = explore(net, m0, max_states=300, max_token=max_token)
        if not space.is_complete:
            return
        order = list(net.places) + ["elsewhere"]  # a non-place row stays all zero
        rng.shuffle(order)
        order.pop(rng.randrange(len(order)))  # and a missing place is no row
        mat = oracle_concurrency(space, order)
        ones = 0
        for i, p in enumerate(order):
            for q in order[: i + 1]:
                value = int(any(m[p] > 0 and m[q] > 0 for m in space.markings))
                assert mat.get(p, q) == value, (p, q)
                ones += value
        assert mat.writes == ones

    @given(nets_under_test, st.integers(1, 3))
    @example(generators.fork_join(20).build(), 1)
    def test_layout_order_needs_no_restrict(self, net_m0, max_token):
        """Over the layout's own order the rows are the matrix as they are:
        the cells and ``writes`` of the restricted form, with no restrict."""
        net, m0 = net_m0
        space = explore(net, m0, max_states=300, max_token=max_token)
        if not space.is_complete:
            return
        wider = oracle_concurrency(space, (*net.places, "elsewhere"))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tfgkit.petri.ConcurrencyMatrix, "restrict", refuse)
            mat = oracle_concurrency(space, net.places)
        assert mat == wider.restrict(net.places)
        assert mat.writes == wider.writes

    @pytest.mark.parametrize("net_m0, max_token, form", [
        (FOUR_LOOPS, 1, "columns_by_states"),  # 16 places, 256 states
        (BOUNDED_LOOPS, 2, "columns_by_states"),  # 14 places, 288 states
        (generators.two_phase_branches(8).build(), 1, "columns_by_sizes"),  # 18 places, 258 states
        (generators.diamond_chain(5), 1, "columns_by_sizes"),  # 25 places, 243 states
        (generators.chain_line(25).build(), 1, "sets"),  # 26 places and states
        (STRADDLE, 2, "sets"),  # 7 places, 9 states
    ])
    def test_rows_take_the_form_with_fewer_steps(self, net_m0, max_token, form, monkeypatch):
        """The columns when the places squared are at most the stored
        markings, or else at most the summed sizes of the distinct
        marked-place sets; the sets otherwise."""
        space = explore(*net_m0, max_token=max_token)
        squared = len(space._packing.places) ** 2
        assert (squared <= len(space)) == (form == "columns_by_states")
        monkeypatch.setattr(tfgkit.petri, "_set_rows" if form != "sets" else "_column_rows", refuse)
        oracle_concurrency(space, net_m0[0].places)

    def test_readers_of_one_place_keep_their_own_pre(self):
        """``back`` refills the hub, which ``go`` and ``sync`` both read: a
        test shared by the readers of a place, rather than by equal
        pre-vectors, would enable ``sync`` without its ``x``."""
        net, m0 = HUB_READERS
        space = explore(net, m0)
        assert space.is_complete
        assert space.markings == {Marking({"hub": 1}), Marking({"a": 1})}

    def test_equal_pre_readers_share_one_test(self):
        """Each ``back`` refills the hub that all 50 ``go`` transitions read
        with pre {hub: 1}.  Their one test surely passes after it, so its
        move sets their 50 bits at once and lists no test.  At a token cap
        of 1, ``back`` leaves its own place empty, so it lists no test for
        itself either; at a cap of 2 that place may keep a token, and its
        move lists the one test of ``back`` itself."""
        net, m0 = generators.choice_loop(50).build()
        bits = {t: 1 << i for i, t in enumerate(net.transitions)}
        go = sum(bits[f"c_go{i}"] for i in range(50))
        for max_token in (1, 2):
            _, moves = _compile(net, _Packing(net.places, 2), m0._tokens, max_token)
            moves = dict(zip(net.transitions, moves))
            for i in range(50):
                _, _, sure, _, tests, shared = moves[f"c_back{i}"]
                assert sure == go and not shared
                own = [bits[f"c_back{i}"]] if max_token == 2 else []
                assert [test_bits for _, test_bits, _, _ in tests] == own

    def test_hub_compiles_to_memory_linear_in_the_arcs(self):
        """200 writers refill a hub that 200 readers read, each with a place
        of its own beside it, and 200 more read with pre {hub: 1}.  The
        hub's 200 tests of two places are one shared list, not a copy in
        each of the 200 moves that refill the hub; a writer, which also
        refills its reader's own place, surely re-enables that reader and
        the ``go`` transitions, declared among the others, which share one
        test."""
        n = 200
        pre, post = {}, {}
        for i in range(n):
            pre[f"read{i}"], post[f"read{i}"] = {"hub": 1, f"x{i}": 1}, {f"y{i}": 1}
            pre[f"write{i}"], post[f"write{i}"] = {f"y{i}": 1}, {"hub": 1, f"x{i}": 1}
            pre[f"go{i}"], post[f"go{i}"] = {"hub": 1}, {f"y{i}": 1}
        places = ("hub", *(f"x{i}" for i in range(n)), *(f"y{i}" for i in range(n)))
        net = PetriNet(places, tuple(pre), pre, post)
        _, moves = _compile(net, _Packing(net.places, 2), {"hub": 1, "x0": 1}, 1)
        assert len(moves) == 3 * n
        shared = {id(group): group for _, _, _, _, _, groups in moves for group in groups}
        assert [len(group) for group in shared.values()] == [n]
        entries = sum(len(tests) for *_, tests, _ in moves) + sum(map(len, shared.values()))
        arcs = sum(len(arcs) for side in (pre, post) for arcs in side.values())
        assert entries <= 2 * arcs
        bits = {t: 1 << i for i, t in enumerate(net.transitions)}
        go = sum(bits[f"go{i}"] for i in range(n))
        for i in range(n):
            _, _, sure, _, tests, groups = moves[3 * i + 1]
            assert sure == go | bits[f"read{i}"] and not tests and len(groups) == 1

    @pytest.mark.parametrize("net_m0", [
        generators.fork_join(50).build(), gated_join(50), MUTEX, HUB_READERS,
        generators.duplicate_ladder(20).build(),
    ])
    @pytest.mark.parametrize("max_token", [1, 2])
    def test_moves_hold_no_repeated_test(self, net_m0, max_token):
        """A test that reads several places a move changes is listed once,
        among the move's own tests or in a shared list.  The fork of
        ``fork_join(50)`` fills all 50 places that join reads, so join
        surely passes after it, unless join also waits on a gate; then
        join's test is listed once, not once per branch."""
        net, m0 = net_m0
        _, moves = _compile(net, _Packing(net.places, 3), m0._tokens, max_token)
        for _, _, _, _, tests, groups in moves:
            listed = [id(test) for test in tests] + [id(test) for group in groups for test in group]
            assert len(listed) == len(set(listed))
        if net.transitions[:2] == ("f_fork", "f_join"):
            _, _, sure, _, tests, _ = moves[0]
            gated = "gate" in net.places
            assert bool(sure & 2) != gated
            # at a cap of 2, start may keep a token after the fork
            expected = [1] * (max_token == 2) + [2] * gated
            assert [test_bits for _, test_bits, _, _ in tests] == expected

    def test_count_wider_than_its_field_is_not_stored(self):
        space = explore(T1, Marking({"a": 1}))
        for n in range(2, 100):
            assert Marking({"a": n}) not in space
            assert Marking({"b": n}) not in space

    @given(nets_under_test)
    def test_outside_places(self, net_m0):
        net, m0 = net_m0
        space = explore(net, m0, max_states=50, max_token=3)
        assert Marking({"elsewhere": 1}) not in space
        assert Marking({**dict(m0.items()), "elsewhere": 1}) not in space
        with pytest.raises(ValueError):
            explore(net, Marking({**dict(m0.items()), "elsewhere": 1}))


def refuse(*args, **kwargs):
    raise AssertionError("unexpected call")


def set_rows(space) -> list[int]:
    """The rows of ``_set_rows`` over the distinct marked-place sets of
    ``space``, built the way ``_marked_rows`` builds them."""
    packing = space._packing
    occupied = {((m | packing.guards) - packing.ones) & packing.guards for m in space._packed}
    return _set_rows(packing, occupied)


def scanned_rows(space) -> list[int]:
    """The rows of ``_marked_rows`` from the decoded markings, pair by pair."""
    places = space._packing.places
    marked = [{i for i, p in enumerate(places) if m[p]} for m in space.markings]
    return [sum(1 << k for k in range(len(places)) if any(i in s and k in s for s in marked))
            for i in range(len(places))]


class TestMarkedRows:
    """The concurrency rows built column-wise and from the distinct
    marked-place sets, against each other and against a pairwise scan, on
    spaces on both sides of the rule that picks one of them."""

    def test_corpus(self, corpus):
        for inst in corpus:
            for space in (inst.space1, inst.space2):
                assert _column_rows(space) == set_rows(space) == scanned_rows(space), inst.name

    @pytest.mark.parametrize("net_m0", [
        *(generators.composite(seed) for seed in range(60)),
        generators.two_phase_branches(8).build(),  # 18 places, 258 states
        generators.two_phase_branches(10).build(),  # 22 places, 1,026 states
        generators.diamond_chain(5),  # 25 places, 243 states
        generators.diamond_chain(7),  # 35 places, 2,187 states
        generators.fork_join(20).build(),  # 22 places, 3 states
        generators.duplicate_ladder(20).build(),  # 41 places, 21 states
        generators.isolated_places(30, 5).build(),  # 35 places, 1 state
        generators.chain_line(25).build(),  # 26 places and states
    ])
    def test_generated(self, net_m0):
        space = explore(*net_m0)
        assert _column_rows(space) == set_rows(space) == scanned_rows(space)

    @pytest.mark.parametrize("max_token", [2, 3])
    @pytest.mark.parametrize("net_m0", [STRADDLE, BOUNDED_BY_RING], ids=["straddle", "two_tokens"])
    def test_counts_of_two(self, net_m0, max_token):
        space = explore(*net_m0, max_token=max_token)
        assert space.is_complete and not is_safe(space)
        assert _column_rows(space) == set_rows(space) == scanned_rows(space)

    def test_straddling_field_and_empty_marking(self):
        space = explore(*STRADDLE, max_token=2)
        assert space._packing.width == 3 and len(space) == 9
        assert Marking({"p5": 2, "p6": 1}) in space and Marking({}) in space
        # p5 is marked beside p1 and p2 with 1 token, beside p6 with 2, and
        # beside p4 with either
        assert _column_rows(space)[5] == set_rows(space)[5] == 0b1110110

    @pytest.mark.parametrize("tokens", [0, 1])
    def test_one_place_one_state(self, tokens):
        space = explore(PetriNet(("a",), (), {}, {}), Marking({"a": tokens}))
        assert len(space) == 1
        assert _column_rows(space) == set_rows(space) == scanned_rows(space) == [tokens]


class TestGoal:
    """A search that stops at a goal, and the state equation, against the
    reference search."""

    @given(nets_under_test, st.integers(1, 3), st.integers(1, 300), st.integers(0, 10**6))
    @example(READ_ARC, 1, 300, 3)
    @example(DRAINED_PAIR, 2, 300, 2)
    @example(SOURCE, 3, 300, 3)
    @example(ARCLESS, 1, 300, 1)
    @example(EQUAL_PRE, 2, 300, 2)
    @example(READ_AMONG_EQUAL, 2, 300, 1)
    @example(WINDOWS, 1, 300, 50)
    @example(WIDE, 1, 300, 100)
    @example(MUTEX, 1, 300, 6)
    @example(BLOCKS, 1, 300, 4)
    @example(BLOCKS, 1, 300, 16)
    @example(BLOCKS, 1, 300, 23)
    @example(BLOCKS, 1, 300, 53)
    @example(MORE_BLOCKS, 1, 300, 9)
    @example(MORE_BLOCKS, 1, 300, 35)
    def test_goal_stop_is_a_prefix_of_the_search(self, net_m0, max_token, max_states, pick):
        net, m0 = net_m0
        expected, _ = reference_explore(net, m0, max_states, max_token)
        k = pick % len(expected)
        space = explore(net, m0, max_states, max_token, goal=expected[k])
        assert space.markings == frozenset(expected[: k + 1])
        assert space.status == "truncated(goal)"

    @given(nets_under_test, st.integers(1, 3), st.integers(1, 300), st.data())
    def test_unstored_goal_changes_nothing(self, net_m0, max_token, max_states, data):
        net, m0 = net_m0
        goal = Marking({p: data.draw(st.integers(0, 4)) for p in net.places[:6]})
        expected, status = reference_explore(net, m0, max_states, max_token)
        assume(goal not in expected)
        space = explore(net, m0, max_states, max_token, goal=goal)
        assert space.markings == frozenset(expected)
        assert space.status == status

    def test_goal_outside_the_places_is_never_stored(self):
        space = explore(T1, Marking({"a": 1}), goal=Marking({"elsewhere": 1}))
        assert space.status == "complete"
        assert len(space) == 2

    @given(nets_under_test, st.integers(1, 3), st.integers(1, 300))
    def test_state_equation_admits_every_stored_marking(self, net_m0, max_token, max_states):
        net, m0 = net_m0
        space = explore(net, m0, max_states=max_states, max_token=max_token)
        equation = StateEquation(net, m0)
        assert all(equation.admits(m) for m in space.markings)

    def test_state_equation_refutes_a_broken_invariant(self):
        equation = StateEquation(T1, Marking({"a": 1}))
        assert equation.admits(Marking({"b": 1}))
        assert not equation.admits(Marking({"a": 2}))
        assert not equation.admits(Marking({"a": 1, "b": 1}))
        assert not equation.admits(Marking({}))
        assert not equation.admits(Marking({"a": 1, "elsewhere": 1}))

    @given(weighted_nets(most=8), st.randoms(use_true_random=False))
    @example((PetriNet(("a", "b"), ("t",), {"t": {"a": 2}}, {"t": {"b": 3}}), Marking({"a": 2})),
             random.Random(0))
    def test_flows_decide_as_the_echelon_remainder(self, net_m0, rng):
        """``admits`` through the P-flows gives the verdict of the remainder
        of ``m - m0`` against the echelon basis, on arc weights 1-3, where
        back-substitution divides inexactly; every flow is orthogonal to
        every incidence column, one per position that keys no basis
        vector."""
        net, m0 = net_m0
        index = {p: i for i, p in enumerate(net.places)}
        columns, basis = [], {}
        for t in net.transitions:
            column = {}
            for p, w in net.pre_of(t).items():
                column[index[p]] = -w
            for p, w in net.post_of(t).items():
                column[index[p]] = column.get(index[p], 0) + w
            columns.append({i: x for i, x in column.items() if x})
            rest = _remainder(basis, columns[-1])
            if rest:
                basis[max(rest)] = rest
        flows = _flows(basis, len(net.places))
        assert len(flows) == len(net.places) - len(basis)
        assert all(sum(y.get(i, 0) * x for i, x in c.items()) == 0 for y in flows for c in columns)

        def echelon_admits(m: Marking) -> bool:
            diff = {}
            for p in m.support() | m0.support():
                if m[p] != m0[p]:
                    if p not in index:
                        return False
                    diff[index[p]] = m[p] - m0[p]
            return not _remainder(basis, diff)

        targets = [Marking({p: rng.randint(0, 4) for p in net.places}) for _ in range(20)]
        for _ in range(20):  # m0 plus a random firing count vector, when nonnegative
            tokens = dict(m0.items())
            for t in net.transitions:
                k = rng.randint(0, 2)
                for p, w in net.post_of(t).items():
                    tokens[p] = tokens.get(p, 0) + k * w
                for p, w in net.pre_of(t).items():
                    tokens[p] = tokens.get(p, 0) - k * w
            if min(tokens.values(), default=0) >= 0:
                targets.append(Marking(tokens))
        targets.append(Marking({**dict(m0.items()), "elsewhere": 1}))
        equation = StateEquation(net, m0)
        for target in targets:
            assert equation.admits(target) == echelon_admits(target), target

    @pytest.mark.parametrize("family", ["choice_loop", "diamond_chain"])
    def test_basis_of_a_wide_reduced_net_builds_fast(self, family):
        """``choice_loop``'s hub, shared by 4,000 transitions, must not become
        a pivot that every column is reduced against (about 10 s when it
        does)."""
        if family == "choice_loop":
            net, m0 = generators.choice_loop(2000).build()
        else:
            net, m0 = generators.diamond_chain(2000)
        result = reduce(net, m0)
        start = time.perf_counter()
        StateEquation(result.reduced_net, result.reduced_marking)
        assert time.perf_counter() - start < 1.0
