"""Net semantics, exploration, the state equation and the brute-force oracles."""

import random
import time
from collections import deque

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import side_by_side
from tfgkit import generators
from tfgkit.petri import (
    IncompleteStateSpaceError,
    Marking,
    NotEnabledError,
    PetriNet,
    StateEquation,
    _compile,
    _Packing,
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
def weighted_nets(draw):
    n_places = draw(st.integers(1, 5))
    places = tuple(f"p{i}" for i in range(n_places))
    transitions = tuple(f"t{i}" for i in range(draw(st.integers(0, 5))))
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
# 27 transitions: the chain's enabled one in window 0 and the loop's in
# windows 2 and 3 leave window 1 empty
WINDOWS = side_by_side(generators.chain_line(20), generators.choice_loop(3))


# Nets on which the concurrency rows merge markings that share their upper
# places, and nets on which they cannot:
TWO_PHASE_BY_RING = side_by_side(generators.two_phase_branches(3), generators.ring(3))
TWO_TOKENS = generators.ring(3, "w")  # 6 markings, 2 tokens on one place in 3 of them
TWO_TOKENS.tokens["w_p0"] = 2
BOUNDED_BY_RING = side_by_side(TWO_TOKENS, generators.ring(3))
LONE_UPPER = (  # {b} lies above a, the lowest place of the highest marking {a, c}
    PetriNet(("a", "b", "c"), ("t",), {"t": {"a": 1, "c": 1}}, {"t": {"b": 1}}),
    Marking({"a": 1, "c": 1}),
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
    @example(MUTEX, 1, 300)
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
        with pre {hub: 1}: its move re-tests them with one test, beside the
        one of its own place."""
        net, m0 = generators.choice_loop(50).build()
        _, windows = _compile(net, _Packing(net.places, 2), m0._tokens)
        moves = dict(zip(net.transitions, (move for (move,) in windows.values())))
        for i in range(50):
            _, _, tests, shared = moves[f"c_back{i}"]
            assert len(tests) == 2 and not shared
            assert sum(bits.bit_count() for _, bits in tests) == 51

    def test_hub_compiles_to_memory_linear_in_the_arcs(self):
        """200 writers refill a hub that 200 readers read, each with a place
        of its own beside it, and 200 more read with pre {hub: 1}.  The
        hub's 201 tests are one shared list, not a copy in each of the 400
        moves that change the hub, and the ``go`` transitions, declared
        among the others, still share one test."""
        n = 200
        pre, post = {}, {}
        for i in range(n):
            pre[f"read{i}"], post[f"read{i}"] = {"hub": 1, f"x{i}": 1}, {f"y{i}": 1}
            pre[f"write{i}"], post[f"write{i}"] = {f"y{i}": 1}, {"hub": 1, f"x{i}": 1}
            pre[f"go{i}"], post[f"go{i}"] = {"hub": 1}, {f"y{i}": 1}
        places = ("hub", *(f"x{i}" for i in range(n)), *(f"y{i}" for i in range(n)))
        net = PetriNet(places, tuple(pre), pre, post)
        _, windows = _compile(net, _Packing(net.places, 2), {"hub": 1, "x0": 1})
        moves = [move for (move,) in windows.values()]
        assert len(moves) == 3 * n
        shared = {id(group): group for _, _, _, groups in moves for group in groups}
        assert [len(group) for group in shared.values()] == [n + 1]
        entries = sum(len(tests) for _, _, tests, _ in moves) + sum(map(len, shared.values()))
        arcs = sum(len(arcs) for side in (pre, post) for arcs in side.values())
        assert entries <= 2 * arcs

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
    @example(MUTEX, 1, 300, 6)
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
