"""Token flow graphs: a DAG encoding of reduction equations.

Nodes are places of the original net, places of the reduced net, variables
introduced by agglomerations and fresh constant nodes.  A redundancy equation
``v = x1 + ... + xl`` contributes redundancy arcs ``xi -> v`` (v was removed
from the net); an agglomeration equation ``v = x1 + ... + xl`` contributes
agglomeration arcs ``v -> xi`` (the xi were removed, v inserted).  A valuation
of the roots then extends along the arcs to token counts for every removed
place, which is what makes projections and concurrency propagation cheap.
Walks read ``children``; the equation groups read ``a_children`` and
``r_parents``; the roots are the nodes that no arc enters.

The other way, a marking of the original places projects to the roots:
each agglomeration head sums the places below it, and the redundancy
groups must balance.  A graph compiles that projection once, on first use,
into a :class:`Projection` of linear terms, so a projected marking costs
the nodes above its marked places rather than the graph.

Construction settles two of the structural checks: the nodes are exactly the
places, the equations' variables and fresh constants (T1), and each
equation's arcs form one group, so groups and equations correspond one for
one unless two equations share a tag and a lhs (T4).  Acyclicity (T5) makes
every value a finite sum of root values.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from tfgkit.net_io import TaggedEquation
from tfgkit.petri import Marking

CHECK_IDS = ("T1", "T2", "T3", "T4", "T5", "T6")


class NotWellFormedError(Exception):
    """Graph violates one of the structural checks T1..T6."""

    def __init__(self, check_id: str, witness: tuple[str, ...], detail: str):
        self.check_id = check_id
        self.witness = witness
        self.detail = detail
        super().__init__(f"{check_id}: {detail}")


@dataclass(frozen=True, eq=True)
class TokenFlowGraph:
    """Immutable graph structure.  Use :func:`build` to construct and validate.

    Attributes
    ----------
    nodes:
        All node names in canonical order: original places first (their
        declaration order), then surviving extra places, then remaining
        variables sorted, then constant nodes.
    constants:
        Value of each constant node.
    r_arcs, a_arcs:
        Redundancy and agglomeration arcs as (source, target) pairs.
    p1, p2:
        Place sets of the original and the reduced net.

    Three adjacency views in node order are derived on first use:
    ``children`` over both arc kinds, and ``a_children`` and ``r_parents``,
    the members of the two kinds of equation group.  ``roots`` and
    ``topo_order`` read one count of incoming arcs.
    """

    nodes: tuple[str, ...]
    constants: Mapping[str, int]
    r_arcs: frozenset[tuple[str, str]]
    a_arcs: frozenset[tuple[str, str]]
    p1: frozenset[str]
    p2: frozenset[str]

    @cached_property
    def index(self) -> dict[str, int]:
        """Position of each node in ``nodes``."""
        return {v: i for i, v in enumerate(self.nodes)}

    def _adjacency(self, pairs: Iterable[tuple[str, str]]) -> dict[str, tuple[str, ...]]:
        """For each node ``v``, the ``w`` of every pair ``(v, w)``, in node order:
        the pairs are sorted once by the position of ``w``."""
        index = self.index
        out: dict[str, list[str]] = {v: [] for v in self.nodes}
        for v, w in sorted(pairs, key=lambda pair: index[pair[1]]):
            out[v].append(w)
        return {v: tuple(ws) for v, ws in out.items()}

    @cached_property
    def children(self) -> dict[str, tuple[str, ...]]:
        """Targets of outgoing arcs, both kinds, in node order."""
        return self._adjacency(self.r_arcs | self.a_arcs)

    @cached_property
    def a_children(self) -> dict[str, tuple[str, ...]]:
        return self._adjacency(self.a_arcs)

    @cached_property
    def r_parents(self) -> dict[str, tuple[str, ...]]:
        return self._adjacency((dst, src) for src, dst in self.r_arcs)

    @cached_property
    def _in_degree(self) -> Counter[str]:
        return Counter(dst for _, dst in self.r_arcs | self.a_arcs)

    @cached_property
    def roots(self) -> tuple[str, ...]:
        return tuple(v for v in self.nodes if not self._in_degree[v])

    @cached_property
    def topo_order(self) -> tuple[str, ...]:
        """Roots-first topological order; requires acyclicity (check T5)."""
        indeg = self._in_degree.copy()
        ready = deque(self.roots)
        order: list[str] = []
        while ready:
            v = ready.popleft()
            order.append(v)
            for w in self.children[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        return tuple(order)

    @cached_property
    def groups(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Equation groups (head, members): head's value equals the member sum.

        One group per agglomeration source (members: its agglomeration
        children) and one per redundancy target (members: its redundancy
        parents).
        """
        return tuple((v, members[v]) for members in (self.a_children, self.r_parents)
                     for v in self.nodes if members[v])

    def successors(self, v: str) -> frozenset[str]:
        """Reflexive-transitive closure along both arc kinds."""
        mask = self.successor_masks[self.index[v]]
        return frozenset(w for w, i in self.index.items() if mask >> i & 1)

    @cached_property
    def successor_masks(self) -> tuple[int, ...]:
        """``successors`` of each node, in node order, as a bitset over the
        positions of ``nodes``."""
        index = self.index
        succ = [0] * len(self.nodes)
        for v in reversed(self.topo_order):
            acc = 1 << index[v]
            for w in self.children[v]:
                acc |= succ[index[w]]
            succ[index[v]] = acc
        return tuple(succ)

    @cached_property
    def projection(self) -> Projection:
        """The :class:`Projection` of this graph, compiled on first use."""
        return Projection(self)


def _fresh_constant_names(equations, used: set[str]) -> dict[int, str]:
    """Deterministic constant node names, one per constant equation.

    Indexed by equation position; names k0, k1, ... are assigned in sorted
    order of the defining lhs so that permuting the equation list cannot
    change them.
    """
    const_positions = [i for i, eq in enumerate(equations) if eq.constant is not None]
    const_positions.sort(key=lambda i: (equations[i].lhs, equations[i].constant))
    names: dict[int, str] = {}
    counter = 0
    for pos in const_positions:
        while f"k{counter}" in used:
            counter += 1
        names[pos] = f"k{counter}"
        used.add(names[pos])
        counter += 1
    return names


def _construct(
    equations: tuple[TaggedEquation, ...],
    p1: Iterable[str],
    p2: Iterable[str],
) -> TokenFlowGraph:
    p1 = tuple(p1)
    p2 = tuple(p2)
    fv: set[str] = set()
    for eq in equations:
        fv.add(eq.lhs)
        fv.update(eq.terms)
    used = set(p1) | set(p2) | fv
    cnames = _fresh_constant_names(equations, used)

    constants: dict[str, int] = {}
    r_arcs: set[tuple[str, str]] = set()
    a_arcs: set[tuple[str, str]] = set()
    for i, eq in enumerate(equations):
        if eq.constant is not None:
            rhs: tuple[str, ...] = (cnames[i],)
            constants[cnames[i]] = eq.constant
        else:
            rhs = eq.terms
        if eq.tag == "R":
            r_arcs.update((x, eq.lhs) for x in rhs)
        else:
            a_arcs.update((eq.lhs, x) for x in rhs)

    p1_set, p2_set = set(p1), set(p2)
    nodes = list(p1)
    nodes.extend(p for p in p2 if p not in p1_set)
    nodes.extend(sorted(fv - p1_set - p2_set))
    nodes.extend(cnames[i] for i in sorted(cnames, key=lambda i: cnames[i]))
    return TokenFlowGraph(
        nodes=tuple(nodes),
        constants=constants,
        r_arcs=frozenset(r_arcs),
        a_arcs=frozenset(a_arcs),
        p1=frozenset(p1_set),
        p2=frozenset(p2_set),
    )


def build(
    equations: Iterable[TaggedEquation],
    p1: Iterable[str],
    p2: Iterable[str],
) -> TokenFlowGraph:
    """Construct the graph for ``equations`` and validate it.

    ``p1`` and ``p2`` are the ordered place lists of the original and the
    reduced net.  Raises :class:`NotWellFormedError` naming the first failed
    check.
    """
    graph, found = check(equations, p1, p2)
    if found:
        raise found[0]
    return graph


def check(
    equations: Iterable[TaggedEquation],
    p1: Iterable[str],
    p2: Iterable[str],
) -> tuple[TokenFlowGraph, list[NotWellFormedError]]:
    """Like :func:`build` but returns every violation instead of raising,
    in check order T2..T6.  T1 holds by construction, and T4 fails exactly
    when two equations share a tag and a lhs, since their arcs then merge
    into one group."""
    equations = tuple(equations)
    graph = _construct(equations, p1, p2)
    found: list[NotWellFormedError] = []

    def fail(check_id: str, witness: tuple[str, ...], detail: str) -> None:
        found.append(NotWellFormedError(check_id, witness, detail))

    node_set = set(graph.nodes)
    const_set = set(graph.constants)

    for c in sorted(const_set):
        if graph._in_degree[c]:
            fail("T2", (c,), f"constant {c} has an incoming arc")

    both = graph.r_arcs & graph.a_arcs
    for src, dst in sorted(both):
        fail("T3", (src, dst), f"arc {src}->{dst} is both redundancy and agglomeration")
    a_targets = {dst for _, dst in graph.a_arcs}
    for v in graph.nodes:
        if v in a_targets and graph._in_degree[v] > 1:
            parents = {src for src, dst in graph.r_arcs | graph.a_arcs if dst == v}
            fail("T3", (v, *sorted(parents, key=graph.index.__getitem__)),
                 f"{v} has an incoming agglomeration arc plus another incoming arc")

    heads = Counter((eq.tag, eq.lhs) for eq in equations)
    repeated = [lhs for (_, lhs), count in heads.items() if count > 1]
    if repeated:
        fail("T4", (min(repeated),), "arc groups do not correspond one for one with the equations")

    if len(graph.topo_order) != len(graph.nodes):
        stuck = tuple(sorted(node_set - set(graph.topo_order)))
        fail("T5", stuck, f"cycle through {stuck}")
        return graph, found  # closure-based checks below assume acyclicity

    root_places = set(graph.roots) - const_set
    if root_places != graph.p2:
        extra = tuple(sorted(root_places ^ graph.p2))
        fail("T6", extra, f"roots differ from reduced places on {extra}")
    leaf_places = node_set - {src for src, _ in graph.a_arcs} - const_set
    if leaf_places != graph.p1:
        extra = tuple(sorted(leaf_places ^ graph.p1))
        fail("T6", extra, f"leaves differ from original places on {extra}")
    return graph, found


# ---------------------------------------------------------------------------
# configurations

Configuration = Mapping[str, int]  # partial: absent nodes are undefined


def is_well_defined(graph: TokenFlowGraph, c: Configuration) -> bool:
    """Check a partial valuation against the graph.

    Along every arc both ends must be defined or both undefined; every defined
    group head must equal the sum of its members; defined constants must hold
    their stored value.  Every arc joins a group's head to one of its members
    (``v -> w`` lies in ``v``'s agglomeration group, ``x -> v`` in ``v``'s
    redundancy group), so one pass over the groups covers the arcs.
    """
    for head, members in graph.groups:
        if head in c:
            if any(x not in c for x in members) or c[head] != sum(c[x] for x in members):
                return False
        elif any(x in c for x in members):
            return False
    for name, value in graph.constants.items():
        if name in c and c[name] != value:
            return False
    return True


class Projection:
    """The projection of original markings onto the reduced places, compiled
    once for a graph that passed :func:`build`; see :func:`tfgkit.reach.project`.

    On such a graph every node is an original place, a constant or the
    source of agglomeration arcs (T6), and each agglomeration target has a
    unique parent (T3): the agglomeration arcs form a forest whose leaves
    are original places.  Reading the graph bottom-up from a marking, a node
    takes the summed counts of the places below it, so the agglomeration
    groups hold by construction and a node no marked place lies below holds
    zero.  What is left of :func:`is_well_defined` is a static verdict,
    whether the defined nodes meet every arc at both ends or neither, and
    the redundancy groups: each group's residual, its head's value minus its
    members' sum, is a constant offset (its constant members) plus one term
    per node in it.

    A query adds each marked place's count to the place and to its
    ancestors, visiting every touched node once: the walks up from the
    marked places stop at a node an earlier walk reached, and the touched
    nodes then pass their sums to their parents children first, by their
    position in ``topo_order``.  The residuals of the touched nodes' groups
    are checked, and the touched roots read off."""

    __slots__ = ("p1", "p2", "parent", "rank", "terms", "offsets", "defined")

    def __init__(self, graph: TokenFlowGraph):
        self.p1 = graph.p1
        self.p2 = graph.p2
        self.parent = {w: v for v, w in graph.a_arcs}
        self.rank = {v: i for i, v in enumerate(graph.topo_order)}
        constants = graph.constants
        defined = graph.p1 | constants.keys() | {v for v, _ in graph.a_arcs}
        arcs = graph.r_arcs | graph.a_arcs
        self.defined = all((v in defined) == (w in defined) for v, w in arcs)
        terms: dict[str, list[tuple[str, int]]] = {}
        offsets: dict[str, int] = {}
        for x, head in graph.r_arcs:
            if head not in offsets:  # a constant never heads a group (T2)
                offsets[head] = 0
                terms.setdefault(head, []).append((head, 1))
            if x in constants:
                offsets[head] -= constants[x]
            else:
                terms.setdefault(x, []).append((head, -1))
        self.terms = terms
        self.offsets = {head: r for head, r in offsets.items() if r}

    def __call__(self, target: Marking) -> Marking | None:
        marked = target._tokens
        if not self.p1.issuperset(marked):
            raise ValueError(f"target mentions non-places {sorted(marked.keys() - self.p1)}")
        if not self.defined:
            return None
        parent = self.parent
        value = dict(marked)
        for p in marked.keys() & parent.keys():
            v = parent[p]
            while v is not None and v not in value:
                value[v] = 0
                v = parent.get(v)
        for v in sorted(value.keys() & parent.keys(), key=self.rank.__getitem__, reverse=True):
            value[parent[v]] += value[v]
        residual = self.offsets.copy()
        terms = self.terms
        for v in value.keys() & terms.keys():
            n = value[v]
            for head, sign in terms[v]:
                residual[head] = residual.get(head, 0) + sign * n
        if any(residual.values()):
            return None
        p2 = self.p2
        return Marking({v: n for v, n in value.items() if v in p2})


def restrict(c: Configuration, places: Iterable[str]) -> Marking:
    """Marking over ``places`` read off a configuration."""
    return Marking({p: c[p] for p in places})


def _root_values(graph: TokenFlowGraph, roots: Configuration) -> dict[str, int]:
    given = {name: int(value) for name, value in roots.items()}
    root_set = set(graph.roots)
    for name, value in given.items():
        if name not in root_set:
            raise ValueError(f"{name!r} is not a root of the graph")
        if value < 0:
            raise ValueError(f"negative value for root {name!r}")
        if name in graph.constants and value != graph.constants[name]:
            raise ValueError(f"constant {name} pinned to a different value")
    return {v: graph.constants.get(v, given.get(v, 0)) for v in graph.roots}


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` naturals summing to ``total``, lexicographic.

    Stars and bars: the part sizes are the gaps between ``parts - 1`` bars
    drawn from ``total + parts - 1`` slots in lexicographic order.  There is
    no recursion, so a wide agglomeration costs no stack.
    """
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


def enumerate_extensions(
    graph: TokenFlowGraph,
    roots: Configuration,
) -> list[dict[str, int]]:
    """All total well-defined configurations extending a root valuation.

    ``roots`` assigns the non-constant roots (absent reduced places count as
    zero); constants are filled in automatically.  Token counts split over
    agglomeration children in every possible way, enumerated lexicographically
    in node order, so the result is exhaustive and duplicate free.  The graph
    is acyclic (check T5), so every value is a finite sum of root values and
    the enumeration is finite.
    """
    base = _root_values(graph, roots)
    configs: list[dict[str, int]] = [base]
    for v in graph.topo_order:
        r_parents = graph.r_parents[v]
        splits = graph.a_children[v]
        next_configs: list[dict[str, int]] = []
        for cfg in configs:
            if r_parents:  # roots and agglomeration targets are already set
                cfg[v] = sum(cfg[x] for x in r_parents)
            if splits:
                for parts in _compositions(cfg[v], len(splits)):
                    branch = dict(cfg)
                    branch.update(zip(splits, parts))
                    next_configs.append(branch)
            else:
                next_configs.append(cfg)
        configs = next_configs
    return configs

