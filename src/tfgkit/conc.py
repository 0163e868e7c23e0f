"""Place concurrency lifted through a token flow graph.

Given the exact concurrency relation of the reduced net over the graph roots,
``matrix`` reconstructs the full relation over every node without touching
the original state space.  ``partial_matrix`` does the same from incomplete
root knowledge, writing 1s by the same propagation and 0s by the least
fixpoint of six sound inference rules; cells it cannot settle stay unknown.
Both work on the bitset rows of :class:`ConcurrencyMatrix`, ordered like
``graph.nodes``: :func:`propagate` ORs each cone product into rows in one
loop over the graph in topological order, so the depth of the graph costs no
stack, and the zero fixpoint is a worklist of row operations.

Constant roots follow the usual convention for safe nets: a positive constant
is always marked (concurrent with every nondead node), a zero constant is
dead.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations

from tfgkit import tfg
from tfgkit.net_io import MatrixDocument
from tfgkit.relation import UNKNOWN, ConcurrencyMatrix, transpose


class IncompleteInputError(Exception):
    """Complete-mode input has unknown cells; use partial_matrix instead."""


class InconsistentInputError(Exception):
    """Propagation derived both 0 and 1 for one cell; the input lied."""


def _pair_value(graph: tfg.TokenFlowGraph, rel2: ConcurrencyMatrix, v: str, w: str) -> int | None:
    """Root relation extended to constant nodes; None when not derivable."""
    cv = graph.constants.get(v)
    cw = graph.constants.get(w)
    if cv is not None and cw is not None:
        if v == w:
            return 1 if cv > 0 else 0
        return 1 if (cv > 0 and cw > 0) else 0
    if cv is not None or cw is not None:
        const, other = (cv, w) if cv is not None else (cw, v)
        if const == 0:
            return 0
        alive = rel2.get(other, other)
        return None if alive is UNKNOWN else alive
    return rel2.get(v, w)


def propagate(graph: tfg.TokenFlowGraph, sources, value, out: ConcurrencyMatrix) -> int:
    """Write into ``out`` the 1s that the live ``sources`` force, in one pass.

    A source ``v`` is live when ``value(v, v) == 1``.  Every node in the
    union of the live sources' successor cones is expanded once, in
    ``graph.topo_order``: it is concurrent with each of its successors, and
    for every redundancy arc ``v -> w`` the two sides of the split,
    successors of ``v`` outside the cone of ``w`` against successors of
    ``w``, are pairwise concurrent.  Then each source pair with
    ``value(v, w) == 1`` makes the two cones pairwise concurrent.

    ``out`` is ordered like ``graph.nodes``.  Each fact is one row OR: a
    node's row takes its cone, and a mask in ``below`` is pushed down the
    graph to the rows of every successor at once.  Only the split goes into
    the rows of one side, and one transpose then writes its other side.
    The return value counts a product of node sets A and B as |A|·|B|
    logical cell writes.  Only 1s are written, so repeated calls are
    idempotent; a 1 on a known 0 raises :class:`InconsistentInputError`.
    """
    index = out.index
    succ = graph.successor_masks
    rows = [0] * len(graph.nodes)
    below = [0] * len(graph.nodes)  # what every successor of a node meets
    writes = 0
    split_seen = False
    cone = 0
    for v in sources:
        if value(v, v) == 1:
            cone |= succ[index[v]]
    for v in graph.topo_order:
        i = index[v]
        if not cone >> i & 1:
            continue
        rows[i] |= succ[i]
        below[i] |= 1 << i
        writes += succ[i].bit_count()
        for w in graph.r_children[v]:
            j = index[w]
            split = succ[i] & ~succ[j]
            below[j] |= split
            split_seen = True
            writes += split.bit_count() * succ[j].bit_count()
    for v, w in combinations(sources, 2):
        if value(v, w) == 1:
            i, j = index[v], index[w]
            below[i] |= succ[j]
            below[j] |= succ[i]
            writes += succ[i].bit_count() * succ[j].bit_count()
    for v in graph.topo_order:
        i = index[v]
        for u in graph.parents[v]:
            below[i] |= below[index[u]]
        rows[i] |= below[i]
    if split_seen:
        rows = [row | column for row, column in zip(rows, transpose(rows))]
    clash = out.add_ones(rows)
    if clash:
        raise InconsistentInputError(f"cell ({clash[0]}, {clash[1]}) is both 0 and 1")
    return writes


def matrix(graph: tfg.TokenFlowGraph, rel2: ConcurrencyMatrix) -> ConcurrencyMatrix:
    """Exact concurrency over all nodes from an exact root relation.

    ``rel2`` must be complete and cover exactly the non-constant roots (the
    reduced net's places), with no 1 in the row of a dead root.  Cell writes
    are bounded cubically in the node count: one expansion per node under a
    nondead root plus one product per concurrent root pair.
    """
    if set(rel2.order) != set(graph.roots) - set(graph.constants):
        raise ValueError("rel2 order must match the reduced places")
    if not rel2.is_complete():
        raise IncompleteInputError("rel2 has unknown cells")
    for i, v in enumerate(rel2.order):
        row = rel2.ones[i]
        if row and not row >> i & 1:
            w = rel2.order[(row & -row).bit_length() - 1]
            raise InconsistentInputError(f"cell ({v}, {w}) is 1 but {v} is dead")
    forced = ConcurrencyMatrix(graph.nodes)
    writes = propagate(graph, graph.roots, lambda v, w: _pair_value(graph, rel2, v, w), forced)
    out = ConcurrencyMatrix.from_rows(graph.nodes, forced.ones)  # every other cell is 0
    out.writes = writes
    return out


def partial_matrix(graph: tfg.TokenFlowGraph, rel2: ConcurrencyMatrix) -> ConcurrencyMatrix:
    """Best-effort concurrency from a partially known root relation.

    Known 1s are propagated exactly as in complete mode.  Known 0s spread to
    the least fixpoint of six safe-net rules: a dead node is nonconcurrent
    with everything; a group head is dead if all its members are, and its
    members are dead if it is; members of one group are mutually
    nonconcurrent; and a head is nonconcurrent with exactly whatever all its
    members are nonconcurrent with.  The rules only settle unknown cells.  A
    clash between the root facts, or a 1 propagated onto a known 0, raises
    :class:`InconsistentInputError`.  Each settled cell counts as one write.
    """
    if set(rel2.order) != set(graph.roots) - set(graph.constants):
        raise ValueError("rel2 order must match the reduced places")
    out = ConcurrencyMatrix(graph.nodes, fill=UNKNOWN)

    def settle(v: str, w: str, value: int) -> None:
        current = out.get(v, w)
        if current is UNKNOWN:
            out.set(v, w, value)
        elif current != value:
            raise InconsistentInputError(f"cell ({v}, {w}) is both {current} and {value}")

    # root seeding, with the invariant cell=1 => both diagonals 1
    roots = graph.roots
    for v, w in combinations(roots, 2):
        value = _pair_value(graph, rel2, v, w)
        if value is not UNKNOWN:
            settle(v, w, value)
            if value == 1:
                settle(v, v, 1)
                settle(w, w, 1)
    for v in roots:
        value = _pair_value(graph, rel2, v, v)
        if value is not UNKNOWN:
            settle(v, v, value)

    # 1-propagation from known-nondead roots
    propagate(graph, roots, out.get, out)

    out = ConcurrencyMatrix.from_rows(graph.nodes, out.ones, _zero_fixpoint(graph, out))
    out.writes = out.known_count()
    return out


def _zero_fixpoint(graph: tfg.TokenFlowGraph, out: ConcurrencyMatrix) -> list[int]:
    """Zero rows of ``out`` once every unknown cell that the rules of
    ``partial_matrix`` force is settled as 0.

    The rules are monotone, so their least fixpoint is unique and any order
    of application reaches it.  Each rule is an operation on whole zero
    rows: a dead row takes every open cell, a head takes the AND of its
    members' rows, members take their head's row, and the members of one
    group take each other.  A worklist holds the groups to visit, upper
    heads first; a group is queued again only when the zero row of its head
    or of a member grew.  Row operations write a cell into one of its two
    rows, so when the worklist drains, one transpose makes the rows
    symmetric, and every row that grows by it queues its groups again.
    """
    index = out.index
    open_ = [out.full & ~ones for ones in out.ones]  # cells a 0 may settle
    zeros = [known & ~ones for known, ones in zip(out.known, out.ones)]
    rank = {v: r for r, v in enumerate(graph.topo_order)}
    groups = []  # (head, members, member mask), heads in topological order
    touching: list[list[int]] = [[] for _ in out.order]  # the groups of a node
    for head, members in sorted(graph.groups, key=lambda group: rank[group[0]]):
        h, ms = index[head], [index[w] for w in members]
        pool = sum(1 << w for w in ms)
        for w in ms:  # members split one token pool
            zeros[w] |= pool & ~(1 << w) & open_[w]
            touching[w].append(len(groups))
        touching[h].append(len(groups))
        groups.append((h, ms, pool))
    dead = 0  # nodes whose zero row holds their own diagonal
    asymmetric = False  # a row grew without its mirror cells since the last transpose
    queue = list(range(len(groups)))  # a heap of group numbers
    queued = [True] * len(groups)

    def grow(i: int, new: int) -> None:
        """OR ``new`` into zero row ``i``, a dead row taking every open cell,
        and queue the groups of ``i`` again if the row grew."""
        nonlocal dead, asymmetric
        row = zeros[i] | (new & open_[i])
        if row >> i & 1:
            row |= open_[i]
            dead |= 1 << i
        if row == zeros[i]:
            return
        zeros[i] = row
        asymmetric = True
        for g in touching[i]:
            if not queued[g]:
                queued[g] = True
                heappush(queue, g)

    for i, row in enumerate(zeros):
        if row >> i & 1:  # dead from the start
            grow(i, 0)
    while True:
        while queue:
            g = heappop(queue)
            queued[g] = False
            h, ms, pool = groups[g]
            common = open_[h]
            for w in ms:
                common &= zeros[w]
            grow(h, common if pool & ~dead else common | 1 << h)
            down = zeros[h] | (dead >> h & 1) * pool
            for w in ms:
                grow(w, down)
        if not asymmetric:
            break
        for i, mirrored in enumerate(transpose(zeros)):
            grow(i, mirrored)
        asymmetric = False  # a mirror adds no diagonal, so the rows are symmetric now
    return zeros


def filling_ratio(matrix: ConcurrencyMatrix) -> float:
    """Share of known cells: 2k / (n^2 + n) for k known triangular cells."""
    n = len(matrix.order)
    if n == 0:
        return 1.0
    return 2 * matrix.known_count() / (n * n + n)


def to_document(matrix: ConcurrencyMatrix) -> MatrixDocument:
    return MatrixDocument(matrix.order, tuple(tuple(row) for row in matrix.lower_rows()))


def from_document(doc: MatrixDocument) -> ConcurrencyMatrix:
    return ConcurrencyMatrix.from_lower_rows(doc.place_order, ["".join(row) for row in doc.rows])
