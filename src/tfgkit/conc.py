"""Place concurrency lifted through a token flow graph.

Given the exact concurrency relation of a safe reduced net over the graph
roots, ``matrix`` reconstructs the full relation over every node without
touching the original state space; the lifting rules assume one token per
place, and the relation of a net that is not safe can lift to wrong cells.
``partial_matrix`` does the same from incomplete root knowledge, writing 1s
by the same propagation and 0s by the least fixpoint of six sound inference
rules; cells it cannot settle stay unknown.
Both work on plain int rows, one 1-row and one 0-row per node, with bit
``i`` standing for ``graph.nodes[i]``: ``_seed`` writes the root relation
into them, :func:`propagate` reads the root facts back and ORs each cone
product into the 1-rows in one loop over the graph in topological order, so
depth costs no stack, and each lift turns its rows into one
:class:`ConcurrencyMatrix` at its end.

Constant roots follow the usual convention for safe nets: a positive constant
is always marked (concurrent with every nondead node), a zero constant is
dead.  A root relation that does not fit the graph or contradicts itself
raises :class:`InconsistentInputError`, a ``ValueError`` that the CLI's
``main`` reports as bad input (exit 2).
"""

from __future__ import annotations

from heapq import heappop, heappush

from tfgkit import tfg
from tfgkit.net_io import MatrixDocument
from tfgkit.relation import ConcurrencyMatrix, transpose


class IncompleteInputError(Exception):
    """Complete-mode input has unknown cells; use partial_matrix instead."""


class InconsistentInputError(ValueError):
    """The input lied: ``rel2`` does not cover the reduced places, holds a 1
    beside a dead root, or propagates a 1 onto a 0."""


def _seed(graph: tfg.TokenFlowGraph, rel2: ConcurrencyMatrix) -> tuple[list[int], list[int]]:
    """The 1-rows and 0-rows of the root facts of ``rel2`` over
    ``graph.nodes``; every other cell is unknown.

    ``rel2`` must cover exactly the non-constant roots, the reduced net's
    places, or :class:`InconsistentInputError` is raised.  A place with a 1
    in its row is marked, so it takes a 1 on its diagonal; a 1 beside a
    place that ``rel2`` holds dead is an error.  A positive constant is
    concurrent with itself, the other positive constants and every place
    marked on ``rel2``'s own diagonal; a zero constant is dead.  The 0s
    beside dead nodes are left to the callers.
    """
    if set(rel2.order) != set(graph.roots) - set(graph.constants):
        raise InconsistentInputError("rel2 order must match the reduced places")
    index = graph.index
    bits = [1 << index[v] for v in rel2.order]  # node bit of each rel2 position
    positive = sum(1 << index[v] for v, value in graph.constants.items() if value > 0)
    ones = [0] * len(graph.nodes)
    zeros = [0] * len(graph.nodes)
    marked = 0  # places that rel2 marks on their own diagonal
    for k, bit in enumerate(bits):
        row, zero = rel2.ones[k], rel2.known[k] & ~rel2.ones[k]
        if row and zero >> k & 1:
            v, w = rel2.order[k], rel2.order[(row & -row).bit_length() - 1]
            raise InconsistentInputError(f"cell ({v}, {w}) is 1 but {v} is dead")
        i = bit.bit_length() - 1
        ones[i] = _moved(row, bits) | (bit if row else 0)
        zeros[i] = _moved(zero, bits)
        if row >> k & 1:
            marked |= bit
            ones[i] |= positive
    for v, value in graph.constants.items():
        i = index[v]
        if value > 0:
            ones[i] = positive | marked
        else:
            zeros[i] = 1 << i
    return ones, zeros


def _moved(row: int, bits: list[int]) -> int:
    """``row`` with each set bit ``k`` moved to ``bits[k]``."""
    out = 0
    while row:
        low = row & -row
        out |= bits[low.bit_length() - 1]
        row ^= low
    return out


def propagate(
    graph: tfg.TokenFlowGraph, ones: list[int], zeros: list[int]
) -> tuple[list[int], int]:
    """The 1-rows ``ones`` ORed with the 1s that their root cells force,
    and the logical cell writes, |A|·|B| for a product of node sets A and B.

    Rows are ordered like ``graph.nodes``.  A pair of roots that ``ones``
    holds concurrent makes their successor cones pairwise concurrent.
    Under a root that it holds live (1 on the diagonal), each node is
    concurrent with its successors, and each redundancy arc ``v -> w``
    makes the successors of ``v`` outside the cone of ``w`` concurrent with
    those of ``w``.  Each fact is one row OR in one pass over
    ``graph.topo_order``: a node's row takes its cone, a mask in ``below``
    is pushed down to the rows of every successor at once, and one
    transpose writes the other side of the splits.  Only 1s are added, so
    calling it again on its own result changes nothing; a 1 on a 0 of
    ``zeros`` raises :class:`InconsistentInputError`.
    """
    index = graph.index
    succ = graph.successor_masks
    roots = [index[v] for v in graph.roots]
    root_mask = sum(1 << i for i in roots)
    below = [0] * len(graph.nodes)  # what every successor of a node meets
    writes = 0
    cone = 0
    for i in roots:
        row = ones[i]
        if row >> i & 1:
            cone |= succ[i]
        pairs = (row & root_mask) >> (i + 1) << (i + 1)  # concurrent roots after i
        while pairs:
            low = pairs & -pairs
            pairs ^= low
            j = low.bit_length() - 1
            below[i] |= succ[j]
            below[j] |= succ[i]
            writes += succ[i].bit_count() * succ[j].bit_count()
    rows = [0] * len(graph.nodes)
    split_seen = False
    parents, r_children = graph.parents, graph.r_children
    for v in graph.topo_order:
        i = index[v]
        for u in parents[v]:
            below[i] |= below[index[u]]
        if cone >> i & 1:
            rows[i] = succ[i]
            below[i] |= 1 << i
            writes += succ[i].bit_count()
            for w in r_children[v]:
                j = index[w]
                split = succ[i] & ~succ[j]
                below[j] |= split
                split_seen = True
                writes += split.bit_count() * succ[j].bit_count()
        rows[i] |= below[i]
    if split_seen:
        rows = [row | column for row, column in zip(rows, transpose(rows))]
    for i, (row, zero) in enumerate(zip(rows, zeros)):
        clash = row & zero
        if clash:
            v, w = graph.nodes[i], graph.nodes[(clash & -clash).bit_length() - 1]
            raise InconsistentInputError(f"cell ({v}, {w}) is both 0 and 1")
    return [one | row for one, row in zip(ones, rows)], writes


def matrix(graph: tfg.TokenFlowGraph, rel2: ConcurrencyMatrix) -> ConcurrencyMatrix:
    """Exact concurrency over all nodes from an exact root relation.

    ``rel2`` must be complete; every cell that propagation leaves unknown
    is 0.  Cell writes are bounded cubically in the node count: one
    expansion per node under a nondead root plus one product per concurrent
    root pair.
    """
    ones, zeros = _seed(graph, rel2)
    if not rel2.is_complete():
        raise IncompleteInputError("rel2 has unknown cells")
    ones, writes = propagate(graph, ones, zeros)
    out = ConcurrencyMatrix.from_rows(graph.nodes, ones)  # every other cell is 0
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
    1 beside a root that ``rel2`` holds dead, or a 1 propagated onto a known
    0, raises :class:`InconsistentInputError`.  Each settled cell counts as
    one write.
    """
    ones, zeros = _seed(graph, rel2)
    ones, _ = propagate(graph, ones, zeros)
    out = ConcurrencyMatrix.from_rows(graph.nodes, ones, _zero_fixpoint(graph, ones, zeros))
    out.writes = out.known_count()
    return out


def _zero_fixpoint(graph: tfg.TokenFlowGraph, ones: list[int], zeros: list[int]) -> list[int]:
    """The 0-rows ``zeros`` once every cell outside ``ones`` that the rules
    of ``partial_matrix`` force is settled as 0.

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
    index = graph.index
    full = (1 << len(graph.nodes)) - 1
    open_ = [full & ~one for one in ones]  # cells a 0 may settle
    zeros = list(zeros)
    rank = {v: r for r, v in enumerate(graph.topo_order)}
    groups = []  # (head, members, member mask), heads in topological order
    touching: list[list[int]] = [[] for _ in graph.nodes]  # the groups of a node
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
    return MatrixDocument(matrix.order, tuple(matrix.lower_rows()))


def from_document(doc: MatrixDocument) -> ConcurrencyMatrix:
    return ConcurrencyMatrix.from_lower_rows(doc.place_order, doc.rows)
