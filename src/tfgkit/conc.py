"""Place concurrency lifted through a token flow graph.

Given the exact concurrency relation of the reduced net over the graph roots,
``matrix`` reconstructs the full relation over every node without touching
the original state space.  ``partial_matrix`` does the same from incomplete
root knowledge, writing 1s by the same propagation and 0s by a fixpoint of
six sound inference rules; cells it cannot settle stay unknown.  Both write
their 1s through :func:`propagate`, one loop over the graph in topological
order, so the depth of the graph costs no stack.

Constant roots follow the usual convention for safe nets: a positive constant
is always marked (concurrent with every nondead node), a zero constant is
dead.
"""

from __future__ import annotations

from itertools import combinations

from tfgkit import tfg
from tfgkit.net_io import MatrixDocument
from tfgkit.relation import UNKNOWN, ConcurrencyMatrix


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


def propagate(graph: tfg.TokenFlowGraph, sources, value, write) -> None:
    """Write the 1s that the live ``sources`` force, in one pass.

    A source ``v`` is live when ``value(v, v) == 1``.  Every node in the
    union of the live sources' successor cones is expanded once, in
    ``graph.topo_order``: it is concurrent with each of its successors, and
    for every redundancy arc ``v -> w`` the two sides of the split,
    successors of ``v`` outside the cone of ``w`` against successors of
    ``w``, are pairwise concurrent.  Then each source pair with
    ``value(v, w) == 1`` makes the two cones pairwise concurrent.
    ``write(a, b)`` records one 1; only 1s are written, so repeated calls
    are idempotent.
    """
    cone: set[str] = set()
    for v in sources:
        if value(v, v) == 1:
            cone |= graph.successors(v)
    for v in graph.topo_order:
        if v not in cone:
            continue
        succ_v = graph.successors(v)
        for w in succ_v:
            write(v, w)
        for w in graph.r_children[v]:
            succ_w = graph.successors(w)
            for a in succ_v - succ_w:
                for b in succ_w:
                    write(a, b)
    for v, w in combinations(sources, 2):
        if value(v, w) == 1:
            succ_w = graph.successors(w)
            for a in graph.successors(v):
                for b in succ_w:
                    write(a, b)


def matrix(graph: tfg.TokenFlowGraph, rel2: ConcurrencyMatrix) -> ConcurrencyMatrix:
    """Exact concurrency over all nodes from an exact root relation.

    ``rel2`` must be complete and cover exactly the non-constant roots (the
    reduced net's places).  Cell writes are bounded cubically in the node
    count: one expansion per node under a nondead root plus one product per
    concurrent root pair.
    """
    if set(rel2.order) != set(graph.roots) - set(graph.constants):
        raise ValueError("rel2 order must match the reduced places")
    if not rel2.is_complete():
        raise IncompleteInputError("rel2 has unknown cells")
    out = ConcurrencyMatrix(graph.nodes, fill=0)
    propagate(
        graph, graph.roots,
        lambda v, w: _pair_value(graph, rel2, v, w),
        lambda a, b: out.set(a, b, 1),
    )
    return out


def _checked_writer(out: ConcurrencyMatrix):
    def write(a: str, b: str, value: int) -> bool:
        current = out.get(a, b)
        if current is UNKNOWN:
            out.set(a, b, value)
            return True
        if current != value:
            raise InconsistentInputError(f"cell ({a}, {b}) is both {current} and {value}")
        return False

    return write


def partial_matrix(graph: tfg.TokenFlowGraph, rel2: ConcurrencyMatrix) -> ConcurrencyMatrix:
    """Best-effort concurrency from a partially known root relation.

    Known 1s are propagated exactly as in complete mode.  Known 0s spread by
    a fixpoint of six safe-net rules: a dead node is nonconcurrent with
    everything; a group head is dead iff all its members are dead; members of
    one group are mutually nonconcurrent; and a head is nonconcurrent with
    exactly whatever all its members are nonconcurrent with.  Any clash with
    an already known cell raises :class:`InconsistentInputError`.
    """
    if set(rel2.order) != set(graph.roots) - set(graph.constants):
        raise ValueError("rel2 order must match the reduced places")
    out = ConcurrencyMatrix(graph.nodes, fill=UNKNOWN)
    write = _checked_writer(out)

    # root seeding, with the invariant cell=1 => both diagonals 1
    roots = graph.roots
    for v, w in combinations(roots, 2):
        value = _pair_value(graph, rel2, v, w)
        if value is not UNKNOWN:
            write(v, w, value)
            if value == 1:
                write(v, v, 1)
                write(w, w, 1)
    for v in roots:
        value = _pair_value(graph, rel2, v, v)
        if value is not UNKNOWN:
            write(v, v, value)

    # 1-propagation from known-nondead roots
    propagate(graph, roots, out.get, lambda a, b: write(a, b, 1))

    _zero_fixpoint(graph, out, write)
    return out


def _zero_fixpoint(graph: tfg.TokenFlowGraph, out: ConcurrencyMatrix, write) -> None:
    nodes = graph.nodes
    groups = graph.groups
    changed = True
    while changed:
        changed = False
        for v in nodes:  # dead nodes are nonconcurrent with everything
            if out.get(v, v) == 0:
                for w in nodes:
                    if out.get(v, w) is UNKNOWN:
                        changed |= write(v, w, 0)
        for head, members in groups:
            if out.get(head, head) is UNKNOWN and all(
                out.get(w, w) == 0 for w in members
            ):
                changed |= write(head, head, 0)
            if out.get(head, head) == 0:
                for w in members:
                    if out.get(w, w) is UNKNOWN:
                        changed |= write(w, w, 0)
            for w, w2 in combinations(members, 2):  # members split one token pool
                if out.get(w, w2) is UNKNOWN:
                    changed |= write(w, w2, 0)
            for v in nodes:
                head_cell = out.get(head, v)
                if head_cell is UNKNOWN and all(out.get(w, v) == 0 for w in members):
                    changed |= write(head, v, 0)
                elif head_cell == 0:
                    for w in members:
                        if out.get(w, v) is UNKNOWN:
                            changed |= write(w, v, 0)


def filling_ratio(matrix: ConcurrencyMatrix) -> float:
    """Share of known cells: 2k / (n^2 + n) for k known triangular cells."""
    n = len(matrix.order)
    if n == 0:
        return 1.0
    return 2 * matrix.known_count() / (n * n + n)


def to_document(matrix: ConcurrencyMatrix) -> MatrixDocument:
    symbol = {1: "1", 0: "0", UNKNOWN: "."}
    rows = []
    for i, v in enumerate(matrix.order):
        rows.append(tuple(symbol[matrix.get(v, matrix.order[j])] for j in range(i + 1)))
    return MatrixDocument(matrix.order, tuple(rows))


def from_document(doc: MatrixDocument) -> ConcurrencyMatrix:
    value = {"1": 1, "0": 0, ".": UNKNOWN}
    out = ConcurrencyMatrix(doc.place_order, fill=UNKNOWN)
    for i, row in enumerate(doc.rows):
        for j, sym in enumerate(row):
            out.set(doc.place_order[i], doc.place_order[j], value[sym])
    out.writes = 0
    return out
