"""Place concurrency lifted through a token flow graph.

Given the exact concurrency relation of a safe reduced net over the graph
roots, ``matrix`` reconstructs the full relation over every node without
touching the original state space; the lifting rules assume one token per
place, and the relation of a net that is not safe can lift to wrong cells.
``partial_matrix`` does the same from incomplete root knowledge, writing 1s
by the same propagation and 0s by the least fixpoint of six sound inference
rules; cells it cannot settle stay unknown.  On a forest, a graph where no
node has two parents, as every graph the reducer writes, the fixpoint's 0s
are the cells outside the lift of an upper relation that reads the unknown
root cells as 1, and one more cone pass finds them; only a graph with a
node of two parents runs the rules.
Both work on plain int rows, one 1-row and one 0-row per node, with bit
``i`` standing for ``graph.nodes[i]``: ``_seed`` writes the root relation
into them, moving rel2's rows to node positions by one comprehension per
run of positions when the rows times the runs are at most the nodes, and
else by one transpose of the rows put at their node positions (two when
rel2 has unknown cells), so that the move never costs rows x runs.
:func:`propagate` reads the root facts back and ORs each cone product into
the 1-rows in one pass that pushes masks down the graph in topological
order, so depth costs no stack; the roots whose cone is only themselves
take part as one mask, and the cones of concurrent roots meet pair by pair
or, when the pairs outnumber the cones' nodes and the graph's, column-wise
through one transpose.  On a forest, ``partial_matrix`` then walks down
the trees whose roots the upper relation changes (:func:`_upper_cells`);
elsewhere it runs a worklist of equation groups to the zeros' fixpoint,
with one :func:`~tfgkit.relation.transpose` per round.  Each lift turns
its rows into one :class:`ConcurrencyMatrix` at its end.

Constant roots follow the usual convention for safe nets: a positive constant
is always marked (concurrent with every nondead node), a zero constant is
dead.  A root relation that does not fit the graph or contradicts itself
raises :class:`InconsistentInputError`, a ``ValueError`` that the CLI's
``main`` reports as bad input (exit 2); rows that are not symmetric raise
it already in :meth:`ConcurrencyMatrix.from_rows`.
"""

from __future__ import annotations

from tfgkit import tfg
from tfgkit.net_io import MatrixDocument
from tfgkit.relation import ConcurrencyMatrix, InconsistentInputError, _runs, transpose


class IncompleteInputError(Exception):
    """Complete-mode input has unknown cells; use partial_matrix instead."""


def _seed(graph: tfg.TokenFlowGraph, rel2: ConcurrencyMatrix) -> tuple[list[int], list[int]]:
    """The 1-rows and 0-rows of the root facts of ``rel2`` over
    ``graph.nodes``; every other cell is unknown.

    ``rel2`` must cover exactly the non-constant roots, the reduced net's
    places, or :class:`InconsistentInputError` is raised; its rows are
    symmetric, as :meth:`ConcurrencyMatrix.from_rows` checks.
    A place with a 1 in its row is marked, so it takes a 1 on its diagonal;
    a 1 beside a place that ``rel2`` holds dead is an error.  A positive
    constant is concurrent with itself, the other positive constants and
    every place marked on ``rel2``'s own diagonal; a zero constant is dead.
    The 0s beside dead nodes are left to the callers.
    """
    if set(rel2.order) != set(graph.roots) - set(graph.constants):
        raise InconsistentInputError("rel2 order must match the reduced places")
    index = graph.index
    nodes = [index[v] for v in rel2.order]  # node position of each rel2 position
    positive = sum(1 << index[v] for v, value in graph.constants.items() if value > 0)
    # rel2's 1-rows and 0-rows moved to node positions, by whichever route
    # takes fewer row operations: one comprehension per run of positions
    # that are adjacent in both orders, rows x runs of them, or about one
    # per node for a transpose
    runs = _runs(nodes)
    if len(nodes) * len(runs) <= len(graph.nodes):
        moved = [(0, 0)] * len(nodes)
        zero_rows = [known & ~one for known, one in zip(rel2.known, rel2.ones)]
        for source, target, mask in runs:
            moved = [(m1 | (one >> source & mask) << target, m0 | (zero >> source & mask) << target)
                     for (m1, m0), one, zero in zip(moved, rel2.ones, zero_rows)]
    else:
        # rel2's column k is its row k, so with each row put at its node
        # position, one transpose reads them all back with their bits at
        # node positions too; a second does the same for the settled cells
        placed = [0] * len(graph.nodes)
        for i, one in zip(nodes, rel2.ones):
            placed[i] = one
        moved_ones = transpose(placed)[: len(nodes)]
        if rel2.is_complete():  # every cell that is not 1 is 0
            spread = sum(1 << i for i in nodes)
            moved = [(one, spread & ~one) for one in moved_ones]
        else:
            for i, known in zip(nodes, rel2.known):
                placed[i] = known
            moved = [(one, known & ~one) for one, known in zip(moved_ones, transpose(placed))]
    ones = [0] * len(graph.nodes)
    zeros = [0] * len(graph.nodes)
    marked = 0  # places that rel2 marks on their own diagonal
    for i, (one, zero) in zip(nodes, moved):
        if one >> i & 1:  # marked on its own diagonal
            marked |= 1 << i
            one |= positive
        elif one:  # a 1 in its row marks it
            if zero >> i & 1:
                k = nodes.index(i)
                v, w = rel2.order[k], rel2.order[(rel2.ones[k] & -rel2.ones[k]).bit_length() - 1]
                raise InconsistentInputError(f"cell ({v}, {w}) is 1 but {v} is dead")
            one |= 1 << i
        ones[i] = one
        zeros[i] = zero
    for v, value in graph.constants.items():
        i = index[v]
        if value > 0:
            ones[i] = positive | marked
        else:
            zeros[i] = 1 << i
    return ones, zeros


def propagate(
    graph: tfg.TokenFlowGraph, ones: list[int], zeros: list[int]
) -> tuple[list[int], int]:
    """The 1-rows ``ones`` ORed with the 1s that their root cells force,
    and the logical cell writes, |A|·|B| for a product of node sets A and B.

    Rows are ordered like ``graph.nodes`` and symmetric, as :func:`_seed`
    leaves them.  A pair of roots that ``ones`` holds concurrent makes their
    successor cones pairwise concurrent.  Under a root that it holds live (1
    on the diagonal), each node is concurrent with its successors, and each
    redundancy arc ``v -> w`` makes the successors of ``v`` outside the cone
    of ``w`` concurrent with those of ``w``.  A root with children takes
    the lone roots concurrent with it, those whose cone is only themselves,
    as one mask, and every root takes the cones of the roots with children
    concurrent with it: one OR per pair (:func:`_by_pairs`), or, when the
    pairs outnumber the row operations of the other route, one OR per cone
    node and a transpose (:func:`_by_columns`).  The lone roots' cells with
    each other are already in ``ones`` and are only counted.  Then one pass
    over ``graph.topo_order`` ORs, at each node, the splits of its live
    redundancy parents into its mask in ``below``, gives its row its cone
    and that mask, and pushes the mask on to its children; one transpose
    writes the other side of the splits.  Only 1s are added, so calling it
    again on its own result changes nothing; a 1 on a 0 of ``zeros`` raises
    :class:`InconsistentInputError`.
    """
    index = graph.index
    succ = graph.successor_masks
    roots = [index[v] for v in graph.roots]
    lone, branch = [], []  # roots whose cone is only themselves, and the others
    for i in roots:
        (lone if succ[i] == 1 << i else branch).append(i)
    alone, branching = sum(1 << i for i in lone), sum(1 << i for i in branch)
    below = [0] * len(graph.nodes)  # what every successor of a node meets
    writes = 0
    cone = 0
    for i in lone:
        row = ones[i]
        cone |= row & 1 << i
        writes += ((row & alone) >> (i + 1)).bit_count()  # lone pairs: rel2's own cells
    size = {}  # per branching root, its cone's size
    pairs = 0  # the concurrent pairs of a branching root with another root
    for i in branch:
        row = ones[i]
        if row >> i & 1:
            cone |= succ[i]
        size[i] = n = succ[i].bit_count()
        below[i] |= row & alone  # the lone roots concurrent with it, as one mask
        met = (row & alone).bit_count()
        writes += n * met
        pairs += met + (row & branching).bit_count() // 2  # a pair of branching roots twice
    if size:
        writes += _meet_cones(succ, ones, roots, lone, branching, size, pairs, below)
    rows = [0] * len(graph.nodes)
    split_seen = False
    children, r_parents = graph.children, graph.r_parents
    for v in graph.topo_order:
        i = index[v]
        for u in r_parents[v]:
            k = index[u]
            if cone >> k & 1:
                split = succ[k] & ~succ[i]
                below[i] |= split
                split_seen = True
                writes += split.bit_count() * succ[i].bit_count()
        if cone >> i & 1:
            rows[i] = succ[i]
            below[i] |= 1 << i
            writes += succ[i].bit_count()
        rows[i] |= below[i]
        for w in children[v]:
            below[index[w]] |= below[i]
    if split_seen:
        rows = [row | column for row, column in zip(rows, transpose(rows))]
    for i, (row, zero) in enumerate(zip(rows, zeros)):
        clash = row & zero
        if clash:
            v, w = graph.nodes[i], graph.nodes[(clash & -clash).bit_length() - 1]
            raise InconsistentInputError(f"cell ({v}, {w}) is both 0 and 1")
    return [one | row for one, row in zip(ones, rows)], writes


def _meet_cones(succ: tuple[int, ...], ones: list[int], roots: list[int], lone: list[int],
                branching: int, size: dict[int, int], pairs: int, below: list[int]) -> int:
    """OR into ``below`` of each root of ``roots`` the cones of the
    branching roots that its row of ``ones`` holds concurrent with it, and
    return those pairs' writes.  ``lone`` holds the roots with a row whose
    cone is only themselves, ``size`` the cone size of each branching root
    with a row, and ``pairs`` counts the pairs of a branching root with
    another root.  The cones meet pair by pair (:func:`_by_pairs`), or
    column-wise (:func:`_by_columns`) when the pairs outnumber the row
    operations of that route: one per cone node, about one per node for its
    transpose, one per root for its masks, one per branching root and cone
    size for its writes."""
    if pairs <= sum(size.values()) + len(succ) + len(roots) + len(size) * len(set(size.values())):
        return _by_pairs(succ, ones, lone, branching, size, below)
    return _by_columns(succ, ones, roots, sum(1 << i for i in roots), size, below)


def _by_pairs(succ: tuple[int, ...], ones: list[int], lone: list[int], branching: int,
              size: dict[int, int], below: list[int]) -> int:
    """OR into ``below`` of each root the cones ``succ`` of the other roots
    of ``branching``, whose cone sizes ``size`` holds, that its row of
    ``ones`` holds concurrent with it, one OR per pair: a lone root of
    ``lone`` takes each one's, and each pair of branching roots is taken
    once, both ways.  Returns the writes of those pairs, |A|·|B| each."""
    for i in lone:
        pairs = ones[i] & branching
        while pairs:
            low = pairs & -pairs
            pairs ^= low
            below[i] |= succ[low.bit_length() - 1]
    writes = 0
    for i, n in size.items():
        pairs = (ones[i] & branching) >> (i + 1) << (i + 1)  # the concurrent ones after i
        while pairs:
            low = pairs & -pairs
            pairs ^= low
            j = low.bit_length() - 1
            below[i] |= succ[j]
            below[j] |= succ[i]
            writes += n * size[j]
    return writes


def _by_columns(succ: tuple[int, ...], ones: list[int], roots: list[int], rooted: int,
                size: dict[int, int], below: list[int]) -> int:
    """:func:`_by_pairs` column-wise, with ``rooted`` the mask of
    ``roots``.  The rows are symmetric, so a node of the cone of branching
    root ``j`` is met by every other root in ``j``'s row: one OR per cone
    node builds the columns, and one transpose turns them into each root's
    mask.  A branching root's pairs weigh the summed sizes of the branching
    roots in its row, one ``bit_count`` per cone size, less its own when it
    is live, and each pair is counted from both ends."""
    columns = [0] * len(succ)
    groups: dict[int, int] = {}  # cone size -> the branching roots with it
    for j, n in size.items():
        groups[n] = groups.get(n, 0) | 1 << j
        row = ones[j] & rooted & ~(1 << j)
        nodes = succ[j]
        while nodes:
            low = nodes & -nodes
            nodes ^= low
            columns[low.bit_length() - 1] |= row
    met = transpose(columns)
    for i in roots:
        below[i] |= met[i]
    writes = 0
    for i, n in size.items():
        row = ones[i]
        writes += n * (sum(s * (row & group).bit_count() for s, group in groups.items())
                       - (n if row >> i & 1 else 0))
    return writes // 2


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
    out = ConcurrencyMatrix._unchecked(graph.nodes, ones)  # every other cell is 0
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

    On a forest, a graph where no node has two parents, the fixpoint's 0s
    are the cells outside the lift of an upper relation, which
    :func:`_upper_cells` adds to the 1s in one more pass over the cones that
    it changes.  Every graph that :func:`~tfgkit.reductions.reduce` writes
    is a forest: it writes single-term redundancies and disjoint
    agglomerations only.  A node with two parents, from a hand-written
    redundancy of several terms, can settle more: in ``p2 = a2 + p0`` the
    two roots share one token pool whatever their own cell says.  Such a
    graph runs the rules to their fixpoint (:func:`_zero_fixpoint`).  The
    arcs tell the two apart: a forest has one arc into every node but the
    roots.
    """
    ones, zeros = _seed(graph, rel2)
    ones, _ = propagate(graph, ones, zeros)
    full = (1 << len(ones)) - 1
    if len(graph.r_arcs) + len(graph.a_arcs) == len(graph.nodes) - len(graph.roots):
        known = [full & ~(cells & ~one) if cells else full
                 for one, cells in zip(ones, _upper_cells(graph, ones, zeros))]
    else:
        known = [one | zero for one, zero in zip(ones, _zero_fixpoint(graph, ones, zeros))]
    out = ConcurrencyMatrix._unchecked(graph.nodes, ones, known)
    out.writes = out.known_count()
    return out


def _upper_cells(graph: tfg.TokenFlowGraph, ones: list[int], zeros: list[int]) -> list[int]:
    """On a forest, the 1s that the complete lift of the upper relation adds
    to ``ones``, the lift of :func:`_seed`'s 1s, as rows over
    ``graph.nodes`` that may repeat cells of ``ones``; the seed's ``zeros``
    hold the roots' 0s.

    The upper relation reads each unknown cell between two roots that
    ``zeros`` does not hold dead as 1, a positive constant's among them, and
    each such root's own diagonal as 1.  The rules settle exactly the cells
    outside its lift.  Each node has one parent, so the nodes below a root
    form a tree, and the only groups are the agglomerations' token pools and
    one-term copies.  A dead root's tree dies with it.  A 0 between two
    roots spreads down both trees, members taking their head's row.  Two
    nodes of one tree are apart exactly when they lie below two members of
    one pool.  None of that reaches a cell that some reading of the unknown
    root cells makes 1, and the upper relation holds every such reading at
    once.

    The lift adds only what the upper relation adds to the seed, ``extra``
    per root: a root meets the cones of the roots in its ``extra`` row, and
    a root that only ``extra`` makes live takes its cone's expansion, one
    walk down its tree from the root that hands each child its ancestors
    and, beside a redundancy child, the cones of its siblings.  A split's
    two sides are both siblings' cones, so no transpose is needed.
    """
    index, succ = graph.index, graph.successor_masks
    roots = [index[v] for v in graph.roots]
    live = sum(1 << i for i in roots if not zeros[i] >> i & 1)
    alone = sum(1 << i for i in roots if succ[i] == 1 << i)
    branching = sum(1 << i for i in roots) & ~alone
    extra = [0] * len(graph.nodes)
    lone, size, pairs = [], {}, 0  # as in propagate, for the roots with an extra row
    for i in roots:
        row = extra[i] = live & ~zeros[i] & ~ones[i] if live >> i & 1 else 0
        if not row:
            continue
        if succ[i] == 1 << i:
            lone.append(i)
        else:
            size[i] = succ[i].bit_count()
            pairs += (row & alone).bit_count() + (row & branching).bit_count() // 2
    cells = [0] * len(graph.nodes)
    if size:
        _meet_cones(succ, extra, roots, lone, branching, size, pairs, cells)
    for i in lone:
        cells[i] |= extra[i] & alone
    # (branching root, the cones its tree meets, whether only extra makes it live)
    walks = [(i, cells[i] | extra[i] & alone & ~(1 << i), extra[i] >> i & 1) for i in size]
    children, r_parents, nodes = graph.children, graph.r_parents, graph.nodes
    for i, met, live_cone in walks:
        tree = [nodes[i]]
        if not live_cone:  # every node of the tree meets the same cones
            for v in tree:  # the loop also reaches the nodes appended to it
                cells[index[v]] = met
                tree += children[v]
            continue
        # until its visit, a node's row holds what its parent hands it: the
        # cones met at the root, its ancestors and its splits' other sides
        cells[i] = met
        for v in tree:
            k = index[v]
            handed = cells[k] | 1 << k
            cells[k] = handed | succ[k]
            kids = children[v]
            if kids:
                copies = 0  # the cones of the redundancy children
                for w in kids:
                    if r_parents[w]:
                        copies |= succ[index[w]]
                for w in kids:
                    c = index[w]
                    cells[c] = handed | (succ[k] & ~succ[c] if r_parents[w] else copies)
                tree += kids
    return cells


def _zero_fixpoint(graph: tfg.TokenFlowGraph, ones: list[int], zeros: list[int]) -> list[int]:
    """The 0-rows ``zeros`` once every cell outside ``ones`` that the rules
    of ``partial_matrix`` force is settled as 0.

    The rules are monotone, so their least fixpoint is unique and any order
    of application reaches it.  Each rule is an operation on whole zero
    rows: a dead row takes every open cell, a head takes the AND of its
    members' rows, members take their head's row, and the members of one
    group take each other.  The worklist is a mask of group numbers, which
    run in topological order of the heads, and a visit takes the lowest:
    upper heads first.  A visit moves the members' rows up into the head's
    and then the head's down into the members'; after that a second visit
    would change nothing, so the rows it grows queue their other groups,
    and its own group again only when a member just died.  Row operations
    write a cell into one of its two rows, so when the worklist drains, one
    transpose makes the rows symmetric, and every row that grows by it
    queues its groups again.
    """
    index = graph.index
    full = (1 << len(graph.nodes)) - 1
    open_ = [full & ~one for one in ones]  # cells a 0 may settle
    zeros = list(zeros)
    groups = []  # (head, members, member mask), heads in topological order
    touching = [0] * len(graph.nodes)  # per node, the mask of its groups' numbers
    a_children, r_parents = graph.a_children, graph.r_parents
    for head, members in ((v, ws) for v in graph.topo_order for ws in (a_children[v], r_parents[v]) if ws):
        h, ms = index[head], [index[w] for w in members]
        pool = sum(1 << w for w in ms)
        for w in ms:  # members split one token pool
            zeros[w] |= pool & ~(1 << w) & open_[w]
            touching[w] |= 1 << len(groups)
        touching[h] |= 1 << len(groups)
        groups.append((h, ms, pool))
    dead = 0  # nodes whose zero row holds their own diagonal
    asymmetric = False  # a row grew without its mirror cells since the last transpose
    for i, row in enumerate(zeros):
        if row >> i & 1:  # dead from the start: every open cell
            dead |= 1 << i
            asymmetric |= row != row | open_[i]
            zeros[i] = row | open_[i]
    pending = (1 << len(groups)) - 1  # the worklist, lowest group number first
    while True:
        while pending:
            low = pending & -pending
            pending ^= low
            h, ms, pool = groups[low.bit_length() - 1]
            # up: the head takes what all members are nonconcurrent with,
            # and dies with the last of them
            row = open_[h]
            for w in ms:
                row &= zeros[w]
            if not pool & ~dead:
                row |= open_[h] & 1 << h
            row |= zeros[h]
            if row >> h & 1:
                row |= open_[h]
                dead |= 1 << h
            if row != zeros[h]:
                zeros[h] = row
                asymmetric = True
                pending |= touching[h] & ~low
            # down: the members take the head's row; this visit leaves
            # nothing for a second one unless a member died
            down = row | (dead >> h & 1) * pool
            for w in ms:
                row = zeros[w] | down & open_[w]
                if row != zeros[w]:
                    if row >> w & 1:
                        row |= open_[w]
                        dead |= 1 << w
                        pending |= low
                    zeros[w] = row
                    asymmetric = True
                    pending |= touching[w] & ~low
        if not asymmetric:
            break
        for i, mirrored in enumerate(transpose(zeros)):
            row = zeros[i] | mirrored & open_[i]  # a mirror adds no diagonal
            if row != zeros[i]:
                zeros[i] = row
                pending |= touching[i]
        asymmetric = False
    return zeros


def filling_ratio(matrix: ConcurrencyMatrix) -> float:
    """Share of known cells: 2k / (n^2 + n) for k known triangular cells."""
    n = len(matrix.order)
    if n == 0:
        return 1.0
    return 2 * matrix.known_count() / (n * n + n)


def to_document(matrix: ConcurrencyMatrix) -> MatrixDocument:
    """The lower triangle of ``matrix``: row ``i`` masked to columns 0..i."""
    masks = [(2 << i) - 1 for i in range(len(matrix.order))]
    known, ones = (tuple(map(int.__and__, rows, masks)) for rows in (matrix.known, matrix.ones))
    return MatrixDocument(matrix.order, known, ones)


def from_document(doc: MatrixDocument) -> ConcurrencyMatrix:
    """The symmetric matrix whose lower triangle ``doc`` holds."""
    known, ones = ([r | c for r, c in zip(rows, transpose(rows))] for rows in (doc.known, doc.ones))
    return ConcurrencyMatrix._unchecked(doc.place_order, ones, known)
