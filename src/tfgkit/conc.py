"""Place concurrency lifted through a token flow graph.

Given the exact concurrency relation of a safe reduced net over the graph
roots, ``matrix`` reconstructs the full relation over every node without
touching the original state space; the lifting rules assume one token per
place, and the relation of a net that is not safe can lift to wrong cells.
``partial_matrix`` does the same from incomplete root knowledge, writing 1s
by the same propagation and 0s by the least fixpoint of six sound inference
rules; cells it cannot settle stay unknown.

Both work on plain int rows, one 1-row and one 0-row per node, with bit
``i`` standing for ``graph.nodes[i]``, and read the graph by node
position.  ``_seed`` writes the root relation into them, and
:func:`propagate` reads the root facts back and ORs each cone product into
the 1-rows: the cones of concurrent roots meet pair by pair, or
column-wise through one transpose.  Below the roots, a forest, where no
node has two parents, as in every graph the reducer writes, is walked
down each live tree (:func:`_walk`), which writes both sides of every
redundancy split.  A graph with a node of two parents takes a pass in
topological order instead, and one transpose for the splits' other side.
On a forest, the 0s of ``partial_matrix`` are the cells outside the lift
of an upper relation that reads the unknown root cells as 1, which the
same walk finds on the trees that relation changes (:func:`_upper_cells`);
elsewhere a worklist of equation groups runs to the zeros' fixpoint, with
one :func:`~tfgkit.relation.transpose` per round.  No step recurses, and
each lift turns its rows into one :class:`ConcurrencyMatrix` at its end.

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
from tfgkit.relation import ConcurrencyMatrix, InconsistentInputError, _runs, _triangle_count, transpose


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
    of ``w`` concurrent with those of ``w``.  A root takes the lone roots
    concurrent with it, those whose cone is only themselves, as one mask,
    and the cones of the roots with children concurrent with it
    (:func:`_meet_cones`).  Below the live roots, a forest is walked down
    each tree (:func:`_walk`).  Any other graph takes one pass over
    ``graph.topo_positions`` that ORs, at each node, the splits of its live
    redundancy parents into its mask in ``below``, gives its row its cone
    and that mask, and pushes the mask on to its children; one transpose
    writes the other side of the splits.  Only 1s are added, so calling it
    again on its own result changes nothing; a 1 on a 0 of ``zeros`` raises
    :class:`InconsistentInputError`.
    """
    succ, roots = graph.successor_masks, graph.root_positions
    below = [0] * len(graph.nodes)  # what every successor of a node meets
    writes = _meet_cones(succ, ones, roots, below)
    live = [i for i in roots if ones[i] >> i & 1]
    if graph.is_forest:
        writes += _walk(graph, live, below)
        rows = below
    else:
        cone = 0  # the nodes below the live roots
        for i in live:
            cone |= succ[i]
        rows = [0] * len(graph.nodes)
        kids, r_parents, index, nodes = graph.child_positions, graph.r_parents, graph.index, graph.nodes
        for i in graph.topo_positions:
            for u in r_parents[nodes[i]]:
                k = index[u]
                if cone >> k & 1:
                    split = succ[k] & ~succ[i]
                    below[i] |= split
                    writes += split.bit_count() * succ[i].bit_count()
            if cone >> i & 1:
                rows[i] = succ[i]
                below[i] |= 1 << i
                writes += succ[i].bit_count()
            rows[i] |= below[i]
            for w in kids[i]:
                below[w] |= below[i]
        rows = [row | column for row, column in zip(rows, transpose(rows))]
    for i, (row, zero) in enumerate(zip(rows, zeros)):
        clash = row & zero
        if clash:
            v, w = graph.nodes[i], graph.nodes[(clash & -clash).bit_length() - 1]
            raise InconsistentInputError(f"cell ({v}, {w}) is both 0 and 1")
    return [one | row if one else row for one, row in zip(ones, rows)], writes


def _walk(graph: tfg.TokenFlowGraph, trees: list[int], rows: list[int]) -> int:
    """On a forest, give each node below the roots ``trees`` its cone, its
    ancestors and the other sides of its splits in ``rows``, where a root's
    row holds on entry what its whole tree meets; return the writes, each
    node's cone and each split times the cone beside it.

    Each node has one parent, so one walk down the trees hands each child
    its ancestors and, beside a redundancy child, its siblings' cones: the
    split of the arc into it, its parent's cone less its own.  A child that
    no redundancy arc enters takes the cones of its redundancy siblings, the
    other sides of their splits, so no transpose is needed.
    """
    succ, kids, redundant = graph.successor_masks, graph.child_positions, graph.redundant
    writes = 0
    tree = list(trees)  # the trees are disjoint, so one walk takes them all
    for k in tree:  # the loop also reaches the nodes appended to it
        handed = rows[k] | 1 << k  # until its visit, what its parent hands it
        cone = succ[k]
        rows[k] = handed | cone
        n = cone.bit_count()
        writes += n
        copies = 0  # the cones of the redundancy children
        for c in kids[k]:
            if redundant[c]:
                copies |= succ[c]
        for c in kids[k]:
            if redundant[c]:
                m = succ[c].bit_count()
                writes += (n - m) * m
                rows[c] = handed | cone ^ succ[c]
            else:
                rows[c] = handed | copies
        tree += kids[k]
    return writes


def _meet_cones(succ: tuple[int, ...], rows: list[int], roots: tuple[int, ...],
                below: list[int]) -> int:
    """OR into ``below`` of each root of ``roots`` the roots and the cones
    of the roots that its row of ``rows`` holds concurrent with it, and
    return those pairs' writes, a pair of lone roots, those whose cone is
    only themselves, counted once.  The lone roots take part as one mask.
    The cones of the branching roots, the others, meet pair by pair
    (:func:`_by_pairs`), or column-wise (:func:`_by_columns`) when the pairs
    outnumber the row operations of that route: one per cone node, about
    one per node for its transpose, one per root for its masks, one per
    branching root and cone size for its writes."""
    alone = sum(1 << i for i in roots if succ[i] == 1 << i)
    branching = sum(1 << i for i in roots) & ~alone
    lone, size = [], {}  # the roots with a row: the lone ones, and each branching one's cone size
    writes = pairs = 0  # pairs: of a branching root with another root
    for i in roots:
        row = rows[i]
        if not row:
            continue
        met = row & alone
        below[i] |= met
        if succ[i] == 1 << i:
            lone.append(i)
            writes += (met >> (i + 1)).bit_count()
        else:
            size[i] = n = succ[i].bit_count()
            writes += n * met.bit_count()
            pairs += met.bit_count() + (row & branching).bit_count() // 2  # two branching roots twice
    if not size:
        return writes
    if pairs <= sum(size.values()) + len(succ) + len(roots) + len(size) * len(set(size.values())):
        return writes + _by_pairs(succ, rows, lone, branching, size, below)
    return writes + _by_columns(succ, rows, roots, sum(1 << i for i in roots), size, below)


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

    On a forest (``graph.is_forest``), as every graph that the reducer
    writes, the fixpoint's 0s are the cells outside the lift of an upper
    relation, which :func:`_upper_cells` adds to the 1s in one more pass
    over the cones that it changes; the writes are the cells less the
    unknown ones, counted in the rows that pass changes, once for each tree
    whose nodes all share their root's row.  A node with two
    parents, from a hand-written redundancy of several terms, can settle
    more: in ``p2 = a2 + p0`` the two roots share one token pool whatever
    their own cell says.  Such a graph runs the rules to their fixpoint
    (:func:`_zero_fixpoint`).
    """
    ones, zeros = _seed(graph, rel2)
    ones, _ = propagate(graph, ones, zeros)
    if graph.is_forest:
        n, full = len(ones), (1 << len(ones)) - 1
        known, unknown = [full] * n, 0  # unknown: open cells, the diagonal's twice
        upper, trees = _upper_cells(graph, ones, zeros)
        for i, cells in enumerate(upper):
            if cells:
                cells &= ~ones[i]
                known[i] = full ^ cells
                unknown += cells.bit_count() + (cells >> i & 1)
        for tree in trees:  # each node's open cells are its root's, none on the diagonal
            row = known[tree[0]]
            for k in tree:
                known[k] = row
            unknown += (len(tree) - 1) * (full ^ row).bit_count()
        writes = n * (n + 1) // 2 - unknown // 2
    else:
        known = [one | zero for one, zero in zip(ones, _zero_fixpoint(graph, ones, zeros))]
        writes = _triangle_count(known)
    out = ConcurrencyMatrix._unchecked(graph.nodes, ones, known)
    out.writes = writes
    return out


def _upper_cells(graph: tfg.TokenFlowGraph, ones: list[int],
                 zeros: list[int]) -> tuple[list[int], list[list[int]]]:
    """On a forest, the 1s that the complete lift of the upper relation adds
    to ``ones``, the lift of :func:`_seed`'s 1s, as rows over
    ``graph.nodes`` that may repeat cells of ``ones``, and the trees of two
    nodes or more, each a list with its root first, whose nodes all take
    their root's row, which alone is filled; the seed's ``zeros`` hold the
    roots' 0s.

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
    per root: a root meets the cones of the roots in its ``extra`` row.  A
    root that ``ones`` holds live hands the same cones to its whole tree,
    so its tree is returned rather than its row copied: across trees the
    lift's 1s come only from root pairs, so the tree's nodes share the
    root's open cells too.  A root that only ``extra`` makes live takes its
    cone's expansion, by :func:`_walk`, which changes nothing else at a lone
    root.
    """
    succ, roots = graph.successor_masks, graph.root_positions
    live = sum(1 << i for i in roots if not zeros[i] >> i & 1)
    extra = [0] * len(graph.nodes)
    for i in roots:
        if live >> i & 1:
            extra[i] = live & ~zeros[i] & ~ones[i]
    cells = [0] * len(graph.nodes)
    _meet_cones(succ, extra, roots, cells)
    kids, trees = graph.child_positions, []
    for i in roots:
        # live in ones: each node of the tree meets what the root meets
        if kids[i] and extra[i] and not extra[i] >> i & 1:
            tree = [i]
            for k in tree:  # the loop also reaches the nodes appended to it
                tree += kids[k]
            trees.append(tree)
    _walk(graph, [i for i in roots if extra[i] >> i & 1], cells)
    return cells, trees


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
