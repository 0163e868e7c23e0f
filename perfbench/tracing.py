"""Spans around calls into tfgkit's public functions, recorded from outside.

``Tracer.install`` swaps each traced function, wherever a tfgkit module holds
a reference to it, for a wrapper that records one span per call: name, op id,
parent span, start and end.  Recursive helpers (``bottom_up``, ``propagate``)
are not traced, so a span is one call a caller made into a layer.  Spans stay
in memory until ``dump``.  A layer's time is the self time of its spans: the
span's duration minus its traced children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> per-layer metric that the span's self time counts to.
# reductions.build_graph is a thin front of tfg.build, so both count as tfg.
LAYER_TIME = {
    ("tfgkit.net_io", "parse_net"): "net_io.parse_s",
    ("tfgkit.net_io", "parse_pnml"): "net_io.parse_s",
    ("tfgkit.net_io", "parse_equations"): "net_io.parse_s",
    ("tfgkit.net_io", "parse_matrix"): "net_io.parse_s",
    ("tfgkit.net_io", "parse_marking_query"): "net_io.parse_s",
    ("tfgkit.net_io", "write_net"): "net_io.write_s",
    ("tfgkit.net_io", "write_equations"): "net_io.write_s",
    ("tfgkit.net_io", "write_matrix"): "net_io.write_s",
    ("tfgkit.reductions", "reduce"): "reductions.reduce_s",
    ("tfgkit.reductions", "build_graph"): "tfg.build_s",
    ("tfgkit.tfg", "build"): "tfg.build_s",
    ("tfgkit.tfg", "check"): "tfg.build_s",
    ("tfgkit.petri", "explore"): "petri.explore_s",
    ("tfgkit.petri", "oracle_concurrency"): "petri.oracle_concurrency_s",
    ("tfgkit.petri", "is_safe"): "petri.other_s",
    ("tfgkit.petri", "oracle_reachable"): "petri.other_s",
    ("tfgkit.reach", "decide"): "reach.decide_s",
    ("tfgkit.reach", "project"): "reach.project_s",
    ("tfgkit.conc", "matrix"): "conc.matrix_s",
    ("tfgkit.conc", "partial_matrix"): "conc.partial_matrix_s",
    ("tfgkit.conc", "filling_ratio"): "conc.other_s",
    ("tfgkit.conc", "to_document"): "conc.other_s",
    ("tfgkit.conc", "from_document"): "conc.other_s",
    ("tfgkit.relation", "ConcurrencyMatrix.restrict"): "relation.restrict_s",
}

# self time of an op's root span: CLI glue and anything not traced above
OP_SELF = "cli.self_s"


def graph_depth(graph) -> int:
    """Longest path, in arcs, through the public ``topo_order``/``children``."""
    longest: dict[str, int] = {}
    for v in reversed(graph.topo_order):
        longest[v] = max((1 + longest.get(w, 0) for w in graph.children[v]), default=0)
    return max(longest.values(), default=0)


def _count_reduce(counts, args, result) -> None:
    counts["reductions.places_removed"] += len(args[0].places) - len(result.reduced_net.places)
    counts["reductions.equations"] += len(result.equations)


def _count_graph(counts, args, result) -> None:
    graph = result[0] if isinstance(result, tuple) else result
    counts["tfg.nodes"] = max(counts["tfg.nodes"], len(graph.nodes))
    counts["tfg.depth"] = max(counts["tfg.depth"], graph_depth(graph))


def _count_states(counts, args, result) -> None:
    counts["petri.states"] += len(result.markings)


def _count_verdict(counts, args, result) -> None:
    counts["reach.projection_failed"] += result.reason == "projection-failed"


def _count_writes(counts, args, result) -> None:
    counts["conc.writes"] += result.writes


def _count_partial(counts, args, result) -> None:
    counts["conc.writes"] += result.writes
    n = len(result.order)
    counts["conc.partial_known"] += 2 * result.known_count()
    counts["conc.partial_cells"] += n * n + n


COUNTERS = {
    ("tfgkit.reductions", "reduce"): _count_reduce,
    ("tfgkit.tfg", "build"): _count_graph,
    ("tfgkit.tfg", "check"): _count_graph,
    ("tfgkit.petri", "explore"): _count_states,
    ("tfgkit.reach", "decide"): _count_verdict,
    ("tfgkit.conc", "matrix"): _count_writes,
    ("tfgkit.conc", "partial_matrix"): _count_partial,
}


class Tracer:
    """In-memory spans for one benchmark process.

    A span is ``[name, op, parent, start, end, hook_s]``; op root spans are
    named ``op.<kind>``.  ``hook_s`` is time the counters above spent inside
    the span after a child returned: it is kept out of every self time but
    stays in wall time, so it shows in the trace overhead.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr in LAYER_TIME:
            module = sys.modules[module_name]
            name = f"{module_name}.{attr}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                self._patch(owner, method, self._wrap(name, getattr(owner, method), None))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, COUNTERS.get((module_name, attr)))
            for holder_name, holder in list(sys.modules.items()):
                if holder is None or holder_name.partition(".")[0] != "tfgkit":
                    continue
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _patch(self, holder, key: str, wrapper) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1]
            span = [name, tracer._op, parent, 0.0, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counts, args, result)
                tracer.spans[parent][5] += perf_counter() - span[4]
            return result

        return traced

    def begin_op(self, kind: str, net: str, probe: bool) -> None:
        self._op = len(self.ops)
        self.ops.append({"kind": kind, "net": net, "probe": probe, "span": len(self.spans)})
        self._stack = [len(self.spans)]
        self.spans.append([f"op.{kind}", self._op, None, perf_counter(), 0.0, 0.0])

    def end_op(self, error: str | None) -> None:
        op = self.ops[self._op]
        self.spans[op["span"]][4] = perf_counter()
        op["error"] = error
        self._stack = []
        self._op = None

    def layer_times(self) -> dict[int, dict[str, float]]:
        """Per op id, self seconds per layer metric (``OP_SELF`` for the root)."""
        metric_of = {f"{m}.{a}": metric for (m, a), metric in LAYER_TIME.items()}
        child = defaultdict(float)
        for name, op, parent, start, end, hook in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, (name, op, parent, start, end, hook) in enumerate(self.spans):
            metric = OP_SELF if parent is None else metric_of[name]
            out[op][metric] += end - start - child[sid] - hook
        return out

    def dump(self, path, meta: dict) -> None:
        keys = ("name", "op", "parent", "start", "end", "hook_s")
        spans = [{"id": sid, **dict(zip(keys, span))} for sid, span in enumerate(self.spans)]
        path.write_text(json.dumps({**meta, "ops": self.ops, "spans": spans}) + "\n")
