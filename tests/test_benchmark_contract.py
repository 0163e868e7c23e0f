"""The tfgkit names that the benchmark in ``perfbench/`` patches, reads and calls.

The tracer records spans by swapping tfgkit functions, looked up by module
and attribute name, for wrappers.  A renamed or moved function would break
``perfbench/run.py --trace 1`` without failing any other test, so these
tests pin the names from here.  The tracer is loaded from its source
without importing it as a module file, so no bytecode is written beside it.
"""

from __future__ import annotations

import importlib
import sys
import types
from pathlib import Path

import pytest

import tfgkit  # noqa: F401  (imports every traced module)
import tfgkit.cli  # noqa: F401
from tfgkit.relation import ConcurrencyMatrix

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def resolve(module_name: str, attr: str):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def tfgkit_namespaces() -> dict[str, dict]:
    """A copy of every loaded tfgkit module's namespace, and of the
    namespace of the one class whose method the tracer patches."""
    out = {
        name: dict(vars(module))
        for name, module in list(sys.modules.items())
        if module is not None and name.partition(".")[0] == "tfgkit"
    }
    out["ConcurrencyMatrix"] = dict(vars(ConcurrencyMatrix))
    return out


def test_every_traced_name_resolves(tracing):
    for module_name, attr in tracing.LAYER_TIME:
        assert callable(resolve(module_name, attr)), (module_name, attr)
    for module_name, attr in tracing.COUNTERS:
        assert callable(resolve(module_name, attr)), (module_name, attr)
    # a counter is installed only through its LAYER_TIME entry
    assert set(tracing.COUNTERS) <= set(tracing.LAYER_TIME)


def test_install_patches_every_name_and_uninstall_restores_it(tracing):
    before = tfgkit_namespaces()
    originals = {key: resolve(*key) for key in tracing.LAYER_TIME}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, original in originals.items():
            assert resolve(*key) is not original, key
    finally:
        tracer.uninstall()
    after = tfgkit_namespaces()
    assert after.keys() == before.keys()
    for name, namespace in before.items():
        assert after[name].keys() == namespace.keys(), name
        changed = [key for key, value in namespace.items() if after[name][key] is not value]
        assert not changed, (name, changed)


# ``perfbench/run.py`` drives the library directly, and the tracer's depth
# counter walks the graph through two of its public views: a rename breaks
# the benchmark, so each is used here the way the benchmark uses it.

# a2 -> a1 -> p1 -> p4 is the longest path: 3 arcs
DEEP_EQUATIONS = "# A |- a1 = p1 + p2\n# A |- a2 = a1 + p3\n# R |- p4 = p1\n"
DEEP_NET = "pl p1 1\npl p2 0\npl p3 0\npl p4 1\ntr t p1 p4 -> p2\ntr u p2 -> p3\ntr v p3 -> p1 p4\n"


def test_graph_depth_reads_children_and_topo_order(tracing):
    net, m0 = tfgkit.parse_net(DEEP_NET)
    closed_net, closed_m0 = tfgkit.parse_net("pl a2 1\n")
    closed = tfgkit.ReductionResult(
        closed_net, closed_m0, tuple(tfgkit.parse_equations(DEEP_EQUATIONS)), 0.0
    )
    graph = tfgkit.build_graph(net, closed)
    assert graph.topo_order[0] == "a2"
    assert graph.children["a2"] == ("p3", "a1")
    assert tracing.graph_depth(graph) == 3


def test_session_calls_resolve():
    assert isinstance(tfgkit.cli.NOMINAL_STATES_PER_SECOND, int)
    assert tfgkit.cli.NOMINAL_STATES_PER_SECOND > 0
    net, m0 = tfgkit.parse_net(DEEP_NET)
    result = tfgkit.reduce(net, m0)
    target = tfgkit.Marking({"p2": 1})
    assert tfgkit.decide(net, m0, target, result).answer == tfgkit.REACHABLE
    rel2 = tfgkit.ConcurrencyMatrix(("p", "q"), fill=0)
    rel2.set("p", "p", 1)
    rel2.set("q", "p", None)
    assert (rel2.get("p", "p"), rel2.get("p", "q"), rel2.get("q", "q")) == (1, None, 0)
