"""``scripts/bench_scaling.py`` at its smallest sizes, and the keys it writes;
and the committed ``BENCH_explore*.json`` pair against its families.

The script is loaded from its source without importing it as a module file,
so no bytecode is written beside it; the first test shrinks its families to
their smallest size and its repeats to one before running it.
"""

from __future__ import annotations

import json
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_scaling.py"


def load_script() -> types.ModuleType:
    module = types.ModuleType("bench_scaling")
    exec(compile(SCRIPT.read_text(), str(SCRIPT), "exec"), module.__dict__)
    return module


def test_smallest_sizes_write_one_row_per_family(tmp_path, capsys):
    module = load_script()
    module.REPEATS = 1
    module.FAMILIES = {f: (sizes[:1], build) for f, (sizes, build) in module.FAMILIES.items()}
    out = tmp_path / "BENCH_explore.json"
    assert module.main(["--output", str(out)]) == 0
    capsys.readouterr()
    document = json.loads(out.read_text())
    assert set(document) == {"command", "python", "machine", "repeats", "rows"}
    rows = document["rows"]
    assert [row["family"] for row in rows] == list(module.FAMILIES)
    keys = {"family", "size", "states", "status", "parse_s", "parse_min_s", "explore_s",
            "explore_min_s", "oracle_concurrency_s", "oracle_concurrency_min_s", "matrix_text_s",
            "matrix_text_min_s", "reduce_s", "reduce_min_s", "graph_s", "graph_min_s",
            "rel2_s", "rel2_min_s", "lift_s", "lift_min_s", "lift_text_s", "lift_text_min_s",
            "partial_s", "partial_min_s", "states_per_s", "reduced_places", "graph_nodes",
            "components", "component_states", "writes", "agree", "speedup"}
    for row in rows:
        assert set(row) == keys
        assert row["status"] == "complete"
        assert row["agree"] is True
        assert 0 <= row["explore_min_s"] <= row["explore_s"]
        assert 0 <= row["oracle_concurrency_min_s"] <= row["oracle_concurrency_s"]
        assert 0 <= row["matrix_text_min_s"] <= row["matrix_text_s"]
        assert 0 <= row["reduce_min_s"] <= row["reduce_s"]
        assert 0 <= row["graph_min_s"] <= row["graph_s"]
        assert 0 <= row["rel2_min_s"] <= row["rel2_s"]
        assert 0 <= row["lift_min_s"] <= row["lift_s"]
        assert 0 <= row["partial_min_s"] <= row["partial_s"]
        oracle = row["explore_min_s"] + row["oracle_concurrency_min_s"]
        accelerated = sum(row[f"{stage}_min_s"] for stage in ("reduce", "graph", "rel2", "lift"))
        assert row["speedup"] == oracle / accelerated
    assert [row["states"] for row in rows] == [51, 500, 2**8 + 2, 3**4, 11, 3, 501, 502]
    # the accelerated side's states: 2 for two_phase_branches(8) against
    # 2**8 + 2, and 4 components of 2 for diamond_chain(4) against 3**4
    by_family = {row["family"]: row for row in rows}
    assert [by_family["two_phase_branches"][key] for key in ("components", "component_states")] \
        == [1, 2]
    assert [by_family["diamond_chain"][key] for key in ("components", "component_states")] \
        == [4, 8]


def test_committed_pair_holds_the_families_rows():
    """The before and after files hold exactly the script's ``(family,
    size)`` rows, in its order, and agree on every row's states and
    status."""
    families = load_script().FAMILIES
    expected = [(family, size) for family, (sizes, _) in families.items() for size in sizes]
    before, after = (json.loads((ROOT / name).read_text())["rows"]
                     for name in ("BENCH_explore.before.json", "BENCH_explore.json"))
    for rows in (before, after):
        assert [(row["family"], row["size"]) for row in rows] == expected
        assert all((row["speedup"] is None) == (row["status"] != "complete") for row in rows)
    assert [(row["states"], row["status"]) for row in before] == \
        [(row["states"], row["status"]) for row in after]
