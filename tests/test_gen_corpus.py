"""``scripts/gen_corpus.py`` regenerates the bundled corpus byte for byte.

The script is loaded from its source without importing it as a module file,
so no bytecode is written beside it.
"""

from __future__ import annotations

import sys
import types

from conftest import CORPUS_DIR

SCRIPT = CORPUS_DIR.parent / "scripts" / "gen_corpus.py"


def test_script_writes_the_bundled_corpus(tmp_path, monkeypatch, capsys):
    module = types.ModuleType("gen_corpus")
    exec(compile(SCRIPT.read_text(), str(SCRIPT), "exec"), module.__dict__)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(tmp_path)])
    assert module.main() == 0
    capsys.readouterr()
    written = {path.name: path.read_bytes() for path in tmp_path.glob("*.net")}
    bundled = {path.name: path.read_bytes() for path in CORPUS_DIR.glob("*.net")}
    assert written.keys() == bundled.keys()
    for name in sorted(bundled):
        assert written[name] == bundled[name], name
