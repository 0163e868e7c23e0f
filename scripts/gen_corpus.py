#!/usr/bin/env python3
"""Regenerate the bundled corpus of safe nets.

Every instance is deterministic, 1-bounded, and explores to completion well
under 10^4 markings, so the oracle stays cheap in tests.  Run from the repo
root:

    python scripts/gen_corpus.py [corpus-dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from tfgkit import generators as gen
from tfgkit.net_io import parse_net, write_net
from tfgkit.petri import explore, is_safe


TINY_NETS = {
    "t1_trivial": "pl a 1\npl b 0\ntr t a -> b\n",
    "d1_duplicate": "pl p 1\npl q 0\npl r 0\ntr t p -> q r\n",
    "a1_chain": "pl x 1\npl y 0\npl z 0\ntr t1 x -> y\ntr t2 y -> z\n",
}


def instances():
    for name, text in TINY_NETS.items():
        yield name, parse_net(text)
    yield "m_motif", gen.m_motif()
    for k in (1, 2, 3):
        yield f"diamond_chain_{k}", gen.diamond_chain(k)
    for n in (3, 5, 8):
        yield f"ring_{n}", gen.ring(n).build()
    for w in (2, 3, 4):
        yield f"fork_join_{w}", gen.fork_join(w).build()
    for w in (2, 3, 4):
        yield f"two_phase_{w}", gen.two_phase_branches(w).build()
    for n in (2, 3, 4):
        yield f"choice_{n}", gen.choice_loop(n).build()
    for s in (1, 2, 3):
        yield f"ladder_{s}", gen.duplicate_ladder(s).build()
    for n in (2, 4, 6):
        yield f"chain_{n}", gen.chain_line(n).build()
    yield "isolated_small", gen.isolated_places(1, 1).build()
    yield "isolated_large", gen.isolated_places(3, 2).build()
    for seed in range(8):
        yield f"composite_{seed:02d}", gen.composite(seed, max_blocks=3)


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("corpus")
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, (net, m0) in instances():
        space = explore(net, m0, max_states=10_000, max_token=1)
        if not space.is_complete:
            raise SystemExit(f"{name}: state space {space.status}")
        if not is_safe(space):
            raise SystemExit(f"{name}: not safe")
        (out_dir / f"{name}.net").write_text(write_net(net, m0))
        count += 1
        print(f"{name}: {len(net.places)} places, {len(space)} states")
    print(f"wrote {count} nets to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
