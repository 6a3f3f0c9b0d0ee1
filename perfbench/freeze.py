"""Write perfbench/references.json from the library as it stands.

    python3 perfbench/freeze.py

The references hold, for the recorded seeds, the equilibria, minima and
degenerate flag of every game the two solve workloads solve (the paper's
games do not depend on the seed), and the scan rows
``(n, c1, c2, g_n, abs_det, abs_k)`` for every family parameter the scan
workload can draw.  ``enumerated_supports`` and the ``wallclock_ms`` column
are left out on purpose.  Run it only to re-freeze after a deliberate
change of results, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import sys

from run import REFERENCES, SRC, import_nashrand
from spans import Untraced
import workloads

RECORDED_SEEDS = (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
SCAN_RANGES = {
    "beta": range(8, 152),
    "constsum-beta": range(8, 120),
    "primeblock": range(1, 13),
    "constsum-primeblock": range(1, 4),
}


def main() -> int:
    sys.path.insert(0, SRC)
    nr = import_nashrand()
    empty = {"seeds": [], "games": {}, "scan": {}}
    games = {}
    for seed in RECORDED_SEEDS:
        for name in ("solve-imitation", "solve-general"):
            wl = workloads.build(name, nr, seed, Untraced(), empty)
            for item in wl.items:
                game = nr.serialize.parse_game(item.text)
                report = nr.solving.support_enumeration(game)
                games[item.key] = {"label": item.label,
                                   **workloads.solve_result(report)}
    scan = {}
    for family, params in SCAN_RANGES.items():
        for k in params:
            row = nr.cli._scan_row(family, k)
            scan[f"{family}:{k}"] = workloads.scan_row(
                row["n"], row["c1"], row["c2"], row["g_n"], row["abs_det"],
                row["abs_k"])
    refs = {"seeds": list(RECORDED_SEEDS), "games": games, "scan": scan}
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(games)} games and {len(scan)} scan rows to "
          f"{os.path.relpath(REFERENCES)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
