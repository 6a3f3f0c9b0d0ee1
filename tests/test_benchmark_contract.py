"""The benchmark's own smoke test runs with the suite.

``perfbench`` calls library functions (``beta_ne``, ``recurrence_table``,
``cofactor_sum(..., method="solve")``, ``solving._enumerate.cache_clear``
and more) by name, so a change that drops or renames one of them must fail
here and not only when the benchmark runs.
"""

import json
import subprocess
import sys
from pathlib import Path

from nashrand import cli

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench",
         "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_scan_rows_reproduce_the_frozen_references():
    # perfbench/freeze.py reads cli._scan_row as a dict by these keys, and
    # the scan workload compares every row it computes with the frozen one
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())["scan"]
    assert refs
    for key, frozen in refs.items():
        family, _, param = key.rpartition(":")
        row = cli._scan_row(family, int(param))
        got = [str(row["n"]), str(row["c1"]), str(row["c2"]),
               None if row["g_n"] is None else str(row["g_n"]),
               str(row["abs_det"]), str(row["abs_k"])]
        assert got == frozen, key
