"""The benchmark's own smoke test runs with the suite.

``perfbench`` calls library functions (``beta_ne``, ``recurrence_table``,
``cofactor_sum(..., method="solve")``, ``solving._enumerate.cache_clear``
and more) by name, so a change that drops or renames one of them must fail
here and not only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench",
         "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
