"""The benchmark's own self-test, run as part of the suite.

``bench/`` reads public names of the package (``Spectrum.residual``,
``containment_slack``, the traced functions, ...).  Running its tiny-size
self-test here makes a change that breaks one of them fail the tests rather
than the next benchmark run.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "0 self-test failure(s)" in proc.stdout
