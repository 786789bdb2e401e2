"""Record the reference outputs the benchmark compares against: ``bench/reference.json``.

    python3 bench/record_reference.py

Runs one full pass of every workload in record mode and stores each gated
output (CLI CSV bodies without ``#`` lines, spectra, variance values with
their brackets).  Re-recording changes what "correct" means, so it belongs
in a change that declares which outputs moved and why.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))

from tally import Tally  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    warnings.simplefilter("ignore")
    recorded = {}
    for name, cls in WORKLOADS.items():
        tally = Tally(reference=None)
        cls(seed=1).run_pass(tally)
        if tally.gate_failures:
            print(f"{name}: gated checks failed, nothing written:", *tally.gate_failures,
                  sep="\n  ", file=sys.stderr)
            return 1
        recorded.update(tally.recorded)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(recorded, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} references to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
