"""Fast self-test of the benchmark machinery, every workload at tiny size.

    python3 bench/selftest.py

For each workload it checks that one pass recorded in record mode is
correct against itself, that an exception raised inside a wigosc call and
an output checked against a deliberately wrong reference are each counted
as failed operations without stopping the pass, and that a traced pass
yields every per-layer metric ``BENCHMARK.json`` lists and leaves wigosc
unpatched.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH.parent / "src"))

import wigosc  # noqa: E402
from wigosc import langevin, observables, phaseops  # noqa: E402

from layers import layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from tally import Tally  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a function each workload calls, made to raise
INJECT = {"sweep": (observables, "energy_generating_function"),
          "operators": (phaseops, "variance_diagonal_table"),
          "oracle_wide": (langevin, "compare_to_propagator")}

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
failures = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def _raise(*args, **kwargs):
    raise RuntimeError("injected failure")


def _corrupt(recorded: dict) -> dict:
    """Copy of ``recorded`` with one number of the first reference off by 1e-9 relative."""
    wrong = copy.deepcopy(recorded)
    for cols in wrong[sorted(wrong)[0]]:
        if cols and isinstance(cols[-1], float) and cols[-1] != 0.0:
            cols[-1] *= 1.0 + 1e-9
            return wrong
    raise AssertionError("no numeric column to corrupt")


def check_workload(name: str, cls) -> None:
    workload = cls(seed=3, tiny=True)
    workload.warmup()
    record = Tally(reference=None)
    workload.run_pass(record)
    base = Tally(reference=record.recorded)
    workload.run_pass(base)
    expect(base.correct and base.attempted == record.attempted,
           f"{name}: {base.attempted} ops, {base.known} known defects, {base.failed} failed "
           f"otherwise, correct against its own record")

    module, attr = INJECT[name]
    original = getattr(module, attr)
    setattr(module, attr, _raise)
    try:
        hurt = Tally(reference=record.recorded)
        workload.run_pass(hurt)
    finally:
        setattr(module, attr, original)
    injected = [msg for msg in hurt.examples.values() if "injected failure" in msg]
    expect(hurt.attempted == base.attempted and hurt.failed > base.failed
           and hurt.known <= base.known and bool(injected),
           f"{name}: exception in {attr} counted ({hurt.failed - base.failed} more failed), "
           f"pass completed")

    if record.recorded:
        wrong = Tally(reference=_corrupt(record.recorded))
        workload.run_pass(wrong)
        expect(wrong.attempted == base.attempted and wrong.failed == base.failed + 1
               and not wrong.correct,
               f"{name}: wrong reference counted as one failed gated operation")

    tracer = Tracer()
    traced = Tally(reference=record.recorded, tracer=tracer)
    tracer.install(wigosc)
    try:
        workload.run_pass(traced)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, traced, 1)
    names = {m["name"] for m in SPEC["per_layer"]
             if not m["name"].startswith(("setup.", "trace."))}
    expect(traced.correct and bool(tracer.spans) and names <= set(metrics),
           f"{name}: traced pass gives {len(tracer.spans)} spans and every per-layer metric")
    expect(observables.evolve is wigosc.gaussian.evolve
           and not hasattr(phaseops.spectrum, "__wrapped__"),
           f"{name}: tracer uninstalled cleanly")


def main() -> int:
    warnings.simplefilter("ignore")
    for name, cls in WORKLOADS.items():
        check_workload(name, cls)
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
