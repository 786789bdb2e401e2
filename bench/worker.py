"""One fresh benchmark process: import wigosc, warm up, measure, report one JSON line.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only``
it stops after the warm-up, which is how ``run.py`` samples the set-up time
in several fresh processes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    root = Path(args.root).resolve()
    sys.path.insert(1, str(root / "src"))
    import wigosc
    if Path(wigosc.__file__).resolve().parent != root / "src" / "wigosc":
        raise SystemExit(f"imported wigosc from {wigosc.__file__}, not from {root / 'src'}")
    from workloads import WORKLOADS

    # IntegrationWarnings from the non-converging corner of the sweep are
    # already counted as failed operations; printing them is noise.
    warnings.simplefilter("ignore")
    workload = WORKLOADS[args.workload](args.seed)
    setup = workload.warmup()
    setup["setup_s"] = (time.monotonic_ns() - args.spawned_ns) * 1e-9
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    from provenance import provenance
    from tally import Tally
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    result = {"setup": setup}
    if args.trace:
        # half the time untraced, half traced; the difference is the overhead
        from layers import layer_metrics
        from spans import Tracer
        plain = Tally(reference)
        passes = measure(workload, plain, args.seconds / 2.0)
        tracer = Tracer()
        traced = Tally(reference, tracer)
        tracer.install(wigosc)
        try:
            traced_passes = measure(workload, traced, args.seconds / 2.0)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer, traced, len(traced_passes))
        layers["trace.overhead_s"] = (steady_times(traced, traced_passes)[0]
                                      - steady_times(plain, passes)[0])
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)
        tallies = (plain, traced)
    else:
        plain = Tally(reference)
        passes = measure(workload, plain, args.seconds)
        tallies = (plain,)

    wall, item_seconds = steady_times(plain, passes)
    kinds = [kind for kind, _, _, _ in plain.items[:len(item_seconds)]]
    fails, known, examples = {}, {}, {}
    for t in tallies:
        for key, n in t.fail_by_key.items():
            fails[key] = fails.get(key, 0) + n
        for key, n in t.known_by_key.items():
            known[key] = known.get(key, 0) + n
        examples.update(t.examples)
    result.update({
        "walls": [w for w, _ in passes],
        "wall_s": wall,
        "work_per_pass": sum(w for _, _, _, w in plain.items[:len(item_seconds)]),
        "latencies_ms": sorted(s * 1e3 for s, kind in zip(item_seconds, kinds)
                               if kind == workload.item_kind),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "known": sum(t.known for t in tallies),
        "gate_failures": [g for t in tallies for g in t.gate_failures][:20],
        "fail_by_key": fails,
        "known_by_key": known,
        "fail_examples": examples,
        "notes": plain.notes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_unit": workload.work_unit,
        "item_kind": workload.item_kind,
        "provenance": provenance(root),
    })
    print(json.dumps(result))
    return 0


def measure(workload, tally, seconds: float) -> list:
    """Run whole passes until ``seconds`` have elapsed (at least one).

    Returns one ``(wall seconds, number of items)`` pair per pass; the items
    themselves are appended to ``tally.items``.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        first = len(tally.items)
        t0 = time.perf_counter()
        workload.run_pass(tally)
        passes.append((time.perf_counter() - t0, len(tally.items) - first))
    return passes


def steady_times(tally, passes: list) -> tuple:
    """Time of one pass and of each of its items, robust to a busy host.

    Every pass repeats the same item list, so the i-th item of each pass is
    the same computation.  Each item's time is the fastest of its times over
    the passes, and so is the time a pass spends outside items; the pass
    time is their sum.  On a shared host whose speed drops by up to 2x for
    seconds to minutes at a time, the median of a run follows the host.
    Short items still find quiet moments inside a slow phase, so their
    fastest times follow it less; a phase that stays slow for the whole
    run still shows.
    """
    per_pass = [count for _, count in passes]
    if len(set(per_pass)) != 1:
        raise RuntimeError(f"passes ran different item lists: {per_pass}")
    items, first = [], 0
    for _, count in passes:
        items.append([seconds for _, _, seconds, _ in tally.items[first:first + count]])
        first += count
    item_seconds = [min(col) for col in zip(*items)]
    outside = min(wall - sum(row) for (wall, _), row in zip(passes, items))
    return sum(item_seconds) + outside, item_seconds


if __name__ == "__main__":
    sys.exit(main())
