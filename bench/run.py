"""wigosc benchmark: run one workload in fresh processes and report its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Runs from the root of a source checkout and imports wigosc from ``src/``.
Set-up time is sampled in several fresh interpreters; the last one goes on
to measure whole passes of the workload for ``--seconds``.  With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run.  Human-readable lines come first;
the last line of standard output is the JSON result.  Full records go to
``bench/out/``.  See ``bench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from provenance import loadavg  # noqa: E402

SETUP_SAMPLES = 3      # fresh interpreters per run; set-up time is their median
DEADLINE_S = 170.0     # every run must end within 180 s


class BenchError(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool, spans_out: Path | None = None):
    """Start one worker interpreter, wait for it, return (result, stderr)."""
    cmd = [sys.executable]
    if args.trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "worker.py"), "--root", str(ROOT), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ)
    # the CLI asks git for a commit hash; keep git from searching above the checkout
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped the worker
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_seconds(stderr: str) -> dict:
    """Cumulative import times of wigosc and scipy.stats from ``-X importtime`` output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip() in ("wigosc", "scipy.stats"):
            try:
                found[parts[2].strip()] = int(parts[1]) * 1e-6
            except ValueError:
                pass
    return found


def end_to_end(res: dict, setups: list) -> dict:
    lat = res["latencies_ms"]
    p99 = statistics.quantiles(lat, n=100, method="inclusive")[98] if len(lat) > 1 else lat[0]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": res["wall_s"],
        "work_per_s": res["work_per_pass"] / res["wall_s"],
        "item_p50_ms": statistics.median(lat),
        "item_p99_ms": p99,
        "success_share": (res["attempted"] - res["failed"] - res["known"]) / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict, setups: list, imports: list) -> dict:
    layers = dict(res["layers"])
    layers["setup.import_s"] = statistics.median(i.get("wigosc", 0.0) for i in imports)
    layers["setup.import.scipy_stats_s"] = statistics.median(
        i.get("scipy.stats", 0.0) for i in imports)
    layers["setup.first_eigh_s"] = statistics.median(s["first_eigh_s"] for s in setups)
    layers["setup.first_quad_s"] = statistics.median(s["first_quad_s"] for s in setups)
    return layers


def describe(args, res, metrics, setups, load) -> list:
    prov = res["provenance"]
    blas = prov.get("blas") or {}
    lines = [f"wigosc benchmark  workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}",
             f"  commit {prov['git_commit'] or 'unknown'}  nproc {prov['nproc']}  "
             f"python {prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
             f"blas {blas.get('name')} {blas.get('version')}",
             "  " + "  ".join(f"{k}={v}" for k, v in prov["env"].items()),
             f"  load average {load[0]}  ->  {load[1]}"]
    n_lat = len(res["latencies_ms"])
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"per pass, fastest time of each item over {len(res['walls'])} passes",
        "work_per_s": res["work_unit"] + " per second",
        "item_p50_ms": f"per {res['item_kind']}, over {n_lat} {res['item_kind']}s",
        "item_p99_ms": f"per {res['item_kind']}, over {n_lat} {res['item_kind']}s",
        "success_share": f"fail_share {(res['failed'] + res['known']) / res['attempted']:.4f}: "
                         f"of {res['attempted']} operations {res['known']} hit known defects, "
                         f"{res['failed']} failed otherwise",
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:54s} {value:14.6g} {unit:6s} {notes.get(name, '')}")
    if args.trace:
        lines.append(f"  traced spans: {res['spans']}")
    for key, n in sorted(res["fail_by_key"].items()):
        k = res["known_by_key"].get(key, 0)
        lines.append(f"  failed {n - k:6d}  known defect {k:6d}  {key}: "
                     f"{res['fail_examples'].get(key, '')[:100]}")
    for gate in res["gate_failures"]:
        lines.append(f"  GATE FAILED  {gate}")
    lines.append(f"  correct: {not res['gate_failures']}")
    return lines


def main() -> int:
    # BENCHMARK.json is the one list of workloads and of reported metrics
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "wigosc" / "__init__.py").is_file():
        print(f"error: no wigosc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = loadavg()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl" if args.trace else None
    try:
        setups, imports = [], []
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            res, stderr = spawn(args, deadline, setup_only=not last,
                                spans_out=spans_out if last else None)
            setups.append(res["setup"])
            imports.append(import_seconds(stderr))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load = (load_start, loadavg())

    values = per_layer(res, setups, imports) if args.trace else end_to_end(res, setups)
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"error: BENCHMARK.json names metrics the run does not give: {missing}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    print("\n".join(describe(args, res, metrics, setups, load)))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loadavg": {"start": load[0], "end": load[1]},
              "setups": setups, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **{k: v for k, v in res.items() if k not in ("setup", "latencies_ms")}}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not res["gate_failures"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
