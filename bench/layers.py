"""Per-layer metrics derived from the spans of a traced phase.

``.us``/``.ms``/``.s`` metrics are mean times per call.  For gaussian and the
phaseops matrix builders they are self times (the span minus its child
spans); elsewhere they are inclusive, because the layer's work sits in
callees of the same layer (``integrate_angular`` in ``integrate``) or the
metric is a user-visible call (``cli.main``).  Counts are per pass.  A
metric whose function the workload never calls reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import CHILD_NS, END, ITEM, NAME, PARENT, RAISED, START

SWEEP_FNS = ("survival_probability", "longtime_survival", "phase_expectation",
             "thermal_angle_expectation", "energy_generating_function")
MATRIX_FNS = ("g_matrix", "canonical_phase_matrix", "physical_phase_matrix",
              "angle_operator_matrix", "spectrum")

def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, tally, passes: int) -> dict:
    """Metrics of one traced phase of ``passes`` passes (setup and trace rows excluded)."""
    incl = defaultdict(list)       # (name, tag) -> inclusive ns
    self_ns = defaultdict(list)    # (name, tag) -> self ns
    top = defaultdict(list)        # name -> inclusive ns of calls made by the benchmark itself
    counts = defaultdict(int)      # (name, item kind) -> calls
    raised = defaultdict(int)
    for rec in tracer.spans:
        kind, tag = tracer.items[rec[ITEM]] if rec[ITEM] >= 0 else ("", "")
        dur = rec[END] - rec[START]
        for key in {(rec[NAME], tag), (rec[NAME], "")}:
            incl[key].append(dur)
            self_ns[key].append(dur - rec[CHILD_NS])
        if rec[PARENT] is None:
            top[rec[NAME]].append(dur)
        counts[rec[NAME], kind] += 1
        raised[rec[NAME]] += rec[RAISED]

    def mean_incl(name, tag="", scale=1e-3):
        return _mean(incl.get((name, tag), ())) * scale

    def mean_self(name, tag="", scale=1e-3):
        return _mean(self_ns.get((name, tag), ())) * scale

    per_pass = 1.0 / max(passes, 1)
    points = sum(1 for kind, *_ in tally.items if kind == "point")
    out = {
        "model.derive.us": mean_incl("model.derive"),
        "model.classical_flow.us": mean_incl("model.classical_flow"),
        "gaussian.calls_per_point": (sum(n for (name, kind), n in counts.items()
                                         if kind == "point" and name.startswith("gaussian."))
                                     / points if points else 0.0),
        "quadrature.integrate_angular.us": mean_incl("quadrature.integrate_angular"),
        "quadrature.integrate_angular.calls": sum(
            n for (name, _), n in counts.items() if name == "quadrature.integrate_angular") * per_pass,
        "quadrature.integrate_angular.fail": raised["quadrature.integrate_angular"] * per_pass,
        "phaseops.spectrum.n1000.residual": tally.notes.get("spectrum_residual_large", 0.0),
        "phaseops.phase_variance_diagonal.ms": _mean(top["phaseops.phase_variance_diagonal"]) * 1e-6,
        "phaseops.variance_diagonal_table.ms": _mean(top["phaseops.variance_diagonal_table"]) * 1e-6,
        "phaseops.thermal_phase_variance.D1e6.tail_bound":
            tally.notes.get("thermal_tail_bound_D1e6", 0.0),
        "langevin.compare_to_propagator.ms": mean_incl("langevin.compare_to_propagator", scale=1e-6),
    }
    for f in ("noise_form", "propagator", "evolve", "state_overlap"):
        out[f"gaussian.{f}.us"] = mean_self(f"gaussian.{f}")
    for f in SWEEP_FNS:
        out[f"observables.{f}.us"] = mean_incl(f"observables.{f}")
        out[f"observables.{f}.fail"] = tally.fail_by_key[f"observables.{f}"] * per_pass
    for f in MATRIX_FNS:
        for n in ("n150", "n1000"):
            out[f"phaseops.{f}.{n}.ms"] = mean_self(f"phaseops.{f}", n, scale=1e-6)
    for d in ("D200", "D1e4", "D1e6"):
        out[f"phaseops.thermal_phase_variance.{d}.ms"] = mean_incl(
            "phaseops.thermal_phase_variance", d, scale=1e-6)
    for tag in ("threads1", "threadsN"):
        sim_ns = sum(incl.get(("langevin.simulate_ensemble", tag), ()))
        work = sum(w for kind, t, _, w in tally.items if t == tag)
        out[f"langevin.simulate_ensemble.{tag}.traj_steps_per_s"] = work / (sim_ns * 1e-9) if sim_ns else 0.0
    for c in ("survival", "phase-mean", "spectrum"):
        out[f"cli.main.{c}.s"] = mean_incl("cli.main", c, scale=1e-9)
    return out
