"""Command-line entry point: figure-grade CSV artifacts and a validation gate.

Subcommands
-----------
survival    survival-probability curves (exact, long-time asymptote, zero-friction)
phase-mean  decay of the quantised-phase expectation from the ground state
spectrum    eigenvalues of the truncated physical phase matrix per beta*t
validate    cross-checks (Monte-Carlo vs analytic, identities, variance limits)

All output is plain CSV with a ``#``-prefixed metadata block recording the
full configuration, so byte-identical reruns are possible with a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import WigoscError
from .langevin import SdeConfig, compare_to_propagator, simulate_ensemble
from .model import ModelParams, derive
from .observables import (longtime_survival, nofriction_survival, phase_expectation,
                          survival_probability, thermal_angle_expectation)
from .phaseops import (canonical_phase_matrix, delta_matrix_element, phase_variance_diagonal,
                       physical_phase_matrix, spectrum, thermal_phase_variance)

PI2_3 = math.pi ** 2 / 3.0
PI2_4 = math.pi ** 2 / 4.0


@functools.cache
def _git_hash() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=Path(__file__).parent, capture_output=True,
                             text=True, timeout=5)
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _fmt(value) -> str:
    """Shortest round-trip decimal form; stable across runs."""
    return repr(float(value))


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _header(command: str, config: dict) -> list[str]:
    cfg = " ".join(f"{k}={v!r}" for k, v in config.items())
    return [f"# wigosc {__version__} {command}",
            f"# config: {cfg}",
            f"# git: {_git_hash()}"]


def _params(temperature_number: float, damping_ratio: float,
            noise_number_free: float | None = None):
    return derive(ModelParams.from_dimensionless(temperature_number, damping_ratio,
                                                 noise_number_free))


def cmd_survival(args: argparse.Namespace) -> int:
    d = _params(args.D, args.B)
    d_free = _params(args.D, 0.0, args.No)
    times = np.arange(0.0, args.tmax + 0.5 * args.dt_out, args.dt_out)
    lines = _header("survival", {"D": args.D, "B": args.B, "No": args.No,
                                 "tmax": args.tmax, "dt_out": args.dt_out})
    lines.append("omega_t,exact,longtime_approx,nofriction")
    for t in times:
        lines.append(",".join([_fmt(t), _fmt(survival_probability(d, t)),
                               _fmt(longtime_survival(d, t)),
                               _fmt(nofriction_survival(d_free, t))]))
    _emit(lines, args.out)
    return 0


_PHASE_CURVES = (("A", 1000.0, 0.02), ("B", 10.0, 0.05), ("C", 5.0, 0.05))


def cmd_phase_mean(args: argparse.Namespace) -> int:
    if args.D is not None or args.B is not None:
        if args.D is None or args.B is None:
            raise SystemExit("--D and --B must be given together for phase-mean")
        curves = (("custom", args.D, args.B),)
    else:
        curves = _PHASE_CURVES
    times = np.arange(0.0, args.tmax + 0.5 * args.dt_out, args.dt_out)
    lines = _header("phase-mean", {"curves": [c[0] for c in curves],
                                   "tmax": args.tmax, "dt_out": args.dt_out})
    lines.append("curve,omega_t,phase_expectation")
    for label, big_d, big_b in curves:
        d = _params(big_d, big_b)
        for t in times:
            lines.append(f"{label},{_fmt(t)},{_fmt(phase_expectation(None, d, t))}")
    _emit(lines, args.out)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    beta_ts = [float(s) for s in args.beta_t.split(",")]
    lines = _header("spectrum", {"nmax": args.nmax, "beta_t": beta_ts})
    lines.append("beta_t,index,eigenvalue")
    for bt in beta_ts:
        spec = spectrum(physical_phase_matrix(args.nmax, bt))
        for idx, val in enumerate(spec.eigenvalues):
            lines.append(f"{_fmt(bt)},{idx},{_fmt(val)}")
    _emit(lines, args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []

    params = ModelParams.from_dimensionless(args.D, args.B)
    d = derive(params)
    d_compare = d
    if args.perturb_beta:
        d_compare = derive(ModelParams.from_dimensionless(args.D, args.B * (1.0 + args.perturb_beta)))

    cfg = SdeConfig(dt=args.dt_sim, n_steps=int(round(args.tmax / args.dt_sim)),
                    n_trajectories=args.trajectories, seed=args.seed)
    report = simulate_ensemble(params, cfg)
    verdict = compare_to_propagator(report, d_compare, allow_mismatch=bool(args.perturb_beta))
    checks.append(("oracle_moments", verdict.passed,
                   f"max|z|={verdict.max_abs_z:.3f} threshold={verdict.threshold:.3f} "
                   f"n={verdict.n_comparisons} digest={report.digest()}"))

    s0 = survival_probability(d, 0.0)
    checks.append(("survival_at_zero", abs(s0 - 1.0) < 1e-12, f"value={_fmt(s0)}"))

    unit = thermal_angle_expectation(lambda phi: 1.0, d, args.tmax / 2.0)
    checks.append(("angle_weight_normalised", abs(unit - 1.0) < 1e-9, f"value={_fmt(unit)}"))

    r_grid = np.linspace(0.0, 3.0, 7)
    delta_err = max(abs(delta_matrix_element(0, 0, r, 0.3) - 2.0 * math.exp(-r * r))
                    for r in r_grid)
    checks.append(("phase_point_ground", delta_err < 1e-12, f"max_err={delta_err:.3e}"))

    for name, mat in (("canonical", canonical_phase_matrix(120)),
                      ("physical", physical_phase_matrix(120, 2.0))):
        defect = float(np.max(np.abs(mat.values - mat.values.conj().T)))
        checks.append((f"hermitian_{name}", defect == 0.0, f"defect={_fmt(defect)}"))

    spec = spectrum(canonical_phase_matrix(150))
    slack = spec.containment_slack(math.pi)
    checks.append(("spectrum_in_band", slack == 0.0,
                   f"slack={_fmt(slack)} bound={spec.residual:.2e}"))

    vcan = phase_variance_diagonal(1000, tol=1e-5)
    checks.append(("variance_canonical_limit", abs(vcan.value - PI2_3) < 0.02 * PI2_3,
                   f"value={_fmt(vcan.value)} bound={vcan.tail_bound:.2e}"))
    vphys = phase_variance_diagonal(1000, kind="physical", beta_t=1e3, tol=1e-5)
    checks.append(("variance_physical_limit", abs(vphys.value - PI2_4) < 0.02 * PI2_4,
                   f"value={_fmt(vphys.value)} bound={vphys.tail_bound:.2e}"))
    vth = thermal_phase_variance(200.0)
    checks.append(("variance_thermal_trend", abs(vth.value - PI2_3) < 0.05 * PI2_3,
                   f"value={_fmt(vth.value)} bound={vth.tail_bound:.2e}"))

    lines = _header("validate", {"D": args.D, "B": args.B, "tmax": args.tmax,
                                 "dt_sim": args.dt_sim, "trajectories": args.trajectories,
                                 "seed": args.seed, "perturb_beta": args.perturb_beta})
    n_fail = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        n_fail += 0 if ok else 1
        lines.append(f"{status} {name}: {detail}")
    lines.append(f"# result: {len(checks) - n_fail}/{len(checks)} checks passed")
    _emit(lines, args.out)
    if n_fail:
        failed = next(name for name, ok, _ in checks if not ok)
        sys.stderr.write(f"validate failed at check: {failed}\n")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wigosc",
                                     description="Damped noise-driven oscillator in phase space")
    parser.add_argument("--version", action="version", version=f"wigosc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    surv = sub.add_parser("survival", help="ground-state survival curves as CSV")
    surv.add_argument("--D", type=float, default=5.0, help="temperature number 2*theta/(hbar*omega)")
    surv.add_argument("--B", type=float, default=0.05, help="damping ratio beta/omega")
    surv.add_argument("--No", type=float, default=0.25, help="free noise number for the beta=0 curve")
    surv.add_argument("--tmax", type=float, default=30.0, help="last omega*t")
    surv.add_argument("--dt-out", dest="dt_out", type=float, default=0.1, help="omega*t output step")
    surv.add_argument("--out", default=None, help="output CSV path (default stdout)")
    surv.set_defaults(func=cmd_survival)

    phm = sub.add_parser("phase-mean", help="phase-expectation decay curves as CSV")
    phm.add_argument("--D", type=float, default=None, help="override: temperature number")
    phm.add_argument("--B", type=float, default=None, help="override: damping ratio")
    phm.add_argument("--tmax", type=float, default=60.0, help="last omega*t")
    phm.add_argument("--dt-out", dest="dt_out", type=float, default=0.25, help="omega*t output step")
    phm.add_argument("--out", default=None)
    phm.set_defaults(func=cmd_phase_mean)

    spc = sub.add_parser("spectrum", help="truncated phase-operator spectra as CSV")
    spc.add_argument("--nmax", type=int, default=150, help="truncation size")
    spc.add_argument("--beta-t", dest="beta_t", default="0,2,5",
                     help="comma-separated beta*t values")
    spc.add_argument("--out", default=None)
    spc.set_defaults(func=cmd_spectrum)

    val = sub.add_parser("validate", help="run cross-checks; exit 0 iff all pass")
    val.add_argument("--D", type=float, default=5.0)
    val.add_argument("--B", type=float, default=0.25)
    val.add_argument("--tmax", type=float, default=40.0, help="simulated omega*t span")
    val.add_argument("--dt-sim", dest="dt_sim", type=float, default=0.005, help="omega*dt step")
    val.add_argument("--trajectories", type=int, default=20000)
    val.add_argument("--seed", type=int, default=20240817)
    val.add_argument("--perturb-beta", dest="perturb_beta", type=float, default=0.0,
                     help="fractional damping offset for the analytic side (negative control)")
    val.add_argument("--out", default=None)
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WigoscError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SystemExit:
        raise
    except ValueError as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
