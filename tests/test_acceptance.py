"""End-to-end acceptance gate.

One test per numbered criterion; each prints a single PASS/FAIL line with the
measured figure of merit next to its threshold.  Monte-Carlo checks run at
full size with pinned seeds, so this module dominates the suite's runtime.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import dblquad

from oracles import energy_weyl_symbol
from wigosc import (ModelParams, SdeConfig, compare_to_propagator, derive,
                    energy_generating_function, evolve, ground_state, longtime_survival,
                    nofriction_survival, phase_variance_diagonal, propagator,
                    simulate_ensemble, survival_probability, thermal_angle_expectation,
                    thermal_phase_variance, thermal_state)
from wigosc.cli import main as cli_main
from wigosc.phaseops import (canonical_phase_matrix, delta_matrix_element,
                             physical_phase_matrix, spectrum)

PI2_3 = math.pi ** 2 / 3.0
PI2_4 = math.pi ** 2 / 4.0

pytestmark = pytest.mark.acceptance


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_frictionless_survival_curve():
    # near-zero friction reproduces the zero-friction closed form
    t0 = time.perf_counter()
    d = derive(ModelParams(mass=1.0, omega=1.0, beta=1e-6, mu=0.25))
    d_free = derive(ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=0.25))
    assert d_free.noise_number_free == 0.25
    ts = np.linspace(0.0, 30.0, 300)
    rel = max(abs(survival_probability(d, t) / nofriction_survival(d_free, t) - 1.0)
              for t in ts)
    elapsed = time.perf_counter() - t0
    report(1, rel < 1e-4 and elapsed < 5.0,
           f"max rel gap {rel:.3e} (<1e-4), runtime {elapsed:.2f}s (<5s)")


def test_criterion_2_longtime_survival():
    d = derive(ModelParams.from_dimensionless(5.0, 0.05))
    beta = d.beta
    worst = max(abs(survival_probability(d, bt / beta) / longtime_survival(d, bt / beta) - 1.0)
                for bt in np.linspace(5.0, 12.0, 29))
    ts = np.linspace(5.0 / beta, 10.0 / beta, 40)
    slope = np.polyfit(ts, [math.log(survival_probability(d, t)) for t in ts], 1)[0]
    rate_err = abs(-slope / beta - 1.0)
    report(2, worst < 0.01 and rate_err < 0.005,
           f"asymptote gap {worst:.3e} (<0.01), decay-rate error {rate_err:.3e} (<0.005)")


def test_criterion_3_thermalization():
    t0 = time.perf_counter()
    params = ModelParams.from_dimensionless(5.0, 0.25)
    d = derive(params)
    bt = 10.0
    t = bt / d.beta
    half_d = d.temperature_number / 2.0
    target = np.diag([half_d * math.exp(2.0 * bt), half_d])

    # closed thermal-limit state hits the Maxwell-Boltzmann covariance exactly
    scale = np.sqrt(np.outer(np.diag(target), np.diag(target)))
    th_gap = float(np.max(np.abs(thermal_state(d, t).cov - target) / scale))
    th_ok = th_gap < 1e-6

    # the exact propagator covariance still carries its O(e^{-beta t}) transient
    s = np.diag([math.exp(bt), 1.0])
    exact_cov = s @ propagator(d, t).cov_physical @ s
    exact_gap = float(np.max(np.abs(exact_cov - target) / scale))
    transient_ok = 1e-8 < exact_gap < 2e-4

    cfg = SdeConfig(dt=0.005, n_steps=int(round(t / 0.005)), n_trajectories=100_000,
                    seed=20240501, record_every=10 ** 9)
    # the ensemble reports the physical pair, whose thermal covariance is
    # diag(D/2, D/2); each z-score is invariant under the x scaling
    rep = simulate_ensemble(params, cfg)
    n = rep.n_trajectories
    cov_emp = rep.cov[-1]
    z_xx = (cov_emp[0, 0] - half_d) / (half_d * math.sqrt(2.0 / (n - 1)))
    z_yy = (cov_emp[1, 1] - half_d) / (half_d * math.sqrt(2.0 / (n - 1)))
    z_xy = cov_emp[0, 1] / (half_d / math.sqrt(n - 1))
    z_mx = rep.mean[-1, 0] / math.sqrt(half_d / n)
    z_my = rep.mean[-1, 1] / math.sqrt(half_d / n)
    zs = np.abs([z_mx, z_my, z_xx, z_xy, z_yy])
    elapsed = time.perf_counter() - t0
    report(3, th_ok and transient_ok and float(np.max(zs)) < 3.0 and elapsed < 120.0,
           f"thermal-identity gap {th_gap:.2e} (<1e-6), exact-vs-thermal transient "
           f"{exact_gap:.2e} (in (1e-8, 2e-4), scale e^-bt={math.exp(-bt):.1e}), "
           f"Monte-Carlo max|z| {float(np.max(zs)):.2f} (<3), runtime {elapsed:.0f}s (<120s)")


@pytest.fixture(scope="module")
def oracle_runs():
    runs = {}
    for big_d, big_b in ((5.0, 0.05), (10.0, 0.1), (1000.0, 0.02)):
        params = ModelParams.from_dimensionless(big_d, big_b)
        cfg = SdeConfig(dt=0.005, n_steps=20_000, n_trajectories=100_000,
                        seed=20240817, record_every=800)
        runs[(big_d, big_b)] = (params, simulate_ensemble(params, cfg))
    return runs


def test_criterion_4_oracle_equivalence(oracle_runs):
    t0 = time.perf_counter()
    details = []
    all_pass = True
    for (big_d, big_b), (params, rep) in oracle_runs.items():
        verdict = compare_to_propagator(rep, derive(params))
        all_pass &= verdict.passed
        details.append(f"(D={big_d:g},B={big_b:g}): max|z|={verdict.max_abs_z:.2f}"
                       f"<{verdict.threshold:.2f}")
    params, rep = oracle_runs[(5.0, 0.05)]
    perturbed = derive(ModelParams.from_dimensionless(5.0, 0.05 * 1.1))
    control = compare_to_propagator(rep, perturbed, allow_mismatch=True)
    neg_ok = not control.passed
    details.append(f"negative control max|z|={control.max_abs_z:.1f} -> "
                   f"{'fails as required' if neg_ok else 'UNEXPECTED PASS'}")
    elapsed = time.perf_counter() - t0
    report(4, all_pass and neg_ok, "; ".join(details) + f"; check time {elapsed:.0f}s")


def test_criterion_5_spectra():
    spec = spectrum(canonical_phase_matrix(150))
    inside = spec.containment_slack(math.pi) == 0.0
    gaps = np.diff(spec.eigenvalues)
    lo, hi = int(0.1 * len(gaps)), int(0.9 * len(gaps))
    cv = float(np.std(gaps[lo:hi]) / np.mean(gaps[lo:hi]))
    ev5 = spectrum(physical_phase_matrix(150, 5.0)).eigenvalues
    frac = float(np.mean(np.minimum(np.abs(ev5 - math.pi / 2),
                                    np.abs(ev5 + math.pi / 2)) < 0.3))
    # golden values recorded from the first verified run
    golden = (abs(spec.eigenvalues[-1] - 3.0950224642955497) < 1e-8
              and abs(cv - 0.0827295522) < 1e-6
              and abs(frac - 148.0 / 150.0) < 1e-12
              and abs(float(ev5[-1]) - 1.7795415979156193) < 1e-8)
    report(5, inside and cv < 0.15 and frac >= 0.8 and golden,
           f"containment slack 0, gap CV {cv:.4f} (<0.15), "
           f"bimodal fraction {frac:.4f} (>=0.8), golden values reproduced")


@pytest.mark.xfail(strict=True, reason=(
    "row variances are not monotone in the row index: certified brackets give "
    "v_0 = 3.70110165(1) > v_1 = 2.70110165(0), and the even/odd subsequences "
    "approach pi^2/3 from opposite sides, so no mixed-parity grid can be "
    "increasing; the attainable monotonicity (per parity class) is covered in "
    "test_phaseops"))
def test_criterion_6_variance_increasing_in_m():
    vals = [phase_variance_diagonal(m, tol=1e-7).value for m in range(0, 13)]
    increasing = all(a < b for a, b in zip(vals, vals[1:]))
    report("6a", increasing, f"v_m consecutive m=0..12: increasing={increasing}")


def test_criterion_6_variance_limits():
    vc = phase_variance_diagonal(2000, tol=1e-7)
    can_rel = abs(vc.value - PI2_3) / PI2_3
    can_ok = can_rel < 0.02 and vc.tail_bound < 1e-5
    vp = phase_variance_diagonal(2000, kind="physical", beta_t=1e3, tol=1e-5)
    phys_rel = abs(vp.value - PI2_4) / PI2_4
    phys_ok = phys_rel < 0.02
    vt = thermal_phase_variance(1e4)
    th_rel = abs(vt.value - PI2_3) / PI2_3
    th_ok = th_rel < 0.005
    report("6b", can_ok and phys_ok and th_ok,
           f"deep-row vs pi^2/3: {can_rel:.2e} (<0.02, certified +-{vc.tail_bound:.1e}); "
           f"physical vs pi^2/4: {phys_rel:.2e} (<0.02); "
           f"thermal mixture at D=1e4 vs pi^2/3: {th_rel:.2e} (<0.005)")


def test_criterion_7_energy_generating_function():
    d = derive(ModelParams.from_dimensionless(5.0, 0.05))
    theta = d.params.theta
    t = 10.0 / d.beta
    worst_classical = max(abs(energy_generating_function(d, b, t) * (1.0 + b * theta) - 1.0)
                          for b in (0.1, 1.0, 10.0))
    th = thermal_state(d, t)
    sx, sy = np.sqrt(np.diag(th.cov))
    worst_quad = 0.0
    for b in (0.1, 1.0, 10.0):
        sym = energy_weyl_symbol(d, b, t)

        def f(v, u):
            x, y = u * sx, v * sy
            return float(sym(x, y)) * float(th.density(x, y)) * sx * sy

        val, _ = dblquad(f, -10, 10, -10, 10, epsabs=1e-13, epsrel=1e-13)
        closed = energy_generating_function(d, b, t)
        worst_quad = max(worst_quad, abs(val / closed - 1.0))
    report(7, worst_classical < 1e-6 and worst_quad < 1e-8,
           f"classical-limit gap {worst_classical:.2e} (<1e-6), "
           f"symbol-quadrature gap {worst_quad:.2e} (<1e-8)")


def test_criterion_8_normalisation_and_identities():
    d = derive(ModelParams.from_dimensionless(5.0, 0.05))
    state = evolve(ground_state(), d, 6.0)
    # closed Gaussian integral of the density against its declared mass
    amp = float(state.density(*state.mean))
    mass_gap = abs(amp * 2.0 * math.pi * math.sqrt(float(np.linalg.det(state.cov))) - 1.0)
    sx, sy = np.sqrt(np.diag(state.cov))
    quad_mass, _ = dblquad(lambda v, u: float(state.density(u * sx, v * sy)) * sx * sy,
                           -9, 9, -9, 9, epsabs=1e-11, epsrel=1e-11)
    unit = thermal_angle_expectation(lambda phi: 1.0, d, 5.0 / d.beta)
    delta_gap = max(abs(delta_matrix_element(0, 0, r, phi) - 2.0 * math.exp(-r * r))
                    for r in np.linspace(0, 3, 13) for phi in (-1.0, 0.0, 2.0))
    herm = max(float(np.max(np.abs(m.values - m.values.conj().T)))
               for m in (canonical_phase_matrix(150), physical_phase_matrix(150, 3.0)))
    ok = (mass_gap < 1e-12 and abs(quad_mass - 1.0) < 1e-8
          and abs(unit - 1.0) < 1e-9 and delta_gap < 1e-12 and herm == 0.0)
    report(8, ok,
           f"mass identity {mass_gap:.1e} (<1e-12, quadrature {abs(quad_mass-1):.1e}), "
           f"angle-weight normalisation {abs(unit-1):.1e} (<1e-9), "
           f"ground phase-point element {delta_gap:.1e} (<1e-12), "
           f"hermiticity defect {herm!r} (=0)")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    args = ["validate", "--trajectories", "8192", "--tmax", "20",
            "--dt-sim", "0.01", "--seed", "424242"]
    payloads = []
    # the ensemble runs on the calling thread, whatever the affinity mask holds
    for label, threads in (("a", 1), ("b", 4), ("c", 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=threads: set(range(k)),
                            raising=False)
        path = tmp_path / f"{label}.txt"
        rc = cli_main(args + ["--out", str(path)])
        assert rc == 0
        payloads.append(path.read_bytes())
    identical = payloads[0] == payloads[1] == payloads[2]
    report(9, identical,
           f"validate report byte-identical across reruns and thread counts "
           f"({len(payloads[0])} bytes)")
