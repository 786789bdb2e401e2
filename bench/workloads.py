"""The three benchmark workloads: seeded inputs, warm-up, and one pass of fixed work.

Every call into wigosc goes through ``Tally.op`` and looks its function up
on the module at call time, so the traced run sees the wrapped names.  A
pass is the workload's fixed work list; the runner repeats passes until the
measuring time is spent, so the failure share is the same for every pass.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time

import numpy as np

from wigosc import cli, gaussian, langevin, model, observables, phaseops, quadrature

from tally import csv_columns

PI2_3 = math.pi ** 2 / 3.0


def run_cli(argv: list) -> str:
    """Run one CLI subcommand in-process and return its CSV text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"wigosc {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def cli_ref(argv: list):
    return ("cli " + " ".join(argv), csv_columns)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _first_eigh_seconds(matrix: np.ndarray) -> float:
    start = time.perf_counter()
    np.linalg.eigh(matrix)
    return time.perf_counter() - start


class Sweep:
    """Seeded ``(D, B, beta*t)`` points over the whole domain ROADMAP aim 3 names.

    Why: the per-point Gaussian engine and the angular quadrature do nearly
    all the work, and phaseops/langevin do none, so ROADMAP items 2 (a
    well-conditioned frame) and 5 (a batched engine) move this workload
    alone.  The domain is not narrowed: the known defects at large
    ``beta*t`` (``KNOWN``) show up in the success share and per function.
    They are counted apart from unexpected failures, which stay at zero at
    the commit that defined the benchmark.  The two default CLI subcommands
    that ride on the same engine run in-process once per pass.
    """

    name = "sweep"
    item_kind = "point"
    work_unit = "parameter points"
    OPS = ("observables.survival_probability", "observables.longtime_survival",
           "observables.phase_expectation", "observables.thermal_angle_expectation",
           "observables.energy_generating_function")
    # Known defects, all at large beta*t, where the Gaussian state
    # overflows: from beta*t ~ 11.2 (for every D and B) phase_expectation and
    # thermal_angle_expectation(1) raise (QuadratureNotConverged,
    # OverflowError) or the latter returns a normalisation of ~1e-15; further
    # out survival_probability raises ValueError or OverflowError or
    # silently returns 0, and energy_generating_function raises
    # OverflowError.  Below KNOWN_FROM_BETA_T every failure is unexpected.
    KNOWN = ("QuadratureNotConverged:", "OverflowError:", "ValueError:",
             "normalisation collapsed", "survival collapsed")
    KNOWN_FROM_BETA_T = 10.0

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        # 1000 points: p99 has ten points beyond it, and a 28 s run still
        # times each point in some 20 passes, so its fastest time settles
        n = 20 if tiny else 1000
        # Latin-hypercube draw: every seed covers each axis evenly, so the
        # mix of cheap and expensive points, and the work per pass, barely
        # moves with the seed.
        u_d, u_b, u_bt = (_stratified(rng, n) for _ in range(3))
        self.points = [(math.exp(a * math.log(1e7)), 2.0 * b,
                        math.exp(math.log(1e-2) + c * math.log(1e5)))
                       for a, b, c in zip(u_d, u_b, u_bt)]
        self.cli = ([["survival", "--tmax", "2"], ["phase-mean", "--tmax", "2"]] if tiny
                    else [["survival"], ["phase-mean"]])

    def warmup(self) -> dict:
        start = time.perf_counter()
        quadrature.integrate_angular(math.cos)
        first_quad = time.perf_counter() - start
        first_eigh = _first_eigh_seconds(np.array(gaussian.ground_state().cov))
        d = model.derive(model.ModelParams.from_dimensionless(10.0, 0.1))
        observables.survival_probability(d, 10.0)
        observables.longtime_survival(d, 10.0)
        observables.phase_expectation(None, d, 10.0)
        observables.thermal_angle_expectation(_one, d, 10.0)
        observables.energy_generating_function(d, 1.0, 10.0)
        run_cli(["survival", "--tmax", "0.2"])
        return {"first_quad_s": first_quad, "first_eigh_s": first_eigh}

    def run_pass(self, tally) -> None:
        for big_d, big_b, beta_t in self.points:
            with tally.item("point", work=1):
                self._point(tally, big_d, big_b, beta_t)
        for argv in self.cli:
            with tally.item("cli", argv[0]):
                tally.op(f"cli.main.{argv[0]}", run_cli, argv, ref=cli_ref(argv))

    def _point(self, tally, big_d, big_b, beta_t) -> None:
        d = tally.op("model.derive", _derive, big_d, big_b,
                     check=lambda d: _derive_problem(d, big_d, big_b))
        if d is None:
            tally.skip(self.OPS, "skipped: derive failed")
            return
        t = beta_t / d.beta
        known = self.KNOWN if beta_t >= self.KNOWN_FROM_BETA_T else ()
        longtime = tally.op(self.OPS[1], observables.longtime_survival, d, t,
                            check=lambda v: None if math.isfinite(v) and v >= 0.0
                            else f"long-time survival {v!r}")
        tally.op(self.OPS[0], observables.survival_probability, d, t,
                 check=lambda v: _survival_problem(v, longtime, beta_t), known=known)
        tally.op(self.OPS[2], observables.phase_expectation, None, d, t,
                 check=lambda v: None if math.isfinite(v) and abs(v) <= math.pi
                 else f"phase mean {v!r} outside [-pi, pi]", known=known)
        tally.op(self.OPS[3], observables.thermal_angle_expectation, _one, d, t,
                 check=_normalisation_problem, known=known)
        tally.op(self.OPS[4], observables.energy_generating_function, d, 1.0, t,
                 check=_in_unit_interval, known=known)


def _stratified(rng: random.Random, n: int) -> list:
    """One uniform draw from each of ``n`` equal strata of (0, 1), in random order."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [(k + 1.0 - rng.random()) / n for k in strata]


def _one(phi: float) -> float:
    return 1.0


def _derive(big_d: float, big_b: float):
    return model.derive(model.ModelParams.from_dimensionless(big_d, big_b))


def _derive_problem(d, big_d, big_b):
    if abs(d.temperature_number - big_d) > 1e-12 * big_d or abs(d.damping_ratio - big_b) > 1e-12:
        return f"derived groups D={d.temperature_number!r} B={d.damping_ratio!r}"
    return None


def _normalisation_problem(v):
    # the stationary angle density integrates to one for every beta*t
    if abs(v - 1.0) <= 1e-8:
        return None
    if abs(v) < 1e-6:
        return f"normalisation collapsed to {v!r}"
    return f"normalisation {v!r} != 1"


def _in_unit_interval(v):
    return None if math.isfinite(v) and 0.0 <= v <= 1.0 + 1e-12 else f"{v!r} outside [0, 1]"


def _survival_problem(v, longtime, beta_t):
    problem = _in_unit_interval(v)
    # Once exp(-beta*t) is negligible the exact survival must equal its
    # asymptote; measured agreement is ~1e-13 at beta*t >= 40.
    if (problem is None and beta_t >= 40.0 and longtime is not None and longtime > 0.0
            and abs(v / longtime - 1.0) > 1e-9):
        problem = (f"{'survival collapsed: ' if v == 0.0 else ''}exact {v!r} "
                   f"vs long-time {longtime!r} at beta*t={beta_t:.4g}")
    return problem


class Operators:
    """Phase-operator tables, spectra and variance series at n = 150 and n = 1000.

    Why: ROADMAP item 3 (O(n) ``g_matrix``, a vectorised angle matrix, a
    values-only spectrum) moves this workload and no other; two sizes catch a
    gain at n = 1000 that costs n = 150.  The thermal variance runs at
    D = 200, 1e4 and 1e6, the last being the capped case item 2 targets.
    Physical ``beta*t`` values drawn from the seed (48 at n = 150, one at
    n = 1000) are checked by invariants; the fixed ones against recorded
    references.
    """

    name = "operators"
    item_kind = "problem"
    work_unit = "operator calls"
    THERMAL = ((200.0, "D200"), (1e4, "D1e4"), (1e6, "D1e6"))

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.sizes = (6, 12) if tiny else (150, 1000)
        self.fixed_bt = {self.sizes[0]: (2.0, 5.0), self.sizes[1]: (2.0,)}
        # Many seeded small problems: a 150x150 solve with two BLAS threads
        # jitters by several times on a busy machine, and a run times each
        # problem in only 3-4 passes, so the median problem needs many
        # problems behind it.  One seeded large problem keeps the pass short.
        self.seeded_bt = {n: tuple(math.exp(rng.uniform(math.log(0.1), math.log(20.0)))
                                   for _ in range(count))
                          for n, count in zip(self.sizes, (2 if tiny else 48, 1))}
        self.g_probes = [(rng.randrange(self.sizes[0]), rng.randrange(self.sizes[0]))
                         for _ in range(4)]
        self.row = 5 if tiny else 1000
        self.var_tol = 1e-3 if tiny else 1e-5
        self.thermal = ((3.0, "D3"),) if tiny else self.THERMAL
        self.cli = (["spectrum", "--nmax", "6", "--beta-t", "0,2"] if tiny else ["spectrum"])

    def warmup(self) -> dict:
        n = self.sizes[0]
        first_eigh = _first_eigh_seconds(phaseops.canonical_phase_matrix(n).values)
        mat = phaseops.physical_phase_matrix(n, 2.0)
        phaseops.spectrum(mat)
        phaseops.angle_operator_matrix(phaseops.phase_fourier, n)
        phaseops.phase_variance_diagonal(3, tol=1e-3)
        phaseops.variance_diagonal_table(3, extra=100)
        phaseops.thermal_phase_variance(3.0)
        run_cli(["spectrum", "--nmax", "4", "--beta-t", "0"])
        return {"first_quad_s": 0.0, "first_eigh_s": first_eigh}

    def run_pass(self, tally) -> None:
        small = {}      # n = 150 matrices by beta*t: leading blocks of the n = 1000 ones
        residuals = []
        for n in self.sizes:
            tag = f"n{n}"
            with tally.item("call", tag, work=1):
                tally.op(f"phaseops.g_matrix.{tag}", phaseops.g_matrix, n, check=self._g_problem)
            mats = {}
            for label, bt in self._problems(n):
                # A solved matrix is one eigenproblem, the unit of the `spectrum`
                # CLI and this workload's latency item.  The fixed n = 1000
                # physical matrix is only built, for the leading-block check.
                solve = n == self.sizes[0] or label in ("canonical", "physical.seeded")
                with tally.item("problem" if solve else "call", tag, work=2 if solve else 1):
                    mat = mats[bt] = (
                        tally.op(f"phaseops.canonical_phase_matrix.{tag}",
                                 phaseops.canonical_phase_matrix, n,
                                 check=lambda m: _matrix_problem(m, small.get(None)))
                        if bt is None else
                        tally.op(f"phaseops.physical_phase_matrix.{tag}",
                                 phaseops.physical_phase_matrix, n, bt,
                                 check=lambda m, bt=bt: _matrix_problem(m, small.get(bt))))
                    if not solve:
                        continue
                    # only the n = 150 canonical spectrum is claimed to stay in
                    # [-pi, pi] (validate, criterion 5); at n = 1000 it overshoots
                    contained = bt is None and n == self.sizes[0]
                    spec = tally.op(f"phaseops.spectrum.{tag}", phaseops.spectrum, mat,
                                    check=lambda sp, c=contained: _spectrum_problem(sp, c),
                                    ref=None if label == "physical.seeded"
                                    else (f"spectrum.{label}.{tag}", _eigenvalues))
                if spec is not None and n == self.sizes[1]:
                    residuals.append(spec.residual)
            with tally.item("call", tag, work=1):
                tally.op(f"phaseops.angle_operator_matrix.{tag}", phaseops.angle_operator_matrix,
                         phaseops.phase_fourier, n,
                         check=lambda m: _same_matrix(m, mats.get(None), "canonical_phase_matrix"))
            if n == self.sizes[0]:
                small = mats
        tally.notes["spectrum_residual_large"] = max(residuals, default=float("nan"))
        self._variances(tally)
        with tally.item("call", "spectrum", work=1):
            tally.op("cli.main.spectrum", run_cli, self.cli, ref=cli_ref(self.cli))

    def _variances(self, tally) -> None:
        with tally.item("call", "phase_variance_diagonal", work=1):
            tally.op("phaseops.phase_variance_diagonal", phaseops.phase_variance_diagonal,
                     self.row, tol=self.var_tol,
                     ref=(f"variance.row{self.row}.canonical", _estimate))
        with tally.item("call", "phase_variance_diagonal", work=1):
            tally.op("phaseops.phase_variance_diagonal", phaseops.phase_variance_diagonal,
                     self.row, kind="physical", beta_t=1e3, tol=self.var_tol,
                     ref=(f"variance.row{self.row}.physical.bt1000", _estimate))
        with tally.item("call", "variance_diagonal_table", work=1):
            tally.op("phaseops.variance_diagonal_table", phaseops.variance_diagonal_table,
                     self.row, ref=(f"variance.table{self.row}", lambda vb: [list(vb[0]), list(vb[1])]))
        for big_d, label in self.thermal:
            with tally.item("call", label, work=1):
                # At D = 1e6 the row cap leaves a wide bracket (ROADMAP item 2
                # will tighten it); besides the recorded digits, the bracket
                # must hold the D -> inf limit pi^2/3, which the mixture
                # approaches to ~5e-8 already at D = 1e4.
                est = tally.op(f"phaseops.thermal_phase_variance.{label}",
                               phaseops.thermal_phase_variance, big_d,
                               check=_holds_limit if big_d >= 1e6 else None,
                               ref=(f"variance.thermal.{label}", _estimate))
                if est is not None and big_d >= 1e6:
                    tally.notes["thermal_tail_bound_D1e6"] = est.tail_bound

    def _problems(self, n: int) -> list:
        """(label, beta*t) of the matrices built at size ``n``; ``None`` is canonical."""
        return ([("canonical", None)]
                + [(f"physical.bt{bt:g}", bt) for bt in self.fixed_bt[n]]
                + [("physical.seeded", bt) for bt in self.seeded_bt[n]])

    def _g_problem(self, g):
        v = g.values
        if not np.all(np.diag(v) == 1.0) or not np.array_equal(v, v.T):
            return "g table not symmetric with unit diagonal"
        for m, n in self.g_probes:
            exact = phaseops.g_coefficient(m, n)
            if abs(v[m, n] - exact) > 1e-12 * exact:
                return f"g[{m},{n}]={v[m, n]!r} vs g_coefficient {exact!r}"
        return None


def _matrix_problem(mat, leading):
    a = mat.values
    if not np.array_equal(a, a.conj().T):
        return "matrix not exactly Hermitian"
    # truncation only drops rows and columns: the small matrix is a leading block
    if leading is not None and not np.array_equal(a[:leading.n_max, :leading.n_max], leading.values):
        return f"leading {leading.n_max}x{leading.n_max} block differs from the small matrix"
    return None


def _same_matrix(mat, other, label):
    if other is None:
        return f"no {label} to compare with"
    diff = float(np.max(np.abs(mat.values - other.values)))
    return None if diff <= 1e-12 else f"differs from {label} by {diff:.3e}"


def _spectrum_problem(spec, contained: bool):
    if spec.residual > 1e-10:
        return f"eigen residual {spec.residual:.3e}"
    if contained and spec.containment_slack(math.pi) > 0.0:
        return f"spectrum leaves [-pi, pi] by {spec.containment_slack(math.pi):.3e}"
    return None


def _holds_limit(est):
    if abs(est.value - PI2_3) <= est.tail_bound + 1e-6:
        return None
    return f"bracket {est.value!r} +- {est.tail_bound!r} misses pi^2/3"


def _eigenvalues(spec):
    return [list(spec.eigenvalues)]


def _estimate(est):
    return [[est.value], [est.tail_bound], [float(est.terms)]]


class OracleWide:
    """The ``validate`` default ensemble (20000 trajectories x 8000 steps), at 1 and nproc threads.

    Why: this shape is RNG-bound (~90% of block time), which is what ROADMAP
    item 4(a-c) targets.  The configuration, its Monte-Carlo seed included,
    is fixed so that ``MomentReport.digest()`` is comparable across runs and
    commits; it is recorded, not gated, because item 4(c) may legally change
    every Monte-Carlo number.  The gates are the ones ``validate`` relies on:
    the verdict passes, the perturbed-beta negative control fails, and the
    digest is the same at every thread count.  ``--seed`` does not change
    this workload.
    """

    name = "oracle_wide"
    item_kind = "ensemble"
    work_unit = "trajectory-steps"

    def __init__(self, seed: int, tiny: bool = False):
        self.params = model.ModelParams.from_dimensionless(5.0, 0.25)
        # validate's --perturb-beta 0.1; the tiny ensemble resolves only a larger lie
        self.perturbed = model.ModelParams.from_dimensionless(5.0, 0.25 * (1.5 if tiny else 1.1))
        self.shape = dict(dt=0.005, n_steps=1000 if tiny else 8000,
                          n_trajectories=4200 if tiny else 20000, seed=20240817)
        self.threads = sorted({1, nproc()})

    def warmup(self) -> dict:
        first_eigh = _first_eigh_seconds(np.array(gaussian.ground_state().cov))
        # two blocks, so the thread pool path runs too
        cfg = langevin.SdeConfig(dt=0.005, n_steps=20, n_trajectories=4097, seed=1,
                                 threads=self.threads[-1])
        report = langevin.simulate_ensemble(self.params, cfg)
        langevin.compare_to_propagator(report, model.derive(self.params))
        return {"first_quad_s": 0.0, "first_eigh_s": first_eigh}

    def run_pass(self, tally) -> None:
        d = model.derive(self.params)
        steps = self.shape["n_steps"] * self.shape["n_trajectories"]
        reports = {}
        for threads in self.threads:
            tag = "threads1" if threads == 1 else "threadsN"
            cfg = langevin.SdeConfig(threads=threads, **self.shape)
            with tally.item("ensemble", tag, work=steps):
                report = reports[threads] = tally.op(
                    f"langevin.simulate_ensemble.{tag}", langevin.simulate_ensemble,
                    self.params, cfg, gate=True)
                tally.op("langevin.compare_to_propagator", langevin.compare_to_propagator,
                         report, d, check=_verdict_passes, gate=True)
                if threads == self.threads[-1]:
                    tally.op("langevin.compare_to_propagator.negative_control",
                             langevin.compare_to_propagator, report,
                             model.derive(self.perturbed), allow_mismatch=True,
                             check=lambda v: "negative control passed" if v.passed else None,
                             gate=True)
        digests = {t: r.digest() for t, r in reports.items() if r is not None}
        tally.notes["digest"] = digests.get(1)
        tally.op("langevin.digest_across_threads", lambda: digests,
                 check=lambda ds: None if len(ds) == len(self.threads) and len(set(ds.values())) == 1
                 else f"digests differ across thread counts: {ds}", gate=True)


def _verdict_passes(verdict):
    return None if verdict.passed else (
        f"max|z|={verdict.max_abs_z:.3f} >= {verdict.threshold:.3f} "
        f"at t={verdict.worst_time} ({verdict.worst_component})")


WORKLOADS = {cls.name: cls for cls in (Sweep, Operators, OracleWide)}
