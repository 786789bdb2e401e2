"""Monte-Carlo integration of the damped, noise-driven oscillator.

This is the independent validation path for the Gaussian engine: it never
touches the analytic covariance algebra.  Trajectories of the dimensionless
physical pair ``(X, y)`` are advanced by a low-order stochastic one-step
method and reduced to moments at the record steps.

Noise layout: the step is linear, ``z' = A z + b xi``, and only the record
steps are reported.  Over the ``L`` steps between two records a trajectory
moves by ``z <- A**L z + e`` with ``e ~ N(0, S_L)``,
``S_L = sum_{s<L} A**s b b^T (A**s)^T``, and ``e`` is independent of the
state and of every other interval.  So each interval draws two normals
``(u, v)`` and applies ``e = chol(S_L) (u, v)``: the recorded states have
exactly the joint law that stepping the chain one step at a time samples.
``(A**L, S_L)`` come by binary doubling, once per distinct ``L``, and a
group draws its pairs at most ``_INTERVALS`` intervals at a time; the
update is elementwise over the trajectories of a group.

Reproducibility contract: every trajectory owns a counter-based Philox
stream keyed by ``(seed, trajectory_index)`` and read in a fixed order: the
start pair (random starts only), then one ``(u, v)`` pair per record
interval, in time order.  Trajectories are processed in groups of a fixed
size, and group partial sums are merged in index order.  The ensemble makes
no BLAS call: the interval maps are rational arithmetic rounded to floats,
and the update and the sums are numpy's elementwise operations and
reductions.  Results are therefore bit-identical across runs and BLAS
thread settings.  The groups run one after another on the calling thread:
each trajectory's draws are a few short numpy calls that hold the GIL, so
worker threads would only take turns.

The one-step method is the semi-implicit (symplectic) Euler-Maruyama update:
the momentum kick uses the old position, the position drift the new momentum.
Its volume error is only ``O((beta*dt)**2)`` per step; the fully explicit
update of the same weak order was rejected because its phase-space volume
grows by ``1 + (omega*dt)**2`` per step, which over many periods swamps the
statistical resolution of large ensembles.

The module needs no SciPy: the Bonferroni threshold of
:func:`compare_to_propagator` comes from ``math.erfc`` and
``statistics.NormalDist``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import numpy as np
from numpy.random import Generator, Philox

from .errors import ParameterMismatch, StepTooLarge, _check_int, _check_real
from .gaussian import Gaussian2D, _det, _push, ground_state
from .model import DerivedParams, ModelParams, PhasePoint

__all__ = [
    "SdeConfig",
    "MomentReport",
    "ComparisonVerdict",
    "simulate_ensemble",
    "compare_to_propagator",
]

# Trajectories per group, and record intervals per draw table: a group draws
# at most a (_GROUP, _INTERVALS, 2) table (8 MB), and the start pairs, at a
# time.  Both are fixed: the group fixes the reduction order, and each stream
# is read in the same order however its draws are split between tables.
_GROUP = 256
_INTERVALS = 2048


@dataclass(frozen=True)
class SdeConfig:
    """Discretisation and ensemble-size choices for one simulation.

    ``record_every`` selects the moment-output stride in steps (0 picks
    about 25 outputs; the final step is always recorded).  ``threads`` is
    validated but has no effect: the ensemble runs on the calling thread.
    The field stays because callers that name a thread count, such as the
    benchmark's per-thread-count rows, still build configs with it.
    """

    dt: float
    n_steps: int
    n_trajectories: int
    seed: int
    record_every: int = 0
    threads: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dt", _check_real("dt", self.dt, positive=True))
        for name, low in (("n_steps", 1), ("n_trajectories", 1), ("record_every", 0), ("threads", 0)):
            _check_int(name, getattr(self, name), low)
        if _check_int("seed", self.seed) >= 2 ** 63:
            # numpy turns a Philox key word >= 2**63 into float64, which merges
            # neighbouring seeds or overflows
            raise ValueError(f"seed must be an integer in [0, 2**63), got {self.seed!r}")

    def record_indices(self) -> np.ndarray:
        stride = self.record_every if self.record_every > 0 else max(1, self.n_steps // 25)
        idx = list(range(0, self.n_steps + 1, stride))
        if idx[-1] != self.n_steps:
            idx.append(self.n_steps)
        return np.array(idx, dtype=np.int64)


@dataclass(frozen=True)
class MomentReport:
    """Per-time ensemble moments of the physical pair ``(X, y)``.

    ``noise_s`` is the seconds spent resetting the streams and drawing the
    noise, ``step_s`` those spent applying the interval maps and summing the
    records, both summed over groups.  They are cost records, not results:
    :meth:`digest` leaves them out.
    """

    times: np.ndarray
    mean: np.ndarray          # (nout, 2)
    cov: np.ndarray           # (nout, 2, 2), unbiased
    se_mean: np.ndarray       # (nout, 2), empirical
    se_cov: np.ndarray        # (nout, 2, 2), empirical (Gaussian theory)
    n_trajectories: int
    params: ModelParams
    config: SdeConfig
    initial_mean: np.ndarray  # (2,), canonical == physical at t = 0
    initial_cov: np.ndarray   # (2, 2)
    noise_s: float
    step_s: float

    def digest(self) -> str:
        """SHA-256 over the numerical payload; equal digests mean identical reports."""
        h = hashlib.sha256()
        for arr in (self.times, self.mean, self.cov, self.se_mean, self.se_cov):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _start_moments(initial) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Dimensionless start ``(mean, cov, root)`` with ``cov = root @ root.T``.

    ``root`` is ``None`` for a deterministic :class:`PhasePoint` start.
    """
    if initial is None:
        initial = ground_state()
    if isinstance(initial, PhasePoint):
        return np.array([initial.x, initial.y], dtype=float), np.zeros((2, 2)), None
    if not isinstance(initial, Gaussian2D):
        raise TypeError(f"initial must be a Gaussian2D, a PhasePoint or None, "
                        f"got {type(initial).__name__}")
    mean = np.array(initial.mean, dtype=float)
    cov = np.array(initial.cov, dtype=float)
    return mean, cov, _sqrt_psd(cov)


def _sqrt_psd(cov: np.ndarray) -> np.ndarray:
    """Principal square root of the symmetric positive-semidefinite 2x2 ``cov``.

    By Cayley-Hamilton, ``sqrt(C) = (C + r I) / sqrt(tr C + 2 r)`` with
    ``r = sqrt(det C)``.  ``C`` is first divided by its larger diagonal entry,
    so that the determinant neither underflows nor overflows; a determinant
    below 0, of a covariance that is semidefinite only to rounding, counts as 0.
    """
    scale = max(float(cov[0, 0]), float(cov[1, 1]))
    if scale <= 0.0:  # a semidefinite matrix with a zero diagonal is zero
        return np.zeros((2, 2))
    unit = cov / scale
    r = math.sqrt(max(_det(unit), 0.0))
    return (unit + r * np.eye(2)) * math.sqrt(scale / (unit[0, 0] + unit[1, 1] + 2.0 * r))


def _chain_step(params: ModelParams, dt: float) -> tuple[float, ...]:
    """One step of the chain as the map ``(p00, p01, p10, p11, s00, s01, s11)`` of ``(A, b b^T)``.

    One step is ``z' = A z + b xi`` in ``z = (X, y)``: with ``h = omega*dt``,
    ``X' = (1 - beta*dt) X - h y + s xi`` and ``y' = y + h X'``, where
    ``s = sqrt(mu*dt)/(hbar*alpha)``, so ``b = (s, h s)``.
    """
    h = params.omega * dt
    c = 1.0 - params.beta * dt
    alpha = math.sqrt(params.mass * params.omega / params.hbar)
    b0 = math.sqrt(params.noise_strength * dt) / (params.hbar * alpha)
    b1 = h * b0
    return c, -h, h * c, 1.0 - h * h, b0 * b0, b0 * b1, b1 * b1


def _compose(first: tuple, then: tuple) -> tuple:
    """The map of ``first = (P', S')`` followed by ``then = (P, S)``: ``(P P', P S' P^T + S)``."""
    a00, a01, a10, a11, r00, r01, r11 = first
    p00, p01, p10, p11, s00, s01, s11 = then
    t00, t01 = p00 * r00 + p01 * r01, p00 * r01 + p01 * r11  # P S'
    t10, t11 = p10 * r00 + p11 * r01, p10 * r01 + p11 * r11
    return (p00 * a00 + p01 * a10, p00 * a01 + p01 * a11,
            p10 * a00 + p11 * a10, p10 * a01 + p11 * a11,
            t00 * p00 + t01 * p01 + s00, t00 * p10 + t01 * p11 + s01,
            t10 * p10 + t11 * p11 + s11)


def _double_double(law: tuple) -> tuple:
    """Each rational entry of ``law`` rounded to ``hi + lo``, two floats (about 106 bits)."""
    out = []
    for value in law:
        hi = Fraction(float(value))
        out.append(hi + Fraction(float(value - hi)))
    return tuple(out)


def _interval_law(step: tuple[float, ...], n: int) -> tuple[float, ...]:
    """``(A**n, S_n)`` as a map: ``step`` composed ``n`` times, by binary doubling.

    Each result is at most ``2 log2(n)`` compositions deep.  They run in
    rational arithmetic, rounded to double-double after each one, so the
    floats returned are within about an ulp of the exact map of the float
    ``step``.  In plain floats the doubling's rounding would grow about
    linearly with ``n``, and one map is applied once per record interval, so
    its error adds up over the intervals.
    """
    law, power = None, tuple(map(Fraction, step))
    while True:
        if n & 1:
            law = power if law is None else _double_double(_compose(law, power))
        n >>= 1
        if not n:
            return tuple(map(float, law))
        power = _double_double(_compose(power, power))


def _interval_map(law: tuple[float, ...]) -> tuple[float, ...]:
    """``(p00, p01, p10, p11, l00, l10, l11)``: ``law``'s ``P`` and the lower Cholesky root of its ``S``.

    ``l11`` is clipped at 0, since ``S_1 = b b^T`` has rank one; a zero ``S``
    (no noise) has the zero root.
    """
    p00, p01, p10, p11, s00, s01, s11 = law
    l00 = math.sqrt(s00)
    l10 = s01 / l00 if l00 > 0.0 else 0.0
    return p00, p01, p10, p11, l00, l10, math.sqrt(max(s11 - l10 * l10, 0.0))


def _stream_reset(bitgen: Philox, seed: int):
    """``reset(index)``, which puts ``bitgen`` in the state a fresh ``Philox(key=[seed, index])`` starts in.

    One generator per group, reset per trajectory, gives each trajectory's
    own stream at a fraction of the cost of building a generator.
    """
    fresh = {"bit_generator": "Philox",
             "state": {"counter": np.zeros(4, np.uint64), "key": np.array([seed, 0], np.uint64)},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = fresh["state"]["key"]

    def reset(index: int) -> None:
        key[1] = index
        bitgen.state = fresh

    return reset


def _run_group(group: int, cfg: SdeConfig, mean0: np.ndarray, root: np.ndarray | None,
               maps: list[tuple[float, ...]]) -> tuple[np.ndarray, float, float]:
    """Simulate one group of trajectories; return ``(sums, noise_s, step_s)``.

    ``maps`` holds each record interval's :func:`_interval_map`, in time
    order.  ``sums`` is (nout, 5) with column order X, y, X*X, X*y, y*y,
    summed over the group's trajectories.  ``noise_s`` is the seconds spent
    resetting the streams and drawing the noise, ``step_s`` those spent
    applying the interval maps and summing the records.
    """
    t0 = perf_counter()
    lo = group * _GROUP
    ng = min(_GROUP, cfg.n_trajectories - lo)
    bitgen = Philox(key=[cfg.seed, lo])
    gen = Generator(bitgen)
    reset = _stream_reset(bitgen, cfg.seed)
    saved = [None] * ng  # stream positions between draw tables
    sums = np.zeros((len(maps) + 1, 5))
    noise_s = step_s = 0.0

    def record(slot: int) -> None:
        sums[slot] = (x.sum(), y.sum(), (x * x).sum(), (x * y).sum(), (y * y).sum())

    for first in range(0, len(maps), _INTERVALS):
        width = min(_INTERVALS, len(maps) - first)
        # the first table leads with the start pair, so each stream is one draw call
        lead = 2 if first == 0 and root is not None else 0
        draws = np.empty((ng, lead + 2 * width))
        more = first + _INTERVALS < len(maps)
        for i, row in enumerate(draws):
            if first == 0:
                reset(lo + i)
            else:
                bitgen.state = saved[i]
            gen.standard_normal(out=row)
            if more:
                saved[i] = bitgen.state
        table = draws[:, lead:].reshape(ng, width, 2)
        t1 = perf_counter()
        noise_s += t1 - t0
        if first == 0:
            if root is None:
                x, y = np.full(ng, mean0[0]), np.full(ng, mean0[1])
            else:
                u, v = draws[:, 0], draws[:, 1]
                x = mean0[0] + root[0, 0] * u + root[0, 1] * v
                y = mean0[1] + root[1, 0] * u + root[1, 1] * v
            record(0)
        for j, (p00, p01, p10, p11, l00, l10, l11) in enumerate(maps[first:first + width]):
            u, v = table[:, j, 0], table[:, j, 1]
            x, y = p00 * x + p01 * y + l00 * u, p10 * x + p11 * y + l10 * u + l11 * v
            record(first + j + 1)
        t0 = perf_counter()
        step_s += t0 - t1
    return sums, noise_s, step_s


def _moments(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``(nout, 5)`` table of ``mean`` ``(nout, 2)`` and ``cov`` ``(nout, 2, 2)``, in ``_COMPONENTS`` order."""
    return np.column_stack([mean, cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]])


def _standard_errors(cov: np.ndarray, n: int) -> np.ndarray:
    """``(nout, 5)`` standard errors of the :func:`_moments` of ``n`` samples with covariance ``cov``.

    Gaussian theory: ``sqrt(var/n)`` for a mean, ``var*sqrt(2/(n-1))`` for a
    variance and ``sqrt((var_x*var_y + cov_xy**2)/(n-1))`` for the covariance.
    """
    var_x, cov_xy, var_y = cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1]
    dof = max(n - 1, 1)
    return np.column_stack([np.sqrt(np.abs(var_x) / n), np.sqrt(np.abs(var_y) / n),
                            np.abs(var_x) * math.sqrt(2.0 / dof),
                            np.sqrt(np.abs(var_x * var_y + cov_xy ** 2) / dof),
                            np.abs(var_y) * math.sqrt(2.0 / dof)])


def simulate_ensemble(params: ModelParams, cfg: SdeConfig,
                      initial=None) -> MomentReport:
    """Integrate the ensemble and reduce it to per-time moments.

    ``initial`` may be a :class:`Gaussian2D` (sampled per trajectory), a
    :class:`PhasePoint` (deterministic start), or ``None`` for the
    minimum-uncertainty state.  Raises :class:`StepTooLarge` when
    ``omega*dt > 0.1``.
    """
    if params.omega * cfg.dt > 0.1:
        raise StepTooLarge(f"omega*dt = {params.omega * cfg.dt:.3g} > 0.1")
    mean0, cov0, root = _start_moments(initial)
    rec_idx = cfg.record_indices()
    step = _chain_step(params, cfg.dt)
    lengths = np.diff(rec_idx).tolist()
    per_length = {n: _interval_map(_interval_law(step, n)) for n in set(lengths)}
    maps = [per_length[n] for n in lengths]

    sums = np.zeros((len(rec_idx), 5))
    noise_s = step_s = 0.0
    for group in range(-(-cfg.n_trajectories // _GROUP)):  # merged in index order
        part, group_noise_s, group_step_s = _run_group(group, cfg, mean0, root, maps)
        sums += part
        noise_s += group_noise_s
        step_s += group_step_s

    n = cfg.n_trajectories
    bessel = n / (n - 1.0) if n > 1 else 1.0
    moments = sums / n  # raw moments, made central in place, in _COMPONENTS order
    mean = moments[:, :2]
    moments[:, 2:] = (moments[:, 2:] - mean[:, [0, 0, 1]] * mean[:, [0, 1, 1]]) * bessel
    cov = moments[:, [2, 3, 3, 4]].reshape(-1, 2, 2)

    se = _standard_errors(cov, n)
    return MomentReport(
        times=rec_idx * cfg.dt,
        mean=mean,
        cov=cov,
        se_mean=se[:, :2],
        se_cov=se[:, [2, 3, 3, 4]].reshape(-1, 2, 2),
        n_trajectories=n,
        params=params,
        config=cfg,
        initial_mean=mean0,
        initial_cov=cov0,
        noise_s=noise_s,
        step_s=step_s,
    )


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of the moment-level test of the analytic propagator."""

    passed: bool
    max_abs_z: float
    threshold: float
    n_comparisons: int
    worst_time: float
    worst_component: str
    z_scores: np.ndarray = field(repr=False)  # (nout, 5)


_COMPONENTS = ("mean_x", "mean_y", "var_x", "cov_xy", "var_y")
_BASE_Z = 3.0


def bonferroni_threshold(n_comparisons: int) -> float:
    """z threshold giving a whole-family false-alarm rate of a single 3-sigma test."""
    p_single = math.erfc(_BASE_Z / math.sqrt(2.0))
    return -statistics.NormalDist().inv_cdf(p_single / (2.0 * n_comparisons))


def compare_to_propagator(report: MomentReport, d: DerivedParams,
                          allow_mismatch: bool = False) -> ComparisonVerdict:
    """Z-test every reported moment against the analytic Gaussian prediction.

    Standard errors come from the analytic covariance (exact under the null).
    The acceptance threshold is Bonferroni-widened so the whole family is as
    strict as a single 3-sigma test.  The report needs at least two
    trajectories (the variance standard errors divide by ``n - 1``).  By
    default the report and ``d`` must describe identical physics; pass
    ``allow_mismatch=True`` for deliberate negative controls.

    Deterministic corners (zero analytic spread, e.g. noiseless point starts)
    have no sampling error; there the comparison degrades gracefully to an
    absolute test at the integrator's own accuracy scale,
    ``O((omega*dt)**2 * omega*t)``.
    """
    p, q = report.params, d.params
    same = (p.mass == q.mass and p.omega == q.omega and p.beta == q.beta
            and p.hbar == q.hbar and p.noise_strength == q.noise_strength)
    if not same and not allow_mismatch:
        raise ParameterMismatch(
            "report simulated with different physical parameters than the propagator; "
            "pass allow_mismatch=True if this is a deliberate negative control")

    n = report.n_trajectories
    if n < 2:
        raise ValueError(f"comparison needs at least 2 trajectories, got {n}")
    mean_a, cov_a = map(np.array, zip(*(_push(report.initial_mean, report.initial_cov, d, float(t))
                                        for t in report.times)))
    predicted = _moments(mean_a, cov_a)
    diff = _moments(report.mean, report.cov) - predicted
    se = _standard_errors(cov_a, n)
    det_tol = 50.0 * (q.omega * report.config.dt) ** 2 * (1.0 + q.omega * report.times)
    close = np.abs(diff) <= det_tol[:, None] * (1.0 + np.abs(predicted))
    z = np.divide(diff, se, out=np.where(close, 0.0, math.inf), where=se != 0.0)
    n_comp = int(np.isfinite(z).sum())
    threshold = bonferroni_threshold(max(n_comp, 1))
    flat = np.abs(z)
    i_worst, k_worst = np.unravel_index(int(np.argmax(flat)), flat.shape)
    max_z = float(flat[i_worst, k_worst])
    return ComparisonVerdict(
        passed=bool(max_z < threshold),
        max_abs_z=max_z,
        threshold=threshold,
        n_comparisons=n_comp,
        worst_time=float(report.times[i_worst]),
        worst_component=_COMPONENTS[k_worst],
        z_scores=z,
    )
