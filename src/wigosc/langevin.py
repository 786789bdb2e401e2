"""Monte-Carlo integration of the damped, noise-driven oscillator.

This is the independent validation path for the Gaussian engine: it never
touches the analytic covariance algebra.  Trajectories of the dimensionless
physical pair ``(X, y)`` are advanced by a low-order stochastic one-step
method and reduced to streaming moments.

Reproducibility contract: every trajectory owns a counter-based RNG stream
keyed by ``(seed, trajectory_index)``, trajectories are processed in groups
of a fixed size, and group partial sums are merged in index order.  Results
are therefore bit-identical across runs and worker-thread counts.  The groups
run on one worker thread per CPU the process may use (``taskset`` limits
them) unless :class:`SdeConfig` names a count.  The sums over a piece's steps
are BLAS matrix products, whose order of accumulation belongs to the kernel
the BLAS picks for the CPU; so the bits, and the digest, are promised only
for one numpy/BLAS build on one CPU type.  The tests find one digest at 1
and 2 OpenBLAS threads: OpenBLAS splits a product's rows and columns across
threads, never the summed dimension.  On other hardware a different digest
means a different rounding of the same draws: the moments still agree with
the per-step recursion within 1e-13 of their scale, the bound the tests hold
them to.

Noise layout: the step is linear, ``z' = A z + b xi``, so over a piece of
``L`` steps between consecutive cuts (the record steps and the chunk starts)
a trajectory moves by ``z <- A**L z + sum_s A**(L-1-s) b xi_s``.  Per chunk
of steps, each generator of a group fills one contiguous row of a
``(group, chunk)`` tile, and each piece is one product of the tile's columns
with the kernel ``H_L[s] = A**(L-1-s) b``.  No per-step loop and no
step-major noise buffer remain; on two threads both the draws and the
products run outside the GIL.

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
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from numpy.random import Generator, Philox

from .errors import ParameterMismatch, StepTooLarge, _check_int, _check_real
from .gaussian import Gaussian2D, _push, ground_state
from .model import DerivedParams, ModelParams, PhasePoint

__all__ = [
    "SdeConfig",
    "MomentReport",
    "ComparisonVerdict",
    "simulate_ensemble",
    "compare_to_propagator",
]

# Trajectories per group and steps per noise chunk: each group's generators
# fill the rows of one (_GROUP, _CHUNK) tile (8 MB).  Both are fixed, because
# the group fixes the reduction order and the chunk starts cut the linear map
# into pieces; each stream is read in the same order at any size.
_GROUP = 256
_CHUNK = 4000


@dataclass(frozen=True)
class SdeConfig:
    """Discretisation and ensemble-size choices for one simulation.

    ``record_every`` selects the moment-output stride in steps (0 picks
    about 25 outputs; the final step is always recorded).  ``threads`` is the
    worker-thread count; 0 takes one per CPU the process may run on, which
    ``taskset`` limits.  No count changes a result.
    """

    dt: float
    n_steps: int
    n_trajectories: int
    seed: int
    record_every: int = 0
    threads: int = 0

    def __post_init__(self):
        _check_real("dt", self.dt, positive=True)
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

    ``noise_s`` is the seconds spent building the generators and drawing the
    noise, ``step_s`` those spent applying the chain's linear map and summing
    the records, both summed over groups (so across threads they can add up
    to more than the wall time).  They are cost records, not results:
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
    evals, evecs = np.linalg.eigh(cov)
    return mean, cov, evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None)))


def _kernels(params: ModelParams, dt: float, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``(powers, rev)`` with ``powers[L] = A**L`` and ``rev[top - L:] = H_L`` for ``L <= top``.

    ``H_L[s] = A**(L-1-s) b`` is the kernel of a piece of ``L`` steps.  One step
    is ``z' = A z + b xi`` in ``z = (X, y)``: with ``h = omega*dt``,
    ``X' = (1 - beta*dt) X - h y + s xi`` and ``y' = y + h X'``, where
    ``s = sqrt(mu*dt)/(hbar*alpha)``.  ``A**k`` for ``k <= top`` comes by
    doubling, ``A**(j + n) = A**j A**n``, so each power is at most ``log2(k)``
    2x2 products deep.
    """
    h = params.omega * dt
    c = 1.0 - params.beta * dt
    alpha = math.sqrt(params.mass * params.omega / params.hbar)
    a = np.array([[c, -h], [h * c, 1.0 - h * h]])
    b = math.sqrt(params.noise_strength * dt) / (params.hbar * alpha) * np.array([1.0, h])
    powers = np.empty((top + 1, 2, 2))
    powers[0] = np.eye(2)
    n, a_n = 1, a
    while n <= top:
        m = min(n, top + 1 - n)
        np.matmul(powers[:m], a_n, out=powers[n:n + m])
        n, a_n = 2 * n, a_n @ a_n
    kicks = powers[:top] @ b  # A**k b
    return powers, np.ascontiguousarray(kicks[::-1])


def _run_group(group: int, cfg: SdeConfig, mean0: np.ndarray, root: np.ndarray | None,
               rec_idx: list[int], cuts: list[int], powers: np.ndarray, rev: np.ndarray
               ) -> tuple[np.ndarray, float, float]:
    """Simulate one group of trajectories; return ``(sums, noise_s, step_s)``.

    ``sums`` is (nout, 5) with column order X, y, X*X, X*y, y*y, summed over
    the group's trajectories.  ``noise_s`` is the seconds spent building the
    generators and drawing the noise, ``step_s`` those spent applying the
    chain's linear map and summing the records.
    """
    t0 = perf_counter()
    lo = group * _GROUP
    ng = min(_GROUP, cfg.n_trajectories - lo)
    gens = [Generator(Philox(key=[cfg.seed, lo + i])) for i in range(ng)]
    z = np.tile(mean0, (ng, 1))
    if root is not None:
        z += np.array([gen.standard_normal(2) for gen in gens]) @ root.T
    tile = np.empty((ng, min(_CHUNK, cfg.n_steps)))
    noise_s = perf_counter() - t0
    step_s = 0.0

    sums = np.zeros((len(rec_idx), 5))

    def record(slot: int) -> None:
        x, y = z[:, 0], z[:, 1]
        sums[slot] = (x.sum(), y.sum(), (x * x).sum(), (x * y).sum(), (y * y).sum())

    record(0)  # every record list starts at step 0
    slot = 1
    for start, end in zip(cuts, cuts[1:]):
        t0 = perf_counter()
        col = start % _CHUNK
        if col == 0:
            for row, gen in zip(tile[:, :cfg.n_steps - start], gens):
                gen.standard_normal(out=row)
        t1 = perf_counter()
        length = end - start
        z = z @ powers[length].T + tile[:, col:col + length] @ rev[len(rev) - length:]
        if end == rec_idx[slot]:
            record(slot)
            slot += 1
        noise_s += t1 - t0
        step_s += perf_counter() - t1
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
    records = rec_idx.tolist()
    # the pieces run between consecutive cuts; a chunk's noise is drawn at its start
    cuts = sorted({*records, *range(0, cfg.n_steps, _CHUNK)})
    powers, rev = _kernels(params, cfg.dt, min(_CHUNK, cfg.n_steps))
    n_groups = -(-cfg.n_trajectories // _GROUP)
    threads = cfg.threads or (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                              else os.cpu_count() or 1)

    sums = np.zeros((len(rec_idx), 5))
    noise_s = step_s = 0.0
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # map yields in group order, so the merge order is fixed
        for part, group_noise_s, group_step_s in pool.map(
                lambda g: _run_group(g, cfg, mean0, root, records, cuts, powers, rev),
                range(n_groups)):
            sums += part
            noise_s += group_noise_s
            step_s += group_step_s

    n = cfg.n_trajectories
    mean = sums[:, :2] / n
    exx = sums[:, 2] / n
    exy = sums[:, 3] / n
    eyy = sums[:, 4] / n
    bessel = n / (n - 1.0) if n > 1 else 1.0
    cov = np.empty((len(rec_idx), 2, 2))
    cov[:, 0, 0] = (exx - mean[:, 0] ** 2) * bessel
    cov[:, 0, 1] = cov[:, 1, 0] = (exy - mean[:, 0] * mean[:, 1]) * bessel
    cov[:, 1, 1] = (eyy - mean[:, 1] ** 2) * bessel

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
