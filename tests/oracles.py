"""Reference implementations the tests compare the package against.

They are deliberately plain (entry-by-entry loops, per-instant coefficient
objects, step-by-step moment recursions, generic ``np.linalg`` calls on 2x2
matrices) and are not part of the package's public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox

from wigosc import DerivedParams, Gaussian2D, ModelParams, SdeConfig, ground_state, propagator
from wigosc.langevin import _BLOCK

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def angle_matrix_loop(g: np.ndarray, fourier: Callable[[int], complex]) -> np.ndarray:
    """Entry-by-entry phase-operator matrix ``i**(m-n) * g[m, n] * c_(n-m)``.

    ``fourier`` is called once per upper-triangle entry; the strict lower
    triangle is filled by conjugation.  Exact oracle for the vectorised
    assembly in :mod:`wigosc.phaseops`.
    """
    n_max = g.shape[0]
    out = np.zeros((n_max, n_max), dtype=complex)
    for m in range(n_max):
        out[m, m] = g[m, m] * fourier(0)
        for n in range(m + 1, n_max):
            k = n - m
            val = _I_POW[(-k) % 4] * g[m, n] * complex(fourier(k))
            out[m, n] = val
            out[n, m] = val.conjugate()
    return out


def eigenpair_spectrum(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues by a full ``eigh`` solve, with the measured eigenpair residual.

    ``residual`` is the largest ``|A v - w v|`` over the eigenpairs, summed by
    ``hypot`` so that it does not overflow for ``|A| ~ 1e250``.  Oracle for
    the values-only solve of :func:`wigosc.phaseops.spectrum`.
    """
    w, v = np.linalg.eigh(a)
    return w, float(np.max(np.hypot.reduce(np.abs(a @ v - v * w), axis=0)))


def exact_eigenvalues(a: np.ndarray, digits: int = 32) -> np.ndarray:
    """Eigenvalues of the Hermitian ``a`` in ``digits``-digit arithmetic, ascending.

    Needs ``mpmath``; the rounding to float adds at most half an ulp.
    """
    import mpmath

    with mpmath.workdps(digits):
        ev = mpmath.eighe(mpmath.matrix(a.tolist()), eigvals_only=True)
        return np.sort([float(x) for x in ev])


def evolve_linalg(state: Gaussian2D, d: DerivedParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``(mean, cov)`` of ``state`` pushed from 0 to ``t`` by generic matrix algebra.

    The canonical flow and noise covariance are the physical ones conjugated
    by ``diag(exp(beta*t), 1)`` as full matrix products, and the result is
    checked positive semidefinite with ``eigvalsh``.  Oracle for
    :func:`wigosc.evolve`, which scales rows and columns instead.
    """
    kern = propagator(d, t)
    scale = np.diag([math.exp(d.beta * t), 1.0])
    flow = scale @ kern.flow
    mean = flow @ state.mean
    cov = flow @ state.cov @ flow.T + scale @ kern.cov_physical @ scale
    if np.linalg.eigvalsh(cov)[0] < -1e-12 * max(1.0, float(np.max(np.abs(cov)))):
        raise ValueError("evolved covariance not positive semidefinite")
    return mean, cov


def overlap_linalg(mean_a, cov_a, mean_b, cov_b) -> float:
    """``Tr(rho_a rho_b)`` of two unit-mass Gaussians by ``np.linalg.det`` and ``solve``.

    Oracle for :func:`wigosc.state_overlap`.
    """
    csum = np.asarray(cov_a) + np.asarray(cov_b)
    diff = np.asarray(mean_a) - np.asarray(mean_b)
    quad = float(diff @ np.linalg.solve(csum, diff))
    return math.exp(-0.5 * quad) / math.sqrt(float(np.linalg.det(csum)))


def survival_linalg(d: DerivedParams, t: float) -> float:
    """Ground-state survival through :func:`evolve_linalg` and :func:`overlap_linalg`."""
    g = ground_state()
    mean, cov = evolve_linalg(g, d, t)
    return overlap_linalg(mean, cov, g.mean, g.cov)


def mean_angle_exact(cov, digits: int = 40) -> float:
    """Mean polar angle on [-pi, pi) of the centred Gaussian with covariance ``cov``.

    The angle integral ``int phi / q(phi) dphi / (2*pi*sqrt(det))``, with
    ``q = u^T C^{-1} u`` built from the adjugate of the float ``cov``, by
    ``digits``-digit tanh-sinh quadrature split at the multiples of pi/2.
    Needs ``mpmath``.  Oracle for the closed form of :func:`wigosc.mean_angle`.
    """
    import mpmath

    (a, b), (_, c) = np.asarray(cov, dtype=float).tolist()
    with mpmath.workdps(digits):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        det = a * c - b * b

        def weighted(phi):
            co, si = mpmath.cos(phi), mpmath.sin(phi)
            return phi * det / (c * co * co - 2 * b * co * si + a * si * si)

        edges = [-mpmath.pi, -mpmath.pi / 2, 0, mpmath.pi / 2, mpmath.pi]
        return float(mpmath.quad(weighted, edges) / (2 * mpmath.pi * mpmath.sqrt(det)))


def phase_expectation_linalg(d: DerivedParams, t: float) -> float:
    """Phase mean of the ground state evolved by :func:`evolve_linalg`, by :func:`mean_angle_exact`.

    The evolved ground state stays centred.  A float quadrature of the same
    integral errs by up to ~5e-12 where the canonical state is eccentric,
    so the angle integral is done in 40 digits.  Oracle for
    ``wigosc.phase_expectation(None, ...)``.
    """
    _, cov = evolve_linalg(ground_state(), d, t)
    return mean_angle_exact(cov)


@dataclass(frozen=True)
class TimeGenerator:
    """Coefficients of the quadratic generator of the motion at one instant.

    The generator (not the energy once friction acts) is

        H_t(p, q) = p_squared*p**2 + q_squared*q**2 + q_linear*q

    in physical units, with ``p`` the canonical momentum.  Hamilton's
    equations for it reproduce ``m*qddot + m*beta*qdot + m*omega**2*q = F``.
    """

    p_squared: float
    q_squared: float
    q_linear: float
    t: float

    def value(self, p: float, q: float) -> float:
        return self.p_squared * p * p + self.q_squared * q * q + self.q_linear * q

    def hamilton_rhs(self, p: float, q: float) -> tuple[float, float]:
        """``(dp/dt, dq/dt)`` generated by this Hamiltonian."""
        return (-(2.0 * self.q_squared * q + self.q_linear), 2.0 * self.p_squared * p)


def time_generator(d: DerivedParams, t: float, force: float = 0.0) -> TimeGenerator:
    """Quadratic generator at time ``t`` with an instantaneous drive value."""
    m, w, b = d.params.mass, d.params.omega, d.params.beta
    decay = math.exp(-b * t)
    grow = math.exp(b * t)
    return TimeGenerator(
        p_squared=decay / (2.0 * m),
        q_squared=grow * m * w * w / 2.0,
        q_linear=-grow * force,
        t=float(t),
    )


def energy_weyl_symbol(d: DerivedParams, b_param: float, t: float) -> Callable:
    """Phase-space symbol of ``exp(-B * E_osc)`` at time ``t``.

    The physical energy is a harmonic Hamiltonian in rescaled constants
    (``m -> m*exp(2*beta*t)``, ``omega -> omega*exp(-beta*t)``), so its
    symbol is the standard Gaussian one evaluated on the rescaled radius
    ``Rbar^2 = x**2*exp(-beta*t) + y**2*exp(beta*t)``.  Returned as a
    vectorised function of canonical ``(x, y)`` for quadrature cross-checks
    of :func:`wigosc.energy_generating_function`.
    """
    hw = d.params.hbar * d.omega
    bt = d.beta * t
    k = hw * b_param * math.exp(-bt) / 2.0
    tk, ck = math.tanh(k), math.cosh(k)
    shrink, grow = math.exp(-bt), math.exp(bt)

    def symbol(x, y):
        rbar2 = np.asarray(x) ** 2 * shrink + np.asarray(y) ** 2 * grow
        return np.exp(-rbar2 * tk) / ck

    return symbol


def scheme_moments(params: ModelParams, dt: float, n_steps: int, mean0: np.ndarray,
                   cov0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and covariance of the semi-implicit Euler-Maruyama chain after ``n_steps``.

    In the dimensionless physical pair ``(X, y)`` of
    :class:`wigosc.MomentReport`, with ``h = omega*dt``, one step of the
    Langevin oracle is linear with additive Gaussian noise,

        X' = (1 - beta*dt)*X - h*y + s*xi,    y' = y + h*X',

    i.e. ``z' = A z + b xi`` with ``s = sqrt(mu*dt)/(hbar*alpha)`` and
    ``alpha = sqrt(m*omega/hbar)``, so the moments obey ``m <- A m`` and
    ``C <- A C A^T + b b^T`` exactly.  The
    recursion never touches the analytic propagator: it is the oracle of the
    discrete scheme itself, whose distance from the propagator is the
    scheme's discretisation bias.
    """
    h = params.omega * dt
    c = 1.0 - params.beta * dt
    alpha = math.sqrt(params.mass * params.omega / params.hbar)
    s = math.sqrt(params.noise_strength * dt) / (params.hbar * alpha)
    step = np.array([[c, -h], [h * c, 1.0 - h * h]])
    kick = s * np.array([1.0, h])
    noise = np.outer(kick, kick)
    mean = np.array(mean0, dtype=float)
    cov = np.array(cov0, dtype=float)
    for _ in range(n_steps):
        mean = step @ mean
        cov = step @ cov @ step.T + noise
    return mean, cov


def run_block_columns(block_index: int, params: ModelParams, cfg: SdeConfig,
                      mean0: np.ndarray, root: np.ndarray | None,
                      rec_idx: np.ndarray) -> np.ndarray:
    """(nout, 5) moment sums of one block, with each stream written into a column.

    The plain layout of the Langevin oracle's block loop: every chunk of
    2500 steps draws each trajectory's normals into its own column of a
    step-major buffer, and each step computes its products afresh.  Exact
    oracle for the row-filled, tiled-transpose noise path of
    ``wigosc.langevin._run_block``: same streams, same arithmetic, so the
    sums must agree bit for bit.
    """
    m, w, b = params.mass, params.omega, params.beta
    alpha = math.sqrt(m * w / params.hbar)
    scale_p = params.hbar * alpha
    dt = cfg.dt
    sq = math.sqrt(params.noise_strength * dt)
    c_fric = 1.0 - b * dt
    c_spring = -m * w * w * dt
    dtm = dt / m

    lo = block_index * _BLOCK
    nb = min(_BLOCK, cfg.n_trajectories - lo)
    gens = [Generator(Philox(key=[cfg.seed, lo + i])) for i in range(nb)]
    q = np.full(nb, mean0[1] / alpha)
    p = np.full(nb, mean0[0] * scale_p)
    if root is not None:
        for i, gen in enumerate(gens):
            x, y = mean0 + root @ gen.standard_normal(2)
            q[i], p[i] = y / alpha, x * scale_p

    sums = np.zeros((len(rec_idx), 5))
    rec_set = {int(s): k for k, s in enumerate(rec_idx)}

    def record(slot: int) -> None:
        x_dim = p / scale_p
        y_dim = alpha * q
        sums[slot] = (x_dim.sum(), y_dim.sum(), (x_dim * x_dim).sum(),
                      (x_dim * y_dim).sum(), (y_dim * y_dim).sum())

    if 0 in rec_set:
        record(rec_set[0])
    step = 0
    while step < cfg.n_steps:
        ns = min(2500, cfg.n_steps - step)
        noise = np.empty((ns, nb))
        for i, gen in enumerate(gens):
            noise[:, i] = gen.standard_normal(ns)
        for s in range(ns):
            p *= c_fric
            p += c_spring * q
            p += sq * noise[s]
            q += p * dtm
            step += 1
            slot = rec_set.get(step)
            if slot is not None:
                record(slot)
    return sums
