"""Reference implementations the tests compare the package against.

They are deliberately plain (entry-by-entry loops, per-instant coefficient
objects, step-by-step moment recursions) and are not part of the package's
public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from wigosc import DerivedParams, ModelParams

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
