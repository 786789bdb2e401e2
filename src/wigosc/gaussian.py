"""Gaussian states and the noise-averaged propagator in the phase plane.

Every state handled here is a (possibly degenerate) bivariate Gaussian in the
dimensionless canonical coordinates ``(x, y)``.  A :class:`Gaussian2D` with
``log_mass = 0`` is a unit-mass phase-space density: it integrates to 1 under
``dx dy``, which is the dimensionless form of the trace normalisation of a
quantum state (``dp dq = hbar dx dy`` and the density carries the ``1/hbar``).

Averaging the deterministic flow over realisations of the white-noise force
turns the delta-function propagator of the quadratic generator into a Gaussian
kernel.  Its covariance is assembled from three elementary damped-trig
integrals with closed-form antiderivatives; adaptive quadrature of the same
integrals is kept as a test oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RequiresFriction
from .model import DerivedParams, classical_flow

__all__ = [
    "Gaussian2D",
    "PropagatorKernel",
    "ground_state",
    "coherent_state",
    "noise_form",
    "noise_form_longtime",
    "propagator",
    "evolve",
    "thermal_state",
    "state_overlap",
]

_DEGENERATE_TOL = 1e-300


def _det(m) -> float:
    """Determinant of the symmetric 2x2 ``m``, pivoting on the larger diagonal entry.

    ``a*(d - b*(b/a))`` overflows only when the determinant itself does; the
    plain ``a*d - b*b`` meets ``inf - inf`` first.  For positive
    semidefinite ``m``, ``|b/a| <= 1``, so the result is never NaN.
    """
    a, b, d = float(m[0, 0]), float(m[0, 1]), float(m[1, 1])
    if abs(d) > abs(a):
        a, d = d, a
    return a * (d - b * (b / a)) if a != 0.0 else -b * b


def _inverse(m, det: float) -> tuple[float, float, float]:
    """Entries ``(i00, i01, i11)`` of the symmetric 2x2 ``m``'s inverse: adjugate over ``det``."""
    return float(m[1, 1]) / det, -float(m[0, 1]) / det, float(m[0, 0]) / det


def _min_eig(m) -> float:
    """Smaller eigenvalue of the symmetric 2x2 ``m``, in closed form."""
    a, b, d = float(m[0, 0]), float(m[0, 1]), float(m[1, 1])
    return (a + d) / 2.0 - math.hypot((a - d) / 2.0, b)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Gaussian2D:
    """Bivariate Gaussian phase-space density in canonical ``(x, y)``.

    Parameters
    ----------
    mean : ndarray, shape (2,)
    cov : ndarray, shape (2, 2)
        Symmetric positive-semidefinite; an exactly singular covariance is
        allowed and flagged (delta-like direction).
    log_mass : float
        Log of the total integral under ``dx dy``.  Unit mass (``0.0``)
        corresponds to a trace-one state.
    """

    mean: np.ndarray
    cov: np.ndarray
    log_mass: float = 0.0

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(2)
        (a, b), (c, d) = np.array(self.cov, dtype=float).reshape(2, 2).tolist()
        if not all(map(math.isfinite, (*mean.tolist(), a, b, c, d))):
            raise ValueError("mean and cov must be finite")
        asym = abs(b - c)
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
        if asym > 1e-12 * scale:
            raise ValueError(f"covariance not symmetric (asymmetry {asym:.3e})")
        off = (b + c) / 2.0
        cov = np.array([[a, off], [off, d]])
        min_eig = _min_eig(cov / scale)
        if min_eig < -1e-12:
            raise ValueError(f"covariance not positive semidefinite "
                             f"(min eig {min_eig * scale:.3e})")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(cov))

    @property
    def mass(self) -> float:
        return math.exp(self.log_mass)

    @property
    def is_degenerate(self) -> bool:
        return _det(self.cov) <= _DEGENERATE_TOL

    def density(self, x, y):
        """Density value(s) at ``(x, y)``; requires a non-degenerate covariance."""
        det = _det(self.cov)
        if det <= _DEGENERATE_TOL:
            raise ValueError("degenerate covariance has no pointwise density")
        i00, i01, i11 = _inverse(self.cov, det)
        dx = np.asarray(x, dtype=float) - self.mean[0]
        dy = np.asarray(y, dtype=float) - self.mean[1]
        quad = i00 * dx * dx + 2.0 * i01 * dx * dy + i11 * dy * dy
        return self.mass * np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))

    def physical(self, beta: float, t: float) -> "Gaussian2D":
        """The same density expressed in the physical pair ``(X, y)``.

        ``X = x*exp(-beta*t)``, so the x-row/column shrink and the mass is
        unchanged (the Jacobian is absorbed by the amplitude).
        """
        s = math.exp(-beta * t)
        scale = np.array([[s, 0.0], [0.0, 1.0]])
        return Gaussian2D(scale @ self.mean, scale @ self.cov @ scale, self.log_mass)


_GROUND = Gaussian2D(np.zeros(2), 0.5 * np.eye(2))


def ground_state() -> Gaussian2D:
    """Minimum-uncertainty isotropic state: mean 0, covariance I/2, mass 1.

    Always the same instance; it is frozen and its arrays are read-only.
    """
    return _GROUND


def coherent_state(x0: float, y0: float) -> Gaussian2D:
    """Displaced minimum-uncertainty state centred at ``(x0, y0)``."""
    return Gaussian2D(np.array([x0, y0], dtype=float), 0.5 * np.eye(2))


# 8-point Gauss-Legendre rule on [0, 1], for the short-lag integrals below
_GAUSS_U, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_GAUSS_U, _GAUSS_W = (_GAUSS_U + 1.0) / 2.0, _GAUSS_W / 2.0


def _damped_trig_integrals(c: float, T: float) -> tuple[float, float, float]:
    """``int_0^T exp(-c*u) * {sin^2 u, sin u cos u, cos^2 u} du``.

    The closed forms cancel O(T) terms down to O(T**3) and O(T**2) results
    (relative error ~eps/T**2), so short lags, ``(c + 2)*T < 0.1``, use an
    8-point Gauss rule: within 1e-15 of 40-digit mpmath for c up to 200.
    """
    if T == 0.0:
        return 0.0, 0.0, 0.0
    if (c + 2.0) * T < 0.1:
        u = T * _GAUSS_U
        w = T * _GAUSS_W * np.exp(-c * u)
        s, co = np.sin(u), np.cos(u)
        return float(w @ (s * s)), float(w @ (s * co)), float(w @ (co * co))
    if c == 0.0:
        half_s2 = math.sin(T) * math.cos(T)
        return (T - half_s2) / 2.0, math.sin(T) ** 2 / 2.0, (T + half_s2) / 2.0
    e = math.exp(-c * T)
    c2t, s2t = math.cos(2.0 * T), math.sin(2.0 * T)
    base = -math.expm1(-c * T) / c
    cos_part = (c + e * (2.0 * s2t - c * c2t)) / (c * c + 4.0)
    sin_part = (2.0 - e * (2.0 * c2t + c * s2t)) / (c * c + 4.0)
    return (base - cos_part) / 2.0, sin_part / 2.0, (base + cos_part) / 2.0


def noise_form(d: DerivedParams, t: float) -> np.ndarray:
    """Noise quadratic form ``Q`` accumulated between 0 and ``t``, read-only 2x2.

    ``Q`` acts on the dual variables ``(a, b)``: the ensemble average over
    white-noise histories contributes ``exp(-0.5 * (a, b) Q (a, b)^T)`` to
    the Fourier representation of the propagator.  It is positive
    semidefinite and vanishes at ``t = 0``.

    The integrand couples ``a`` to the position response ``sin`` and ``b``
    to the momentum response ``cos - g*sin`` (``g = beta/(2*omega_damped)``),
    each damped by ``exp(-beta * lag)``.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    od = d.omega_damped
    c = d.beta / od
    g = c / 2.0
    T = od * t
    i_ss, i_sc, i_cc = _damped_trig_integrals(c, T)
    n = d.noise_number
    q_aa = n * i_ss
    q_ab = n * (i_sc - g * i_ss)
    q_bb = n * (i_cc - 2.0 * g * i_sc + g * g * i_ss)
    return _readonly(np.array([[q_aa, q_ab], [q_ab, q_bb]]))


def noise_form_longtime(d: DerivedParams) -> np.ndarray:
    """Stationary limit of :func:`noise_form` (friction must be positive)."""
    if d.beta == 0.0:
        raise RequiresFriction("the noise form has no finite long-time limit at beta = 0")
    od, w, b, n = d.omega_damped, d.omega, d.beta, d.noise_number
    return _readonly(np.diag([n * od ** 3 / (2.0 * w * w * b), n * od / (2.0 * b)]))


@dataclass(frozen=True)
class PropagatorKernel:
    """Noise-averaged Gaussian transition kernel over an elapsed time ``t``.

    ``flow`` is the physical :func:`~wigosc.model.classical_flow` over ``t``
    and ``cov_physical`` the covariance the noise adds in the physical frame.
    """

    flow: np.ndarray
    cov_physical: np.ndarray


def propagator(d: DerivedParams, t: float) -> PropagatorKernel:
    """Transition kernel of the noise-averaged dynamics from 0 to ``t``.

    The dual-variable form is integrated out exactly: in the physical pair
    the added covariance is ``[[eps^2*Q_bb, Q_ab], [Q_ab, Q_aa/eps^2]]``.
    Nothing grows like ``exp(beta*t)``, so the kernel is finite at every ``t``.
    """
    (q_aa, q_ab), (_, q_bb) = noise_form(d, t).tolist()
    e2 = d.eps ** 2
    return PropagatorKernel(flow=classical_flow(d, t),
                            cov_physical=np.array([[e2 * q_bb, q_ab], [q_ab, q_aa / e2]]))


def evolve(state: Gaussian2D, d: DerivedParams, t: float) -> Gaussian2D:
    """Push a Gaussian state from time 0 to ``t`` through the averaged dynamics.

    The canonical flow and noise covariance are the physical ones with the x
    row (and column) scaled by ``s = exp(beta*t)``; mass is preserved.
    """
    kern = propagator(d, t)
    s = math.exp(d.beta * t)
    m_can = kern.flow.copy()
    m_can[0] *= s
    (xx, q_ab), (_, yy) = kern.cov_physical.tolist()
    noise = np.array([[(s * xx) * s, s * q_ab], [q_ab * s, yy]])
    mean = m_can @ state.mean
    cov = m_can @ state.cov @ m_can.T + noise
    return Gaussian2D(mean, cov, state.log_mass)


def thermal_state(d: DerivedParams, t: float) -> Gaussian2D:
    """Long-time (Maxwell-Boltzmann) state at time ``t``, canonical coordinates.

    Unit mass; canonical covariance ``diag((D/2)*exp(2*beta*t), D/2)`` with
    ``D = temperature_number``, i.e. both physical marginals have variance
    ``D/2``.  Requires friction: without it the oscillator never thermalises.
    """
    if d.beta == 0.0:
        raise RequiresFriction("thermalisation requires beta > 0")
    half_d = d.temperature_number / 2.0
    grow = math.exp(2.0 * d.beta * t)
    return Gaussian2D(np.zeros(2), np.diag([half_d * grow, half_d]))


def state_overlap(a: Gaussian2D, b: Gaussian2D) -> float:
    """Quantum overlap ``Tr(rho_a rho_b)`` of two Gaussian states.

    Equals ``2*pi * integral(rho_a * rho_b dx dy)``; for unit-mass states

        mass_a*mass_b * exp(-0.5*d^T (Ca+Cb)^{-1} d) / sqrt(det(Ca+Cb))

    with ``d`` the mean separation.  If exactly one state is a delta
    (degenerate with zero covariance), the overlap is ``2*pi`` times the
    other density evaluated at its location.
    """
    csum = a.cov + b.cov
    det = _det(csum)
    if det <= _DEGENERATE_TOL:
        for delta, other in ((a, b), (b, a)):
            if np.all(delta.cov == 0.0) and not other.is_degenerate:
                return float(2.0 * math.pi * delta.mass
                             * other.density(delta.mean[0], delta.mean[1]))
        raise ValueError("overlap of two degenerate states is not defined")
    i00, i01, i11 = _inverse(csum, det)
    dx, dy = (a.mean - b.mean).tolist()
    quad = i00 * dx * dx + 2.0 * i01 * dx * dy + i11 * dy * dy
    return a.mass * b.mass * math.exp(-0.5 * quad) / math.sqrt(det)
