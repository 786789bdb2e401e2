"""Gaussian states and the noise-averaged propagator in the phase plane.

Every state handled here is a (possibly degenerate) bivariate Gaussian in the
dimensionless canonical coordinates ``(x, y)``.  A :class:`Gaussian2D` is a
trace-one state: it integrates to 1 under ``dx dy``, which is the dimensionless
form of the trace normalisation of a quantum state (``dp dq = hbar dx dy`` and
the density carries the ``1/hbar``).

Averaging the deterministic flow over realisations of the white-noise force
turns the delta-function propagator of the quadratic generator into a Gaussian
kernel.  Its covariance integrates only ``I_ss``: one regrouped closed form at
every damping, and an 8-point Gauss rule for the short lags where that form
cancels.  Inside the engine a mean is ``(m0, m1)``, a covariance ``(a, b, d)`` for
``[[a, b], [b, d]]`` and the kernel ``_kernel``'s map of floats; only public values,
such as ``propagator``'s and ``Gaussian2D``'s, wrap them as arrays.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import RequiresFriction, _check_real, _check_real_array
from .model import DerivedParams, _flow_terms

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
_LOG_MAX = math.log(sys.float_info.max)  # math.exp overflows beyond this


def _entries(cov: np.ndarray) -> tuple[float, float, float]:
    """The entries ``(a, b, d)`` of the symmetric 2x2 ``cov = [[a, b], [b, d]]``, as floats."""
    (a, b), (_, d) = cov.tolist()
    return a, b, d


def _det(a: float, b: float, d: float) -> float:
    """Determinant of the symmetric 2x2 ``[[a, b], [b, d]]``, pivoting on the larger diagonal entry.

    ``a*(d - b*(b/a))`` overflows only when the determinant itself does; the
    plain ``a*d - b*b`` meets ``inf - inf`` first.  For a positive
    semidefinite matrix, ``|b/a| <= 1``, so the result is never NaN.
    """
    if abs(d) > abs(a):
        a, d = d, a
    return a * (d - b * (b / a)) if a != 0.0 else -b * b


def _inverse(a: float, b: float, d: float, det: float) -> tuple[float, float, float]:
    """Entries ``(i00, i01, i11)`` of the inverse of ``[[a, b], [b, d]]``: adjugate over ``det``."""
    return d / det, -b / det, a / det


def _min_eig(a: float, b: float, d: float) -> float:
    """Smaller eigenvalue of the symmetric 2x2 ``[[a, b], [b, d]]``, in closed form."""
    return (a + d) / 2.0 - math.hypot((a - d) / 2.0, b)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Gaussian2D:
    """Bivariate Gaussian phase-space density in canonical ``(x, y)``, of unit mass.

    Parameters
    ----------
    mean : ndarray, shape (2,)
    cov : ndarray, shape (2, 2)
        Symmetric positive-semidefinite; an exactly singular covariance is
        allowed and flagged (delta-like direction).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _check_real_array("mean", self.mean, (2,))
        (a, b), (c, d) = _check_real_array("cov", self.cov, (2, 2)).tolist()
        if not all(map(math.isfinite, (*mean.tolist(), a, b, c, d))):
            raise ValueError("mean and cov must be finite")
        asym = abs(b - c)
        scale = max(1.0, abs(a), abs(b), abs(c), abs(d))
        if asym > 1e-12 * scale:
            raise ValueError(f"covariance not symmetric (asymmetry {asym:.3e})")
        off = (b + c) / 2.0
        min_eig = _min_eig(a / scale, off / scale, d / scale)
        if min_eig < -1e-12:
            raise ValueError(f"covariance not positive semidefinite "
                             f"(min eig {min_eig * scale:.3e})")
        object.__setattr__(self, "mean", _readonly(mean))
        object.__setattr__(self, "cov", _readonly(np.array([[a, off], [off, d]])))

    @property
    def is_degenerate(self) -> bool:
        return _det(*_entries(self.cov)) <= _DEGENERATE_TOL

    def density(self, x, y):
        """Density value(s) at ``(x, y)``; requires a non-degenerate covariance."""
        cov = _entries(self.cov)
        det = _det(*cov)
        if det <= _DEGENERATE_TOL:
            raise ValueError("degenerate covariance has no pointwise density")
        i00, i01, i11 = _inverse(*cov, det)
        dx = np.asarray(x, dtype=float) - self.mean[0]
        dy = np.asarray(y, dtype=float) - self.mean[1]
        quad = i00 * dx * dx + 2.0 * i01 * dx * dy + i11 * dy * dy
        return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))

    def physical(self, beta: float, t: float) -> "Gaussian2D":
        """The same density expressed in the physical pair ``(X, y)``.

        ``X = x*exp(-beta*t)``, so the x-row/column shrink and the mass stays
        1 (the Jacobian is absorbed by the amplitude).  ``beta`` and ``t``
        must be finite and ``>= 0``.
        """
        (m0, m1), (a, b, d) = _stretch_x(self.mean.tolist(), _entries(self.cov),
                                         -_check_real("beta", beta) * _check_real("time t", t))
        return Gaussian2D(np.array([m0, m1]), np.array([[a, b], [b, d]]))


def _stretch_x(mean, cov, log_s: float) -> tuple[tuple[float, float], tuple[float, float, float]]:
    """Float moments ``(mean, cov)``, the x entry, row and column scaled by ``s = exp(log_s)``: the
    one map between the frames, ``log_s = beta*t`` to canonical and ``-beta*t`` back.  A canonical
    state past a float (``beta*t`` ~340-355, by ``D``) raises ``ValueError``, with no numpy warning.
    """
    s = math.exp(log_s) if log_s <= _LOG_MAX else math.inf
    (m0, m1), (a, b, d) = mean, cov
    m0, a, b = s * m0, (s * a) * s, s * b
    if not all(map(math.isfinite, (m0, a, b))):
        raise ValueError(f"the canonical-frame state overflows a float at beta*t = {log_s!r}; "
                         "the physical frame stays finite: use propagator(d, t).cov_physical")
    return (m0, m1), (a, b, d)


_GROUND = Gaussian2D(np.zeros(2), 0.5 * np.eye(2))


def ground_state() -> Gaussian2D:
    """Minimum-uncertainty isotropic state: mean 0, covariance I/2.

    Always the same instance; it is frozen and its arrays are read-only.
    """
    return _GROUND


def coherent_state(x0: float, y0: float) -> Gaussian2D:
    """Displaced minimum-uncertainty state centred at ``(x0, y0)``, both finite."""
    mean = [_check_real("x0", x0, signed=True), _check_real("y0", y0, signed=True)]
    return Gaussian2D(np.array(mean), 0.5 * np.eye(2))


# 8-point Gauss-Legendre rule on [0, 1] as (node, weight) pairs, for short lags
_GAUSS = tuple((float(u + 1.0) / 2.0, float(w) / 2.0)
               for u, w in zip(*np.polynomial.legendre.leggauss(8)))


def _damped_sin2_integral(c: float, T: float) -> float:
    """``I_ss = int_0^T exp(-c*u) * sin(u)**2 du`` at any ``c >= 0``.

    The antiderivative regrouped around ``base = int_0^T exp(-c*u) du`` cancels
    only to ~6 eps/((c*T)**2 + 4*T**2) relative, so ``(c + 2)*T < 2`` takes an
    8-point Gauss rule; both stay within 6 eps of 60 digits.
    """
    if (c + 2.0) * T < 2.0:
        i_ss = 0.0
        for node, weight in _GAUSS:
            u = T * node
            s = math.sin(u)
            i_ss += T * weight * math.exp(-c * u) * s * s
        return i_ss
    x = c * T
    base = T * (-math.expm1(-x) / x) if x != 0.0 else T
    return (2.0 * base - math.exp(-x) * (c * math.sin(T) ** 2 + math.sin(2.0 * T))) / (c * c + 4.0)


def _noise_terms(d: DerivedParams, t: float) -> tuple[float, float, float]:
    """Entries ``(q_aa, q_ab, q_bb)`` of :func:`noise_form`, as floats; ``t`` is not checked."""
    od, n = d.omega_damped, d.noise_number
    c, T = d.beta / od, od * t
    g, e, s = c / 2.0, math.exp(-c * T), math.sin(T)
    i_ss = _damped_sin2_integral(c, T)
    return n * i_ss, n * (e * s * s / 2.0), n * ((1.0 + g * g) * i_ss + e * s * math.cos(T))


def noise_form(d: DerivedParams, t: float) -> np.ndarray:
    """Noise quadratic form ``Q`` accumulated between 0 and ``t``, read-only 2x2.

    ``Q`` acts on the dual variables ``(a, b)``: the ensemble average over
    white-noise histories contributes ``exp(-0.5 * (a, b) Q (a, b)^T)`` to
    the Fourier representation of the propagator.  It is positive
    semidefinite and vanishes at ``t = 0``.

    The integrand couples ``a`` to the position response ``sin`` and ``b``
    to the momentum response ``cos - g*sin`` (``g = beta/(2*omega_damped)``),
    each damped by ``exp(-beta * lag)``.  For ``Y = exp(-g*u)*sin u``,
    ``Y*Y' = (Y**2/2)'`` and ``Y'**2 = (Y*Y')' + 2g*Y*Y' + (1 + g*g)*Y**2``, so
    only ``int_0^T Y**2`` is integrated (``T = omega_damped*t``).
    """
    q_aa, q_ab, q_bb = _noise_terms(d, _check_real("time t", t))
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


def _kernel(d: DerivedParams, t: float) -> tuple:
    """Map ``(f00, f01, f10, f11, q00, q01, q11)`` of the flow and, formed here only, the physical
    covariance the noise adds, ``[[eps^2*Q_bb, Q_ab], [Q_ab, Q_aa/eps^2]]``; ``t`` is not checked.
    """
    q_aa, q_ab, q_bb = _noise_terms(d, t)
    e2 = d.eps ** 2
    return (*_flow_terms(d, t), e2 * q_bb, q_ab, q_aa / e2)


def propagator(d: DerivedParams, t: float) -> PropagatorKernel:
    """Transition kernel of the noise-averaged dynamics from 0 to ``t``: :func:`_kernel` as arrays.

    Nothing grows like ``exp(beta*t)``, so the kernel is finite at every ``t``.
    """
    f00, f01, f10, f11, q00, q01, q11 = _kernel(d, _check_real("time t", t))
    return PropagatorKernel(flow=_readonly(np.array([[f00, f01], [f10, f11]])),
                            cov_physical=_readonly(np.array([[q00, q01], [q01, q11]])))


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


def _push(mean, cov, d: DerivedParams, t: float) -> tuple[tuple[float, float], tuple]:
    """``(F m0, (F, F C0 F^T + cov_physical))`` at ``t`` of the float moments ``(m0, C0)``.

    ``(I, C0)`` then :func:`_kernel`, composed in floats: no BLAS kernel rounds it; ``t`` is not checked.
    """
    law = _compose((1.0, 0.0, 0.0, 1.0, *cov), _kernel(d, t))
    (m0, m1), (f00, f01, f10, f11) = mean, law[:4]
    return (f00 * m0 + f01 * m1, f10 * m0 + f11 * m1), law


def evolve(state: Gaussian2D, d: DerivedParams, t: float) -> Gaussian2D:
    """Push a Gaussian state from time 0 to ``t`` through the averaged dynamics.

    The canonical state is the physical one, ``(F m0, F C0 F^T + cov_physical)``,
    with the x entry, row and column stretched by ``s = exp(beta*t)``; each mean
    entry is ``diag(s, 1) F m0`` rounded once from its exact value.  Where that
    overflows a float (``beta*t`` past ~340-355, by ``D``) this raises ``ValueError``.
    """
    t = _check_real("time t", t)
    m = state.mean.tolist()
    mean, (f00, f01, f10, f11, *cov) = _push(m, _entries(state.cov), d, t)
    _, (a, b, e) = _stretch_x(mean, cov, d.beta * t)  # raises on overflow
    # one rounding: F m0 rounded, then stretched, carries s-fold a cancelling sum's error
    rows = ((math.exp(d.beta * t), f00, f01), (1.0, f10, f11))
    return Gaussian2D(np.array([_round_once(*row, *m) for row in rows]), np.array([[a, b], [b, e]]))


def _round_once(k: float, a: float, b: float, x: float, y: float) -> float:
    """``k*(a*x + b*y)`` of floats, exact in integer units of ``2**-1074``, then rounded once."""
    u = [n << (1075 - q.bit_length()) for n, q in map(float.as_integer_ratio, (k, a, b, x, y))]
    return u[0] * (u[1] * u[3] + u[2] * u[4]) / (1 << 3222)


def thermal_state(d: DerivedParams, t: float) -> Gaussian2D:
    """Long-time (Maxwell-Boltzmann) state at time ``t``, canonical coordinates.

    The physical covariance ``diag(D/2, D/2)``, ``D = temperature_number``, stretched
    to the canonical frame.  Requires friction: without it the oscillator never
    thermalises.  Past ``beta*t`` ~355 no float holds the x variance: ``ValueError``.
    """
    t = _check_real("time t", t)
    if d.beta == 0.0:
        raise RequiresFriction("thermalisation requires beta > 0")
    half_d = d.temperature_number / 2.0
    _, (a, _, e) = _stretch_x((0.0, 0.0), (half_d, 0.0, half_d), d.beta * t)
    return Gaussian2D(np.zeros(2), np.diag([a, e]))


def state_overlap(a: Gaussian2D, b: Gaussian2D) -> float:
    """Quantum overlap ``Tr(rho_a rho_b)`` of two Gaussian states.

    Equals ``2*pi * integral(rho_a * rho_b dx dy)``:

        exp(-0.5*d^T (Ca+Cb)^{-1} d) / sqrt(det(Ca+Cb))

    with ``d`` the mean separation.  If exactly one state is a delta
    (degenerate with zero covariance), the overlap is ``2*pi`` times the
    other density evaluated at its location.
    """
    csum = _entries(a.cov + b.cov)
    det = _det(*csum)
    if not math.isfinite(det):
        raise ValueError("det(Ca + Cb) overflows a float: the overlap is below what the "
                         "canonical frame can resolve")
    if det <= _DEGENERATE_TOL:
        for delta, other in ((a, b), (b, a)):
            if np.all(delta.cov == 0.0) and not other.is_degenerate:
                return float(2.0 * math.pi * other.density(delta.mean[0], delta.mean[1]))
        raise ValueError("overlap of two degenerate states is not defined")
    i00, i01, i11 = _inverse(*csum, det)
    dx, dy = (a.mean - b.mean).tolist()
    quad = i00 * dx * dx + 2.0 * i01 * dx * dy + i11 * dy * dy
    return math.exp(-0.5 * quad) / math.sqrt(det)
