"""Expectation values built on the Gaussian engine.

Survival probabilities are Gaussian overlap determinants and the energy
generating function is closed form.  A centred state's mean angle is closed
form; every other angle expectation is one integral over the physical
angle, where the state is O(1) at every ``beta*t``: of a function of the
canonical angle alone (thermal), or of ``a * norm`` times the radial profile of
a displaced physical state.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy

from .errors import QuadratureNotConverged, RequiresFriction, _check_real
from .gaussian import (_DEGENERATE_TOL, Gaussian2D, _det, _inverse, _push, evolve,
                       ground_state, state_overlap)
from .model import DerivedParams
from .quadrature import integrate

__all__ = [
    "survival_probability",
    "longtime_survival",
    "nofriction_survival",
    "mean_angle",
    "phase_expectation",
    "thermal_angle_expectation",
    "energy_generating_function",
]


def survival_probability(d: DerivedParams, t: float) -> float:
    """Ensemble-averaged probability that the ground state is still occupied.

    The overlap of the noise-evolved ground state with the ground state is a
    single Gaussian integral; for a centred evolved covariance ``C`` it equals
    ``1/sqrt(det(C + I/2))``, which lies in (0, 1].  Rounding can read one ulp
    above 1 at lags near 1e-14, so the result is capped at 1.
    """
    return min(state_overlap(evolve(ground_state(), d, t), ground_state()), 1.0)


def longtime_survival(d: DerivedParams, t: float) -> float:
    """Large-``beta*t`` asymptote of :func:`survival_probability`.

    Uses the thermalised covariance, so it is meaningful only once memory of
    the initial state is damped out; it does not equal 1 at ``t = 0``.
    """
    t = _check_real("time t", t)
    if d.beta == 0.0:
        raise RequiresFriction("the long-time survival form requires beta > 0")
    big_d = d.temperature_number
    decay = math.exp(-d.beta * t)
    return (2.0 / big_d) * decay / math.sqrt((1.0 + 1.0 / big_d)
                                             * (1.0 + decay * decay / big_d))


def nofriction_survival(d: DerivedParams, t: float) -> float:
    """Exact survival probability when friction strictly vanishes.

    Closed form in the free-noise number ``No = mu/(m*omega**2*hbar)``:

        1 / sqrt((1 + No*w*t/2)**2 - (No/2)**2 * sin(w*t)**2)

    Valid for all ``t``; the oscillator heats without bound, so this decays
    like ``1/(w*t)`` instead of exponentially.
    """
    t = _check_real("time t", t)
    no = d.noise_number_free
    wt = d.omega * t
    return 1.0 / math.sqrt((1.0 + no * wt / 2.0) ** 2
                           - (no / 2.0) ** 2 * math.sin(wt) ** 2)


def _centred_mean_angle(cov, squeeze: float) -> float:
    """Mean angle of the centred Gaussian ``S @ cov @ S``, ``S = diag(1/squeeze, 1)``.

    The angular central Gaussian law (Tyler, Biometrika 1987) gives
    ``atan2(-b, d + sqrt(det))`` for the covariance ``[[a, b], [b, d]]``;
    ``S`` scales both arguments by ``1/squeeze``.  No term cancels, and
    ``sqrt(pivot)*sqrt(Schur complement)`` stays finite where ``det``
    overflows.  ``0.0 - b`` keeps ``+0.0`` for an uncorrelated state.
    """
    a, b, d = float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])
    hi, lo = max(a, d), min(a, d)
    schur = lo - b * (b / hi) if hi > 0.0 else 0.0  # det = hi*schur, as in _det
    if hi * schur <= _DEGENERATE_TOL:
        raise ValueError("degenerate covariance has no angle density")
    return math.atan2(0.0 - b, squeeze * d + math.sqrt(hi) * math.sqrt(schur))


def _angle_profile(mean: np.ndarray, cov: np.ndarray):
    """Radial reduction of the displaced Gaussian ``(mean, cov)`` against functions of angle.

    Returns ``(profile, norm)`` with ``norm * integral(f(phi) * profile(phi) dphi)
    = E[f(angle)]``: with ``q = u^T C^{-1} u``, the radial integral
    ``int_0^inf R * rho(R*u(phi)) dR`` is ``1/q(phi)`` plus an erf term in the mean,
    routed through ``erfcx`` so nothing overflows.  ``C`` takes the mean of ``cov``'s
    two off-diagonals, which a pushed correlated start rounds apart.

    A point or rank-1 state raises ``ValueError``, judged at the state's own scale as
    by ``Gaussian2D.is_degenerate``.  The profile itself is built from
    ``(2**-j m, 4**-j C)``, which has the same angle law; ``j`` puts the largest entry
    in [0.5, 2), so ``det`` does not overflow past entries of ~1e154.  The scaling is
    exact, so the result depends on ``(m, C)`` only up to that scale.  Where ``det`` is
    still <= ``_DEGENERATE_TOL`` there, the eigenvalues lie ~1e300 apart and the state
    is too eccentric for the quadrature: :class:`QuadratureNotConverged`.  A weight
    ``q`` that rounds to zero or below makes the integrand non-finite, which
    :func:`integrate` reports the same way.
    """
    (a, b), (c, e) = cov.tolist()
    off = (b + c) / 2.0
    sym = np.array([[a, off], [off, e]])
    if _det(sym) <= _DEGENERATE_TOL:
        raise ValueError("degenerate covariance has no angle density")
    j = math.frexp(max(abs(a), abs(off), abs(e)))[1] // 2
    sym = np.ldexp(sym, -2 * j)
    det = _det(sym)
    if det <= _DEGENERATE_TOL:
        raise QuadratureNotConverged(f"state too eccentric: det = {det!r} at unit scale",
                                     math.nan, math.inf, math.nan)
    i00, i01, i11 = _inverse(sym, det)
    m0, m1 = (math.ldexp(v, -j) for v in mean.tolist())
    norm = 1.0 / (2.0 * math.pi * math.sqrt(det))
    g0, g1 = i00 * m0 + i01 * m1, i01 * m0 + i11 * m1
    w = m0 * g0 + m1 * g1
    damp = math.exp(-w / 2.0)

    def offset(phi: np.ndarray) -> np.ndarray:
        c, s = np.cos(phi), np.sin(phi)
        q = i00 * c * c + 2.0 * i01 * c * s + i11 * s * s
        lin = c * g0 + s * g1
        h = lin / np.sqrt(2.0 * q)
        # h^2 <= w/2 by Cauchy-Schwarz, so the exponent stays <= 0; erfcx sees only h < 0
        tail = np.where(h >= 0.0, np.exp(h * h - w / 2.0) * (1.0 + scipy.special.erf(h)),
                        damp * scipy.special.erfcx(-np.minimum(h, 0.0)))
        return damp / q + lin * math.sqrt(math.pi / 2.0) * tail / q ** 1.5

    return offset, norm


def _angle_rule(f: Callable[[np.ndarray], np.ndarray], beta_t: float, tol: float,
                weight: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Integral of ``f(a) * weight(theta)`` over the physical angle ``theta`` in [-pi, pi).

    ``a`` is the canonical angle, ``tan a = exp(-beta_t) tan theta``; ``f`` and ``weight``
    take arrays, and without a ``weight`` ``theta`` is never formed.  The quadrants fold
    onto ``theta`` in (0, pi/2), covered by three panels end to end in one parameter ``s``,
    by maps exact in floats: ``z = exp(cut - v) = -1 - s`` on (0, 1], ``w = tan theta = -s``
    on [0, 1] and ``v = ln tan theta = s`` on [0, cut] in pieces of at most 2.  ``a`` turns
    at ``v = beta_t``; past ``v = cut = min(beta_t, 40)`` the turn weighs far below ``tol``,
    and nodes out to a large ``beta_t`` would all sit where the weight underflows.
    """
    cut = min(beta_t, 40.0)
    shrink, far, lift = math.exp(-beta_t), math.exp(-cut), math.exp(cut - beta_t)

    def g(s: np.ndarray) -> np.ndarray:
        i, j = np.searchsorted(s[:, 0], (-1.0, 0.0))  # rows of the z, w and v panels
        z, w, e = -1.0 - s[:i], -s[i:j], np.exp(-s[j:])
        a = np.concatenate([np.arctan2(lift, z), np.arctan(w * shrink),
                            np.arctan(np.exp(s[j:] - beta_t))])
        jac = np.concatenate([far / (1.0 + (z * far) ** 2), 1.0 / (1.0 + w * w),
                              e / (1.0 + e * e)])
        if weight is None:
            return jac * (f(a) + f(math.pi - a) + f(a - math.pi) + f(-a))
        theta = np.concatenate([np.arctan2(1.0, z * far), np.arctan(w), np.arctan2(1.0, e)])
        return jac * (f(a) * weight(theta) + f(math.pi - a) * weight(math.pi - theta)
                      + f(a - math.pi) * weight(theta - math.pi) + f(-a) * weight(-theta))

    n = math.ceil(cut / 2.0)
    return integrate(g, (-2.0, -1.0, 0.0, *(cut * k / n for k in range(1, n + 1))), tol)


def _mean_angle(mean: np.ndarray, cov: np.ndarray, beta_t: float, tol: float) -> float:
    """Mean canonical angle of the physical-frame Gaussian ``(mean, cov)`` at ``beta_t``.

    Closed form for a centred state, else the physical-angle integral to ``tol``;
    ``tol`` is checked for both.
    """
    tol = _check_real("tol", tol, positive=True)
    if not mean.any():  # centred
        return _centred_mean_angle(cov, math.exp(-beta_t))
    profile, norm = _angle_profile(mean, cov)
    return _angle_rule(lambda a: a * norm, beta_t, tol, profile)


def mean_angle(state: Gaussian2D, tol: float = 1e-10) -> float:
    """Expectation of the polar angle ``atan2(y, x)`` on [-pi, pi) in ``state``.

    Closed form for a centred state, else angular quadrature to ``tol``.
    Signs follow the branch convention ``x + i*y = R*exp(i*phi)``.
    """
    return _mean_angle(state.mean, state.cov, 0.0, tol)


def phase_expectation(state0: Gaussian2D | None, d: DerivedParams, t: float,
                      tol: float = 1e-10) -> float:
    """Expectation of the quantised phase at time ``t``.

    ``state0`` is the initial state (ground state when ``None``).  Its physical
    state ``(F m0, F C0 F^T + cov_physical)`` is O(1) at every ``beta*t``: where
    its mean is zero the value is closed form in it, else it is its
    physical-angle integral to ``tol``.  Both decay to zero.
    """
    state0 = ground_state() if state0 is None else state0
    return _mean_angle(*_push(state0.mean, state0.cov, d, t), d.beta * _check_real("time t", t), tol)


def thermal_angle_expectation(phi_func: Callable[[np.ndarray], np.ndarray],
                              d: DerivedParams, t: float, tol: float = 1e-10) -> float:
    """Long-time expectation of a function of the canonical angle alone.

    The stationary physical angle is uniform at every ``beta*t``, so this is
    the average of ``phi_func`` over the physical angle, to ``tol``.  In the
    canonical angle the same law piles up on the ``x``-axis (``phi = 0`` and
    ``+-pi``) as ``beta*t`` grows.  ``phi_func`` is called on ndarrays, ufunc-style
    (``np.cos``, not ``math.cos``); a scalar return, as from ``lambda phi: 1.0``, is broadcast.
    """
    return _angle_rule(phi_func, d.beta * _check_real("time t", t), tol) / (2.0 * math.pi)


def energy_generating_function(d: DerivedParams, b_param: float, t: float) -> float:
    """Thermal-limit expectation of ``exp(-B * E_osc)``, ``E_osc`` the physical energy.

    Exact Gaussian evaluation against the thermalised state:

        1 / (cosh(K) + D * exp(beta*t) * sinh(K)),   K = hbar*omega*B*exp(-beta*t)/2

    with ``D = temperature_number``.  At ``B = 0`` this is the trace, 1; as
    ``beta*t -> inf`` it tends to the classical value ``1/(1 + B*theta)``.
    Dividing through by ``cosh(K) = (1 + exp(-2K)) / (2*exp(-K))`` and using
    ``exp(beta*t) * K = hbar*omega*B/2`` gives

        2*exp(-K) / ((1 + exp(-2K)) * (1 + D * (hbar*omega*B/2) * tanh(K)/K)),

    which cannot overflow; for ``K`` beyond ~745 it underflows to 0.
    """
    t = _check_real("time t", t)
    half_hwb = d.params.hbar * d.omega * _check_real("b_param", b_param) / 2.0
    k = half_hwb * math.exp(-d.beta * t)
    tanhc = math.tanh(k) / k if k > 0.0 else 1.0
    decay = math.exp(-k)
    return 2.0 * decay / ((1.0 + decay * decay)
                          * (1.0 + d.temperature_number * half_hwb * tanhc))
