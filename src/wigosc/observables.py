"""Expectation values built on the Gaussian engine.

Survival probabilities reduce to determinants via Gaussian overlap algebra;
angle expectations use an exact radial reduction followed by one-dimensional
adaptive quadrature; the long-time energy generating function is closed form.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.special import erf, erfcx

from .errors import QuadratureNotConverged, RequiresFriction
from .gaussian import (_DEGENERATE_TOL, Gaussian2D, _det, _inverse, evolve, ground_state,
                       state_overlap)
from .model import DerivedParams
from .quadrature import integrate_angular

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
    ``1/sqrt(det(C + I/2))``, which lies in (0, 1].
    """
    return state_overlap(evolve(ground_state(), d, t), ground_state())


def longtime_survival(d: DerivedParams, t: float) -> float:
    """Large-``beta*t`` asymptote of :func:`survival_probability`.

    Uses the thermalised covariance, so it is meaningful only once memory of
    the initial state is damped out; it does not equal 1 at ``t = 0``.
    """
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
    no = d.noise_number_free
    wt = d.omega * t
    return 1.0 / math.sqrt((1.0 + no * wt / 2.0) ** 2
                           - (no / 2.0) ** 2 * math.sin(wt) ** 2)


def _lost_weight(phi: float, q: float) -> QuadratureNotConverged:
    return QuadratureNotConverged(f"angle weight q(phi={phi!r}) = {q!r} <= 0: state too eccentric",
                                  math.nan, math.inf, math.nan)


def _angle_profile(state: Gaussian2D):
    """Radial reduction of a Gaussian against functions of angle alone.

    Returns ``(profile, norm)`` with
    ``norm * integral(f(phi) * profile(phi) dphi) = E[f(angle)]``: the radial
    integral ``int_0^inf R * rho(R*u(phi)) dR`` is closed form.  For a
    centred state the profile is simply ``1/q(phi)`` with
    ``q = u^T C^{-1} u``; a non-zero mean adds an erf term, routed through
    ``erfcx`` so nothing overflows however eccentric the state.  A point or
    rank-1 state has no angle density and raises ``ValueError``.  If the
    state is so eccentric that ``q`` rounds to zero or below at some angle,
    the profile raises :class:`QuadratureNotConverged` there.
    """
    det = _det(state.cov)
    if det <= _DEGENERATE_TOL:
        raise ValueError("degenerate covariance has no angle density")
    i00, i01, i11 = _inverse(state.cov, det)
    m0, m1 = state.mean.tolist()
    norm = state.mass / (2.0 * math.pi * math.sqrt(det))
    if m0 == 0.0 and m1 == 0.0:
        def centred(phi: float) -> float:
            c, s = math.cos(phi), math.sin(phi)
            q = i00 * c * c + 2.0 * i01 * c * s + i11 * s * s
            if q <= 0.0:
                raise _lost_weight(phi, q)
            return 1.0 / q
        return centred, norm

    g0, g1 = i00 * m0 + i01 * m1, i01 * m0 + i11 * m1
    w = m0 * g0 + m1 * g1
    damp = math.exp(-w / 2.0)
    half_rt_pi = math.sqrt(math.pi / 2.0)

    def offset(phi: float) -> float:
        c, s = math.cos(phi), math.sin(phi)
        q = i00 * c * c + 2.0 * i01 * c * s + i11 * s * s
        if q <= 0.0:
            raise _lost_weight(phi, q)
        lin = c * g0 + s * g1
        h = lin / math.sqrt(2.0 * q)
        if h >= 0.0:
            # h^2 <= w/2 by Cauchy-Schwarz, so the exponent stays <= 0
            tail = math.exp(h * h - w / 2.0) * (1.0 + erf(h))
        else:
            tail = damp * float(erfcx(-h))
        return damp / q + lin * half_rt_pi * tail / q ** 1.5

    return offset, norm


def mean_angle(state: Gaussian2D, tol: float = 1e-10) -> float:
    """Expectation of the polar angle ``atan2(y, x)`` on [-pi, pi) in ``state``.

    The radial integral is done in closed form and the remaining angular
    integral by adaptive quadrature.  Signs follow the branch convention
    ``x + i*y = R*exp(i*phi)``, ``phi in [-pi, pi)``.
    """
    profile, norm = _angle_profile(state)
    return norm * integrate_angular(lambda phi: phi * profile(phi), tol=tol)


def phase_expectation(state0: Gaussian2D | None, d: DerivedParams, t: float,
                      tol: float = 1e-10) -> float:
    """Expectation of the quantised phase at time ``t``.

    ``state0`` is the initial state (ground state when ``None``).  The state
    is evolved with the averaged propagator and the angle averaged against
    it; for any initial state the value decays to zero at long times.
    """
    state = evolve(ground_state() if state0 is None else state0, d, t)
    return mean_angle(state, tol=tol)


def thermal_angle_expectation(phi_func: Callable[[float], float],
                              d: DerivedParams, t: float, tol: float = 1e-10) -> float:
    """Long-time expectation of a function of angle alone.

    In the canonical plane the stationary angle density is

        (1/2pi) / (exp(-beta*t)*cos(phi)**2 + exp(beta*t)*sin(phi)**2),

    which integrates to one for every ``beta*t`` and concentrates on the
    ``x``-axis (``phi = 0`` and ``+-pi``) as ``beta*t`` grows.  That weight
    is exactly the Jacobian ``d(phys angle)/d(phi)``, so in the physical
    angle the same expectation is the plain uniform average.
    """
    bt = d.beta * t
    lo, hi = math.exp(-bt), math.exp(bt)

    def weighted(phi: float) -> float:
        c, s = math.cos(phi), math.sin(phi)
        return phi_func(phi) / (lo * c * c + hi * s * s)

    return integrate_angular(weighted, tol=tol) / (2.0 * math.pi)


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
    if b_param < 0:
        raise ValueError(f"b_param must be >= 0, got {b_param!r}")
    half_hwb = d.params.hbar * d.omega * b_param / 2.0
    k = half_hwb * math.exp(-d.beta * t)
    tanhc = math.tanh(k) / k if k > 0.0 else 1.0
    decay = math.exp(-k)
    return 2.0 * decay / ((1.0 + decay * decay)
                          * (1.0 + d.temperature_number * half_hwb * tanhc))
