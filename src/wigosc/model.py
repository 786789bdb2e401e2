"""Physical parameters, dimensionless groups, and the exact classical flow.

The model is a harmonic oscillator of mass ``m`` and angular frequency
``omega``, subject to a velocity-proportional friction force ``m*beta*dq/dt``
and a stationary white-noise force of strength ``mu`` (so that the force
autocorrelation is ``mu * delta(t1 - t2)``).  Only the underdamped regime
``beta < 2*omega`` is supported.

Everything downstream works in the dimensionless phase-plane coordinates

    x = p / (hbar*alpha),   y = alpha*q,   alpha = sqrt(m*omega/hbar),

where ``p = m*qdot*exp(beta*t)`` is the canonical momentum of the explicitly
time-dependent generator of the motion and ``P = m*qdot`` is the physical
momentum.  The physical pair is ``(X, y) = (x*exp(-beta*t), y)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveParameter, OverdampedUnsupported, _check_real

__all__ = [
    "ModelParams",
    "DerivedParams",
    "PhasePoint",
    "derive",
    "classical_flow",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the damped, noise-driven oscillator.

    Parameters
    ----------
    mass : float
        Oscillator mass, ``> 0``.
    omega : float
        Angular frequency, ``> 0``.
    beta : float
        Friction rate (inverse time), ``>= 0``.
    theta : float
        Bath temperature as an energy, ``k_B*T >= 0``.
    hbar : float
        Reduced Planck constant in the chosen unit system (default 1).
    mu : float, optional
        White-noise strength (force^2 * time).  When omitted it is pinned to
        the thermal-consistency value ``2*mass*beta*theta``, the choice for
        which the stationary state is Maxwell-Boltzmann.

    Fields are stored as floats; a bad one, text included, raises :class:`NonPositiveParameter`.
    """

    mass: float
    omega: float
    beta: float = 0.0
    theta: float = 0.0
    hbar: float = 1.0
    mu: float | None = None

    def __post_init__(self):
        checked = ("mass", "omega", "hbar", "beta", "theta") + (("mu",) if self.mu is not None else ())
        for i, name in enumerate(checked):  # the first three must be > 0
            value = _check_real(name, getattr(self, name), i < 3, error=NonPositiveParameter)
            object.__setattr__(self, name, value)

    @property
    def noise_strength(self) -> float:
        """Effective white-noise strength, thermal-consistent unless overridden."""
        if self.mu is None:
            return 2.0 * self.mass * self.beta * self.theta
        return self.mu

    @classmethod
    def from_dimensionless(cls, temperature_number: float, damping_ratio: float,
                           noise_number_free: float | None = None) -> "ModelParams":
        """Build params from the dimensionless groups used throughout.

        ``temperature_number = 2*theta/(hbar*omega)`` and
        ``damping_ratio = beta/omega`` with ``m = omega = hbar = 1``.  When
        ``noise_number_free`` is given, the noise strength is set to
        ``noise_number_free * m * omega**2 * hbar`` instead of the thermal
        value (the frictionless runs are parameterised this way).
        """
        theta = _check_real("temperature_number", temperature_number, error=NonPositiveParameter) / 2.0
        return cls(mass=1.0, omega=1.0, beta=damping_ratio, theta=theta, hbar=1.0, mu=noise_number_free)


@dataclass(frozen=True)
class DerivedParams:
    """Dimensionless groups derived from :class:`ModelParams`.

    Attributes
    ----------
    omega_damped : float
        Reduced oscillation frequency of the underdamped motion,
        ``sqrt(omega**2 - beta**2/4)``.
    eps : float
        ``sqrt(omega_damped/omega)``; rescales the dual integration
        variables of the averaged propagator.
    noise_number : float
        ``mu / (m * omega_damped**2 * hbar)``.
    temperature_number : float
        ``2*theta / (hbar*omega)`` (CLI flag ``--D``).
    damping_ratio : float
        ``beta/omega`` (CLI flag ``--B``).
    noise_number_free : float
        ``mu / (m * omega**2 * hbar)`` (CLI flag ``--No``); equals
        ``noise_number`` when ``beta = 0``.
    """

    params: ModelParams
    omega_damped: float
    eps: float
    noise_number: float
    temperature_number: float
    damping_ratio: float
    noise_number_free: float

    @property
    def beta(self) -> float:
        return self.params.beta

    @property
    def omega(self) -> float:
        return self.params.omega


def derive(params: ModelParams) -> DerivedParams:
    """Compute the dimensionless groups, rejecting non-underdamped input."""
    m, w, b, hbar = params.mass, params.omega, params.beta, params.hbar
    disc = w * w - b * b / 4.0
    if disc <= 0.0:
        raise OverdampedUnsupported(
            f"beta={b!r} >= 2*omega={2 * w!r}: only the underdamped regime is supported")
    omega_damped = math.sqrt(disc)
    mu = params.noise_strength
    return DerivedParams(
        params=params,
        omega_damped=omega_damped,
        eps=math.sqrt(omega_damped / w),
        noise_number=mu / (m * omega_damped ** 2 * hbar),
        temperature_number=2.0 * params.theta / (hbar * w),
        damping_ratio=b / w,
        noise_number_free=mu / (m * w ** 2 * hbar),
    )


@dataclass(frozen=True)
class PhasePoint:
    """A point in the dimensionless canonical phase plane ``(x, y)``; both finite, stored as floats."""

    x: float
    y: float

    def __post_init__(self):
        for name in ("x", "y"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), signed=True))

    @property
    def radius(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def angle(self) -> float:
        """Polar angle in [-pi, pi) with the convention ``x + i*y = R*exp(i*phi)``."""
        a = math.atan2(self.y, self.x)
        return -math.pi if a == math.pi else a


def _flow_terms(d: DerivedParams, tau: float) -> tuple[float, float, float, float]:
    """Entries ``(f00, f01, f10, f11)`` of :func:`classical_flow`, as floats; ``tau`` is not checked."""
    od = d.omega_damped
    g = d.beta / (2.0 * od)
    c, s = math.cos(od * tau), math.sin(od * tau)
    damp = math.exp(-d.beta * tau / 2.0)
    return (damp * (c - g * s), damp * (-(d.omega / od) * s),
            damp * ((d.omega / od) * s), damp * (c + g * s))


def classical_flow(d: DerivedParams, tau: float) -> np.ndarray:
    """Exact flow of the unforced damped oscillator over a lag ``tau``, read-only 2x2.

    The matrix maps the physical pair ``(X, y)`` forward by ``tau``:

        exp(-beta*tau/2) * [[cos(Od*tau) - g*sin(Od*tau), -(w/Od)*sin(Od*tau)],
                            [(w/Od)*sin(Od*tau),           cos(Od*tau) + g*sin(Od*tau)]]

    with ``Od = omega_damped`` and ``g = beta/(2*Od)``; it reduces to a pure
    rotation when ``beta = 0`` and to the identity at ``tau = 0``.  Its
    determinant is ``exp(-beta*tau)``; it serves every window of length ``tau``.
    """
    f00, f01, f10, f11 = _flow_terms(d, _check_real("time tau", tau))
    mat = np.array([[f00, f01], [f10, f11]])
    mat.setflags(write=False)
    return mat
