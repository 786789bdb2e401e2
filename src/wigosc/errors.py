"""Exception types shared across the package, and its one contract for scalar arguments.

Every integer argument (an index, a size, a count, a seed) goes through
:func:`_check_int`: ``operator.index`` accepts Python and numpy integers and
rejects a float such as ``1.5`` or ``2.0``, then a lower bound applies.  Every
real argument (a time, ``beta_t``, a tolerance, a model parameter, a coordinate)
goes through :func:`_check_real`: a number, never text, finite and ``>= 0`` or
``> 0`` (a coordinate or an angle takes either sign); only ``beta_t`` may be ``+inf``,
its late-time limit.  The value is checked, then converted: callers compute with
the returned ``float``, so a numpy ``float32`` never sets float32 arithmetic.  Both
raise ``ValueError`` naming the argument and giving its value;
:class:`~wigosc.model.ModelParams` has the real check raise :class:`NonPositiveParameter`.
"""

import math
import operator

import numpy as np

_REALS = (float, int, np.floating, np.integer)


class WigoscError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveParameter(WigoscError):
    """A physical parameter that must be positive (or non-negative) is not."""


class OverdampedUnsupported(WigoscError):
    """Damping rate is at or beyond critical; only the underdamped regime is modelled."""


class RequiresFriction(WigoscError):
    """Operation is only defined for strictly positive damping."""


class QuadratureNotConverged(WigoscError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, value: float, error_estimate: float, tol: float):
        super().__init__(f"{message} (value={value!r}, err={error_estimate:.3e}, tol={tol:.3e})")
        self.value = value
        self.error_estimate = error_estimate
        self.tol = tol


class StepTooLarge(WigoscError):
    """Requested SDE time step is too coarse for a trustworthy integration."""


class ParameterMismatch(WigoscError):
    """Two objects that must share physical parameters do not."""


class ConvergenceFailure(WigoscError):
    """An iterative linear-algebra routine did not converge."""


class SizeTooLarge(WigoscError):
    """Requested matrix size exceeds what this implementation supports."""


def _check_int(name: str, value, low: int | None = 0) -> int:
    """``value`` as an ``int`` by ``operator.index``, at least ``low`` unless that is ``None``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def _check_real(name: str, value, positive: bool = False, inf: bool = False,
                signed: bool = False, error: type[Exception] = ValueError) -> float:
    """``float(value)`` once ``value`` is a real number that is finite unless ``inf``,
    and ``> 0`` or ``>= 0`` unless ``signed``; else ``error``, ``ValueError`` by default.

    A real number is a Python or numpy integer or float, or a 0-d numpy array of one.
    An integer past the float range is rejected, even where ``inf`` is allowed.
    """
    if not (isinstance(value, _REALS) or isinstance(value, np.ndarray)
            and value.shape == () and value.dtype.kind in "iuf"):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer past the float range
        x = math.nan
    if not ((math.isfinite(x) or inf and x == math.inf)
            and (signed or (x > 0 if positive else x >= 0))):
        rule = ("finite" if signed else "in [0, inf]" if inf
                else f"finite and {'>' if positive else '>='} 0")
        raise error(f"{name} must be {rule}, got {value!r}")
    return x
