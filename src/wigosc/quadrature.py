"""Adaptive quadrature with an explicit convergence contract.

Thin wrapper over QUADPACK's adaptive Gauss-Kronrod rule (``scipy.integrate
.quad``): callers get either an unflagged value whose reported error estimate
meets the requested tolerance or a :class:`~wigosc.errors.QuadratureNotConverged`. The
angular integrands in this package develop sharp features at multiples of
pi/2 at strong damping, so ``integrate_angular`` always splits the period at
the fixed break points ``_EDGES``, the multiples of pi/2.
"""

from __future__ import annotations

import math
from typing import Callable

from scipy.integrate import quad

from .errors import QuadratureNotConverged

__all__ = ["integrate", "integrate_angular"]

_LIMIT = 300  # QUADPACK subinterval budget per panel
_EDGES = (-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0, math.pi)


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-10) -> float:
    """Integrate ``f`` on ``[a, b]`` to ``tol``; a result QUADPACK flags raises."""
    value, err, _, *flag = quad(f, a, b, epsabs=tol, epsrel=tol, limit=_LIMIT, full_output=1)
    if flag or not math.isfinite(value) or err > max(tol, 10.0 * tol * abs(value)):
        reason = flag[0].split("\n")[0] if flag else "did not converge"
        raise QuadratureNotConverged(f"integral on [{a}, {b}]: {reason}", value, err, tol)
    return value


def integrate_angular(f: Callable[[float], float], tol: float = 1e-10) -> float:
    """Integrate ``f`` over one period [-pi, pi), splitting at multiples of pi/2."""
    panel_tol = tol / len(_EDGES)
    return sum(integrate(f, lo, hi, tol=panel_tol)
               for lo, hi in zip(_EDGES[:-1], _EDGES[1:]))
