"""Adaptive quadrature with an explicit convergence contract.

Thin wrapper over QUADPACK's adaptive Gauss-Kronrod rule (``scipy.integrate
.quad``): callers get either an unflagged value whose reported error estimate
meets the requested tolerance or a :class:`~wigosc.errors.QuadratureNotConverged`.
The package's angle expectations call ``integrate`` on finite panels in the
physical angle (``observables._angle_rule``).  ``integrate_angular``, one
period split at the multiples of pi/2 (``_EDGES``), has no caller in the
package; it remains for the benchmark's warm-up.

``scipy.integrate`` (which pulls in ``optimize``, ``linalg`` and ``sparse``)
is reached as an attribute of the top-level ``scipy`` package, so it loads on
the first ``integrate`` call rather than on ``import wigosc``.
"""

from __future__ import annotations

import math
from typing import Callable

import scipy

from .errors import QuadratureNotConverged

__all__ = ["integrate", "integrate_angular"]

_LIMIT = 300  # QUADPACK subinterval budget per panel
_EDGES = (-math.pi, -math.pi / 2.0, 0.0, math.pi / 2.0, math.pi)


def integrate(f: Callable[[float], float], a: float, b: float,
              tol: float = 1e-10) -> float:
    """Integrate ``f`` on ``[a, b]`` to ``tol``; a result QUADPACK flags raises."""
    value, err, _, *flag = scipy.integrate.quad(f, a, b, epsabs=tol, epsrel=tol,
                                                limit=_LIMIT, full_output=1)
    if flag or not math.isfinite(value) or err > max(tol, 10.0 * tol * abs(value)):
        reason = flag[0].split("\n")[0] if flag else "did not converge"
        raise QuadratureNotConverged(f"integral on [{a}, {b}]: {reason}", value, err, tol)
    return value


def integrate_angular(f: Callable[[float], float], tol: float = 1e-10) -> float:
    """Integrate ``f`` over one period [-pi, pi), splitting at multiples of pi/2."""
    panel_tol = tol / len(_EDGES)
    return sum(integrate(f, lo, hi, tol=panel_tol)
               for lo, hi in zip(_EDGES[:-1], _EDGES[1:]))
