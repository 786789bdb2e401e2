"""Adaptive Gauss-Legendre quadrature with a global error budget, in numpy.

Each piece is summed by a 16-point Gauss-Legendre rule and again as its two halves:
the halves give its value and ``|whole - halves|`` its error estimate.  Each round,
one call of the integrand on all its nodes, keeps the pieces whose estimate is at most
the unspent budget over the open pieces and bisects the rest, so the kept estimates sum
to at most ``tol``.  Past ``_MAX_ROUNDS`` rounds or ``_MAX_PIECES`` pieces, or on a
non-finite integrand, it raises :class:`~wigosc.errors.QuadratureNotConverged`; a ``tol``
that is not finite and > 0 raises ``ValueError``.
``integrate_angular`` has no caller in the package; it remains for the benchmark.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureNotConverged, _check_real

__all__ = ["integrate", "integrate_angular"]

_MAX_ROUNDS, _MAX_PIECES = 40, 4096
_X, _W = np.polynomial.legendre.leggauss(16)
_NODES = np.concatenate([_X, (_X - 1.0) / 2.0, (_X + 1.0) / 2.0])  # whole, left, right half


def integrate(g: Callable[[np.ndarray], np.ndarray], edges: Sequence[float],
              tol: float = 1e-10) -> float:
    """Integral of ``g`` over the pieces ``edges`` cut, to ``tol``.

    ``g`` maps a 2-d array of nodes, one piece per row, rows in increasing order, to its values.
    """
    _check_real("tol", tol, positive=True)
    lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    kept, spent = [], 0.0
    for _ in range(_MAX_ROUNDS):
        half = (hi - lo) / 2.0
        y = g((lo + half)[:, None] + half[:, None] * _NODES)
        if not np.isfinite(y).all():
            raise QuadratureNotConverged("non-finite integrand", math.nan, math.inf, tol)
        sums = y.reshape(len(half), 3, 16) @ _W
        whole, halves = half * sums[:, 0], half / 2.0 * (sums[:, 1] + sums[:, 2])
        err = np.abs(whole - halves)
        keep = err <= (tol - spent) / len(err)
        kept.append(halves[keep])
        spent += float(err[keep].sum())
        if keep.all():
            return math.fsum(np.concatenate(kept))
        mid = (lo[~keep] + hi[~keep]) / 2.0
        lo, hi = np.stack([lo[~keep], mid], 1).ravel(), np.stack([mid, hi[~keep]], 1).ravel()
        if len(lo) > _MAX_PIECES:
            break
    value = math.fsum(np.concatenate(kept + [halves[~keep]]))
    raise QuadratureNotConverged("did not converge", value, spent + float(err[~keep].sum()), tol)


def integrate_angular(f: Callable[[float], float], tol: float = 1e-10) -> float:
    """Integrate ``f``, called on floats, over one period [-pi, pi), split at multiples of pi/2."""
    return integrate(np.vectorize(f, otypes=[float]), np.linspace(-math.pi, math.pi, 5), tol)
