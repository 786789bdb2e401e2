"""Matrix representations and spectra of the quantised phase angle.

All matrix elements of operators that depend on the phase angle alone reduce
to a universal real symmetric coefficient table ``g[m, n]`` built from Gamma
functions, times the Fourier coefficients of the angle function.  Two
operators matter here: the canonical phase (angle of the canonical pair) and
its time-dependent physical counterpart (angle of the physical pair), whose
even off-diagonals are attenuated by ``tanh(beta*t/2)`` powers.

Everything is evaluated through log-Gamma; factorial ratios are never formed
directly, so truncations of several hundred states are routine.  The variance
series over a row of the matrix converges only like ``n**-3/2``; partial sums
are therefore completed with a closed-form tail estimate carrying a certified
bracket derived from two-sided Gamma-ratio inequalities.

Each kernel returns the bits of its plain form (the gathered and masked
versions in ``tests/oracles.py``) with less data movement: factors that depend
on the offset alone are strided Toeplitz views, not ``n x n`` gathers;
logarithms come from libm through ``scipy.special.xlogy``, because numpy's
SIMD ``log`` can miss by a bit and the odd-row tail integral magnifies that;
and the convolutions run on ``numpy.fft`` at the 5-smooth sizes
``scipy.fft.next_fast_len`` would pick.  ``scipy.special`` is the only SciPy
subpackage this module loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

from .errors import ConvergenceFailure, SizeTooLarge, _check_int, _check_real

__all__ = [
    "GMatrix",
    "HermitianMatrix",
    "Spectrum",
    "VarianceEstimate",
    "g_coefficient",
    "g_matrix",
    "phase_fourier",
    "angle_operator_matrix",
    "canonical_phase_matrix",
    "physical_phase_matrix",
    "spectrum",
    "phase_variance_diagonal",
    "variance_diagonal_table",
    "thermal_phase_variance",
    "delta_matrix_element",
]

_MAX_MATRIX = 4096
_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])

# Uniform cap on the row variances, used for geometric remainders.  The
# computed table tops out near 3.70 (small even rows) and decays toward
# pi^2/3; every call re-asserts the cap against what it actually computed.
_VARIANCE_SUP = 4.0

# Cap on the terms one row-variance series sums before closing its bracket.
_MAX_TERMS = 8_000_000

_BRACKET_BLOCK = 2 ** 15  # rows per tail-bracket call of the variance table

# p(n) = _EIG_BOUND_FACTOR * n in LAPACK's a-priori eigenvalue bound
# p(n) * eps * ||A||_2.  With p(n) = n the bound fails for small n: against
# 32-digit eigenvalues of random Hermitian matrices the values-only solve
# erred by up to 1.8 * n * eps * ||A||_2 at n = 3 (0.9 n at n = 16, 0.4 n at 40).
_EIG_BOUND_FACTOR = 4


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """Read-only ``(n, n)`` view ``T[m, n] = c[|n - m|]`` of a length-n vector; nothing is gathered."""
    n_max = c.size
    return np.lib.stride_tricks.sliding_window_view(np.concatenate([c[:0:-1], c]), n_max)[::-1]


@dataclass(frozen=True)
class GMatrix:
    """Symmetric Gamma-ratio coefficient table; unit diagonal, positive entries."""

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)


def g_coefficient(m: int, n: int) -> float:
    """Single coefficient ``g[m, n]`` via log-Gamma (safe for large indices).

    With ``nl/ng`` the lesser/greater index and ``s = 1/2`` for even ``nl``,
    ``1`` for odd:

        g = 2**(-|m-n|/2) * Gamma(nl/2 + s)/Gamma(ng/2 + s) * sqrt(ng!/nl!)

    The diagonal is exactly 1 and entries tend to 1 deep in the table at
    fixed offset.
    """
    m, n = _check_int("m", m), _check_int("n", n)
    if m == n:
        return 1.0
    nl, ng = (m, n) if m < n else (n, m)
    s = 0.5 if nl % 2 == 0 else 1.0
    log_g = (-abs(m - n) * math.log(2.0) / 2.0
             + scipy.special.gammaln(nl / 2.0 + s) - scipy.special.gammaln(ng / 2.0 + s)
             + 0.5 * (scipy.special.gammaln(ng + 1.0) - scipy.special.gammaln(nl + 1.0)))
    return float(math.exp(log_g))


def g_matrix(n_max: int) -> GMatrix:
    """Dense ``n_max x n_max`` coefficient table, summed as in :func:`g_coefficient`."""
    n_max = _check_int("n_max", n_max, 1)
    if n_max > _MAX_MATRIX:
        raise SizeTooLarge(f"n_max={n_max} exceeds the supported maximum {_MAX_MATRIX}")
    idx = np.arange(n_max)
    # O(n_max) distinct log-Gammas: row s of lg_half is gammaln(j/2 + s), s = 1/2
    # for even nl and 1 for odd.  On and above the diagonal nl is the row index,
    # so a = -(ng - nl)*log(2)/2 is Toeplitz, b = lg_half[parity, nl] and the row
    # of lg_half that c is read from are per-row, and d = (lg_fact[ng] -
    # lg_fact[nl])/2; the sum keeps g_coefficient's order ((a + b) - c) + d.
    # The lower triangle is then copied from the upper one.
    lg_half = np.stack([scipy.special.gammaln(idx / 2.0 + 0.5),
                        scipy.special.gammaln(idx / 2.0 + 1.0)])
    lg_fact = scipy.special.gammaln(idx + 1.0)
    log_g = _toeplitz(-idx * (math.log(2.0) / 2.0)) + lg_half[idx % 2, idx][:, np.newaxis]
    log_g[0::2] -= lg_half[0]
    log_g[1::2] -= lg_half[1]
    log_g += 0.5 * (lg_fact - lg_fact[:, np.newaxis])
    np.copyto(log_g, log_g.T, where=np.tri(n_max, k=-1, dtype=bool))
    return GMatrix(values=np.exp(log_g, out=log_g))


def phase_fourier(k: int) -> complex:
    """Fourier coefficients of the sawtooth angle ``Phi(phi) = phi`` on [-pi, pi).

    ``c_k = (1/2pi) int phi*exp(i*k*phi) dphi = -i*(-1)**k / k`` for
    ``k != 0`` and ``c_0 = 0``.
    """
    k = _check_int("k", k, low=None)
    if k == 0:
        return 0.0 + 0.0j
    sign = -1.0 if k % 2 else 1.0
    return complex(0.0, -sign / k)


@dataclass(frozen=True)
class HermitianMatrix:
    """Truncated operator matrix in the number basis, Hermitian by construction."""

    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.values.shape[0]


def _angle_matrix(g: np.ndarray, fourier: Callable[[int], complex]) -> HermitianMatrix:
    """Assemble ``(m, n) -> i**(m-n) * g[m, n] * c_(n-m)``, one ``fourier`` call per offset.

    ``g`` must be symmetric: conjugating the strict lower triangle in place
    then mirrors the upper one, so Hermiticity is exact.
    """
    n_max = g.shape[0]
    k = np.arange(n_max)
    coeff = _I_POW[(-k) % 4] * np.array([complex(fourier(int(j))) for j in k])
    out = g * _toeplitz(coeff)
    np.conjugate(out, out=out, where=np.tri(n_max, k=-1, dtype=bool))
    return HermitianMatrix(values=out)


def angle_operator_matrix(fourier: Callable[[int], complex], n_max: int) -> HermitianMatrix:
    """Matrix of the operator whose phase-space symbol is ``Phi(phi)``.

    Entry ``(m, n)`` is ``i**(m-n) * g[m, n] * c_(n-m)`` with ``c_k`` the
    Fourier coefficients of ``Phi``.  The strict lower triangle is filled by
    conjugation, so Hermiticity is exact whenever ``Phi`` is real.
    """
    return _angle_matrix(g_matrix(n_max).values, fourier)


def canonical_phase_matrix(n_max: int) -> HermitianMatrix:
    """Matrix of the quantised canonical phase angle.

    The sawtooth case of :func:`angle_operator_matrix`: zero diagonal, the
    nearest off-diagonal is ``g[m, m+1]`` (real), and the 2x2 truncation has
    eigenvalues ``+-sqrt(pi/2)``.
    """
    return _angle_matrix(g_matrix(n_max).values, phase_fourier)


def attenuation(offset: int | np.ndarray, beta_t: float):
    """Damping factor applied to even off-diagonals of the physical angle matrix.

    ``1 - tanh(beta_t/2)**(|offset|/2)`` for even offsets, 1 for odd ones;
    equal to 1 at ``beta_t = 0`` and stepping to 0 (even) / 1 (odd) as
    ``beta_t -> inf``.  ``beta_t`` must be ``>= 0``; ``inf`` is the late-time limit.
    """
    _check_real("beta_t", beta_t, inf=True)
    k = np.abs(np.asarray(offset)).ravel()
    out = np.ones(k.shape)
    even = np.flatnonzero(((k & 1) == 0) & (k != 0))
    out[even] = 1.0 - np.power(math.tanh(beta_t / 2.0), k[even] >> 1)
    return out.reshape(np.shape(offset))


def physical_phase_matrix(n_max: int, beta_t: float) -> HermitianMatrix:
    """Matrix of the quantised physical phase angle at dimensionless time ``beta_t``.

    Identical to the canonical matrix at ``beta_t = 0``; as ``beta_t`` grows
    the even off-diagonals die away and the spectrum migrates toward
    ``+-pi/2``.
    """
    gbar = g_matrix(n_max).values * _toeplitz(attenuation(np.arange(n_max), beta_t))
    return _angle_matrix(gbar, phase_fourier)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a truncated operator matrix, ascending.

    ``residual`` is a bound on the error of each eigenvalue, LAPACK's a-priori
    bound ``p(n) * eps * ||A||_2`` for a Hermitian values-only solve (LAPACK
    Users' Guide, 3rd ed., section 4.7) with ``p(n) = 4 n``, not a measured
    ``|A v - w v|``.
    """

    eigenvalues: np.ndarray
    n_max: int
    residual: float

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)

    def containment_slack(self, bound: float = math.pi) -> float:
        """How far the spectrum may poke outside ``[-bound, bound]`` (0 if certified inside).

        Each eigenvalue is widened by ``residual``, so 0 means the exact
        eigenvalues lie in the band, not only the computed ones.
        """
        return float(max(0.0, np.max(np.abs(self.eigenvalues)) + self.residual - bound))


def _hermitian_defect(a: np.ndarray) -> float:
    """``max|a - a^H|``, taken over the upper triangle in blocks of 64 rows.

    ``a - a^H`` is anti-Hermitian, so each lower entry has exactly the
    magnitude of its mirror: the result equals the full formula bit for bit
    without its two n x n complex temporaries.
    """
    n = a.shape[0]
    defect = 0.0
    for i0 in range(0, n, 64):
        rows = slice(i0, i0 + 64)
        defect = max(defect, float(np.max(np.abs(a[rows, i0:] - a[i0:, rows].conj().T))))
    return defect


def spectrum(matrix: HermitianMatrix | np.ndarray) -> Spectrum:
    """Full eigenvalue set of a Hermitian matrix, with an a-priori error bound.

    One deterministic values-only LAPACK solve.  For a Hermitian matrix
    ``||A||_2 = max|w|``, so ``residual = 4 * n * eps * max|w|`` bounds each
    eigenvalue's error without computing eigenvectors.  Input that is not a
    non-empty square matrix, holds a non-finite entry, is subnormal throughout
    or is not Hermitian to 1e-12 of its largest entry raises ``ValueError``.
    """
    a = matrix.values if isinstance(matrix, HermitianMatrix) else np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"spectrum needs a non-empty square matrix, got shape {a.shape}")
    mag = np.abs(a)
    scale = float(np.max(mag))
    if not math.isfinite(scale):
        raise ValueError("matrix has a non-finite entry")
    if 0.0 < scale < np.finfo(float).tiny:
        raise ValueError(f"largest entry {scale!r} is subnormal; rescale the matrix")
    # The values-only solve (LAPACK dsterf) squares the tridiagonal couplings.
    # Where the squares underflowed it returned eigenvalues wrong in the 4th to
    # 8th digit: for max|a| ~ 1e-210, and for entries ~1e-155 beside an O(1)
    # pair.  So solve at max|a| in [0.5, 1), an exact power-of-two rescale, with
    # entries below 2**-61 set to 0: that moves each eigenvalue by less than
    # n * 2**-60 * ||A||_2, 1/1024 of the certificate.
    exponent = math.frexp(scale)[1]
    small = mag < math.ldexp(1.0, exponent - 61)
    a = a * math.ldexp(1.0, -exponent)
    herm_defect = _hermitian_defect(a)
    if herm_defect > 1e-12:
        raise ValueError(f"matrix is not Hermitian (relative defect {herm_defect:.3e})")
    a[small] = 0.0
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    n = a.shape[0]
    residual = _EIG_BOUND_FACTOR * n * float(np.finfo(w.dtype).eps) * float(np.max(np.abs(w)))
    return Spectrum(eigenvalues=np.ldexp(w, exponent), n_max=n,
                    residual=math.ldexp(residual, exponent))


# --- row-variance series ----------------------------------------------------
#
# The squared coefficients factorise over the lesser index's parity:
#
#     g[m, j]**2 = (c_m / c_j)**(+1 if min even else -1),  m < j,
#     c_k = Gamma((k+1)/2) / Gamma((k+2)/2),
#
# so a whole row of squares costs one log-Gamma pass.  Two-sided bounds
# sqrt(2/(k+2)) < c_k < sqrt(2/k) (Gautschi) turn the untabulated remainder
# into a closed-form bracket.


def _log_c(start: int, stop: int) -> np.ndarray:
    """``log c_j`` for ``start <= j < stop``: one log-Gamma per ``j``, neighbours differenced.

    ``(j + 2)/2`` at ``j`` is ``(j + 1)/2`` at ``j + 1``, exactly, so this is
    ``gammaln((j+1)/2) - gammaln((j+2)/2)`` bit for bit at half the calls.
    """
    lg = scipy.special.gammaln((np.arange(start, stop + 1, dtype=float) + 1.0) / 2.0)
    return lg[:-1] - lg[1:]


def _log(x: np.ndarray) -> np.ndarray:
    """Natural log by libm, as ``math.log`` gives it; numpy 2.4's SIMD ``np.log`` misses a bit.

    ``xlogy(1, x)`` is one ufunc loop over C ``log`` times an exact 1.0.
    """
    return scipy.special.xlogy(1.0, x)


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn`` of each entry as a Python float, so ``**`` is libm ``pow``, which ``np.power`` is not."""
    return np.fromiter(map(fn, x.tolist()), float, count=x.size)


def _tail_integral_grow(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``int_u^inf sqrt(x + a) / x**2 dx`` (rows with even index), elementwise."""
    r, sa = np.sqrt(u + a), np.sqrt(a)
    with np.errstate(invalid="ignore"):
        closed = r / u + _log((r + sa) / (r - sa)) / (2.0 * sa)
    return np.where(a == 0.0, 2.0 / np.sqrt(u), closed)


def _tail_integral_decay(u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``int_u^inf dx / (x**2 * sqrt(x + a))`` (rows with odd index, so ``a >= 1``), elementwise."""
    r, sa = np.sqrt(u + a), np.sqrt(a)
    return r / (a * u) - _log((r + sa) / (r - sa)) / (2.0 * a * sa)


def _tail_bracket(m: np.ndarray, j_top: int, c_m: np.ndarray,
                  beta_t: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Certified [low, high] for the series tails of rows ``m`` over ``j > j_top``.

    Canonical rows bracket the plain tail; physical rows treat the
    unattenuated odd-offset subsequence and the attenuated even-offset one
    separately (each parity class is sandwiched by half-integrals shifted by
    one lattice step).  Each row evaluates only its own parity's integral,
    in the same operation order as a per-row scalar evaluation, so the
    brackets do not depend on how the rows are grouped.
    """
    even = m % 2 == 0
    m_e, c_e, m_o, c_o = m[even], c_m[even], m[~even], c_m[~even]

    def integral(a: float, shift: float) -> np.ndarray:  # shift 2 bounds from above, 0 below
        out = np.empty(m.shape)
        out[even] = c_e * _tail_integral_grow(a - m_e, m_e + shift) / math.sqrt(2.0)
        out[~even] = math.sqrt(2.0) / c_o * _tail_integral_decay(a - m_o, m_o + (2.0 - shift))
        return out

    if beta_t is None:
        return integral(j_top + 1.0, 0.0), integral(float(j_top), 2.0)
    # physical: odd offsets keep weight 1, even offsets at least
    # (1 - tau**((j_top+1-m)/2))**2 and at most 1 of their canonical value
    tau = math.tanh(beta_t / 2.0)
    att_min = _libm(lambda k: (1.0 - tau ** k) ** 2, (j_top + 1 - m) / 2.0)
    half_low, half_up = 0.5 * integral(j_top + 2.0, 0.0), 0.5 * integral(j_top - 1.0, 2.0)
    return half_low * (1.0 + att_min), 2.0 * half_up


@dataclass(frozen=True)
class VarianceEstimate:
    """A series value with a certified half-width for the unsummed remainder."""

    value: float
    tail_bound: float
    terms: int


def _row_weights(offsets: np.ndarray, beta_t: float | None) -> np.ndarray:
    if beta_t is None:
        return 1.0 / offsets.astype(float) ** 2
    return attenuation(offsets, beta_t) ** 2 / offsets.astype(float) ** 2


def phase_variance_diagonal(m: int, kind: str = "canonical", beta_t: float = 0.0,
                            tol: float = 1e-6) -> VarianceEstimate:
    """Diagonal second moment of a phase matrix row, ``sum_j |A[m, j]|**2``.

    For the canonical angle this is

        sum_{n=1..m} g[m, m-n]**2/n**2 + sum_{n>=1} g[m+n, m]**2/n**2,

    approaching ``pi**2/3`` for deep rows; the physical variant replaces
    ``g`` by its attenuated form and approaches ``pi**2/4`` at late times.
    The infinite part is summed until the certified bracket half-width drops
    below ``tol`` (or 8 million terms are summed) and closed with the bracket
    midpoint; the achieved half-width is reported.
    """
    m = _check_int("m", m)
    if kind not in ("canonical", "physical"):
        raise ValueError(f"kind must be 'canonical' or 'physical', got {kind!r}")
    _check_real("tol", tol, positive=True)
    bt = None if kind == "canonical" else _check_real("beta_t", beta_t, inf=True)
    c_m = np.exp(_log_c(m, m + 1))
    bracket = lambda span: [float(b[0]) for b in _tail_bracket(np.array([m]), m + span, c_m, bt)]

    span = 50_000
    low, high = bracket(span)
    while (high - low) / 2.0 > tol and span < _MAX_TERMS:
        span = min(2 * span, _MAX_TERMS)
        low, high = bracket(span)

    total = 0.0
    # finite part below the diagonal: lesser index is j, parity decides the ratio
    if m > 0:
        j = np.arange(0, m)
        log_c = _log_c(0, m)
        log_cm = math.log(c_m[0])
        ratio = np.where(j % 2 == 0, np.exp(log_c - log_cm), np.exp(log_cm - log_c))
        total += float(np.sum(ratio * _row_weights(m - j, bt)))
    # infinite part above the diagonal, in chunks
    log_cm = math.log(c_m[0])
    sign = 1.0 if m % 2 == 0 else -1.0
    for start in range(m + 1, m + span + 1, 1_000_000):
        stop = min(start + 1_000_000, m + span + 1)
        j = np.arange(start, stop)
        log_c = _log_c(start, stop)
        total += float(np.sum(np.exp(sign * (log_cm - log_c)) * _row_weights(j - m, bt)))

    return VarianceEstimate(value=total + (low + high) / 2.0,
                            tail_bound=(high - low) / 2.0 + 1e-13,
                            terms=m + span)


def _convolve(kernel: np.ndarray, *xs: np.ndarray) -> list[np.ndarray]:
    """Full linear convolutions of ``kernel`` with equal-length real arrays; one kernel FFT."""
    n = kernel.size + xs[0].size - 1
    size = _fft_size(n)
    kernel_hat = np.fft.rfft(kernel, size)
    return [np.fft.irfft(np.fft.rfft(x, size) * kernel_hat, size)[:n] for x in xs]


def _fft_size(n: int) -> int:
    """Smallest ``2**a * 3**b * 5**c >= n``: the size ``scipy.fft.next_fast_len(n, real=True)`` picks."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def variance_diagonal_table(m_max: int, extra: int = 200_000,
                            beta_t: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Row variances for all ``m <= m_max`` at once, via FFT convolutions.

    Returns ``(values, tail_bounds)``.  The factorised squares turn both the
    below-diagonal and above-diagonal partial sums into convolutions of
    parity-masked ``c``-arrays against the offset kernel, two per FFT pass
    with one kernel transform; the rows are then closed, in blocks of
    ``2**15``, with their certified tail brackets beyond ``j = m_max + max(extra, 2)``.
    Every value equals a row-by-row evaluation bit for bit.
    """
    m_max, extra = _check_int("m_max", m_max), _check_int("extra", extra)
    if beta_t is not None:
        _check_real("beta_t", beta_t, inf=True)
    j_top = m_max + max(extra, 2)
    c = np.exp(_log_c(0, j_top + 1))
    inv_c = 1.0 / c
    with np.errstate(divide="ignore"):
        kernel = _row_weights(np.arange(0, j_top + 1), beta_t)
    kernel[0] = 0.0

    even_mask = (np.arange(j_top + 1) % 2 == 0)
    p_even = np.where(even_mask, c, 0.0)
    q_odd = np.where(~even_mask, inv_c, 0.0)

    n_rows = m_max + 1
    conv_pe, conv_qo = (x[:n_rows] for x in _convolve(kernel[:n_rows], p_even[:n_rows],
                                                     q_odd[:n_rows]))
    lower = inv_c[:n_rows] * conv_pe + c[:n_rows] * conv_qo

    # correlations sum_{d>=1} a[m+d]*kernel[d]
    corr_inv, corr_c = (x[j_top:j_top + n_rows] for x in _convolve(kernel[::-1], inv_c, c))
    m_idx = np.arange(n_rows)
    upper = np.where(m_idx % 2 == 0, c[:n_rows] * corr_inv, inv_c[:n_rows] * corr_c)

    values = lower + upper
    bounds = np.empty(n_rows)
    for i in range(0, n_rows, _BRACKET_BLOCK):
        rows = slice(i, min(i + _BRACKET_BLOCK, n_rows))
        lo, hi = _tail_bracket(m_idx[rows], j_top, c[rows], beta_t)
        values[rows] += (lo + hi) / 2.0
        bounds[rows] = (hi - lo) / 2.0
    # FFT round-off is far below the analytic bracket but is acknowledged here
    bounds += 1e-10
    return values, bounds


def thermal_phase_variance(temperature_number: float, tol: float = 1e-10) -> VarianceEstimate:
    """Second moment of the canonical phase in the weak-damping thermal state.

    Geometric mixture of the row variances,

        (2/(D+1)) * sum_m ((D-1)/(D+1))**m * v_m,

    with ``D`` the temperature number.  ``D = 1`` keeps only the ground row;
    as ``D -> inf`` the mixture tends to ``pi**2/3`` (fully random phase).
    The mixture stops once the geometric remainder is below ``tol`` (at
    most 400k rows); the returned bound combines that remainder with the
    per-row tail certificates.
    """
    big_d = float(_check_real("temperature_number", temperature_number, positive=True))
    _check_real("tol", tol, positive=True)
    ratio = (big_d - 1.0) / (big_d + 1.0)
    if ratio == 0.0:
        n_terms = 1
    else:
        n_terms = int(math.ceil(math.log(max(tol, 1e-300) / (2.0 * _VARIANCE_SUP))
                                / math.log(abs(ratio)))) + 1
    n_terms = min(max(n_terms, 1), 400_000)
    m_max = n_terms - 1
    values, bounds = variance_diagonal_table(m_max, extra=max(200_000, m_max // 2))
    if float(np.max(values)) > _VARIANCE_SUP:
        raise ConvergenceFailure("row-variance cap violated; geometric remainder invalid")
    weights = (2.0 / (big_d + 1.0)) * ratio ** np.arange(n_terms)
    value = float(np.sum(weights * values))
    remainder = _VARIANCE_SUP * abs(ratio) ** n_terms
    bound = float(np.sum(np.abs(weights) * bounds)) + remainder
    return VarianceEstimate(value=value, tail_bound=bound, terms=n_terms)


def delta_matrix_element(m: int, n: int, radius: float, angle: float) -> complex:
    """Number-basis matrix element of the phase-point operator at ``(R, phi)``.

    ``2*(-1)**n * i**|m-n| * 2**(|m-n|/2) * sqrt(nl!/ng!) * R**|m-n|
    * exp(-R**2) * exp(i*(n-m)*phi) * L(nl, |m-n|, 2*R**2)`` with ``L`` the
    associated Laguerre polynomial, evaluated by its stable upward
    recurrence.  At ``m = n = 0`` this is the minimum-uncertainty density
    ``2*exp(-R**2)``.  Non-finite arguments raise ``ValueError``, and so does
    a radius where the amplitude times the Laguerre value is not finite.
    """
    m, n = _check_int("m", m), _check_int("n", n)
    _check_real("radius", radius)
    if not math.isfinite(angle):
        raise ValueError(f"angle must be finite, got {angle!r}")
    k = abs(m - n)
    nl, ng = min(m, n), max(m, n)
    x = 2.0 * radius * radius
    # L(nl, k, x) by upward recurrence in the degree, from L(-1) = 0 and L(0) = 1
    prev, lag = 0.0, 1.0
    for i in range(nl):
        prev, lag = lag, ((2.0 * i + 1.0 + k - x) * lag - (i + k) * prev) / (i + 1.0)
    if radius == 0.0:
        amp = 1.0 if k == 0 else 0.0
    else:
        log_amp = (0.5 * (scipy.special.gammaln(nl + 1.0) - scipy.special.gammaln(ng + 1.0))
                   + k * (0.5 * math.log(2.0) + math.log(radius)) - radius * radius)
        amp = math.exp(log_amp)
    if not math.isfinite(amp * lag):
        raise ValueError(f"the element at radius {radius!r} is past float range ({amp!r}*{lag!r})")
    sign = -1.0 if n % 2 else 1.0
    phase = complex(_I_POW[k % 4]) * complex(math.cos((n - m) * angle),
                                             math.sin((n - m) * angle))
    return 2.0 * sign * amp * lag * phase
