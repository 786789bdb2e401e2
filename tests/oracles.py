"""Reference implementations the tests compare the package against.

They are deliberately plain (entry-by-entry loops, per-instant coefficient
objects, step-by-step moment recursions, generic ``np.linalg`` calls on 2x2
matrices) and are not part of the package's public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from numpy.random import Generator, Philox
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import gammaln, ndtr, ndtri

from wigosc import DerivedParams, Gaussian2D, ModelParams, SdeConfig, ground_state, propagator

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


def angle_matrix_loop(g: np.ndarray, fourier: Callable[[int], complex]) -> np.ndarray:
    """Entry-by-entry phase-operator matrix ``i**(m-n) * g[m, n] * c_(n-m)``.

    ``fourier`` is called once per upper-triangle entry; the strict lower
    triangle is filled by conjugation.  Exact oracle for the vectorised
    assembly in :mod:`wigosc.phaseops`.
    """
    n_max = g.shape[0]
    out = np.zeros((n_max, n_max), dtype=complex)
    for m in range(n_max):
        out[m, m] = g[m, m] * fourier(0)
        for n in range(m + 1, n_max):
            k = n - m
            val = _I_POW[(-k) % 4] * g[m, n] * complex(fourier(k))
            out[m, n] = val
            out[n, m] = val.conjugate()
    return out


def eigenpair_spectrum(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Eigenvalues by a full ``eigh`` solve, with the measured eigenpair residual.

    ``residual`` is the largest ``|A v - w v|`` over the eigenpairs, summed by
    ``hypot`` so that it does not overflow for ``|A| ~ 1e250``.  Oracle for
    the values-only solve of :func:`wigosc.phaseops.spectrum`.
    """
    w, v = np.linalg.eigh(a)
    return w, float(np.max(np.hypot.reduce(np.abs(a @ v - v * w), axis=0)))


def exact_eigenvalues(a: np.ndarray, digits: int = 32) -> np.ndarray:
    """Eigenvalues of the Hermitian ``a`` in ``digits``-digit arithmetic, ascending.

    Needs ``mpmath``; the rounding to float adds at most half an ulp.
    """
    import mpmath

    with mpmath.workdps(digits):
        ev = mpmath.eighe(mpmath.matrix(a.tolist()), eigvals_only=True)
        return np.sort([float(x) for x in ev])


# --- phase-operator kernels in their gathered and masked forms --------------
#
# Exact oracles for the kernels of wigosc.phaseops, which must return the
# same bits: the arithmetic and its operand order are shared, only the data
# movement around it differs.


def g_matrix_gathered(n_max: int) -> np.ndarray:
    """``g[m, n]`` over the full grid, every entry gathered by ``(nl, ng, parity of nl)``."""
    idx = np.arange(n_max)
    lg_half = np.stack([gammaln(idx / 2.0 + 0.5), gammaln(idx / 2.0 + 1.0)])
    lg_fact = gammaln(idx + 1.0)
    nl, ng = np.minimum.outer(idx, idx), np.maximum.outer(idx, idx)
    parity = nl % 2
    log_g = (-(ng - nl) * (math.log(2.0) / 2.0)
             + lg_half[parity, nl] - lg_half[parity, ng]
             + 0.5 * (lg_fact[ng] - lg_fact[nl]))
    return np.exp(log_g)


def attenuation_masked(offset, beta_t: float) -> np.ndarray:
    """``1 - tanh(beta_t/2)**(|offset|/2)`` at even nonzero offsets, 1 elsewhere, by a masked power."""
    k = np.abs(offset)
    tau = math.tanh(beta_t / 2.0)
    even = (k % 2 == 0) & (k > 0)
    return np.where(even, 1.0 - np.power(tau, k // 2, where=even, out=np.ones_like(k, dtype=float)),
                    1.0)


def log_c_pairs(j: np.ndarray) -> np.ndarray:
    """``log c_j = gammaln((j+1)/2) - gammaln((j+2)/2)``, two log-Gammas per entry of any ``j``."""
    return gammaln((j + 1.0) / 2.0) - gammaln((j + 2.0) / 2.0)


def log_libm(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each entry, boxed as a Python float."""
    return np.fromiter(map(math.log, x.tolist()), float, count=x.size)


def convolve_scipy(kernel: np.ndarray, *xs: np.ndarray) -> list[np.ndarray]:
    """Full linear convolutions by ``scipy.fft`` at ``next_fast_len(n, real=True)``; one kernel FFT."""
    n = kernel.size + xs[0].size - 1
    size = next_fast_len(n, real=True)
    kernel_hat = rfft(kernel, size)
    return [irfft(rfft(x, size) * kernel_hat, size)[:n] for x in xs]


def row_weights_masked(offsets: np.ndarray, beta_t: float | None) -> np.ndarray:
    """Squared matrix weights of a row at ``offsets``, attenuated by :func:`attenuation_masked`."""
    if beta_t is None:
        return 1.0 / offsets.astype(float) ** 2
    return attenuation_masked(offsets, beta_t) ** 2 / offsets.astype(float) ** 2


def _tail_integral_grow(u: float, a: float) -> float:
    if a == 0.0:
        return 2.0 / math.sqrt(u)
    r, sa = math.sqrt(u + a), math.sqrt(a)
    return r / u + math.log((r + sa) / (r - sa)) / (2.0 * sa)


def _tail_integral_decay(u: float, a: float) -> float:
    r, sa = math.sqrt(u + a), math.sqrt(a)
    return r / (a * u) - math.log((r + sa) / (r - sa)) / (2.0 * a * sa)


def tail_bracket_scalar(m: int, j_top: int, c_m: float, beta_t: float | None) -> tuple[float, float]:
    """Certified [low, high] of one row's variance tail beyond ``j_top``, in Python floats.

    One row at a time with ``math`` (libm) calls.  Exact oracle for the
    whole-array :func:`wigosc.phaseops._tail_bracket`.
    """
    if m % 2 == 0:
        upper = lambda a: c_m * _tail_integral_grow(a - m, m + 2.0) / math.sqrt(2.0)
        lower = lambda a: c_m * _tail_integral_grow(a - m, float(m)) / math.sqrt(2.0)
    else:
        upper = lambda a: math.sqrt(2.0) / c_m * _tail_integral_decay(a - m, float(m))
        lower = lambda a: math.sqrt(2.0) / c_m * _tail_integral_decay(a - m, m + 2.0)
    if beta_t is None:
        return lower(j_top + 1.0), upper(float(j_top))
    tau = math.tanh(beta_t / 2.0)
    att_min = (1.0 - tau ** ((j_top + 1 - m) / 2.0)) ** 2
    half_low, half_up = 0.5 * lower(j_top + 2.0), 0.5 * upper(j_top - 1.0)
    return half_low * (1.0 + att_min), 2.0 * half_up


def variance_table_loop(m_max: int, extra: int, beta_t: float | None) -> tuple[np.ndarray, np.ndarray]:
    """Row variances and bounds from the kernel forms above, one scalar bracket per row.

    Exact oracle for :func:`wigosc.variance_diagonal_table`, which brackets
    the rows as whole arrays.
    """
    j_top = m_max + max(extra, 2)
    c = np.exp(log_c_pairs(np.arange(0, j_top + 1, dtype=float)))
    inv_c = 1.0 / c
    with np.errstate(divide="ignore"):
        kernel = row_weights_masked(np.arange(0, j_top + 1), beta_t)
    kernel[0] = 0.0
    even = np.arange(j_top + 1) % 2 == 0
    n = m_max + 1
    lower = (inv_c[:n] * convolve_scipy(kernel[:n], np.where(even, c, 0.0)[:n])[0][:n]
             + c[:n] * convolve_scipy(kernel[:n], np.where(even, 0.0, inv_c)[:n])[0][:n])
    corr_inv, corr_c = (x[j_top:j_top + n] for x in convolve_scipy(kernel[::-1], inv_c, c))
    values = lower + np.where(even[:n], c[:n] * corr_inv, inv_c[:n] * corr_c)
    bounds = np.empty(n)
    for m in range(n):
        lo, hi = tail_bracket_scalar(m, j_top, float(c[m]), beta_t)
        values[m] += (lo + hi) / 2.0
        bounds[m] = (hi - lo) / 2.0
    return values, bounds + 1e-10


def evolve_linalg(state: Gaussian2D, d: DerivedParams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``(mean, cov)`` of ``state`` pushed from 0 to ``t`` by generic matrix algebra.

    The canonical flow and noise covariance are the physical ones conjugated
    by ``S = diag(exp(beta*t), 1)`` as full matrix products, and the result is
    checked positive semidefinite with ``eigvalsh``.  The mean ``S F m0`` is
    formed in exact rationals from the float ``S``, ``F`` and ``m0`` and rounded
    once.  Oracle for :func:`wigosc.evolve`, which stretches the pushed physical
    moments instead.
    """
    kern = propagator(d, t)
    scale = np.diag([math.exp(d.beta * t), 1.0])
    flow = scale @ kern.flow
    exact = [np.vectorize(Fraction, otypes=[object])(a) for a in (scale, kern.flow, state.mean)]
    mean = (exact[0] @ exact[1] @ exact[2]).astype(float)
    cov = flow @ state.cov @ flow.T + scale @ kern.cov_physical @ scale
    if np.linalg.eigvalsh(cov)[0] < -1e-12 * max(1.0, float(np.max(np.abs(cov)))):
        raise ValueError("evolved covariance not positive semidefinite")
    return mean, cov


def overlap_linalg(mean_a, cov_a, mean_b, cov_b) -> float:
    """``Tr(rho_a rho_b)`` of two unit-mass Gaussians by ``np.linalg.det`` and ``solve``.

    Oracle for :func:`wigosc.state_overlap`.
    """
    csum = np.asarray(cov_a) + np.asarray(cov_b)
    diff = np.asarray(mean_a) - np.asarray(mean_b)
    quad = float(diff @ np.linalg.solve(csum, diff))
    return math.exp(-0.5 * quad) / math.sqrt(float(np.linalg.det(csum)))


def survival_linalg(d: DerivedParams, t: float) -> float:
    """Ground-state survival through :func:`evolve_linalg` and :func:`overlap_linalg`."""
    g = ground_state()
    mean, cov = evolve_linalg(g, d, t)
    return overlap_linalg(mean, cov, g.mean, g.cov)


def damped_trig_exact(c: float, T: float, digits: int = 60) -> tuple[float, float, float]:
    """``int_0^T exp(-c*u) * {sin^2 u, sin u cos u, cos^2 u} du`` in ``digits``-digit arithmetic.

    The regrouped antiderivatives (``I_ss``'s is ``gaussian._damped_sin2_integral``'s),
    evaluated in mpmath on the exact float inputs: at ``T >= 1e-8`` their
    cancellation costs at most ~16 of the 60 digits, so each float result is
    correctly rounded.  Needs ``mpmath``.
    """
    import mpmath

    with mpmath.workdps(digits):
        c, T = mpmath.mpf(c), mpmath.mpf(T)
        x = c * T
        e, k = mpmath.exp(-x), c * c + 4
        base = -T * mpmath.expm1(-x) / x if x != 0 else T
        i_ss = (2 * base - e * (c * mpmath.sin(T) ** 2 + mpmath.sin(2 * T))) / k
        i_sc = (2 - e * (2 * mpmath.cos(2 * T) + c * mpmath.sin(2 * T))) / (2 * k)
        return float(i_ss), float(i_sc), float(base - i_ss)


def _noise_integrals(c, big_t, n, digits: int):
    """``n * int_0^T exp(-c*u) * {s*s, s*(co - g*s), (co - g*s)**2} du``, ``g = c/2``, as mpf.

    Each trig factor is pi-periodic, so with ``T = k*pi + r`` every integral
    is ``J*(1 + q + ... + q**(k-1)) + q**k * R``, ``q = exp(-c*pi)``, ``J`` its
    integral over ``[0, pi]`` and ``R`` over ``[0, r]``, each by Gauss-Legendre
    quadrature in ``digits`` digits, on panels over which ``exp(-c*u)`` falls by
    at most ``exp(-24)``.  The middle one, ``~exp(-c*T)``, cancels O(1) terms
    (``J`` is 0 for it), so it takes ``c*T/ln(10)`` more digits, up to where
    ``exp(-c*T)`` is below ~1e-304.
    """
    import mpmath

    # in steps of 40 digits, so that mpmath's cached Gauss-Legendre nodes are reused
    extra = 40 * math.ceil(min(float(c * big_t), 700.0) / math.log(10.0) / 40.0)

    def integral(f, dps):
        with mpmath.workdps(dps):
            pi = mpmath.pi
            k = mpmath.floor(big_t / pi)
            periods = mpmath.expm1(-c * pi * k) / mpmath.expm1(-c * pi) if c != 0 else k

            def over(hi):
                pieces = max(2, math.ceil(float(c * hi) / 24.0))
                return mpmath.quad(lambda u: mpmath.exp(-c * u) * f(mpmath.sin(u), mpmath.cos(u)),
                                   mpmath.linspace(0, hi, pieces + 1), method="gauss-legendre")

            return n * (over(pi) * periods + mpmath.exp(-c * pi * k) * over(big_t - k * pi))

    g = c / 2
    return (integral(lambda s, co: s * s, digits),
            integral(lambda s, co: s * (co - g * s), digits + extra),
            integral(lambda s, co: (co - g * s) ** 2, digits))


def noise_form_exact(d: DerivedParams, t: float, digits: int = 40) -> tuple[float, float, float]:
    """Entries ``(q_aa, q_ab, q_bb)`` of ``noise_form(d, t)`` by quadrature, to ``digits`` digits.

    :func:`_noise_integrals` with ``c = beta/omega_damped``, ``g = c/2`` and
    ``T = omega_damped*t`` formed in floats as the package forms them.
    Needs ``mpmath``.
    """
    import mpmath

    od = d.omega_damped
    c, big_t, n = (mpmath.mpf(v) for v in (d.beta / od, od * t, d.noise_number))
    return tuple(float(q) for q in _noise_integrals(c, big_t, n, digits))


def ground_start_phase_exact(d: DerivedParams, t: float, digits: int = 80) -> float:
    """Phase mean of the evolved ground state, from ``d``'s floats alone, to ``digits`` digits.

    Builds the flow ``F``, the noise form ``Q`` (:func:`_noise_integrals`) and
    the physical covariance ``P = F F^T/2 + [[eps^2*Q_bb, Q_ab], [Q_ab, Q_aa/eps^2]]
    = [[a, b], [b, e]]`` in mpmath, and returns
    ``atan2(-b, exp(-beta*t)*e + sqrt(a*e - b*b))``.  ``T = omega_damped*t`` is
    formed in floats as the package forms it (``sin T`` magnifies its rounding
    by ``T``); nothing comes from the float ``propagator``.  Oracle for
    ``wigosc.phase_expectation(None, ...)``.  Needs ``mpmath``.
    """
    import mpmath

    with mpmath.workdps(digits):
        big_t = mpmath.mpf(d.omega_damped * t)
        beta, od, w, t = (mpmath.mpf(v) for v in (d.beta, d.omega_damped, d.omega, t))
        c, e2 = beta / od, mpmath.mpf(d.eps) ** 2
        q_aa, q_ab, q_bb = _noise_integrals(c, big_t, mpmath.mpf(d.noise_number), digits)
        damp, co, si = mpmath.exp(-beta * t / 2), mpmath.cos(big_t), mpmath.sin(big_t)
        f00, f01 = damp * (co - c / 2 * si), -damp * (w / od) * si
        f10, f11 = damp * (w / od) * si, damp * (co + c / 2 * si)
        a = (f00 * f00 + f01 * f01) / 2 + e2 * q_bb
        b = (f00 * f10 + f01 * f11) / 2 + q_ab
        e = (f10 * f10 + f11 * f11) / 2 + q_aa / e2
        return float(mpmath.atan2(-b, mpmath.exp(-beta * t) * e + mpmath.sqrt(a * e - b * b)))


def mean_angle_exact(cov, digits: int = 40) -> float:
    """Mean polar angle on [-pi, pi) of the centred Gaussian with covariance ``cov``.

    The angle integral ``int phi / q(phi) dphi / (2*pi*sqrt(det))``, with
    ``q = u^T C^{-1} u`` built from the adjugate of the float ``cov``, by
    ``digits``-digit tanh-sinh quadrature split at the multiples of pi/2.
    Needs ``mpmath``.  Oracle for the closed form of :func:`wigosc.mean_angle`.
    """
    import mpmath

    (a, b), (_, c) = np.asarray(cov, dtype=float).tolist()
    with mpmath.workdps(digits):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        det = a * c - b * b

        def weighted(phi):
            co, si = mpmath.cos(phi), mpmath.sin(phi)
            return phi * det / (c * co * co - 2 * b * co * si + a * si * si)

        edges = [-mpmath.pi, -mpmath.pi / 2, 0, mpmath.pi / 2, mpmath.pi]
        return float(mpmath.quad(weighted, edges) / (2 * mpmath.pi * mpmath.sqrt(det)))


def phase_expectation_linalg(d: DerivedParams, t: float) -> float:
    """Phase mean of the ground state evolved by :func:`evolve_linalg`, by :func:`mean_angle_exact`.

    The evolved ground state stays centred.  A float quadrature of the same
    integral errs by up to ~5e-12 where the canonical state is eccentric,
    so the angle integral is done in 40 digits.  Oracle for
    ``wigosc.phase_expectation(None, ...)``.
    """
    _, cov = evolve_linalg(ground_state(), d, t)
    return mean_angle_exact(cov)


def displaced_angle_exact(physical: Gaussian2D, beta_t: float, digits: int = 40) -> float:
    """Mean canonical angle of ``physical``, a Gaussian in the physical frame at ``beta_t``.

    The ray at physical angle ``theta`` has canonical angle
    ``atan2(sin theta, exp(beta_t) cos theta)``.  The physical angle density
    is the density's radial integral along that ray, in closed form with
    ``erfc`` so nothing cancels; the angle integral is ``digits``-digit
    tanh-sinh quadrature split at the multiples of pi/2, where the canonical
    angle turns.  Needs ``mpmath``.  Oracle for a displaced start's
    :func:`wigosc.phase_expectation`.
    """
    import mpmath

    (a, b), (_, c) = np.asarray(physical.cov, dtype=float).tolist()
    m0, m1 = physical.mean.tolist()
    with mpmath.workdps(digits):
        a, b, c, m0, m1 = (mpmath.mpf(v) for v in (a, b, c, m0, m1))
        det = a * c - b * b
        i00, i01, i11 = c / det, -b / det, a / det
        g0, g1 = i00 * m0 + i01 * m1, i01 * m0 + i11 * m1
        w = m0 * g0 + m1 * g1
        stretch = mpmath.exp(mpmath.mpf(beta_t))

        def weighted(theta):
            co, si = mpmath.cos(theta), mpmath.sin(theta)
            q = i00 * co * co + 2 * i01 * co * si + i11 * si * si
            lin = co * g0 + si * g1
            radial = (1 / q + lin * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(lin * lin / (2 * q))
                      * mpmath.erfc(-lin / mpmath.sqrt(2 * q)) / q ** 1.5)
            return mpmath.atan2(si, stretch * co) * radial

        edges = [-mpmath.pi, -mpmath.pi / 2, 0, mpmath.pi / 2, mpmath.pi]
        total = mpmath.quad(weighted, edges)
        return float(mpmath.exp(-w / 2) * total / (2 * mpmath.pi * mpmath.sqrt(det)))


@dataclass(frozen=True)
class TimeGenerator:
    """Coefficients of the quadratic generator of the motion at one instant.

    The generator (not the energy once friction acts) is

        H_t(p, q) = p_squared*p**2 + q_squared*q**2 + q_linear*q

    in physical units, with ``p`` the canonical momentum.  Hamilton's
    equations for it reproduce ``m*qddot + m*beta*qdot + m*omega**2*q = F``.
    """

    p_squared: float
    q_squared: float
    q_linear: float
    t: float

    def value(self, p: float, q: float) -> float:
        return self.p_squared * p * p + self.q_squared * q * q + self.q_linear * q

    def hamilton_rhs(self, p: float, q: float) -> tuple[float, float]:
        """``(dp/dt, dq/dt)`` generated by this Hamiltonian."""
        return (-(2.0 * self.q_squared * q + self.q_linear), 2.0 * self.p_squared * p)


def time_generator(d: DerivedParams, t: float, force: float = 0.0) -> TimeGenerator:
    """Quadratic generator at time ``t`` with an instantaneous drive value."""
    m, w, b = d.params.mass, d.params.omega, d.params.beta
    decay = math.exp(-b * t)
    grow = math.exp(b * t)
    return TimeGenerator(
        p_squared=decay / (2.0 * m),
        q_squared=grow * m * w * w / 2.0,
        q_linear=-grow * force,
        t=float(t),
    )


def energy_weyl_symbol(d: DerivedParams, b_param: float, t: float) -> Callable:
    """Phase-space symbol of ``exp(-B * E_osc)`` at time ``t``.

    The physical energy is a harmonic Hamiltonian in rescaled constants
    (``m -> m*exp(2*beta*t)``, ``omega -> omega*exp(-beta*t)``), so its
    symbol is the standard Gaussian one evaluated on the rescaled radius
    ``Rbar^2 = x**2*exp(-beta*t) + y**2*exp(beta*t)``.  Returned as a
    vectorised function of canonical ``(x, y)`` for quadrature cross-checks
    of :func:`wigosc.energy_generating_function`.
    """
    hw = d.params.hbar * d.omega
    bt = d.beta * t
    k = hw * b_param * math.exp(-bt) / 2.0
    tk, ck = math.tanh(k), math.cosh(k)
    shrink, grow = math.exp(-bt), math.exp(bt)

    def symbol(x, y):
        rbar2 = np.asarray(x) ** 2 * shrink + np.asarray(y) ** 2 * grow
        return np.exp(-rbar2 * tk) / ck

    return symbol


def scheme_moments(params: ModelParams, dt: float, n_steps: int, mean0: np.ndarray,
                   cov0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean and covariance of the semi-implicit Euler-Maruyama chain after ``n_steps``.

    In the dimensionless physical pair ``(X, y)`` of
    :class:`wigosc.MomentReport`, with ``h = omega*dt``, one step of the
    Langevin oracle is linear with additive Gaussian noise,

        X' = (1 - beta*dt)*X - h*y + s*xi,    y' = y + h*X',

    i.e. ``z' = A z + b xi`` with ``s = sqrt(mu*dt)/(hbar*alpha)`` and
    ``alpha = sqrt(m*omega/hbar)``, so the moments obey ``m <- A m`` and
    ``C <- A C A^T + b b^T`` exactly.  The
    recursion never touches the analytic propagator: it is the oracle of the
    discrete scheme itself, whose distance from the propagator is the
    scheme's discretisation bias.
    """
    h = params.omega * dt
    c = 1.0 - params.beta * dt
    alpha = math.sqrt(params.mass * params.omega / params.hbar)
    s = math.sqrt(params.noise_strength * dt) / (params.hbar * alpha)
    step = np.array([[c, -h], [h * c, 1.0 - h * h]])
    kick = s * np.array([1.0, h])
    noise = np.outer(kick, kick)
    mean = np.array(mean0, dtype=float)
    cov = np.array(cov0, dtype=float)
    for _ in range(n_steps):
        mean = step @ mean
        cov = step @ cov @ step.T + noise
    return mean, cov


def run_block_columns(params: ModelParams, cfg: SdeConfig, mean0: np.ndarray,
                      root: np.ndarray | None, rec_idx: np.ndarray) -> np.ndarray:
    """(nout, 5) moment sums of the whole ensemble, stepped one step at a time.

    The plain Langevin loop in the physical pair ``(q, p)``: all trajectories
    form one block, every chunk of 2500 steps draws each trajectory's normals
    into its own column of a step-major buffer, and each step applies the
    semi-implicit update to every trajectory.  Oracle for
    ``wigosc.simulate_ensemble``, which reads the same streams in the same
    order but sums each piece of steps by the chain's linear map, so the two
    agree to rounding, not bit for bit.
    """
    m, w, b = params.mass, params.omega, params.beta
    alpha = math.sqrt(m * w / params.hbar)
    scale_p = params.hbar * alpha
    dt = cfg.dt
    sq = math.sqrt(params.noise_strength * dt)
    c_fric = 1.0 - b * dt
    c_spring = -m * w * w * dt
    dtm = dt / m

    nb = cfg.n_trajectories
    gens = [Generator(Philox(key=[cfg.seed, i])) for i in range(nb)]
    q = np.full(nb, mean0[1] / alpha)
    p = np.full(nb, mean0[0] * scale_p)
    if root is not None:
        for i, gen in enumerate(gens):
            x, y = mean0 + root @ gen.standard_normal(2)
            q[i], p[i] = y / alpha, x * scale_p

    sums = np.zeros((len(rec_idx), 5))
    rec_set = {int(s): k for k, s in enumerate(rec_idx)}

    def record(slot: int) -> None:
        x_dim = p / scale_p
        y_dim = alpha * q
        sums[slot] = (x_dim.sum(), y_dim.sum(), (x_dim * x_dim).sum(),
                      (x_dim * y_dim).sum(), (y_dim * y_dim).sum())

    if 0 in rec_set:
        record(rec_set[0])
    step = 0
    while step < cfg.n_steps:
        ns = min(2500, cfg.n_steps - step)
        noise = np.empty((ns, nb))
        for i, gen in enumerate(gens):
            noise[:, i] = gen.standard_normal(ns)
        for s in range(ns):
            p *= c_fric
            p += c_spring * q
            p += sq * noise[s]
            q += p * dtm
            step += 1
            slot = rec_set.get(step)
            if slot is not None:
                record(slot)
    return sums


def bonferroni_threshold_scipy(n_comparisons: int) -> float:
    """Bonferroni-widened 3-sigma z threshold through SciPy's normal CDF and its inverse."""
    return float(-ndtri(2.0 * ndtr(-3.0) / (2.0 * n_comparisons)))
