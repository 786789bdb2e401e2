import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from oracles import (energy_weyl_symbol, mean_angle_exact, phase_expectation_linalg,
                     survival_linalg)
from wigosc import (Gaussian2D, ModelParams, QuadratureNotConverged, RequiresFriction,
                    coherent_state, derive, energy_generating_function, evolve, ground_state,
                    longtime_survival, mean_angle, nofriction_survival, phase_expectation,
                    propagator, survival_probability, thermal_angle_expectation, thermal_state)
from wigosc.observables import _angle_profile

PI2_3 = math.pi ** 2 / 3.0
EPS = float(np.finfo(float).eps)

# The whole domain: beta*t, D log-uniform on [1, 1e7], damping ratio B
_BETA_T = st.floats(0.0, 300.0)
_LOG_D = st.floats(0.0, math.log(1e7))
_DAMPING = st.floats(0.01, 1.9)

# A sweep point (D, B, beta*t) whose evolved canonical covariance is so
# eccentric that the displaced angle weight q(phi) rounds to exactly zero
ECCENTRIC = (1573.942557235534, 0.27694667405087636, 351.1414149356428)


def survival_oracle(d, t):
    """Brute-force overlap integral of the evolved state with the ground symbol."""
    state = evolve(ground_state(), d, t)
    inv = np.linalg.inv(state.cov)
    det = float(np.linalg.det(state.cov))

    def f(y, x):
        quad_form = inv[0, 0] * x * x + 2 * inv[0, 1] * x * y + inv[1, 1] * y * y
        dens = math.exp(-0.5 * quad_form) / (2 * math.pi * math.sqrt(det))
        return 2.0 * math.exp(-x * x - y * y) * dens

    val, _ = dblquad(f, -8, 8, -8, 8, epsabs=1e-12, epsrel=1e-12)
    return 2.0 * math.pi * val / (2.0 * math.pi)


def angle_oracle(state):
    """2-D tensor quadrature of the angle against a Gaussian density.

    The box is cut into quadrants at the axes, so that atan2's branch cut on
    the negative x axis and its kink at the origin lie on panel edges.
    """
    inv = np.linalg.inv(state.cov)
    det = float(np.linalg.det(state.cov))
    m = state.mean

    def f(y, x):
        dx, dy = x - m[0], y - m[1]
        quad_form = inv[0, 0] * dx * dx + 2 * inv[0, 1] * dx * dy + inv[1, 1] * dy * dy
        return math.atan2(y, x) * math.exp(-0.5 * quad_form)

    width = 7.0 * math.sqrt(float(np.max(np.diag(state.cov))))
    edges = [(m[k] - width, min(max(0.0, m[k] - width), m[k] + width), m[k] + width)
             for k in (0, 1)]
    val = sum(dblquad(f, x0, x1, y0, y1, epsabs=1e-11, epsrel=1e-11)[0]
              for x0, x1 in zip(edges[0], edges[0][1:])
              for y0, y1 in zip(edges[1], edges[1][1:]))
    return val / (2 * math.pi * math.sqrt(det))


class TestSurvival:
    def test_unity_at_zero_time(self, d_default, d_free):
        assert survival_probability(d_default, 0.0) == 1.0
        assert survival_probability(d_free, 0.0) == 1.0

    def test_frictionless_closed_form_agreement(self, d_free):
        # exact Gaussian algebra collapses onto the zero-friction closed form
        for t in np.linspace(0.0, 40.0, 113):
            assert survival_probability(d_free, t) == pytest.approx(
                nofriction_survival(d_free, t), rel=1e-12)

    def test_free_noise_value_after_one_period(self, d_free):
        assert nofriction_survival(d_free, 2 * math.pi) == pytest.approx(
            1.0 / (1.0 + 0.25 * math.pi), rel=1e-12)
        assert nofriction_survival(d_free, 2 * math.pi) == pytest.approx(0.56010, abs=5e-6)

    def test_nodes_of_the_free_curve(self, d_free):
        no = d_free.noise_number_free
        for k in (1, 2, 5):
            wt = k * math.pi
            assert nofriction_survival(d_free, wt) == pytest.approx(
                1.0 / (1.0 + no * wt / 2.0), rel=1e-13)

    def test_against_bruteforce_quadrature(self, d_default):
        t = 7.3
        assert survival_probability(d_default, t) == pytest.approx(
            survival_oracle(d_default, t), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(_BETA_T, _LOG_D, _DAMPING)
    def test_matches_linalg_oracle(self, beta_t, log_d, big_b):
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta
        ref = survival_linalg(d, t)
        # np.linalg.det returns exp(log det), so the oracle's own error grows
        # like eps*|log det| = 2*eps*|log survival|
        tol = 1e-14 + 4.0 * EPS * abs(math.log(ref))
        assert survival_probability(d, t) == pytest.approx(ref, rel=tol)

    @settings(max_examples=60, deadline=None)
    @given(_BETA_T, _LOG_D, _DAMPING)
    def test_determinant_exact_against_mpmath(self, beta_t, log_d, big_b):
        mpmath = pytest.importorskip("mpmath")
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta
        # 1/sqrt(det(C + I/2)) of the very same evolved covariance, in 40 digits
        (a, b), (_, c) = (evolve(ground_state(), d, t).cov + 0.5 * np.eye(2)).tolist()
        with mpmath.workdps(40):
            exact = 1 / mpmath.sqrt(mpmath.mpf(a) * c - mpmath.mpf(b) ** 2)
            assert abs(survival_probability(d, t) / exact - 1) <= 4.0 * EPS

    def test_longtime_asymptote(self, d_default):
        beta = d_default.beta
        for bt in (5.0, 7.0, 10.0):
            exact = survival_probability(d_default, bt / beta)
            asym = longtime_survival(d_default, bt / beta)
            assert abs(exact / asym - 1.0) < 0.01

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 60.0), st.floats(0.5, 50.0), st.floats(0.01, 0.5))
    def test_bounded_in_unit_interval(self, t, big_d, big_b):
        d = derive(ModelParams.from_dimensionless(big_d, big_b))
        val = survival_probability(d, t)
        assert 0.0 < val <= 1.0

    def test_friction_to_zero_uniform_convergence(self):
        # sup-norm gap against the zero-friction curve shrinks monotonically
        ts = np.linspace(0.0, 20.0, 201)
        free = derive(ModelParams.from_dimensionless(0.0, 0.0, 0.25))
        ref = np.array([nofriction_survival(free, t) for t in ts])
        gaps = []
        for beta in (1e-3, 1e-4, 1e-5):
            d = derive(ModelParams(mass=1.0, omega=1.0, beta=beta, mu=0.25))
            vals = np.array([survival_probability(d, t) for t in ts])
            gaps.append(np.max(np.abs(vals - ref)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4


class TestLongtimeSurvival:
    def test_asymptotic_form(self, d_default):
        big_d, beta = d_default.temperature_number, d_default.beta
        t = 400.0
        expected = math.exp(-beta * t) * (2.0 / big_d) / math.sqrt(1.0 + 1.0 / big_d)
        assert longtime_survival(d_default, t) == pytest.approx(expected, rel=1e-10)

    def test_high_temperature_suppression(self):
        t = 30.0
        vals = [longtime_survival(derive(ModelParams(1.0, 1.0, beta=0.1, theta=th)), t)
                for th in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_exact_gap_at_late_time(self, d_default):
        t = 100.0
        gap = abs(survival_probability(d_default, t) / longtime_survival(d_default, t) - 1.0)
        assert gap < 0.01

    def test_requires_friction(self, d_free):
        with pytest.raises(RequiresFriction):
            longtime_survival(d_free, 1.0)


def ground_start_angle_mpmath(d, t):
    """Phase mean of the evolved ground state from its float physical covariance, in 40 digits.

    ``atan2(-b, exp(-beta*t)*d + sqrt(det))`` for ``F (I/2) F^T + cov_physical
    = [[a, b], [b, d]]``, with ``exp(-beta*t)`` exact.
    """
    mpmath = pytest.importorskip("mpmath")
    kern = propagator(d, t)
    (a, b), (_, c) = (kern.flow @ ground_state().cov @ kern.flow.T + kern.cov_physical).tolist()
    with mpmath.workdps(40):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        squeeze = mpmath.exp(-mpmath.mpf(d.beta) * mpmath.mpf(t))
        return mpmath.atan2(-b, squeeze * c + mpmath.sqrt(a * c - b * b))


class TestMeanAngle:
    def test_isotropic_centred_state_gives_zero(self):
        assert mean_angle(ground_state()) == pytest.approx(0.0, abs=1e-12)

    def test_ground_start_is_zero_at_zero_time(self, d_default):
        assert phase_expectation(None, d_default, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_vanishes_at_long_times(self, d_default):
        assert abs(phase_expectation(None, d_default, 8.0 / d_default.beta)) < 1e-3

    def test_reflection_negates_exactly(self, rng):
        refl = np.diag([1.0, -1.0])
        for _ in range(8):
            mean = rng.normal(size=2)
            a = rng.normal(size=(2, 2))
            cov = 0.5 * np.eye(2) + a @ a.T
            state = Gaussian2D(mean, cov)
            mirror = Gaussian2D(refl @ mean, refl @ cov @ refl)
            assert mean_angle(mirror) == pytest.approx(-mean_angle(state), abs=1e-10)

    def test_against_tensor_quadrature(self, rng):
        states = [
            Gaussian2D(np.zeros(2), np.array([[0.9, 0.3], [0.3, 0.6]])),
            Gaussian2D(np.array([0.8, -0.4]), np.array([[0.7, -0.2], [-0.2, 1.1]])),
            Gaussian2D(np.array([-1.2, 0.1]), 0.5 * np.eye(2)),
        ]
        for state in states:
            assert mean_angle(state) == pytest.approx(angle_oracle(state), abs=1e-7)

    def test_profile_normalisation(self):
        # E[1] through the same radial reduction must be exactly 1
        state = Gaussian2D(np.array([0.5, 0.2]), np.array([[1.3, 0.4], [0.4, 0.8]]))
        profile, norm = _angle_profile(state)
        from wigosc.quadrature import integrate_angular
        total = norm * integrate_angular(profile, tol=1e-12)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_evolved_matches_quadrature(self, d_default):
        state = evolve(ground_state(), d_default, 2.0)
        assert mean_angle(state) == pytest.approx(angle_oracle(state), abs=1e-8)

    @pytest.mark.parametrize("cov", [np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]])],
                             ids=["point", "rank1"])
    @pytest.mark.parametrize("mean", [np.zeros(2), np.array([0.5, 0.2])],
                             ids=["centred", "displaced"])
    def test_degenerate_state_rejected(self, cov, mean):
        # the radial reduction inverts the covariance
        with pytest.raises(ValueError, match="degenerate"):
            mean_angle(Gaussian2D(mean, cov))

    def test_phase_expectation_of_point_start_rejected(self, d_default):
        with pytest.raises(ValueError, match="degenerate"):
            phase_expectation(Gaussian2D(np.array([1.0, 0.0]), np.zeros((2, 2))),
                              d_default, 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.0, 10.0), _LOG_D, _DAMPING)
    def test_matches_linalg_oracle(self, beta_t, log_d, big_b):
        pytest.importorskip("mpmath")
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta
        assert phase_expectation(None, d, t) == pytest.approx(
            phase_expectation_linalg(d, t), abs=1e-14)

    @pytest.mark.parametrize("cov", [[[0.9, 0.3], [0.3, 0.6]], [[40.0, -6.0], [-6.0, 1.0]],
                                     [[0.02, 0.1], [0.1, 3.0]]])
    def test_closed_form_matches_exact_angle_integral(self, cov):
        # the angular central Gaussian identity against the angle integral itself
        pytest.importorskip("mpmath")
        exact = mean_angle_exact(cov)
        assert abs(mean_angle(Gaussian2D(np.zeros(2), np.array(cov))) - exact) <= 4.0 * EPS * abs(exact)

    def test_centred_states_need_no_quadrature(self, d_default, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature called for a centred state")

        monkeypatch.setattr("wigosc.observables.integrate_angular", refuse)
        assert mean_angle(ground_state()) == 0.0
        assert mean_angle(evolve(ground_state(), d_default, 3.0)) < 0.0
        for bt in (0.0, 0.5, 12.0, 1e3):
            assert math.isfinite(phase_expectation(None, d_default, bt / d_default.beta))
        with pytest.raises(AssertionError, match="quadrature called"):
            mean_angle(coherent_state(0.5, 0.0))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e3), _LOG_D, _DAMPING)
    def test_ground_start_against_mpmath(self, beta_t, log_d, big_b):
        # past beta*t ~ 709 the value is subnormal, hence the absolute floor
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta
        val = phase_expectation(None, d, t)
        exact = ground_start_angle_mpmath(d, t)
        assert math.isfinite(val) and abs(val) <= math.pi
        assert abs(val - exact) <= 4.0 * EPS * abs(exact) + 2.0 * math.ulp(0.0)

    def test_vanishing_angle_weight_is_loud(self):
        big_d, big_b, beta_t = ECCENTRIC
        d = derive(ModelParams.from_dimensionless(big_d, big_b))
        t = beta_t / d.beta
        # the centred state has a closed form, in either frame
        exact = ground_start_angle_mpmath(d, t)
        assert abs(phase_expectation(None, d, t) - exact) <= 4.0 * EPS * abs(exact)
        canonical = evolve(ground_state(), d, t)
        assert abs(mean_angle(canonical) - exact) <= 4.0 * EPS * abs(exact)
        # the displaced profile still needs q(phi) > 0
        displaced = Gaussian2D(np.array([1.0, 1.0]), canonical.cov)
        with pytest.raises(QuadratureNotConverged, match="angle weight"):
            mean_angle(displaced)

    def test_weak_damping_curve_tracks_frictionless_reference(self):
        # high temperature, low damping with D*B = 20 is nearly the
        # zero-friction run with free noise number 20
        weak = derive(ModelParams.from_dimensionless(1000.0, 0.02))
        free = derive(ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=20.0))
        for t in (1.0, 2.0, 5.0, 10.0, 20.0):
            a = phase_expectation(None, weak, t)
            r = phase_expectation(None, free, t)
            assert a == pytest.approx(r, abs=5e-3)


class TestThermalAngle:
    def test_unit_functional_normalised(self, d_default):
        for bt in (0.1, 1.0, 5.0, 10.0):
            val = thermal_angle_expectation(lambda phi: 1.0, d_default,
                                            bt / d_default.beta)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_odd_functional_vanishes(self, d_default):
        for bt in (0.5, 3.0):
            val = thermal_angle_expectation(lambda phi: phi, d_default,
                                            bt / d_default.beta)
            assert val == pytest.approx(0.0, abs=1e-10)

    def test_squared_angle_approaches_half_pi_squared(self, d_default):
        # the stationary angle weight piles up at phi = 0 AND +-pi (both are
        # zeros of sin^2), so phi^2 averages to pi^2/2 at late times, not 0
        beta = d_default.beta
        vals = [thermal_angle_expectation(lambda phi: phi * phi, d_default, bt / beta)
                for bt in (0.0, 1.0, 4.0, 10.0)]
        assert vals[0] == pytest.approx(PI2_3, rel=1e-9)  # uniform limit
        assert vals == sorted(vals)
        assert vals[-1] == pytest.approx(math.pi ** 2 / 2.0, rel=1e-3)


class TestEnergyGeneratingFunction:
    def test_trace_at_zero_parameter(self, d_default):
        assert energy_generating_function(d_default, 0.0, 12.0) == 1.0

    def test_classical_limit(self, d_default):
        theta = d_default.params.theta
        t = 10.0 / d_default.beta
        for b in (0.1, 1.0, 10.0):
            val = energy_generating_function(d_default, b, t)
            assert val == pytest.approx(1.0 / (1.0 + b * theta), rel=1e-6)

    def test_decreasing_in_parameter(self, d_default):
        t = 30.0
        vals = [energy_generating_function(d_default, b, t)
                for b in (0.0, 0.1, 0.5, 1.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_quadrature_of_symbol_against_thermal_state(self, d_default):
        # the closed form must reproduce the 2-D integral of the symbol
        # against the thermal state to quadrature accuracy
        t = 10.0 / d_default.beta
        th = thermal_state(d_default, t)
        sx, sy = np.sqrt(np.diag(th.cov))
        for b in (0.1, 1.0, 10.0):
            sym = energy_weyl_symbol(d_default, b, t)

            def f(v, u):
                x, y = u * sx, v * sy
                return float(sym(x, y)) * float(th.density(x, y)) * sx * sy

            val, _ = dblquad(f, -10, 10, -10, 10, epsabs=1e-12, epsrel=1e-12)
            closed = energy_generating_function(d_default, b, t)
            assert val == pytest.approx(closed, rel=1e-9)

    def test_negative_parameter_rejected(self, d_default):
        with pytest.raises(ValueError):
            energy_generating_function(d_default, -0.5, 1.0)

    @pytest.mark.parametrize("big_d", [5.0, 1e7])
    def test_no_underflow_before_exp_overflows(self, big_d):
        # D*exp(beta*t)*sinh(K) overflows from beta*t = 709.78 - ln D and
        # exp(beta*t) from 709.78, so neither may be formed.  K is ~1e-308
        # here, so the value is the classical 1/(1 + B*theta) to the last bit.
        d = derive(ModelParams.from_dimensionless(big_d, 0.1))
        for beta_t in (709.0, 1000.0):
            val = energy_generating_function(d, 1.0, beta_t / d.beta)
            assert val == 1.0 / (1.0 + big_d / 2.0)

    @staticmethod
    def _check_large_k(big_d, k):
        # at t = 0 with hbar = omega = 1, K = b_param/2 exactly, so the only
        # error is the formula's rounding; below ~1e-308 the value is
        # subnormal and the floor is two subnormal steps
        mpmath = pytest.importorskip("mpmath")
        d = derive(ModelParams.from_dimensionless(big_d, 0.1))
        val = energy_generating_function(d, 2.0 * k, 0.0)
        with mpmath.workdps(40):
            km = mpmath.mpf(k)
            exact = 1 / (mpmath.cosh(km) + d.temperature_number * mpmath.sinh(km))
            assert abs(val - exact) <= 4.0 * EPS * exact + 2.0 * math.ulp(0.0)
        return val

    @pytest.mark.parametrize("k", [709.0, 720.0, 750.0, 1e4])
    def test_large_k_underflows_instead_of_raising(self, k):
        # cosh(K) overflows from K = 710.5; the value underflows to 0 instead
        val = self._check_large_k(5.0, k)
        assert val > 0.0 if k < 745.0 else val == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.floats(math.log(1e-3), math.log(1e7)), st.floats(0.0, 760.0))
    def test_large_k_against_mpmath(self, log_d, k):
        self._check_large_k(math.exp(log_d), k)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e3), st.floats(0.0, math.log(1e7)), st.floats(0.0, 50.0))
    def test_against_mpmath(self, beta_t, log_d, b):
        mpmath = pytest.importorskip("mpmath")
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), 0.1))
        t = beta_t / d.beta
        with mpmath.workdps(40):
            bt = mpmath.mpf(d.beta) * mpmath.mpf(t)
            k = mpmath.mpf(d.params.hbar) * d.omega * b * mpmath.exp(-bt) / 2
            exact = 1 / (mpmath.cosh(k) + d.temperature_number * mpmath.exp(bt) * mpmath.sinh(k))
            # the value moves by ~K times the relative error of K, which holds
            # eps*beta*t from rounding beta*t: the problem's own conditioning
            tol = 4.0 * EPS * (1.0 + float(k) * (1.0 + float(bt)))
            assert abs(energy_generating_function(d, b, t) / exact - 1) <= tol
