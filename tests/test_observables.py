import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad
from scipy.special import spence

from oracles import (displaced_angle_exact, energy_weyl_symbol, ground_start_phase_exact,
                     mean_angle_exact, phase_expectation_linalg, survival_linalg)
from wigosc import (Gaussian2D, ModelParams, QuadratureNotConverged, RequiresFriction,
                    canonical_phase_matrix, coherent_state, derive, energy_generating_function,
                    evolve, ground_state, longtime_survival, mean_angle, nofriction_survival,
                    phase_expectation, physical_phase_matrix, propagator, survival_probability,
                    thermal_angle_expectation, thermal_state)
from wigosc.observables import _angle_profile

PI2_3 = math.pi ** 2 / 3.0
EPS = float(np.finfo(float).eps)

# The whole domain: beta*t, D log-uniform on [1, 1e7], damping ratio B
_BETA_T = st.floats(0.0, 300.0)
_LOG_D = st.floats(0.0, math.log(1e7))
_DAMPING = st.floats(0.01, 1.9)

# A sweep point (D, B, beta*t) whose evolved canonical covariance is so
# eccentric (variances 7.8e307 and 787) that at unit scale its determinant is ~3e-305
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

    @pytest.mark.parametrize("beta_t", [354.1, 400.0, 745.0, 1000.0])
    def test_past_the_canonical_range_is_loud(self, d_default, beta_t):
        # det(C + I/2) overflows from beta*t ~ 354 at D = 5, where the value
        # is ~1e-154; the overlap must not read 1/sqrt(inf) = 0
        with pytest.raises(ValueError, match="overflows"):
            survival_probability(d_default, beta_t / d_default.beta)

    def test_longtime_asymptote(self, d_default):
        beta = d_default.beta
        for bt in (5.0, 7.0, 10.0):
            exact = survival_probability(d_default, bt / beta)
            asym = longtime_survival(d_default, bt / beta)
            assert abs(exact / asym - 1.0) < 0.01

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 60.0), st.floats(0.5, 50.0), st.floats(0.01, 0.5))
    @example(1.2578151589629029e-14, 0.5, 0.015625)  # the overlap rounds to 1 + 2**-52
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
        profile, norm = _angle_profile(state.mean, state.cov)
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

        monkeypatch.setattr("wigosc.observables.integrate", refuse)
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

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 1e3), _LOG_D, _DAMPING, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_displaced_start_against_mpmath(self, beta_t, log_d, big_b, x0, y0):
        # the angle integral of the same float physical state, in 40 digits
        pytest.importorskip("mpmath")
        assume(x0 != 0.0 or y0 != 0.0)
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta
        start = coherent_state(x0, y0)
        kern = propagator(d, t)
        physical = Gaussian2D(kern.flow @ start.mean,
                              kern.flow @ start.cov @ kern.flow.T + kern.cov_physical)
        val = phase_expectation(start, d, t)
        assert abs(val - displaced_angle_exact(physical, d.beta * t)) <= 1e-10

    def test_displaced_default_tol_point(self):
        # one 21-point rule on the unsplit z panel under-reported its error here: off by 1.4e-10
        pytest.importorskip("mpmath")
        state = coherent_state(1.0, 1.0).physical(1.0, 1.5)
        assert abs(mean_angle(state) - displaced_angle_exact(state, 0.0)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.1, 10.0),
           st.floats(0.1, 10.0), st.floats(-0.9, 0.9), st.integers(-400, 400))
    def test_displaced_angle_is_scale_free_bit_for_bit(self, m0, m1, a, e, rho, j):
        # the profile works on (2**-k m, 4**-k C) with the largest entry O(1),
        # the same state for every j as long as no entry scales to a subnormal;
        # only the degeneracy test reads the state at its own scale
        b = rho * math.sqrt(a * e)
        mean, cov = np.array([m0, m1]), np.array([[a, b], [b, e]])
        assume(mean.any())
        assume(all(v == 0.0 or abs(math.ldexp(v, min(k, 0))) >= np.finfo(float).tiny
                   for v, k in ((m0, j), (m1, j), (b, 2 * j))))
        scaled = Gaussian2D(np.ldexp(mean, j), np.ldexp(cov, 2 * j))
        if scaled.is_degenerate:  # det * 16**j <= 1e-300, from j ~ -250 down
            with pytest.raises(ValueError, match="degenerate"):
                mean_angle(scaled)
        else:
            assert mean_angle(Gaussian2D(mean, cov)) == mean_angle(scaled)

    def test_huge_isotropic_state_keeps_its_angle(self):
        # entries past ~1e154 overflowed the determinant, the inverse read zeros,
        # and the profile raised "state too eccentric"
        state = Gaussian2D(np.array([1.0, 0.0]), 1e300 * np.eye(2))
        assert abs(mean_angle(state)) <= 1e-12
        d = derive(ModelParams.from_dimensionless(5.0, 0.25))
        centred = Gaussian2D(np.zeros(2), state.cov)
        assert phase_expectation(state, d, 0.3) == pytest.approx(
            phase_expectation(centred, d, 0.3), abs=1e-12)

    def test_tiny_state_is_degenerate_displaced_or_centred(self):
        # det = 1e-320 at its own scale: the unit-scale profile must not rescue it
        cov = 1e-160 * np.eye(2)
        assert Gaussian2D(np.zeros(2), cov).is_degenerate
        for mean in (np.zeros(2), np.array([1e-80, 0.0])):
            with pytest.raises(ValueError, match="degenerate"):
                mean_angle(Gaussian2D(mean, cov))

    def test_vanishing_angle_weight_is_loud(self):
        big_d, big_b, beta_t = ECCENTRIC
        d = derive(ModelParams.from_dimensionless(big_d, big_b))
        t = beta_t / d.beta
        # the centred state has a closed form, in either frame
        exact = ground_start_angle_mpmath(d, t)
        assert abs(phase_expectation(None, d, t) - exact) <= 4.0 * EPS * abs(exact)
        canonical = evolve(ground_state(), d, t)
        assert abs(mean_angle(canonical) - exact) <= 4.0 * EPS * abs(exact)
        # not degenerate at its own scale (the determinant overflows there), but
        # at unit scale its eigenvalues lie ~1e305 apart: its angle law is two
        # spikes of width ~1e-152 that no quadrature node sees
        displaced = Gaussian2D(np.array([1.0, 1.0]), canonical.cov)
        assert not displaced.is_degenerate
        with pytest.raises(QuadratureNotConverged, match="too eccentric"):
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


    @staticmethod
    def assert_moments_within_tol(d, t, tol=1e-10):
        # E[phi**2] = pi**2/3 + Re Li2(tanh(beta*t/2)), Li2(w) = spence(1 - w)
        square = PI2_3 + float(spence(1.0 - math.tanh(d.beta * t / 2.0)))
        assert abs(thermal_angle_expectation(lambda phi: 1.0, d, t, tol=tol) - 1.0) <= tol
        assert abs(thermal_angle_expectation(lambda phi: phi, d, t, tol=tol)) <= tol
        assert abs(thermal_angle_expectation(lambda phi: phi * phi, d, t, tol=tol)
                   - square) <= tol

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e3), _LOG_D, _DAMPING)
    def test_moments_within_tol_over_the_domain(self, beta_t, log_d, big_b):
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        self.assert_moments_within_tol(d, beta_t / d.beta)

    @pytest.mark.parametrize("beta_t", [40.0, 41.0, 60.0, 2e4, 1e5, 1e6, 1e300])
    def test_moments_within_tol_far_out(self, d_default, beta_t):
        # a single log-tan panel out to beta*t lost the quarter theta in
        # (pi/4, pi/2) of every quadrant from beta*t ~ 2e4: E[1] read 0.5
        self.assert_moments_within_tol(d_default, beta_t / d_default.beta)


# (D, B, beta*t, E[cos], E[phi**2], ground-start phase mean), recorded at commit
# 608f92f: a faster angle rule or propagator must reproduce them bit for bit.
# Re-recorded, each declared in CHANGES.md: the last four phase means for the
# regrouped noise integrals, the E[cos] and E[phi**2] columns for the numpy
# Gauss-Legendre angle rule, and all six phase means for the closed-form q_ab
# and q_bb, which moved the last three from 9.6e-10, 1.4e-3 and 1e36 relative
# off ground_start_phase_exact to within 5e-15 (bt120's truth is -3.396e-53)
GOLDEN = [
    (5.0, 0.05, 0.3, 4.017992068789532e-17, 3.4446955318963264, -0.003280225198002084),
    (1000.0, 0.5, 2.5, 1.403741469054329e-17, 4.466626154861425, -0.043812489425342),
    (30.0, 1.2, 7.0, -5.352954988415994e-19, 4.921475391289592, -0.001650920502193097),
    (2.0, 0.3, 15.0, 6.407806595759679e-23, 4.934792835740991, -2.5616953027261334e-08),
    (1000000.0, 1.9, 33.0, 1.765639437428301e-30, 4.934802200544368, -5.2132917794437016e-14),
    (200.0, 0.8, 120.0, 0.0, 4.934802200544679, -3.396356728969995e-53),
]


@pytest.mark.parametrize("big_d, big_b, beta_t, cos_mean, square_mean, phase_mean", GOLDEN,
                         ids=[f"bt{row[2]:g}" for row in GOLDEN])
def test_golden_values_bit_for_bit(big_d, big_b, beta_t, cos_mean, square_mean, phase_mean):
    d = derive(ModelParams.from_dimensionless(big_d, big_b))
    t = beta_t / d.beta
    assert thermal_angle_expectation(np.cos, d, t) == cos_mean
    assert thermal_angle_expectation(lambda phi: phi * phi, d, t) == square_mean
    assert phase_expectation(None, d, t) == phase_mean


@pytest.mark.parametrize("big_d, big_b, beta_t", [row[:3] for row in GOLDEN],
                         ids=[f"bt{row[2]:g}" for row in GOLDEN])
def test_golden_phase_means_against_exact_kernel(big_d, big_b, beta_t):
    # F and Q in 80 digits from d's floats: an error in the float kernel shows,
    # where ground_start_angle_mpmath starts from that kernel
    pytest.importorskip("mpmath")
    d = derive(ModelParams.from_dimensionless(big_d, big_b))
    t = beta_t / d.beta
    exact = ground_start_phase_exact(d, t)
    assert abs(phase_expectation(None, d, t) - exact) <= 1e-13 * abs(exact)


# Starts off the ground state, recorded at cb7c236: the displaced and
# correlated-centred phase means and the displaced mean angles.  A reroute of
# the physical-frame push or of the centred/displaced dispatch must keep them
# bit for bit.  At bt2.5 the pushed covariance's off-diagonals differ by an ulp.
_CORR = np.array([[1.3, 0.4], [0.4, 0.8]])
GOLDEN_STARTS = {"coherent": coherent_state(0.8, -0.5),
                 "correlated": Gaussian2D(np.array([0.7, -0.4]), _CORR),
                 "centred": Gaussian2D(np.zeros(2), _CORR)}
GOLDEN_PHASE = [
    ("coherent", 5.0, 0.25, 1.5, -0.2555291502824679),
    ("correlated", 200.0, 0.8, 6.0, -0.000759081638727916),
    ("correlated", 30.0, 1.2, 2.5, -0.08892392852164085),
    ("centred", 30.0, 1.2, 2.5, -0.15068419112445186),
    ("centred", 1000.0, 0.5, 0.7, -0.4283430099264079),
]
GOLDEN_ANGLE = [("coherent", -0.49579258382449726), ("correlated", -0.5644219837553824)]


@pytest.mark.parametrize("start, big_d, big_b, beta_t, phase_mean", GOLDEN_PHASE,
                         ids=[f"{row[0]}-bt{row[3]:g}" for row in GOLDEN_PHASE])
def test_golden_start_phase_means_bit_for_bit(start, big_d, big_b, beta_t, phase_mean):
    d = derive(ModelParams.from_dimensionless(big_d, big_b))
    assert phase_expectation(GOLDEN_STARTS[start], d, beta_t / d.beta) == phase_mean


@pytest.mark.parametrize("start, angle", GOLDEN_ANGLE, ids=[row[0] for row in GOLDEN_ANGLE])
def test_golden_mean_angles_bit_for_bit(start, angle):
    assert mean_angle(GOLDEN_STARTS[start]) == angle


@settings(max_examples=6, deadline=None)
@given(_LOG_D.map(math.exp), _DAMPING, st.floats(0.0, 200.0))
def test_ground_start_against_exact_kernel(big_d, big_b, beta_t):
    # the same oracle over the domain.  The mean is ~b/x for P = [[., b], [b, .]]
    # and x = exp(-beta*t)*P[1, 1] + sqrt(det P); b sums F F^T/2's off-diagonal
    # and q_ab, two terms whose exponents carry ~beta*t*eps of rounding and
    # which cancel as D -> 1 or sin(T) -> 0
    pytest.importorskip("mpmath")
    d = derive(ModelParams.from_dimensionless(big_d, big_b))
    t = beta_t / d.beta
    kern = propagator(d, t)
    (f00, f01), (f10, f11) = kern.flow.tolist()
    (a, b), (_, e) = (kern.flow @ kern.flow.T / 2.0 + kern.cov_physical).tolist()
    x = math.exp(-beta_t) * e + math.sqrt(a * e - b * b)
    terms = (abs(f00 * f10) + abs(f01 * f11)) / 2.0 + abs(kern.cov_physical[0, 1])
    exact = ground_start_phase_exact(d, t)
    err = abs(phase_expectation(None, d, t) - exact)
    assert err <= 1e-13 * abs(exact) + 4.0 * (1.0 + beta_t) * EPS * terms / x


class TestWeylBridge:
    """A coherent state's phase-matrix expectation equals its mean Gaussian angle.

    ``c_n = exp(-|alpha|**2/2) alpha**n / sqrt(n!)`` with
    ``alpha = (y0 + i*x0)/sqrt(2)`` is ``coherent_state(x0, y0)`` in the number
    basis; at ``|alpha| <= 2.5`` its Poisson tail beyond ``n = 150`` is far below eps.
    """

    N = 150

    @classmethod
    def amplitudes(cls, x0, y0):
        alpha = complex(y0, x0) / math.sqrt(2.0)
        c = np.empty(cls.N, dtype=complex)
        c[0] = math.exp(-abs(alpha) ** 2 / 2.0)
        for n in range(1, cls.N):
            c[n] = c[n - 1] * alpha / math.sqrt(n)
        return c

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 2.5), st.floats(-math.pi, math.pi), st.floats(0.0, 2.0))
    @example(1.0, math.pi / 4.0, 1.5)  # the default tol=1e-10 misses here by 1.4e-10
    @example(2.5, -1.1693705988362006, 0.5)  # the largest gap on a corner grid, 8.4e-15
    @example(1.5, -2.75, 0.484375)  # QUADPACK flagged roundoff here at tol/6 a half-panel
    def test_phase_matrices_match_the_angle_engine(self, radius, arg, beta_t):
        # mean_angle's tol plus the contraction's rounding, <= 8.4e-15 at |alpha| = 2.5
        tol = 1e-13
        alpha = radius * complex(math.cos(arg), math.sin(arg))
        x0, y0 = math.sqrt(2.0) * alpha.imag, math.sqrt(2.0) * alpha.real
        c = self.amplitudes(x0, y0)
        start = coherent_state(x0, y0)
        canonical = (c.conj() @ canonical_phase_matrix(self.N).values @ c).real
        assert abs(canonical - mean_angle(start, tol=tol)) <= tol + 64.0 * EPS
        physical = (c.conj() @ physical_phase_matrix(self.N, beta_t).values @ c).real
        assert abs(physical - mean_angle(start.physical(1.0, beta_t), tol=tol)) <= tol + 64.0 * EPS


_BAD_TIME_CALLS = {
    "propagator": propagator,
    "evolve": lambda d, t: evolve(ground_state(), d, t),
    "survival_probability": survival_probability,
    "phase_expectation": lambda d, t: phase_expectation(None, d, t),
    "longtime_survival": longtime_survival,
    "nofriction_survival": nofriction_survival,
    "thermal_angle_expectation": lambda d, t: thermal_angle_expectation(lambda phi: 1.0, d, t),
    "energy_generating_function": lambda d, t: energy_generating_function(d, 1.0, t),
    "energy_generating_function.b_param": lambda d, t: energy_generating_function(d, t, 1.0),
    "thermal_state": thermal_state,
}


@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf, "1", 10 ** 400])
@pytest.mark.parametrize("call", list(_BAD_TIME_CALLS.values()), ids=list(_BAD_TIME_CALLS))
def test_bad_time_rejected(d_default, call, bad):
    # a NaN time passes a plain t < 0 test, and inf t gave nan or 0.0; a text
    # time raised a bare TypeError that did not name the argument, and an
    # integer past the float range a bare OverflowError
    with pytest.raises(ValueError, match="^(time t|b_param) must be"):
        call(d_default, bad)


@pytest.mark.parametrize("t", [0.0, -0.0, np.float64(0.5), np.float32(0.5), np.int64(2), np.array(0.5)])
def test_numpy_and_signed_zero_times_accepted(d_default, t):
    # every time is widened to a Python float once checked: a float32 time
    # used to set float32 arithmetic (0.9414342089 against 0.9414342046 here)
    assert survival_probability(d_default, t) == survival_probability(d_default, float(t))
    assert phase_expectation(None, d_default, t) == phase_expectation(None, d_default, float(t))
    assert longtime_survival(d_default, t) == longtime_survival(d_default, float(t))
    assert energy_generating_function(d_default, np.float64(1.0), t) > 0.0


def test_float32_parameters_computed_in_float64():
    # ModelParams stores float fields: float32 omega and beta used to give
    # 0.25594177718 at t = 3 against 0.25594178635
    narrow = ModelParams(mass=1.0, omega=np.float32(1.0), beta=np.float32(0.25), theta=2.5)
    wide = ModelParams(mass=1.0, omega=1.0, beta=0.25, theta=2.5)
    assert type(narrow.omega) is float and narrow == wide
    assert survival_probability(derive(narrow), 3.0) == survival_probability(derive(wide), 3.0)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize("call", [
    lambda d, tol: mean_angle(ground_state(), tol=tol),  # nan returned 0.0
    lambda d, tol: phase_expectation(None, d, 1.0, tol=tol),  # -1 returned -0.194
    lambda d, tol: mean_angle(coherent_state(1.0, 0.5), tol=tol),
    lambda d, tol: phase_expectation(coherent_state(1.0, 0.5), d, 1.0, tol=tol),
], ids=["centred-mean_angle", "centred-phase_expectation", "displaced-mean_angle",
        "displaced-phase_expectation"])
def test_angle_tol_checked_on_every_path(call, tol):
    # the closed-form centred path used to ignore tol; the displaced one checked it
    with pytest.raises(ValueError, match="^tol must be finite and > 0"):
        call(derive(ModelParams.from_dimensionless(5.0, 0.25)), tol)


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
