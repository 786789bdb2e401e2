import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import time_generator
from wigosc import (ModelParams, NonPositiveParameter, OverdampedUnsupported,
                    PhasePoint, classical_flow, derive)


class TestDerive:
    def test_frictionless_limit(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.0, theta=0.0, mu=0.3))
        assert d.omega_damped == 1.0
        assert d.eps == 1.0
        assert d.noise_number == d.noise_number_free == 0.3

    def test_standard_dimensionless_groups(self):
        # omega=1, beta=0.05, theta = 2.5*hbar*omega gives D=5, B=0.05
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.05, theta=2.5))
        assert d.temperature_number == pytest.approx(5.0, abs=0)
        assert d.damping_ratio == pytest.approx(0.05, abs=0)

    def test_reduced_frequency_value(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.1))
        assert d.omega_damped == pytest.approx(0.99874921777190895, rel=1e-15)

    def test_omega_squared_identity_to_machine_precision(self):
        for beta in (0.0, 0.3, 1.2, 1.9):
            d = derive(ModelParams(mass=2.0, omega=1.0, beta=beta))
            assert d.omega_damped ** 2 + beta ** 2 / 4.0 == pytest.approx(1.0, rel=1e-15)

    def test_thermal_noise_strength(self):
        p = ModelParams(mass=2.0, omega=3.0, beta=0.5, theta=1.7)
        assert p.noise_strength == 2.0 * 2.0 * 0.5 * 1.7
        q = ModelParams(mass=2.0, omega=3.0, beta=0.5, theta=1.7, mu=0.1)
        assert q.noise_strength == 0.1

    def test_physical_units_convert_consistently(self):
        # same dimensionless groups from very different unit systems
        a = derive(ModelParams(mass=1.0, omega=1.0, beta=0.05, theta=2.5))
        b = derive(ModelParams(mass=3.7e-2, omega=8.0e3, beta=4.0e2,
                               theta=2.5 * 13.0 * 8.0e3, hbar=13.0))
        for attr in ("temperature_number", "damping_ratio", "noise_number", "eps"):
            assert getattr(a, attr) == pytest.approx(getattr(b, attr), rel=1e-12)

    def test_overdamped_rejected(self):
        with pytest.raises(OverdampedUnsupported):
            derive(ModelParams(mass=1.0, omega=1.0, beta=2.0))
        with pytest.raises(OverdampedUnsupported):
            derive(ModelParams(mass=1.0, omega=1.0, beta=2.5))
        derive(ModelParams(mass=1.0, omega=1.0, beta=1.999999))  # still underdamped

    def test_bad_parameters_rejected(self):
        with pytest.raises(NonPositiveParameter):
            ModelParams(mass=0.0, omega=1.0)
        with pytest.raises(NonPositiveParameter):
            ModelParams(mass=1.0, omega=-2.0)
        with pytest.raises(NonPositiveParameter):
            ModelParams(mass=1.0, omega=1.0, beta=-0.1)
        with pytest.raises(NonPositiveParameter):
            ModelParams(mass=1.0, omega=1.0, mu=-1.0)
        with pytest.raises(NonPositiveParameter):
            ModelParams(mass=math.nan, omega=1.0)
        # text raised a bare TypeError from math.isfinite, and
        # from_dimensionless parsed it through float()
        with pytest.raises(NonPositiveParameter, match="^mass must be a real number"):
            ModelParams("1", 1.0)
        with pytest.raises(NonPositiveParameter, match="^temperature_number must be a real number"):
            ModelParams.from_dimensionless("5", "0.1")
        with pytest.raises(NonPositiveParameter, match="^beta must be a real number"):
            ModelParams.from_dimensionless(5.0, "0.1")
        with pytest.raises(NonPositiveParameter, match="^mu must be finite and >= 0"):
            ModelParams.from_dimensionless(0.0, 0.0, -0.25)


class TestClassicalFlow:
    def test_zero_lag_is_identity(self, d_default):
        np.testing.assert_array_equal(classical_flow(d_default, 0.0), np.eye(2))

    def test_read_only(self, d_default):
        flow = classical_flow(d_default, 1.0)
        with pytest.raises(ValueError):
            flow[0, 0] = 1.0

    def test_quarter_period_rotation_at_zero_friction(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, mu=0.0))
        flow = classical_flow(d, math.pi / 2.0)
        np.testing.assert_allclose(flow, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)
        X, y = flow @ (0.3, -0.7)
        assert (X, y) == pytest.approx((0.7, 0.3), abs=1e-15)

    def test_determinant_contracts_at_friction_rate(self, d_default):
        beta = d_default.beta
        for tau in np.linspace(0.0, 20.0 / beta, 37):
            flow = classical_flow(d_default, tau)
            canonical = np.diag([math.exp(beta * tau), 1.0]) @ flow
            assert np.linalg.det(flow) == pytest.approx(math.exp(-beta * tau), rel=1e-12)
            assert np.linalg.det(canonical) == pytest.approx(1.0, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(t1=st.floats(0.0, 30.0), t2=st.floats(0.0, 30.0))
    def test_flow_composition(self, t1, t2):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.08))
        m1 = classical_flow(d, t1)
        m2 = classical_flow(d, t2)
        m12 = classical_flow(d, t1 + t2)
        np.testing.assert_allclose(m2 @ m1, m12, rtol=1e-12, atol=1e-12)

    def test_negative_lag_rejected(self, d_default):
        with pytest.raises(ValueError):
            classical_flow(d_default, -0.1)

    def test_matches_direct_ode_integration(self):
        # RK4 on qddot = -beta*qdot - omega^2*q against the closed-form flow
        beta, omega = 0.12, 1.0
        d = derive(ModelParams(mass=1.0, omega=omega, beta=beta))
        q, v = 0.8, -0.4
        dt = 1e-3
        n = int(50.0 / dt)

        def rhs(state):
            qq, vv = state
            return np.array([vv, -beta * vv - omega * omega * qq])

        state = np.array([q, v])
        for _ in range(n):
            k1 = rhs(state)
            k2 = rhs(state + dt / 2 * k1)
            k3 = rhs(state + dt / 2 * k2)
            k4 = rhs(state + dt * k3)
            state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        X, y = classical_flow(d, n * dt) @ (v, q)  # m = alpha = 1: X = qdot, y = q
        assert state[0] == pytest.approx(y, abs=1e-8)
        assert state[1] == pytest.approx(X, abs=1e-8)


class TestTimeGenerator:
    def test_frictionless_coefficients(self):
        d = derive(ModelParams(mass=2.0, omega=3.0))
        gen = time_generator(d, t=5.0)
        assert gen.p_squared == pytest.approx(1.0 / 4.0)
        assert gen.q_squared == pytest.approx(2.0 * 9.0 / 2.0)
        assert gen.q_linear == 0.0

    def test_exponential_factors_at_zero_time(self):
        d = derive(ModelParams(mass=2.0, omega=3.0, beta=0.4))
        gen = time_generator(d, t=0.0, force=1.3)
        assert gen.p_squared == 1.0 / 4.0
        assert gen.q_squared == 9.0
        assert gen.q_linear == -1.3

    def test_momentum_coefficient_decays(self):
        d = derive(ModelParams(mass=1.5, omega=1.0, beta=0.3))
        for t in (0.7, 2.0):
            gen = time_generator(d, t)
            assert gen.p_squared == pytest.approx(math.exp(-0.3 * t) / 3.0, rel=1e-14)

    def test_hamilton_equations_reproduce_flow(self):
        # integrating the time-dependent generator must land on the exact flow
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.2))
        p, q = 0.5, -1.1  # canonical start (= physical at t=0)
        dt = 5e-4
        n = int(8.0 / dt)
        state = np.array([p, q])

        def rhs(state, t):
            gen = time_generator(d, t)
            dp, dq = gen.hamilton_rhs(state[0], state[1])
            return np.array([dp, dq])

        for i in range(n):
            t = i * dt
            k1 = rhs(state, t)
            k2 = rhs(state + dt / 2 * k1, t + dt / 2)
            k3 = rhs(state + dt / 2 * k2, t + dt / 2)
            k4 = rhs(state + dt * k3, t + dt)
            state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        # alpha = 1 here, so (x, y) = (p, q); the canonical flow from 0 is the
        # physical one with its x row scaled by exp(beta*t)
        t = n * dt
        expected = np.diag([math.exp(d.beta * t), 1.0]) @ classical_flow(d, t) @ (p, q)
        np.testing.assert_allclose(state, expected, atol=1e-8)


class TestPhasePoint:
    def test_angle_branch(self):
        assert PhasePoint(1.0, 0.0).angle == 0.0
        assert PhasePoint(0.0, 1.0).angle == pytest.approx(math.pi / 2)
        assert PhasePoint(-1.0, 0.0).angle == -math.pi  # branch [-pi, pi)
        assert PhasePoint(1.0, -1.0).angle == pytest.approx(-math.pi / 4)
        assert PhasePoint(3.0, 4.0).radius == pytest.approx(5.0)

    @pytest.mark.parametrize("x, y, message", [
        ("1", 0.0, "^x must be a real number"),  # used to be stored as text
        (0.0, math.nan, "^y must be finite"),
        (-math.inf, 0.0, "^x must be finite"),
    ])
    def test_bad_coordinates_rejected(self, x, y, message):
        with pytest.raises(ValueError, match=message):
            PhasePoint(x, y)

    def test_coordinates_stored_as_floats(self):
        point = PhasePoint(np.float32(0.5), -2)
        assert (point.x, point.y) == (0.5, -2.0) and type(point.y) is float
