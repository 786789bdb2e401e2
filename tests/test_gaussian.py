import ast
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from oracles import damped_trig_exact, evolve_linalg, noise_form_exact, overlap_linalg
import wigosc
from wigosc import (Gaussian2D, ModelParams, RequiresFriction, classical_flow, coherent_state,
                    derive, evolve, ground_state, noise_form, noise_form_longtime, propagator,
                    state_overlap, thermal_state)
from wigosc.gaussian import _damped_sin2_integral, _det, _inverse, _min_eig, _push

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)

# symmetric PSD 2x2 matrices [[a, b], [b, d]], b = rho*sqrt(a*d), with diagonal
# entries from 1e-150 to 1e150 and |rho| up to exactly 1 (singular)
_MAGNITUDE = st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e)
_CORRELATION = st.one_of(st.floats(-1.0, 1.0),
                         st.sampled_from([-1.0, 1.0, 1.0 - 1e-9, -(1.0 - 1e-13), 0.0]))


def _psd(a, d, rho):
    b = rho * math.sqrt(a) * math.sqrt(d)
    return np.array([[a, b], [b, d]])


def _exact_det(m):
    """Exact determinant of the float matrix ``m``, and the size ``|a*d| + b**2`` of its terms."""
    a, b, d = (Fraction(float(v)) for v in (m[0, 0], m[0, 1], m[1, 1]))
    return a * d - b * b, abs(a * d) + b * b


def _switch_edges(c):
    """The lags just below and just above the switch ``(c + 2)*T = 2`` of the integrals."""
    below = above = 2.0 / (c + 2.0)
    while (c + 2.0) * below >= 2.0:
        below = math.nextafter(below, 0.0)
    while (c + 2.0) * above < 2.0:
        above = math.nextafter(above, math.inf)
    return below, above


def quad_noise_matrix(d, t):
    """Adaptive-quadrature oracle for the accumulated-noise form."""
    od = d.omega_damped
    c = d.beta / od
    g = c / 2.0
    T = od * t
    n = d.noise_number
    fss = lambda th: math.exp(-c * th) * math.sin(th) ** 2
    fsc = lambda th: math.exp(-c * th) * math.sin(th) * (math.cos(th) - g * math.sin(th))
    fcc = lambda th: math.exp(-c * th) * (math.cos(th) - g * math.sin(th)) ** 2
    kw = dict(epsabs=1e-13, epsrel=1e-13, limit=500)
    q_aa = n * quad(fss, 0, T, **kw)[0]
    q_ab = n * quad(fsc, 0, T, **kw)[0]
    q_bb = n * quad(fcc, 0, T, **kw)[0]
    return np.array([[q_aa, q_ab], [q_ab, q_bb]])


def _linalg_uses(tree):
    """``(function, line)`` of every ``np.linalg``/``numpy.linalg`` use in ``tree``.

    ``function`` is the name of the innermost enclosing ``def``, or ``None``
    at module level; a ``from numpy.linalg import ...`` or
    ``from numpy import linalg`` counts as a use.
    """
    uses = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            uses.append((owner, node.lineno))
        if isinstance(node, ast.ImportFrom) and (
                node.module == "numpy.linalg"
                or node.module == "numpy" and any(a.name == "linalg" for a in node.names)):
            uses.append((owner, node.lineno))
        if isinstance(node, ast.Import) and any(a.name == "numpy.linalg" for a in node.names):
            uses.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return uses


def _calls_to(tree, name):
    """Lines of every call to ``name``, as a bare name or an attribute, in ``tree``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)]


def test_only_gaussian_calls_the_propagator():
    # every observable reads the physical-frame state through gaussian._push
    callers = {path.stem for path in Path(wigosc.__file__).parent.glob("*.py")
               if _calls_to(ast.parse(path.read_text()), "propagator")}
    assert callers == {"gaussian"}


def _environment_reads(tree):
    """Lines of every ``os.environ``/``os.getenv`` use or import in ``tree``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                a.name in ("environ", "environb", "getenv") for a in node.names):
            lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment():
    # the package's only settings are its arguments
    reads = {path.name: lines for path in Path(wigosc.__file__).parent.glob("*.py")
             if (lines := _environment_reads(ast.parse(path.read_text())))}
    assert reads == {}
    probe = "import os\nos.environ.get('X')\nos.getenv('Y')\nfrom os import environ"
    assert sorted(_environment_reads(ast.parse(probe))) == [2, 3, 4]


def test_langevin_imports_no_thread_pool():
    # the ensemble runs on the calling thread: no worker pool, no CPU count
    tree = ast.parse(Path(wigosc.langevin.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not imported & {"os", "concurrent.futures"}


def _argument_checks(tree):
    """Lines of every ``operator.index`` call and ``_check_*`` definition in ``tree``."""
    return _calls_to(tree, "index") + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_check")]


def test_scalar_argument_checks_live_in_errors_only():
    # one contract for integer and real arguments: errors._check_int and
    # errors._check_real; no module keeps a validator of its own
    found = {path.name: lines for path in Path(wigosc.__file__).parent.glob("*.py")
             if (lines := _argument_checks(ast.parse(path.read_text())))}
    assert set(found) == {"errors.py"}
    probe = "import operator\noperator.index(3)\ndef _check_tol(tol):\n    pass"
    assert sorted(_argument_checks(ast.parse(probe))) == [2, 3]


class TestClosedForms:
    """The closed-form 2x2 algebra against exact rational arithmetic and ``np.linalg``."""

    def test_linalg_only_where_closed_forms_do_not_reach(self):
        # 2x2 algebra stays in closed form, the Monte-Carlo start's root too;
        # np.linalg is left to the phase-operator spectrum
        allowed = {("phaseops", "spectrum")}
        found = set()
        for path in sorted(Path(wigosc.__file__).parent.glob("*.py")):
            for owner, line in _linalg_uses(ast.parse(path.read_text())):
                assert (path.stem, owner) in allowed, f"np.linalg in {path.name}:{line}"
                found.add((path.stem, owner))
        assert found == allowed

    @settings(max_examples=300, deadline=None)
    @given(_MAGNITUDE, _MAGNITUDE, _CORRELATION)
    def test_det_matches_exact_and_linalg(self, a, d, rho):
        m = _psd(a, d, rho)
        exact, size = _exact_det(m)
        det = _det(m)
        # backward stable: the error is a few eps * (|a*d| + b**2)
        assert float(abs(Fraction(det) - exact)) <= 2.0 * EPS * float(size)
        # np.linalg.det returns exp(log|det|): its error also grows with |log det|
        ref = float(np.linalg.det(m))
        log_det = abs(math.log(det)) if det > 0.0 else 0.0
        assert abs(det - ref) <= 64.0 * EPS * (float(size) + log_det * max(abs(ref), abs(det)))

    @settings(max_examples=300, deadline=None)
    @given(_MAGNITUDE, st.floats(-6.0, 6.0), _CORRELATION)
    def test_inverse_matches_exact_and_linalg(self, a, log_ratio, rho):
        m = _psd(a, a * 10.0 ** log_ratio, rho)
        exact, size = _exact_det(m)
        assume(exact > 0 and size < 1e12 * exact)
        ours = _inverse(m, _det(m))
        adjugate = (m[1, 1], -m[0, 1], m[0, 0])
        for got, adj in zip(ours, adjugate):
            want = Fraction(float(adj)) / exact
            # each entry inherits the determinant's relative error, eps * size / det,
            # down to the subnormal range
            err = float(abs(Fraction(got) - want))
            assert err <= 2.0 * EPS * float(size / exact) * float(abs(want)) + TINY
        # generic inversion is only normwise accurate, to eps * condition number
        ref = np.linalg.inv(m)
        kappa = float(Fraction(float(np.trace(m))) ** 2 / exact)
        diff = np.array([[ours[0], ours[1]], [ours[1], ours[2]]]) - ref
        assert np.max(np.abs(diff)) <= 16.0 * EPS * kappa * np.max(np.abs(ref))

    @settings(max_examples=300, deadline=None)
    @given(_MAGNITUDE, _MAGNITUDE, _CORRELATION, st.booleans())
    def test_min_eig_matches_linalg(self, a, d, rho, negate):
        m = _psd(a, d, rho)
        if negate:  # an indefinite matrix with the same entries' magnitudes
            m[1, 1] = -m[1, 1]
        err = abs(_min_eig(m) - float(np.linalg.eigvalsh(m)[0]))
        assert err <= 8.0 * EPS * float(np.max(np.abs(m)))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.7e308), st.floats(0.0, 1.7e308), _CORRELATION)
    def test_det_never_nan_for_psd_input(self, a, d, rho):
        assert not math.isnan(_det(_psd(a, d, rho)))

    def test_det_overflows_only_with_the_determinant(self):
        # a*d and b*b are both ~1e310, so a*d - b*b is inf - inf; det is ~2e301
        m = _psd(1e300, 1e10, 1.0 - 1e-9)
        exact, _ = _exact_det(m)
        assert _det(m) == pytest.approx(float(exact), rel=1e-6)
        assert _det(np.array([[1e200, 0.0], [0.0, 1e200]])) == math.inf

    @settings(max_examples=300, deadline=None)
    @given(_MAGNITUDE, _MAGNITUDE, st.floats(-1.001, 1.001))
    def test_psd_check_matches_eigvalsh(self, a, d, rho):
        m = _psd(a, d, rho)
        scale = max(1.0, float(np.max(np.abs(m))))
        min_eig = float(np.linalg.eigvalsh(m)[0]) / scale
        assume(abs(min_eig + 1e-12) > 1e-14)  # clear of the acceptance edge
        if min_eig < -1e-12:
            with pytest.raises(ValueError, match="positive semidefinite"):
                Gaussian2D(np.zeros(2), m)
        else:
            Gaussian2D(np.zeros(2), m)


class TestNoiseForm:
    def test_zero_time_vanishes(self, d_default):
        np.testing.assert_array_equal(noise_form(d_default, 0.0), np.zeros((2, 2)))

    def test_longtime_diagonal_limit(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.1, theta=0.5))
        q_inf = noise_form_longtime(d)
        od, n, b, w = d.omega_damped, d.noise_number, d.beta, d.omega
        assert q_inf[0, 0] == pytest.approx(n * od ** 3 / (2 * w * w * b), rel=1e-14)
        assert q_inf[1, 1] == pytest.approx(n * od / (2 * b), rel=1e-14)
        late = noise_form(d, 400.0)
        np.testing.assert_allclose(late, q_inf, rtol=0, atol=1e-12 * q_inf[0, 0])

    def test_closed_form_against_quadrature(self):
        # generic parameters: closed antiderivatives vs adaptive quadrature
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.1, mu=1.0))
        for t in (0.4, 3.0, 11.7):
            np.testing.assert_allclose(noise_form(d, t),
                                       quad_noise_matrix(d, t), rtol=0, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 200.0), st.floats(-8.0, 0.0))
    def test_short_lags_against_mpmath(self, c, log_frac):
        # below (c + 2)*T = 0.1 the closed form cancels to ~eps/T**2 relative
        mpmath = pytest.importorskip("mpmath")
        T = 10.0 ** log_frac * 0.1 / (c + 2.0)
        assume((c + 2.0) * T < 0.1)
        with mpmath.workdps(40):
            exact = mpmath.quad(lambda u: mpmath.exp(-c * u) * mpmath.sin(u) ** 2, [0, T])
        assert abs(_damped_sin2_integral(c, T) - exact) <= 8.0 * EPS * exact

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.just(0.0), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)),
           st.floats(-8.0, 3.0).map(lambda e: 10.0 ** e))
    @example(0.0, _switch_edges(0.0)[0])
    @example(0.0, _switch_edges(0.0)[1])
    @example(6.1, _switch_edges(6.1)[0])
    @example(6.1, _switch_edges(6.1)[1])
    @example(200.0, _switch_edges(200.0)[0])
    @example(200.0, _switch_edges(200.0)[1])
    @example(1000.0, _switch_edges(1000.0)[0])
    @example(1000.0, _switch_edges(1000.0)[1])
    @example(0.0, 1e5)
    @example(0.05, 1e5)
    def test_integrals_against_60_digits_over_the_domain(self, c, lag):
        # one closed form for every c, the Gauss rule below (c + 2)*T = 2
        exact_ss = damped_trig_exact(c, lag)[0]
        assert abs(_damped_sin2_integral(c, lag) - exact_ss) <= 8.0 * EPS * exact_ss

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.just(0.0), st.floats(0.01, 1.9999)),
           st.floats(-8.0, 2.0).map(lambda e: 10.0 ** e))
    @example(1.9999, 0.0099)  # c ~ 200, just below the switch
    @example(1.99, 0.0912)  # c ~ 20, just below the switch
    @example(1.9, 5.423287735451241)  # GOLDEN bt33: c*T = 33
    @example(0.8, 137.4772708486752)  # GOLDEN bt120: c*T = 120
    def test_noise_form_against_40_digit_quadrature(self, big_b, lag):
        d = derive(ModelParams.from_dimensionless(5.0, big_b, 0.5))
        c = d.beta / d.omega_damped
        (q_aa, q_ab), (_, q_bb) = noise_form(d, lag / d.omega_damped).tolist()
        exact_aa, exact_ab, exact_bb = noise_form_exact(d, lag / d.omega_damped)
        assert abs(q_aa - exact_aa) <= 8.0 * EPS * exact_aa
        assert abs(q_bb - exact_bb) <= 4.0 * EPS * exact_bb
        assert abs(q_ab - exact_ab) <= 8.0 * EPS * math.sqrt(exact_aa * exact_bb)
        # q_ab = n*exp(-c*T)*sin(T)**2/2 inherits the rounding of c*T in its
        # exponent; below 1e-300 it may be subnormal, hence the floor
        floor = 1e-300 if q_ab < 1e-300 else 0.0
        assert abs(q_ab - exact_ab) <= 4.0 * (1.0 + c * lag) * EPS * exact_ab + floor

    @pytest.mark.parametrize("c, lag", [(0.0, 0.3), (1.0, 2.0), (200.0, 0.05), (6.1, 17.0)])
    def test_exact_integrals_match_quadrature(self, c, lag):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            edges = mpmath.linspace(0, lag, 8)
            trigs = (lambda u: mpmath.sin(u) ** 2, lambda u: mpmath.sin(u) * mpmath.cos(u),
                     lambda u: mpmath.cos(u) ** 2)
            quads = [float(mpmath.quad(lambda u: mpmath.exp(-c * u) * f(u), edges))
                     for f in trigs]
        assert quads == pytest.approx(damped_trig_exact(c, lag), rel=EPS, abs=0.0)

    def test_frictionless_branch_against_quadrature(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=0.5))
        for t in (0.9, 6.0):
            np.testing.assert_allclose(noise_form(d, t),
                                       quad_noise_matrix(d, t), rtol=0, atol=1e-10)

    def test_positive_semidefinite_along_time(self, d_default):
        for t in np.linspace(0.0, 120.0, 1000):
            evals = np.linalg.eigvalsh(noise_form(d_default, t))
            assert evals[0] >= -1e-15

    def test_longtime_requires_friction(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=1.0))
        with pytest.raises(RequiresFriction):
            noise_form_longtime(d)

    def test_read_only(self, d_default):
        for q in (noise_form(d_default, 2.0), noise_form_longtime(d_default)):
            with pytest.raises(ValueError):
                q[0, 0] = 1.0


class TestPropagator:
    def test_zero_time_is_delta(self, d_default):
        kern = propagator(d_default, 0.0)
        np.testing.assert_array_equal(kern.cov_physical, np.zeros((2, 2)))
        np.testing.assert_array_equal(kern.flow, np.eye(2))

    def test_thermal_limit_of_covariance(self, d_default):
        # at beta*t = 10 the canonical covariance is thermal up to O(e^{-beta t})
        t = 10.0 / d_default.beta
        half_d = d_default.temperature_number / 2.0
        target = np.diag([half_d * math.exp(2.0 * d_default.beta * t), half_d])
        s = np.diag([math.exp(d_default.beta * t), 1.0])
        cov = s @ propagator(d_default, t).cov_physical @ s
        rel = np.abs(cov - target) / target[0, 0]
        assert np.max(rel) < 5.0 * math.exp(-d_default.beta * t)

    def test_physical_covariance_solves_lyapunov_equation(self):
        # independent check: RK4 on dC/dt = A C + C A^T + noise injection
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.1, mu=1.0))
        a = np.array([[-d.beta, -d.omega], [d.omega, 0.0]])
        inject = np.array([[d.params.noise_strength / d.omega, 0.0], [0.0, 0.0]])
        t, n = 7.0, 20000
        dt = t / n
        cov = np.zeros((2, 2))
        rhs = lambda c: a @ c + c @ a.T + inject
        for _ in range(n):
            k1 = rhs(cov)
            k2 = rhs(cov + dt / 2 * k1)
            k3 = rhs(cov + dt / 2 * k2)
            k4 = rhs(cov + dt * k3)
            cov = cov + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        np.testing.assert_allclose(propagator(d, t).cov_physical, cov, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 60.0), st.floats(0.0, 60.0), st.floats(0.0, math.log(1e7)),
           st.floats(0.01, 1.9))
    def test_chapman_kolmogorov_physical_frame(self, t1, t2, log_d, big_b):
        # the physical kernel is time-homogeneous: C(t1+t2) = F(t2) C(t1) F(t2)^T + C(t2)
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        c1 = propagator(d, t1).cov_physical
        k2 = propagator(d, t2)
        c12 = propagator(d, t1 + t2).cov_physical
        # below TINY (t ~ 1e-311 makes the entries subnormal) no relative
        # precision exists
        np.testing.assert_allclose(k2.flow @ c1 @ k2.flow.T + k2.cov_physical, c12, rtol=1e-13,
                                   atol=1e-13 * float(np.max(np.abs(c12))) + TINY)

    def test_finite_far_past_exp_overflow(self, d_default):
        # exp(beta*t) overflows from beta*t ~ 709.8; the kernel never forms it
        kern = propagator(d_default, 1000.0 / d_default.beta)
        assert np.all(np.isfinite(kern.flow)) and np.all(np.isfinite(kern.cov_physical))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1e3), st.floats(0.0, math.log(1e7)),
           st.one_of(st.just(0.0), st.floats(0.01, 1.99)))
    def test_scalar_cores_match_the_array_forms_bitwise(self, beta_t, log_d, big_b):
        # propagator builds from the same float entries as classical_flow and noise_form
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta if d.beta > 0.0 else beta_t
        od = d.omega_damped
        g = d.beta / (2.0 * od)
        c, s = math.cos(od * t), math.sin(od * t)
        flow = math.exp(-d.beta * t / 2.0) * np.array([[c - g * s, -(d.omega / od) * s],
                                                       [(d.omega / od) * s, c + g * s]])
        (q_aa, q_ab), (_, q_bb) = noise_form(d, t).tolist()
        e2 = d.eps ** 2
        kern = propagator(d, t)
        np.testing.assert_array_equal(classical_flow(d, t), flow)
        np.testing.assert_array_equal(kern.flow, flow)
        np.testing.assert_array_equal(kern.cov_physical,
                                      np.array([[e2 * q_bb, q_ab], [q_ab, q_aa / e2]]))
        assert not kern.flow.flags.writeable

    def test_small_friction_continuity(self):
        eps = derive(ModelParams(mass=1.0, omega=1.0, beta=1e-8, mu=0.4))
        free = derive(ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=0.4))
        for t in (0.7, 3.0, 12.0):
            ka, kb = propagator(eps, t), propagator(free, t)
            s = np.diag([math.exp(eps.beta * t), 1.0])
            np.testing.assert_allclose(s @ ka.cov_physical @ s, kb.cov_physical, atol=1e-5)
            np.testing.assert_allclose(ka.flow, kb.flow, atol=1e-5)


class TestEvolve:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.0, 300.0), st.floats(0.0, math.log(1e7)), st.floats(0.01, 1.9),
           st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_matches_linalg_oracle(self, beta_t, log_d, big_b, x0, y0):
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta
        state = coherent_state(x0, y0)
        out = evolve(state, d, t)
        mean, cov = evolve_linalg(state, d, t)
        np.testing.assert_allclose(out.mean, mean, rtol=1e-14,
                                   atol=1e-14 * float(np.max(np.abs(mean))))
        np.testing.assert_allclose(out.cov, cov, rtol=1e-14,
                                   atol=1e-14 * float(np.max(np.abs(cov))))

    def test_identity_at_zero_time(self, d_default):
        g = ground_state()
        out = evolve(g, d_default, 0.0)
        np.testing.assert_array_equal(out.mean, g.mean)
        np.testing.assert_array_equal(out.cov, g.cov)

    def test_noiseless_frictionless_ground_state_is_stationary(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=0.0))
        for t in (0.9, 4.0, 20.0):
            out = evolve(ground_state(), d, t)
            np.testing.assert_allclose(out.cov, 0.5 * np.eye(2), atol=1e-14)
            np.testing.assert_allclose(out.mean, 0.0, atol=1e-15)

    def test_two_leg_evolution_equals_one_leg(self, d_default):
        # evolve(evolve(rho, t1), t1 -> t2) == evolve(rho, t2), handing over in
        # the physical frame, where the dynamics does not depend on the start
        beta = d_default.beta
        state = Gaussian2D(np.array([0.7, -0.2]), np.array([[0.9, 0.2], [0.2, 0.6]]))
        for t1, t2 in ((1.0, 3.0), (0.5, 8.0), (4.0, 4.5)):
            mid = evolve(state, d_default, t1).physical(beta, t1)
            leg = evolve(mid, d_default, t2 - t1)
            back = np.diag([math.exp(beta * t1), 1.0])
            two = Gaussian2D(back @ leg.mean, back @ leg.cov @ back)
            one = evolve(state, d_default, t2)
            np.testing.assert_allclose(two.mean, one.mean, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(two.cov, one.cov, rtol=1e-8, atol=1e-12)

    def test_ground_state_thermalises(self, d_default):
        # physical view settles onto Maxwell-Boltzmann marginals
        t = 14.0 / d_default.beta
        out = evolve(ground_state(), d_default, t)
        phys = out.physical(d_default.beta, t)
        half_d = d_default.temperature_number / 2.0
        assert phys.cov[0, 0] == pytest.approx(half_d, rel=1e-5)
        assert phys.cov[1, 1] == pytest.approx(half_d, rel=1e-5)
        assert abs(phys.cov[0, 1]) < 1e-5 * half_d
        target = thermal_state(d_default, t)
        assert out.cov[1, 1] == pytest.approx(target.cov[1, 1], rel=1e-5)
        assert out.cov[0, 0] == pytest.approx(target.cov[0, 0], rel=1e-5)


@pytest.mark.parametrize("beta_t", [400.0, 745.0, 1000.0])
@pytest.mark.parametrize("make", [lambda d, t: evolve(ground_state(), d, t), thermal_state],
                         ids=["evolve", "thermal_state"])
def test_canonical_overflow_names_the_frame(d_default, make, beta_t):
    # no float holds the canonical x variance ~D*exp(2*beta*t) here
    with pytest.raises(ValueError, match=r"canonical-frame .* beta\*t = .*cov_physical"):
        make(d_default, beta_t / d_default.beta)


def test_canonical_overflow_raises_without_a_warning():
    # the canonical products overflowed inside numpy's matmul, which warned
    # before the finiteness check raised
    d = derive(ModelParams.from_dimensionless(1483.0, 1.9999999))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="canonical-frame"):
            evolve(ground_state(), d, 702.0 / d.beta)


# a random Gaussian start: mean in [-3, 3]**2, variances 1e-3..1e3, any correlation
_START = st.builds(lambda m0, m1, a, d, rho: Gaussian2D(np.array([m0, m1]), _psd(a, d, rho)),
                   st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                   st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                   st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e), _CORRELATION)


class TestFrameMap:
    """``evolve`` is ``_push``'s physical moments with the x entry, row and column stretched."""

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, 330.0), st.floats(0.0, math.log(1e7)), st.floats(0.01, 1.9), _START)
    def test_physical_view_of_evolve_is_the_push(self, beta_t, log_d, big_b, start):
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta
        flow, ((a, b), (c, e)) = (arr.tolist() for arr in _push(np.eye(2), start.cov, d, t))
        m0, m1 = (float(Fraction(f) * Fraction(start.mean[0]) + Fraction(g) * Fraction(start.mean[1]))
                  for f, g in flow)
        view = evolve(start, d, t).physical(d.beta, t)
        # each entry comes back to a few ulps of its scale, the mean to a few of
        # the exact F m0 (evolve rounds the stretched mean once, where _push's
        # F @ m0 may lose a cancelling sum's digits), a subnormal one to a few
        # units of the least subnormal
        ulps = lambda got, want, scale: abs(got - want) <= 8.0 * EPS * scale + 4.0 * math.ulp(0.0)
        assert view.cov[1, 1] == e
        assert ulps(view.mean[0], m0, abs(m0)) and ulps(view.mean[1], m1, abs(m1))
        assert ulps(view.cov[0, 0], a, a)
        for off in (view.cov[0, 1], view.cov[1, 0]):
            assert ulps(off, (b + c) / 2.0, max(abs(b), abs(c)))

    @pytest.mark.xfail(strict=True, reason="F C0 F^T underflows before the stretch takes it "
                       "back; ROADMAP item 6")
    @pytest.mark.parametrize("beta_t", [30.0, 60.0])
    def test_tiny_noiseless_start_keeps_its_canonical_covariance(self, beta_t):
        # a start near the float floor, no noise: at beta*t = 60 the canonical x
        # variance is ~1.2e-274, but the physical one it is stretched from is below 5e-324
        d = derive(ModelParams.from_dimensionless(5.0, 0.5, noise_number_free=0.0))
        start = Gaussian2D(np.zeros(2), np.diag([1e-300, 1e-300]))
        _, cov = evolve_linalg(start, d, beta_t / d.beta)
        np.testing.assert_allclose(evolve(start, d, beta_t / d.beta).cov, cov, rtol=1e-13, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(360.0, 2000.0), st.floats(0.0, math.log(1e7)), st.floats(0.01, 1.9), _START)
    def test_overflow_is_a_plain_value_error_without_a_warning(self, beta_t, log_d, big_b, start):
        # past beta*t = 360 the canonical x variance, about (D/2)*exp(2*beta*t), has no float
        d = derive(ModelParams.from_dimensionless(math.exp(log_d), big_b))
        t = beta_t / d.beta
        for make in (lambda: evolve(start, d, t), lambda: thermal_state(d, t)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="canonical-frame") as info:
                    make()
            assert type(info.value) is ValueError


class TestThermalState:
    def test_marginal_variances(self, d_default):
        t = 3.0
        th = thermal_state(d_default, t)
        half_d = d_default.temperature_number / 2.0
        phys = th.physical(d_default.beta, t)
        assert phys.cov[0, 0] == pytest.approx(half_d, rel=1e-15)
        assert phys.cov[1, 1] == pytest.approx(half_d, rel=1e-15)

    def test_unit_mass_by_quadrature(self, d_default):
        th = thermal_state(d_default, 2.0)
        sx, sy = np.sqrt(np.diag(th.cov))
        val, _ = dblquad(lambda v, u: float(th.density(u * sx, v * sy)) * sx * sy,
                         -9, 9, -9, 9, epsabs=1e-11, epsrel=1e-11)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_zero_temperature_collapses(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.1, theta=0.0))
        np.testing.assert_array_equal(thermal_state(d, 5.0).cov, np.zeros((2, 2)))

    def test_requires_friction(self):
        d = derive(ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=1.0))
        with pytest.raises(RequiresFriction):
            thermal_state(d, 10.0)

    def test_representable_just_short_of_overflow(self, d_default):
        cov = thermal_state(d_default, 354.1 / d_default.beta).cov
        assert 1e307 < cov[0, 0] < math.inf


class TestGaussian2D:
    def test_mass_and_analytic_integral_agree(self):
        state = Gaussian2D(np.array([0.3, 0.7]), np.array([[2.0, 0.4], [0.4, 1.0]]))
        # closed Gaussian integral: amplitude * 2*pi*sqrt(det)
        amp = float(state.density(*state.mean))
        integral = amp * 2.0 * math.pi * math.sqrt(float(np.linalg.det(state.cov)))
        assert integral == pytest.approx(1.0, rel=1e-12)

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            Gaussian2D(np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            Gaussian2D(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("x0, y0, message", [
        ("1", 2, "^x0 must be a real number"),  # used to be parsed into a state
        (0.0, math.nan, "^y0 must be finite"),
    ])
    def test_coherent_state_rejects_bad_centre(self, x0, y0, message):
        with pytest.raises(ValueError, match=message):
            coherent_state(x0, y0)

    @pytest.mark.parametrize("mean, cov, message", [
        # text used to be parsed into a state
        (["1", "2"], [["1", "0"], ["0", "1"]], "^mean must hold real numbers"),
        ([1.0, 2.0], [["1", "0"], ["0", "1"]], "^cov must hold real numbers"),
        ([1.0, "2"], np.eye(2), "^mean must hold real numbers"),
        ([1.0 + 0.5j, 2.0], np.eye(2), "^mean must hold real numbers"),
    ])
    def test_rejects_text(self, mean, cov, message):
        with pytest.raises(ValueError, match=message):
            Gaussian2D(mean, cov)

    def test_integer_and_float32_entries_stored_as_float64(self):
        state = Gaussian2D([1, 2], np.eye(2, dtype=np.float32))
        assert state.mean.dtype == state.cov.dtype == np.float64
        np.testing.assert_array_equal(state.mean, [1.0, 2.0])

    def test_degenerate_flagged(self):
        assert Gaussian2D(np.zeros(2), np.zeros((2, 2))).is_degenerate
        assert not ground_state().is_degenerate

    def test_ground_state_is_one_read_only_instance(self):
        g = ground_state()
        assert ground_state() is g
        np.testing.assert_array_equal(g.cov, 0.5 * np.eye(2))
        with pytest.raises(ValueError):
            g.cov[0, 0] = 1.0

    def test_physical_view_keeps_mass(self, d_default):
        state = coherent_state(1.0, 2.0)
        view = state.physical(d_default.beta, 6.0)
        assert view.mean[0] == pytest.approx(math.exp(-d_default.beta * 6.0), rel=1e-15)

    @pytest.mark.parametrize("bt", [0.0, 0.7, 30.0, 800.0])
    def test_physical_view_equals_scaling_matmul(self, bt):
        # the elementwise scaling gives the bits of diag(s, 1) @ cov @ diag(s, 1)
        state = Gaussian2D(np.array([0.7, -0.4]), np.array([[1.3, 0.4], [0.4, 0.8]]))
        scale = np.diag([math.exp(-bt), 1.0])
        view = state.physical(1.0, bt)
        assert view.mean.tobytes() == (scale @ state.mean).tobytes()
        assert view.cov.tobytes() == (scale @ state.cov @ scale).tobytes()

    @pytest.mark.parametrize("beta, t, match", [
        (1.0, -1000.0, "time"),  # exp(1000) used to raise OverflowError
        (-1.0, 800.0, "beta"),  # likewise exp(800)
        (1.0, math.inf, "time"),  # used to return a degenerate state
        (1.0, math.nan, "time"),
        (math.nan, 1.0, "beta"),
        (math.inf, 1.0, "beta"),
    ])
    def test_physical_view_rejects_bad_beta_and_time(self, beta, t, match):
        with pytest.raises(ValueError, match=match):
            coherent_state(1.0, 2.0).physical(beta, t)


class TestOverlap:
    def test_ground_with_itself(self):
        assert state_overlap(ground_state(), ground_state()) == pytest.approx(1.0, abs=0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 3), st.floats(0, 3),
           st.floats(-1, 1))
    def test_symmetric_and_bounded(self, mx, my, a1, a2, corr):
        # covariance = I/2 + PSD excess keeps the state physical (overlap <= 1)
        c = corr * math.sqrt(a1 * a2)
        cov = 0.5 * np.eye(2) + np.array([[a1, c], [c, a2]])
        a = Gaussian2D(np.array([mx, my]), cov)
        b = ground_state()
        ab, ba = state_overlap(a, b), state_overlap(b, a)
        assert ab == pytest.approx(ba, rel=1e-13)
        assert 0.0 < ab <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), _MAGNITUDE, _MAGNITUDE, st.floats(-0.999, 0.999))
    def test_matches_linalg_oracle(self, mx, my, a, d, rho):
        # a PSD excess of any magnitude over the ground covariance
        a_state = Gaussian2D(np.array([mx, my]), 0.5 * np.eye(2) + _psd(a, d, rho))
        b_state = coherent_state(0.3, -0.2)
        ref = overlap_linalg(a_state.mean, a_state.cov, b_state.mean, b_state.cov)
        # both determinants err by ~eps * (|a*d| + b**2) / det, and np.linalg.det,
        # which returns exp(log|det|), also by ~eps*|log det|
        csum = a_state.cov + b_state.cov
        exact, size = _exact_det(csum)
        tol = 1e-14 + 2.0 * EPS * (float(size / exact) + abs(math.log(float(exact))))
        assert state_overlap(a_state, b_state) == pytest.approx(ref, rel=tol, abs=1e-300)

    def test_delta_state_overlap(self):
        delta = Gaussian2D(np.array([0.5, -0.5]), np.zeros((2, 2)))
        g = ground_state()
        expected = 2.0 * math.pi * float(g.density(0.5, -0.5))
        assert state_overlap(delta, g) == pytest.approx(expected, rel=1e-14)
        assert state_overlap(g, delta) == pytest.approx(expected, rel=1e-14)
