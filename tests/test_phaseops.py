import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import next_fast_len
from scipy.special import eval_genlaguerre

from oracles import (angle_matrix_loop, attenuation_masked, convolve_scipy, eigenpair_spectrum,
                     exact_eigenvalues, g_matrix_gathered, log_c_pairs, log_libm,
                     tail_bracket_scalar, variance_table_loop)
from wigosc import (ConvergenceFailure, SizeTooLarge, angle_operator_matrix, canonical_phase_matrix,
                    delta_matrix_element, g_coefficient, g_matrix, phase_fourier,
                    phase_variance_diagonal, physical_phase_matrix, spectrum,
                    thermal_phase_variance, variance_diagonal_table)
from wigosc import phaseops
from wigosc.phaseops import _convolve, _fft_size, _log, _log_c, _tail_bracket, attenuation

PI2_3 = math.pi ** 2 / 3.0
PI2_4 = math.pi ** 2 / 4.0

# high-precision oracle values (40-digit Gamma arithmetic, frozen)
G_ORACLE = {
    (0, 1): 1.25331413731550025,
    (0, 2): 1.41421356237309505,
    (1, 2): 0.886226925452758014,
    (3, 7): 0.828078671210825061,
    (10, 11): 1.02295579097335637,
    (149, 0): 3.91463139364937331,
}
# ground-row variance: direct 40-digit summation + Euler-Maclaurin tail,
# cross-checked at two split points
V0_ORACLE = 3.7011016504085095


class TestGCoefficients:
    def test_oracle_values(self):
        for (m, n), val in G_ORACLE.items():
            assert g_coefficient(m, n) == pytest.approx(val, rel=1e-13)

    def test_unit_diagonal_exact(self):
        g = g_matrix(40).values
        np.testing.assert_array_equal(np.diag(g), np.ones(40))

    def test_symmetric_positive(self):
        g = g_matrix(60).values
        np.testing.assert_array_equal(g, g.T)
        assert np.all(g > 0)

    def test_matrix_matches_scalar_path(self):
        g = g_matrix(25).values
        for m in (0, 3, 11, 24):
            for n in (0, 7, 16, 24):
                assert g[m, n] == pytest.approx(g_coefficient(m, n), rel=1e-13)

    def test_correspondence_limit(self):
        # deep in the table the coefficients approach one at fixed offset
        for k in range(1, 5):
            assert abs(g_coefficient(10 ** 4, 10 ** 4 - k) - 1.0) < 1e-3

    def test_nearest_offdiagonal_value(self):
        assert g_coefficient(0, 1) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)

    def test_squared_entries_factorise_over_gamma_ratios(self, rng):
        # g[m,n]^2 = (c_min/c_max)^(+-1) with c_k = Gamma((k+1)/2)/Gamma((k+2)/2)
        from scipy.special import gammaln
        ks = np.arange(0, 2100, dtype=float)
        c = np.exp(gammaln((ks + 1) / 2) - gammaln((ks + 2) / 2))
        for _ in range(60):
            m, n = sorted(rng.integers(0, 2050, size=2))
            if m == n:
                continue
            expected = c[m] / c[n] if m % 2 == 0 else c[n] / c[m]
            assert g_coefficient(m, n) ** 2 == pytest.approx(expected, rel=1e-11)

    def test_size_guard(self):
        with pytest.raises(SizeTooLarge):
            g_matrix(5000)
        with pytest.raises(ValueError):
            g_matrix(0)


class TestAngleOperatorMatrix:
    def test_unit_functional_gives_identity(self):
        id_fourier = lambda k: 1.0 if k == 0 else 0.0
        mat = angle_operator_matrix(id_fourier, 12).values
        np.testing.assert_array_equal(mat, np.eye(12, dtype=complex))

    def test_sawtooth_coefficients(self):
        assert phase_fourier(0) == 0.0
        assert phase_fourier(1) == 1.0j
        assert phase_fourier(2) == -0.5j
        assert phase_fourier(-1) == -1.0j
        # consistency with direct quadrature of the defining integral
        from scipy.integrate import quad
        for k in (1, 2, 3, -2):
            re = quad(lambda p: p * math.cos(k * p), -math.pi, math.pi, epsabs=1e-13)[0]
            im = quad(lambda p: p * math.sin(k * p), -math.pi, math.pi, epsabs=1e-13)[0]
            val = (re + 1j * im) / (2 * math.pi)
            assert phase_fourier(k) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("n_max", [1, 2, 30, 150])
    def test_assembly_matches_entrywise_oracle(self, n_max):
        calls = []

        def cos_fourier(k):  # Phi = cos(phi): c_(+-1) = 1/2
            calls.append(k)
            return 0.5 if abs(k) == 1 else 0.0

        g = g_matrix(n_max).values
        idx = np.arange(n_max)
        offsets = idx - idx[:, np.newaxis]
        cases = [(canonical_phase_matrix(n_max), g, phase_fourier),
                 (angle_operator_matrix(phase_fourier, n_max), g, phase_fourier),
                 (angle_operator_matrix(cos_fourier, n_max), g, cos_fourier)]
        # one callback per offset, not per entry
        assert sorted(calls) == list(range(n_max))
        # the physical table attenuates the full offset grid, entry by entry
        for bt in (0.0, 0.3, 2.0, 17.0, 800.0, math.inf):
            cases.append((physical_phase_matrix(n_max, bt),
                          g * attenuation(offsets, bt), phase_fourier))
        for built, table, fourier in cases:
            np.testing.assert_array_equal(built.values, angle_matrix_loop(table, fourier))

    def test_hermitian_exactly(self):
        a = angle_operator_matrix(phase_fourier, 40).values
        assert np.max(np.abs(a - a.conj().T)) == 0.0


class TestPhaseMatrices:
    def test_zero_diagonal_and_first_offdiagonal(self):
        mat = canonical_phase_matrix(20).values
        np.testing.assert_array_equal(np.diag(mat), np.zeros(20))
        assert mat[0, 1] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)
        assert mat[0, 1].imag == 0.0

    def test_two_by_two_eigenvalues(self):
        ev = spectrum(canonical_phase_matrix(2)).eigenvalues
        root = math.sqrt(math.pi / 2.0)
        np.testing.assert_allclose(ev, [-root, root], rtol=1e-14)

    def test_hermiticity_exact(self):
        for mat in (canonical_phase_matrix(64).values,
                    physical_phase_matrix(64, 1.7).values):
            assert np.max(np.abs(mat - mat.conj().T)) == 0.0

    def test_physical_reduces_to_canonical_at_zero_time(self):
        a = physical_phase_matrix(40, 0.0).values
        b = canonical_phase_matrix(40).values
        np.testing.assert_array_equal(a, b)

    def test_physical_late_time_parity_split(self):
        g = g_matrix(30).values
        mat = physical_phase_matrix(30, 800.0).values
        for m in range(30):
            for n in range(30):
                k = n - m
                if k == 0:
                    continue
                if abs(k) % 2 == 0:
                    assert abs(mat[m, n]) < 1e-15
                else:
                    assert abs(mat[m, n]) == pytest.approx(g[m, n] / abs(k), rel=1e-13)

    def test_attenuated_entry_value(self):
        # |offset| = 2 entry carries one power of tanh(beta_t/2)
        mat = physical_phase_matrix(6, 2.0).values
        expected = math.sqrt(2.0) * (1.0 - math.tanh(1.0)) / 2.0
        assert abs(mat[0, 2]) == pytest.approx(expected, rel=1e-13)

    def test_even_entries_strictly_decreasing_in_time(self):
        bts = (0.0, 0.5, 1.0, 2.0, 4.0)
        mats = [physical_phase_matrix(12, bt).values for bt in bts]
        for m in range(12):
            for n in range(12):
                k = abs(n - m)
                if k == 0:
                    continue
                series = [abs(mat[m, n]) for mat in mats]
                if k % 2 == 1:
                    assert max(series) - min(series) < 1e-15
                else:
                    assert all(a > b for a, b in zip(series, series[1:]))

    def test_doubled_real_symmetric_embedding_same_spectrum(self):
        # complex Hermitian H = S + iA embeds in [[S, -A], [A, S]] with each
        # eigenvalue doubled; cross-checks the solver on a real route
        h = canonical_phase_matrix(40).values
        s, a = h.real, h.imag
        big = np.block([[s, -a], [a, s]])
        ev_big = np.linalg.eigvalsh(big)
        ev = spectrum(canonical_phase_matrix(40)).eigenvalues
        np.testing.assert_allclose(ev_big[::2], ev, atol=1e-12)
        np.testing.assert_allclose(ev_big[1::2], ev, atol=1e-12)


class TestSpectrum:
    def test_identity_matrix(self):
        from wigosc.phaseops import HermitianMatrix
        spec = spectrum(HermitianMatrix(np.eye(7, dtype=complex)))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(7), rtol=1e-15)

    def test_canonical_150_containment_and_uniformity(self):
        # golden values from the first verified run (deterministic solver)
        spec = spectrum(canonical_phase_matrix(150))
        assert spec.n_max == 150
        assert spec.containment_slack(math.pi) == 0.0
        assert abs(spec.eigenvalues[-1] - 3.0950224642955497) < 1e-8
        gaps = np.diff(spec.eigenvalues)
        lo, hi = int(0.1 * len(gaps)), int(0.9 * len(gaps))
        cv = np.std(gaps[lo:hi]) / np.mean(gaps[lo:hi])
        assert abs(cv - 0.0827295522) < 1e-6

    def test_physical_spectrum_concentrates_at_half_pi(self):
        spec = spectrum(physical_phase_matrix(150, 5.0))
        ev = spec.eigenvalues
        frac = np.mean(np.minimum(np.abs(ev - math.pi / 2), np.abs(ev + math.pi / 2)) < 0.3)
        assert frac == pytest.approx(148.0 / 150.0, abs=1e-12)  # golden
        assert abs(ev[-1] - 1.779542) < 1e-5  # golden envelope

    def test_non_hermitian_rejected(self):
        from wigosc.phaseops import HermitianMatrix
        bad = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            spectrum(bad)
        # HermitianMatrix wrapper is bypassed here on purpose: raw array input
        # the defect is measured against the largest entry, so scale is no cover
        with pytest.raises(ValueError):
            spectrum(bad * 1e-13)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
    def test_blocked_hermitian_defect_equals_full_formula(self, n):
        # the defect decides accept/reject in spectrum, so it must be the
        # same number, not merely close
        from wigosc.phaseops import _hermitian_defect
        rng = np.random.default_rng(n)
        for noise in (0.0, 1e-15, 1e-12, 1e-3):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = (m + m.conj().T) / 2.0
            a += noise * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for mat in (a, a.real.copy()):
                assert _hermitian_defect(mat) == float(np.max(np.abs(mat - mat.conj().T)))

    @pytest.mark.parametrize("bad", [np.ones(3), np.zeros((0, 0)), np.ones((2, 3)),
                                     np.zeros((2, 2, 2))], ids=["1d", "empty", "2x3", "3d"])
    def test_malformed_input_rejected(self, bad):
        with pytest.raises(ValueError, match="non-empty square"):
            spectrum(bad)

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_rejected(self, entry):
        a = canonical_phase_matrix(3).values.copy()
        a[1, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            spectrum(a)

    def test_subnormal_matrix_rejected(self):
        with pytest.raises(ValueError, match="subnormal"):
            spectrum(np.full((2, 2), 1e-310))
        assert spectrum(np.zeros((2, 2))).residual == 0.0

    def test_certificate_is_a_priori_bound(self):
        spec = spectrum(canonical_phase_matrix(100))
        eps = np.finfo(float).eps
        assert spec.residual == 4 * 100 * eps * float(np.max(np.abs(spec.eigenvalues)))
        assert spec.residual < 1e-12

    def test_certificate_covers_exact_eigenvalues(self):
        # small random matrices with rows scaled over 7 decades, against
        # 32-digit eigenvalues; a bound of n * eps * ||A|| fails here
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        for trial in range(300):
            n = 2 + trial % 5
            m = ((rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                 * np.exp(rng.uniform(-8.0, 8.0, (n, 1))))
            a = (m + m.conj().T) / 2.0
            spec = spectrum(a)
            assert np.all(np.abs(spec.eigenvalues - exact_eigenvalues(a)) <= spec.residual)

    def test_containment_is_widened_by_certificate(self):
        spec = spectrum(canonical_phase_matrix(150))
        top = float(np.max(np.abs(spec.eigenvalues)))
        assert spec.containment_slack(top) == pytest.approx(spec.residual, rel=1e-3)
        assert spec.containment_slack(top + spec.residual) == 0.0

    @pytest.mark.parametrize("case", ["tiny_norm", "underflowing_couplings"])
    def test_certificate_holds_where_squares_underflow(self, case):
        # unscaled and unflushed, the values-only solve erred by 44x and 5e13x
        # the certificate on these two matrices
        pytest.importorskip("mpmath")
        if case == "tiny_norm":
            a = np.full((8, 8), 3.45e-244, dtype=complex)
            a[2, 5], a[5, 2] = 1.39e-210j, -1.39e-210j
        else:
            rng = np.random.default_rng(0)
            m = (rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))) * 1e-160
            m[0, 1] += 50.0
            a = (m + m.conj().T) / 2.0
        spec = spectrum(a)
        assert np.all(np.abs(spec.eigenvalues - exact_eigenvalues(a)) <= spec.residual)

    @pytest.mark.parametrize("n", [1, 2, 150, 1000])
    @pytest.mark.parametrize("beta_t", [None, 0.0, 2.0, 5.0, 800.0],
                             ids=["canonical", "bt0", "bt2", "bt5", "bt800"])
    def test_certificate_covers_eigenpair_oracle(self, n, beta_t):
        mat = canonical_phase_matrix(n) if beta_t is None else physical_phase_matrix(n, beta_t)
        _assert_certified(mat.values)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: hnp.arrays(
        np.float64, (2, n, n), elements=st.floats(-1e3, 1e3, allow_subnormal=False))),
        st.sampled_from([1e-250, 1e-150, 1.0, 1e150, 1e250]))
    def test_certificate_covers_random_hermitian(self, parts, scale):
        # the scales reach where LAPACK's values-only solve loses digits unless
        # spectrum rescales first (8 digits at norm 1e-210)
        m = (parts[0] + 1j * parts[1]) * scale
        a = (m + m.conj().T) / 2.0
        assume(not 0.0 < np.max(np.abs(a)) < np.finfo(float).tiny)
        _assert_certified(a)

    @pytest.mark.parametrize("n", [150, 151, 1000])
    @pytest.mark.parametrize("beta_t", [None, 2.0], ids=["canonical", "bt2"])
    def test_spectrum_is_symmetric_about_zero(self, n, beta_t):
        # odd offsets are real and even ones imaginary, so with the parity
        # P = diag((-1)**m), P conj(A) P = -A; conj(A) = A.T has A's spectrum,
        # so the eigenvalues come in +- pairs (with a 0 for odd n)
        mat = canonical_phase_matrix(n) if beta_t is None else physical_phase_matrix(n, beta_t)
        spec = spectrum(mat)
        assert np.max(np.abs(spec.eigenvalues + spec.eigenvalues[::-1])) <= 2.0 * spec.residual


def _assert_certified(a):
    """Each eigenvalue of ``spectrum`` is within its certificate of the ``eigh`` oracle."""
    spec = spectrum(a)
    w, oracle_residual = eigenpair_spectrum(a)
    assert np.all(np.abs(spec.eigenvalues - w) <= spec.residual)
    assert oracle_residual <= spec.residual


class TestVarianceSeries:
    def test_ground_row_against_oracle(self):
        est = phase_variance_diagonal(0, tol=1e-7)
        assert abs(est.value - V0_ORACLE) <= est.tail_bound + 1e-12

    def test_unreachable_tol_stops_at_the_term_cap(self):
        # no bracket over 8 million terms is 1e-300 wide: the doubling stops at the cap
        m = 3
        est = phase_variance_diagonal(m, tol=1e-300)
        assert est.terms == m + 8_000_000
        assert est.tail_bound > 1e-300

    def test_bracket_contains_refined_value(self):
        # a short certified bracket must contain a much longer summation
        for m in (0, 1, 5, 8):
            short = phase_variance_diagonal(m, tol=1.0)
            long = phase_variance_diagonal(m, tol=1e-8)
            assert abs(short.value - long.value) <= short.tail_bound

    def test_row_sums_of_matrix_converge_to_series(self):
        # truncated matrix row sums approach the certified series value
        from scipy.special import gammaln
        vals = {m: phase_variance_diagonal(m, tol=1e-9) for m in (0, 5)}
        prev_err = {m: np.inf for m in (0, 5)}
        for n_max in (150, 300, 600):
            mat = canonical_phase_matrix(n_max).values
            for m in (0, 5):
                partial = float(np.sum(np.abs(mat[m]) ** 2))
                err = vals[m].value - partial
                assert err > 0  # positive terms only
                assert err < prev_err[m]
                prev_err[m] = err
                # independent containment: the certified tail bracket beyond
                # the truncation must cover the actual truncation error
                c_m = math.exp(gammaln((m + 1) / 2.0) - gammaln((m + 2) / 2.0))
                lo, hi = tail_bracket_scalar(m, n_max - 1, c_m, None)
                slack = vals[m].tail_bound
                assert lo - slack <= err <= hi + slack

    def test_parity_resolved_monotone_convergence(self):
        odd = [phase_variance_diagonal(m, tol=1e-8).value for m in (1, 3, 5, 7, 9, 11, 101)]
        assert all(a < b for a, b in zip(odd, odd[1:]))
        assert all(v < PI2_3 for v in odd)
        even = [phase_variance_diagonal(m, tol=1e-8).value for m in (2, 4, 6, 8, 10, 12, 100)]
        assert all(a > b for a, b in zip(even, even[1:]))
        assert all(v > PI2_3 for v in even)

    def test_not_globally_monotone(self):
        # certified: v_0 - 1 = v_1, so the full sequence see-saws by parity
        v0 = phase_variance_diagonal(0, tol=1e-7)
        v1 = phase_variance_diagonal(1, tol=1e-7)
        assert v0.value - v0.tail_bound > v1.value + v1.tail_bound

    def test_deep_rows_near_limits(self):
        vc = phase_variance_diagonal(2000, tol=1e-7)
        assert abs(vc.value - PI2_3) < 0.02 * PI2_3
        vp = phase_variance_diagonal(2000, kind="physical", beta_t=1e3, tol=1e-5)
        assert abs(vp.value - PI2_4) < 0.02 * PI2_4

    def test_physical_interpolates(self):
        # at moderate beta_t the row variance sits between the two limits
        mid = phase_variance_diagonal(2000, kind="physical", beta_t=1.0, tol=1e-5)
        lo = phase_variance_diagonal(2000, kind="physical", beta_t=1e3, tol=1e-5)
        hi = phase_variance_diagonal(2000, kind="canonical", tol=1e-5)
        assert lo.value < mid.value < hi.value

    def test_table_matches_direct_path(self):
        values, bounds = variance_diagonal_table(40, extra=150_000)
        for m in (0, 1, 7, 20, 40):
            direct = phase_variance_diagonal(m, tol=1e-8)
            assert abs(values[m] - direct.value) <= bounds[m] + direct.tail_bound

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.integers(0, 5000), min_size=1, max_size=8),
           gap=st.integers(2, 1_000_000),
           beta_t=st.one_of(st.none(), st.floats(0.0, 1e3), st.just(math.inf)))
    def test_tail_bracket_matches_scalar_oracle_bit_for_bit(self, rows, gap, beta_t):
        # the whole-array bracket gives each row exactly its scalar bracket,
        # whatever rows share the call
        m = np.array(rows)
        j_top = int(m.max()) + gap
        c_m = np.exp(log_c_pairs(m.astype(float)))
        low, high = _tail_bracket(m, j_top, c_m, beta_t)
        for i, row in enumerate(rows):
            assert (low[i], high[i]) == tail_bracket_scalar(row, j_top, float(c_m[i]), beta_t)

    @pytest.mark.parametrize("beta_t", [None, 0.5, 1e3, math.inf])
    @pytest.mark.parametrize("extra", [2, 5000])
    @pytest.mark.parametrize("m_max", [0, 1, 300])
    def test_table_matches_row_loop_oracle_bit_for_bit(self, m_max, extra, beta_t):
        values, bounds = variance_diagonal_table(m_max, extra, beta_t)
        oracle_values, oracle_bounds = variance_table_loop(m_max, extra, beta_t)
        np.testing.assert_array_equal(values, oracle_values)
        np.testing.assert_array_equal(bounds, oracle_bounds)

    def test_table_brackets_rows_in_blocks(self, monkeypatch):
        # one whole-table call would box every row as a Python float at once
        calls = []
        monkeypatch.setattr(phaseops, "_tail_bracket",
                            lambda m, *args: calls.append(m.size) or _tail_bracket(m, *args))
        variance_diagonal_table(100_000, extra=2)
        assert sum(calls) == 100_001
        assert len(calls) <= math.ceil(100_001 / 2 ** 15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            phase_variance_diagonal(-1)
        with pytest.raises(ValueError):
            phase_variance_diagonal(3, kind="nonsense")

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_tol_rejected(self, tol):
        # each used to sum all 8 million terms (0.4-0.6 s) and return
        with pytest.raises(ValueError, match="tol"):
            phase_variance_diagonal(3, tol=tol)

    def test_negative_extra_rejected(self):
        # used to run quietly with extra = 2
        with pytest.raises(ValueError, match="extra"):
            variance_diagonal_table(3, extra=-5)

    @pytest.mark.parametrize("beta_t", [-1.0, -math.inf, math.nan])
    @pytest.mark.parametrize("call", [
        lambda bt: phase_variance_diagonal(5, kind="physical", beta_t=bt),
        lambda bt: variance_diagonal_table(5, extra=100, beta_t=bt),
        lambda bt: physical_phase_matrix(4, bt),
        lambda bt: attenuation(2, bt),
    ], ids=["row", "table", "matrix", "attenuation"])
    def test_bad_beta_t_rejected(self, call, beta_t):
        # a negative beta_t makes the tanh powers complex, and NaN would
        # propagate into a silent NaN result; attenuation(2, -1.0) was 1.462
        with pytest.raises(ValueError, match="beta_t"):
            call(beta_t)

    def test_infinite_beta_t_is_late_time_limit(self):
        est = phase_variance_diagonal(5, kind="physical", beta_t=math.inf, tol=1e-7)
        assert abs(est.value - PI2_4) <= est.tail_bound + 1e-12
        values, bounds = variance_diagonal_table(5, extra=1000, beta_t=math.inf)
        assert abs(values[5] - PI2_4) <= bounds[5]
        assert np.all(np.isfinite(physical_phase_matrix(4, math.inf).values))


class TestThermalPhaseVariance:
    def test_unit_temperature_keeps_ground_row_only(self):
        est = thermal_phase_variance(1.0)
        v0 = phase_variance_diagonal(0, tol=1e-7)
        assert est.terms == 1
        assert abs(est.value - v0.value) <= est.tail_bound + v0.tail_bound

    def test_moderate_temperature_golden(self):
        est = thermal_phase_variance(5.0)
        assert est.value == pytest.approx(3.33282018637, abs=1e-7)
        assert est.tail_bound < 1e-6

    def test_high_temperature_limit(self):
        est = thermal_phase_variance(1e4)
        assert abs(est.value - PI2_3) < 0.005 * PI2_3
        # the geometric mixture averages out the parity oscillation
        assert abs(est.value - PI2_3) < 1e-6

    def test_remainder_shrinks_with_more_terms(self):
        a = thermal_phase_variance(50.0, tol=1.0)
        b = thermal_phase_variance(50.0, tol=1e-8)
        assert a.terms < b.terms
        assert b.tail_bound < a.tail_bound
        assert abs(a.value - b.value) <= a.tail_bound

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            thermal_phase_variance(0.0)

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    def test_bad_tol_rejected(self, tol):
        # NaN used to fail in int() with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="tol"):
            thermal_phase_variance(10.0, tol=tol)

    @pytest.mark.parametrize("big_d", [math.nan, math.inf])
    def test_non_finite_temperature(self, big_d):
        # both used to fail in int() with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match="temperature_number must be finite"):
            thermal_phase_variance(big_d)

    def test_violated_row_cap_is_a_package_error(self, monkeypatch):
        import wigosc.phaseops as phaseops
        values, _ = variance_diagonal_table(5, extra=1000)
        monkeypatch.setattr(phaseops, "_VARIANCE_SUP", float(np.max(values)) / 2.0)
        with pytest.raises(ConvergenceFailure, match="row-variance cap"):
            thermal_phase_variance(3.0, tol=0.1)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


BETA_TS = [0.0, 1e-300, 2.0, 7.0, 1e3, math.inf]


class TestKernelsMatchGatheredForms:
    """The phaseops kernels return the bits of their gathered and masked forms in ``oracles``."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300))
    def test_g_matrix(self, n):
        assert _same_bits(g_matrix(n).values, g_matrix_gathered(n))

    def test_g_matrix_at_1000(self):
        assert _same_bits(g_matrix(1000).values, g_matrix_gathered(1000))

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=40),
                      elements=st.integers(-10 ** 7, 10 ** 7)),
           st.sampled_from(BETA_TS))
    def test_attenuation(self, offsets, beta_t):
        assert _same_bits(attenuation(offsets, beta_t), attenuation_masked(offsets, beta_t))

    @pytest.mark.parametrize("beta_t", BETA_TS)
    def test_attenuation_of_a_long_row(self, beta_t):
        offsets = np.arange(-1000, 400_000)
        assert _same_bits(attenuation(offsets, beta_t), attenuation_masked(offsets, beta_t))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 150), st.sampled_from(BETA_TS))
    def test_physical_matrix(self, n, beta_t):
        idx = np.arange(n)
        table = g_matrix_gathered(n) * attenuation_masked(idx - idx[:, np.newaxis], beta_t)
        np.testing.assert_array_equal(physical_phase_matrix(n, beta_t).values,
                                      angle_matrix_loop(table, phase_fourier))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 7), st.integers(1, 2000))
    def test_log_c(self, start, length):
        j = np.arange(start, start + length, dtype=float)
        assert _same_bits(_log_c(start, start + length), log_c_pairs(j))

    def test_log_c_over_a_table(self):
        assert _same_bits(_log_c(0, 300_001), log_c_pairs(np.arange(300_001, dtype=float)))

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 300), elements=st.one_of(
        st.floats(1.0, 1.0 + 1e-6, exclude_min=True), st.floats(1.0, 5.0, exclude_min=True),
        st.floats(1.0, 1e6, exclude_min=True))))
    def test_log(self, x):
        assert _same_bits(_log(x), log_libm(x))

    @pytest.mark.parametrize("top", [1.0 + 1e-6, 5.0, 1e6])
    def test_log_dense(self, top):
        # np.log misses math.log in the last bit on 2, 270 and 8 of these draws
        x = np.random.default_rng(7).uniform(1.0, top, 200_000)
        assert _same_bits(_log(x), log_libm(x))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 3000), st.integers(1, 2), st.integers(0, 2 ** 32))
    def test_convolve(self, k_len, x_len, count, seed):
        rng = np.random.default_rng(seed)
        kernel = rng.standard_normal(k_len)
        xs = [rng.standard_normal(x_len) for _ in range(count)]
        for got, want in zip(_convolve(kernel, *xs), convolve_scipy(kernel, *xs), strict=True):
            assert _same_bits(got, want)

    def test_fft_size_up_to_10000(self):
        assert [_fft_size(n) for n in range(1, 10_001)] == [next_fast_len(n, real=True)
                                                           for n in range(1, 10_001)]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 12))
    def test_fft_size(self, n):
        assert _fft_size(n) == next_fast_len(n, real=True)

    @pytest.mark.parametrize("call", [
        lambda: phase_variance_diagonal(1000, tol=1e-5),
        lambda: phase_variance_diagonal(1000, kind="physical", beta_t=1e3, tol=1e-5),
        lambda: variance_diagonal_table(1000),
        lambda: thermal_phase_variance(200.0),
        lambda: thermal_phase_variance(1e4),
        lambda: thermal_phase_variance(1e6),
    ], ids=["row", "row_physical", "table", "thermal_D200", "thermal_D1e4", "thermal_D1e6"])
    def test_variance_fields_with_the_gathered_kernels(self, call, monkeypatch):
        # the benchmark's variance configurations: every field is the same
        # with each kernel swapped for its oracle form
        sizes = []
        fft_size = phaseops._fft_size
        monkeypatch.setattr(phaseops, "_fft_size", lambda n: sizes.append(n) or fft_size(n))
        got = call()
        assert all(fft_size(n) == next_fast_len(n, real=True) for n in sizes)
        with monkeypatch.context() as patch:
            patch.setattr(phaseops, "_log_c",
                          lambda start, stop: log_c_pairs(np.arange(start, stop, dtype=float)))
            patch.setattr(phaseops, "attenuation", attenuation_masked)
            patch.setattr(phaseops, "_log", log_libm)
            patch.setattr(phaseops, "_convolve", convolve_scipy)
            want = call()
        if isinstance(got, tuple):
            assert all(_same_bits(a, b) for a, b in zip(got, want, strict=True))
        else:
            assert (got.value, got.tail_bound, got.terms) == (want.value, want.tail_bound, want.terms)

    @pytest.mark.xfail(strict=True, reason="log c_j is the difference of two large gammaln "
                       "values (2.5e-10 off at j = 4e5); ROADMAP item 7")
    def test_log_c_deep_within_a_few_eps(self):
        mpmath = pytest.importorskip("mpmath")
        j = 400_000
        with mpmath.workdps(40):
            exact = float(mpmath.loggamma(mpmath.mpf(j + 1) / 2) - mpmath.loggamma(mpmath.mpf(j + 2) / 2))
        assert abs(_log_c(j, j + 1)[0] - exact) <= 4.0 * np.finfo(float).eps * abs(exact)


@pytest.mark.parametrize("call, message", [
    (lambda: g_coefficient(1.5, 2), "m must be an integer"),  # used to return 0.948
    (lambda: g_coefficient(1, 2.0), "n must be an integer"),
    (lambda: g_matrix(4.5), "n_max must be an integer"),  # used to raise IndexError
    (lambda: canonical_phase_matrix(10.0), "n_max must be an integer"),  # used to raise IndexError
    (lambda: physical_phase_matrix(10.0, 1.0), "n_max must be an integer"),
    (lambda: angle_operator_matrix(phase_fourier, 4.5), "n_max must be an integer"),
    (lambda: phase_fourier(1.5), "k must be an integer"),
    (lambda: phase_variance_diagonal(1.5), "m must be an integer"),  # used to raise a bare TypeError
    (lambda: variance_diagonal_table(3.5), "m_max must be an integer"),
    (lambda: variance_diagonal_table(3, extra=2.5), "extra must be an integer"),
    (lambda: delta_matrix_element(1.5, 2, 1.0, 0.0), "m must be an integer"),
    (lambda: delta_matrix_element(1, "2", 1.0, 0.0), "n must be an integer"),
    # text reals used to be parsed by float() and the call returned a value
    (lambda: physical_phase_matrix(4, "2"), "beta_t must be a real number"),
    (lambda: variance_diagonal_table(3, extra=10, beta_t="1"), "beta_t must be a real number"),
    (lambda: phase_variance_diagonal(3, kind="physical", beta_t="1"), "beta_t must be a real number"),
    (lambda: thermal_phase_variance("5"), "temperature_number must be a real number"),
    (lambda: delta_matrix_element(1, 2, "1", 0.0), "radius must be a real number"),
    (lambda: delta_matrix_element(0, 0, 1.0, "x"), "angle must be a real number"),  # bare TypeError
], ids=["g_coefficient-m", "g_coefficient-n", "g_matrix", "canonical", "physical", "angle_operator",
        "phase_fourier", "row_variance", "table-m_max", "table-extra", "delta-m", "delta-n",
        "physical-text-beta_t", "table-text-beta_t", "row-text-beta_t", "thermal-text-D",
        "delta-text-radius", "delta-text-angle"])
def test_non_integer_index_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: g_coefficient(-1, 2), "m must be >= 0, got -1"),
    (lambda: g_matrix(0), "n_max must be >= 1, got 0"),
    (lambda: variance_diagonal_table(3, extra=-5), "extra must be >= 0, got -5"),
    (lambda: delta_matrix_element(0, -2, 1.0, 0.0), "n must be >= 0, got -2"),
], ids=["g_coefficient", "g_matrix", "table-extra", "delta"])
def test_out_of_range_index_named_with_its_value(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_numpy_real_arguments_accepted():
    np.testing.assert_array_equal(physical_phase_matrix(5, np.float64(2.0)).values,
                                  physical_phase_matrix(5, 2.0).values)
    np.testing.assert_array_equal(attenuation(np.arange(6), np.float32(math.inf)),
                                  attenuation(np.arange(6), math.inf))
    assert thermal_phase_variance(np.float64(3.0)) == thermal_phase_variance(3.0)


def test_numpy_integer_indices_accepted():
    assert g_coefficient(np.int64(3), np.uint8(7)) == g_coefficient(3, 7)
    np.testing.assert_array_equal(canonical_phase_matrix(np.int32(5)).values,
                                  canonical_phase_matrix(5).values)


class TestDeltaMatrixElement:
    def test_ground_element_is_gaussian(self):
        for r in np.linspace(0.0, 4.0, 17):
            for phi in (-2.0, 0.0, 1.3):
                val = delta_matrix_element(0, 0, r, phi)
                assert val.imag == 0.0
                assert val.real == pytest.approx(2.0 * math.exp(-r * r), abs=1e-12)

    def test_pure_phase_dependence(self):
        # angle enters only through exp(i*(n-m)*phi)
        m, n, r = 1, 4, 0.8
        base = delta_matrix_element(m, n, r, 0.0)
        for phi in (0.4, -1.0, 2.9):
            val = delta_matrix_element(m, n, r, phi)
            assert abs(val) == pytest.approx(abs(base), rel=1e-13)
            ratio = val / base
            expected = complex(math.cos((n - m) * phi), math.sin((n - m) * phi))
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_first_offdiagonal_against_series(self):
        # m=0, n=1, R=1: prefactors times L(0, 1, 2) = 1
        val = delta_matrix_element(0, 1, 1.0, 0.0)
        expected = 2.0 * (-1.0) * 1j * math.sqrt(2.0) * math.exp(-1.0)
        assert val == pytest.approx(expected, rel=1e-13)

    def test_against_scipy_laguerre(self):
        for (m, n, r) in [(2, 2, 0.7), (1, 5, 1.3), (6, 3, 2.0), (0, 4, 0.5)]:
            k = abs(m - n)
            nl, ng = min(m, n), max(m, n)
            mag = (2.0 * 2.0 ** (k / 2.0)
                   * math.sqrt(math.factorial(nl) / math.factorial(ng))
                   * r ** k * math.exp(-r * r)
                   * eval_genlaguerre(nl, k, 2.0 * r * r))
            assert abs(delta_matrix_element(m, n, r, 0.9)) == pytest.approx(abs(mag), rel=1e-11)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            delta_matrix_element(-1, 0, 1.0, 0.0)
        with pytest.raises(ValueError):
            delta_matrix_element(0, 0, -1.0, 0.0)

    @pytest.mark.parametrize("radius, angle, match", [
        (math.nan, 0.3, "radius"),  # used to return nan+nanj
        (math.inf, 0.3, "radius"),
        (1.0, math.nan, "angle"),  # used to return nan+nanj
        (1.0, math.inf, "angle"),  # used to raise a bare "math domain error"
        (1e200, 0.3, "float range"),  # 0 * inf used to return nan+nanj
    ])
    def test_non_finite_input_raises(self, radius, angle, match):
        with pytest.raises(ValueError, match=match):
            delta_matrix_element(2, 2, radius, angle)

    def test_far_ground_element_underflows_to_zero(self):
        assert delta_matrix_element(0, 0, 1e200, 0.3) == 0.0
