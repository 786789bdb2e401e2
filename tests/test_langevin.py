import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.random import Generator, Philox
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (bonferroni_threshold_scipy, interval_law, run_interval_columns,
                     scheme_moments)
from wigosc import langevin
from wigosc import (Gaussian2D, ModelParams, ParameterMismatch, PhasePoint, SdeConfig,
                    StepTooLarge, classical_flow, compare_to_propagator, derive,
                    ground_state, propagator, simulate_ensemble)


EPS = float(np.finfo(float).eps)


def make_params(big_d, big_b, no=None):
    return ModelParams.from_dimensionless(big_d, big_b, no)


class TestConfig:
    def test_step_guard(self):
        cfg = SdeConfig(dt=0.2, n_steps=10, n_trajectories=10, seed=1)
        with pytest.raises(StepTooLarge):
            simulate_ensemble(make_params(1.0, 0.1), cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            SdeConfig(dt=-0.1, n_steps=10, n_trajectories=10, seed=1)
        with pytest.raises(ValueError):
            SdeConfig(dt=0.01, n_steps=0, n_trajectories=10, seed=1)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", 1.0), ("n_steps", 10.0), ("n_trajectories", 2.5),
        ("record_every", 2.0), ("threads", 1.0), ("record_every", -5), ("threads", -1)])
    def test_integer_fields_rejected_loudly(self, field, value):
        # a float seed must not quietly run another seed's stream, and a
        # negative stride must not quietly mean the default one
        base = dict(dt=0.01, n_steps=10, n_trajectories=2, seed=1)
        with pytest.raises(ValueError, match=field):
            SdeConfig(**{**base, field: value})

    def test_numpy_integers_accepted(self):
        params = make_params(1.0, 0.1)
        plain = SdeConfig(dt=0.01, n_steps=10, n_trajectories=3, seed=5, record_every=5)
        numpy_ints = SdeConfig(dt=0.01, n_steps=np.int64(10), n_trajectories=np.int32(3),
                               seed=np.uint64(5), record_every=np.int64(5))
        assert (simulate_ensemble(params, plain).digest()
                == simulate_ensemble(params, numpy_ints).digest())

    @pytest.mark.parametrize("raw", ["two", "-3", "0", "1.5", ""])
    def test_bad_thread_environment_rejected(self, raw):
        # a thread count written as text, as a shell variable holds it, is
        # rejected rather than parsed, "0" too; an integer count still runs
        cfg = SdeConfig(dt=0.01, n_steps=10, n_trajectories=2, seed=1)
        with pytest.raises(ValueError, match="threads"):
            dataclasses.replace(cfg, threads=raw)
        simulate_ensemble(make_params(1.0, 0.1), dataclasses.replace(cfg, threads=2))

    def test_ensemble_starts_no_thread(self, monkeypatch):
        # the groups run on the calling thread, whatever thread count the
        # config names; three groups, so a pool would have work to hand out
        def refuse(thread):
            raise AssertionError(f"simulate_ensemble started {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        base = dict(dt=0.01, n_steps=10, n_trajectories=600, seed=1)
        digests = {simulate_ensemble(make_params(1.0, 0.1), SdeConfig(threads=threads, **base)).digest()
                   for threads in (0, 1, 3)}
        assert len(digests) == 1

    @pytest.mark.parametrize("threads, cpus, workers", [(0, 3, 3), (0, 1, 1), (2, 3, 2)])
    def test_default_threads_follow_the_usable_cpus(self, monkeypatch, threads, cpus, workers):
        # threads = 0 used to take one worker per CPU in the affinity mask;
        # now no thread count follows the mask: with `cpus` CPUs usable, the
        # mask is never read and `threads` gives the bits of the `workers`
        # threads the removed pool would have taken
        seen = []

        def mask(pid):
            seen.append(pid)
            return set(range(cpus))

        monkeypatch.setattr(os, "sched_getaffinity", mask, raising=False)
        base = dict(dt=0.01, n_steps=10, n_trajectories=600, seed=1)
        digests = [simulate_ensemble(make_params(1.0, 0.1), SdeConfig(threads=n, **base)).digest()
                   for n in (threads, workers)]
        assert seen == [] and digests[0] == digests[1]

    def test_sequence_start_rejected(self):
        cfg = SdeConfig(dt=0.01, n_steps=10, n_trajectories=2, seed=1)
        with pytest.raises(TypeError, match="PhasePoint"):
            simulate_ensemble(make_params(1.0, 0.1), cfg, initial=(1.0, 0.0))
        # a NaN point start used to return all-NaN moments, and a text one was parsed
        for x in (math.nan, "1"):
            with pytest.raises(ValueError, match="^x must be"):
                simulate_ensemble(make_params(1.0, 0.1), cfg, initial=PhasePoint(x, 0.0))

    def test_float32_step_computed_in_float64(self):
        # a float32 dt used to set float32 arithmetic in the chain's linear map:
        # the covariances read 6.5e-6 apart
        params = make_params(5.0, 0.25)
        narrow = SdeConfig(dt=np.float32(0.01), n_steps=400, n_trajectories=300, seed=3)
        wide = SdeConfig(dt=float(np.float32(0.01)), n_steps=400, n_trajectories=300, seed=3)
        assert type(narrow.dt) is float and narrow == wide
        assert (simulate_ensemble(params, narrow).digest()
                == simulate_ensemble(params, wide).digest())

    def test_seed_range(self):
        # Philox key words >= 2**63 would pass through float64: 2**63 and
        # 2**63 + 1 gave the same stream and 2**64 raised OverflowError
        for seed in (-1, 2 ** 63, 2 ** 63 + 1, 2 ** 64):
            with pytest.raises(ValueError):
                SdeConfig(dt=0.01, n_steps=10, n_trajectories=2, seed=seed)
        top = SdeConfig(dt=0.01, n_steps=10, n_trajectories=2, seed=2 ** 63 - 1)
        below = SdeConfig(dt=0.01, n_steps=10, n_trajectories=2, seed=2 ** 63 - 2)
        params = make_params(1.0, 0.1)
        assert simulate_ensemble(params, top).digest() != simulate_ensemble(params, below).digest()

    def test_record_indices_cover_endpoints(self):
        cfg = SdeConfig(dt=0.01, n_steps=1003, n_trajectories=10, seed=1, record_every=100)
        idx = cfg.record_indices()
        assert idx[0] == 0
        assert idx[-1] == 1003


class TestDeterministicLimit:
    def test_noiseless_rotation_matches_flow(self):
        # mu = 0, beta = 0, point start: pure rotation with bounded energy wobble
        params = ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=0.0)
        d = derive(params)
        cfg = SdeConfig(dt=0.005, n_steps=int(4 * math.pi / 0.005), n_trajectories=1,
                        seed=7, record_every=314)
        report = simulate_ensemble(params, cfg, initial=PhasePoint(1.0, 0.0))
        for i, t in enumerate(report.times):
            expected = classical_flow(d, float(t)) @ (1.0, 0.0)
            np.testing.assert_allclose(report.mean[i], expected, atol=4e-3)
        energy = report.mean[:, 0] ** 2 + report.mean[:, 1] ** 2
        assert np.max(np.abs(energy - 1.0)) < 2.5 * 0.005  # O(omega*dt) wobble

    def test_mean_envelope_decays_at_half_friction_rate(self):
        # noiseless displaced start recorded at full reduced periods
        params = ModelParams(mass=1.0, omega=1.0, beta=0.2, mu=0.0)
        d = derive(params)
        period = 2.0 * math.pi / d.omega_damped
        dt = period / 1250
        cfg = SdeConfig(dt=dt, n_steps=5 * 1250, n_trajectories=1, seed=3,
                        record_every=1250)
        report = simulate_ensemble(params, cfg, initial=PhasePoint(3.0, 0.0))
        amp = np.hypot(report.mean[:, 0], report.mean[:, 1])
        rate = -np.polyfit(report.times, np.log(amp), 1)[0]
        assert rate == pytest.approx(params.beta / 2.0, rel=0.01)


class TestMoments:
    def test_thermalisation_second_moments(self):
        # mu = 2 m beta theta drives Var(q) -> theta/(m w^2), Var(P) -> m theta
        params = ModelParams(mass=1.0, omega=1.0, beta=0.3, theta=2.0)
        n = 20000
        cfg = SdeConfig(dt=0.005, n_steps=4000, n_trajectories=n, seed=11,
                        record_every=4000)
        report = simulate_ensemble(params, cfg)
        # dimensionless: Var(X) = Var(y) = D/2 = theta/(hbar*omega)
        half_d = 2.0
        se = half_d * math.sqrt(2.0 / (n - 1))
        assert abs(report.cov[-1, 0, 0] - half_d) < 4 * se
        assert abs(report.cov[-1, 1, 1] - half_d) < 4 * se
        assert abs(report.cov[-1, 0, 1]) < 4 * half_d / math.sqrt(n - 1)

    def test_displaced_mean_tracks_flow_within_errors(self):
        params = ModelParams(mass=1.0, omega=1.0, beta=0.1, theta=0.5)
        d = derive(params)
        n = 20000
        cfg = SdeConfig(dt=0.005, n_steps=3000, n_trajectories=n, seed=5,
                        record_every=600)
        start = Gaussian2D(np.array([2.0, -1.0]), 0.5 * np.eye(2))
        report = simulate_ensemble(params, cfg, initial=start)
        for i, t in enumerate(report.times):
            expected = classical_flow(d, float(t)) @ start.mean
            np.testing.assert_allclose(report.mean[i], expected,
                                       atol=4.5 * float(np.max(report.se_mean[i])))

    def test_standard_errors_scale_with_ensemble_size(self):
        params = ModelParams(mass=1.0, omega=1.0, beta=0.2, theta=1.0)
        reports = [simulate_ensemble(params, SdeConfig(dt=0.01, n_steps=500,
                                                       n_trajectories=n, seed=21,
                                                       record_every=500))
                   for n in (2000, 8000)]
        ratio = reports[0].se_mean[-1] / reports[1].se_mean[-1]
        np.testing.assert_allclose(ratio, 2.0, rtol=0.25)

    def test_weak_order_one(self):
        # the semi-implicit chain's exact moments carry an O(dt) bias against
        # the propagator, and the ensemble samples exactly that chain
        params = ModelParams(mass=1.0, omega=1.0, beta=0.1, theta=1.0)
        d = derive(params)
        start = ground_state()
        t_end = 10.0  # beta*t = 1
        flow = classical_flow(d, t_end)
        exact = flow @ start.cov @ flow.T + propagator(d, t_end).cov_physical
        biases = []
        for dt in (0.02, 0.01):
            _, cov = scheme_moments(params, dt, int(round(t_end / dt)), start.mean, start.cov)
            biases.append((np.trace(cov) - np.trace(exact)) / np.trace(exact))
        assert biases[0] > 0 and biases[1] > 0
        assert biases[0] / biases[1] == pytest.approx(2.0, abs=0.3)

        n, dt = 30000, 0.02
        n_steps = int(round(t_end / dt))
        report = simulate_ensemble(params, SdeConfig(dt=dt, n_steps=n_steps, n_trajectories=n,
                                                     seed=31, record_every=n_steps))
        mean, cov = scheme_moments(params, dt, n_steps, start.mean, start.cov)
        diffs = (report.mean[-1, 0] - mean[0], report.mean[-1, 1] - mean[1],
                 report.cov[-1, 0, 0] - cov[0, 0], report.cov[-1, 0, 1] - cov[0, 1],
                 report.cov[-1, 1, 1] - cov[1, 1])
        ses = (math.sqrt(cov[0, 0] / n), math.sqrt(cov[1, 1] / n),
               cov[0, 0] * math.sqrt(2.0 / (n - 1)),
               math.sqrt((cov[0, 0] * cov[1, 1] + cov[0, 1] ** 2) / (n - 1)),
               cov[1, 1] * math.sqrt(2.0 / (n - 1)))
        assert np.all(np.abs(np.array(diffs) / np.array(ses)) < 4.0), np.array(diffs) / ses


_CORRELATED = Gaussian2D(np.array([0.7, -0.4]), np.array([[1.3, 0.4], [0.4, 0.8]]))
_STARTS = {"ground": None, "gaussian": _CORRELATED, "point": PhasePoint(1.0, 0.5)}


def _layout_cases(counts, steps):
    # every trajectory count meets every step count; starts and strides cycle
    # so that each (start, stride) pair occurs too
    return [(n, ns, list(_STARTS)[(i + j) % 3], (0, 1, 7)[(i + 2 * j) % 3])
            for i, n in enumerate(counts) for j, ns in enumerate(steps)]


_G, _I = langevin._GROUP, langevin._INTERVALS
# group edges and the step counts of the earlier chunked layouts (edges at
# 1000 and 4000 steps), plus draw-table edges: at record_every = 1, 2047 and
# 2048 steps fill one table, 2049 steps two and 4097 steps three
_LAYOUT_CASES = sorted(set(_layout_cases((1, _G - 1, _G + 1, 4097), (1, 3999, 4000, 4001, 2501))
                           + _layout_cases((1, 511, 513, 4097), (1, 999, 1000, 1001, 2501))
                           + [(_G + 1, _I - 1, "gaussian", 1), (_G - 1, _I, "point", 1),
                              (_G + 1, _I + 1, "ground", 1), (3, 2 * _I + 1, "gaussian", 1)]))
# the record-interval lengths of those cases, and of the benchmark's ensemble (320)
_LENGTHS = sorted({n for _, steps, _, every in _LAYOUT_CASES
                   for n in np.diff(SdeConfig(dt=0.01, n_steps=steps, n_trajectories=1, seed=0,
                                              record_every=every).record_indices()).tolist()}
                  | {320})


def _moments(sums, n):
    """Mean and covariance from (nout, 5) sums, in ``simulate_ensemble``'s arithmetic."""
    mean = sums[:, :2] / n
    bessel = n / (n - 1.0) if n > 1 else 1.0
    cov = np.empty((len(sums), 2, 2))
    cov[:, 0, 0] = (sums[:, 2] / n - mean[:, 0] ** 2) * bessel
    cov[:, 0, 1] = cov[:, 1, 0] = (sums[:, 3] / n - mean[:, 0] * mean[:, 1]) * bessel
    cov[:, 1, 1] = (sums[:, 4] / n - mean[:, 1] ** 2) * bessel
    return mean, cov


class TestNoiseLayout:
    @pytest.mark.parametrize("length", _LENGTHS)
    def test_interval_law_matches_step_recursion(self, length):
        # (A**L, S_L) by doubling, rounded once from double-double, against
        # the step recursion, whose own rounding is nearly all of the gap:
        # the worst seen here is 4.9e-15, at L = 320
        params = ModelParams(mass=1.0, omega=1.0, beta=0.25, theta=1.5)
        law = langevin._interval_law(langevin._chain_step(params, 0.01), length)
        flow, noise = interval_law(params, 0.01, length)
        assert np.max(np.abs(np.reshape(law[:4], (2, 2)) - flow)) <= 1e-14 * np.max(np.abs(flow))
        s00, s01, s11 = law[4:]
        cov = np.array([[s00, s01], [s01, s11]])
        assert np.max(np.abs(cov - noise)) <= 1e-14 * np.max(np.abs(noise))
        # the draws' factor is the lower Cholesky root of S_L, rank one at L = 1
        *_, l00, l10, l11 = langevin._interval_map(law)
        assert l00 > 0.0 and l11 >= 0.0 and (l11 > 0.0) == (length > 1)
        root = np.array([[l00, 0.0], [l10, l11]])
        assert np.max(np.abs(root @ root.T - cov)) <= 4 * EPS * np.max(np.abs(cov))

    @pytest.mark.parametrize("n, steps, start, record_every", _LAYOUT_CASES)
    def test_block_sums_equal_column_fill_oracle(self, n, steps, start, record_every):
        # the groups read the same draws as fresh per-trajectory streams in an
        # interval-by-interval loop, and sum them in another order, with
        # (A**L, S_L) by doubling instead of by the step recursion: the
        # moments agree to rounding
        params = ModelParams(mass=1.0, omega=1.0, beta=0.25, theta=1.5)
        cfg = SdeConfig(dt=0.01, n_steps=steps, n_trajectories=n, seed=77,
                        record_every=record_every)
        report = simulate_ensemble(params, cfg, initial=_STARTS[start])
        mean0, _, root = langevin._start_moments(_STARTS[start])
        mean, cov = _moments(run_interval_columns(params, cfg, mean0, root), n)
        scale = float(np.max(np.abs(mean) + np.sqrt(np.abs(np.diagonal(cov, axis1=1, axis2=2)))))
        assert np.max(np.abs(report.mean - mean)) <= 1e-13 * scale
        assert np.max(np.abs(report.cov - cov)) <= 1e-13 * scale ** 2

    @pytest.mark.parametrize("seed", [0, 77, 2 ** 63 - 1])
    def test_stream_reset_equals_fresh_generator(self, seed):
        # one generator reset per trajectory draws what a fresh one draws, from
        # any stream position, a half-used buffer and a cached 32-bit word too
        bitgen = Philox(key=[1, 2])
        gen = Generator(bitgen)
        reset = langevin._stream_reset(bitgen, seed)
        for index in (0, 1, _G - 1, _G, 10 ** 6, 2 ** 63 - 1):
            gen.standard_normal(3)
            gen.integers(0, 7, dtype=np.uint32)
            reset(index)
            fresh = Generator(Philox(key=[seed, index]))
            assert np.array_equal(gen.standard_normal(9), fresh.standard_normal(9)), index

    def test_start_root_squares_to_the_covariance(self):
        # the closed-form principal root, at unit, tiny and huge scales, and
        # for singular and zero covariances
        for cov in ([[1.3, 0.4], [0.4, 0.8]], [[0.5, 0.0], [0.0, 0.5]], [[1.0, 1.0], [1.0, 1.0]],
                    [[4.0, -2.0], [-2.0, 1.0]], [[0.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]],
                    [[1e-300, 0.0], [0.0, 1e-300]], [[3e-310, 1e-310], [1e-310, 2e-310]],
                    [[1e300, 5e299], [5e299, 1e300]]):
            cov = np.array(cov)
            root = langevin._sqrt_psd(cov)
            assert np.array_equal(root, root.T)
            # subnormal products keep only an absolute accuracy of a few 5e-324
            tol = 8 * EPS * np.max(np.abs(cov)) + 4 * 5e-324
            assert np.max(np.abs(root @ root.T - cov)) <= tol, cov

    def test_noise_free_mean_follows_the_chain(self):
        # A**7 composes over 1143 record intervals and a last one of 2 steps;
        # the map's rounding adds up over them
        params = ModelParams(mass=1.0, omega=1.0, beta=0.25, mu=0.0)
        cfg = SdeConfig(dt=0.01, n_steps=8003, n_trajectories=3, seed=4, record_every=7)
        report = simulate_ensemble(params, cfg, initial=PhasePoint(1.0, 0.5))
        mean, steps = np.array([1.0, 0.5]), 0
        for k, step in enumerate(cfg.record_indices()):
            mean, _ = scheme_moments(params, cfg.dt, int(step) - steps, mean, np.zeros((2, 2)))
            steps = int(step)
            assert np.max(np.abs(report.mean[k] - mean)) <= 1e-13 * np.max(np.abs(mean)), k

    def test_cost_split_recorded_outside_digest(self):
        params = ModelParams(mass=1.0, omega=1.0, beta=0.25, theta=1.5)
        cfg = SdeConfig(dt=0.01, n_steps=50, n_trajectories=600, seed=3, threads=2)
        report = simulate_ensemble(params, cfg)
        assert report.noise_s > 0.0
        assert report.step_s > 0.0
        other = dataclasses.replace(report, noise_s=2.0 * report.noise_s, step_s=0.0)
        assert other.digest() == report.digest()


_GOLDEN_DIGEST = "48a826e99149f865da8c596dd10d45f7a68245c6139be1479131759970277d4b"


def _golden_report(threads):
    params = ModelParams.from_dimensionless(5.0, 0.25)
    cfg = SdeConfig(dt=0.005, n_steps=2501, n_trajectories=4097, seed=12345,
                    record_every=7, threads=threads)
    return simulate_ensemble(params, cfg, initial=_CORRELATED)


class TestDeterminism:
    def test_golden_digest(self):
        """The digest of one fixed ensemble is pinned across versions.

        Equal digests across thread counts do not show that a later version
        still draws the same numbers; this literal does.  Changing it is a
        declared contract change of the Monte-Carlo streams (ROADMAP item
        11) that CHANGES.md must state and justify, not a value to refresh.
        """
        for threads in (1, 3):
            assert _golden_report(threads).digest() == _GOLDEN_DIGEST

    @pytest.mark.parametrize("n, steps, record_every, digest", [
        # a ragged last group of 200 in a block of its own after one of 16
        # groups; one of 255, alone; one of 255 closing a 16-group block; one
        # of 200, alone
        (4296, 400, 0, "81b4fcb468c043a8e5ef122ce061c77043e0752275b2586feb2c6542f7a7beff"),
        (255, 300, 7, "0795f69b32390edf0ee69742fe83cf249e7579b3f7ef3d5cf35296e0f7cf9ab3"),
        (4095, 300, 0, "bd9cd8a71a739aa2c0c7420ff4fcc48564c3c3c343be8827c89b54f94cad2910"),
        (200, 300, 0, "b6a3f943e286a390dbf3d2ebb9605ba8eb28284ff41a6c41375420732e2a0287"),
        # five blocks, a ragged group of 29; 12-group blocks, a ragged group
        # of 129; one-group blocks over two draw tables, a ragged group of 130
        (19997, 800, 0, "132f6dfaa8d7dc8a32403178242916d9809595898f1537019c44c1e54bbf19e5"),
        (4225, 160, 1, "9264c52b683f5fd872eebca5b00efe8fb37db0ca438e687218d7b6dd654c8a1e"),
        (130, 3000, 1, "d16d72c40af70fe7c546107dfe1ec21e03d29e21f47e8d9a4619d8e5550244dc"),
        # the block width switches: 16 groups at 128 intervals, 15 at 129,
        # one at 2048 (one table) and 2049 (two tables)
        (4296, 128, 1, "fd0cf80e12242e5d40c0cd16cad3d59265d7e102f498d00f578b5f2229e58467"),
        (4296, 129, 1, "34e20cda4fe5b66d2b6cb06541aee6e0180e5f5ea25adb094e52a49e64eedc12"),
        (4296, 2048, 1, "7c744dc829e24712f177bf15a86ecd5c8adc09bff03124c7ac65e33bee300bac"),
        (4296, 2049, 1, "cc70982c5b8f3d345853fb50c9fcd8097003b71f96800a3a2c73df364b45bdff"),
    ])
    def test_block_layout_digest(self, n, steps, record_every, digest):
        """Stepping many groups as one array keeps each group's sums and their merge order.

        Each literal was recorded when every group was stepped on its own.  A
        ragged last group of more than 128 trajectories, summed padded to a
        full group, moves the digest: its pairwise sum splits elsewhere.
        """
        params = ModelParams.from_dimensionless(5.0, 0.25)
        cfg = SdeConfig(dt=0.005, n_steps=steps, n_trajectories=n, seed=12345,
                        record_every=record_every)
        assert simulate_ensemble(params, cfg, initial=_CORRELATED).digest() == digest

    @pytest.mark.parametrize("n, steps, record_every, limit_mib", [
        (20000, 8000, 0, 4.0),            # validate's ensemble
        (4097, 4000, 1, 1.05 * 16.43),    # one-group blocks, two draw tables
    ], ids=["validate", "one-group-blocks"])
    def test_peak_memory(self, n, steps, record_every, limit_mib):
        # wide blocks must not buy speed with table memory: a draw table keeps
        # at most _INTERVALS intervals of _GROUP rows (8 MB); tracing makes the
        # second case ~8x slower than an untraced run
        params = ModelParams.from_dimensionless(5.0, 0.25)
        cfg = SdeConfig(dt=0.005, n_steps=steps, n_trajectories=n, seed=20240817,
                        record_every=record_every)
        tracemalloc.start()
        try:
            simulate_ensemble(params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2 ** 20, peak / 2 ** 20

    def test_golden_digest_under_either_blas_pool(self):
        # the ensemble makes no BLAS call, so no BLAS thread count can move the
        # digest; BLAS reads its thread count once, at numpy's import, so each
        # setting needs a fresh interpreter
        blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
        name = blas.get("blas", {}).get("name", "")
        if "openblas" not in name:
            pytest.skip(f"BLAS {name or 'unknown'!r}: the test sets OpenBLAS's thread count")
        src = str(Path(langevin.__file__).parents[1])
        script = ("import sys; sys.path[:0] = sys.argv[1:]\n"
                  "from test_langevin import _golden_report\n"
                  "print(*(_golden_report(t).digest() for t in (1, 3)))")
        for blas_threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads}
            out = subprocess.run([sys.executable, "-c", script, src, str(Path(__file__).parent)],
                                 env=env, capture_output=True, text=True, check=True,
                                 timeout=300).stdout
            assert out.split() == [_GOLDEN_DIGEST] * 2, blas_threads

    def test_bit_identical_across_runs_and_threads(self):
        params = ModelParams(mass=1.0, omega=1.0, beta=0.25, theta=1.5)
        base = dict(dt=0.01, n_steps=400, n_trajectories=6000, seed=99, record_every=100)
        r1 = simulate_ensemble(params, SdeConfig(threads=1, **base))
        r2 = simulate_ensemble(params, SdeConfig(threads=1, **base))
        r4 = simulate_ensemble(params, SdeConfig(threads=4, **base))
        assert r1.digest() == r2.digest() == r4.digest()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 63 - 1), n=st.integers(2, 600), steps=st.integers(1, 60),
           record_every=st.sampled_from([0, 1, 7]), threads=st.sampled_from([0, 1, 3]))
    def test_any_config_gives_finite_moments_at_any_thread_count(self, seed, n, steps,
                                                                 record_every, threads):
        params = make_params(5.0, 0.25)
        cfg = SdeConfig(dt=0.01, n_steps=steps, n_trajectories=n, seed=seed,
                        record_every=record_every, threads=threads)
        report = simulate_ensemble(params, cfg)
        for moment in (report.mean, report.cov, report.se_mean, report.se_cov):
            assert np.isfinite(moment).all()
        one = simulate_ensemble(params, dataclasses.replace(cfg, threads=1))
        assert report.digest() == one.digest()

    def test_seed_changes_stream(self):
        params = ModelParams(mass=1.0, omega=1.0, beta=0.25, theta=1.5)
        base = dict(dt=0.01, n_steps=200, n_trajectories=2000, record_every=200)
        r1 = simulate_ensemble(params, SdeConfig(seed=1, **base))
        r2 = simulate_ensemble(params, SdeConfig(seed=2, **base))
        assert r1.digest() != r2.digest()


@pytest.fixture(scope="module")
def clean_run():
    params = ModelParams(mass=1.0, omega=1.0, beta=0.3, theta=2.0)
    cfg = SdeConfig(dt=0.005, n_steps=4000, n_trajectories=20000, seed=17,
                    record_every=400)
    return params, simulate_ensemble(params, cfg)


class TestComparison:
    def test_deterministic_corner_passes(self):
        # zero noise, zero friction, point start: agreement up to the
        # integrator's own accuracy, despite zero sampling error
        params = ModelParams(mass=1.0, omega=1.0, beta=0.0, mu=0.0)
        cfg = SdeConfig(dt=0.005, n_steps=2000, n_trajectories=8, seed=2,
                        record_every=500)
        report = simulate_ensemble(params, cfg, initial=PhasePoint(1.0, 0.0))
        verdict = compare_to_propagator(report, derive(params))
        assert verdict.passed
        assert np.all(np.isfinite(verdict.z_scores) | (verdict.z_scores == 0.0))

    def test_clean_run_passes(self, clean_run):
        params, report = clean_run
        verdict = compare_to_propagator(report, derive(params))
        assert verdict.passed, (verdict.max_abs_z, verdict.threshold,
                                verdict.worst_component, verdict.worst_time)

    def test_parameter_guard(self, clean_run):
        params, report = clean_run
        wrong = derive(ModelParams(mass=1.0, omega=1.0, beta=0.31, theta=2.0))
        with pytest.raises(ParameterMismatch):
            compare_to_propagator(report, wrong)

    def test_negative_control_fails(self, clean_run):
        # deliberately wrong friction must be detected
        params, report = clean_run
        wrong = derive(ModelParams(mass=1.0, omega=1.0, beta=0.3 * 1.25, theta=2.0))
        verdict = compare_to_propagator(report, wrong, allow_mismatch=True)
        assert not verdict.passed
        assert verdict.max_abs_z > verdict.threshold

    def test_single_trajectory_rejected(self):
        params = make_params(2.0, 0.3)
        cfg = SdeConfig(dt=0.005, n_steps=20, n_trajectories=1, seed=3)
        report = simulate_ensemble(params, cfg)
        with pytest.raises(ValueError, match="at least 2 trajectories"):
            compare_to_propagator(report, derive(params))

    def test_correlated_start_zscores_bit_for_bit(self):
        # the physical-frame push behind every z-score, pinned for a start whose
        # pushed covariance rounds its two off-diagonals apart
        params = make_params(5.0, 0.25)
        cfg = SdeConfig(dt=0.01, n_steps=400, n_trajectories=512, seed=5, record_every=50)
        report = simulate_ensemble(params, cfg, initial=_CORRELATED)
        z = compare_to_propagator(report, derive(params)).z_scores
        assert hashlib.sha256(z.tobytes()).hexdigest() == (
            "744ef6ac20214a889f273e51480dea3d5f8dfd1b2c86cb3c1f705d1f348c374a")

    def test_zscore_layout(self, clean_run):
        params, report = clean_run
        verdict = compare_to_propagator(report, derive(params))
        assert verdict.z_scores.shape == (len(report.times), 5)
        assert verdict.n_comparisons == verdict.z_scores.size


class TestBonferroniThreshold:
    N_VALUES = sorted(set(range(1, 201))
                      | set(np.unique(np.round(np.logspace(0, 5, 400)).astype(int)).tolist()))

    def test_matches_scipy_normal_quantile(self):
        worst = max(abs(langevin.bonferroni_threshold(n) / bonferroni_threshold_scipy(n) - 1.0)
                    for n in self.N_VALUES)
        assert worst <= 1e-15


class TestReportViews:
    def test_initial_state_recorded(self):
        params = ModelParams(mass=1.0, omega=1.0, beta=0.2, theta=1.0)
        cfg = SdeConfig(dt=0.01, n_steps=50, n_trajectories=500, seed=42)
        start = Gaussian2D(np.array([0.5, 0.5]), 0.6 * np.eye(2))
        report = simulate_ensemble(params, cfg, initial=start)
        np.testing.assert_array_equal(report.initial_mean, start.mean)
        np.testing.assert_array_equal(report.initial_cov, start.cov)
        # ground default
        report0 = simulate_ensemble(params, cfg)
        np.testing.assert_array_equal(report0.initial_cov, ground_state().cov)
