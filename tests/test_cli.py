import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wigosc import (ModelParams, derive, longtime_survival, nofriction_survival, phase_expectation,
                    propagator, survival_probability)
from wigosc.cli import main
from wigosc.phaseops import canonical_phase_matrix, physical_phase_matrix, spectrum

EPS = float(np.finfo(float).eps)


def read_csv(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


class TestSurvivalCommand:
    def test_columns_and_anchor_values(self, tmp_path):
        out = tmp_path / "survival.csv"
        rc = main(["survival", "--tmax", "6", "--dt-out", "0.5", "--out", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == ["omega_t", "exact", "longtime_approx", "nofriction"]
        assert any(line.startswith("# config:") for line in meta)
        assert any(line.startswith("# git:") for line in meta)
        first = [float(v) for v in rows[0]]
        assert first[0] == 0.0
        assert first[1] == 1.0   # exact survival starts at unity
        assert first[3] == 1.0   # zero-friction curve too

    def test_curves_match_library_calls(self, tmp_path):
        out = tmp_path / "survival.csv"
        main(["survival", "--D", "5", "--B", "0.05", "--No", "0.25",
              "--tmax", "4", "--dt-out", "1.0", "--out", str(out)])
        _, _, rows = read_csv(out)
        d = derive(ModelParams.from_dimensionless(5.0, 0.05))
        d_free = derive(ModelParams.from_dimensionless(5.0, 0.0, 0.25))
        for row in rows:
            t, exact, longt, free = (float(v) for v in row)
            assert longt == pytest.approx(longtime_survival(d, t), rel=1e-12)
            assert free == pytest.approx(nofriction_survival(d_free, t), rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["survival", "--tmax", "3", "--dt-out", "0.25"]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestPhaseMeanCommand:
    def test_default_runs_three_curves(self, tmp_path):
        out = tmp_path / "pm.csv"
        rc = main(["phase-mean", "--tmax", "1.0", "--dt-out", "0.5", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["curve", "omega_t", "phase_expectation"]
        assert {r[0] for r in rows} == {"A", "B", "C"}
        starts = [float(r[2]) for r in rows if float(r[1]) == 0.0]
        assert all(abs(v) < 1e-10 for v in starts)

    def test_custom_curve_matches_library(self, tmp_path):
        out = tmp_path / "pm.csv"
        main(["phase-mean", "--D", "5", "--B", "0.05", "--tmax", "2",
              "--dt-out", "1.0", "--out", str(out)])
        _, _, rows = read_csv(out)
        d = derive(ModelParams.from_dimensionless(5.0, 0.05))
        for row in rows:
            assert row[0] == "custom"
            t, val = float(row[1]), float(row[2])
            assert val == pytest.approx(phase_expectation(None, d, t), abs=1e-12)


    def test_tol_flag_rejected(self):
        # phase-mean's curves are closed form, and validate's one angle
        # integral runs at the library tolerance: neither has one to set
        for command in ("phase-mean", "validate"):
            with pytest.raises(SystemExit) as err:
                main([command, "--tol", "1e-10"])
            assert err.value.code == 2


class TestSpectrumCommand:
    def test_eigenvalue_count_and_zero_time_case(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--nmax", "60", "--beta-t", "0,5", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert header == ["beta_t", "index", "eigenvalue"]
        by_bt = {}
        for row in rows:
            by_bt.setdefault(float(row[0]), []).append(float(row[2]))
        assert set(by_bt) == {0.0, 5.0}
        assert all(len(v) == 60 for v in by_bt.values())
        # beta_t = 0 column reproduces the canonical spectrum
        canonical = spectrum(canonical_phase_matrix(60)).eigenvalues
        np.testing.assert_allclose(by_bt[0.0], canonical, atol=1e-12)


class TestGoldenBytes:
    """Each CSV body at the default configuration, ``#`` lines dropped.

    Refactors keep CLI output byte-identical; these pins show it.  The
    digits come from this package's numerics and the installed numpy and
    scipy.  ``survival`` and ``phase-mean`` depend on no BLAS kernel, which
    ``test_gaussian_pins_under_two_blas_kernels`` checks, so their SHA-256 is
    pinned.  ``spectrum``'s eigenvalues come from LAPACK, whose last digits
    follow the BLAS kernel the CPU selects, so its rows are recorded in
    ``golden_spectrum.csv``: the header, ``beta_t`` and ``index`` columns
    exact, and each eigenvalue within twice its ``Spectrum.residual``, since
    the recorded and the new value each lie within the certificate of the
    exact one.  Changing a pin is a declared contract change that CHANGES.md
    must state and justify, not a value to refresh.
    """

    GOLDEN = {
        "survival": "84dfe23ea782df2b944ebd11ba623a90634c98d0e1ad137de8c5847d4030e99a",
        "phase-mean": "8bbeb72aee49e3394043500311a01633e365039c54ac7760986525f714fd159f",
    }
    SPECTRUM_ROWS = Path(__file__).with_name("golden_spectrum.csv")

    @pytest.mark.parametrize("command", sorted([*GOLDEN, "spectrum"]))
    def test_default_csv_body(self, command, tmp_path):
        out = tmp_path / "out.csv"
        assert main([command, "--out", str(out)]) == 0
        if command == "spectrum":
            self._assert_spectrum_rows(out)
            return
        body = "".join(line + "\n" for line in out.read_text().splitlines()
                       if not line.startswith("#"))
        assert hashlib.sha256(body.encode()).hexdigest() == self.GOLDEN[command]

    def _assert_spectrum_rows(self, out):
        _, header, rows = read_csv(out)
        _, want_header, want_rows = read_csv(self.SPECTRUM_ROWS)
        assert header == want_header and len(rows) == len(want_rows)
        residual = {}
        for (bt, idx, value), (want_bt, want_idx, want_value) in zip(rows, want_rows):
            assert (bt, idx) == (want_bt, want_idx)
            if bt not in residual:  # at the default nmax
                residual[bt] = spectrum(physical_phase_matrix(150, float(bt))).residual
            assert abs(float(value) - float(want_value)) <= 2.0 * residual[bt], (bt, idx)

    def test_survival_within_two_eps_of_50_digits(self):
        # the evidence for the survival literal: on the default grid each exact
        # value is within 2 eps of the same float kernel (flow, cov_physical and
        # beta*t) carried through push, stretch and overlap in 50 digits
        mpmath = pytest.importorskip("mpmath")
        d = derive(ModelParams.from_dimensionless(5.0, 0.05))
        half = mpmath.mpf(0.5)
        with mpmath.workdps(50):
            for t in np.arange(0.0, 30.0 + 0.05, 0.1).tolist():
                kern = propagator(d, t)
                f = mpmath.matrix(kern.flow.tolist())
                c = f * f.T * half + mpmath.matrix(kern.cov_physical.tolist())
                s = mpmath.exp(d.beta * t)
                det = (s * s * c[0, 0] + half) * (c[1, 1] + half) - (s * c[0, 1]) ** 2
                exact = min(1 / mpmath.sqrt(det), 1)
                assert abs(survival_probability(d, t) - exact) <= 2.0 * EPS * exact, t


class TestValidateCommand:
    FAST = ["validate", "--trajectories", "4096", "--tmax", "20",
            "--dt-sim", "0.01", "--seed", "7"]

    def test_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        rc = main(self.FAST + ["--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "FAIL" not in text
        assert "oracle_moments" in text
        band = next(line for line in text.splitlines() if "spectrum_in_band" in line)
        assert "slack=0" in band and "bound=" in band
        assert text.strip().endswith("checks passed")

    def test_negative_control_fails(self, tmp_path):
        rc = main(self.FAST + ["--perturb-beta", "0.25", "--out",
                               str(tmp_path / "r.txt")])
        assert rc == 1
        assert "FAIL oracle_moments" in (tmp_path / "r.txt").read_text()

    def test_noiseless_frictionless_variant_passes(self, tmp_path):
        # deterministic dynamics only: mu = 2*m*beta*theta = 0
        rc = main(["validate", "--D", "0", "--B", "0", "--trajectories", "2048",
                   "--tmax", "10", "--dt-sim", "0.01", "--seed", "3",
                   "--out", str(tmp_path / "det.txt")])
        assert rc == 0

    def test_overdamped_config_exits_2(self, tmp_path):
        rc = main(["survival", "--B", "3.0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["no-such-command"])
        assert err.value.code == 2


class TestThreadEnvironment:
    def test_thread_count_does_not_change_output(self, tmp_path, monkeypatch):
        # the ensemble runs on the calling thread, whatever the affinity mask holds
        outs = []
        for threads in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=threads: set(range(k)),
                                raising=False)
            path = tmp_path / f"t{threads}.txt"
            rc = main(TestValidateCommand.FAST + ["--out", str(path)])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


# SciPy subpackages that a closed-form start must not load (scipy.integrate
# alone pulls in optimize, linalg and sparse; stats and signal each cost most
# of a second)
HEAVY_SCIPY = ("scipy.special", "scipy.integrate", "scipy.fft", "scipy.optimize",
               "scipy.linalg", "scipy.sparse", "scipy.stats", "scipy.signal")

# One call down each path that reaches a SciPy subpackage on first use
LAZY_CALLS = """
import numpy as np
from wigosc import (ModelParams, coherent_state, delta_matrix_element, derive,
                    g_coefficient, mean_angle, thermal_angle_expectation,
                    variance_diagonal_table)
from wigosc.langevin import bonferroni_threshold
from wigosc.quadrature import integrate
d = derive(ModelParams.from_dimensionless(5.0, 0.25))
values = [integrate(lambda x: np.exp(-x * x), (0.0, 2.0)),
          mean_angle(coherent_state(1.0, 1.0)),
          thermal_angle_expectation(np.cos, d, 2.0),
          [a.tolist() for a in variance_diagonal_table(3)],
          g_coefficient(3, 7),
          delta_matrix_element(2, 5, 0.7, 0.3),
          bonferroni_threshold(130)]
"""


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports wigosc from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120, env=env)
    return out.stdout.strip()


def heavy_loaded_after(statement: str) -> str:
    return run_fresh("import contextlib, io, sys\n"
                     "from wigosc import cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    {statement}\n"
                     f"print(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))")


class TestStartup:
    def test_import_skips_heavy_scipy_modules(self):
        assert heavy_loaded_after("import wigosc") == "[]"

    @pytest.mark.parametrize("command", ["survival", "phase-mean"])
    def test_closed_form_subcommands_skip_heavy_scipy_modules(self, command):
        assert heavy_loaded_after(f"assert cli.main([{command!r}]) == 0") == "[]"

    def test_spectrum_skips_scipy_integrate(self):
        assert "scipy.integrate" not in heavy_loaded_after("assert cli.main(['spectrum']) == 0")

    def test_lazy_paths_match_in_process(self):
        # the FFTs of the variance table are numpy's: scipy.special is all that loads
        cold, loaded = run_fresh(
            LAZY_CALLS + "import sys\nprint(repr(values))\n"
            f"print(sorted(m for m in {HEAVY_SCIPY!r} if m in sys.modules))").split("\n")
        assert loaded == repr(["scipy.special"])
        warm = {}
        exec(LAZY_CALLS, warm)
        assert cold == repr(warm["values"])
