import hashlib
import subprocess
import sys

import numpy as np
import pytest

from wigosc import ModelParams, derive, longtime_survival, nofriction_survival, phase_expectation
from wigosc.cli import main
from wigosc.phaseops import canonical_phase_matrix, spectrum


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
        # every curve starts from the centred ground state, whose phase mean
        # is closed form: there is no quadrature tolerance to set
        with pytest.raises(SystemExit) as err:
            main(["phase-mean", "--tol", "1e-10"])
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
    """SHA-256 of each CSV body at the default configuration, ``#`` lines dropped.

    Refactors keep CLI output byte-identical; these literals show it.  The
    digits come from this package's numerics and the installed numpy, scipy
    and LAPACK.  Changing a literal is a declared contract change that
    CHANGES.md must state and justify, not a value to refresh.
    """

    GOLDEN = {
        "survival": "56f4e34ec7c7b2b28e8e109eb45c16557563c255c95f3af4514aa8a793813239",
        "phase-mean": "ef9395e7c61c086bff62184b04b262d89a7408f99af700a761741864fd4be296",
        "spectrum": "ca618423826c59fac3fd8ec539508d9616d58946b15ed5ce654599c0d2534270",
    }

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_default_csv_body(self, command, tmp_path):
        out = tmp_path / "out.csv"
        assert main([command, "--out", str(out)]) == 0
        body = "".join(line + "\n" for line in out.read_text().splitlines()
                       if not line.startswith("#"))
        assert hashlib.sha256(body.encode()).hexdigest() == self.GOLDEN[command]


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
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("WIGOSC_THREADS", threads)
            path = tmp_path / f"t{threads}.txt"
            rc = main(TestValidateCommand.FAST + ["--out", str(path)])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("raw", ["two", "-3"])
    def test_bad_thread_count_exits_2(self, tmp_path, monkeypatch, capsys, raw):
        monkeypatch.setenv("WIGOSC_THREADS", raw)
        rc = main(TestValidateCommand.FAST + ["--out", str(tmp_path / "x.txt")])
        assert rc == 2
        assert "WIGOSC_THREADS" in capsys.readouterr().err


class TestStartup:
    def test_import_skips_heavy_scipy_modules(self):
        # scipy.stats and scipy.signal each cost most of a second to import
        code = ("import sys, wigosc; "
                "print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.strip() == "[]"
