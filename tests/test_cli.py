import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from finlap import spectral
from finlap.cli import main
from finlap.errors import NumericError
from finlap.metrics import kz_torus


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSpectrumCommand:
    def test_kz_torus_closed_form_table(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--metric", "kz-torus", "--eps", "0.6",
                   "--pmax", "2", "--qmax", "2", "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        values = [row["value"] for row in doc["eigenvalues"]]
        assert any(abs(v - 22.4590) < 1e-3 for v in values)
        assert any(abs(v - 28.0735) < 1e-3 for v in values)
        assert doc["meta"]["version"]

    def test_kz_torus_grid_solves_by_dft(self, tmp_path):
        out = tmp_path / "grid.json"
        rc = main(["spectrum", "--metric", "kz-torus", "--eps", "0.3", "--grid", "64",
                   "--out", str(out)])
        assert rc == 0
        meta = read_json(out)["solver_meta"]
        assert meta["solver"] == "fourier"
        assert meta["zero_mode_residual"] <= 1e-12

    def test_flat_torus_closed_form(self, tmp_path):
        out = tmp_path / "flat.json"
        rc = main(["spectrum", "--metric", "kz-torus", "--eps", "0",
                   "--pmax", "1", "--qmax", "1", "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        four_pi2 = 4 * math.pi**2
        rows = doc["eigenvalues"]
        assert rows[0]["value"] == pytest.approx(0.0, abs=1e-12)
        assert rows[1]["value"] == pytest.approx(four_pi2, rel=1e-12)
        assert rows[1]["multiplicity"] == 4
        assert rows[2]["value"] == pytest.approx(2 * four_pi2, rel=1e-12)
        assert rows[2]["multiplicity"] == 4

    def test_kz_sphere_first_eigenvalue(self, tmp_path):
        out = tmp_path / "sphere.json"
        rc = main(["spectrum", "--metric", "kz-sphere", "--eps", "0.3",
                   "--lmax", "10", "--k", "5", "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        values = [row["value"] for row in doc["eigenvalues"]]
        nonzero = [v for v in values if v > 1e-6]
        assert nonzero[0] == pytest.approx(1.82, abs=1e-8)

    @pytest.mark.parametrize("flags", [["--lmax", "-1"], ["--lmax", "3"], ["--k", "0"],
                                       ["--lmax", "4", "--k", "26"]])
    def test_kz_sphere_bad_resolution_is_config_error(self, tmp_path, capsys, flags):
        out = tmp_path / "sphere.json"
        rc = main(["spectrum", "--metric", "kz-sphere", "--eps", "0.3", *flags,
                   "--out", str(out)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--metric", "kz-torus", "--eps", "0.3",
                   "--pmax", "1", "--qmax", "1", "--out", str(out), "--csv"])
        assert rc == 0
        csv_path = tmp_path / "spec.csv"
        assert csv_path.exists()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "eigenvalue,multiplicity"
        assert len(lines) > 2

    def test_determinism_excluding_timestamp(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["spectrum", "--metric", "kz-torus", "--eps", "0.4",
                  "--grid", "16", "--k", "4", "--out", str(out)])
            doc = read_json(out)
            doc["meta"].pop("timestamp")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]


class TestOtherCommands:
    def test_symbol(self, tmp_path):
        out = tmp_path / "sym.json"
        rc = main(["symbol", "--metric", "kz-torus", "--eps", "0.6",
                   "--at", "0.2", "0.3", "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        sig = doc["coefficients"]["sigma"]
        assert sig[0][0] == pytest.approx(0.568889, abs=1e-5)
        assert sig[1][1] == pytest.approx(0.711111, abs=1e-5)

    def test_volume(self, tmp_path):
        out = tmp_path / "vol.json"
        rc = main(["volume", "--metric", "kz-torus", "--eps", "0.6",
                   "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        assert doc["coefficients"]["volume_density"] == pytest.approx(1.953125, abs=1e-6)
        assert doc["coefficients"]["defect"] < 1e-5

    def test_geodesic_csv(self, tmp_path):
        out = tmp_path / "geo.json"
        rc = main(["geodesic", "--metric", "kz-torus", "--eps", "0.6",
                   "--start", "0", "0", "0", "--t-end", "0.5", "--dt", "0.01",
                   "--out", str(out), "--csv"])
        assert rc == 0
        doc = read_json(out)
        assert doc["trajectory"]["status"] == "ok"
        assert (tmp_path / "geo.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--t-end", "nan"), ("--t-end", "inf"),
                                             ("--dt", "nan"), ("--dt", "0"),
                                             ("--dt", "-0.1")])
    def test_geodesic_bad_time_is_config_error(self, tmp_path, capsys, flag, value):
        argv = ["geodesic", "--metric", "kz-torus", "--eps", "0.6",
                "--start", "0", "0", "0", "--out", str(tmp_path / "geo.json")]
        rc = main(argv + [flag, value])
        assert rc == 2
        assert f"config error: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "geo.json").exists()

    @pytest.mark.parametrize("command", ["symbol", "volume"])
    @pytest.mark.parametrize("at", [["nan", "0"], ["0", "inf"], ["inf", "nan"]])
    def test_non_finite_at_is_config_error(self, tmp_path, capsys, command, at):
        out = tmp_path / "at.json"
        rc = main([command, "--metric", "kz-torus", "--eps", "0.6",
                   "--at", *at, "--out", str(out)])
        assert rc == 2
        assert f"config error: --at must be finite, got {' '.join(map(str, map(float, at)))}" \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("start", [["0", "0", "nan"], ["0", "0", "inf"],
                                       ["nan", "0", "0"]])
    def test_geodesic_non_finite_start_is_config_error(self, tmp_path, capsys, start):
        out = tmp_path / "geo.json"
        rc = main(["geodesic", "--metric", "kz-torus", "--eps", "0.6",
                   "--start", *start, "--out", str(out)])
        assert rc == 2
        assert "config error: --start" in capsys.readouterr().err
        assert not out.exists()

    def test_block_suites_match_per_sample_checks(self):
        # the suites draw their samples in order and check them in block
        # calls: same rows as one call per sample, same stream afterwards
        import finlap as fl
        import finlap.verify as verify_mod

        rng = np.random.default_rng(11)
        ht_rows = verify_mod.suite_holmes_thompson({}, rng)
        reeb_rows = verify_mod.suite_reeb({}, rng)
        after = rng.random()

        ref = np.random.default_rng(11)
        m = verify_mod._default_metric({})
        worst = 0.0
        for _ in range(20):
            x = verify_mod._random_point(m, ref)
            worst = max(worst, abs(fl.holmes_thompson_density(m, x)
                                   - fl.volume_density(m, x)))
        assert ht_rows[0].defect == pytest.approx(worst, rel=1e-9, abs=1e-15)
        for k, m in enumerate(verify_mod._metric_family({})):
            worst_a = worst_da = 0.0
            for _ in range(50):
                fp = fl.FiberPoint(verify_mod._random_point(m, ref),
                                   ref.uniform(0.0, 2.0 * math.pi))
                r_a, r_da = fl.hilbert.reeb_residuals_profile(m, fp.base, [fp.phi])
                worst_a, worst_da = max(worst_a, r_a[0]), max(worst_da, r_da[0])
            assert reeb_rows[2 * k].defect == pytest.approx(worst_a, rel=1e-9, abs=1e-15)
            assert reeb_rows[2 * k + 1].defect == pytest.approx(worst_da, rel=1e-9, abs=1e-15)
        assert ref.random() == after

    def test_verify_pass(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["verify", "--suite", "randers-symbol", "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        assert all(row["status"] == "pass" for row in doc["report"])

    def test_verify_legendre(self, tmp_path):
        rc = main(["verify", "--suite", "legendre", "--out", str(tmp_path / "l.json")])
        assert rc == 0

    def test_verify_holmes_thompson_value(self, tmp_path):
        out = tmp_path / "ht.json"
        rc = main(["verify", "--suite", "holmes-thompson", "--metric", "kz-torus",
                   "--eps", "0.6", "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        checks = {row["check"]: row for row in doc["report"]}
        assert checks["kz-torus-density-value"]["status"] == "pass"

    def test_unknown_suite_is_config_error(self):
        assert main(["verify", "--suite", "no-such-suite"]) == 2

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        from finlap.errors import ConfigError
        from finlap.verify import run_suite

        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            run_suite("randers-symbol", seed=-1)
        out = tmp_path / "neg.json"
        rc = main(["verify", "--suite", "randers-symbol", "--seed", "-1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("finlap: config error: seed must be non-negative")
        assert "Traceback" not in err
        assert not out.exists()

    def test_python_dash_m(self, tmp_path):
        import finlap

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(finlap.__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / "m.json"
        done = subprocess.run([sys.executable, "-m", "finlap", "verify", "--suite",
                               "randers-symbol", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert all(row["status"] == "pass" for row in read_json(out)["report"])
        # the command's exit code is the process's
        done = subprocess.run([sys.executable, "-m", "finlap", "verify", "--suite",
                               "no-such-suite"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("finlap: config error:")

    def test_verify_failure_exit_code(self, monkeypatch, tmp_path):
        import finlap.verify as verify_mod

        def failing_suite(params, rng):
            return [verify_mod.CheckResult.from_defect("always-fails", 1.0, 1e-9)]

        monkeypatch.setitem(verify_mod.SUITES, "synthetic-failure", failing_suite)
        rc = main(["verify", "--suite", "synthetic-failure",
                   "--out", str(tmp_path / "f.json")])
        assert rc == 1

    def test_verify_rows_carry_suite_seconds(self, tmp_path):
        from finlap.verify import run_suite

        rows = run_suite("holmes-thompson")
        assert len(rows) == 2
        for row in rows:
            assert isinstance(row.seconds, float) and row.seconds >= 0.0
        # one suite, one time
        assert rows[0].seconds == rows[1].seconds
        # the written report stays free of wall times, so its size is
        # the same from run to run
        out = tmp_path / "rep.json"
        rc = main(["verify", "--suite", "holmes-thompson", "--out", str(out), "--csv"])
        assert rc == 0
        for row in read_json(out)["report"]:
            assert set(row) == {"check", "status", "defect", "tolerance"}
        header = (tmp_path / "rep.csv").read_text().splitlines()[0]
        assert header == "check,status,defect,tolerance"

    def test_run_suite_times_each_suite(self, monkeypatch):
        import time

        import finlap.verify as verify_mod

        def suite(pause):
            def run(params, rng):
                time.sleep(pause)
                return [verify_mod.CheckResult.from_defect(f"row{i}", 0.0, 1.0)
                        for i in range(2)]
            return run

        monkeypatch.setattr(verify_mod, "SUITES", {"short": suite(0.0), "long": suite(0.05)})
        rows = verify_mod.run_suite("all")
        assert [r.seconds for r in rows[:2]] == [rows[0].seconds] * 2
        assert [r.seconds for r in rows[2:]] == [rows[2].seconds] * 2
        assert rows[0].seconds >= 0.0 and rows[2].seconds >= 0.05

    def test_metric_kinds_shared_with_verify(self):
        import finlap.verify as verify_mod
        from finlap import catalog
        from finlap.cli import build_metric
        from finlap.errors import ConfigError

        assert build_metric is catalog.build_metric
        m = verify_mod._default_metric({"metric": "randers", "eps": 0.4})
        assert m.kind == "randers" and list(m.theta(None)) == [0.4, 0.0]
        with pytest.raises(ConfigError, match="unknown metric kind"):
            build_metric("no-such-kind", 0.1)
        with pytest.raises(ConfigError, match="unknown metric kind"):
            verify_mod._default_metric({"metric": "no-such-kind"})

    def test_invalid_metric_parameter_numeric_error(self, tmp_path):
        rc = main(["symbol", "--metric", "kz-torus", "--eps", "1.7",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3


class TestSolverFailures:
    """A failed eigensolve is a numeric error: exit 3 and one line on stderr."""

    @staticmethod
    def _assert_numeric_error(rc, capsys, what):
        assert rc == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("finlap: numeric error:") and what in err
        assert len(err.splitlines()) == 1

    def test_arpack_no_convergence(self, monkeypatch):
        # every torus metric the CLI builds is translation-invariant and
        # solves by DFT, so ARPACK is reached through the library only;
        # test_lapack_failure covers the CLI's exit 3
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence after 10 iterations",
                                           np.zeros(0), np.zeros((16, 0)))

        monkeypatch.setattr(spectral.spla, "eigsh", no_convergence)
        prob = spectral.assemble_eigenproblem(kz_torus(0.3), spectral.TorusGridBasis(n=16))
        with pytest.raises(NumericError, match="did not converge"):
            spectral.solve_eigen(prob, 10, method="lanczos")

    def test_lapack_failure(self, tmp_path, capsys, monkeypatch):
        def breakdown(*args, **kwargs):
            raise np.linalg.LinAlgError("the leading minor of order 3 is not positive")

        monkeypatch.setattr(spectral.sla, "eigh", breakdown)
        rc = main(["spectrum", "--metric", "kz-sphere", "--eps", "0.3", "--lmax", "6",
                   "--out", str(tmp_path / "x.json")])
        self._assert_numeric_error(rc, capsys, "dense eigensolve failed")


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "metric": {"kind": "kz-torus", "eps": 0.6},
            "task": "spectrum",
            "resolution": {"pmax": 1, "qmax": 1},
            "output": str(tmp_path / "from_cfg.json"),
        }))
        rc = main(["spectrum", "--config", str(cfg)])
        assert rc == 0
        doc = read_json(tmp_path / "from_cfg.json")
        assert doc["config_echo"]["metric"]["eps"] == 0.6
        # flag overrides the file value
        rc = main(["spectrum", "--config", str(cfg), "--eps", "0.3",
                   "--out", str(tmp_path / "override.json")])
        assert rc == 0
        doc2 = read_json(tmp_path / "override.json")
        assert doc2["config_echo"]["metric"]["eps"] == 0.3

    def test_missing_config_file(self, tmp_path):
        assert main(["spectrum", "--config", str(tmp_path / "nope.json")]) == 2

    def test_config_metric_tensors_and_conformal(self, tmp_path):
        # randers with explicit g/theta; conformal factor log(2) scales the
        # symbol by 1/4 and the volume by 4
        cfg = tmp_path / "m.json"
        cfg.write_text(json.dumps({
            "metric": {"kind": "randers", "g": [[1.0, 0.0], [0.0, 1.0]],
                       "theta": [0.6, 0.0], "conformal": math.log(2.0)},
        }))
        out = tmp_path / "sym.json"
        rc = main(["symbol", "--config", str(cfg), "--at", "0.1", "0.2",
                   "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        sig = doc["coefficients"]["sigma"]
        assert sig[0][0] == pytest.approx(25.0 / 18.0 / 4.0, abs=1e-6)
        assert doc["coefficients"]["vol_density"] == pytest.approx(4.0, abs=1e-6)

    def test_bad_config_tensor_shape(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"metric": {"kind": "randers", "g": [1, 2, 3]}}))
        rc = main(["symbol", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 2

    @pytest.mark.parametrize("section, key, value", [
        ("metric", "eps", "abc"),
        ("resolution", "grid_n", 16.7),
        ("resolution", "k", 3.9),
        ("resolution", "fiber_n", 64.5),
        ("resolution", "grid_n", True),
    ], ids=["eps-abc", "grid_n-16.7", "k-3.9", "fiber_n-64.5", "grid_n-true"])
    def test_non_numeric_config_value_is_config_error(self, tmp_path, capsys,
                                                       section, key, value):
        # an integer setting must be integral: no silent truncation
        cfg = tmp_path / "bad.json"
        doc = {"metric": {"kind": "kz-torus"}, "resolution": {}}
        doc[section][key] = value
        cfg.write_text(json.dumps(doc))
        rc = main(["symbol", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("finlap: config error:") and f"{section}.{key}" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o.json").exists()

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "x.json"
        rc = main(["spectrum", "--metric", "kz-torus", "--eps", "0.3", "--pmax", "1",
                   "--qmax", "1", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("finlap: config error: cannot write output")
        assert len(err.splitlines()) == 1

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        out = tmp_path / "x.json"
        main(["spectrum", "--metric", "kz-torus", "--eps", "0", "--pmax", "1",
              "--qmax", "1", "--out", str(out)])
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".finlap-")]
        assert leftovers == []
