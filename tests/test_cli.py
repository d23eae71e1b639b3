import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import finlap as fl
from conftest import builtin_metrics
from finlap import cli, hilbert, spectral
from finlap.cli import main
from finlap.errors import NumericError
from finlap.measures import DEFAULT_FIBER_N


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

    @pytest.mark.parametrize("lmax, k, sectors", [(40, 6, 3), (6, 49, 7)])
    def test_kz_sphere_records_sectors_solved(self, tmp_path, lmax, k, sectors):
        # the walk over orders stops once no later sector can reach the
        # k-th value; every order is solved when all (lmax + 1)^2 are asked
        out = tmp_path / "sphere.json"
        assert main(["spectrum", "--metric", "kz-sphere", "--eps", "0.3", "--lmax", str(lmax),
                     "--k", str(k), "--out", str(out)]) == 0
        assert read_json(out)["solver_meta"] == {
            "solver": "galerkin-union", "lmax": lmax, "eps": 0.3, "sectors": sectors}

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

    def test_symbol_records_fiber_resolution(self, tmp_path):
        out = tmp_path / "sym.json"
        assert main(["symbol", "--metric", "kz-sphere", "--eps", "0.3", "--at", "1.1", "0.4",
                     "--out", str(out)]) == 0
        coeffs = read_json(out)["coefficients"]
        assert coeffs["fiber_n"] == DEFAULT_FIBER_N
        assert 0.0 < coeffs["fiber_defect"] < 1e-13
        assert coeffs["drift"][0] == pytest.approx(
            float(fl.SphereOperator(0.3).c_phi(1.1)), rel=1e-8)

    def test_symbol_near_a_pole_names_the_point(self, tmp_path, capsys):
        # the drift differences the symbol DRIFT away from the point, so
        # the point needs that margin inside the chart
        out = tmp_path / "sym.json"
        assert main(["symbol", "--metric", "kz-sphere", "--at", "5e-5", "0",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("finlap: numeric error:")
        assert "(5e-05, 0.0)" in err[0] and "0.000101" in err[0]
        assert not out.exists()

    def test_volume(self, tmp_path):
        out = tmp_path / "vol.json"
        rc = main(["volume", "--metric", "kz-torus", "--eps", "0.6",
                   "--out", str(out)])
        assert rc == 0
        doc = read_json(out)
        assert doc["coefficients"]["volume_density"] == pytest.approx(1.953125, abs=1e-6)
        assert doc["coefficients"]["defect"] < 1e-5

    @pytest.mark.parametrize("fiber_n", [None, "48", "65"])
    def test_volume_records_fiber_resolution(self, tmp_path, fiber_n):
        out = tmp_path / "vol.json"
        flags = [] if fiber_n is None else ["--fiber-n", fiber_n]
        rc = main(["volume", "--metric", "kz-sphere", "--eps", "0.3", "--at", "1.0", "0.5",
                   *flags, "--out", str(out)])
        assert rc == 0
        coeffs = read_json(out)["coefficients"]
        n = DEFAULT_FIBER_N if fiber_n is None else int(fiber_n)
        assert coeffs["fiber_n"] == n
        assert coeffs["volume_density"] == fl.volume_density(
            fl.kz_sphere(0.3), fl.sphere_point(1.0, 0.5), n)
        if n % 2:
            assert coeffs["fiber_defect"] is None
        else:
            assert 0.0 < coeffs["fiber_defect"] < 1e-12

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

    @pytest.mark.parametrize("command, flag, values", [
        ("symbol", "--at", ["-1e-3", "0"]), ("volume", "--at", ["0.2", "-2.5E-1"]),
        ("geodesic", "--start", ["-1e-3", "0", "-.5e1"])])
    def test_negative_numbers_in_exponent_form(self, tmp_path, command, flag, values):
        # argparse reads -1e-3 as an option unless told it is a number
        out = tmp_path / "neg.json"
        rc = main([command, "--metric", "kz-torus", "--eps", "0.6", flag, *values,
                   "--out", str(out)] + (["--t-end", "0.05"] if command == "geodesic" else []))
        assert rc == 0
        doc = read_json(out)
        if command == "geodesic":
            first = doc["trajectory"]["samples"][0]
            at = [first["u"], first["v"]]
        else:
            at = doc["coefficients"]["at"]
        # torus coordinates are taken mod 1
        assert at == [float(v) % 1.0 for v in values[:2]]

    @pytest.mark.parametrize("command, flag, values", [
        ("symbol", "--at", ["-inf", "0"]), ("volume", "--at", ["0", "-1e999"]),
        ("geodesic", "--start", ["0", "-inf", "0"])])
    def test_negative_infinity_is_config_error(self, tmp_path, capsys, command, flag, values):
        out = tmp_path / "neg.json"
        rc = main([command, "--metric", "kz-torus", "--eps", "0.6", flag, *values,
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"finlap: config error: {flag} must be finite, got "
                       f"{' '.join(map(str, map(float, values)))}"]
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
        assert len(rows) == 3
        for row in rows:
            assert isinstance(row.seconds, float) and row.seconds >= 0.0
        # one suite, one time
        assert len({row.seconds for row in rows}) == 1
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

    def test_verify_eps_defaults_to_the_suites_own(self, tmp_path):
        # no --eps: each suite runs at its own default eps, not at eps 0
        from finlap.verify import run_suite

        def rows(params):
            return [{"check": r.check, "status": r.status, "defect": r.defect,
                     "tolerance": r.tolerance} for r in run_suite("holmes-thompson", params)]

        out = tmp_path / "ht.json"
        assert main(["verify", "--suite", "holmes-thompson", "--out", str(out)]) == 0
        doc = read_json(out)
        assert doc["config_echo"]["metric"]["eps"] is None
        assert doc["report"] == rows({"metric": "kz-torus"})
        assert doc["report"] != rows({"metric": "kz-torus", "eps": 0.0})

    def test_invalid_metric_parameter_numeric_error(self, tmp_path):
        rc = main(["symbol", "--metric", "kz-torus", "--eps", "1.7",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 3


#: (subcommand, flag) pairs that each subcommand used to parse and ignore
_UNREAD_FLAGS = (
    [("spectrum", ["--seed", "1"])]
    + [(command, flag) for command in ("symbol", "volume")
       for flag in (["--grid", "16"], ["--lmax", "4"], ["--k", "3"], ["--seed", "1"], ["--csv"])]
    + [("geodesic", flag) for flag in (["--fiber-n", "64"], ["--grid", "16"], ["--lmax", "4"],
                                       ["--k", "3"], ["--seed", "1"])]
    + [("verify", flag) for flag in (["--fiber-n", "64"], ["--lmax", "4"], ["--k", "3"])]
)
#: what each subcommand needs besides the flag under test
_REQUIRED = {"geodesic": ["--start", "0", "0", "0", "--t-end", "0.05"],
             "verify": ["--suite", "legendre"]}


@pytest.mark.parametrize("command, flag", _UNREAD_FLAGS,
                         ids=[f"{c}{f[0]}" for c, f in _UNREAD_FLAGS])
def test_flag_a_subcommand_does_not_read_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "o.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *_REQUIRED.get(command, []), *flag, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
        # solves by DFT, so ARPACK is reached through the library only, on
        # a position-dependent metric; test_lapack_failure covers the
        # CLI's exit 3
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence after 10 iterations",
                                           np.zeros(0), np.zeros((16, 0)))

        monkeypatch.setattr(spectral.spla, "eigsh", no_convergence)
        prob = spectral.assemble_eigenproblem(builtin_metrics()["randers-var"],
                                              spectral.TorusGridBasis(n=16))
        with pytest.raises(NumericError, match="did not converge"):
            spectral.solve_eigen(prob, 10)

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

    def test_verify_reads_grid_from_config_file(self, tmp_path):
        # resolution.grid_n sets the verify grid as --grid does
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"resolution": {"grid_n": 8}}))
        reports = {}
        for name, extra in (("config", ["--config", str(cfg)]), ("flag", ["--grid", "8"]),
                            ("default", [])):
            out = tmp_path / f"{name}.json"
            main(["verify", "--suite", "green", "--out", str(out)] + extra)
            reports[name] = read_json(out)["report"]
        assert reports["config"] == reports["flag"]
        assert reports["config"] != reports["default"]

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

    @pytest.mark.parametrize("key, value", [
        ("g", [[math.nan, 0.0], [0.0, 1.0]]),
        ("g", [[1.0, 0.0], [0.0, math.inf]]),
        ("theta", [-math.inf, 0.0]),
    ], ids=["g-nan", "g-inf", "theta-inf"])
    def test_non_finite_config_tensor_is_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"metric": {"kind": "randers", key: value}}))
        rc = main(["symbol", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        assert f"metric.{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, metric", [
        (["spectrum", "--eps", "nan"], None),
        (["volume", "--eps", "inf"], None),
        (["verify", "--suite", "legendre", "--eps", "-inf"], None),
        (["spectrum"], {"kind": "kz-torus", "eps": math.inf}),
        (["volume"], {"kind": "kz-torus", "conformal": math.nan}),
        (["verify", "--suite", "legendre"], {"kind": "kz-torus", "eps": math.nan}),
    ], ids=["spectrum-flag-nan", "volume-flag-inf", "verify-flag-neg-inf",
            "spectrum-config-inf", "volume-config-conformal-nan", "verify-config-nan"])
    def test_non_finite_float_setting_is_config_error(self, tmp_path, capsys, argv, metric):
        if metric is not None:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({"metric": metric}))     # NaN / Infinity literals
            argv = [*argv, "--config", str(cfg)]
        out = tmp_path / "o.json"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("finlap: config error: ") and "must be finite, got" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["spectrum"], ["volume"], ["verify", "--suite", "legendre"]])
    def test_finite_out_of_range_eps_stays_numeric_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--eps", "-0.5", "--out", str(tmp_path / "o.json")]) == 3
        assert "eps must be in [0, 1), got -0.5" in capsys.readouterr().err

    def test_overflowing_conformal_factor_names_the_point(self, tmp_path, capsys):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps({"metric": {"kind": "kz-torus", "conformal": 800}}))
        rc = main(["volume", "--config", str(cfg), "--at", "0.2", "0.3",
                   "--out", str(tmp_path / "o.json")])
        assert rc == 3
        assert "conformal factor exp(f) not finite at (0.2, 0.3)" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("symbol", "metric", "eps", "abc"),
        ("spectrum", "resolution", "grid_n", 16.7),
        ("spectrum", "resolution", "k", 3.9),
        ("symbol", "resolution", "fiber_n", 64.5),
        ("spectrum", "resolution", "grid_n", True),
    ], ids=["eps-abc", "grid_n-16.7", "k-3.9", "fiber_n-64.5", "grid_n-true"])
    def test_non_numeric_config_value_is_config_error(self, tmp_path, capsys, command,
                                                       section, key, value):
        # an integer setting must be integral: no silent truncation; each
        # subcommand reads the setting, so the type check is what refuses it
        cfg = tmp_path / "bad.json"
        doc = {"metric": {"kind": "kz-torus"}, "resolution": {}}
        doc[section][key] = value
        cfg.write_text(json.dumps(doc))
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"finlap: config error: {section}.{key} must be")
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


_GEODESIC = ["geodesic", "--start", "0", "0", "0", "--t-end", "0.05"]
_VERIFY = ["verify", "--suite", "legendre"]

#: (argv, config file or None, the flag or config key the refusal names):
#: each setting is given but not read by the route the run takes, or is
#: not a setting of any run
_REFUSED = {
    "kz-sphere-conformal": (["spectrum"], {"metric": {"kind": "kz-sphere", "eps": 0.3,
                                                      "conformal": 0.5}}, "metric.conformal"),
    "kz-torus-table-conformal": (["spectrum"], {"metric": {"kind": "kz-torus", "eps": 0.3,
                                                           "conformal": 0.5},
                                                "resolution": {"pmax": 2, "qmax": 2}},
                                 "metric.conformal"),
    "kz-sphere-grid": (["spectrum", "--metric", "kz-sphere", "--grid", "64"], None, "--grid"),
    "kz-torus-table-k": (["spectrum", "--pmax", "2", "--k", "5"], None, "--k"),
    "kz-torus-grid-pmax": (["spectrum", "--grid", "16", "--pmax", "2"], None, "--pmax"),
    "flat-torus-eps": (["symbol", "--metric", "flat-torus", "--eps", "0.7"], None, "--eps"),
    "randers-theta-eps": (["symbol", "--metric", "randers", "--eps", "0.3"],
                          {"metric": {"theta": [0.2, 0.0]}}, "--eps"),
    "kz-torus-g": (["volume"], {"metric": {"kind": "kz-torus", "g": [[1, 0], [0, 1]]}},
                   "metric.g"),
    "geodesic-fiber-n": (_GEODESIC, {"resolution": {"fiber_n": 64}}, "resolution.fiber_n"),
    "verify-lmax": (_VERIFY, {"resolution": {"lmax": 6}}, "resolution.lmax"),
    "verify-all-lmax": (["verify", "--suite", "all"], {"resolution": {"lmax": 6}},
                        "resolution.lmax"),
    "verify-g": (_VERIFY, {"metric": {"g": [[1, 0], [0, 1]]}}, "metric.g"),
    "unknown-key": (["spectrum"], {"resolution": {"gird_n": 16}}, "resolution.gird_n"),
    "unknown-section": (["symbol"], {"metric": "kz-torus"}, "metric"),
    "other-task": (["spectrum"], {"task": "symbol"}, "task"),
}


@pytest.mark.parametrize("case", list(_REFUSED))
def test_setting_not_read_is_config_error(tmp_path, capsys, case):
    argv, cfg, name = _REFUSED[case]
    extra = []
    if cfg is not None:
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        extra = ["--config", str(tmp_path / "run.json")]
    out = tmp_path / "o.json"
    assert main([*argv, *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("finlap: config error:")
    assert name in err[0]
    assert sorted(os.listdir(tmp_path)) == (["run.json"] if cfg is not None else [])


#: the computation of every CLI route
_COMPUTATIONS = ("run_suite", "assemble_eigenproblem", "sphere_spectrum", "torus_spectrum",
                 "_divergence_form", "_fiber_densities", "geodesic_integrate")


@pytest.mark.parametrize("case", list(_REFUSED))
def test_refused_before_computing(tmp_path, monkeypatch, case):
    def computed(*args, **kwargs):
        raise AssertionError("computed before refusing a setting")

    for name in _COMPUTATIONS:
        monkeypatch.setattr(cli, name, computed)
    argv, cfg, _ = _REFUSED[case]
    extra = []
    if cfg is not None:
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        extra = ["--config", str(tmp_path / "run.json")]
    assert main([*argv, *extra, "--out", str(tmp_path / "o.json")]) == 2


_METRIC = {"kind": "kz-torus", "eps": 0.0, "conformal": 0.0}

#: each subcommand's default run (and each spectrum route) and the
#: settings it reads, defaults filled in
_ECHOED = {
    "spectrum": (["spectrum"], {"metric": _METRIC, "resolution": {
        "fiber_n": DEFAULT_FIBER_N, "grid_n": 32, "k": 10}}),
    "spectrum-table": (["spectrum", "--qmax", "1"], {
        "metric": {"kind": "kz-torus", "eps": 0.0}, "resolution": {"pmax": 2, "qmax": 1}}),
    "spectrum-sphere": (["spectrum", "--metric", "kz-sphere"], {
        "metric": {"kind": "kz-sphere", "eps": 0.0}, "resolution": {"lmax": 10, "k": 5}}),
    "symbol": (["symbol"], {"metric": _METRIC, "resolution": {"fiber_n": DEFAULT_FIBER_N}}),
    "volume": (["volume"], {"metric": _METRIC, "resolution": {"fiber_n": DEFAULT_FIBER_N}}),
    "geodesic": (_GEODESIC, {"metric": _METRIC}),
    "verify": (_VERIFY, {"metric": {"kind": "kz-torus", "eps": None},
                         "resolution": {"grid_n": None}, "seed": 0}),
}


@pytest.mark.parametrize("case", list(_ECHOED))
def test_config_echo_is_what_the_run_read(tmp_path, case):
    argv, echo = _ECHOED[case]
    out = tmp_path / "o.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert read_json(out)["config_echo"] == echo


def test_config_echo_of_a_config_file_run(tmp_path):
    # the file's settings are echoed as read, the output path left out
    cfg = {"task": "symbol", "output": str(tmp_path / "o.json"),
           "metric": {"kind": "randers", "g": [[2.0, 0.0], [0.0, 1.0]], "conformal": 0.5},
           "resolution": {"fiber_n": 64}}
    (tmp_path / "run.json").write_text(json.dumps(cfg))
    assert main(["symbol", "--config", str(tmp_path / "run.json"), "--eps", "0.25"]) == 0
    assert read_json(tmp_path / "o.json")["config_echo"] == {
        "metric": {"kind": "randers", "g": [[2.0, 0.0], [0.0, 1.0]], "theta": None,
                   "eps": 0.25, "conformal": 0.5},
        "resolution": {"fiber_n": 64}}


#: a run of every CLI route that reads (sigma, rho) off the fiber rule
_FIBER_RULE_RUNS = {
    "spectrum-grid": ["spectrum", "--grid", "16", "--k", "3"],
    "spectrum-sphere": ["spectrum", "--metric", "kz-sphere", "--eps", "0.3", "--lmax", "6"],
    "spectrum-table": ["spectrum", "--qmax", "1"],
    "symbol": ["symbol", "--metric", "kz-sphere", "--eps", "0.3", "--at", "1.1", "0.4"],
    "volume": ["volume", "--metric", "kz-sphere", "--eps", "0.3", "--at", "1.1", "0.4"],
}


@pytest.mark.parametrize("case", list(_FIBER_RULE_RUNS))
def test_production_reads_no_reeb_route(tmp_path, monkeypatch, case):
    for name in ("reeb_profile", "density_profile"):
        def refused(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called by a production route")

        fn = getattr(hilbert, name)
        for key, mod in list(sys.modules.items()):
            if key.startswith("finlap") and vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, refused)
    assert main([*_FIBER_RULE_RUNS[case], "--out", str(tmp_path / "o.json")]) == 0


def test_sphere_spectrum_reads_no_strong_form(tmp_path, monkeypatch):
    # sphere sectors assemble the energy form; the drift form is an oracle
    def refused(*args, **kwargs):
        raise AssertionError("SphereOperator.apply_harmonic called by a production route")

    monkeypatch.setattr(fl.SphereOperator, "apply_harmonic", refused)
    assert main([*_FIBER_RULE_RUNS["spectrum-sphere"], "--out", str(tmp_path / "o.json")]) == 0
