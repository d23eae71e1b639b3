import json
import math
import os

import pytest

from finlap.cli import main


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

    def test_non_numeric_config_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"metric": {"kind": "kz-torus", "eps": "abc"}}))
        rc = main(["symbol", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert rc == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("finlap: config error:") and "metric.eps" in err
        assert len(err.splitlines()) == 1

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
