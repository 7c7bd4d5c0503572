import argparse
import copy
import dataclasses
import io
import json
import pathlib

import numpy as np
import pytest
import yaml

from fxdispatch import ConfigurationError, load_config, save_config
from fxdispatch.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    _apply_overrides,
    cmd_bound,
    cmd_check,
    cmd_oracle,
    cmd_run,
    main,
)
from fxdispatch.config import config_from_dict

CONFIG_PATH = pathlib.Path(__file__).resolve().parent.parent / "configs" / "reference_case.yaml"


@pytest.fixture(scope="session")
def reference_config():
    return load_config(str(CONFIG_PATH))


@pytest.fixture()
def base_dict(reference_config):
    return copy.deepcopy(reference_config.to_dict())


class TestLoadConfig:
    def test_shipped_reference_config(self, reference_config):
        gens = reference_config.generators
        assert len(gens) == 4
        assert sum(g.d0 for g in gens) == pytest.approx(600.0)
        assert [g.a for g in gens] == [53.0, 34.0, 45.0, 78.0]
        assert [g.b for g in gens] == [1.21, 3.47, 2.24, 2.55]
        assert [g.c for g in gens] == [0.094, 0.082, 0.086, 0.105]
        assert reference_config.loss.B[0, 0] == pytest.approx(1.2e-4)
        assert reference_config.loss.B00 == 4.0
        assert reference_config.topology.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))
        assert (reference_config.params.k1, reference_config.params.mu) == (5.0, 0.5)

    def test_round_trip(self, reference_config, tmp_path):
        path = tmp_path / "rt.yaml"
        save_config(reference_config, str(path))
        assert load_config(str(path)) == reference_config

    def test_empty_generators_rejected(self, base_dict):
        base_dict["generators"] = []
        with pytest.raises(ConfigurationError):
            config_from_dict(base_dict)

    def test_asymmetric_b_rejected_with_indices(self, base_dict):
        base_dict["loss"]["b_matrix"][0][1] += 1e-5
        with pytest.raises(ConfigurationError, match=r"\(0,1\)"):
            config_from_dict(base_dict)

    def test_dimension_mismatch_rejected(self, base_dict):
        base_dict["loss"]["b0"] = [1e-3, 1e-3]
        with pytest.raises(ConfigurationError):
            config_from_dict(base_dict)

    def test_missing_section_rejected(self, base_dict):
        del base_dict["params"]
        with pytest.raises(ConfigurationError, match="params"):
            config_from_dict(base_dict)

    def test_missing_d0_derived_from_initial_power(self, base_dict):
        for g in base_dict["generators"]:
            del g["d0"]
        config = config_from_dict(base_dict)
        # derived shares satisfy d0 = p0 - P_Li(P(0)) exactly
        p0 = np.array([g.p0 for g in config.generators])
        own = config.loss.generator_losses(p0)
        d0 = np.array([g.d0 for g in config.generators])
        assert d0 == pytest.approx(p0 - own, abs=1e-12)

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("generators: [}{")
        with pytest.raises(ConfigurationError, match="parse error"):
            load_config(str(bad))


def run_cmd(fn, config, **kwargs):
    buf = io.StringIO()
    code = fn(config, out=buf, **kwargs)
    return code, buf.getvalue()


def failing_config(base_dict):
    # negative marginal costs flip delta < 0; tiny curvature then breaks
    # the eigenvalue condition against bN of the loss matrix
    for g in base_dict["generators"]:
        g["b"] = -1.0
        g["c"] = 1e-5
    return config_from_dict(base_dict)


class TestCheck:
    def test_reference_config_all_pass(self, reference_config):
        code, text = run_cmd(cmd_check, reference_config)
        assert code == EXIT_OK
        assert "FAIL" not in text
        assert "value=0.164" in text

    def test_constructed_failure(self, base_dict):
        code, text = run_cmd(cmd_check, failing_config(base_dict))
        assert code == EXIT_VALIDATION
        assert "FAIL" in text

    def test_lossless_config_passes(self, base_dict):
        base_dict["loss"] = {"b_matrix": [[0.0] * 4 for _ in range(4)], "b0": [0.0] * 4, "b00": 0.0}
        code, text = run_cmd(cmd_check, config_from_dict(base_dict))
        assert code == EXIT_OK


class TestBound:
    def test_reference_value(self, reference_config):
        code, text = run_cmd(cmd_bound, reference_config)
        assert code == EXIT_OK
        ts = float(text.split("settling_time_bound_s=")[1].split()[0])
        assert ts == pytest.approx(154.47, abs=0.5)

    def test_doubled_gains_halve_bound(self, base_dict):
        base_dict["params"]["k1"] = 10.0
        base_dict["params"]["k2"] = 10.0
        code, text = run_cmd(cmd_bound, config_from_dict(base_dict))
        ts = float(text.split("settling_time_bound_s=")[1].split()[0])
        assert ts == pytest.approx(154.47 / 2.0, abs=0.25)

    def test_mu_variation_matches_direct_arithmetic(self, base_dict):
        base_dict["params"]["mu"] = 0.9
        config = config_from_dict(base_dict)
        code, text = run_cmd(cmd_bound, config)
        ts = float(text.split("settling_time_bound_s=")[1].split()[0])
        # independent evaluation of the closed form at mu = 0.9
        from fxdispatch.cli import evaluate_gates

        g = evaluate_gates(config)
        base = (1.0 + g.report.rho) * g.tau1 * g.phi2**2
        alpha = 5.0 * base**0.95 * 2.0**0.025
        beta = 5.0 * 4.0**-0.5 * base**1.5 * 2.0**-0.25
        assert ts == pytest.approx(4.0 / (alpha * 0.1) + 4.0 / beta, rel=1e-6)

    def test_refuses_on_failed_gates(self, base_dict):
        code, text = run_cmd(cmd_bound, failing_config(base_dict))
        assert code == EXIT_VALIDATION


class TestRun:
    def test_zero_horizon_single_row(self, base_dict, tmp_path):
        base_dict["params"]["t_end"] = 0.0
        code, _ = run_cmd(cmd_run, config_from_dict(base_dict), out_dir=str(tmp_path))
        assert code == EXIT_OK
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 2  # header + the initial instant
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["settled"] is False

    def test_row_count_and_header(self, base_dict, tmp_path):
        base_dict["params"]["t_end"] = 0.2
        base_dict["output"]["stride"] = 10
        code, _ = run_cmd(cmd_run, config_from_dict(base_dict), out_dir=str(tmp_path))
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,P1,P2,P3,P4,z1,z2,z3,z4,PL,Ptotal,cost,residual,V"
        assert len(lines) == 1 + 200 // 10 + 1
        values = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
        assert np.isfinite(values).all()

    def test_deterministic_bytes(self, base_dict, tmp_path):
        base_dict["params"]["t_end"] = 0.5
        base_dict["disturbance"] = {"enabled": True, "amplitude": 0.5, "seed": 11, "kind": "sinusoid"}
        outputs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            run_cmd(cmd_run, config_from_dict(base_dict), out_dir=str(d))
            outputs.append(((d / "trajectory.csv").read_bytes(), (d / "report.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_report_schema(self, base_dict, tmp_path):
        base_dict["params"]["t_end"] = 0.2
        run_cmd(cmd_run, config_from_dict(base_dict), out_dir=str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        for key in ["status", "terminal_power", "total_power", "cost", "loss",
                    "consensus_residual", "settled", "measured_settling_time",
                    "settling_time_bound", "settling_within_bound",
                    "assumptions", "spectra", "oracle_gap", "timing"]:
            assert key in report
        assert report["assumptions"]["all_ok"] is True
        assert report["spectra"]["phi2"] == pytest.approx(0.5858, abs=1e-4)
        assert len(report["terminal_power"]) == 4

    def test_refuses_failed_gates_without_force(self, base_dict, tmp_path):
        config = failing_config(base_dict)
        code, text = run_cmd(cmd_run, config, out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "report.json").exists()


class TestOracle:
    def test_reference_config(self, reference_config):
        code, text = run_cmd(cmd_oracle, reference_config)
        assert code == EXIT_OK
        assert "dispatch gap" in text


class TestMain:
    def test_check_subcommand(self):
        assert main(["check", "--config", str(CONFIG_PATH)]) == EXIT_OK

    def test_bound_subcommand(self, capsys):
        assert main(["bound", "--config", str(CONFIG_PATH)]) == EXIT_OK
        assert "settling_time_bound_s=154.4" in capsys.readouterr().out

    def test_run_with_overrides(self, tmp_path, capsys):
        code = main(["run", "--config", str(CONFIG_PATH),
                     "--out", str(tmp_path), "--t-end", "0.1"])
        assert code == EXIT_OK
        assert (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_overrides_reach_config_and_keep_other_fields(self, base_dict):
        base_dict["initial"] = {"z0": [0.5, -0.25, 0.0, 1.0]}
        base_dict["output"].update(directory="elsewhere", stride=7)
        config = config_from_dict(base_dict)
        args = argparse.Namespace(dt=2e-3, t_end=3.5, seed=42)
        new = _apply_overrides(config, args)
        assert new.params == dataclasses.replace(config.params, dt=2e-3, t_end=3.5)
        assert new.disturbance == dataclasses.replace(config.disturbance, seed=42)
        assert new.z0 == (0.5, -0.25, 0.0, 1.0)
        assert new.output == config.output
        assert new.generators is config.generators and new.loss is config.loss
        assert new.topology is config.topology
        unchanged = _apply_overrides(config, argparse.Namespace(dt=None, t_end=None, seed=None))
        assert unchanged == config

    def test_missing_config_path(self, capsys):
        assert main(["check", "--config", "/nonexistent/nope.yaml"]) == EXIT_VALIDATION
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"generators": []}))
        assert main(["check", "--config", str(bad)]) == EXIT_VALIDATION
