import argparse
import contextlib
import copy
import dataclasses
import io
import json
import logging
import os
import pathlib

import numpy as np
import pytest
import yaml

from fxdispatch import (
    AlgorithmParams,
    ConfigurationError,
    DisturbanceSpec,
    GeneratorSpec,
    NewtonFailure,
    load_config,
    oracle,
    run,
    save_config,
    solve_equilibrium,
)
from fxdispatch.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_VALIDATION,
    _apply_overrides,
    _csv_text,
    cmd_bound,
    cmd_check,
    cmd_oracle,
    cmd_run,
    main,
)
from fxdispatch.config import OutputSpec, atomic_write_text, config_from_dict
from fxdispatch.topology import laplacian
from tests.conftest import ring_fleet_dict

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

    def test_round_trip_of_non_default_fields(self, base_dict, tmp_path):
        base_dict["disturbance"].update(enabled=True, amplitude=0.5, seed=11)
        base_dict["output"] = {"directory": "elsewhere", "stride": 7,
                               "write_trajectory": False, "write_report": False}
        base_dict["initial"] = {"z0": [0.5, -0.25, 0.0, 1.0]}
        base_dict["params"]["fp_max_iter"] = 50
        del base_dict["generators"][2]["d0"]
        config = config_from_dict(base_dict)
        path = tmp_path / "rt.yaml"
        save_config(config, str(path))
        assert load_config(str(path)) == config
        saved = yaml.safe_load(path.read_text())
        for section, cls in (("params", AlgorithmParams), ("disturbance", DisturbanceSpec),
                             ("output", OutputSpec)):
            assert list(saved[section]) == [f.name for f in dataclasses.fields(cls)]
        gen_keys = [f.name for f in dataclasses.fields(GeneratorSpec)]
        assert all(list(g) == gen_keys for g in saved["generators"])
        assert saved["params"]["fp_max_iter"] == 50
        assert saved["disturbance"] == {"enabled": True, "amplitude": 0.5, "seed": 11, "kind": "sinusoid"}
        assert saved["output"] == base_dict["output"]
        assert saved["initial"] == base_dict["initial"]

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

    @pytest.mark.parametrize("d0", [None, 5.0])
    def test_generator_without_p0_starts_at_zero(self, base_dict, d0):
        gen = base_dict["generators"][0]
        del gen["p0"], gen["d0"]
        if d0 is not None:
            gen["d0"] = d0
        config = config_from_dict(base_dict)
        assert config.generators[0].p0 == 0.0
        # without d0 the share is p0 - P_L1(P(0)) = 0 - B00/N
        assert config.generators[0].d0 == (d0 if d0 is not None else -1.0)

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_loader_parses_like_the_python_loader(self, tmp_path):
        fleet = tmp_path / "fleet.yaml"
        save_config(config_from_dict(ring_fleet_dict(64)), str(fleet))
        for path in (CONFIG_PATH, fleet):
            text = path.read_text()
            assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_saved_bytes_match_the_python_dumper(self, reference_config, tmp_path):
        for config in (reference_config, config_from_dict(ring_fleet_dict(64))):
            path = tmp_path / "saved.yaml"
            save_config(config, str(path))
            assert path.read_text() == yaml.dump(config.to_dict(), Dumper=yaml.SafeDumper, sort_keys=False)

    def test_falls_back_to_the_python_loader_without_libyaml(self, reference_config, tmp_path, monkeypatch):
        expected = tmp_path / "expected.yaml"
        save_config(reference_config, str(expected))
        monkeypatch.delattr(yaml, "CSafeLoader")
        monkeypatch.delattr(yaml, "CSafeDumper")
        assert load_config(str(CONFIG_PATH)) == reference_config
        path = tmp_path / "saved.yaml"
        save_config(reference_config, str(path))
        assert path.read_bytes() == expected.read_bytes()

    def test_integral_numbers_and_numeric_strings_accepted(self, base_dict):
        base_dict["output"]["stride"] = 2.0
        base_dict["params"].update(fp_tol="1e-3", fp_max_iter="50")
        base_dict["topology"].update(nodes=4.0, edges=[[0.0, 1, "1e0"], [1, 2.0, 1], [2, 3, 1.0]])
        base_dict["loss"].update(b00="4e0")
        base_dict["loss"]["b0"][0] = "2e-3"
        base_dict["loss"]["b_matrix"][0][0] = "1.2e-4"
        config = config_from_dict(base_dict)
        assert type(config.output.stride) is int and config.output.stride == 2
        assert (config.params.fp_tol, config.params.fp_max_iter) == (1e-3, 50)
        assert (config.loss.B[0, 0], config.loss.B0[0], config.loss.B00) == (1.2e-4, 2e-3, 4.0)
        assert config.topology.n == 4
        assert config.topology.edges == ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0))

    def test_failed_rename_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_text(str(tmp_path / "report.json"), "{}\n")
        assert list(tmp_path.iterdir()) == []

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

    def test_four_gate_rows_then_one_values_line(self, reference_config):
        code, text = run_cmd(cmd_check, reference_config)
        lines = text.splitlines()
        assert [line.split()[0] for line in lines[:-1]] == [
            "connected", "gradient_condition", "coefficient_magnitude", "eigenvalue_condition"]
        assert "convexity" not in text
        assert lines[-1].startswith("sigma=0.164 delta=1.21 rho=0.001 ")
        # with no stream given, the table goes to whatever sys.stdout is at call time
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cmd_check(reference_config) == code
        assert buf.getvalue() == text

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
        # the initial instant, every 10th accepted step and the terminal state at t_end
        steps = json.loads((tmp_path / "report.json").read_text())["solver"]["steps"]
        assert steps == 48 and len(lines) == 1 + 1 + 48 // 10 + 1
        assert float(lines[-1].split(",")[0]) == 0.2
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

    def test_csv_bytes_match_row_by_row_formatting(self, reference_config):
        # the writer formats the stacked columns; each row formatted from the
        # trajectory's own arrays gives the same bytes
        for config in (reference_config, config_from_dict(ring_fleet_dict(64))):
            params = dataclasses.replace(config.params, t_end=min(config.params.t_end, 10.0))
            traj = run(config.system(), params, stride=1).trajectory
            n = traj.P.shape[1]
            rows = [",".join(f"{v:.12g}" for v in [traj.t[k], *traj.P[k], *traj.z[k], traj.loss[k],
                                                   traj.P[k].sum(), traj.cost[k], traj.residual[k], traj.V[k]])
                    for k in range(len(traj.t))]
            header, _, body = _csv_text(traj, n).partition("\n")
            assert len(rows) > 50 and len(header.split(",")) == 2 * n + 6
            assert body == "\n".join(rows) + "\n"

    def test_refuses_failed_gates_without_force(self, base_dict, tmp_path):
        config = failing_config(base_dict)
        code, text = run_cmd(cmd_run, config, out_dir=str(tmp_path))
        assert code == EXIT_VALIDATION
        assert not (tmp_path / "report.json").exists()

    def test_forced_run_with_failed_a2_has_no_bound(self, base_dict, tmp_path):
        # A2 fails, so tau1 <= 0 and settling_bound raises; the run goes on without a bound
        base_dict["params"]["t_end"] = 0.05
        code, _ = run_cmd(cmd_run, failing_config(base_dict), out_dir=str(tmp_path), force=True)
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["assumptions"]["a2_ok"] is False
        assert report["settling_time_bound"] is None
        assert report["settling_within_bound"] is None

    @staticmethod
    def _fail(*args):
        raise NewtonFailure("no convergence", None)

    def test_oracle_failure_leaves_gaps_null_and_c_star_terminal(self, base_dict, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle, "solve_equilibrium", self._fail)
        base_dict["params"]["t_end"] = 0.1
        code, _ = run_cmd(cmd_run, config_from_dict(base_dict), out_dir=str(tmp_path))
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert set(report["oracle_gap"].values()) == {None}
        last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[-1]) == 0.0  # V = 0.5 (C - C*)^2 with C* the terminal cost

    def test_penalty_failure_keeps_the_consensus_point(self, base_dict, tmp_path, monkeypatch):
        monkeypatch.setattr(oracle, "kkt_penalty_solution", self._fail)
        base_dict["params"]["t_end"] = 0.1
        config = config_from_dict(base_dict)
        code, _ = run_cmd(cmd_run, config, out_dir=str(tmp_path))
        assert code == EXIT_OK
        gap = json.loads((tmp_path / "report.json").read_text())["oracle_gap"]
        eq = solve_equilibrium(config.generators, config.loss, sum(g.d0 for g in config.generators))
        assert gap["consensus_equilibrium"] == pytest.approx(eq.P_star.tolist(), abs=1e-9)
        assert gap["max_abs_gap_consensus"] is not None
        assert gap["penalty_factor"] is None and gap["max_abs_gap_penalty"] is None


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

    def test_solver_counters_in_report_and_switch_logged(self, base_dict, tmp_path, caplog):
        # start near consensus so the run switches and settles within about 1.2 s
        config = config_from_dict(base_dict)
        sol = solve_equilibrium(config.generators, config.loss, 600.0)
        cons = sol.P_star - np.array([g.d0 for g in config.generators]) - config.loss.generator_losses(sol.P_star)
        z_eq = -np.linalg.pinv(laplacian(config.topology)) @ cons
        base_dict["initial"] = {"z0": (z_eq + 0.03 * np.array([1.0, -1.0, 1.0, -1.0])).tolist()}
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_dict, sort_keys=False))
        # a level set by the caller is kept unless -v asks for INFO
        package_logger = logging.getLogger("fxdispatch")
        caller_level = package_logger.level
        package_logger.setLevel(logging.WARNING)
        outputs, logged, levels = [], [], []
        try:
            for sub, flags in (("quiet", []), ("verbose", ["-v"])):
                caplog.clear()
                assert main(["run", *flags, "--config", str(path), "--out", str(tmp_path / sub)]) == EXIT_OK
                logged.append([r.getMessage() for r in caplog.records if r.levelname == "INFO"])
                levels.append(package_logger.level)
                outputs.append(((tmp_path / sub / "trajectory.csv").read_bytes(),
                                (tmp_path / sub / "report.json").read_bytes()))
        finally:
            package_logger.setLevel(caller_level)
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[1][1])
        solver = report["solver"]
        assert report["settled"] is True
        # accepted steps: RK4 ones sized by error control, implicit ones of width dt
        # until the residual is below settle_tol, then ten that confirm the window
        assert (solver["steps"], solver["rejected_steps"]) == (84, 6)
        assert 0.0 < solver["switch_time"] < report["measured_settling_time"]
        assert 0.0 < solver["implicit_newton_iters"]["mean"] <= solver["implicit_newton_iters"]["max"] <= 10
        assert levels == [logging.WARNING, logging.INFO]
        assert logged[0] == []
        assert len(logged[1]) == 1
        assert logged[1][0].startswith(f"implicit step took over at t = {solver['switch_time']:.3f} s")

    def test_rk4_only_run_reports_no_switch(self, tmp_path):
        assert main(["run", "--config", str(CONFIG_PATH), "--out", str(tmp_path), "--t-end", "0.1"]) == EXIT_OK
        solver = json.loads((tmp_path / "report.json").read_text())["solver"]
        solves = solver.pop("power_solve_iters")
        assert solver == {"steps": 38, "rejected_steps": 3, "switch_time": None, "implicit_newton_iters": None}
        assert 1.0 <= solves["mean"] <= solves["max"] <= 10

    def test_missing_config_path(self, capsys):
        assert main(["check", "--config", "/nonexistent/nope.yaml"]) == EXIT_VALIDATION
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "bound", "oracle"])
    def test_run_options_rejected_by_other_commands(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(CONFIG_PATH), "--dt", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt 1" in capsys.readouterr().err

    def test_rejected_override_is_a_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(CONFIG_PATH), "--out", str(tmp_path), "--dt", "-1"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "config error: dt must be positive\n"

    def test_rejected_seed_override_is_a_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(CONFIG_PATH), "--out", str(tmp_path), "--seed", "-1"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == "config error: seed must be >= 0\n"

    def test_invalid_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump({"generators": []}))
        assert main(["check", "--config", str(bad)]) == EXIT_VALIDATION

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "--config", str(CONFIG_PATH)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "consensus equilibrium (H*lambda equal):" in out
        assert "penalty-factor coordination:" in out

    def test_oracle_without_a_balance_exits_2(self, base_dict, tmp_path, capsys):
        # with B = diag(1e-2) the losses outgrow any dispatch: no balance exists at 600 MW
        base_dict["loss"]["b_matrix"] = np.diag([1e-2] * 4).tolist()
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_dict, sort_keys=False))
        assert main(["oracle", "--config", str(path)]) == EXIT_RUNTIME
        out = capsys.readouterr().out
        assert out.startswith("equilibrium solve failed: no descent after 30 halvings (residual ")
        assert "; best iterate: [" in out

    def test_power_solve_failure_exits_2(self, base_dict, tmp_path, capsys):
        base_dict["params"]["fp_max_iter"] = 1
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_dict, sort_keys=False))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime failure: power solve did not converge")

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_zero_delta_exits_1(self, command, base_dict, tmp_path, capsys):
        base_dict["generators"][0]["b"] = 0.0
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_dict, sort_keys=False))
        argv = [command, "--config", str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == "assumption violation: marginal-cost lower bound delta must be nonzero\n"


def _set_edge(d):
    d["topology"]["edges"][0] = [0, 1]


def _one_generator(d):
    # a consistent one-unit fleet: it has no neighbour to reach consensus with
    d["generators"] = d["generators"][:1]
    d["loss"].update(b_matrix=[d["loss"]["b_matrix"][0][:1]], b0=d["loss"]["b0"][:1])
    d["topology"] = {"nodes": 1, "edges": []}


#: (edit of the reference run file, the section and key the error must name)
MALFORMED = [
    pytest.param(lambda d: d["params"].update(mu=1.5), r"params: .*mu=1\.5", id="mu-out-of-range"),
    pytest.param(lambda d: d["params"].update(dt=-1e-3), "params: dt must be positive", id="negative-dt"),
    pytest.param(lambda d: d["params"].update(dt=float("nan")), "params: dt must be positive", id="nan-dt"),
    pytest.param(lambda d: d["params"].update(t_end=float("inf")), "params: t_end must be finite", id="infinite-t-end"),
    pytest.param(lambda d: d["params"].update(k1="abc"), r"params\.k1: could not convert", id="k1-not-a-number"),
    pytest.param(lambda d: d["disturbance"].update(amplitude=-1), "disturbance: amplitude must be >= 0",
                 id="negative-amplitude"),
    pytest.param(lambda d: d["disturbance"].update(enabled="no"), r"disturbance\.enabled: expected true or false",
                 id="string-boolean"),
    pytest.param(_set_edge, r"topology\.edges: .*expected 3, got 2", id="two-element-edge"),
    pytest.param(lambda d: d["disturbance"].update(amplitud=0.5), "disturbance: unknown key.*'amplitud'",
                 id="disturbance-typo"),
    pytest.param(lambda d: d["output"].update(strid=7), "output: unknown key.*'strid'", id="output-typo"),
    pytest.param(lambda d: d["loss"].update(b000=1.0), "loss: unknown key.*'b000'", id="loss-typo"),
    pytest.param(lambda d: d["generators"][1].update(d=1.0), r"generators\[1\]: unknown key.*'d'",
                 id="generator-typo"),
    pytest.param(lambda d: d.update(paramz={}), "top level.*unknown key.*'paramz'", id="top-level-typo"),
    pytest.param(lambda d: d["params"].update(settle_tol=0.0), "params: settle_tol must be positive",
                 id="zero-settle-tol"),
    pytest.param(lambda d: d["params"].update(settle_tol=float("nan")), "params: settle_tol must be positive",
                 id="nan-settle-tol"),
    pytest.param(lambda d: d["params"].update(settle_window=-1.0), "params: settle_window must be finite and >= 0",
                 id="negative-settle-window"),
    pytest.param(lambda d: d["params"].update(settle_window=float("nan")),
                 "params: settle_window must be finite and >= 0", id="nan-settle-window"),
    pytest.param(lambda d: d["params"].update(fp_max_iter=0), "params: fp_max_iter must be >= 1",
                 id="zero-fp-max-iter"),
    pytest.param(lambda d: d["params"].update(fp_max_iter=float("nan")), r"params\.fp_max_iter: cannot convert",
                 id="nan-fp-max-iter"),
    pytest.param(lambda d: d["loss"].update(b00=float("nan")), "loss: .*must be finite", id="nan-b00"),
    pytest.param(lambda d: d["loss"]["b_matrix"][0].__setitem__(0, float("inf")), "loss: .*must be finite",
                 id="infinite-b-entry"),
    pytest.param(lambda d: d["loss"]["b0"].__setitem__(1, float("nan")), "loss: .*must be finite", id="nan-b0-entry"),
    pytest.param(lambda d: d["generators"][0].update(a=float("nan")), r"generators\[0\]: a must be finite",
                 id="nan-cost-offset"),
    pytest.param(lambda d: d["generators"][0].update(b=float("inf")), r"generators\[0\]: b must be finite",
                 id="infinite-linear-cost"),
    pytest.param(lambda d: d["generators"][2].update(d0=float("-inf")), r"generators\[2\]: d0 must be finite",
                 id="infinite-demand-share"),
    pytest.param(lambda d: d["topology"]["edges"][0].__setitem__(2, float("nan")),
                 r"topology: edge \(0,1\) weight must be finite and > 0", id="nan-edge-weight"),
    pytest.param(lambda d: d["topology"]["edges"][1].__setitem__(2, float("inf")),
                 r"topology: edge \(1,2\) weight must be finite and > 0", id="infinite-edge-weight"),
    pytest.param(lambda d: d["params"].update(k1=float("inf")), "params: k1 must be finite", id="infinite-k1"),
    pytest.param(lambda d: d["params"].update(k2=float("inf")), "params: k2 must be finite", id="infinite-k2"),
    pytest.param(lambda d: d["params"].update(nu=float("inf")), r"params: .*nu=inf", id="infinite-nu"),
    pytest.param(lambda d: d["params"].update(dt=float("inf")), "params: dt must be finite", id="infinite-dt"),
    pytest.param(lambda d: d["params"].update(fp_tol=float("inf")), "params: fp_tol must be finite",
                 id="infinite-fp-tol"),
    pytest.param(lambda d: d["disturbance"].update(enabled=True, amplitude=float("inf")),
                 "disturbance: amplitude must be finite", id="infinite-amplitude"),
    pytest.param(lambda d: d["disturbance"].update(enabled=True, amplitude=0.5, seed=-3),
                 "disturbance: seed must be >= 0", id="negative-seed"),
    pytest.param(lambda d: d.update(initial={"z0": [float("nan"), 0.0, 0.0, 0.0]}), "initial: z0 must be finite",
                 id="nan-z0"),
    pytest.param(lambda d: d.update(initial={"z0": [0.0, 0.0, 0.0]}), "initial: z0 has length 3, expected 4",
                 id="short-z0"),
    pytest.param(lambda d: d["topology"].update(nodes=5, edges=d["topology"]["edges"] + [[3, 4, 1.0]]),
                 "topology: 4 generators but topology has 5 nodes", id="connected-five-node-topology"),
    pytest.param(lambda d: d["loss"].update(b_matrix=[row[:3] for row in d["loss"]["b_matrix"][:3]],
                                            b0=d["loss"]["b0"][:3]),
                 r"loss: 4 generators but loss matrix is 3x3", id="three-by-three-loss"),
    pytest.param(_one_generator, "'generators' must be a list of at least two generators", id="one-generator"),
    pytest.param(lambda d: d["output"].update(stride=2.5), r"output\.stride: expected an integer, got 2\.5",
                 id="fractional-stride"),
    pytest.param(lambda d: d["params"].update(fp_max_iter=2.9), r"params\.fp_max_iter: expected an integer, got 2\.9",
                 id="fractional-fp-max-iter"),
    pytest.param(lambda d: d["disturbance"].update(seed=1.7), r"disturbance\.seed: expected an integer, got 1\.7",
                 id="fractional-seed"),
    pytest.param(lambda d: d["topology"].update(nodes=4.5), r"topology\.nodes: expected an integer, got 4\.5",
                 id="fractional-nodes"),
    pytest.param(lambda d: d["topology"]["edges"].__setitem__(0, [0.5, 1, 1.0]),
                 r"topology\.edges: expected an integer, got 0\.5", id="fractional-edge-endpoint"),
    pytest.param(lambda d: d["params"].update(k1=True), r"params\.k1: expected a number, got True",
                 id="boolean-k1"),
    pytest.param(lambda d: d["generators"][0].update(c=True), r"generators\[0\]\.c: expected a number, got True",
                 id="boolean-quadratic-cost"),
    pytest.param(lambda d: d["topology"]["edges"].__setitem__(0, [0, 1, True]),
                 r"topology\.edges: expected a number, got True", id="boolean-edge-weight"),
    pytest.param(lambda d: d.update(initial={"z0": [0.0, True, 0.0, 0.0]}), "initial: expected a number, got True",
                 id="boolean-z0"),
    pytest.param(lambda d: d["output"].update(stride=float("inf")),
                 r"output\.stride: cannot convert float infinity to integer", id="infinite-stride"),
    pytest.param(lambda d: d["loss"].update(b00=True), "loss: expected a number, got True", id="boolean-b00"),
    pytest.param(lambda d: d["loss"]["b0"].__setitem__(0, True), "loss: expected a number, got True",
                 id="boolean-b0-entry"),
    pytest.param(lambda d: d["loss"]["b_matrix"][0].__setitem__(0, True), "loss: expected a number, got True",
                 id="boolean-b-entry"),
    pytest.param(lambda d: d["output"].update(stride=0), "output: output stride must be >= 1", id="zero-stride"),
    pytest.param(lambda d: d["loss"].pop("b_matrix"), "loss: missing key 'b_matrix'", id="missing-b-matrix"),
    pytest.param(lambda d: d["output"].update(stride=True), r"output\.stride: expected an integer, got True",
                 id="boolean-stride"),
    pytest.param(lambda d: d.update(topology={"nodes": 0, "edges": []}), "topology: need at least one node",
                 id="zero-nodes"),
    pytest.param(lambda d: d["loss"].update(b_matrix=[row[:3] for row in d["loss"]["b_matrix"]]),
                 r"loss: B must be square, got shape \(4, 3\)", id="four-by-three-loss"),
]


class TestMalformedRunFile:
    @pytest.mark.parametrize("edit, message", MALFORMED)
    def test_raises_configuration_error_naming_file_section_and_key(self, base_dict, edit, message):
        edit(base_dict)
        with pytest.raises(ConfigurationError, match="^run.yaml: " + message):
            config_from_dict(base_dict, "run.yaml")

    @pytest.mark.parametrize("edit, message", MALFORMED)
    def test_cli_exits_1_with_config_error(self, base_dict, edit, message, tmp_path, capsys):
        edit(base_dict)
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(base_dict, sort_keys=False))
        assert main(["check", "--config", str(path)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {path}: ")
        assert "Traceback" not in captured.err
