"""Command-line interface tests: subcommands, exit codes, config
handling, manifests, and byte-identical reruns."""

import json
import os
import subprocess
import sys

import pytest

from risthz.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    build_parser,
    main,
    parse_grid,
    run_from_manifest,
)
from risthz.config import ConfigError


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "risthz.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


class TestParseGrid:
    def test_basic(self):
        assert parse_grid("0:0.5:1") == [0.0, 0.5, 1.0]

    def test_inclusive_end(self):
        assert parse_grid("0:0.05:1")[-1] == pytest.approx(1.0)
        assert len(parse_grid("0:0.05:1")) == 21

    def test_single_point(self):
        assert parse_grid("0.3:1:0.3") == [0.3]

    def test_bad_spec(self):
        with pytest.raises(ConfigError):
            parse_grid("1:0:2")
        with pytest.raises(ConfigError):
            parse_grid("nonsense")


class TestSubcommands:
    def test_solve_smoke(self):
        proc = run_cli("solve", "--alpha", "0.5")
        assert proc.returncode == EXIT_OK
        payload = json.loads(proc.stdout)
        assert payload["converged"] is True
        assert set(payload["p"]) == {"p_h_d", "p_h_r", "p_l_d", "p_l_r"}

    def test_solve_trace_on_stderr(self):
        proc = run_cli("solve", "--alpha", "0.5", "--trace")
        assert proc.returncode == EXIT_OK
        lines = [json.loads(l) for l in proc.stderr.splitlines() if l.strip()]
        assert lines
        assert {"iteration", "objective", "mu", "p"} <= set(lines[0])

    def test_feasibility_row_count(self, tmp_path):
        out = tmp_path / "region.csv"
        proc = run_cli(
            "feasibility", "--alpha-grid", "0:0.05:1", "--out", str(out)
        )
        assert proc.returncode == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 22  # header + 21 grid points
        assert (tmp_path / "region.csv.manifest.json").exists()

    def test_config_show_defaults_round_trip(self, tmp_path):
        proc = run_cli("config", "--show-defaults")
        assert proc.returncode == EXIT_OK
        cfg_file = tmp_path / "defaults.cfg"
        cfg_file.write_text(proc.stdout)
        proc2 = run_cli("config", "--config", str(cfg_file))
        assert proc2.returncode == EXIT_OK
        resolved = json.loads(proc2.stdout)
        assert resolved["P_max"] == pytest.approx(0.01)
        assert resolved["G_B"] == pytest.approx(1e4)

    def test_unknown_config_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no_such_knob = 1\n")
        proc = run_cli("solve", "--config", str(bad))
        assert proc.returncode == EXIT_CONFIG
        assert "no_such_knob" in proc.stderr

    def test_unparsable_config_value_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("N_R = 4e4\n")
        assert main(["solve", "--config", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "config error: line 1: N_R must be an integer, got '4e4'\n"

    def test_missing_config_file_exit_code(self, tmp_path):
        missing = tmp_path / "nonexistent.cfg"
        proc = run_cli("solve", "--config", str(missing))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.count("\n") == 1
        assert str(missing) in proc.stderr and "Traceback" not in proc.stderr

    def test_non_utf8_config_file_exit_code(self, tmp_path):
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes("# caf\u00e9\nalpha = 0.5\n".encode("latin-1"))
        proc = run_cli("solve", "--config", str(bad))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.count("\n") == 1
        assert str(bad) in proc.stderr and "Traceback" not in proc.stderr

    def test_strict_hc_columns_independent_of_hash_seed(self, tmp_path):
        outs = []
        for seed in ("1", "3"):
            out = tmp_path / f"shc{seed}.csv"
            proc = run_cli(
                "strict-hc", "--sigma-grid", "0.04:1:0.04", "--jobs", "1",
                "--out", str(out), env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_infeasible_beam_target_exit_code(self):
        proc = run_cli(
            "strict-hc", "--sigma-grid", "0.14:1:0.14", "--target", "1e-9",
            "--jobs", "1",
        )
        assert proc.returncode == EXIT_INFEASIBLE
        assert "infeasible" in proc.stderr

    def test_strict_hc_default_grid_is_feasible(self):
        proc = run_cli("strict-hc", "--jobs", "1")
        assert proc.returncode == EXIT_OK
        assert len(proc.stdout.splitlines()) == 1 + 9  # 3 sigma_m x 3 strategies

    def test_unreachable_outage_target_exit_code(self):
        proc = run_cli("strict-hc", "--sigma-grid", "0.24:1:0.24", "--jobs", "1")
        assert proc.returncode == EXIT_INFEASIBLE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("infeasible:")

    def test_oracle_check_passes(self):
        proc = run_cli("oracle-check", "--n", "3", "--seed", "7")
        assert proc.returncode == EXIT_OK
        assert "3/3 passed" in proc.stdout

    @pytest.mark.parametrize("argv", [
        "solve --bogus", "queue-sim --scheme nope", "feasibility --jobs x",
    ])
    def test_usage_error_exit_code(self, argv):
        proc = run_cli(*argv.split())
        assert proc.returncode == EXIT_CONFIG
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


class TestArgumentBounds:
    @pytest.mark.parametrize("argv, message", [
        ("queue-sim --alpha-grid 0.5:1:0.5 --reps 0", "--reps must be >= 1, got 0"),
        ("queue-sim --alpha-grid 0.5:1:0.5 --slots 50", "--slots must be >= 100, got 50"),
        ("queue-sim --alpha-grid 0.5:1:0.5 --slots 0", "--slots must be >= 100, got 0"),
    ], ids=["reps-0", "slots-50", "slots-0"])
    def test_out_of_range_is_config_error(self, capsys, argv, message):
        assert main(argv.split()) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_jobs_default_counts_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert build_parser().parse_args(["feasibility"]).jobs == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert build_parser().parse_args(["feasibility"]).jobs == 64


class TestManifests:
    def test_rerun_byte_identical_deterministic(self, tmp_path):
        out_a = tmp_path / "a.csv"
        rc = main(["blockage-sweep", "--qd-grid", "0:0.5:0.5", "--jobs", "1",
                   "--out", str(out_a)])
        assert rc == EXIT_OK
        out_b = tmp_path / "b.csv"
        rc = run_from_manifest(str(out_a) + ".manifest.json", str(out_b))
        assert rc == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_rerun_byte_identical_stochastic(self, tmp_path):
        out_a = tmp_path / "q.csv"
        rc = main([
            "queue-sim", "--alpha-grid", "0.2:0.2:0.4", "--slots", "2000",
            "--reps", "2", "--seed", "11", "--jobs", "1", "--out", str(out_a),
        ])
        assert rc == EXIT_OK
        out_b = tmp_path / "q2.csv"
        rc = run_from_manifest(str(out_a) + ".manifest.json", str(out_b))
        assert rc == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m.csv"
        main(["misalignment-sweep", "--sigma-grid", "0.1:1:0.1", "--jobs", "1",
              "--out", str(out)])
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["experiment"] == "misalignment-sweep"
        assert manifest["config"]["q_d"] == 0.3
        assert "config_hash" in manifest and "version" in manifest
