"""Command-line interface tests: subcommands, exit codes, config
handling, manifests, and byte-identical reruns."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from risthz.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    MAX_GRID_POINTS,
    build_parser,
    main,
    parse_grid,
    run_from_manifest,
)
from risthz.config import ConfigError, SystemConfig, default_config_text

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, env=None):
    """A fresh interpreter that imports risthz from this checkout's ``src``,
    in ``env`` (default: this process's environment)."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=300, env=env)


def run_cli(*args, env=None):
    return run_python("-m", "risthz.cli", *args, env=env)


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

    def test_points_are_the_exact_decimals(self):
        # start + i step in binary would give 0.30000000000000004 etc.
        assert parse_grid("0:0.1:1") == [i / 10 for i in range(11)]
        assert parse_grid("0.02:0.04:0.3") == [(2 + 4 * i) / 100 for i in range(8)]
        assert parse_grid("0.14:0.05:0.24") == [0.14, 0.19, 0.24]

    @pytest.mark.parametrize("spec", ["0:nan:1", "0:0.1:inf", "0:inf:1", "-inf:1:0", "1e400:1:2"])
    def test_non_finite_is_config_error(self, spec):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_grid(spec)

    @pytest.mark.parametrize("spec, count", [
        ("0:1:100000", "100001"),
        ("0:1e-9:1", "1.00000e+9"),
        ("0:1e-320:1", "1.00000e+320"),  # building these points would never end
        ("-1.7e308:5e-324:1.7e308", "6.80000e+631"),
    ])
    def test_oversized_grid_is_config_error(self, spec, count):
        # the count is taken from the spec, before any point is built
        with pytest.raises(ConfigError,
                           match=re.escape(f": {count} points, more than {MAX_GRID_POINTS}")):
            parse_grid(spec)

    def test_largest_grid_accepted(self):
        assert len(parse_grid("0:1:99999")) == MAX_GRID_POINTS == 100_000

    @pytest.mark.parametrize("spec, message", [
        ("1e-999999:1:2", "1e-999999 underflows a double"),
        ("-1e-400:1:1", "-1e-400 underflows a double"),
        ("1e-99999999999999999999:1:2", "exponent out of range"),
    ])
    def test_underflowing_part_is_config_error(self, spec, message):
        # a part that reads as 0.0 would build another grid than its text
        with pytest.raises(ConfigError, match=re.escape(f"{spec!r}: {message}")):
            parse_grid(spec)

    @pytest.mark.parametrize("spec", ["0:1e-9999999:1", "1e-9999999:1:2", "0:1:1e-9999999"])
    def test_huge_exponent_rejected_at_once(self, spec):
        # an exact 10**9999999 takes seconds to build
        t0 = time.perf_counter()
        with pytest.raises(ConfigError):
            parse_grid(spec)
        assert time.perf_counter() - t0 < 1.0

    def test_subnormal_parts_accepted(self):
        assert parse_grid("1e-320:1e-320:2e-320") == [1e-320, 2e-320]

    def test_end_below_start_by_less_than_a_double(self):
        with pytest.raises(ConfigError, match="need step > 0 and end >= start"):
            parse_grid("0.30000000000000001:1:0.3")


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
        alphas = [row["alpha"] for row in csv.DictReader(lines)]
        assert alphas == [repr(i / 20) for i in range(21)]  # 0.15, not 0.15000000000000002
        assert (tmp_path / "region.csv.manifest.json").exists()

    def test_config_show_defaults_round_trip(self, tmp_path):
        proc = run_cli("config", "--show-defaults")
        assert proc.returncode == EXIT_OK
        cfg_file = tmp_path / "defaults.cfg"
        cfg_file.write_text(proc.stdout)
        proc2 = run_cli("config", "--config", str(cfg_file))
        assert proc2.returncode == EXIT_OK
        assert json.loads(proc2.stdout) == SystemConfig().as_dict()

    def test_show_defaults_reads_config(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.cfg"
        assert main(["config", "--show-defaults", "--config", str(missing)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: cannot read {missing}")
        cfg_file = tmp_path / "alpha.cfg"
        cfg_file.write_text("alpha = 0.3\n")
        assert main(["config", "--show-defaults", "--config", str(cfg_file)]) == EXIT_OK
        assert capsys.readouterr().out == default_config_text()

    def test_narrow_beam_solves(self, tmp_path):
        # the equivalent-width formula's e^{-v^2} underflows at this beam
        cfg_file = tmp_path / "narrow.cfg"
        cfg_file.write_text("w_r = 0.0003\n")
        proc = run_cli("solve", "--config", str(cfg_file))
        assert proc.returncode == EXIT_OK
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["converged"]

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

    @pytest.mark.parametrize("argv", ["feasibility --alpha-grid 0:1:1 --jobs 1",
                                      "solve --alpha 0.5"])
    @pytest.mark.parametrize("blocked", ["output", "manifest"])
    def test_unwritable_out_exit_code(self, tmp_path, argv, blocked):
        out = tmp_path / "missing" / "x.csv"
        if blocked == "manifest":  # a directory where the manifest goes
            out = tmp_path / "x.csv"
            (tmp_path / "x.csv.manifest.json").mkdir()
        proc = run_cli(*argv.split(), "--out", str(out))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.count("\n") == 1
        assert "error: cannot write" in proc.stderr and "Traceback" not in proc.stderr

    def test_strict_hc_columns_independent_of_hash_seed(self, tmp_path):
        outs = []
        for seed in ("1", "3"):
            out = tmp_path / f"shc{seed}.csv"
            proc = run_cli(
                "strict-hc", "--sigma-grid", "0.04:1:0.04",
                "--out", str(out), env={**os.environ, "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_infeasible_beam_target_exit_code(self):
        proc = run_cli(
            "strict-hc", "--sigma-grid", "0.14:1:0.14", "--target", "1e-9",
        )
        assert proc.returncode == EXIT_INFEASIBLE
        assert "infeasible" in proc.stderr

    def test_strict_hc_default_grid_is_feasible(self):
        proc = run_cli("strict-hc")
        assert proc.returncode == EXIT_OK
        assert len(proc.stdout.splitlines()) == 1 + 9  # 3 sigma_m x 3 strategies

    def test_unreachable_outage_target_exit_code(self, tmp_path):
        # sigma_m = 0.19 and 0.24 cannot meet the target: their points are
        # written as records and only the exit code and stderr flag them
        out = tmp_path / "shc.csv"
        proc = run_cli("strict-hc", "--sigma-grid", "0.14:0.05:0.24", "--out", str(out))
        assert proc.returncode == EXIT_INFEASIBLE
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("infeasible:")
        assert "0.19" in lines[0] and "0.24" in lines[0] and "0.14" not in lines[0]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert [r["feasible"] for r in rows] == ["1"] * 3 + ["0"] * 6
        for r in rows[3:]:
            assert all(r[k] == "nan" for k in r if k not in ("sigma_m", "strategy", "feasible"))
        assert (tmp_path / "shc.csv.manifest.json").is_file()

    def test_blockage_sweep_with_both_classes_in_outage(self, tmp_path):
        # q_r = 1 makes the outage weights equal at q_d = 0.5, and at
        # q_d = 1 both classes are always in outage, so A = 0 everywhere
        cfg = tmp_path / "qr1.cfg"
        cfg.write_text("q_r = 1.0\n")
        out = tmp_path / "blk.csv"
        rc = main(["blockage-sweep", "--config", str(cfg), "--qd-grid", "0.5:0.5:1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        with open(out, newline="") as fh:
            rows = {(r["q_d"], r["alpha_label"]): r for r in csv.DictReader(fh)}
        assert float(rows[("1.0", "alpha_T")]["alpha"]) == 0.0
        assert float(rows[("1.0", "alpha_T")]["A_max"]) == 0.0

    @pytest.mark.parametrize("argv", [
        "queue-sim --scheme time_sharing --alpha-grid 0:0.5:1 --slots 500 --jobs 1",
        "strict-hc --target 1.0 --sigma-grid 0.1:1:0.1",
    ], ids=["queue-sim", "strict-hc"])
    def test_nothing_served_exit_code(self, tmp_path, capsys, argv):
        # q_d = q_r = 1: no class is ever served, and time sharing's
        # A_max is 0 at every split
        cfg = tmp_path / "dead.cfg"
        cfg.write_text("q_d = 1.0\nq_r = 1.0\n")
        assert main(argv.split() + ["--config", str(cfg)]) == EXIT_OK
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3
        if "A_max" in rows[0]:
            assert {r["A_max"] for r in rows} == {"0.0"}

    def test_oracle_check_passes(self):
        proc = run_cli("oracle-check", "--n", "3", "--seed", "7")
        assert proc.returncode == EXIT_OK
        assert "3/3 passed" in proc.stdout

    @pytest.mark.parametrize("argv", [
        "solve --bogus", "queue-sim --scheme nope", "feasibility --jobs x",
        # options a subcommand does not read are not accepted
        "feasibility --seed 3", "queue-sim --trace", "oracle-check --out x",
        "config --jobs 2",
        # only feasibility and queue-sim take --jobs
        "blockage-sweep --jobs 1", "misalignment-sweep --jobs 1", "strict-hc --jobs 1",
    ])
    def test_usage_error_exit_code(self, argv):
        proc = run_cli(*argv.split())
        assert proc.returncode == EXIT_CONFIG
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr

    def test_usage_error_returns_exit_code_in_process(self, capsys):
        # the process exit is left to the caller; --help and --version exit 0
        assert main(["strict-hc", "--jobs", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: risthz ")
        assert err.endswith("risthz: error: unrecognized arguments: --jobs 1\n")
        for argv in (["--version"], ["strict-hc", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0

    def test_undrawable_arrival_rate_is_config_error(self, tmp_path):
        # numpy's Poisson sampler refuses rates above about 9.2e18
        cfg = tmp_path / "flood.cfg"
        cfg.write_text("A_bar = 1e19\n")
        proc = run_cli("queue-sim", "--config", str(cfg), "--alpha-grid", "0:0.5:1",
                       "--slots", "200", "--jobs", "1")
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == "config error: A_bar = 1e+19 cannot be drawn: lam value too large\n"
        assert proc.stdout == ""


class TestImports:
    """A run imports only what its subcommand uses."""

    def test_cli_import_loads_no_simulation_or_pool(self):
        # -S: site hooks of the interpreter may import stdlib modules themselves
        proc = run_python("-S", "-c", "import sys, risthz.cli; print(*sys.modules)")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "risthz.cli" in loaded
        assert not loaded & {"numpy", "concurrent.futures", "multiprocessing", "hashlib",
                             "tempfile", "risthz.queueing", "risthz.experiments"}

    @pytest.mark.parametrize("argv, loaded", [
        (["config", "--show-defaults"], []),
        (["solve", "--alpha", "0.5"], []),
        (["feasibility", "--alpha-grid", "0:0.5:1", "--jobs", "1"], []),
        (["feasibility", "--alpha-grid", "0:0.5:1", "--jobs", "2"], []),
        (["strict-hc", "--sigma-grid", "0.04:0.05:0.09"], []),
        (["queue-sim", "--alpha-grid", "0.5:1:0.5", "--slots", "200", "--jobs", "1"], ["numpy"]),
        (["oracle-check", "--n", "1"], ["numpy"]),
    ], ids=["config", "solve", "feasibility-jobs1", "feasibility-jobs2", "strict-hc",
            "queue-sim", "oracle-check"])
    def test_numpy_and_pool_load_only_where_used(self, argv, loaded):
        code = ("import sys\nfrom risthz.cli import main\nrc = main(sys.argv[1:])\n"
                "print(*(m for m in ('concurrent.futures', 'multiprocessing', 'numpy')"
                " if m in sys.modules), file=sys.stderr)\nsys.exit(rc)\n")
        proc = run_python("-c", code, *argv)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stderr.splitlines()[-1].split() == loaded

    def test_replay_writes_no_temp_file(self, tmp_path):
        out, rerun = tmp_path / "f.csv", tmp_path / "g.csv"
        assert main(["feasibility", "--alpha-grid", "0:0.5:1", "--jobs", "1",
                     "--out", str(out)]) == EXIT_OK
        code = ("import sys\nfrom risthz.cli import run_from_manifest\n"
                "rc = run_from_manifest(sys.argv[1], sys.argv[2])\n"
                "print('tempfile' in sys.modules)\nsys.exit(rc)\n")
        proc = run_python("-S", "-c", code, f"{out}.manifest.json", str(rerun))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.split() == ["False"]
        assert rerun.read_bytes() == out.read_bytes()


class TestProcessPools:
    """Only ``queue-sim`` hands ``--jobs`` to a process pool."""

    @pytest.mark.parametrize("argv", [
        "feasibility --alpha-grid 0.2:0.4:0.6",
        "blockage-sweep --qd-grid 0:0.3:0.3",
        "misalignment-sweep --sigma-grid 0.08:0.12:0.2",
        "strict-hc --sigma-grid 0.04:0.05:0.09",
    ])
    def test_solver_sweeps_open_no_pool(self, tmp_path, pools, argv):
        # of the solver sweeps only feasibility takes --jobs, to no effect
        jobs = (["--jobs", "1"], ["--jobs", "4"]) if argv.startswith("feasibility") else ([],)
        outs = []
        for i, extra in enumerate(jobs):
            out = tmp_path / f"{i}.csv"
            assert main(argv.split() + extra + ["--out", str(out)]) == EXIT_OK
            outs.append(out.read_bytes())
        assert pools == []
        assert len(set(outs)) == 1

    def test_queue_sim_opens_one_pool(self, pools):
        argv = "queue-sim --scheme both --alpha-grid 0.2:0.4:0.6 --slots 500 --jobs 2"
        assert main(argv.split()) == EXIT_OK
        assert pools == [2]

    def test_pool_sized_by_grid_points(self, pools):
        # a grid value runs every scheme, so one point needs no pool
        argv = "queue-sim --scheme both --alpha-grid 0.5:1:0.5 --slots 500 --jobs 2"
        assert main(argv.split()) == EXIT_OK
        assert pools == []


class TestArgumentBounds:
    @pytest.mark.parametrize("argv, message", [
        ("queue-sim --alpha-grid 0.5:1:0.5 --reps 0", "--reps must be >= 1, got 0"),
        ("queue-sim --alpha-grid 0.5:1:0.5 --slots 50", "--slots must be >= 100, got 50"),
        ("queue-sim --alpha-grid 0.5:1:0.5 --slots 0", "--slots must be >= 100, got 0"),
        ("queue-sim --alpha-grid 0.5:1:0.5 --jobs -1", "--jobs must be >= 1, got -1"),
        ("feasibility --jobs 0", "--jobs must be >= 1, got 0"),
        ("oracle-check --n 0", "--n must be >= 1, got 0"),
        ("queue-sim --alpha-grid 0.5:1:0.5 --seed -1", "--seed must be >= 0, got -1"),
        ("oracle-check --seed -1", "--seed must be >= 0, got -1"),
        ("strict-hc --target 0", "target must lie in (0, 1], got 0.0"),
        ("strict-hc --alpha-min -0.5", "alpha_min must lie in [0, 1], got -0.5"),
        ("feasibility --alpha-grid 0:nan:1",
         "bad grid spec '0:nan:1': start, step and end must be finite"),
        ("queue-sim --alpha-grid 0:0.1:inf",
         "bad grid spec '0:0.1:inf': start, step and end must be finite"),
        ("strict-hc --sigma-grid 0:inf:1",
         "bad grid spec '0:inf:1': start, step and end must be finite"),
    ], ids=["reps-0", "slots-50", "slots-0", "queue-jobs--1", "feasibility-jobs-0", "n-0",
            "queue-seed--1", "oracle-seed--1", "target-0", "alpha-min-neg", "grid-nan-step",
            "grid-inf-end", "grid-inf-step"])
    def test_out_of_range_is_config_error(self, capsys, argv, message):
        assert main(argv.split()) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_jobs_default_counts_usable_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert build_parser().parse_args(["feasibility"]).jobs == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert build_parser().parse_args(["feasibility"]).jobs == 64


class TestOptions:
    # every option each subcommand accepts; each one is read by its handler
    TABLE = {
        "config": {"--config", "--show-defaults"},
        "solve": {"--config", "--out", "--trace", "--alpha"},
        "feasibility": {"--config", "--out", "--jobs", "--alpha-grid"},
        "blockage-sweep": {"--config", "--out", "--qd-grid"},
        "misalignment-sweep": {"--config", "--out", "--sigma-grid"},
        "strict-hc": {"--config", "--out", "--sigma-grid", "--alpha-min", "--target"},
        "queue-sim": {"--config", "--out", "--seed", "--jobs", "--alpha-grid", "--scheme",
                      "--slots", "--reps"},
        "oracle-check": {"--config", "--seed", "--n"},
    }

    def test_option_table(self):
        parser = build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        got = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert got == self.TABLE

    @pytest.mark.parametrize("argv", [
        "blockage-sweep --qd-grid 0:0.5:0.5",
        "queue-sim --alpha-grid 0.2:0.2:0.4 --slots 500 --reps 2 --seed 4 --jobs 1",
    ], ids=["blockage-sweep", "queue-sim"])
    def test_stdout_csv_equals_out_csv(self, tmp_path, capsysbinary, argv):
        argv = argv.split()
        assert main(argv) == EXIT_OK
        stdout = capsysbinary.readouterr().out
        out = tmp_path / "o.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert stdout == out.read_bytes()


def assert_rerun_identical(tmp_path, argv, rc_want=EXIT_OK):
    """Run ``argv`` with ``--out``, replay its manifest, and compare the
    two outputs byte for byte."""
    out_a, out_b = tmp_path / "a.out", tmp_path / "b.out"
    assert main(argv + ["--out", str(out_a)]) == rc_want
    assert run_from_manifest(str(out_a) + ".manifest.json", str(out_b)) == rc_want
    assert out_a.read_bytes() == out_b.read_bytes()


class TestManifests:
    def test_rerun_byte_identical_deterministic(self, tmp_path):
        assert_rerun_identical(
            tmp_path, ["blockage-sweep", "--qd-grid", "0:0.5:0.5"])

    @pytest.mark.parametrize("argv, rc_want", [
        ("misalignment-sweep --sigma-grid 0.1:0.1:0.2", EXIT_OK),
        ("strict-hc", EXIT_OK),
        ("strict-hc --sigma-grid 0.14:0.05:0.24", EXIT_INFEASIBLE),
        ("solve --alpha 0.37", EXIT_OK),
    ], ids=["misalignment-sweep", "strict-hc", "strict-hc-infeasible", "solve"])
    def test_rerun_byte_identical_other_subcommands(self, tmp_path, argv, rc_want):
        assert_rerun_identical(tmp_path, argv.split(), rc_want)

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

    def test_replay_of_unknown_config_key_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["solve", "--alpha", "0.4", "--out", str(out)]) == EXIT_OK
        manifest_path = tmp_path / "s.json.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["config"]["no_such_knob"] = 1
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_from_manifest(str(manifest_path), str(tmp_path / "t.json")) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: unknown config keys: no_such_knob\n"

    @pytest.mark.parametrize("key", ["no_such_option", "jobs"])
    def test_replay_of_unknown_argument_is_usage_error(self, tmp_path, capsys, key):
        # "jobs": a manifest of a sweep that no longer takes --jobs
        out = tmp_path / "m.csv"
        assert main(["misalignment-sweep", "--sigma-grid", "0.1:1:0.1",
                     "--out", str(out)]) == EXIT_OK
        manifest_path = tmp_path / "m.csv.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["args"][key] = 1
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_from_manifest(str(manifest_path), str(tmp_path / "n.csv")) == EXIT_CONFIG
        flag = "--" + key.replace("_", "-")
        assert capsys.readouterr().err.endswith(
            f"risthz: error: unrecognized arguments: {flag} 1\n")
        assert not (tmp_path / "n.csv").exists()

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m.csv"
        main(["misalignment-sweep", "--sigma-grid", "0.1:1:0.1", "--out", str(out)])
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["experiment"] == "misalignment-sweep"
        assert manifest["config"]["q_d"] == 0.3
        assert "config_hash" in manifest and "version" in manifest

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["jobs1", "jobs2"])
    def test_queue_sim_matches_recorded_csv(self, tmp_path, jobs):
        # recorded once by ``risthz queue-sim`` at --jobs 1; a change to the
        # queue layer or to the pool's unit of work must leave every seeded
        # byte where it was
        out = tmp_path / "q.csv"
        assert main([
            "queue-sim", "--scheme", "both", "--alpha-grid", "0:0.25:1", "--slots", "2000",
            "--reps", "2", "--seed", "3", "--jobs", jobs, "--out", str(out),
        ]) == EXIT_OK
        golden = Path(__file__).parent / "data" / "queue_sim_golden.csv"
        assert out.read_bytes() == golden.read_bytes()
