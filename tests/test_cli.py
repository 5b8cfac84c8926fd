import math
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import uavloc as u
from uavloc import cli
from uavloc.experiments import CRLB_CSV_HEADER


@pytest.fixture()
def alt_cfg(tmp_path):
    p = tmp_path / "alt.yaml"
    p.write_text("node_count: 20\ntrials: 1\nsweep:\n  values: [300, 900]\n")
    return p


@pytest.fixture()
def count_cfg(tmp_path):
    p = tmp_path / "count.yaml"
    p.write_text("trials: 1\nsweep:\n  values: [3, 6]\n")
    return p


class TestParser:
    def test_help_round_trip(self):
        # Every flag a subcommand accepts appears in its help text, and
        # every --flag mentioned in the help is actually accepted.
        parser = cli.build_parser()
        sub_action = next(a for a in parser._actions
                          if hasattr(a, "choices") and a.choices)
        assert set(sub_action.choices) == set(cli._VARIABLE_BY_COMMAND)
        for name, sub in sub_action.choices.items():
            help_text = sub.format_help()
            accepted = {s for s in sub._option_string_actions if s.startswith("--")}
            mentioned = set(re.findall(r"--[\w-]+", help_text))
            assert accepted == mentioned, name

    def test_exit_codes_documented(self):
        text = cli.build_parser().format_help()
        for code, phrase in [(0, "success"), (2, "usage"), (3, "configuration"),
                             (4, "computation"), (5, "I/O")]:
            assert re.search(rf"{code}\s+.*{phrase}", text)

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--out", "x.csv"])
        assert exc.value.code == 2

    def test_missing_out_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["altitude-sweep"])
        assert exc.value.code == 2

    def test_crlb_flags_reach_the_table(self, alt_cfg, tmp_path):
        out = tmp_path / "crlb.csv"
        assert cli.main(["crlb", "--config", str(alt_cfg), "--out", str(out),
                         "--r", "300", "--r", "700", "--repetitions", "50",
                         "--seed", "5", "--threads", "2"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        header = CRLB_CSV_HEADER.split(",")
        column = {name: [row[header.index(name)] for row in rows]
                  for name in ("r_m", "repetitions", "seed")}
        assert column == {"r_m": ["300.0", "300.0", "700.0", "700.0"],
                          "repetitions": ["50"] * 4, "seed": ["5"] * 4}

    def test_empty_out_exits_2(self, alt_cfg, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["altitude-sweep", "--config", str(alt_cfg), "--out", ""])
        assert exc.value.code == 2
        assert "output path must be non-empty" in capsys.readouterr().err


class TestDispatch:
    def test_altitude_sweep_end_to_end(self, alt_cfg, tmp_path, capsys):
        out = tmp_path / "alt.csv"
        code = cli.main(["altitude-sweep", "--config", str(alt_cfg),
                         "--out", str(out)])
        assert code == 0
        cols = u.read_results_csv(out)
        np.testing.assert_array_equal(cols["sweep_value"], [300.0, 900.0])
        assert (tmp_path / "alt.meta.json").exists()
        msg = capsys.readouterr().out
        k = int(np.argmin(cols["mean_error_m"]))
        assert f"altitude = {cols['sweep_value'][k]:g}" in msg
        assert f"{cols['mean_error_m'][k]:.3f} m" in msg

    def test_distance_sweep_end_to_end(self, tmp_path):
        cfg = tmp_path / "dist.yaml"
        cfg.write_text("trials: 1\nsweep:\n  values: [300, 900]\n")
        out = tmp_path / "dist.csv"
        assert cli.main(["distance-sweep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        cols = u.read_results_csv(out)
        assert set(cols["n_nodes"]) == {8.0}

    def test_count_sweep_end_to_end(self, count_cfg, tmp_path):
        out = tmp_path / "count.csv"
        assert cli.main(["count-sweep", "--config", str(count_cfg),
                         "--out", str(out)]) == 0
        cols = u.read_results_csv(out)
        np.testing.assert_array_equal(cols["sweep_value"], [3.0, 6.0])

    def test_optimize_end_to_end(self, alt_cfg, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        assert cli.main(["optimize", "--config", str(alt_cfg),
                         "--out", str(out)]) == 0
        msg = capsys.readouterr().out
        assert "h_opt" in msg and "theta_opt" in msg
        cols = u.read_results_csv(out)
        k = int(np.argmin(cols["mean_error_m"]))
        assert f"h_opt = {cols['sweep_value'][k]:g} m" in msg

    def test_crlb_end_to_end(self, alt_cfg, tmp_path, capsys):
        out = tmp_path / "crlb.csv"
        assert cli.main(["crlb", "--config", str(alt_cfg), "--out", str(out),
                         "--r", "400", "--repetitions", "200"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CRLB_CSV_HEADER
        assert len(lines) == 3  # two altitudes, one r
        assert "max relative gap" in capsys.readouterr().out

    def test_crlb_zero_bound_exits_0(self, tmp_path, capsys):
        # Without shadowing the bound is 0 at every cell, and so is the
        # estimator spread: the table is written and the summary's relative
        # gap leaves those cells out.
        cfg = tmp_path / "flat.yaml"
        cfg.write_text("environment: {preset: urban, a_los: 0, a_nlos: 0}\n"
                       "sweep:\n  values: [300, 900]\n")
        out = tmp_path / "crlb.csv"
        assert cli.main(["crlb", "--config", str(cfg), "--out", str(out),
                         "--repetitions", "50"]) == cli.EXIT_OK
        want = tmp_path / "want.csv"
        config = u.load_config(cfg)
        u.write_crlb_table(u.run_crlb_comparison(config, (500.0,), repetitions=50),
                           config.seed, want)
        assert out.read_bytes() == want.read_bytes()
        assert [line.split(",")[2] for line in out.read_text().splitlines()[1:]] == \
            ["0.0", "0.0"]
        assert "over 0 points;" in capsys.readouterr().out

    def test_same_manifest_reproduces_bytes(self, alt_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["altitude-sweep", "--config", str(alt_cfg),
                         "--out", str(a)]) == 0
        assert cli.main(["altitude-sweep", "--config", str(alt_cfg),
                         "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_results(self, alt_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["altitude-sweep", "--config", str(alt_cfg), "--out", str(a)])
        cli.main(["altitude-sweep", "--config", str(alt_cfg), "--out", str(b),
                  "--seed", "123"])
        ca, cb = u.read_results_csv(a), u.read_results_csv(b)
        assert not np.array_equal(ca["mean_error_m"], cb["mean_error_m"])
        np.testing.assert_array_equal(ca["sweep_value"], cb["sweep_value"])

    def test_threads_flag_keeps_results(self, alt_cfg, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["altitude-sweep", "--config", str(alt_cfg), "--out", str(a)])
        cli.main(["altitude-sweep", "--config", str(alt_cfg), "--out", str(b),
                  "--threads", "2"])
        assert a.read_bytes() == b.read_bytes()

    def test_preset_flag(self, alt_cfg, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["altitude-sweep", "--config", str(alt_cfg), "--out", str(a)])
        cli.main(["altitude-sweep", "--config", str(alt_cfg), "--out", str(b),
                  "--preset", "suburban"])
        ca, cb = u.read_results_csv(a), u.read_results_csv(b)
        assert not np.array_equal(ca["mean_error_m"], cb["mean_error_m"])


class TestErrorPaths:
    def test_unknown_config_key_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        for text, key in (("node_cuont: 10\n", "node_cuont"),
                          ("solver: {grid_radius: 5.0}\n", "solver.'grid_radius'")):
            cfg.write_text(text)
            code = cli.main(["altitude-sweep", "--config", str(cfg),
                             "--out", str(tmp_path / "o.csv")])
            assert code == cli.EXIT_CONFIG == 3
            assert key in capsys.readouterr().err

    def test_altitude_floor_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("sweep:\n  values: [40, 100]\n")
        code = cli.main(["altitude-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "h_min" in capsys.readouterr().err

    @pytest.mark.parametrize("override,key", [
        pytest.param({"solver": {"step_tol": math.nan}}, "step_tol",
                     id="solver-step_tol-.nan"),
        pytest.param({"search": {"tol": math.nan}}, "tol", id="search-tol-.nan"),
        pytest.param({"solver": {"damping0": math.inf}}, "damping0",
                     id="solver-damping0-.inf"),
        pytest.param({"environment": {"preset": "urban", "a_los": math.nan}},
                     "a_los", id="environment-a_los-.nan"),
        pytest.param({"deployment_radius": math.nan}, "deployment_radius",
                     id="deployment_radius-.nan"),
        pytest.param({"sweep": {"values": [100.0, math.inf]}}, "values",
                     id="sweep-values-.inf"),
        pytest.param({"node_count": math.inf}, "node_count", id="node_count-.inf"),
        pytest.param({"constellation": {"base_side": math.nan}}, "base_side",
                     id="constellation-base_side-.nan"),
        pytest.param({"sweep": {"start": 100.0, "stop": math.inf, "step": 50.0}},
                     "stop", id="sweep-stop-.inf"),
        pytest.param({"sweep": {"start": -1.0e+308, "stop": 1.0e+308, "step": 1.0}},
                     "sweep.stop - sweep.start", id="sweep-span-overflow"),
    ])
    def test_non_finite_setting_exits_3(self, tmp_path, capsys, override, key):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"node_count": 20,
                                       "sweep": {"values": [300.0, 900.0]},
                                       **override}))
        code = cli.main(["altitude-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG == 3
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("override,message", [
        pytest.param({"sweep": {"values": ["abc", 200.0]}},
                     "sweep.values must be a number", id="sweep-values-abc"),
        pytest.param({"sweep": {"start": "abc", "stop": 300.0, "step": 50.0}},
                     "sweep.start must be a number", id="sweep-start-abc"),
        pytest.param({"seed": "abc"}, "seed must be an integer", id="seed-abc"),
        pytest.param({"node_count": [1, 2]}, "node_count must be an integer",
                     id="node_count-list"),
        pytest.param({"trials": 2.5}, "trials must be an integer", id="trials-2.5"),
        pytest.param({"search": {"grid_points": 2.7}},
                     "search.grid_points must be an integer", id="search-grid_points-2.7"),
        pytest.param({"seed": True}, "seed must be an integer", id="seed-true"),
        pytest.param({"deployment_radius": True}, "deployment_radius must be a number",
                     id="deployment_radius-true"),
    ])
    def test_wrong_type_setting_exits_3(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump({"node_count": 20,
                                       "sweep": {"values": [300.0, 900.0]},
                                       **override}))
        code = cli.main(["altitude-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("route", ["flag", "yaml"])
    def test_seed_beyond_128_bits_exits_3(self, tmp_path, capsys, route):
        cfg = tmp_path / "seed.yaml"
        body = "node_count: 10\nsweep:\n  values: [300]\n"
        flag = ["--seed", str(2**128)] if route == "flag" else []
        cfg.write_text(body if flag else body + "seed: 1.0e+40\n")
        code = cli.main(["altitude-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv"), *flag])
        assert code == cli.EXIT_CONFIG == 3
        assert "seed must be >= 0 and < 2**128" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_largest_seed_runs(self, tmp_path):
        cfg = tmp_path / "seed.yaml"
        cfg.write_text("node_count: 10\nsweep:\n  values: [300]\n")
        assert cli.main(["altitude-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv"), "--seed", str(2**128 - 1)]) == 0

    def test_missing_config_file_exits_3(self, tmp_path):
        code = cli.main(["altitude-sweep", "--config",
                         str(tmp_path / "absent.yaml"),
                         "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_unwritable_output_exits_5(self, alt_cfg, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "o.csv"
        code = cli.main(["altitude-sweep", "--config", str(alt_cfg),
                         "--out", str(out)])
        assert code == cli.EXIT_IO == 5
        assert "I/O error" in capsys.readouterr().err

    @pytest.mark.parametrize("call,code,err", [
        ("sys.exit(cli.main(['altitude-sweep', '--config', CFG, '--out', OUT, "
         "'--threads', '2']))", 4, "uavloc: computation error: "),
        ("run_sweep(load_config(CFG), threads=2)", 1, "WorkerPoolError: "),
    ], ids=["cli", "library"])
    def test_unguarded_parallel_script_names_the_guard(self, alt_cfg, tmp_path,
                                                       call, code, err):
        # Workers import the script, which starts the sweep again before
        # they have finished starting up, so every worker dies.
        script = tmp_path / "unguarded.py"
        script.write_text(
            "import sys\n"
            "from uavloc import cli, load_config, run_sweep\n"
            f"CFG, OUT = {str(alt_cfg)!r}, {str(tmp_path / 'o.csv')!r}\n"
            f"{call}\n")
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == code
        # Other lines may follow the error, such as the resource tracker's
        # warning about leaked semaphores, so find the error's own line.
        errors = [line for line in proc.stderr.splitlines() if err in line]
        assert errors
        assert all("if __name__ == \"__main__\":" in line for line in errors)
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("body", [
        "sweep: {variable: anchor_count, values: [3, 300000000000000000000]}\n",
        "constellation: {n_anchors: 300000000000000000000}\n",
    ])
    def test_oversized_anchor_count_exits_3(self, tmp_path, capsys, monkeypatch, body):
        def build(spec):
            raise AssertionError("a constellation was built")

        monkeypatch.setattr("uavloc.experiments.build_constellation", build)
        cfg = tmp_path / "c.yaml"
        cfg.write_text("trials: 1\n" + body)
        code = cli.main(["count-sweep", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG == 3
        assert "of 3 up to 3000" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_study_too_large_for_memory_exits_4(self, alt_cfg, tmp_path, capsys,
                                                monkeypatch):
        def run_sweep(cfg, threads=1):
            raise MemoryError("Unable to allocate 22.4 GiB for an array")

        monkeypatch.setattr(cli, "run_sweep", run_sweep)
        code = cli.main(["altitude-sweep", "--config", str(alt_cfg),
                         "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_COMPUTE == 4
        assert "computation error: Unable to allocate 22.4 GiB" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "-8", "x"])
    def test_bad_thread_count_exits_2(self, alt_cfg, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["altitude-sweep", "--config", str(alt_cfg),
                      "--out", str(tmp_path / "o.csv"), "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_computation_error_exits_4(self, alt_cfg, tmp_path, capsys):
        code = cli.main(["crlb", "--config", str(alt_cfg),
                         "--out", str(tmp_path / "o.csv"),
                         "--repetitions", "1"])
        assert code == cli.EXIT_COMPUTE == 4
        assert "computation error" in capsys.readouterr().err


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("node_count: 10\ntrials: 1\nsweep:\n  values: [500]\n")
        out = tmp_path / "o.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "uavloc.cli", "altitude-sweep",
             "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "altitude sweep" in proc.stdout
