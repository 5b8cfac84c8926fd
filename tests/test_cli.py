import json
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
import yaml

import uavloc as u
from uavloc import cli
from uavloc.config import COMMANDS
from uavloc.experiments import CRLB_CSV_HEADER, MAX_THREADS


@pytest.fixture()
def alt_cfg(tmp_path):
    p = tmp_path / "alt.yaml"
    p.write_text("node_count: 20\ntrials: 1\nsweep:\n  values: [300, 900]\n")
    return p


@pytest.fixture()
def crlb_cfg(tmp_path):
    p = tmp_path / "crlb.yaml"
    p.write_text("sweep:\n  values: [300, 900]\n")
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
        assert set(sub_action.choices) == set(COMMANDS)
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

    def test_crlb_flags_reach_the_table(self, crlb_cfg, tmp_path):
        out = tmp_path / "crlb.csv"
        assert cli.main(["crlb", "--config", str(crlb_cfg), "--out", str(out),
                         "--r", "300", "--r", "700", "--repetitions", "50",
                         "--seed", "5", "--threads", "2"]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        header = CRLB_CSV_HEADER.split(",")
        column = {name: [row[header.index(name)] for row in rows]
                  for name in ("r_m", "repetitions", "seed")}
        assert column == {"r_m": ["300.0", "300.0", "700.0", "700.0"],
                          "repetitions": ["50"] * 4, "seed": ["5"] * 4}
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["config"]["seed"] == 5 and meta["runtime"]["workers"] == 2

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

    def test_crlb_end_to_end(self, crlb_cfg, tmp_path, capsys):
        out = tmp_path / "crlb.csv"
        assert cli.main(["crlb", "--config", str(crlb_cfg), "--out", str(out),
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
        u.write_crlb_table(u.run_crlb_comparison(config, (500.0,), repetitions=50), want)
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

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_threads_flag_keeps_results(self, tmp_path, capsys, command):
        serial = _study(tmp_path, command)
        printed = capsys.readouterr().out
        assert serial[0] == 0
        assert _study(tmp_path, command, threads=2) == serial
        assert capsys.readouterr().out == printed

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

    @pytest.mark.parametrize("command", ["count-sweep", "distance-sweep"])
    def test_constellation_altitude_floor_exits_3(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("constellation:\n  altitude: 10.0\n")
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG == 3
        assert "anchor altitude 10 m is below h_min = 50 m" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

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

    @pytest.mark.parametrize("command,override,message", [
        pytest.param("altitude-sweep", {"deployment_radius": 1.0e+154},
                     "deployment_radius must be finite, > 0 and <= 1e+07 m",
                     id="deployment_radius-1e154"),
        pytest.param("altitude-sweep", {"deployment_radius": 1.0e+200},
                     "deployment_radius must be", id="deployment_radius-1e200"),
        pytest.param("distance-sweep", {"eval_distance": 1.0e+200},
                     "eval_distance must be", id="eval_distance-1e200"),
        pytest.param("altitude-sweep", {"constellation": {"base_side": 1.0e+200}},
                     "base_side must be", id="base_side-1e200"),
        pytest.param("distance-sweep", {"sweep": {"values": [300.0, 1.0e+200]}},
                     "sweep values must be <= 1e+07 m", id="distance-value-1e200"),
        pytest.param("count-sweep", {"constellation": {"side_increment": 1.0e+300}},
                     "side_increment must be", id="side_increment-1e300"),
        pytest.param("altitude-sweep", {"constellation": {"centroid": [1.0e+200, 0.0]}},
                     "unknown config key constellation.'centroid'", id="centroid-1e200"),
        pytest.param("altitude-sweep", {"search": {"d_max": 1.0e+300},
                                        "sweep": {"values": [300.0, 1.0e+200]}},
                     "sweep values must be", id="altitude-1e200-d_max-1e300"),
        pytest.param("altitude-sweep", {"search": {"d_max": 1.0e+300}},
                     "d_max must be finite, positive and <= 1e+07 m", id="d_max-1e300"),
        pytest.param("altitude-sweep", {"search": {"tol": 1.0e+300}}, "tol must be",
                     id="tol-1e300"),
        pytest.param("altitude-sweep", {"solver": {"step_tol": 1.0e+300}},
                     "step_tol must be", id="step_tol-1e300"),
        pytest.param("altitude-sweep", {"search": {"d_max": 900.0}},
                     "search.d_max = 900 m must exceed the largest anchor altitude, 900 m",
                     id="altitude-at-d_max"),
        pytest.param("count-sweep", {"search": {"d_max": 500.0},
                                     "sweep": {"values": [3, 6]}},
                     "search.d_max = 500 m must exceed the largest anchor altitude, 1000 m",
                     id="count-altitude-above-d_max"),
        pytest.param("crlb", {"search": {"d_max": 600.0}},
                     "search.d_max = 600 m must exceed", id="crlb-altitude-above-d_max"),
    ])
    def test_huge_length_exits_3(self, tmp_path, capsys, command, override, message):
        body = {"sweep": {"values": [300.0, 900.0]}, **override}
        if command == "altitude-sweep":
            body["node_count"] = 20
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(body))
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == cli.EXIT_CONFIG == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("r", ["1.7e+308", "1.0e+7000", "1.0e+8"])
    def test_huge_crlb_distance_exits_4(self, crlb_cfg, tmp_path, capsys, r):
        code = cli.main(["crlb", "--config", str(crlb_cfg), "--out", str(tmp_path / "o.csv"),
                         "--r", r, "--repetitions", "10"])
        assert code == cli.EXIT_COMPUTE == 4
        assert "r_values must be nonempty, finite, positive and <= 1e+07 m" in \
            capsys.readouterr().err
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
        # Only YAML numbers are read, not strings that Python would parse.
        pytest.param({"node_count": "1_0"}, "node_count must be an integer, got '1_0'",
                     id="node_count-string"),
        pytest.param({"sweep": {"values": ["9_00"]}},
                     "sweep.values must be a number, got '9_00'", id="sweep-values-string"),
        pytest.param({"deployment_radius": " 500 "},
                     "deployment_radius must be a number, got ' 500 '",
                     id="deployment_radius-string"),
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
        # Each body goes to a command that reads its key.
        command = "count-sweep" if body.startswith("sweep") else "altitude-sweep"
        code = cli.main([command, "--config", str(cfg),
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

    @pytest.mark.parametrize("value", ["-1", "-8", "x", "1025", "99999999999999999999"])
    def test_bad_thread_count_exits_2(self, alt_cfg, tmp_path, capsys, value):
        # Each value is refused while parsing, before a study or a pool starts.
        with pytest.raises(SystemExit) as exc:
            cli.main(["altitude-sweep", "--config", str(alt_cfg),
                      "--out", str(tmp_path / "o.csv"), "--threads", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--threads" in err
        assert value == "x" or f"must be in [0, {MAX_THREADS}]" in err
        assert not (tmp_path / "o.csv").exists()

    def test_non_finite_crlb_value_exits_4(self, crlb_cfg, tmp_path, capsys, monkeypatch):
        run_crlb_comparison = cli.run_crlb_comparison

        def spoiled(*args, **kwargs):
            table = run_crlb_comparison(*args, **kwargs)
            return replace(table, points=table.points[:-1]
                           + (replace(table.points[-1], mle_sigma=math.nan),))

        monkeypatch.setattr(cli, "run_crlb_comparison", spoiled)
        out = tmp_path / "o.csv"
        code = cli.main(["crlb", "--config", str(crlb_cfg), "--out", str(out),
                         "--repetitions", "50"])
        assert code == cli.EXIT_COMPUTE == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists() and not out.with_suffix(".meta.json").exists()

    def test_computation_error_exits_4(self, crlb_cfg, tmp_path, capsys):
        code = cli.main(["crlb", "--config", str(crlb_cfg),
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


#: A valid value other than the built-in default for each settable key
#: outside `sweep`. Environment constants are set over the urban preset.
NON_DEFAULT = {
    "seed": 5, "trials": 2, "node_count": 7, "deployment_radius": 400.0,
    "samples_per_anchor": 2, "eval_distance": 300.0, "eval_azimuths": 3,
    "environment.preset": "suburban", "environment.a_los": 8.0, "environment.b_los": 3.0,
    "environment.a_nlos": 25.0, "environment.b_nlos": 2.0, "environment.a_o": 40.0,
    "environment.b_o": 12.0, "environment.a_1": -1.4, "environment.b_1": 3.6,
    "constellation.n_anchors": 6, "constellation.base_side": 300.0,
    "constellation.altitude": 500.0, "constellation.side_increment": 50.0,
    "search.d_max": 5000.0, "search.grid_points": 64, "search.tol": 1.0,
    "solver.max_iter": 2, "solver.step_tol": 10.0, "solver.damping0": 10.0,
}
#: Two-point base sweeps as ranges, and a changed value of each sweep key.
BASE_SWEEP = {"altitude": {"start": 300.0, "stop": 900.0, "step": 600.0},
              "inter_distance": {"start": 300.0, "stop": 900.0, "step": 600.0},
              "anchor_count": {"start": 3, "stop": 6, "step": 3}}
SWEEP_CHANGE = {"altitude": {"values": [300.0, 600.0], "start": 400.0, "stop": 1500.0,
                             "step": 300.0},
                "inter_distance": {"values": [300.0, 600.0], "start": 400.0,
                                   "stop": 1500.0, "step": 300.0},
                "anchor_count": {"values": [3, 9], "start": 6, "stop": 9, "step": 6}}
#: Settings that no result depends on, so no command accepts them as keys:
#: the scene is centred on the origin, and k_ref and c_offset cancel.
REMOVED = {"constellation.centroid": [100.0, 50.0], "environment.k_ref": 40.0,
           "environment.c_offset": 7.0}
#: Accepted keys that leave these small studies unchanged; config.COMMANDS
#: says why each stays accepted.
#: Three anchors form one triangle, so side_increment has none to grow.
UNCHANGED = {"sweep.variable"}
UNCHANGED_BY = {"altitude-sweep": {"constellation.side_increment"},
                "distance-sweep": {"constellation.side_increment"},
                "count-sweep": set(),
                "crlb": {"trials"},
                "optimize": {"constellation.side_increment"}}
ALL_KEYS = frozenset().union(*(reads for _, reads in COMMANDS.values()))


def _study(tmp_path, command: str, key: str | None = None,
           threads: int = 1) -> tuple[int, bytes]:
    """Exit code and CSV bytes of a small study whose config sets `key`."""
    variable = COMMANDS[command][0]
    body = {"sweep": dict(BASE_SWEEP[variable])}
    if "node_count" in COMMANDS[command][1]:
        body["node_count"] = 20
    section, _, name = (key or "").rpartition(".")
    value = {**NON_DEFAULT, **REMOVED}.get(key)
    if section == "sweep":
        body["sweep"] = ({"values": SWEEP_CHANGE[variable]["values"]} if name == "values"
                         else {**BASE_SWEEP[variable], name: SWEEP_CHANGE[variable][name]})
    elif section == "environment":
        body["environment"] = {"preset": "urban", name: value}
    elif section:
        body[section] = {name: value}
    elif key is not None:
        body[key] = value
    cfg, out = tmp_path / f"{command}-{key}.yaml", tmp_path / f"{command}-{key}.csv"
    cfg.write_text(yaml.safe_dump(body))
    extra = ["--repetitions", "50"] if command == "crlb" else []
    extra += ["--threads", str(threads)]
    code = cli.main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out.read_bytes() if out.exists() else b""


@pytest.fixture(scope="module")
def default_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("defaults")
    return {command: _study(tmp, command)[1] for command in COMMANDS}


class TestCommandKeys:
    def test_table_covers_every_key(self):
        assert ALL_KEYS == set(NON_DEFAULT) | {f"sweep.{k}" for k in
                                              ("variable", "values", "start", "stop", "step")}
        assert {c: len(reads) for c, (_, reads) in COMMANDS.items()} == {
            "altitude-sweep": 28, "distance-sweep": 28, "count-sweep": 28,
            "crlb": 20, "optimize": 28}

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, (_, reads) in COMMANDS.items()
        for key in sorted(reads - UNCHANGED - UNCHANGED_BY[command])])
    def test_every_read_key_changes_the_csv(self, tmp_path, default_csv, command, key,
                                            capsys):
        code, csv_bytes = _study(tmp_path, command, key)
        assert code == cli.EXIT_OK, capsys.readouterr().err
        assert default_csv[command] and csv_bytes != default_csv[command]

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, (_, reads) in COMMANDS.items()
        for key in sorted(ALL_KEYS - reads)])
    def test_every_unread_key_exits_3(self, tmp_path, capsys, command, key):
        code, csv_bytes = _study(tmp_path, command, key)
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG == 3
        section, _, name = key.rpartition(".")
        shown = f"{section}.{name!r}" if section else repr(name)
        assert f"config key {shown} is not read by the {command!r} command" in err
        assert csv_bytes == b""

    @pytest.mark.parametrize("command,key", [(command, key) for command in COMMANDS
                                             for key in sorted(REMOVED)])
    def test_removed_key_exits_3(self, tmp_path, capsys, command, key):
        code, csv_bytes = _study(tmp_path, command, key)
        section, _, name = key.rpartition(".")
        assert code == cli.EXIT_CONFIG == 3
        assert f"unknown config key {section}.{name!r}" in capsys.readouterr().err
        assert csv_bytes == b""
