import time
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

import uavloc as u
from uavloc.config import DEFAULT_GRIDS, MAX_GRID_POINTS

DEMO_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "example_config.yaml"


def write_yaml(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestGridFromRange:
    def test_inclusive_stop(self):
        assert u.grid_from_range(100.0, 300.0, 50.0) == \
            (100.0, 150.0, 200.0, 250.0, 300.0)
        assert len(u.grid_from_range(*DEFAULT_GRIDS["altitude"])) == 59

    def test_stop_between_steps(self):
        assert u.grid_from_range(100.0, 125.0, 50.0) == (100.0,)

    def test_single_point(self):
        assert u.grid_from_range(500.0, 500.0, 50.0) == (500.0,)

    def test_validation(self):
        with pytest.raises(u.ConfigError):
            u.grid_from_range(100.0, 300.0, 0.0)
        with pytest.raises(u.ConfigError):
            u.grid_from_range(300.0, 100.0, 50.0)
        with pytest.raises(u.ConfigError, match="sweep.stop - sweep.start must be finite"):
            u.grid_from_range(-1.0e308, 1.0e308, 1.0)

    def test_point_count_capped(self):
        assert len(u.grid_from_range(0.0, MAX_GRID_POINTS - 1.0, 1.0)) == MAX_GRID_POINTS
        with pytest.raises(u.ConfigError, match=f"more than {MAX_GRID_POINTS} points"):
            u.grid_from_range(0.0, float(MAX_GRID_POINTS), 1.0)
        # A quotient that overflows is over the cap too.
        with pytest.raises(u.ConfigError, match="points"):
            u.grid_from_range(0.0, 1.0e10, 1.0e-300)


class TestDefaults:
    def test_no_file_all_defaults(self):
        cfg = u.load_config()
        assert cfg.environment is u.URBAN
        assert cfg.constellation.n_anchors == 3
        assert cfg.constellation.base_side == 500.0
        assert cfg.constellation.altitude == 1000.0
        assert cfg.constellation.side_increment == 0.0
        assert cfg.node_count == 1000
        assert cfg.deployment_radius == 1000.0
        assert cfg.samples_per_anchor == 5
        assert cfg.trials == 1
        assert cfg.seed == 0
        assert cfg.eval_distance == 650.0
        assert cfg.eval_azimuths == 8
        assert cfg.sweep.variable == "altitude"
        assert cfg.sweep.values[0] == 100.0
        assert cfg.sweep.values[-1] == 3000.0
        assert len(cfg.sweep.values) == 59
        assert cfg.search == u.SearchConfig()
        assert cfg.solver == u.SolverConfig()

    def test_empty_file_equals_no_file(self, tmp_path):
        p = write_yaml(tmp_path, "")
        assert u.load_config(p) == u.load_config()

    def test_preset_argument(self):
        cfg = u.load_config(preset="suburban")
        assert cfg.environment is u.SUBURBAN

    def test_per_variable_constellation_defaults(self):
        alt = u.load_config(variable="altitude")
        assert (alt.constellation.base_side,
                alt.constellation.side_increment) == (500.0, 0.0)
        dist = u.load_config(variable="inter_distance")
        assert (dist.constellation.base_side,
                dist.constellation.side_increment) == (500.0, 0.0)
        assert dist.sweep.values == u.grid_from_range(100.0, 1000.0, 50.0)
        count = u.load_config(variable="anchor_count")
        assert (count.constellation.base_side,
                count.constellation.side_increment) == (100.0, 20.0)
        assert count.sweep.values == tuple(float(v) for v in range(3, 31, 3))

    def test_default_config_helper(self):
        cfg = u.default_config(variable="anchor_count", trials=7)
        assert cfg.trials == 7
        assert cfg.sweep.variable == "anchor_count"
        assert u.default_config() == u.load_config()


class TestFileValues:
    def test_single_override_keeps_other_defaults(self, tmp_path):
        p = write_yaml(tmp_path, "node_count: 123\n")
        cfg = u.load_config(p)
        base = u.load_config()
        assert cfg.node_count == 123
        assert cfg.constellation == base.constellation
        assert cfg.sweep == base.sweep

    def test_full_file(self, tmp_path):
        p = write_yaml(tmp_path, """
environment: suburban
seed: 9
trials: 4
node_count: 50
deployment_radius: 800.0
samples_per_anchor: 3
eval_distance: 500.0
eval_azimuths: 4
constellation:
  n_anchors: 6
  base_side: 200.0
  altitude: 750.0
  side_increment: 25.0
  centroid: [10.0, -20.0]
sweep:
  variable: altitude
  values: [200, 400, 800]
search:
  d_max: 10000.0
  grid_points: 128
  tol: 0.05
solver:
  max_iter: 50
  step_tol: 0.001
  damping0: 0.01
""")
        cfg = u.load_config(p)
        assert cfg.environment is u.SUBURBAN
        assert cfg.seed == 9 and cfg.trials == 4 and cfg.node_count == 50
        assert cfg.constellation.centroid == u.NodePosition(10.0, -20.0)
        assert cfg.constellation.n_anchors == 6
        assert cfg.sweep.values == (200.0, 400.0, 800.0)
        assert cfg.search == u.SearchConfig(d_max=10000.0, grid_points=128,
                                            tol=0.05)
        assert cfg.solver == u.SolverConfig(max_iter=50, step_tol=0.001,
                                            damping0=0.01)

    def test_file_environment_wins_over_preset(self, tmp_path):
        p = write_yaml(tmp_path, "environment: suburban\n")
        assert u.load_config(p, preset="urban").environment is u.SUBURBAN

    def test_seed_override_wins(self, tmp_path):
        p = write_yaml(tmp_path, "seed: 9\n")
        assert u.load_config(p).seed == 9
        assert u.load_config(p, seed_override=77).seed == 77
        assert u.load_config(seed_override=5).seed == 5

    def test_inline_environment_with_preset_override(self, tmp_path):
        p = write_yaml(tmp_path, """
environment:
  preset: urban
  a_o: 50.0
""")
        env = u.load_config(p).environment
        assert env.a_o == 50.0
        assert env.b_o == u.URBAN.b_o

    def test_inline_environment_full(self, tmp_path):
        p = write_yaml(tmp_path, """
environment:
  a_los: 5.0
  b_los: 3.5
  a_nlos: 10.0
  b_nlos: 2.5
  a_o: 47.0
  b_o: 20.0
  a_1: -1.0
  b_1: 3.0
""")
        cfg = u.load_config(p)
        assert cfg.environment == u.SUBURBAN
        assert cfg.environment_name == "suburban"

    def test_inline_environment_missing_constant(self, tmp_path):
        p = write_yaml(tmp_path, """
environment:
  a_los: 5.0
  b_los: 3.5
""")
        with pytest.raises(u.ConfigError, match="a_nlos"):
            u.load_config(p)

    def test_sweep_range_in_file(self, tmp_path):
        p = write_yaml(tmp_path, """
sweep:
  start: 100.0
  stop: 400.0
  step: 100.0
""")
        assert u.load_config(p, variable="altitude").sweep.values == \
            (100.0, 200.0, 300.0, 400.0)

    def test_huge_sweep_range_rejected_before_it_is_built(self, tmp_path):
        # 10**12 points would exhaust memory; the cap refuses the range
        # before building any of them.
        p = write_yaml(tmp_path, "sweep: {start: 0, stop: 1.0e+12, step: 1}\n")
        t0 = time.perf_counter()
        with pytest.raises(u.ConfigError, match="more than"):
            u.load_config(p, variable="altitude")
        assert time.perf_counter() - t0 < 5.0


class TestRejections:
    def test_unknown_top_level_key(self, tmp_path):
        p = write_yaml(tmp_path, "node_cuont: 10\n")
        with pytest.raises(u.ConfigError, match="node_cuont"):
            u.load_config(p)

    def test_unknown_nested_key_reports_path(self, tmp_path):
        p = write_yaml(tmp_path, "constellation:\n  altitud: 900\n")
        with pytest.raises(u.ConfigError, match=r"constellation\.'?altitud"):
            u.load_config(p)
        p2 = write_yaml(tmp_path, "sweep:\n  stepp: 10\n", name="c2.yaml")
        with pytest.raises(u.ConfigError, match=r"sweep\."):
            u.load_config(p2)

    def test_coverage_radius_is_unknown(self, tmp_path):
        # It changed no result, so the key was removed.
        p = write_yaml(tmp_path, "constellation:\n  coverage_radius: 500.0\n")
        with pytest.raises(u.ConfigError, match=r"constellation\.'coverage_radius'"):
            u.load_config(p)

    def test_yaml_syntax_error_reports_line(self, tmp_path):
        p = write_yaml(tmp_path, "trials: 2\nsweep: [unclosed\n")
        with pytest.raises(u.ConfigError, match="line"):
            u.load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(u.ConfigError, match="cannot read"):
            u.load_config(tmp_path / "absent.yaml")

    def test_non_mapping_document(self, tmp_path):
        p = write_yaml(tmp_path, "- 1\n- 2\n")
        with pytest.raises(u.ConfigError):
            u.load_config(p)

    def test_variable_conflict(self, tmp_path):
        p = write_yaml(tmp_path, "sweep:\n  variable: inter_distance\n")
        with pytest.raises(u.ConfigError, match="inter_distance"):
            u.load_config(p, variable="altitude")
        # No conflict when they agree or when the command pins nothing.
        assert u.load_config(p).sweep.variable == "inter_distance"
        assert u.load_config(p, variable="inter_distance").sweep.variable == \
            "inter_distance"

    def test_values_and_range_exclusive(self, tmp_path):
        p = write_yaml(tmp_path, """
sweep:
  values: [100, 200]
  step: 50.0
""")
        with pytest.raises(u.ConfigError, match="not both"):
            u.load_config(p, variable="altitude")

    def test_altitude_floor_is_config_error(self, tmp_path):
        p = write_yaml(tmp_path, "sweep:\n  values: [40, 100]\n")
        with pytest.raises(u.ConfigError, match="h_min"):
            u.load_config(p, variable="altitude")

    def test_field_constraint_becomes_config_error(self, tmp_path):
        p = write_yaml(tmp_path, "trials: 0\n")
        with pytest.raises(u.ConfigError, match="trials"):
            u.load_config(p)

    def test_bad_centroid(self, tmp_path):
        p = write_yaml(tmp_path, "constellation:\n  centroid: [1.0]\n")
        with pytest.raises(u.ConfigError, match="centroid"):
            u.load_config(p)

    def test_unknown_environment_section_key(self, tmp_path):
        p = write_yaml(tmp_path, "environment:\n  preset: urban\n  foo: 1\n")
        with pytest.raises(u.ConfigError, match="foo"):
            u.load_config(p)


class TestExampleConfig:
    def test_annotated_example_loads(self):
        cfg = u.load_config(DEMO_CONFIG)
        assert cfg.environment is u.URBAN
        assert cfg.seed == 42
        assert cfg.trials == 3
        assert cfg.node_count == 500
        assert cfg.sweep.variable == "altitude"
        assert cfg.sweep.values == u.grid_from_range(100.0, 2000.0, 100.0)

    def test_example_matches_cli_expectations(self):
        # The altitude-pinned load used by the CLI must accept it unchanged.
        cfg = u.load_config(DEMO_CONFIG, variable="altitude",
                            seed_override=0)
        assert cfg.seed == 0

    def test_example_names_every_search_and_solver_field(self):
        # README calls the example the annotated full schema.
        raw = yaml.safe_load(DEMO_CONFIG.read_text(encoding="utf-8"))
        for section, cls in (("search", u.SearchConfig), ("solver", u.SolverConfig)):
            assert set(raw[section]) == {f.name for f in fields(cls)}, section
