import dataclasses
import json

import numpy as np
import pytest

from idlewage import (
    ParseError,
    ResultTable,
    ValidationError,
    builtin_day,
    default_config,
    dump_config,
    emit_table,
    load_config,
    period_for_hour,
    scenario_hash,
    two_period_day,
)

# verbatim copies of the calibrated hourly tables
LAMBDA = [30, 15, 10, 5, 15, 18, 39, 70, 120, 100, 80, 77,
          73, 77, 79, 85, 100, 145, 163, 150, 130, 120, 110, 70]
POOL = [13, 11, 12, 4.5, 4, 6, 11, 17.5, 22, 32.5, 28.5, 28,
        25, 23, 23.3, 24, 25, 29, 45, 50, 43, 32, 29, 28.5]


class TestBuiltinTables:
    def test_day_matches_hardcoded_tables(self):
        day = builtin_day()
        assert len(day.periods) == 24
        for h, s in enumerate(day.periods, start=1):
            assert s.demand.lambda_max == LAMBDA[h - 1]
            assert s.supply.pool_size == POOL[h - 1]
            assert s.demand.kappa == 1.768
            assert s.demand.beta_p == -0.669
            assert s.demand.beta_T == -1.134
            assert s.pickup.k_T == 0.127
            assert s.pickup.alpha_T == -0.515
            assert s.supply.elasticity == 1.2
            assert s.trip_time == 0.25

    def test_named_hours(self):
        assert period_for_hour(19).demand.lambda_max == 163
        assert period_for_hour(19).supply.pool_size == 45
        assert period_for_hour(4).demand.lambda_max == 5
        assert period_for_hour(4).supply.pool_size == 4.5
        assert period_for_hour(1).demand.lambda_max == 30
        assert period_for_hour(1).supply.pool_size == 13

    def test_two_period_day_overrides_pools(self):
        day = two_period_day(0.2, 3.5, 44.0)
        assert [s.supply.pool_size for s in day.periods] == [3.5, 44.0]
        assert [s.demand.lambda_max for s in day.periods] == [5, 163]
        assert all(s.supply.risk_beta == 0.2 for s in day.periods)

    def test_helpers_equal_the_config_methods(self):
        # the module helpers are the built-in config's days and periods
        cfg = dataclasses.replace(default_config(), risk_beta=0.35)
        assert builtin_day(0.35) == cfg.day()
        assert period_for_hour(7, 0.35, pool_size=9.0) == cfg.period(7, pool_size=9.0)
        assert two_period_day(0.35, 4.5, 45.0) == cfg.two_period_day(4.5, 45.0)

    def test_config_two_period_day_keeps_the_config_constants(self):
        cfg = dataclasses.replace(default_config(), kappa=2.0, trip_time=0.3, risk_beta=0.5)
        day = cfg.two_period_day(4.0, 44.5)
        assert [s.supply.pool_size for s in day.periods] == [4.0, 44.5]
        assert [s.demand.lambda_max for s in day.periods] == [5, 163]
        assert all(s.demand.kappa == 2.0 and s.trip_time == 0.3 and s.supply.risk_beta == 0.5
                   for s in day.periods)


class TestLoadConfig:
    def test_empty_file_means_defaults(self, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text("")
        assert load_config(f) == default_config()

    def test_single_field_override(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"risk_beta": 0.25}))
        cfg = load_config(f)
        assert cfg == dataclasses.replace(default_config(), risk_beta=0.25)

    def test_wrong_period_count(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"lambda_by_hour": [1.0] * 23}))
        with pytest.raises(ValidationError, match="expected 24 periods"):
            load_config(f)

    def test_unknown_keys_rejected(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"risk_betta": 0.25}))
        with pytest.raises(ValidationError, match="unknown key"):
            load_config(f)
        f.write_text(json.dumps({"grid": {"p_stepp": 0.1}}))
        with pytest.raises(ValidationError, match="unknown key"):
            load_config(f)

    def test_invalid_value_names_invariant(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"risk_beta": 1.5}))
        with pytest.raises(ValidationError, match="risk_beta"):
            load_config(f)

    def test_parse_error_reports_position(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"risk_beta": }')
        with pytest.raises(ParseError, match="line 1, column 15"):
            load_config(f)

    def test_grid_and_solver_sections(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({
            "grid": {"p_max": 3.0, "j_step": 0.1},
            "solver": {"scan_points": 512},
            "blocks": {"b1": 3, "b2": 5},
        }))
        cfg = load_config(f)
        assert cfg.grid.p_max == 3.0 and cfg.grid.j_step == 0.1
        assert cfg.solver.scan_points == 512
        assert (cfg.blocks.b1, cfg.blocks.b2) == (3, 5)

    def test_round_trip_of_defaults(self, tmp_path):
        f = tmp_path / "defaults.json"
        dump_config(default_config(), f)
        assert load_config(f) == default_config()

    def test_hash_is_stable_and_sensitive(self):
        a = scenario_hash(default_config())
        assert a == scenario_hash(default_config())
        b = scenario_hash(dataclasses.replace(default_config(), risk_beta=0.3))
        assert a != b


class TestEmitTable:
    def test_deterministic_bytes(self, tmp_path):
        t = ResultTable(
            {"x": [1, 2, 3], "y": [0.1, 0.2, np.float64(1) / 3]},
            {"regime": "demo", "objective": "profit"},
        )
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_table(t, f1)
        emit_table(t, f2)
        assert f1.read_bytes() == f2.read_bytes()

    def test_layout_and_precision(self, tmp_path):
        t = ResultTable({"v": [0.1]}, {"regime": "demo"})
        f = tmp_path / "t.csv"
        emit_table(t, f)
        lines = f.read_text().splitlines()
        assert lines[0] == "# regime: demo"
        assert lines[1] == "v"
        assert lines[2] == "0.10000000000000001"  # 17 significant digits

    def test_empty_table_is_header_only(self, tmp_path):
        t = ResultTable({"a": [], "b": []}, {"regime": "demo"})
        f = tmp_path / "t.csv"
        emit_table(t, f)
        assert f.read_text() == "# regime: demo\na,b\n"

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValidationError):
            ResultTable({"a": [1], "b": []}, {})

    def test_unwritable_path_raises_oserror(self, tmp_path):
        t = ResultTable({"a": [1]}, {})
        with pytest.raises(OSError, match="emit_table"):
            emit_table(t, tmp_path / "no" / "such" / "dir.csv")
