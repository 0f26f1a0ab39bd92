import ast
import dataclasses
import inspect
import json
import subprocess
import sys

import pytest

import idlewage.cli
from idlewage import Objective, ScenarioConfig, load_config, optimize, optimize_day_fixed
from idlewage.cli import main
from idlewage.equilibrium import PeriodTables

COARSE_CONFIG = {
    "grid": {"p_step": 0.1, "j_step": 0.35, "tau_step": 0.25},
    "solver": {"scan_points": 1024},
}


@pytest.fixture
def coarse_cfg(tmp_path):
    f = tmp_path / "coarse.json"
    f.write_text(json.dumps(COARSE_CONFIG))
    return str(f)


CRIT10_CONFIG = {
    "grid": {"p_step": 0.25, "j_step": 0.7, "tau_step": 0.5},
    "solver": {"scan_points": 512},
}


def _config_file(tmp_path, name, data) -> str:
    f = tmp_path / name
    f.write_text(json.dumps(data))
    return str(f)


@pytest.fixture
def crit10_cfg(tmp_path):
    return _config_file(tmp_path, "crit10.json", CRIT10_CONFIG)


class TestEquilibriumCommand:
    def test_prints_residuals(self, capsys):
        rc = main(["equilibrium", "--hour", "19", "--p", "1.0", "--J", "0.5", "--tau", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "res_supply" in out and "res_demand" not in out

    def test_shutdown_only_at_zero_policy(self, capsys):
        rc = main(["equilibrium", "--hour", "4", "--p", "0", "--J", "0", "--tau", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inf" in out


class TestAnalyticCommand:
    def test_high_premium_case_c(self, capsys):
        rc = main(["analytic", "--epsilon", "1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        line = next(l for l in out.splitlines() if l.startswith("c_joint"))
        assert "0.3125" in line and "0.390625" in line

    def test_csv_output(self, tmp_path, capsys):
        out_file = tmp_path / "analytic.csv"
        rc = main(["analytic", "--epsilon", "0.3", "--out", str(out_file)])
        capsys.readouterr()
        assert rc == 0
        text = out_file.read_text()
        assert text.splitlines()[4].startswith("epsilon,case,J,tau,profit"[:7]) or "case" in text


class TestTable2Command:
    def test_first_published_row(self, capsys):
        rc = main(["table2", "--beta", "0.2", "--A4", "3.5", "--A19", "44.0",
                   "--objective", "profit", "--threads", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        row = out.splitlines()[-1].split()
        J, tau, value = float(row[3]), float(row[4]), float(row[5])
        assert J == 1.1 and tau == 1.0
        assert abs(value - 181.6) <= 0.2

    def test_config_constants_reach_the_table(self, tmp_path, capsys):
        # kappa is a global of the config, not a tool override, so it must
        # change the two-period days as it changes every other figure
        kappa = _config_file(tmp_path, "kappa.json", {**CRIT10_CONFIG, "kappa": 2.0})
        base = _config_file(tmp_path, "crit10.json", CRIT10_CONFIG)
        row = ["table2", "--beta", "0.5", "--A4", "4.0", "--A19", "44.5", "--objective",
               "welfare", "--threads", "2"]
        for name, path in (("kappa", kappa), ("base", base)):
            assert main(row + ["--config", path, "--out", str(tmp_path / f"{name}.csv")]) == 0
        capsys.readouterr()
        got = (tmp_path / "kappa.csv").read_text().splitlines()[-1]
        assert got != (tmp_path / "base.csv").read_text().splitlines()[-1]
        cfg = load_config(kappa)
        g = dataclasses.replace(cfg.grid, j_step=0.1, tau_step=0.1)
        day = dataclasses.replace(cfg, risk_beta=0.5).two_period_day(4.0, 44.5)
        assert day.periods[0].demand.kappa == 2.0
        res = optimize_day_fixed(day, Objective.WELFARE, g, cfg.solver)
        want = (0.5, 4.0, 44.5, res.best_schedule.idle_wages[0], res.best_schedule.commission,
                res.value)
        assert got == ",".join(format(x, ".17g") for x in want)


class TestOptimizeCommand:
    def test_single_period(self, coarse_cfg, capsys):
        rc = main(["optimize", "single", "--hour", "19", "--objective", "profit",
                   "--config", coarse_cfg, "--threads", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tau*=1" in out

    def test_minwage_infeasible_exit_code(self, coarse_cfg, capsys):
        rc = main(["optimize", "minwage", "--objective", "profit", "--jmin", "1e5",
                   "--config", coarse_cfg, "--threads", "2"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "infeasible" in err.lower()

    def test_incomplete_grid_exits_2_and_says_widen(self, tmp_path, capsys):
        # with z_max = 1 hour some prices hold no equilibrium at J > 0
        cfg = _config_file(tmp_path, "narrow.json", {
            "grid": {"p_step": 0.25, "j_step": 0.7, "tau_step": 0.5},
            "solver": {"scan_points": 512, "z_max": 1.0},
        })
        rc = main(["optimize", "single", "--hour", "19", "--objective", "profit",
                   "--config", cfg, "--threads", "2"])
        assert rc == 2
        assert "widen" in capsys.readouterr().err

    def test_minwage_floor_defaults_to_config_blocks_j_min(self, tmp_path, capsys):
        f = tmp_path / "floor.json"
        f.write_text(json.dumps({
            "grid": {"p_step": 0.25, "j_step": 0.7, "tau_step": 0.5},
            "solver": {"scan_points": 512},
            "blocks": {"j_min": 16},
        }))
        outs = []
        for extra, name in (([], "config.csv"), (["--jmin", "16"], "flag.csv")):
            out = tmp_path / name
            rc = main(["optimize", "minwage", "--objective", "profit", "--config", str(f),
                       "--threads", "2", "--out", str(out)] + extra)
            assert rc == 0
            outs.append(out.read_bytes())
        assert ">= 16" in capsys.readouterr().err
        assert outs[0] == outs[1]


class TestUsageErrors:
    def test_missing_objective(self, capsys):
        rc = main(["sweep-j", "--hour", "19"])
        assert rc == 2

    def test_unknown_command(self, capsys):
        rc = main(["frobnicate"])
        assert rc == 2

    def test_bad_config_file(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{nope}")
        rc = main(["equilibrium", "--hour", "1", "--p", "1", "--J", "0.5", "--tau", "1",
                   "--config", str(f)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "invalid JSON" in err

    def test_bad_hour(self, capsys):
        rc = main(["equilibrium", "--hour", "25", "--p", "1", "--J", "0.5", "--tau", "1"])
        assert rc == 2

    def test_non_finite_price_names_the_field(self, capsys):
        rc = main(["equilibrium", "--hour", "19", "--p", "nan", "--J", "0.5", "--tau", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "price" in err and "scan window" not in err

    def test_non_finite_config_value_names_the_key(self, tmp_path, capsys):
        f = tmp_path / "nan.json"
        f.write_text('{"grid": {"p_step": NaN}}')
        rc = main(["optimize", "single", "--objective", "profit", "--config", str(f)])
        assert rc == 2
        assert "p_step" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"kappa": %s}', "kappa"),
        ('{"grid": {"p_step": %s}}', "p_step"),
        ('{"lambda_by_hour": [%s]}', "lambda_by_hour"),
    ])
    def test_integer_beyond_float_range_names_the_key(self, tmp_path, capsys, text, key):
        f = tmp_path / "big.json"
        f.write_text(text % ("9" * 400))
        rc = main(["equilibrium", "--hour", "19", "--p", "2", "--J", "0.5", "--tau", "0.3",
                   "--config", str(f)])
        assert rc == 2
        assert f"{key} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"kappa": false}', "kappa"),
        ('{"risk_beta": "0.5"}', "risk_beta"),
        ('{"blocks": {"b1": true}}', "b1"),
        ('{"lambda_by_hour": [null, 15]}', "lambda_by_hour"),
    ])
    def test_non_number_config_value_names_the_key(self, tmp_path, capsys, text, key):
        f = tmp_path / "bool.json"
        f.write_text(text)
        rc = main(["optimize", "single", "--objective", "profit", "--config", str(f)])
        assert rc == 2
        assert f"{key} must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, argv",
        [
            ({"solver": {"scan_points": 100.5}},
             ["equilibrium", "--hour", "19", "--p", "1", "--J", "0.5", "--tau", "1"]),
            ({"blocks": {"b1": 2.5}}, ["optimize", "minwage", "--objective", "profit"]),
            ({"blocks": {"b2": 3.0}}, ["optimize", "minwage", "--objective", "profit"]),
        ],
    )
    def test_non_integer_config_value_names_the_key(self, tmp_path, capsys, section, argv):
        f = tmp_path / "frac.json"
        f.write_text(json.dumps(section))
        rc = main(argv + ["--config", str(f)])
        assert rc == 2
        (key,) = next(iter(section.values()))
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, argv",
        [
            ({"grid": {"j_min": -0.7}}, ["sweep-j", "--objective", "profit"]),
            ({"grid": {"p_min": -1}}, ["optimize", "single", "--objective", "profit"]),
        ],
    )
    def test_negative_grid_minimum_names_the_key(self, tmp_path, capsys, section, argv):
        f = tmp_path / "negative.json"
        f.write_text(json.dumps(section))
        rc = main(argv + ["--config", str(f)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        (key,) = next(iter(section.values()))
        assert f"{key} must be >= 0" in captured.err

    @pytest.mark.parametrize(
        "section, argv",
        [
            ({"grid": {"p_step": 1e-12}}, ["optimize", "single", "--objective", "profit"]),
            ({"grid": {"tau_step": 1e-12}}, ["optimize", "single", "--objective", "profit"]),
            ({"solver": {"scan_points": 10**13}},
             ["equilibrium", "--hour", "19", "--p", "1", "--J", "0.5", "--tau", "1"]),
        ],
    )
    def test_grid_over_budget_names_the_key(self, tmp_path, capsys, section, argv):
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(section))
        rc = main(argv + ["--config", str(f)])
        assert rc == 2
        (key,) = next(iter(section.values()))
        assert f"{key} " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_threads_flag_is_named(self, capsys, value):
        rc = main(["analytic", "--epsilon", "1", "--threads", value])
        assert rc == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5"])
    def test_bad_threads_env_is_named(self, monkeypatch, capsys, value):
        monkeypatch.setenv("IDLEWAGE_THREADS", value)
        rc = main(["analytic", "--epsilon", "1"])
        assert rc == 2
        assert "IDLEWAGE_THREADS" in capsys.readouterr().err


class TestNoPrivateImports:
    def test_cli_imports_only_public_idlewage_names(self):
        tree = ast.parse(inspect.getsource(idlewage.cli))
        private = [
            f"line {node.lineno}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "idlewage")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
        assert not private, private


class TestSweepCommand:
    def test_csv_has_flag_column(self, coarse_cfg, tmp_path, capsys):
        out_file = tmp_path / "sweep.csv"
        rc = main(["sweep-j", "--hour", "19", "--objective", "profit",
                   "--config", coarse_cfg, "--threads", "2", "--out", str(out_file)])
        capsys.readouterr()
        assert rc == 0
        header = [l for l in out_file.read_text().splitlines() if not l.startswith("#")][0]
        assert header == "J,best_value,best_tau,best_price,tau1_optimal"


class TestTable2ProfitIdentity:
    def test_profit_rows_identical_across_low_risk_weights(self, capsys):
        # the profit optimum sits at tau = 1 where trip earnings vanish, so
        # the risk weight drops out; verified, not assumed
        rows = {}
        for beta in ("0.2", "0.35", "0.65"):
            rc = main(["table2", "--beta", beta, "--A4", "4.5", "--A19", "45.0",
                       "--objective", "profit", "--threads", "2"])
            out = capsys.readouterr().out
            assert rc == 0
            rows[beta] = out.splitlines()[-1].split()[3:]
        assert rows["0.2"] == rows["0.35"] == rows["0.65"]


class TestReproduceAllPlan:
    def test_coarse_run_refines_each_distinct_slice_once(self, tmp_path, monkeypatch, capsys):
        # the criterion-10 config: one value_tables call serves every figure;
        # only fig5's re-priced block hours, off the wage grid, solve apart
        cfg = tmp_path / "coarse.json"
        cfg.write_text(json.dumps({
            "grid": {"p_step": 0.25, "j_step": 0.7, "tau_step": 0.5},
            "solver": {"scan_points": 512},
        }))
        slices, builds = [], []
        solve, build = optimize.solve_slices, PeriodTables.build

        def counting_solve(tables, j_values, coefs):
            slices.extend(coefs)
            yield from solve(tables, j_values, coefs)

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(optimize, "solve_slices", counting_solve)
        monkeypatch.setattr(PeriodTables, "build", staticmethod(counting_build))
        rc = main(["reproduce-all", "--outdir", str(tmp_path / "out"), "--config", str(cfg),
                   "--threads", "2"])
        capsys.readouterr()
        assert rc == 0
        assert len(slices) == 792
        assert len(builds) <= 58

    def test_coarse_run_builds_one_config_per_beta(self, crit10_cfg, tmp_path, monkeypatch,
                                                   capsys):
        # the loaded config plus one per distinct figure or table2 beta
        betas = {*idlewage.cli.FIG1_BETAS, *idlewage.cli.FIG2_BETAS, *idlewage.cli.FIG4_BETAS,
                 idlewage.cli.FIG5_BETA, *idlewage.cli.TABLE2_BETAS}
        assert len(betas) == 8
        built, post_init = [], ScenarioConfig.__post_init__

        def counting(self):
            built.append(self.risk_beta)
            post_init(self)

        monkeypatch.setattr(ScenarioConfig, "__post_init__", counting)
        rc = main(["reproduce-all", "--outdir", str(tmp_path / "out"), "--config", crit10_cfg,
                   "--threads", "2"])
        capsys.readouterr()
        assert rc == 0
        assert len(built) <= len(betas) + 1


class TestConsoleEntryPoint:
    def test_version_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "idlewage.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "idlewage" in proc.stdout


def _stdout_cell(csv_cell: str) -> str:
    """A CSV cell as stdout prints it: numbers to 6 significant digits."""
    try:
        return format(float(csv_cell), ".6g")
    except ValueError:
        return csv_cell


class TestOneTablePerCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["equilibrium", "--hour", "19", "--p", "1.0", "--J", "0.5", "--tau", "1.0"],
            ["equilibrium", "--hour", "4", "--p", "0", "--J", "0", "--tau", "0"],
            ["sweep-j", "--objective", "profit"],
            ["optimize", "single", "--objective", "profit"],
            ["optimize", "flexible", "--objective", "welfare"],
            ["optimize", "fixed", "--objective", "profit"],
            ["optimize", "minwage", "--objective", "profit", "--jmin", "16"],
            ["value-vs-tau", "--objective", "welfare"],
            ["table2", "--objective", "profit"],
            ["analytic", "--epsilon", "0.5"],
        ],
        ids=["equilibrium", "equilibrium-shutdown", "sweep-j", "optimize-single",
             "optimize-flexible", "optimize-fixed", "optimize-minwage", "value-vs-tau",
             "table2", "analytic"],
    )
    def test_stdout_prints_the_csv_table(self, crit10_cfg, tmp_path, capsys, argv):
        # stdout shows the --out table: same header, same rows to 6 digits,
        # then the same summary lines
        argv = argv + ["--config", crit10_cfg, "--threads", "2"]
        assert main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        out_file = tmp_path / "table.csv"
        assert main(argv + ["--out", str(out_file)]) == 0
        summary = capsys.readouterr().out.splitlines()
        rows = [l.split(",") for l in out_file.read_text().splitlines() if not l.startswith("#")]
        assert printed[0].split() == rows[0]
        assert [l.split() for l in printed[1:len(rows)]] == [
            [_stdout_cell(c) for c in r] for r in rows[1:]
        ]
        assert printed[len(rows):] == summary
