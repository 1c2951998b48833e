"""CLI: config parsing, exit statuses, determinism, and golden-file regression."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latticewell.cli import ConfigError, SweepSpec, main, parse_config

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
INT_COLUMNS = ("n", "n_prime", "n_E", "N")

GOLDEN_ARGS = {
    "spectrum.csv": ["spectrum", "--N", "8", "--natural"],
    "wavefunction.csv": ["wavefunction", "--N", "8", "--n-E", "2", "--natural"],
    "density-matrix.csv": ["density-matrix", "--N", "5", "--beta", "2", "--natural"],
    "partition.csv": ["partition", "--N", "6", "--natural", "--sweep", "0.5:4:4:linear"],
    "mean-energy.csv": ["mean-energy", "--N", "6", "--natural", "--beta", "1.5"],
    "heat-capacity.csv": ["heat-capacity", "--N", "6", "--natural", "--sweep", "0.01:10:12:log"],
    "converge.csv": ["converge", "--L", "1", "--natural", "--sweep", "50:400:4:log", "--n-E", "2"],
}


def cli_env():
    """The environment for a child interpreter that imports latticewell from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSweepSpec:
    def test_linear_values(self):
        s = SweepSpec.parse("1:4:4:linear")
        assert s.values() == [1.0, 2.0, 3.0, 4.0]

    def test_log_values(self):
        s = SweepSpec.parse("1:100:3:log")
        assert s.values() == pytest.approx([1.0, 10.0, 100.0])

    def test_rejects_malformed(self):
        for bad in ("1:2:3", "1:2:one:log", "1:2:3:cubic", "0:2:3:log", "2:1:3:linear", "1:9:1:log"):
            with pytest.raises(ConfigError):
                SweepSpec.parse(bad)


class TestParseConfig:
    def test_empty_argv_is_config_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["entangle", "--N", "4"]) == 2

    def test_beta_and_temperature_conflict(self, capsys):
        assert main(["partition", "--N", "5", "--beta", "1", "--T", "300"]) == 2

    def test_a_and_l_conflict(self, capsys):
        assert main(["spectrum", "--N", "5", "--a", "1", "--L", "2"]) == 2

    def test_natural_rejects_si_constants(self, capsys):
        assert main(["spectrum", "--N", "5", "--natural", "--m-star", "2.0"]) == 2

    def test_nonpositive_inputs_rejected(self, capsys):
        assert main(["spectrum", "--N", "5", "--a", "-1"]) == 2
        assert main(["partition", "--N", "5", "--T", "0"]) == 2
        assert main(["spectrum", "--N", "1"]) == 2

    def test_thermal_command_requires_beta_or_t(self, capsys):
        assert main(["partition", "--N", "5"]) == 2

    def test_converge_requires_width_and_sweep(self, capsys):
        assert main(["converge", "--a", "1", "--sweep", "50:400:4:log"]) == 2
        assert main(["converge", "--L", "1"]) == 2

    def test_defaults_natural(self):
        cfg = parse_config(["spectrum", "--N", "5"])
        assert cfg.unit_mode == "natural"
        assert cfg.a == 1.0
        assert cfg.m_star == 1.0 and cfg.hbar == 1.0 and cfg.k_B == 1.0

    def test_si_defaults(self):
        cfg = parse_config(["partition", "--SI", "--L", "1e-8", "--T", "300"])
        assert cfg.m_star == 9.1e-31
        assert cfg.hbar == 1.054e-34
        assert cfg.k_B == 1.38e-23

    def test_config_file_flag_precedence(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("N = 101\na = 0.5\n# comment\noutput = json\n")
        cfg = parse_config(["spectrum", "--config", str(conf), "--N", "201"])
        assert cfg.N == 201       # flag wins
        assert cfg.a == 0.5       # file fills the rest
        assert cfg.output == "json"

    def test_config_file_unknown_key(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("N = 5\nmass = 3\n")
        assert main(["spectrum", "--config", str(conf)]) == 2
        assert "mass" in capsys.readouterr().err

    def test_config_file_exclusive_pair_override(self, tmp_path):
        # a flag from an exclusive pair silences the file's other member
        conf = tmp_path / "run.conf"
        conf.write_text("beta = 1.0\n")
        cfg = parse_config(["partition", "--N", "5", "--T", "300", "--config", str(conf)])
        assert cfg.beta is None
        assert cfg.T == 300.0

    @pytest.mark.parametrize("argv, line", [
        (["converge", "--L", "1", "--natural", "--sweep", "50:400:2:log", "--beta", "1"], "quantity = foo"),
        (["spectrum", "--N", "4"], "output = xml"),
        (["density-matrix", "--N", "4", "--beta", "1"], "normalized = maybe"),
        (["spectrum", "--N", "4"], "normalized = no"),
        (["spectrum"], "N = 2.5"),
        (["spectrum", "--N", "4"], "sweep = 1:2:3:log"),
        (["converge", "--L", "1", "--sweep", "50:400:2:log"], "qua = energy"),
        (["spectrum", "--N", "4"], "config = x"),
    ], ids=["bad-choice", "bad-output", "bad-boolean", "key-of-other-command", "non-integer",
            "sweep-on-spectrum", "abbreviated-key", "nested-config"])
    def test_config_file_values_that_must_fail(self, argv, line, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        assert main(argv + ["--config", str(conf)]) == 2

    @pytest.mark.parametrize("argv", list(GOLDEN_ARGS.values()) + [
        ["partition", "--SI", "--L", "1e-8", "--T", "300", "--m-star", "2e-31", "--k-B", "1.4e-23"],
        ["wavefunction", "--N", "8", "--n-E", "3", "--SI", "--a", "1e-10", "--hbar", "1e-34"],
        ["density-matrix", "--N", "5", "--beta", "2", "--normalized", "--output", "json"],
    ], ids=list(GOLDEN_ARGS) + ["si-constants", "si-wavefunction", "normalized-json"])
    @pytest.mark.parametrize("spelling", ["underscore", "dash"])
    def test_config_file_matches_flags(self, argv, spelling, tmp_path):
        # keys: m_star/k_B/n_E and si, or m-star/k-B/n-E and SI; booleans as words
        lines, rest = [], argv[1:]
        while rest:
            key = rest.pop(0)[2:]
            key = key.replace("-", "_").replace("SI", "si") if spelling == "underscore" else key
            value = rest.pop(0) if rest and not rest[0].startswith("--") else "yes"
            lines.append(f"{key} = {value}")
        conf = tmp_path / "run.conf"
        conf.write_text("\n".join(lines) + "\n")
        assert parse_config([argv[0], "--config", str(conf)]) == parse_config(argv)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestExitStatuses:
    def test_domain_error_small_n_heat_capacity(self, capsys):
        assert main(["heat-capacity", "--N", "4", "--natural", "--T", "1"]) == 3
        assert "domain error" in capsys.readouterr().err

    def test_heat_capacity_zero_beta_is_config_error(self, capsys):
        assert main(["heat-capacity", "--N", "6", "--natural", "--beta", "0"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_domain_error_bad_mode(self, capsys):
        assert main(["wavefunction", "--N", "5", "--n-E", "7", "--natural"]) == 3

    def test_numeric_error_series_cap(self, capsys):
        # mu ~ 2.5e-12 needs far more than the 1e6-term cap
        assert main(["partition", "--N", "5", "--natural", "--beta", "5e-13"]) == 4
        assert "numeric error" in capsys.readouterr().err

    def test_success_is_zero(self, capsys):
        assert main(["spectrum", "--N", "4", "--natural"]) == 0

    @pytest.mark.parametrize("argv", [
        ["partition", "--N", "6", "--natural", "--beta", "nan"],
        ["partition", "--N", "6", "--natural", "--beta", "inf"],
        ["partition", "--N", "6", "--natural", "--T", "inf"],
        ["spectrum", "--N", "6", "--natural", "--a", "inf"],
        ["partition", "--N", "6", "--natural", "--L", "inf", "--beta", "1"],
        ["partition", "--N", "6", "--natural", "--sweep", "1:inf:3:log"],
        ["partition", "--N", "6", "--natural", "--config", "{conf}"],
    ], ids=["beta-nan", "beta-inf", "T-inf", "a-inf", "L-inf", "sweep-stop-inf", "config-beta-nan"])
    def test_non_finite_numbers_are_config_errors(self, argv, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("beta = nan\n")
        assert main([arg.format(conf=conf) for arg in argv]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--N", "5", "--a", "1e-170"],
        ["partition", "--N", "6", "--L", "1e-170", "--beta", "1"],
        ["mean-energy", "--N", "6", "--beta", "1e-320"],
        ["converge", "--L", "1e-170", "--sweep", "10:20:2:linear"],
    ], ids=["a-squared", "theta-argument", "mean-energy-step", "converge-L"])
    def test_arithmetic_underflow_is_domain_error(self, argv, capsys):
        # a^2, L^2 or the finite-difference step underflows to 0 and is divided by
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "domain error" in err and "Traceback" not in err

    def test_underflowed_partition_prints_zero(self, capsys):
        # Z underflows at beta = 1e5; F comes from the closed form, which does not
        code, out = run_cli(["partition", "--N", "6", "--natural", "--beta", "1e5"], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["Z_discrete"]) == float(row["Z_continuum_sum"]) == float(row["Z_theta"]) == 0.0
        assert math.isfinite(float(row["F"])) and float(row["Z_closed"]) > 0


class TestOutput:
    def test_spectrum_n4_values(self, capsys):
        code, out = run_cli(["spectrum", "--N", "4", "--natural"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["e_tilde"]) for r in rows] == pytest.approx([0.5, 1.0, 0.5])

    def test_wavefunction_boundaries(self, capsys):
        code, out = run_cli(["wavefunction", "--N", "6", "--n-E", "1", "--natural"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert float(rows[0]["psi"]) == 0.0
        assert float(rows[-1]["psi"]) == 0.0
        assert len(rows) == 7

    def test_density_matrix_row_count_and_symmetry(self, capsys):
        code, out = run_cli(["density-matrix", "--N", "4", "--beta", "1", "--natural"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 25
        vals = {(r["n"], r["n_prime"]): float(r["rho"]) for r in rows}
        assert vals[("1", "3")] == vals[("3", "1")]

    def test_partition_nan_discrete_without_n(self, capsys):
        code, out = run_cli(["partition", "--natural", "--L", "1", "--beta", "0.1"], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert math.isnan(float(row["Z_discrete"]))
        assert float(row["Z_continuum_sum"]) > 0

    def test_determinism_repeated_runs(self, capsys):
        for args in GOLDEN_ARGS.values():
            code1, out1 = run_cli(list(args), capsys)
            code2, out2 = run_cli(list(args), capsys)
            assert code1 == code2 == 0
            assert out1 == out2

    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
    def test_golden_files(self, name, capsys):
        code, out = run_cli(list(GOLDEN_ARGS[name]), capsys)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGS))
    def test_csv_json_round_trip(self, name, capsys):
        base = list(GOLDEN_ARGS[name])
        _, out_csv = run_cli(base, capsys)
        _, out_json = run_cli(base + ["--output", "json"], capsys)
        doc = json.loads(out_json)
        csv_rows = list(csv.reader(io.StringIO(out_csv)))
        assert csv_rows[0] == doc["columns"]
        assert len(csv_rows) - 1 == len(doc["rows"])
        for crow, jrow in zip(csv_rows[1:], doc["rows"]):
            assert len(crow) == len(jrow)
            for column, cval, jval in zip(doc["columns"], crow, jrow):
                if column in INT_COLUMNS:
                    assert type(jval) is int and str(jval) == cval
                elif column == "quantity":
                    assert type(jval) is str and jval == cval
                else:
                    assert type(jval) is float and format(jval, ".17g") == cval

    def test_json_config_echo(self, capsys):
        _, out = run_cli(["spectrum", "--N", "4", "--natural", "--output", "json"], capsys)
        doc = json.loads(out)
        assert doc["config"]["N"] == 4
        assert doc["meta"]["unit_mode"] == "natural"
        assert doc["columns"][0] == "n_E"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code = main(["spectrum", "--N", "4", "--natural", "--out", str(target)])
        assert code == 0
        _, stdout_version = run_cli(["spectrum", "--N", "4", "--natural"], capsys)
        assert target.read_text() == stdout_version

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "latticewell.cli", "spectrum", "--N", "4", "--natural"],
            capture_output=True, text=True, env=cli_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n_E,e_tilde,E,E_continuum,rel_error")

    def test_unwritable_out_path_is_config_error(self, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "latticewell.cli", "spectrum", "--N", "4", "--natural", "--out", str(target)],
            capture_output=True, text=True, env=cli_env(), timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error:") and proc.stderr.count("\n") == 1

    def test_closed_stdout_exits_one_without_traceback(self):
        # 90,601 rows, far more than a pipe buffer: the writes meet the closed pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "latticewell.cli", "density-matrix", "--N", "300", "--beta", "1", "--natural"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
        )
        assert proc.stdout.readline() == "n,n_prime,rho\n"
        proc.stdout.close()
        stderr = proc.communicate(timeout=60)[1]
        assert proc.returncode == 1
        assert "Traceback" not in stderr and stderr.count("\n") == 1
