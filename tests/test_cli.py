"""CLI: config parsing, exit statuses, determinism, and golden-file regression."""

import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticewell import __version__, cli
from latticewell.bloch import DensityMatrix
from latticewell.cli import (
    ConfigError,
    SweepSpec,
    _lattice,
    _particle,
    build_table,
    emit,
    main,
    parse_config,
)
from latticewell.lattice import LatticeSpec
from latticewell.spectrum import ParticleSpec
from latticewell.thermo import partition_continuum_sum

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
#: The golden configs plus SI constants and a boolean, for the config-file round trips.
CONFIG_ARGS = {**GOLDEN_ARGS,
    "si-constants": ["partition", "--SI", "--L", "1e-8", "--T", "300", "--m-star", "2e-31", "--k-B", "1.4e-23"],
    "si-wavefunction": ["wavefunction", "--N", "8", "--n-E", "3", "--SI", "--a", "1e-10", "--hbar", "1e-34"],
    "normalized-json": ["density-matrix", "--N", "5", "--beta", "2", "--normalized", "--output", "json"],
}
#: The golden configs plus continuum-only runs, whose discrete columns are nan.
ROUND_TRIP_ARGS = {**GOLDEN_ARGS,
    "partition-continuum": ["partition", "--L", "50", "--natural", "--beta", "1"],
    "mean-energy-continuum": ["mean-energy", "--L", "50", "--natural", "--sweep", "0.5:4:3:linear"],
}

#: Runs that once printed inf or nan with exit 0, or failed unnamed: (argv, exit code, what stderr names).
NON_FINITE_ROWS = [
    (["spectrum", "--N", "4", "--a", "1e160", "--SI", "--hbar", "1e154"], 0, None),
    (["mean-energy", "--L", "1", "--natural", "--beta", "1e-309"], 3, "H_mean_continuum overflows"),
    (["mean-energy", "--N", "4", "--L", "1", "--natural", "--beta", "1e-309"], 3, "H_mean_continuum overflows"),
    (["wavefunction", "--N", "33", "--L", "3e-309", "--natural"], 0, None),
    (["partition", "--N", "4", "--a", "1e150", "--SI", "--hbar", "1e154", "--beta", "1e-12"], 0, None),
    (["mean-energy", "--N", "4", "--a", "1e150", "--SI", "--hbar", "1e154", "--beta", "1e-12"], 0, None),
    (["partition", "--N", "4", "--a", "1", "--SI", "--hbar", "1e-170", "--beta", "1e-10"], 4,
     "sum of exp(-3.38929e-321 n^2)"),
    (["mean-energy", "--N", "4", "--a", "1", "--SI", "--hbar", "1e-170", "--beta", "1e-10"], 0, None),
    (["partition", "--N", "4", "--a", "5e-150", "--natural", "--T", "9.99e307"], 3, "F = -ln Z/beta overflows"),
    (["mean-energy", "--N", "4", "--SI", "--m-star", "1.7e-200", "--k-B", "1.7e10",
      "--sweep", "1.7e-320:3.40016e-320:3:linear"], 3, "H_mean_continuum overflows"),
    (["partition", "--L", "1", "--SI", "--hbar", "1e160", "--beta", "1"], 0, None),
    (["mean-energy", "--L", "1", "--SI", "--hbar", "1e200", "--beta", "1"], 0, None),
    (["partition", "--L", "1e150", "--SI", "--m-star", "5e-324", "--hbar", "1", "--beta", "1"], 0, None),
    (["partition", "--L", "1e-160", "--SI", "--m-star", "1e160", "--hbar", "1e100", "--beta", "1e300"], 3,
     "F = -ln Z/beta is undefined: Z underflows to 0"),
    (["mean-energy", "--L", "1e-160", "--SI", "--m-star", "1e160", "--hbar", "1e100", "--beta", "1e300"], 3,
     "H_mean_continuum is undefined: Z_closed underflows to 0"),
    (["partition", "--L", "1e160", "--SI", "--m-star", "1", "--hbar", "1e160", "--beta", "1"], 0, None),
    (["mean-energy", "--L", "1e160", "--SI", "--m-star", "1", "--hbar", "1e160", "--beta", "1"], 0, None),
    (["spectrum", "--N", "24", "--L", "3.286117576999689e-153", "--natural"], 3, "E_continuum = pi^2 n_E^2"),
    (["density-matrix", "--N", "8", "--L", "1e200", "--beta", "1e6", "--SI", "--hbar", "1e160"], 0, None),
]


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
        assert s.values == [1.0, 2.0, 3.0, 4.0]

    def test_log_values(self):
        s = SweepSpec.parse("1:100:3:log")
        assert s.values == pytest.approx([1.0, 10.0, 100.0])

    def test_rejects_malformed(self):
        for bad in ("1:2:3", "1:2:one:log", "1:2:3:cubic", "0:2:3:log", "2:1:3:linear", "2:2:3:linear", "1:9:1:log"):
            with pytest.raises(ConfigError):
                SweepSpec.parse(bad)

    def test_points_are_bounded_before_the_values_are_formed(self, capsys):
        # 1e8 points would be a list of ~3 GB; the bound is checked before any value is formed
        assert len(SweepSpec.parse(f"1:2:{cli.SWEEP_MAX_POINTS}:log").values) == cli.SWEEP_MAX_POINTS
        for points in (cli.SWEEP_MAX_POINTS + 1, 10 ** 8):
            assert main(["partition", "--N", "6", "--natural", "--sweep", f"1:2:{points}:linear"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and f"{cli.SWEEP_MAX_POINTS} points, got {points}" in err


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
        assert not cfg.si
        assert _lattice(cfg).a == 1.0
        assert _particle(cfg) == ParticleSpec(m_star=1.0, hbar=1.0, k_B=1.0)

    def test_si_defaults(self):
        cfg = parse_config(["partition", "--SI", "--L", "1e-8", "--T", "300"])
        particle = _particle(cfg)
        assert particle.m_star == 9.1e-31
        assert particle.hbar == 1.054e-34
        assert particle.k_B == 1.38e-23

    def test_spacing_from_width(self):
        assert _lattice(parse_config(["spectrum", "--N", "8", "--L", "2"])).a == 0.25
        assert _lattice(parse_config(["spectrum", "--N", "8", "--a", "0.3"])).a == 0.3

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

    @pytest.mark.parametrize("argv", CONFIG_ARGS.values(), ids=CONFIG_ARGS)
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

    @pytest.mark.parametrize("argv", [
        *CONFIG_ARGS.values(), ["partition", "--N", "6", "--sweep", "0.0012345678:4:2:log"],
    ], ids=[*CONFIG_ARGS, "sweep-digits"])
    def test_json_config_echo_reparses(self, argv, tmp_path, capsys):
        # the echoed options as a config file: command dropped, nulls skipped, booleans as words
        argv = argv if "--output" in argv else argv + ["--output", "json"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        echo = json.loads(out)["config"]
        assert echo.pop("command") == argv[0]
        lines = [f"{key} = {('yes' if value else 'no') if isinstance(value, bool) else value}"
                 for key, value in echo.items() if value is not None]
        conf = tmp_path / "run.conf"
        conf.write_text("\n".join(lines) + "\n")
        assert parse_config([argv[0], "--config", str(conf)]) == parse_config(argv)

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["partition", "--N", "6", "--natural", "--beta", "-1"], "beta must be >= 0"),
        (["converge", "--L", "1", "--natural", "--sweep", "50:400:3:log", "--quantity", "partition"],
         "quantity=partition needs --beta or --T"),
        (["spectrum", "--natural"], "--N is required"),
        (["partition", "--natural", "--beta", "1"], "without --N the continuum needs --L"),
        (["partition", "--N", "6", "--natural", "--beta", "1", "--sweep", "1:2:3:log"], "not both"),
        (["density-matrix", "--N", "5", "--natural"], "give --beta or --T"),
        (["wavefunction", "--N", "5", "--n-E", "0", "--natural"], "n-E must be >= 1"),
        (["spectrum", "--N", "5", "--config", "{missing}"], "cannot read config file"),
        (["spectrum", "--N", "5", "--config", "{conf}"], "expected 'key = value'"),
    ], ids=["negative-beta", "partition-without-beta", "N-required", "continuum-without-L", "beta-and-sweep",
            "density-without-beta", "n-E-zero", "missing-config-file", "config-line-without-equals"])
    def test_config_errors_name_their_cause(self, argv, message, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("N 6\n")
        assert main([arg.format(conf=conf, missing=tmp_path / "missing.conf") for arg in argv]) == 2
        assert message in capsys.readouterr().err


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

    def test_numeric_error_series_cap_at_underflowed_mu(self, capsys):
        # mu = beta pi^2/(2 L^2) underflows to 0: the continuum sum of ones hits the cap
        argv = ["converge", "--L", "1e300", "--natural", "--beta", "1e-300", "--quantity", "partition",
                "--sweep", "2:4:2:linear"]
        assert main(argv) == 4
        assert "numeric error: sum of exp(-0 n^2) needs more than 1000000 terms" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["converge", "--L", "1", "--natural", "--sweep", "0.5:3:3:linear"],
        ["converge", "--L", "1", "--sweep", "1:3:3:linear", "--quantity", "partition", "--beta", "1"],
        ["converge", "--L", "1", "--natural", "--sweep", "50:400:3:log", "--quantity", "partition", "--beta", "0"],
        ["converge", "--L", "1", "--natural", "--sweep", "50:400:3:log", "--beta", "0"],
        ["converge", "--L", "1", "--N", "5", "--sweep", "50:400:3:log"],
        ["converge", "--L", "17", "--natural", "--sweep", "2.5e100:5e+100:3:linear"],
        ["converge", "--L", "17", "--natural", "--sweep", "5e18:6e18:2:linear"],
        ["converge", "--L", "17", "--natural", "--sweep", "4.6e18:4.611686018427387904e18:2:linear"],
    ], ids=["sweep-rounds-to-0", "sweep-rounds-to-1", "partition-beta-0", "energy-beta-0", "N-given",
            "N-past-int64", "2N-past-int64", "N-is-2**62"])
    def test_converge_input_errors_are_config_errors(self, argv, capsys):
        # converge sweeps N itself, so it has no --N and each rounded N must be >= 2; modes
        # are folded mod 2N in int64, so N must be below 2**62 (4e18:4.5e18 runs)
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_converge_runs_just_below_the_int64_bound(self, capsys):
        assert main(["converge", "--L", "17", "--natural", "--sweep", "4e18:4.5e18:2:linear"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("4500000000000000000,energy,")

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
        ["heat-capacity", "--N", "5", "--L", "3e200", "--natural", "--sweep", "1e307:1e+308:3:linear"],
        ["mean-energy", "--N", "4", "--a", "5e100", "--natural", "--sweep", "1.7e307:1.7e+308:3:linear"],
        ["partition", "--N", "9", "--L", "1e-5", "--SI", "--sweep", "1.7e307:1.7e+308:3:linear"],
        ["converge", "--L", "1.7e308", "--natural", "--sweep", "1.7e307:1.7e+308:3:linear"],
        ["partition", "--N", "6", "--natural", "--sweep", "1e300:1.7976931348623157e308:3:log"],
    ], ids=["beta-nan", "beta-inf", "T-inf", "a-inf", "L-inf", "sweep-stop-inf", "config-beta-nan",
            "sweep-T-overflows", "sweep-beta-overflows", "sweep-partition-overflows", "sweep-N-overflows",
            "sweep-power-overflows"])
    def test_non_finite_numbers_are_config_errors(self, argv, tmp_path, capsys):
        # a sweep's values overflow where (stop - start) i does before the division by
        # points - 1, or where 10.0 ** x raises; the message names the sweep
        conf = tmp_path / "run.conf"
        conf.write_text("beta = nan\n")
        assert main([arg.format(conf=conf) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        if "--sweep" in argv:
            assert repr(argv[argv.index("--sweep") + 1]) in err

    @pytest.mark.parametrize("argv, quantity", [
        (["spectrum", "--N", "5", "--a", "1e-170"], "energy scale"),
        (["partition", "--N", "6", "--L", "1e-170", "--beta", "1"], "energy scale"),
        (["mean-energy", "--N", "6", "--beta", "1e-320"], None),
        (["converge", "--L", "1e-170", "--sweep", "10:20:2:linear"], "energy scale"),
        (["partition", "--N", "6", "--natural", "--T", "1e-320"], "1/(k_B *"),
        (["heat-capacity", "--N", "6", "--natural", "--beta", "1e-320"], "1/(k_B *"),
        (["density-matrix", "--N", "4", "--natural", "--T", "1e-320"], "1/(k_B *"),
        (["heat-capacity", "--N", "5", "--L", "5", "--beta", "2", "--SI", "--hbar", "1e160"], "energy scale"),
        (["mean-energy", "--N", "3", "--L", "1e-160", "--beta", "1e-160"], "energy scale"),
        (["mean-energy", "--N", "2", "--L", "1.7e308", "--beta", "1e-12", "--natural"], None),
        (["wavefunction", "--N", "2", "--a", "1.7e308"], None),
        (["heat-capacity", "--N", "64", "--T", "1e-320", "--natural"], None),
        (["heat-capacity", "--N", "8", "--SI", "--k-B", "1e160", "--beta", "1.7e308"], "1/(k_B *"),
        (["density-matrix", "--N", "5", "--a", "1e-170", "--beta", "1"], "energy scale"),
        (["heat-capacity", "--N", "6", "--a", "1e-170", "--T", "1"], "energy scale"),
        (["partition", "--N", "8", "--a", "1.7e-50", "--SI", "--T", "1e-320"], "1/(k_B *"),
        (["heat-capacity", "--N", "9", "--SI", "--beta", "3e-320"], "1/(k_B *"),
    ], ids=["a-squared", "theta-argument", "mean-energy-step", "converge-L",
            "beta-from-T", "T-from-beta", "density-beta-from-T",
            "energy-scale-hbar", "energy-scale-a", "Z-closed",
            "width", "x-column", "T-underflow", "density-a-squared", "heat-capacity-a-squared",
            "k-B-T-underflow", "k-B-beta-underflow"])
    def test_arithmetic_underflow_is_domain_error(self, argv, quantity, capsys):
        # the energy scale, N*a, Z_closed or x = Theta/T overflows, the
        # finite-difference step underflows to 0, or 1/(k_B x) turning T into
        # beta or beta into T leaves (0, inf); the energy scale names itself
        # where its true value overflows (a small a, or a large hbar), and
        # 1/(k_B x) names itself, also where k_B x underflows to 0
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "domain error" in err and "Traceback" not in err
        named = [q for q in ("energy scale", "1/(k_B *") if q in err]
        assert named == ([quantity] if quantity else [])

    @pytest.mark.parametrize("argv, row", [
        (["spectrum", "--N", "4", "--a", "1", "--SI", "--m-star", "5e-324", "--hbar", "1e-200"],
         "1,0.49999999999999989,5.0600563326827641e-78,6.2425942813507365e-78,0.18943053086129791"),
        (["partition", "--L", "1e-170", "--beta", "1", "--natural"],
         "1,nan,0,3.9894228040143269e-171,0,392.35840434219244"),
        (["mean-energy", "--L", "1e-170", "--beta", "1", "--natural"], "1,nan,0.50000000186400939"),
    ], ids=["spectrum-hbar-squared-underflow", "theta-argument-continuum", "theta-argument-mean-energy"])
    def test_scaled_units_print_the_true_value(self, argv, row, capsys):
        # hbar hbar ~ 1e-400 underflowed to 0 and printed E = 0, where the true E ~ 5.06e-78
        # (40 digits: 5.0600563326827653e-78 at e_tilde = 1/2); 2 m* L^2 ~ 2e-340 underflowed
        # and raised, where Z_closed = L/sqrt(2 pi) is representable and mu = inf is the
        # documented Z = 0 of the sum and theta; both now come from the factors' significands
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert out.splitlines()[1] == row

    def test_underflowed_partition_prints_zero(self, capsys):
        # Z underflows at beta = 1e5; F comes from the closed form, which does not
        code, out = run_cli(["partition", "--N", "6", "--natural", "--beta", "1e5"], capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        assert float(row["Z_discrete"]) == float(row["Z_continuum_sum"]) == float(row["Z_theta"]) == 0.0
        assert math.isfinite(float(row["F"])) and float(row["Z_closed"]) > 0

    @pytest.mark.parametrize("beta_E0", [730.0, 746.0, 1e4, 1e300])
    @pytest.mark.parametrize("N", [5, 40], ids=["N5", "N40"])
    def test_normalized_density_matrix_at_large_beta(self, N, beta_E0, capsys):
        # rho and Z both carry exp(-beta E0), which is subnormal past beta E0 ~ 708
        # and 0 past ~745; their ratio is finite, and its odd-site trace is 1
        beta = beta_E0 / (0.5 * math.sin(math.pi / N) ** 2)
        code, out = run_cli(["density-matrix", "--N", str(N), "--natural", "--beta", repr(beta), "--normalized"],
                            capsys)
        assert code == 0
        rho = {(int(r["n"]), int(r["n_prime"])): float(r["rho"]) for r in csv.DictReader(io.StringIO(out))}
        assert all(math.isfinite(v) for v in rho.values())
        assert 2.0 * math.fsum(rho[n, n] for n in range(1, N, 2)) == pytest.approx(1.0, abs=1e-14)

    def test_wavefunction_of_a_width_whose_energy_scale_overflows(self, capsys):
        # psi needs only sqrt(2/L), so an energy scale that overflows does not stop it
        code, out = run_cli(["wavefunction", "--N", "7", "--n-E", "3", "--natural", "--L", "1e-300"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        psi = [float(r["psi"]) for r in rows]
        assert all(math.isfinite(v) for v in psi)
        a = float(rows[1]["x_n"])
        assert 2.0 * a * math.fsum(v * v for v in psi[1::2]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("argv, row", [
        (["partition", "--N", "5", "--L", "1e-12", "--beta", "1e300"],
         "1.0000000000000001e+300,0,0,3.9894228040143271e-163,0,3.7393772359824007e-298"),
        (["mean-energy", "--N", "5", "--L", "1e-12", "--beta", "1e300"],
         "1.0000000000000001e+300,4.3186437851565778e+24,5.0000000157979223e-301"),
        (["density-matrix", "--N", "5", "--L", "1e-12", "--beta", "1e300"], None),
        (["density-matrix", "--N", "64", "--L", "1e-12", "--beta", "1e300"], None),
        (["partition", "--L", "1e-160", "--beta", "1", "--natural"],
         "1,nan,0,3.9894228040143268e-161,0,369.33255341225197"),
    ], ids=["partition", "mean-energy", "density-N5", "density-N64", "theta-argument-inf"])
    def test_overflowing_boltzmann_exponent_prints_the_limit(self, argv, row, capsys):
        # beta * E or mu overflows: every factor exp(-beta E) or exp(-mu n^2) is 0
        # and the mean energy is E0, with no NumPy RuntimeWarning (an error under
        # this suite)
        code, out = run_cli(argv, capsys)
        assert code == 0
        lines = out.splitlines()
        if row is not None:
            assert lines[1:] == [row]
        else:
            N = int(argv[2])
            assert len(lines) == 1 + (N + 1) ** 2
            assert all(line.endswith(",0") for line in lines[1:])

    @pytest.mark.parametrize("argv, column", [
        (["partition", "--N", "6", "--natural", "--beta", "1.7e308"], "Z_closed"),
        (["mean-energy", "--N", "6", "--natural", "--beta", "1.7e308"], "H_mean_continuum"),
    ], ids=["partition", "mean-energy"])
    def test_closed_form_at_the_largest_beta(self, argv, column, capsys):
        # 2 pi beta hbar^2 overflows, but Z_closed = 6 (2 pi beta)^(-1/2) ~ 1.8e-154
        # and H = 1/(2 beta) are representable
        code, out = run_cli(argv, capsys)
        assert code == 0
        row = next(csv.DictReader(io.StringIO(out)))
        expected = 6.0 / math.sqrt(2.0 * math.pi) / math.sqrt(1.7e308) if column == "Z_closed" else 0.5 / 1.7e308
        assert float(row[column]) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("argv, code, named", NON_FINITE_ROWS, ids=[
            "spectrum-hbar-squared-pi-squared", "mean-energy-continuum-only", "mean-energy-N4", "wavefunction-2-over-L",
            "partition-closed-ratio-underflow", "mean-energy-closed-ratio-underflow",
            "partition-hbar-squared-underflow", "mean-energy-hbar-squared-underflow",
            "free-energy-overflow", "mean-energy-step-underflow",
            "partition-hbar-squared-overflow", "mean-energy-hbar-squared-overflow",
            "partition-subnormal-m-star", "free-energy-closed-underflow", "mean-energy-closed-underflow",
            "partition-both-squares-overflow", "mean-energy-both-squares-overflow", "spectrum-continuum-overflow",
            "density-energy-scale"])
    def test_no_silent_non_finite_output(self, argv, code, named, capsys):
        # each printed inf or nan with exit 0, or failed unnamed: E_continuum as hbar^2 pi^2
        # overflowed, H_mean_continuum ~ 1/(2 beta) overflows, sqrt(2/L) as 2/L overflowed
        # (the constant, 2.45e153, is representable), Z_closed ~ 1.5e-13 as
        # m*/(2 pi beta hbar^2) underflowed to 0 and its log failed, and Z_closed ~ 1.5e160
        # as 2 pi beta hbar^2 underflowed to 0 and was divided by; there the true mu ~ 3.39e-321
        # is subnormal, so the continuum sum hits the series cap; F = -ln Z/beta overflows at
        # beta ~ 1e-308, and the step h = 1e-4 beta of H_mean_continuum underflows to 0;
        # hbar ** 2 raised libm's "Numerical result out of range" past hbar ~ 1.34e154,
        # m*/(2 pi) rounded a subnormal m* to 0, and ln of a Z_closed ~ 4e-331 that
        # underflows to 0 failed as a bare "math domain error"; where hbar hbar and 2 m* L^2 both
        # overflowed, mu = inf/inf was NaN and the continuum sum reported the series cap;
        # E_continuum = pi^2 n_E^2 hbar^2/(2 m* L^2) overflowed where the lattice E did not; and
        # hbar hbar = 1e320 overflowed and named the energy scale, where epsilon0 ~ 3.5e-49
        assert main(argv) == code
        captured = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        # a run without --N prints its discrete column as nan
        cells = [cell for row in rows for column, cell in row.items() if "--N" in argv or "discrete" not in column]
        assert (len(cells) > 0) == (code == 0)
        assert all(math.isfinite(float(cell)) for cell in cells)
        if named:
            message = {3: "domain error: {}", 4: "numeric error: {} needs more than"}[code]
            assert message.format(named) in captured.err

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_exit_code_contract(self, data):
        # any flag set from the domain below exits 0-4 with no traceback, no bare libm
        # message and no nan or inf cell but the discrete columns of a run without --N;
        # a run that exits 0 writes nothing to stderr, and any other names its kind of error;
        # the same options from a config file give the same exit code, stdout and stderr
        draw = data.draw
        power = st.floats(-323.0, 308.0).map(lambda u: 10.0 ** u)
        command = draw(st.sampled_from(["spectrum", "wavefunction", "density-matrix", "partition", "mean-energy",
                                        "heat-capacity", "converge"]))
        argv = [command]
        N = None if command == "converge" else draw(st.none() | st.integers(2, 64))
        if N is not None:
            argv += ["--N", str(N)]
        width = "--L" if command == "converge" else draw(st.sampled_from(["--L", "--a"]))
        argv += [width, repr(draw(power))]
        if draw(st.booleans()):
            argv += ["--SI", "--m-star", repr(draw(power)), "--hbar", repr(draw(power)), "--k-B", repr(draw(power))]
        else:
            argv += ["--natural"]
        if command == "converge":  # a sweep over N, with integer ends
            start, stop = sorted([draw(st.integers(2, 4096)), draw(st.integers(2, 4096))])
            points, scale = draw(st.integers(2, 5)), draw(st.sampled_from(["linear", "log"]))
            argv += ["--sweep", f"{start}:{stop}:{points}:{scale}"]
            argv += ["--quantity", draw(st.sampled_from(["energy", "partition"]))]
            if argv[-1] == "partition":
                argv += [draw(st.sampled_from(["--beta", "--T"])), repr(draw(power))]
        elif command in ("partition", "mean-energy", "heat-capacity") and draw(st.booleans()):
            start, stop = sorted([draw(power), draw(power)])
            points, scale = draw(st.integers(2, 5)), draw(st.sampled_from(["linear", "log"]))
            argv += ["--sweep", f"{start!r}:{stop!r}:{points}:{scale}"]
        elif command not in ("spectrum", "wavefunction"):
            argv += [draw(st.sampled_from(["--beta", "--T"])), repr(draw(power))]
        if command == "density-matrix" and draw(st.booleans()):
            argv += ["--normalized"]
        if command == "wavefunction" and N is not None:  # the modes' ends, the middle and past the last
            argv += ["--n-E", str(draw(st.sampled_from([0, 1, N // 2, N - 1, N, N + 1])))]
        output = draw(st.sampled_from(["csv", "json"]))
        argv += ["--output", output]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3, 4), argv
        assert "Traceback" not in err.getvalue(), argv
        if code == 0:
            assert err.getvalue() == "", (argv, err.getvalue())
        else:
            kinds = ("config error:", "domain error:", "numeric error:", "output error:", "usage:")
            assert err.getvalue().startswith(kinds), (argv, err.getvalue())
        for bare in ("math domain error", "Numerical result out of range", "float division by zero",
                     "too large to convert"):
            assert bare not in err.getvalue(), (argv, err.getvalue())
        if output == "json" and code == 0:  # JSON writes a non-finite cell as null
            doc = json.loads(out.getvalue())
            rows = [dict(zip(doc["columns"], row)) for row in doc["rows"]]
        else:
            rows = csv.DictReader(io.StringIO(out.getvalue()))
        for row in rows:
            for column, cell in row.items():
                if N is not None or "discrete" not in column:
                    assert cell is not None and str(cell).lower() not in ("nan", "inf", "-inf"), (argv, column)
        if draw(st.booleans()):  # the same options as config-file lines, a bare flag as true
            lines, rest = [], argv[1:]
            while rest:
                key = rest.pop(0)[2:]
                lines.append(f"{key} = {rest.pop(0) if rest and not rest[0].startswith('--') else 'true'}")
            conf_out, conf_err = io.StringIO(), io.StringIO()
            with tempfile.TemporaryDirectory() as tmp:  # not tmp_path: hypothesis rejects function-scoped fixtures
                conf = Path(tmp) / "run.conf"
                conf.write_text("\n".join(lines) + "\n")
                with contextlib.redirect_stdout(conf_out), contextlib.redirect_stderr(conf_err):
                    conf_code = main([command, "--config", str(conf)])
            assert (conf_code, conf_out.getvalue(), conf_err.getvalue()) == (code, out.getvalue(), err.getvalue()), argv


def test_byte_check_runs_the_goldens_and_the_non_finite_rows():
    # tools/same_bytes.py reads both lists from this file's source, to run without the tests'
    # imports: the read must find each of them whole
    spec = importlib.util.spec_from_file_location("same_bytes", SRC.parent / "tools" / "same_bytes.py")
    same_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bytes)
    assert same_bytes.GOLDEN == list(GOLDEN_ARGS.values())
    assert same_bytes.NON_FINITE == [argv for argv, _, _ in NON_FINITE_ROWS]


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

    def test_theta_column_at_large_mu(self, capsys):
        # beta = 8 at L = 1 is mu ~ 39.5: S ~ 7e-18 < eps, so (1 + 2S) - 1 would give 0
        code, out = run_cli(["partition", "--N", "8", "--L", "1", "--natural", "--sweep", "2:8:4:linear"], capsys)
        assert code == 0
        for row in csv.DictReader(io.StringIO(out)):
            zt, zs = float(row["Z_theta"]), float(row["Z_continuum_sum"])
            assert zt > 0 and abs(zt - zs) <= 1e-12 * zs

    @pytest.mark.parametrize("beta", ["0.1", "1"])
    def test_converge_partition_error_is_second_order(self, beta, capsys):
        # the N-1 modes hold each continuum level twice, so Z_discrete tends to twice
        # the continuum sum, and its error against that falls as 1/N^2
        code, out = run_cli(["converge", "--L", "1", "--natural", "--beta", beta, "--sweep", "128:2001:5:log",
                             "--quantity", "partition"], capsys)
        assert code == 0
        z_c = partition_continuum_sum(1.0, ParticleSpec.natural(), float(beta)).Z
        scaled = [float(r["error_vs_continuum"]) * int(r["N"]) ** 2 / z_c for r in csv.DictReader(io.StringIO(out))]
        assert max(scaled) == pytest.approx(min(scaled), rel=0.01)

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

    def test_density_matrix_golden_is_the_exact_sum(self):
        # the paper's sum (2/L) sum_j exp(-beta E_j) sin(pi j n/N) sin(pi j n'/N)
        # at 40 digits, for the golden config: N = 5, a = 1, beta = 2, E_j = sin^2(pi j/N)/2
        N, beta = 5, 2
        rows = csv.DictReader(io.StringIO((GOLDEN / "density-matrix.csv").read_text()))
        rho = {(int(r["n"]), int(r["n_prime"])): r["rho"] for r in rows}
        with mpmath.workdps(40):
            sin = [mpmath.sinpi(mpmath.mpf(k) / N) for k in range(N * N)]  # sin(pi k/N) for k = j n < N^2
            ref = {(n, n_prime): 2 * mpmath.fsum(mpmath.exp(-beta * sin[j] ** 2 / 2) * sin[j * n] * sin[j * n_prime]
                                                 for j in range(1, N)) / N
                   for n in range(N + 1) for n_prime in range(N + 1)}
            assert rho.keys() == ref.keys()
            bound = 2 * sys.float_info.epsilon * max(abs(v) for v in ref.values())
            errors = {key: abs(mpmath.mpf(float(rho[key])) - ref[key]) for key in ref}
            assert max(errors.values()) <= bound, errors
        odd = [(n, n_prime) for (n, n_prime) in rho if 0 < n < N and 0 < n_prime < N and (n + n_prime) % 2]
        assert len(odd) == 8 and all(rho[key] == "0" for key in odd)

    def test_partition_golden_is_the_exact_continuum(self):
        # Z_continuum_sum and Z_theta are S(mu) = sum_{n>=1} exp(-mu n^2) with mu = beta pi^2/(2 L^2),
        # Z_closed is L sqrt(m*/(2 pi beta hbar^2)); 40 digits, golden config L = N = 6, m* = hbar = 1
        L = 6
        rows = list(csv.DictReader(io.StringIO((GOLDEN / "partition.csv").read_text())))
        assert len(rows) == 4
        with mpmath.workdps(40):
            for row in rows:
                beta = mpmath.mpf(float(row["beta"]))
                mu = beta * mpmath.pi ** 2 / (2 * L * L)
                S = mpmath.fsum(mpmath.exp(-mu * n * n) for n in range(1, 400))
                closed = L * mpmath.sqrt(1 / (2 * mpmath.pi * beta))
                for name, ref in (("Z_continuum_sum", S), ("Z_theta", S), ("Z_closed", closed)):
                    assert abs(mpmath.mpf(float(row[name])) - ref) <= 2 * sys.float_info.epsilon * ref, (name, row)

    @pytest.mark.parametrize("name", sorted(ROUND_TRIP_ARGS))
    def test_csv_json_round_trip(self, name, capsys):
        base = list(ROUND_TRIP_ARGS[name])
        _, out_csv = run_cli(base, capsys)
        _, out_json = run_cli(base + ["--output", "json"], capsys)

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        doc = json.loads(out_json, parse_constant=reject)
        csv_rows = list(csv.reader(io.StringIO(out_csv)))
        assert csv_rows[0] == doc["columns"]
        assert len(csv_rows) - 1 == len(doc["rows"])
        assert any(None in row for row in doc["rows"]) == name.endswith("-continuum")
        for crow, jrow in zip(csv_rows[1:], doc["rows"]):
            assert len(crow) == len(jrow)
            for column, cval, jval in zip(doc["columns"], crow, jrow):
                if column in INT_COLUMNS:
                    assert type(jval) is int and str(jval) == cval
                elif column == "quantity":
                    assert type(jval) is str and jval == cval
                elif jval is None:  # JSON has no nan
                    assert cval == "nan"
                else:
                    assert type(jval) is float and format(jval, ".17g") == cval

    def test_json_config_echo(self, capsys):
        _, out = run_cli(["spectrum", "--N", "4", "--natural", "--output", "json"], capsys)
        doc = json.loads(out)
        assert doc["config"]["N"] == 4
        assert doc["config"]["a"] is None and doc["config"]["m_star"] is None  # options not given
        assert doc["meta"] == {"version": "0.1.0", "unit_mode": "natural", "m_star": 1.0, "hbar": 1.0, "k_B": 1.0}
        assert doc["columns"][0] == "n_E"

    def test_json_meta_holds_the_constants_used(self, capsys):
        argv = ["partition", "--SI", "--L", "1e-8", "--T", "300", "--k-B", "1.4e-23", "--output", "json"]
        doc = json.loads(run_cli(argv, capsys)[1])
        assert doc["config"]["k_B"] == 1.4e-23 and doc["config"]["hbar"] is None
        assert doc["meta"] == {"version": "0.1.0", "unit_mode": "SI", "m_star": 9.1e-31, "hbar": 1.054e-34,
                               "k_B": 1.4e-23}

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


def _emit_whole_json(args, table, stream):
    """The whole-document JSON emitter that the block emitter replaced: the oracle of its bytes."""
    columns = [np.asarray(v) for v in table.values()]
    cells = [np.where(np.isfinite(col), col, None) if col.dtype.kind == "f" else col for col in columns]
    doc = {
        "config": vars(args),
        "columns": list(table),
        "rows": list(zip(*(col.tolist() for col in cells))),
        "meta": {"version": __version__, "unit_mode": "SI" if args.si else "natural", **asdict(_particle(args))},
    }
    stream.write(json.dumps(doc, default=lambda sweep: sweep.text, allow_nan=False) + "\n")


def _emitted(args, table, block_rows):
    stream = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "EMIT_BLOCK_ROWS", block_rows)
        emit(args, table, stream)
    return stream.getvalue()


def _expected(args, table):
    """The table as one block (CSV) or as one json.dumps of the whole document (JSON)."""
    if args.output == "csv":
        return _emitted(args, table, 1 << 30)
    stream = io.StringIO()
    _emit_whole_json(args, table, stream)
    return stream.getvalue()


def _site_columns(table):
    """A DensityMatrix as the (N+1)^2 columns n, n_prime and rho, n-major."""
    n = np.arange(len(table.rho))
    return {"n": np.repeat(n, n.size), "n_prime": np.tile(n, n.size), "rho": table.rho.ravel()}


def _density_matrix(cells):
    """Square cells as a DensityMatrix on the lattice of their size, as the emitter receives rho."""
    return DensityMatrix(cells, LatticeSpec(len(cells) - 1))


class _Sink:
    """A stream that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


class _Writes(list):
    """A stream that keeps each write's text as one item."""

    write = list.append


#: Runs whose config echo or meta the emitter must copy: a --sweep echo, and SI constants.
EMIT_ARGS = {
    "sweep": ["partition", "--N", "6", "--natural", "--sweep", "0.5:4:4:linear"],
    "si": ["partition", "--SI", "--L", "1e-8", "--T", "300", "--k-B", "1.4e-23"],
}
#: Cells that %-formatting and json.dumps could write differently.
AWKWARD_TABLE = {
    "n": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    "quantity": ["energy", "partition", "energy", "e\u00e9\"q", "energy", "partition", "energy", "x", "y", "z", "w"],
    "value": [1.5, math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e300, -2.5e-310, 3.0, 7.0],
    "finite": [0.1 * k for k in range(11)],
}


#: Cells that share a value but not their bits (+0.0/-0.0, three NaN bit patterns), with infs and subnormals.
SAME_VALUE_OTHER_BITS = np.array([0.0, -0.0, math.nan, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                                  -2.5e-310, 0.0, -0.0, math.nan, math.inf, 5e-324, math.nan, -0.0])
SAME_VALUE_OTHER_BITS[[3, 14]] = np.array([0x7FF8000000000001, -1], np.int64).view(np.float64)


def _spy_cell_texts(monkeypatch):
    """The values that cli._cell_texts formats from now on, in a list that the spy fills."""
    formatted, real = [], cli._cell_texts
    monkeypatch.setattr(cli, "_cell_texts", lambda cell, values: formatted.extend(values) or real(cell, values))
    return formatted


class TestEmitBlocks:
    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("run", sorted(EMIT_ARGS))
    def test_block_boundaries_keep_the_bytes(self, run, output, block_rows):
        args = parse_config(EMIT_ARGS[run] + ["--output", output])
        for table in (build_table(args), AWKWARD_TABLE, {"n": list(range(11))}):
            assert _emitted(args, table, block_rows) == _expected(args, table)

    @given(data=st.data(), rows=st.integers(0, 25), width=st.integers(1, 3),
           block_rows=st.sampled_from([1, 2, 3, 7]), output=st.sampled_from(["csv", "json"]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_float_columns_keep_the_bytes(self, data, rows, width, block_rows, output):
        args = parse_config(EMIT_ARGS["si"] + ["--output", output])
        table = {"n": list(range(rows))}
        for k in range(width):
            table[f"f{k}"] = data.draw(st.lists(st.floats(), min_size=rows, max_size=rows))
        assert _emitted(args, table, block_rows) == _expected(args, table)

    @pytest.mark.parametrize("block_rows", [5, 1 << 12])
    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
    def test_columns_of_other_lengths_raise(self, extra, output, block_rows):
        # a column one row longer than the first was cut to its length without an error; at 5
        # block rows the first column's 10 rows end on a block, where the extra row is never sliced
        args = parse_config(EMIT_ARGS["si"] + ["--output", output])
        stream = _Writes()
        with pytest.MonkeyPatch.context() as mp, pytest.raises(ValueError, match="differ in length"):
            mp.setattr(cli, "EMIT_BLOCK_ROWS", block_rows)
            emit(args, {"n": list(range(10)), "x": [0.5] * (10 + extra)}, stream)
        assert stream == []

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 500])
    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 65])
    def test_site_matrix_keeps_the_bytes_of_its_three_columns(self, N, output, block_rows):
        # the matrix path against the (N+1)^2 columns n, n_prime, rho that the command built before;
        # 500 block rows write N = 65's 66 matrix rows seven to a block, and three in the last
        for flags in (["--beta", "1"], ["--beta", "1", "--normalized"], ["--beta", "0"]):
            args = parse_config(["density-matrix", "--N", str(N), "--natural", "--output", output, *flags])
            table = build_table(args)
            assert type(table) is DensityMatrix and table.rho.shape == (N + 1, N + 1)
            assert _emitted(args, table, block_rows) == _emitted(args, _site_columns(table), block_rows)

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_site_matrix_writes_one_block_of_whole_rows_per_write(self, output):
        # N = 65 has 66 matrix rows of 66 cells; each write holds EMIT_BLOCK_ROWS // 66 of
        # them (at least one), and the last write the rest
        args = parse_config(["density-matrix", "--N", "65", "--beta", "1", "--natural", "--output", output])
        table = build_table(args)
        for block_rows, step in ((7, 1), (66, 1), (132, 2), (500, 7), (1 << 12, 62)):
            stream = _Writes()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "EMIT_BLOCK_ROWS", block_rows)
                emit(args, table, stream)
            blocks = stream[1:-1] if output == "json" else stream[1:]  # less the head (and JSON's tail)
            rows = [block.count("\n" if output == "csv" else "]") for block in blocks]
            assert rows == [66 * min(step, 66 - start) for start in range(0, 66, step)], block_rows

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_site_matrix_of_awkward_cells_keeps_the_bytes(self, output, monkeypatch):
        args = parse_config(["density-matrix", "--N", "2", "--beta", "1", "--natural", "--output", output])
        table = _density_matrix(np.array(AWKWARD_TABLE["value"][:9]).reshape(3, 3))
        assert _emitted(args, table, 2) == _expected(args, _site_columns(table))
        # cells equal in value but not in bits, each repeated, through the cache: its 10
        # patterns are formatted once each, in blocks of two rows and of three
        table = _density_matrix(SAME_VALUE_OTHER_BITS.reshape(4, 4))
        for block_rows in (8, 15):
            formatted = _spy_cell_texts(monkeypatch)
            assert _emitted(args, table, block_rows) == _expected(args, _site_columns(table))
            assert len(formatted) == np.unique(table.rho.view(np.int64)).size == 10

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_site_matrix_that_overflows_the_cache_keeps_the_bytes(self, output, monkeypatch):
        # 529 distinct cells: the cache of 64 texts (plus a row) fills part-way down, and the
        # rows after it go through the inline template; at 200 texts it fills between blocks of
        # three rows
        args = parse_config(["density-matrix", "--N", "65", "--beta", "1e5", "--natural", "--output", output])
        table = build_table(args)
        distinct = np.unique(table.rho.view(np.int64)).size
        for block_rows in (64, 200):
            formatted = _spy_cell_texts(monkeypatch)
            assert _emitted(args, table, block_rows) == _expected(args, _site_columns(table))
            assert block_rows < len(formatted) < distinct, block_rows

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_site_matrix_formats_each_distinct_cell_once(self, output, monkeypatch):
        # every size goes through the cache: at N = 400, 160,801 cells hold 397 bit patterns (half
        # the cells are the exact parity zeros, rho is exactly symmetric and its round-off falls on
        # a few values); N = 5 and 63 are one block of rows each
        for N in (5, 63, 400):
            args = parse_config(["density-matrix", "--N", str(N), "--beta", "1", "--natural", "--output", output])
            table = build_table(args)
            formatted = _spy_cell_texts(monkeypatch)
            emit(args, table, _Sink())
            assert len(formatted) == np.unique(table.rho.view(np.int64)).size, N
        assert len(formatted) < table.rho.size // 100

    def test_out_file_holds_the_stdout_bytes_of_a_multi_block_table(self, tmp_path, capsys):
        argv = ["density-matrix", "--N", "100", "--beta", "1", "--natural", "--output", "json"]  # 10,201 rows
        target = tmp_path / "rho.json"
        assert main(argv + ["--out", str(target)]) == 0
        code, out = run_cli(argv, capsys)
        assert code == 0 and len(json.loads(out)["rows"]) > 2 * cli.EMIT_BLOCK_ROWS
        # the config echo holds the one difference, the path; one bool keeps pytest from diffing 0.2 MB
        same = target.read_text() == out.replace('"out": null', f'"out": {json.dumps(str(target))}', 1)
        assert same

    @pytest.mark.parametrize("argv", [
        ["density-matrix", "--N", "256", "--beta", "1", "--natural", "--output", "json"],
        ["density-matrix", "--N", "400", "--beta", "1", "--natural"],
        ["density-matrix", "--N", "400", "--beta", "1e5", "--natural", "--output", "json"],
        ["density-matrix", "--N", "400", "--beta", "1e5", "--natural"],
    ], ids=["json-N256", "csv-N400", "json-N400-beta1e5", "csv-N400-beta1e5"])
    def test_emit_memory_is_bounded_by_a_block(self, argv):
        # the whole-table emitters peaked at 10.8 MB (JSON) and 8.3 MB (CSV) here; at
        # beta = 1e5 rho has 20,101 distinct cells, so the text cache fills and stops
        args = parse_config(argv)
        table = build_table(args)
        sink = _Sink()
        tracemalloc.start()
        try:
            emit(args, table, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 1_000_000
        assert peak <= 2 << 20

    def test_density_matrix_table_holds_one_matrix(self):
        # the columns n and n_prime as (N+1)^2 int64 arrays peaked at 3.86 MB, three times rho;
        # --normalized peaked at twice rho while rho / Z was a second matrix
        for flags in ([], ["--normalized"]):
            args = parse_config(["density-matrix", "--N", "400", "--beta", "1", "--natural", *flags])
            build_table(args)  # imports and caches outside the measurement
            tracemalloc.start()
            try:
                table = build_table(args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert table.rho.nbytes == 8 * 401 ** 2
            assert peak <= 1.25 * table.rho.nbytes, flags

    def test_reader_closing_in_the_last_write_exits_one_without_traceback(self):
        # the 339,347 bytes are one block and one write, more than the 64 KiB read plus a 64 KiB
        # pipe buffer hold: the buffered write took part of them and the text layer dropped the rest
        proc = subprocess.Popen([sys.executable, "-m", "latticewell.cli", "spectrum", "--N", "4000", "--natural"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
        seen = 0
        while seen < 1 << 16:
            chunk = os.read(proc.stdout.fileno(), (1 << 16) - seen)
            assert chunk, "the whole table came through before the reader closed"
            seen += len(chunk)
        proc.stdout.close()
        stderr = proc.communicate(timeout=60)[1].decode()
        assert proc.returncode == 1
        assert "output error" in stderr and "Traceback" not in stderr

    def test_stdout_writes_reach_its_buffer_whole_and_in_order(self):
        # text held by the text layer goes first; each write is asked again for the bytes
        # that a write cut short did not take
        class Trickle(io.BytesIO):
            def write(self, data):
                return super().write(bytes(data[:3]))

        stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        stream.write("held\n")
        cli._WholeWrites(stream).write("rows")
        assert stream.buffer.getvalue() == b"held\nrows"
        stream = io.TextIOWrapper(Trickle(), encoding="ascii", errors="backslashreplace")
        writer = cli._WholeWrites(stream)
        for text in ("n,x\n", "0,\u00e9" * 5, "", "1,2\n"):
            writer.write(text)
        assert stream.buffer.getvalue() == b"n,x\n" + b"0,\\xe9" * 5 + b"1,2\n"

    @pytest.mark.parametrize("output, separator", [("csv", b"\n"), ("json", b"], [")], ids=["csv", "json"])
    def test_reader_closing_mid_stream_exits_one_without_traceback(self, output, separator):
        # 160,801 rows: the reader takes the first block and closes the pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "latticewell.cli", "density-matrix", "--N", "400", "--natural", "--beta", "1",
             "--output", output],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        )
        seen = b""
        while seen.count(separator) <= cli.EMIT_BLOCK_ROWS:
            chunk = os.read(proc.stdout.fileno(), 1 << 16)
            assert chunk, "the whole table came through before the reader closed"
            seen += chunk
        proc.stdout.close()
        stderr = proc.communicate(timeout=60)[1].decode()
        assert proc.returncode == 1
        assert "output error" in stderr and "Traceback" not in stderr
