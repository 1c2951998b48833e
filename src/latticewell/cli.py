"""Command-line front end emitting CSV/JSON tables for the lattice well model.

Subcommands: spectrum, wavefunction, density-matrix, partition, mean-energy,
heat-capacity, converge.  Identical configurations produce byte-identical
output; numbers are written with 17 significant digits so either format
round-trips exactly.

A ``--config`` file holds ``key = value`` lines (``#`` starts a comment).
Keys are the subcommand's long flag names without the dashes, with ``_`` and
``-`` interchangeable and ``si`` accepted for ``SI``.  Booleans (natural, SI,
normalized) are words: 1/true/yes/on or 0/false/no/off.  Each line becomes a
flag, ``--key=value`` or, for a true boolean, the bare flag, parsed ahead of
the command line by the same parser: file values meet the same types and
choices, flags override the file, and a flag silences the file's member of
its exclusive pair (a/L, beta/T, natural/SI).

Exit statuses: 0 success; 1 stdout closed early (a pipe's reader stopped);
2 configuration error, including a config file that cannot be read and an
--out path that cannot be written; 3 domain error; 4 numeric error (series
cap hit).
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .bloch import density_matrix_normalized, density_matrix_spectral
from .lattice import LatticeSpec
from .spectrum import (
    HBAR_SI,
    K_B_SI,
    ParticleSpec,
    build_spectrum,
    continuum_limit_error,
    eigenfunction,
    energy_continuum,
    energy_discrete,
)
from .thermo import (
    SeriesCapExceeded,
    characteristic_temperature,
    heat_capacity_two_level,
    mean_energy,
    mean_energy_continuum,
    partition_continuum_closed,
    partition_continuum_sum,
    partition_discrete,
    partition_theta,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

#: CSV rows formatted per write, which bounds the emitter's string temporaries.
EMIT_BLOCK_ROWS = 1 << 16

#: Default SI inputs (free-electron mass; hbar and k_B match the library defaults).
M_STAR_SI_DEFAULT = 9.1e-31

#: Mutually exclusive option pairs, by dest.
_PAIRS = (("a", "L"), ("beta", "T"), ("natural", "si"))
#: Options that are bare flags on the command line and words in a config file.
_SWITCHES = ("natural", "si", "normalized")
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


class ConfigError(Exception):
    """Invalid flag/config-file combination."""


def finite(text: str) -> float:
    """A finite float: the argparse type of every real-valued option."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"numbers must be finite, got {text!r}")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """Parameter sweep start:stop:points:scale (scale linear or log)."""

    start: float
    stop: float
    points: int
    scale: str

    @classmethod
    def parse(cls, text: str) -> "SweepSpec":
        """The argparse type of --sweep."""
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError(f"sweep must be start:stop:points:scale, got {text!r}")
        try:
            start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad sweep {text!r}: {exc}") from None
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError(f"sweep ends must be finite, got {text!r}")
        scale = parts[3]
        if scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale must be linear or log, got {scale!r}")
        if points < 2:
            raise ConfigError(f"sweep needs at least 2 points, got {points}")
        if not start > 0 or not stop > start:
            raise ConfigError(f"sweep needs 0 < start < stop, got {text!r}")
        return cls(start, stop, points, scale)

    def values(self) -> list[float]:
        k = self.points - 1
        if self.scale == "linear":
            return [self.start + (self.stop - self.start) * i / k for i in range(self.points)]
        lg0, lg1 = math.log10(self.start), math.log10(self.stop)
        return [10.0 ** (lg0 + (lg1 - lg0) * i / k) for i in range(self.points)]

    def text(self) -> str:
        return f"{self.start:g}:{self.stop:g}:{self.points}:{self.scale}"


@dataclass
class RunConfig:
    command: str
    N: int | None
    a: float | None
    L: float | None
    unit_mode: str
    m_star: float
    hbar: float
    k_B: float
    beta: float | None
    T: float | None
    sweep: SweepSpec | None
    n_E: int
    quantity: str
    normalized: bool
    output: str
    out: str | None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one option table, built on first use so that importing the module stays cheap."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N", type=int, help="number of lattice spacings (sites 0..N)")
    geom = common.add_mutually_exclusive_group()
    geom.add_argument("--a", type=finite, help="lattice spacing")
    geom.add_argument("--L", type=finite, help="well width (spacing derived as L/N)")
    units = common.add_mutually_exclusive_group()
    units.add_argument("--natural", action="store_true", help="natural units: m* = hbar = k_B = 1 (default)")
    units.add_argument("--SI", dest="si", action="store_true", help="SI units with --m-star/--hbar/--k-B")
    common.add_argument("--m-star", type=finite, help=f"effective mass [kg], default {M_STAR_SI_DEFAULT:g}")
    common.add_argument("--hbar", type=finite, help=f"hbar [J s], default {HBAR_SI:g}")
    common.add_argument("--k-B", type=finite, help=f"Boltzmann constant [J/K], default {K_B_SI:g}")
    common.add_argument("--output", choices=("csv", "json"), default="csv", help="table format (default csv)")
    common.add_argument("--out", help="output file path (default stdout)")
    common.add_argument("--config", help="key = value config file; flags take precedence")

    thermal = argparse.ArgumentParser(add_help=False)
    tgroup = thermal.add_mutually_exclusive_group()
    tgroup.add_argument("--beta", type=finite, help="inverse temperature")
    tgroup.add_argument("--T", type=finite, help="temperature")

    swept = argparse.ArgumentParser(add_help=False)
    swept.add_argument("--sweep", type=SweepSpec.parse, help="start:stop:points:scale with scale linear|log")

    parser = argparse.ArgumentParser(
        prog="latticewell",
        description="Hard-wall well on a lattice: spectra, density matrices, partition functions.",
    )
    # n_E and quantity also reach the RunConfig of the commands without these options;
    # where a command has one, its SUPPRESS default leaves this value in place.
    parser.set_defaults(n_E=1, quantity="energy")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common], help="all N-1 modes with continuum comparison")
    p = sub.add_parser("wavefunction", parents=[common], help="one normalized eigenfunction")
    p.add_argument("--n-E", type=int, default=argparse.SUPPRESS, help="principal quantum number (default 1)")
    p = sub.add_parser("density-matrix", parents=[common, thermal], help="spectral density matrix at beta")
    p.add_argument("--normalized", action="store_true", help="divide by the discrete partition function")
    sub.add_parser("partition", parents=[common, thermal, swept], help="Z by all four methods")
    sub.add_parser("mean-energy", parents=[common, thermal, swept], help="discrete and continuum mean energy")
    sub.add_parser("heat-capacity", parents=[common, thermal, swept], help="two-level heat capacity curve")
    p = sub.add_parser("converge", parents=[common, thermal, swept], help="lattice-to-continuum convergence over N")
    p.add_argument("--n-E", type=int, default=argparse.SUPPRESS, help="mode tracked by quantity=energy (default 1)")
    p.add_argument("--quantity", choices=("energy", "partition"), default=argparse.SUPPRESS,
                   help="quantity to converge (default energy)")
    return parser


def _config_flags(path: str, args: argparse.Namespace) -> list[str]:
    """The config file's lines as flags for the subcommand whose options ``args`` holds.

    Every pair member defaults to None or False, so one that holds another
    value was given as a flag: the file's lines for its pair are dropped.
    """
    flagged = {dest for dest, value in vars(args).items() if value is not None and value is not False}
    silenced = {dest for pair in _PAIRS if flagged.intersection(pair) for dest in pair}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    flags = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = key.strip(), val.strip()
        dest = key.replace("-", "_").replace("SI", "si")
        # An exact dest, never a prefix that argparse would complete.
        if dest == "config" or not hasattr(args, dest):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if dest in silenced:
            continue
        flag = "--" + ("SI" if dest == "si" else dest.replace("_", "-"))
        if dest not in _SWITCHES:
            flags.append(f"{flag}={val}")
        elif val.lower() in _TRUE_WORDS:
            flags.append(flag)
        elif val.lower() not in _FALSE_WORDS:
            raise ConfigError(f"{path}:{lineno}: key {key!r} expects a boolean, got {val!r}")
    return flags


def _require_positive(name: str, value) -> None:
    if value is not None and not value > 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def parse_config(argv=None) -> RunConfig:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    command = args.command
    if args.config:
        # argv[0] is the command: the top-level parser has no other arguments.
        args = parser.parse_args([command, *_config_flags(args.config, args), *argv[1:]])

    unit_mode = "SI" if args.si else "natural"
    m_star, hbar, k_B = args.m_star, args.hbar, args.k_B
    if unit_mode == "natural":
        if m_star is not None or hbar is not None or k_B is not None:
            raise ConfigError("natural units fix m-star = hbar = k-B = 1; use --SI to override")
        m_star, hbar, k_B = 1.0, 1.0, 1.0
    else:
        m_star = M_STAR_SI_DEFAULT if m_star is None else m_star
        hbar = HBAR_SI if hbar is None else hbar
        k_B = K_B_SI if k_B is None else k_B
    for name, value in (("m-star", m_star), ("hbar", hbar), ("k-B", k_B)):
        _require_positive(name, value)

    N, a, L = args.N, args.a, args.L
    _require_positive("a", a)
    _require_positive("L", L)
    if command == "converge":
        if L is None:
            raise ConfigError("converge holds the width fixed: give --L, not --a")
    elif command in ("partition", "mean-energy") and N is None:
        # continuum-only run: the discrete columns are emitted as nan
        if L is None:
            raise ConfigError("without --N the continuum needs --L")
    else:
        if N is None:
            raise ConfigError("--N is required")
        if N < 2:
            raise ConfigError(f"N must be >= 2, got {N}")
        if a is None and L is None:
            a = 1.0

    beta = getattr(args, "beta", None)
    T = getattr(args, "T", None)
    _require_positive("T", T)
    if beta is not None and beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta!r}")

    sweep = getattr(args, "sweep", None)
    thermal_given = beta is not None or T is not None
    if command in ("partition", "mean-energy", "heat-capacity"):
        if sweep is not None and thermal_given:
            raise ConfigError("give either --beta/--T or --sweep, not both")
        if sweep is None and not thermal_given:
            raise ConfigError("give --beta, --T, or --sweep")
        if beta == 0:
            raise ConfigError(f"{command} needs beta > 0")
    elif command == "density-matrix":
        if not thermal_given:
            raise ConfigError("give --beta or --T")
    elif command == "converge":
        if sweep is None:
            raise ConfigError("converge needs --sweep over N")

    if args.n_E < 1:
        raise ConfigError(f"n-E must be >= 1, got {args.n_E}")
    if command == "converge" and args.quantity == "partition" and not thermal_given:
        raise ConfigError("quantity=partition needs --beta or --T")

    return RunConfig(
        command=command, N=N, a=a, L=L, unit_mode=unit_mode,
        m_star=m_star, hbar=hbar, k_B=k_B, beta=beta, T=T, sweep=sweep,
        n_E=args.n_E, quantity=args.quantity, normalized=getattr(args, "normalized", False),
        output=args.output, out=args.out,
    )


def _particle(cfg: RunConfig) -> ParticleSpec:
    if cfg.unit_mode == "natural":
        return ParticleSpec.natural()
    return ParticleSpec.si(cfg.m_star, cfg.hbar)


def _lattice(cfg: RunConfig, N: int | None = None) -> LatticeSpec:
    N = cfg.N if N is None else N
    a = cfg.a if cfg.a is not None else cfg.L / N
    return LatticeSpec(N, a)


def _beta_value(cfg: RunConfig) -> float:
    if cfg.beta is not None:
        return cfg.beta
    return 1.0 / (cfg.k_B * cfg.T)


def _beta_grid(cfg: RunConfig) -> list[float]:
    if cfg.sweep is not None:
        return cfg.sweep.values()
    return [_beta_value(cfg)]


def _cmd_spectrum(cfg: RunConfig):
    lattice = _lattice(cfg)
    particle = _particle(cfg)
    spec = build_spectrum(lattice, particle)
    return {
        "n_E": spec.n_E,
        "e_tilde": spec.e_tilde,
        "E": spec.energies,
        "E_continuum": energy_continuum(spec.n_E, lattice.L, particle),
        "rel_error": continuum_limit_error(spec.n_E, lattice.N),
    }


def _cmd_wavefunction(cfg: RunConfig):
    lattice = _lattice(cfg)
    spec = build_spectrum(lattice, _particle(cfg))
    psi = eigenfunction(spec.mode(cfg.n_E), lattice)
    return {"n": np.arange(lattice.N + 1), "x_n": lattice.coords(), "psi": psi.values}


def _cmd_density_matrix(cfg: RunConfig):
    lattice = _lattice(cfg)
    spec = build_spectrum(lattice, _particle(cfg))
    beta = _beta_value(cfg)
    dm = density_matrix_spectral(spec, beta)
    if cfg.normalized:
        dm = density_matrix_normalized(dm, partition_discrete(spec, beta).Z)
    n = np.arange(lattice.N + 1)
    return {"n": np.repeat(n, n.size), "n_prime": np.tile(n, n.size), "rho": dm.rho.ravel()}


def _discrete_spectrum(cfg: RunConfig, particle: ParticleSpec):
    """The lattice spectrum and width, or (None, L) for a continuum-only run."""
    if cfg.N is None:
        return None, cfg.L
    lattice = _lattice(cfg)
    return build_spectrum(lattice, particle), lattice.L


def _cmd_partition(cfg: RunConfig):
    particle = _particle(cfg)
    spec, L = _discrete_spectrum(cfg, particle)
    betas = _beta_grid(cfg)
    closed = [partition_continuum_closed(L, particle, b) for b in betas]
    return {
        "beta": betas,
        "Z_discrete": [partition_discrete(spec, b).Z if spec is not None else math.nan for b in betas],
        "Z_continuum_sum": [partition_continuum_sum(L, particle, b).Z for b in betas],
        "Z_closed": [c.Z for c in closed],
        "Z_theta": [partition_theta(L, particle, b).Z for b in betas],
        "F": [c.free_energy for c in closed],
    }


def _cmd_mean_energy(cfg: RunConfig):
    particle = _particle(cfg)
    spec, L = _discrete_spectrum(cfg, particle)
    betas = _beta_grid(cfg)
    return {
        "beta": betas,
        "H_mean_discrete": [mean_energy(spec, b) if spec is not None else math.nan for b in betas],
        "H_mean_continuum": [mean_energy_continuum(L, particle, b) for b in betas],
    }


def _cmd_heat_capacity(cfg: RunConfig):
    lattice = _lattice(cfg)
    spec = build_spectrum(lattice, _particle(cfg))
    theta = characteristic_temperature(spec, cfg.k_B)
    if cfg.sweep is not None:
        temps = cfg.sweep.values()
    elif cfg.T is not None:
        temps = [cfg.T]
    else:
        temps = [1.0 / (cfg.k_B * cfg.beta)]
    return {
        "T": temps,
        "x": theta / np.asarray(temps),
        "Cv_over_R": [heat_capacity_two_level(spec, T, cfg.k_B) for T in temps],
    }


def _cmd_converge(cfg: RunConfig):
    particle = _particle(cfg)
    L = cfg.L
    Ns = [int(round(v)) for v in cfg.sweep.values()]
    if cfg.quantity == "energy":
        value = [energy_discrete(cfg.n_E, LatticeSpec(N, L / N), particle) for N in Ns]
        error = [continuum_limit_error(cfg.n_E, N) for N in Ns]
    else:
        beta = _beta_value(cfg)
        z_cont = partition_continuum_sum(L, particle, beta).Z
        value = [partition_discrete(build_spectrum(LatticeSpec(N, L / N), particle), beta).Z for N in Ns]
        error = np.abs(np.asarray(value) - z_cont)
    return {"N": Ns, "quantity": [cfg.quantity] * len(Ns), "value": value, "error_vs_continuum": error}


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "density-matrix": _cmd_density_matrix,
    "partition": _cmd_partition,
    "mean-energy": _cmd_mean_energy,
    "heat-capacity": _cmd_heat_capacity,
    "converge": _cmd_converge,
}


def build_table(cfg: RunConfig) -> dict:
    """The configured table as ordered {column name: values} of equal length."""
    return _COMMANDS[cfg.command](cfg)


def _csv_cells(column: np.ndarray) -> list[str]:
    if column.dtype.kind == "f":
        return [format(v, ".17g") for v in column.tolist()]
    return [str(v) for v in column.tolist()]


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    echo["sweep"] = cfg.sweep.text() if cfg.sweep else None
    return echo


def emit(cfg: RunConfig, table: dict, stream) -> None:
    """Write the table as CSV (ints as is, floats to 17 digits) or as one JSON document."""
    columns = [np.asarray(v) for v in table.values()]
    if cfg.output == "csv":
        stream.write(",".join(table) + "\n")
        for start in range(0, len(columns[0]), EMIT_BLOCK_ROWS):
            cells = [_csv_cells(col[start:start + EMIT_BLOCK_ROWS]) for col in columns]
            stream.write("".join(",".join(row) + "\n" for row in zip(*cells)))
        return
    doc = {
        "config": _config_echo(cfg),
        "columns": list(table),
        "rows": list(zip(*(col.tolist() for col in columns))),
        "meta": {"version": __version__, "unit_mode": cfg.unit_mode},
    }
    stream.write(json.dumps(doc) + "\n")


def run(cfg: RunConfig, stream=None) -> int:
    """Compute the configured table and write it (spec'd entry point)."""
    table = build_table(cfg)
    if stream is not None:
        emit(cfg, table, stream)
    elif cfg.out:
        try:
            with open(cfg.out, "w", newline="") as fh:
                emit(cfg, table, fh)
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from None
    else:
        emit(cfg, table, sys.stdout)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        code = run(parse_config(argv))
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # argparse usage text / --help
        return int(exc.code) if exc.code else 0
    except SeriesCapExceeded as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:  # e.g. a^2 or a step underflowing to 0
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError as exc:
        # The Python docs' SIGPIPE recipe: point stdout at devnull so that the
        # flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
