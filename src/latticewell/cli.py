"""Command-line front end emitting CSV/JSON tables for the lattice well model.

Subcommands: spectrum, wavefunction, density-matrix, partition, mean-energy,
heat-capacity, converge.  ``converge --quantity partition`` measures Z_discrete
against twice the continuum sum: the N-1 lattice modes hold each continuum
level twice, as n_E and N - n_E.  Identical configurations produce
byte-identical output; CSV writes numbers with 17 significant digits and
JSON with Python's shortest repr (0.1, not 0.10000000000000001), so either
format round-trips exactly.  A JSON document holds four objects:
``columns`` and ``rows`` are the CSV table, with null where CSV prints nan or
inf (JSON has no such numbers); ``config`` holds the command and its options as
parsed from flags and config file, null where an option was not given (the
sweep as its text); ``meta`` holds the package version, the unit mode and the
m_star, hbar and k_B the run used.  Either format writes every table one block
of about ``EMIT_BLOCK_ROWS`` rows per write, so writing a table takes memory for
one block, not for the table; JSON writes ``rows`` before ``meta``.  The density
matrix reaches the writer as the library's ``DensityMatrix``, its (N+1) x (N+1)
matrix, not as (N+1)^2 rows of three columns, and its blocks are whole matrix
rows, each N+1 rows (n, n_prime, rho) of one template that holds every n_prime.
Its cells repeat (at N = 400, beta = 1, 397 bit patterns among 160,801 cells),
so each distinct cell is formatted once and its text reused from a cache
bounded by ``EMIT_BLOCK_ROWS`` texts; a matrix with more distinct cells than
that writes its remaining rows inline.

A ``--config`` file holds ``key = value`` lines (``#`` starts a comment).
Keys are the subcommand's long flag names without the dashes, with ``_`` and
``-`` interchangeable and ``si`` accepted for ``SI``.  Booleans (natural, SI,
normalized) are words: 1/true/yes/on or 0/false/no/off.  Each line becomes a
flag, ``--key=value`` or, for a true boolean, the bare flag, parsed ahead of
the command line by the same parser: file values meet the same types and
choices, flags override the file, and a flag silences the file's member of
its exclusive pair (a/L, beta/T, natural/SI).

Exit statuses: 0 success; 1 stdout closed early (a pipe's reader stopped);
2 configuration error, including a config file that cannot be read or decoded,
an --out path that cannot be written, a run whose arrays do not fit in memory
and a sweep of more than ``SWEEP_MAX_POINTS`` points or whose values overflow;
3 domain error, including a quantity that overflows (beta or T from the other,
energy scale, E_continuum, width, Z_closed, F, H_mean_continuum, x); 4 numeric
error (series cap hit).  The unit-bearing
quantities (the energy scale, E_continuum, mu, Z_closed and sqrt(2/L)) follow
one rule: each is formed from its factors' significands, with their powers of
two applied once at the end, so it
overflows (exit 3, or Z = 0 for a mu that overflows) or underflows to 0 only
where its true value does, never because hbar^2 or 2 m* L^2 left the range.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .bloch import DensityMatrix, density_matrix_normalized, density_matrix_spectral
from .lattice import LatticeSpec
from .spectrum import (
    HBAR_SI,
    K_B_SI,
    M_STAR_SI,
    ParticleSpec,
    Spectrum,
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

#: Rows of a table formatted per write in either format, which bounds the emitter's
#: memory (a density matrix writes as many whole matrix rows as fit, at least one,
#: and caches the texts of about this many distinct cells).
#: Emitting the 160,801-row CSV of ``wavefunction --N 160800`` took a best 123 ms
#: at 4,096 rows (9 interleaved runs on a shared 2-core host), against 126 ms at
#: 1,024 and 8,192 rows and 140 ms at 65,536, and peaked at 0.9 MB under
#: tracemalloc (1.8 MB at 8,192 rows).
EMIT_BLOCK_ROWS = 1 << 12

#: The most points a sweep may have, so that its values are bounded before they are formed:
#: 100 times the largest sweep of the benchmark (1,000 points).  A 10**5-point
#: ``partition --N 6 --natural`` sweep takes 2.9 s and peaks at 67 MB (one run on a
#: shared 2-core host).
SWEEP_MAX_POINTS = 10 ** 5

#: Mutually exclusive option pairs, by dest.
_PAIRS = (("a", "L"), ("beta", "T"), ("natural", "si"))
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
    """A parameter sweep start:stop:points:scale (scale linear or log), as its values and that text."""

    values: list[float]
    text: str

    @classmethod
    def parse(cls, text: str) -> "SweepSpec":
        """The argparse type of --sweep; a sweep of too many points or whose values overflow is a config error."""
        parts = text.split(":")
        if len(parts) != 4:
            raise ConfigError(f"sweep must be start:stop:points:scale, got {text!r}")
        try:
            start, stop, points = finite(parts[0]), finite(parts[1]), int(parts[2])
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"bad sweep {text!r}: {exc}") from None
        scale = parts[3]
        if scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale must be linear or log, got {scale!r}")
        if not 2 <= points <= SWEEP_MAX_POINTS:
            raise ConfigError(f"sweep needs 2 to {SWEEP_MAX_POINTS} points, got {points}")
        if not start > 0 or not stop > start:
            raise ConfigError(f"sweep needs 0 < start < stop, got {text!r}")
        k = points - 1
        try:
            if scale == "linear":
                values = [start + (stop - start) * i / k for i in range(points)]
            else:
                lg0, lg1 = math.log10(start), math.log10(stop)
                values = [10.0 ** (lg0 + (lg1 - lg0) * i / k) for i in range(points)]
            overflows = not all(map(math.isfinite, values))
        except OverflowError:  # 10.0 ** x raises where a product would give inf
            overflows = True
        if overflows:
            raise ConfigError(f"sweep {text!r} has values that overflow")
        return cls(values, text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one option table, built on first use so that importing the module stays cheap."""
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--N", type=int, help="number of lattice spacings (sites 0..N)")

    common = argparse.ArgumentParser(add_help=False)
    geom = common.add_mutually_exclusive_group()
    geom.add_argument("--a", type=finite, help="lattice spacing")
    geom.add_argument("--L", type=finite, help="well width (spacing derived as L/N)")
    units = common.add_mutually_exclusive_group()
    units.add_argument("--natural", action="store_true", help="natural units: m* = hbar = k_B = 1 (default)")
    units.add_argument("--SI", dest="si", action="store_true", help="SI units with --m-star/--hbar/--k-B")
    common.add_argument("--m-star", type=finite, help=f"effective mass [kg], default {M_STAR_SI:g}")
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
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[sized, common], help="all N-1 modes with continuum comparison")
    p = sub.add_parser("wavefunction", parents=[sized, common], help="one normalized eigenfunction")
    p.add_argument("--n-E", type=int, default=1, help="principal quantum number (default 1)")
    p = sub.add_parser("density-matrix", parents=[sized, common, thermal], help="spectral density matrix at beta")
    p.add_argument("--normalized", action="store_true", help="divide by the discrete partition function")
    sub.add_parser("partition", parents=[sized, common, thermal, swept], help="Z by all four methods")
    sub.add_parser("mean-energy", parents=[sized, common, thermal, swept], help="discrete and continuum mean energy")
    sub.add_parser("heat-capacity", parents=[sized, common, thermal, swept], help="two-level heat capacity curve")
    p = sub.add_parser("converge", parents=[common, thermal, swept], help="lattice-to-continuum convergence over N")
    p.add_argument("--n-E", type=int, default=1, help="mode tracked by quantity=energy (default 1)")
    p.add_argument("--quantity", choices=("energy", "partition"), default="energy",
                   help="quantity to converge (default energy); Z_discrete tends to twice the continuum sum")
    return parser


def _config_flags(path: str, args: argparse.Namespace) -> list[str]:
    """The config file's lines as flags for the subcommand whose options ``args`` holds.

    Every pair member defaults to None or False, so one that holds another
    value was given as a flag: the file's lines for its pair are dropped.  An
    option whose value is a bool is a switch: a bare flag, a word in the file.
    """
    flagged = {dest for dest, value in vars(args).items() if value is not None and value is not False}
    silenced = {dest for pair in _PAIRS if flagged.intersection(pair) for dest in pair}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
        # An exact dest of the subcommand, never a prefix that argparse would complete.
        if dest in ("config", "command") or not hasattr(args, dest):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if dest in silenced:
            continue
        flag = "--" + ("SI" if dest == "si" else dest.replace("_", "-"))
        if not isinstance(getattr(args, dest), bool):
            flags.append(f"{flag}={val}")
        elif val.lower() in _TRUE_WORDS:
            flags.append(flag)
        elif val.lower() not in _FALSE_WORDS:
            raise ConfigError(f"{path}:{lineno}: key {key!r} expects a boolean, got {val!r}")
    return flags


def parse_config(argv=None) -> argparse.Namespace:
    """The command's options, checked: flags over config-file lines, None where not given.

    ``config`` is cleared once its lines are read, so a config file and the
    flags it holds give equal namespaces.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    command = args.command
    if args.config:
        # argv[0] is the command: the top-level parser has no other arguments.
        args = parser.parse_args([command, *_config_flags(args.config, args), *argv[1:]])
        args.config = None

    if not args.si and (args.m_star, args.hbar, args.k_B) != (None, None, None):
        raise ConfigError("natural units fix m-star = hbar = k-B = 1; use --SI to override")
    for dest in ("m_star", "hbar", "k_B", "a", "L", "T"):
        value = getattr(args, dest, None)
        if value is not None and not value > 0:
            raise ConfigError(f"{dest.replace('_', '-')} must be positive, got {value!r}")
    beta = getattr(args, "beta", None)
    if beta is not None and beta < 0:
        raise ConfigError(f"beta must be >= 0, got {beta!r}")
    if beta == 0 and command != "density-matrix":
        raise ConfigError(f"{command} needs beta > 0")

    N = getattr(args, "N", None)
    sweep = getattr(args, "sweep", None)
    thermal_given = beta is not None or getattr(args, "T", None) is not None
    if command == "converge":
        if args.L is None:
            raise ConfigError("converge holds the width fixed: give --L, not --a")
        if sweep is None:
            raise ConfigError("converge needs --sweep over N")
        N0 = round(sweep.values[0])  # the smallest N that _cmd_converge builds
        if N0 < 2:
            raise ConfigError(f"converge needs N >= 2, but sweep {sweep.text} starts at N = {N0}")
        N1 = round(sweep.values[-1])  # the largest; sin_pi_ratio folds modes mod 2N in int64
        if N1 >= 2 ** 62:
            raise ConfigError(f"converge needs N < 2**62, but sweep {sweep.text} reaches N = {N1}")
        if args.quantity == "partition" and not thermal_given:
            raise ConfigError("quantity=partition needs --beta or --T")
    elif N is None:
        if command not in ("partition", "mean-energy"):
            raise ConfigError("--N is required")
        if args.L is None:  # continuum-only run: the discrete columns are emitted as nan
            raise ConfigError("without --N the continuum needs --L")
    elif N < 2:
        raise ConfigError(f"N must be >= 2, got {N}")

    if command in ("partition", "mean-energy", "heat-capacity"):
        if sweep is not None and thermal_given:
            raise ConfigError("give either --beta/--T or --sweep, not both")
        if sweep is None and not thermal_given:
            raise ConfigError("give --beta, --T, or --sweep")
    elif command == "density-matrix" and not thermal_given:
        raise ConfigError("give --beta or --T")
    if getattr(args, "n_E", 1) < 1:
        raise ConfigError(f"n-E must be >= 1, got {args.n_E}")
    return args


def _particle(args: argparse.Namespace) -> ParticleSpec:
    """Natural units, or SI with the default of each constant not given."""
    if not args.si:
        return ParticleSpec.natural()
    given = {dest: getattr(args, dest) for dest in ("m_star", "hbar", "k_B")}
    return ParticleSpec.si(**{dest: value for dest, value in given.items() if value is not None})


def _lattice(args: argparse.Namespace) -> LatticeSpec:
    """N sites spaced by --a, else by L/N, else by 1."""
    a = args.a if args.a is not None else 1.0 if args.L is None else args.L / args.N
    return LatticeSpec(args.N, a)


def _reciprocal_kT(x: float, particle: ParticleSpec) -> float:
    """1/(k_B x), which is beta for x = T and T for x = beta; an inf or 0 result is a domain error."""
    kx = particle.k_B * x
    y = 1.0 / kx if kx else math.inf  # a k_B x that underflows to 0 gives inf, which names itself below
    if not (math.isfinite(y) and y > 0):
        raise OverflowError(f"1/(k_B * {x!r}) = {y!r} is out of range")
    return y


def _beta_value(args: argparse.Namespace, particle: ParticleSpec) -> float:
    return args.beta if args.beta is not None else _reciprocal_kT(args.T, particle)


def _beta_grid(args: argparse.Namespace, particle: ParticleSpec) -> list[float]:
    return args.sweep.values if args.sweep is not None else [_beta_value(args, particle)]


def _cmd_spectrum(args: argparse.Namespace):
    lattice = _lattice(args)
    particle = _particle(args)
    spec = build_spectrum(lattice, particle)
    return {
        "n_E": spec.n_E,
        "e_tilde": spec.e_tilde,
        "E": spec.energies,
        "E_continuum": energy_continuum(spec.n_E, lattice.L, particle),
        "rel_error": continuum_limit_error(spec.n_E, lattice.N),
    }


def _cmd_wavefunction(args: argparse.Namespace):
    lattice = _lattice(args)
    psi = eigenfunction(args.n_E, lattice)
    return {"n": np.arange(lattice.N + 1), "x_n": lattice.coords(), "psi": psi.values}


def _cmd_density_matrix(args: argparse.Namespace):
    lattice = _lattice(args)
    particle = _particle(args)
    spec = build_spectrum(lattice, particle)
    beta = _beta_value(args, particle)
    if not args.normalized:
        return density_matrix_spectral(spec, beta)
    # rho/Z is the same with every energy measured from the ground state,
    # and then neither factor carries exp(-beta E0), which underflows
    spec = Spectrum(lattice, particle, spec.e_tilde - spec.e_tilde[0])
    dm = density_matrix_spectral(spec, beta)
    return density_matrix_normalized(dm, partition_discrete(spec, beta).Z, out=dm.rho)  # rho is held once


def _discrete_spectrum(args: argparse.Namespace, particle: ParticleSpec):
    """The lattice spectrum and width, or (None, L) for a continuum-only run."""
    if args.N is None:
        return None, args.L
    lattice = _lattice(args)
    return build_spectrum(lattice, particle), lattice.L


def _cmd_partition(args: argparse.Namespace):
    particle = _particle(args)
    spec, L = _discrete_spectrum(args, particle)
    betas = _beta_grid(args, particle)
    closed = [partition_continuum_closed(L, particle, b) for b in betas]
    return {
        "beta": betas,
        "Z_discrete": [partition_discrete(spec, b).Z if spec is not None else math.nan for b in betas],
        "Z_continuum_sum": [partition_continuum_sum(L, particle, b).Z for b in betas],
        "Z_closed": [c.Z for c in closed],
        "Z_theta": [partition_theta(L, particle, b).Z for b in betas],
        "F": [c.free_energy for c in closed],
    }


def _cmd_mean_energy(args: argparse.Namespace):
    particle = _particle(args)
    spec, L = _discrete_spectrum(args, particle)
    betas = _beta_grid(args, particle)
    return {
        "beta": betas,
        "H_mean_discrete": [mean_energy(spec, b) if spec is not None else math.nan for b in betas],
        "H_mean_continuum": [mean_energy_continuum(L, particle, b) for b in betas],
    }


def _cmd_heat_capacity(args: argparse.Namespace):
    particle = _particle(args)
    spec = build_spectrum(_lattice(args), particle)
    theta = characteristic_temperature(spec)
    if args.sweep is not None:
        temps = args.sweep.values
    else:
        temps = [args.T if args.T is not None else _reciprocal_kT(args.beta, particle)]
    x = [theta / T for T in temps]
    if not math.isfinite(max(x)):
        raise OverflowError(f"x = Theta/T overflows at T={min(temps)!r}")
    return {
        "T": temps,
        "x": x,
        "Cv_over_R": [heat_capacity_two_level(spec, T) for T in temps],
    }


def _cmd_converge(args: argparse.Namespace):
    particle = _particle(args)
    L = args.L
    Ns = [int(round(v)) for v in args.sweep.values]
    if args.quantity == "energy":
        value = [energy_discrete(args.n_E, LatticeSpec(N, L / N), particle) for N in Ns]
        error = [continuum_limit_error(args.n_E, N) for N in Ns]
    else:
        beta = _beta_value(args, particle)
        z_cont = partition_continuum_sum(L, particle, beta).Z
        value = [partition_discrete(build_spectrum(LatticeSpec(N, L / N), particle), beta).Z for N in Ns]
        error = np.abs(np.asarray(value) - 2.0 * z_cont)  # the N-1 modes hold each level twice
    return {"N": Ns, "quantity": [args.quantity] * len(Ns), "value": value, "error_vs_continuum": error}


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "density-matrix": _cmd_density_matrix,
    "partition": _cmd_partition,
    "mean-energy": _cmd_mean_energy,
    "heat-capacity": _cmd_heat_capacity,
    "converge": _cmd_converge,
}


def build_table(args: argparse.Namespace) -> dict | DensityMatrix:
    """The configured table as ordered {column name: values} of equal length, or the density matrix itself."""
    return _COMMANDS[args.command](args)


def _json_cells(block: np.ndarray) -> list:
    """One block of a column as cells that the JSON row template's ``%s`` writes as ``json.dumps`` would.

    ``str`` of an int or a finite float is its ``repr``, which is what ``json.dumps``
    writes; a non-finite float becomes ``null`` and any other cell is dumped on its own.
    """
    cells = block.tolist()
    if block.dtype.kind in "iu":
        return cells
    if block.dtype.kind != "f":
        return [json.dumps(v) for v in cells]
    if np.isfinite(block).all():
        return cells
    return [v if math.isfinite(v) else "null" for v in cells]


def _cell_texts(cell: str, values: list) -> list[str]:
    """Each value as the text that ``cell`` (``%.17g`` or ``%s``) gives it in a row template."""
    return [cell % v for v in values]


def emit(args: argparse.Namespace, table: dict | DensityMatrix, stream) -> None:
    """Write the table as CSV (ints as is, floats to 17 digits) or as one JSON document (nan/inf as null).

    Both formats write the rows in blocks of ``EMIT_BLOCK_ROWS``, one write and one
    ``%`` format of a row template per block, so the emitter's memory is O(block),
    not O(table).  A ``DensityMatrix``'s blocks are EMIT_BLOCK_ROWS // (N+1) matrix
    rows (at least one), from one template of a whole matrix row built once, with
    each n_prime in it as text: each row's n goes into its copy of the template
    once, by ``str.replace`` of the marker ``#``, and only the block's cells go in
    by ``%``, so no int is formatted per cell.  Its cells repeat, so each cell's
    text comes from a cache keyed by its float64 bits (+0.0 and -0.0, or two NaN
    payloads, stay apart), and the template takes every cell as ``%s``.  A pattern
    new to the cache is formatted once by the CSV or JSON rule (``_cell_texts``).
    Once the cache holds more than EMIT_BLOCK_ROWS texts (so at most that plus one
    block's cells), it is dropped and the template formats the rest of the matrix
    inline (``%.17g`` in CSV): a matrix with that many distinct cells gains little
    from the cache.
    JSON's ``rows`` come before ``meta``, so the document is written as a head
    (``config`` and ``columns``), the row blocks joined by ", ", and a tail (``meta``),
    byte for byte the ``json.dumps`` of the whole document.  Columns of different
    lengths raise ValueError before anything is written.
    """
    matrix = table.rho if isinstance(table, DensityMatrix) else None
    names = list(table) if matrix is None else ["n", "n_prime", "rho"]
    columns = [np.asarray(v) for v in table.values()] if matrix is None else []
    if len({len(col) for col in columns}) > 1:  # the blocks' rows follow the first column
        raise ValueError(f"table columns differ in length: {dict(zip(names, map(len, columns)))}")
    if args.output == "csv":
        stream.write(",".join(names) + "\n")
        row = ",".join("%.17g" if col.dtype.kind == "f" else "%s" for col in columns) + "\n"
        site_row, cell, joint, cells_of = "#,{},{}\n", "%.17g", "", np.ndarray.tolist
    else:
        head = json.dumps({"config": vars(args), "columns": names},
                          default=lambda sweep: sweep.text, allow_nan=False)
        stream.write(head[:-1] + ', "rows": [')  # the head without its closing brace
        row = "[" + ", ".join(["%s"] * len(columns)) + "]"
        site_row, cell, joint, cells_of = "[#, {}, {}]", "%s", ", ", _json_cells
    lead = ""
    if matrix is None:
        for start in range(0, len(columns[0]), EMIT_BLOCK_ROWS):
            cells = [cells_of(col[start:start + EMIT_BLOCK_ROWS]) for col in columns]
            template = lead + joint.join([row] * len(cells[0]))
            stream.write(template % tuple(itertools.chain.from_iterable(zip(*cells))))
            lead = joint
    else:
        size = len(matrix)
        step = max(1, EMIT_BLOCK_ROWS // size)
        texts = {}  # a cell's text by its float64 bits
        template = joint.join([site_row.format(n_prime, "%s") for n_prime in range(size)])
        for start in range(0, size, step):
            block = matrix[start:start + step]
            if texts is not None and len(texts) > EMIT_BLOCK_ROWS:  # the next block could overflow the cache
                texts = None
                template = joint.join([site_row.format(n_prime, cell) for n_prime in range(size)])
            if texts is None:
                cells = cells_of(block.ravel())
            else:
                bits = block.view(np.int64).ravel().tolist()
                new = set(bits).difference(texts)
                if new:
                    new = list(new)
                    texts.update(zip(new, _cell_texts(cell, cells_of(np.array(new).view(np.float64)))))
                cells = map(texts.__getitem__, bits)
            rows = joint.join([template.replace("#", str(n)) for n in range(start, start + len(block))])
            stream.write(lead + rows % tuple(cells))
            lead = joint
    if args.output == "json":
        meta = {"version": __version__, "unit_mode": "SI" if args.si else "natural", **asdict(_particle(args))}
        stream.write('], "meta": ' + json.dumps(meta, allow_nan=False) + "}\n")


class _WholeWrites:
    """A text stream's binary buffer, to which each write hands on every byte or raises.

    Given more than its buffer holds, a ``BufferedWriter`` on a pipe whose reader
    closes takes only part of the bytes, and ``TextIOWrapper`` drops the rest
    without an error; asked again for the rest, it raises ``BrokenPipeError``.
    """

    def __init__(self, text_stream):
        text_stream.flush()  # what the text layer holds goes first
        self.buffer, self.encoding, self.errors = text_stream.buffer, text_stream.encoding, text_stream.errors

    def write(self, text: str) -> None:
        data = memoryview(text.encode(self.encoding, self.errors))
        while data:
            data = data[self.buffer.write(data):]


def run(args: argparse.Namespace) -> int:
    """Compute the configured table and write it (spec'd entry point)."""
    table = build_table(args)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                emit(args, table, fh)
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}") from None
    else:  # a StringIO has no buffer and takes every write whole
        emit(args, table, _WholeWrites(sys.stdout) if hasattr(sys.stdout, "buffer") else sys.stdout)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        code = run(parse_config(argv))
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # e.g. a density matrix larger than the host's memory
        print(f"config error: memory ran out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # argparse usage text / --help
        return int(exc.code) if exc.code else 0
    except SeriesCapExceeded as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, ArithmeticError) as exc:  # e.g. an energy scale that overflows, or a step underflowing to 0
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
