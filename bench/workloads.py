"""Seeded request lists for the three workloads, how to run one request, and
how to check its output.

A request is either a CLI invocation (argv for ``latticewell.cli.main``) or a
library route the CLI does not expose.  Library calls go through module
attributes (``bloch.propagate_bloch``), never through names bound here, so
the tracer's wrappers see them.

Every list is built from a fixed design: the seed chooses the order, the
inverse temperatures and small jitters of sweep ranges and point counts, but
not the set of sizes, so the work per round barely changes across seeds.
"""

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from latticewell import bloch, calculus, cli, lattice, spectrum, thermo

NATURAL = spectrum.ParticleSpec.natural()

#: The seven configurations of the golden-file acceptance test.
GOLDEN = (
    ("spectrum.csv", "spectrum", {"N": 8}),
    ("wavefunction.csv", "wavefunction", {"N": 8, "n_E": 2}),
    ("density-matrix.csv", "density-matrix", {"N": 5, "beta": 2.0}),
    ("partition.csv", "partition", {"N": 6, "sweep": (0.5, 4.0, 4, "linear")}),
    ("mean-energy.csv", "mean-energy", {"N": 6, "beta": 1.5}),
    ("heat-capacity.csv", "heat-capacity", {"N": 6, "sweep": (0.01, 10.0, 12, "log")}),
    ("converge.csv", "converge", {"L": 1.0, "sweep": (50.0, 400.0, 4, "log"), "n_E": 2}),
)
#: Shuffled blocks of the seven golden configurations per golden-mix round.
GOLDEN_BLOCKS = 10

#: thermo-sweep partition requests as (N, L or None for a = 1, beta points).
#: L * points is held near 2.5e4 so that no single request dominates a round.
PARTITION_DESIGN = (
    (64, 16.0, 1000), (128, None, 200), (256, None, 100), (512, None, 50),
    (1024, None, 25), (2048, None, 12), (4096, None, 10),
)
MEAN_ENERGY_DESIGN = ((4096, 200), (256, 1000))
HEAT_CAPACITY_DESIGN = ((2048, 1000), (64, 100))
#: converge --quantity partition as (L, N start, N stop, N points).
CONVERGE_DESIGN = ((1.0, 64, 4096, 10), (64.0, 64, 1024, 20))
BETA_RANGE = (1e-3, 10.0)
#: Sweep ends and point counts move by at most this many decades.
JITTER_DECADES = 0.02

#: density-large requests.
DM_CSV_N, DM_NORMALIZED_N, DM_JSON_N = 400, 128, 256
DM_BETA_RANGE = (0.5, 4.0)
RHO_N, RHO_BETA_RANGE = 2047, (0.005, 0.05)
RK4_N, RK4_L, RK4_BETA = 63, 1.0, 0.003

#: Route cross-check that ends every round: small odd lattice, explicit RK4 steps.
ROUTES_N, ROUTES_STEPS, ROUTES_BETA_RANGE = 9, 64, (0.2, 1.0)

# Output-check tolerances (relative unless named abs).
TRACE_RTOL = 1e-12        # trace integral vs discrete Z, odd and even N laws
SYMMETRY_RTOL = 1e-12     # max |rho - rho^T| / max |rho|
RK4_RTOL = 1e-10          # max |rho_rk4 - rho_spectral| / max |rho_spectral|
POISSON_RTOL = 1e-10      # direct vs Poisson-resummed theta3
CLOSED_RTOL = 1e-10       # Z_closed - 1/2 vs Z_theta, plus the exp(-pi^2/mu) tail
EQUIPARTITION_RTOL = 1e-6  # continuum mean energy vs 1/(2 beta)
CV_MAX = 0.44             # (x / cosh x)^2 peaks at 0.4392

#: The checks walk matrices this many rows at a time and CSV output this many
#: characters at a time, so their temporaries stay small next to the outputs
#: and never set the worker's peak RSS.
CHECK_ROWS = 256
CHECK_CHARS = 1 << 18

WORKLOADS = ("golden-mix", "thermo-sweep", "density-large")


@dataclass
class Request:
    """One request: ``kind`` is "cli", "rho", "rk4" or "routes"."""

    kind: str
    params: dict
    argv: tuple = ()
    golden: str | None = None

    @property
    def command(self) -> str | None:
        return self.argv[0] if self.argv else None


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _jitter(rng: random.Random, x: float) -> float:
    return x * 10.0 ** rng.uniform(-JITTER_DECADES, JITTER_DECADES)


def cli_request(command: str, params: dict, golden: str | None = None) -> Request:
    argv = [command]
    for key, flag in (("N", "--N"), ("L", "--L"), ("beta", "--beta"), ("n_E", "--n-E"),
                      ("quantity", "--quantity"), ("output", "--output")):
        if params.get(key) is not None:
            argv += [flag, repr(params[key]) if isinstance(params[key], float) else str(params[key])]
    if "sweep" in params:
        start, stop, points, scale = params["sweep"]
        argv += ["--sweep", f"{start!r}:{stop!r}:{points}:{scale}"]
    if params.get("normalized"):
        argv.append("--normalized")
    argv.append("--natural")
    return Request("cli", params, tuple(argv), golden)


def _routes_request(rng: random.Random) -> Request:
    return Request("routes", {"N": ROUTES_N, "beta": _log_uniform(rng, *ROUTES_BETA_RANGE),
                              "steps": ROUTES_STEPS})


def _beta_sweep(rng: random.Random, points: int) -> tuple:
    n = min(1000, max(10, round(_jitter(rng, points))))
    return (_jitter(rng, BETA_RANGE[0]), _jitter(rng, BETA_RANGE[1]), n, "log")


def golden_mix(seed: int) -> list[Request]:
    rng = random.Random(seed)
    requests = []
    for _ in range(GOLDEN_BLOCKS):
        block = list(GOLDEN)
        rng.shuffle(block)
        requests += [cli_request(cmd, params, name) for name, cmd, params in block]
    requests.append(_routes_request(rng))
    return requests


def thermo_sweep(seed: int) -> list[Request]:
    rng = random.Random(seed)
    requests = []
    for N, L, points in PARTITION_DESIGN:
        requests.append(cli_request("partition", {"N": N, "L": L, "sweep": _beta_sweep(rng, points)}))
    for N, points in MEAN_ENERGY_DESIGN:
        requests.append(cli_request("mean-energy", {"N": N, "sweep": _beta_sweep(rng, points)}))
    for N, points in HEAT_CAPACITY_DESIGN:
        b0, b1, n, scale = _beta_sweep(rng, points)  # the heat-capacity sweep runs over T = 1/beta
        requests.append(cli_request("heat-capacity", {"N": N, "sweep": (1.0 / b1, 1.0 / b0, n, scale)}))
    for L, n0, n1, points in CONVERGE_DESIGN:
        requests.append(cli_request("converge", {
            "L": L, "beta": _log_uniform(rng, *BETA_RANGE), "quantity": "partition",
            "sweep": (float(n0), float(n1), points, "log")}))
    rng.shuffle(requests)
    requests.append(_routes_request(rng))
    return requests


def density_large(seed: int) -> list[Request]:
    rng = random.Random(seed)
    requests = [
        cli_request("density-matrix", {"N": DM_CSV_N, "beta": _log_uniform(rng, *DM_BETA_RANGE)}),
        cli_request("density-matrix", {"N": DM_NORMALIZED_N, "beta": _log_uniform(rng, *DM_BETA_RANGE),
                                       "normalized": True}),
        cli_request("density-matrix", {"N": DM_JSON_N, "beta": _log_uniform(rng, *DM_BETA_RANGE),
                                       "output": "json"}),
        Request("rho", {"N": RHO_N, "beta": _log_uniform(rng, *RHO_BETA_RANGE)}),
        Request("rk4", {"N": RK4_N, "L": RK4_L, "beta": _jitter(rng, RK4_BETA)}),
    ]
    rng.shuffle(requests)
    requests.append(_routes_request(rng))
    return requests


GENERATORS = {"golden-mix": golden_mix, "thermo-sweep": thermo_sweep, "density-large": density_large}


# --------------------------------------------------------------------------- execution


def execute(req: Request):
    """Run one request; returns (exit code, output), or the CLI's stderr on a non-zero exit."""
    if req.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
        return code, out.getvalue() if code == 0 else err.getvalue()
    p = req.params
    if req.kind == "rho":
        lat = lattice.LatticeSpec(p["N"], 1.0)
        dm = bloch.density_matrix_spectral(spectrum.build_spectrum(lat, NATURAL), p["beta"])
        F = calculus.antiderivative(dm.diagonal(), lat.a)
        return 0, {"rho": dm.rho, "trace": bloch.trace_integral(dm), "F0": float(F.values[0])}
    if req.kind == "rk4":
        lat = lattice.LatticeSpec(p["N"], p["L"] / p["N"])
        return 0, {"rho": bloch.propagate_bloch(lat, NATURAL, p["beta"]).rho}
    if req.kind == "routes":
        return 0, _routes(p["N"], p["beta"], p["steps"])
    raise ValueError(f"unknown request kind {req.kind!r}")


def _routes(N: int, beta: float, steps: int) -> dict:
    """Every library route at one small odd lattice, as the paper cross-checks them."""
    lat = lattice.LatticeSpec(N, 1.0)
    spec = spectrum.build_spectrum(lat, NATURAL)
    Z = thermo.partition_discrete(spec, beta).Z
    dm = bloch.density_matrix_spectral(spec, beta)
    T = 1.0 / beta
    return {
        "Z": Z,
        "trace": bloch.trace_integral(dm),
        "trace_normalized": bloch.trace_integral(bloch.density_matrix_normalized(dm, Z)),
        "F0": float(calculus.antiderivative(dm.diagonal(), lat.a).values[0]),
        "rho": dm.rho,
        "rho_rk4": bloch.propagate_bloch(lat, NATURAL, beta, steps=steps).rho,
        "Z_sum": thermo.partition_continuum_sum(lat.L, NATURAL, beta).Z,
        "Z_closed": thermo.partition_continuum_closed(lat.L, NATURAL, beta).Z,
        "Z_theta": thermo.partition_theta(lat.L, NATURAL, beta).Z,
        "H": thermo.mean_energy(spec, beta),
        "H_continuum": thermo.mean_energy_continuum(lat.L, NATURAL, beta),
        "x": thermo.characteristic_temperature(spec) / T,
        "Cv": thermo.heat_capacity_two_level(spec, T),
        "psi": spectrum.eigenfunction(spec.mode(1), lat).values,
    }


# --------------------------------------------------------------------------- checks


def read_goldens(root: Path) -> dict:
    return {name: (root / "tests" / "golden" / name).read_text() for name, _, _ in GOLDEN}


def check(req: Request, code: int, output, goldens: dict) -> str | None:
    """None when the output is right, else what is wrong with it."""
    if code != 0:
        return f"exit code {code}: {str(output).strip()}"
    if req.golden is not None:
        return None if output == goldens[req.golden] else f"output differs from {req.golden}"
    if req.kind == "cli":
        if req.command == "density-matrix":
            return _check_density_table(req.params, _read_matrix(output, req.params))
        return _check_thermo_table(req, _read_csv(output))
    if req.kind == "rho":
        return _check_rho(req.params, output)
    if req.kind == "rk4":
        return _check_rk4(req.params, output["rho"])
    return _check_routes(req.params, output)


def emitted(req: Request, output) -> tuple[int, int]:
    """Rows and bytes the CLI emitted for one request (0, 0 for library routes)."""
    if req.kind != "cli":
        return 0, 0
    if req.params.get("output") == "json":
        return len(json.loads(output)["rows"]), len(output.encode())
    return output.count("\n") - 1, len(output.encode())


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _read_csv(text: str) -> tuple[list, np.ndarray]:
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    numeric = [i for i, name in enumerate(header) if name != "quantity"]
    return header, np.array([[float(r[i]) for i in numeric] for r in rows])


def _read_matrix(output: str, params: dict) -> np.ndarray:
    N = params["N"]
    if params.get("output") == "json":
        data = np.array(json.loads(output)["rows"], dtype=float)
    else:
        data = np.concatenate([np.array(chunk.rstrip("\n").replace("\n", ",").split(","), dtype=float)
                               for chunk in _csv_chunks(output)]).reshape(-1, 3)
    if data.shape != ((N + 1) ** 2, 3):
        raise ValueError(f"expected {(N + 1) ** 2} rows, got {data.shape[0]}")
    idx = np.arange(N + 1)
    if not (np.array_equal(data[:, 0], np.repeat(idx, N + 1)) and np.array_equal(data[:, 1], np.tile(idx, N + 1))):
        raise ValueError("rows are not in (n, n') order")
    return data[:, 2].reshape(N + 1, N + 1)


def _csv_chunks(text: str):
    """The CSV body after the header, in pieces of about CHECK_CHARS that end at a line end."""
    start = text.index("\n") + 1
    while start < len(text):
        end = text.find("\n", min(start + CHECK_CHARS, len(text) - 1)) + 1 or len(text)
        yield text[start:end]
        start = end


def _row_blocks(n: int):
    return (slice(i, min(i + CHECK_ROWS, n)) for i in range(0, n, CHECK_ROWS))


def _max_abs(m: np.ndarray) -> float:
    return max(float(np.max(np.abs(m[rows]))) for rows in _row_blocks(m.shape[0]))


def _discrete_Z(N: int, a: float, beta: float) -> float:
    return thermo.partition_discrete(spectrum.build_spectrum(lattice.LatticeSpec(N, a), NATURAL), beta).Z


def _expected_trace(N: int, a: float, beta: float) -> float:
    """Z for odd N; even N adds e^{-beta E_{N/2}} with E_{N/2} = 1/(2 a^2)."""
    extra = 0.0 if N % 2 else math.exp(-beta / (2.0 * a * a))
    return _discrete_Z(N, a, beta) + extra


def _odd_site_trace(rho: np.ndarray, a: float) -> float:
    return 2.0 * a * float(np.sum(np.diagonal(rho)[1::2]))


def _symmetry_error(rho: np.ndarray) -> str | None:
    if not all(np.all(np.isfinite(rho[rows])) for rows in _row_blocks(rho.shape[0])):
        return "rho has non-finite entries"
    asym = max(float(np.max(np.abs(rho[rows] - rho[:, rows].T))) for rows in _row_blocks(rho.shape[0]))
    asym /= _max_abs(rho)
    return None if asym <= SYMMETRY_RTOL else f"rho asymmetric by {asym:.3g}"


def _check_density_table(params: dict, rho: np.ndarray) -> str | None:
    err = _symmetry_error(rho)
    if err:
        return err
    N, beta = params["N"], params["beta"]
    expected = _expected_trace(N, 1.0, beta)
    if params.get("normalized"):
        expected /= _discrete_Z(N, 1.0, beta)
    r = _rel(_odd_site_trace(rho, 1.0), expected)
    return None if r <= TRACE_RTOL else f"trace off by {r:.3g}"


def _check_rho(params: dict, out: dict) -> str | None:
    err = _symmetry_error(out["rho"])
    if err:
        return err
    Z = _discrete_Z(params["N"], 1.0, params["beta"])
    r = max(_rel(out["trace"], Z), _rel(-out["F0"], Z))
    return None if r <= TRACE_RTOL else f"trace integral vs Z off by {r:.3g}"


def _rk4_error(rho_rk4: np.ndarray, rho: np.ndarray) -> str | None:
    err = max(float(np.max(np.abs(rho_rk4[rows] - rho[rows]))) for rows in _row_blocks(rho.shape[0]))
    err /= _max_abs(rho)
    return None if err <= RK4_RTOL else f"RK4 vs spectral rho off by {err:.3g}"


def _check_rk4(params: dict, rho_rk4: np.ndarray) -> str | None:
    N, beta = params["N"], params["beta"]
    spec = spectrum.build_spectrum(lattice.LatticeSpec(N, params["L"] / N), NATURAL)
    return _rk4_error(rho_rk4, bloch.density_matrix_spectral(spec, beta).rho)


def _theta_errors(L: float, beta: float, Z_theta: float, Z_closed: float) -> str | None:
    mu = thermo.theta_argument(L, NATURAL, beta)
    r = _rel(Z_theta, 0.5 * (thermo.theta3_poisson(mu) - 1.0))
    if r > POISSON_RTOL:
        return f"Z_theta vs Poisson theta3 off by {r:.3g} at mu={mu:.3g}"
    if mu < 1.0:
        tail = math.sqrt(math.pi / mu) * math.exp(-math.pi ** 2 / mu)
        if abs(Z_closed - 0.5 - Z_theta) > tail + CLOSED_RTOL * Z_theta:
            return f"Z_closed - 1/2 vs Z_theta off at mu={mu:.3g}"
    return None


def _check_thermo_table(req: Request, table) -> str | None:
    header, values = table
    p = req.params
    points = p["sweep"][2]
    if values.shape[0] != points:
        return f"expected {points} rows, got {values.shape[0]}"
    if not np.all(np.isfinite(values)):
        return "non-finite value in output"
    if req.command == "partition":
        L = p["L"] if p.get("L") is not None else float(p["N"])
        for beta, _, _, Z_closed, Z_theta, _ in values:
            err = _theta_errors(L, beta, Z_theta, Z_closed)
            if err:
                return err
        return None if np.all(values[:, 1:5] > 0) else "non-positive partition function"
    if req.command == "mean-energy":
        r = np.max(np.abs(values[:, 2] * 2.0 * values[:, 0] - 1.0))
        return None if r <= EQUIPARTITION_RTOL else f"continuum mean energy off equipartition by {r:.3g}"
    if req.command == "heat-capacity":
        cv = values[:, 2]
        return None if np.all((cv >= 0) & (cv <= CV_MAX)) else "heat capacity outside [0, 0.44]"
    return None if np.all(values[:, 1] > 0) else "non-positive partition function"


def _check_routes(params: dict, out: dict) -> str | None:
    N, beta = params["N"], params["beta"]
    Z = out["Z"]
    if max(_rel(out["trace"], Z), _rel(-out["F0"], Z), _rel(out["trace_normalized"], 1.0)) > TRACE_RTOL:
        return "trace integral vs Z disagree"
    err = (_symmetry_error(out["rho"]) or _rk4_error(out["rho_rk4"], out["rho"])
           or _theta_errors(float(N), beta, out["Z_theta"], out["Z_closed"]))
    if err:
        return err
    if _rel(out["Z_sum"], out["Z_theta"]) > TRACE_RTOL:
        return "continuum sum vs theta form disagree"
    if abs(2.0 * beta * out["H_continuum"] - 1.0) > EQUIPARTITION_RTOL:
        return "continuum mean energy off equipartition"
    checks = (math.isfinite(out["H"]), 0.0 <= out["Cv"] <= CV_MAX, out["x"] > 0,
              abs(float(np.sum(out["psi"][1::2] ** 2)) * 2.0 - 1.0) < 1e-12)
    return None if all(checks) else "mean energy, heat capacity or eigenfunction out of range"


# --------------------------------------------------------------------------- computed work


def _sweep_values(sweep: tuple) -> np.ndarray:
    start, stop, points, scale = sweep
    if scale == "linear":
        return np.linspace(start, stop, points)
    return np.logspace(math.log10(start), math.log10(stop), points)


def series_terms(c: float) -> int:
    """Terms the Gaussian series sum exp(-c n^2) takes to reach its 1e-16 stopping rule.

    Computed from c, not counted: the sum is about (sqrt(pi/c) - 1)/2 for
    small c and exp(-c) for large c, and the series stops once a term falls
    below 1e-16 of it.
    """
    total = max(0.5 * (math.sqrt(math.pi / c) - 1.0), math.exp(-c))
    return max(1, math.ceil(math.sqrt(-math.log(thermo.SERIES_RTOL * total) / c)))


def work(req: Request) -> dict:
    """Work implied by a request's arguments (computed, not measured)."""
    p = req.params
    w = {"series_terms": 0, "modes": 0, "flops": 0, "matrix_bytes": 0, "rk4_steps": 0}

    def density(N: int) -> None:
        w["modes"] += N - 1
        w["flops"] += 2 * (N - 1) * (N + 1) ** 2
        w["matrix_bytes"] += 8 * (N + 1) ** 2

    cmd = req.command
    if req.kind == "cli" and cmd == "converge":
        if p.get("quantity") == "partition":
            Ns = [round(v) for v in _sweep_values(p["sweep"])]
            w["modes"] += sum(N - 1 for N in Ns)
            w["series_terms"] += series_terms(thermo.theta_argument(p["L"], NATURAL, p["beta"]))
    elif req.kind == "cli" and cmd == "density-matrix":
        density(p["N"])
    elif req.kind == "cli":
        w["modes"] += p["N"] - 1
        if cmd == "partition":
            L = p["L"] if p.get("L") is not None else float(p["N"])
            betas = _sweep_values(p["sweep"]) if "sweep" in p else [p["beta"]]
            w["series_terms"] += sum(2 * series_terms(thermo.theta_argument(L, NATURAL, b)) for b in betas)
    elif req.kind == "rho":
        density(p["N"])
    elif req.kind == "rk4":
        a = p["L"] / p["N"]
        w["rk4_steps"] += max(1000, math.ceil(1000.0 * p["beta"] / (2.0 * a * a)))
        w["matrix_bytes"] += 8 * (p["N"] + 1) ** 2
    elif req.kind == "routes":
        density(p["N"])
        w["rk4_steps"] += p["steps"]
        w["matrix_bytes"] += 8 * (p["N"] + 1) ** 2
        w["series_terms"] += 2 * series_terms(thermo.theta_argument(float(p["N"]), NATURAL, p["beta"]))
    return w
