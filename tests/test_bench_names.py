"""The bench wraps and calls library functions by name; every name must still exist."""

import importlib.util
from pathlib import Path

import latticewell.cli  # noqa: F401  (the tracer wraps cli functions too)
from latticewell import spectrum, thermo

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    """A module of bench/, loaded from its file without touching the directory."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_library():
    tracer = _load("tracer")
    before = (thermo.characteristic_temperature, spectrum.Spectrum.__dict__["energies"])
    t = tracer.Tracer()
    t.install()  # raises AttributeError or KeyError for a renamed target
    try:
        assert thermo.characteristic_temperature is not before[0]
    finally:
        t.uninstall()
    assert (thermo.characteristic_temperature, spectrum.Spectrum.__dict__["energies"]) == before


def test_workloads_run_and_check_against_the_library():
    workloads = _load("workloads")
    cv_N, cv_points = workloads.HEAT_CAPACITY_DESIGN[1]
    cv_sweep = (1.0 / workloads.BETA_RANGE[1], 1.0 / workloads.BETA_RANGE[0], cv_points, "log")  # T = 1/beta
    part_N, part_L, part_points = workloads.PARTITION_DESIGN[-1]
    requests = [
        # the route cross-check calls every library route the bench uses
        workloads.Request("routes", {"N": workloads.ROUTES_N, "beta": 0.5, "steps": workloads.ROUTES_STEPS}),
        # density-large's RK4 request at its own N, width and beta
        workloads.Request("rk4", {"N": workloads.RK4_N, "L": workloads.RK4_L, "beta": workloads.RK4_BETA}),
        # density-large's largest rho, and its density-matrix CSV request
        workloads.Request("rho", {"N": workloads.RHO_N, "beta": workloads.RHO_BETA_RANGE[0]}),
        workloads.cli_request("density-matrix", {"N": workloads.DM_CSV_N, "beta": workloads.DM_BETA_RANGE[0]}),
        # density-large's density-matrix JSON request, which the bench reads with json.loads
        workloads.cli_request("density-matrix", {"N": workloads.DM_JSON_N, "beta": workloads.DM_BETA_RANGE[0],
                                                 "output": "json"}),
        # density-large's normalized density matrix
        workloads.cli_request("density-matrix", {"N": workloads.DM_NORMALIZED_N, "beta": workloads.DM_BETA_RANGE[1],
                                                 "normalized": True}),
        # thermo-sweep's small heat-capacity request
        workloads.cli_request("heat-capacity", {"N": cv_N, "sweep": cv_sweep}),
        # thermo-sweep's largest partition request: series of up to ~3.5e5 terms per row
        workloads.cli_request("partition", {"N": part_N, "L": part_L,
                                            "sweep": (*workloads.BETA_RANGE, part_points, "log")}),
    ]
    for req in requests:
        code, output = workloads.execute(req)
        assert workloads.check(req, code, output, {}) is None
    for name in workloads.WORKLOADS:
        for req in workloads.GENERATORS[name](1):
            assert set(workloads.work(req)) == {"series_terms", "modes", "flops", "matrix_bytes", "rk4_steps"}
