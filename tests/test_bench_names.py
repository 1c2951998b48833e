"""The bench tracer wraps library functions by name; every name must still exist."""

import importlib.util
from pathlib import Path

import latticewell.cli  # noqa: F401  (the tracer wraps cli functions too)
from latticewell import spectrum, thermo

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_and_uninstalls_against_the_library():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = (thermo.characteristic_temperature, spectrum.Spectrum.__dict__["energies"])
    t = tracer.Tracer()
    t.install()  # raises AttributeError or KeyError for a renamed target
    try:
        assert thermo.characteristic_temperature is not before[0]
    finally:
        t.uninstall()
    assert (thermo.characteristic_temperature, spectrum.Spectrum.__dict__["energies"]) == before
