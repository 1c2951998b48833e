"""Smoke test of the benchmark at tiny size (about 5 s).

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "golden-mix", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def untraced():
    return _run(0)


@pytest.fixture(scope="module")
def traced():
    return _run(1)


def _assert_metrics_match(result: dict, declared: list) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_every_end_to_end_metric_is_emitted_with_its_unit(untraced):
    _assert_metrics_match(untraced, SPEC["end_to_end"])


def test_every_per_layer_metric_is_emitted_with_its_unit(traced):
    _assert_metrics_match(traced, SPEC["per_layer"])


def test_traced_self_times_and_unattributed_sum_to_traced_wall(traced):
    m = {k: v["value"] for k, v in traced["metrics"].items()}
    self_total = sum(m[f"{name}.self_s"] for name in tracing.LAYERS) + m["bench.unattributed_s"]
    assert self_total == pytest.approx(m["bench.traced_wall_s"], rel=1e-2)
    assert all(m[f"{name}.calls"] > 0 for name in tracing.LAYERS)


def test_workload_names_match_the_spec():
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    make = workloads.GENERATORS[workload]
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_tracer_uninstall_restores_every_binding():
    from latticewell import bloch, cli, spectrum

    before = (cli.build_spectrum, bloch.sine_mode_matrix, spectrum.Spectrum.__dict__["energies"])
    t = tracing.Tracer()
    t.install()
    try:
        assert cli.build_spectrum is not before[0] and bloch.sine_mode_matrix is not before[1]
    finally:
        t.uninstall()
    assert (cli.build_spectrum, bloch.sine_mode_matrix, spectrum.Spectrum.__dict__["energies"]) == before
