"""latticewell benchmark: one seeded, closed-loop client per workload.

Usage, from the repository root:

    python3 bench/run.py --workload golden-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload runs in a fresh child interpreter (bench/worker.py) that drives
``latticewell.cli.main`` and library routes from ``src/``.  With --trace 0
the last line of stdout is a JSON object holding the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.  Set-up time is
the fastest of the fresh interpreters that the worker starts at even
intervals of its run, each timed from its start until ``latticewell.cli``
is imported.  Full results, and the spans of a traced run, go to bench/out/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("golden-mix", "thermo-sweep", "density-large")
#: A worker that has not finished this long after its measuring time is killed.
WORKER_GRACE_S = 140

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_ms.p50": "ms", "call_ms.p90": "ms", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    units = {}
    for name in LAYERS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update({
        "thermo.series_terms": "count", "spectrum.build_spectrum.modes": "count",
        "bloch.density_matrix_spectral.flops": "flop", "bloch.density_matrix.bytes": "B",
        "bloch.propagate_bloch.rk4_steps": "count", "cli.emit.rows": "count", "cli.emit.bytes": "B",
        "bench.unattributed_s": "s", "bench.traced_wall_s": "s", "bench.trace_overhead_s": "s",
    })
    return units


def child_env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: on a shared 2-core host a second thread waits on the
    # neighbours' load, which spread dense-matrix timings by 20-30 % run to run.
    env["OPENBLAS_NUM_THREADS"] = "1"
    # A fixed 1 MiB mmap threshold returns every large array to the OS when it
    # is freed; glibc's adaptive threshold instead kept freed buffers on the
    # heap depending on the request order, which moved peak RSS by up to 10 %.
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 20)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: bool, spans_out: Path | None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{workload} worker timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    result = run_worker(workload, seed, seconds, trace, OUT / f"{stem}-spans.jsonl" if trace else None)
    values, units = (result["trace"], per_layer_units()) if trace else (result["metrics"], END_TO_END_UNITS)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    result["workload"] = workload
    result["correct"] = result["failed"] == 0
    result["report"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_report(result: dict) -> None:
    w = result["workload"]
    for name, m in result["report"].items():
        print(f"{w:14s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{w:14s} requests {result['attempted']} failed {result['failed']} "
          f"fail_frac {result['failed'] / result['attempted']:.6g} call samples {result['call_samples']} "
          f"(each the fastest of {result['rounds']['untraced']} rounds) rounds {result['rounds']}")
    for message in result["failures"]:
        print(f"{w:14s} FAILED {message}")
    print(f"{w:14s} env {json.dumps(result['env'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="latticewell benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "latticewell" / "cli.py", ROOT / "tests" / "golden") if not p.exists()]
    if missing:
        print(f"benchmark needs the latticewell sources; missing: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_report(result)
    if len(results) == 1:
        metrics = results[0]["report"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in results for name, m in r["report"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
