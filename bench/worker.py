"""Run one workload in this (fresh) interpreter and print its measurements.

Started by run.py as ``python3 bench/worker.py --workload W --seed S
--seconds T --trace 0|1``.  It repeats the workload's seeded round of
requests, one request at a time, until T seconds of requests have been
timed, checks every output outside the timing and prints one JSON line.
With --trace 1, odd rounds run with the tracer installed and even rounds
without it, so the tracing overhead is measured in the same process.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import latticewell  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

#: Failure messages kept for the report; every failure is counted.
MAX_FAILURE_MESSAGES = 20
#: Set-up probes per untraced run, spread evenly over its timed seconds.
SETUP_PROBES = 16


def setup_seconds() -> float:
    """Time from starting a fresh interpreter until latticewell.cli is imported.

    The probe inherits this process's environment, whose PYTHONPATH points at src/.
    """
    code = "import latticewell.cli; print('ready', flush=True)"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def run_round(requests, tracer, checker, tally) -> list[int]:
    """Send each request after the previous one returned; returns latencies in ns.

    Each output is checked right after its request, outside the timing, and
    then dropped, so peak memory does not depend on the request order.
    """
    latencies = []
    for i, req in enumerate(requests):
        if tracer:
            tracer.request = i
        t0 = time.perf_counter_ns()
        try:
            with tracer.span("bench.request") if tracer else nullcontext():
                code, out = workloads.execute(req)
        except Exception as exc:  # a failed request is counted, never dropped
            code, out = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter_ns() - t0)
        tally(i, checker(i, code, out))
    return latencies


class Checker:
    """Checks outputs; a CLI output byte-identical to one already checked for
    the same request reuses that verdict."""

    def __init__(self, requests, goldens):
        self.requests = requests
        self.goldens = goldens
        self.verdicts = {}
        self.emitted = [None] * len(requests)

    def __call__(self, i, code, out):
        req = self.requests[i]
        if code is None:
            return out
        key = None
        if isinstance(out, str):
            key = (i, code, hashlib.sha256(out.encode()).digest())
            if key in self.verdicts:
                return self.verdicts[key]
        try:
            verdict = workloads.check(req, code, out, self.goldens)
            if self.emitted[i] is None and verdict is None:
                self.emitted[i] = workloads.emitted(req, out)
        except Exception as exc:  # an unreadable output is a failed check
            verdict = f"output unreadable: {type(exc).__name__}: {exc}"
        if key is not None:
            self.verdicts[key] = verdict
        return verdict


def _blas_info() -> tuple[str, int | None]:
    """OpenBLAS configuration string and its current thread count, if loadable."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*.so"))
    try:
        lib = ctypes.CDLL(libs[0])
        get_config = lib.scipy_openblas_get_config64_
        get_config.restype = ctypes.c_char_p
        get_threads = lib.scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        return get_config().decode(), get_threads()
    except (IndexError, OSError, AttributeError):
        blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name')} {blas.get('version')}", None


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas, threads = _blas_info()
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "blas_threads": threads, "seed": seed,
    }


def best_ms(rounds) -> list[float]:
    """Each request's fastest latency over the rounds, in ms.

    The host's speed drifts by tens of percent over seconds, and the fastest
    of k repetitions is what stays put.
    """
    return [min(lat) / 1e6 for lat in zip(*rounds)]


def trace_metrics(tracer, requests, checker, latencies) -> dict:
    traced_walls = [sum(lat) for lat in latencies[True]]
    n = len(traced_walls)
    metrics = {}
    for name in tracing.LAYERS:
        metrics[f"{name}.self_s"] = tracer.self_ns[name] / n / 1e9
        metrics[f"{name}.calls"] = tracer.calls[name] / n
    work = [workloads.work(req) for req in requests]
    emitted = [e or (0, 0) for e in checker.emitted]
    for name, key in (("thermo.series_terms", "series_terms"), ("spectrum.build_spectrum.modes", "modes"),
                      ("bloch.density_matrix_spectral.flops", "flops"),
                      ("bloch.density_matrix.bytes", "matrix_bytes"),
                      ("bloch.propagate_bloch.rk4_steps", "rk4_steps")):
        metrics[name] = sum(w[key] for w in work)
    metrics["cli.emit.rows"] = sum(rows for rows, _ in emitted)
    metrics["cli.emit.bytes"] = sum(size for _, size in emitted)
    metrics["bench.unattributed_s"] = tracer.self_ns[tracing.BENCH_SPAN] / n / 1e9
    metrics["bench.traced_wall_s"] = sum(traced_walls) / n / 1e9
    # Fastest traced minus fastest untraced repetition, summed over requests:
    # means of rounds differ by the host's drift more than by the tracer.
    metrics["bench.trace_overhead_s"] = (sum(best_ms(latencies[True])) - sum(best_ms(latencies[False]))) / 1e3
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None, help="JSON-lines file for the traced spans")
    args = parser.parse_args(argv)

    if not Path(latticewell.__file__).resolve().is_relative_to(SRC):
        print(f"latticewell imported from {latticewell.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    requests = workloads.GENERATORS[args.workload](args.seed)
    checker = Checker(requests, workloads.read_goldens(ROOT) if args.workload == "golden-mix" else {})
    tracer = tracing.Tracer() if args.trace else None

    latencies = {False: [], True: []}  # per round, keyed by whether the round was traced
    failures = []
    counts = {"attempted": 0, "failed": 0}

    def tally(i, verdict):
        counts["attempted"] += 1
        if verdict is not None:
            counts["failed"] += 1
            if len(failures) < MAX_FAILURE_MESSAGES:
                failures.append(f"request {i} {requests[i].argv or requests[i].kind}: {verdict}")

    timed_ns, budget_ns = 0, int(args.seconds * 1e9)
    setups, probe_every = [], budget_ns // SETUP_PROBES
    cpus = sorted(os.sched_getaffinity(0))
    round_index = 0
    while timed_ns < budget_ns or not latencies[False] or (tracer and not latencies[True]):
        # The host's cores slow down independently, for seconds to minutes, when
        # their neighbours get busy.  Rounds (and the set-up probes they start)
        # alternate between the cores, so each request's fastest repetition
        # samples every core.
        os.sched_setaffinity(0, {cpus[(round_index // 2) % len(cpus)]})
        # The host's speed drifts over seconds, so set-up is sampled across the
        # whole run (between rounds, outside the timing), not in one burst.
        while not tracer and len(setups) < SETUP_PROBES and timed_ns >= len(setups) * probe_every:
            setups.append(setup_seconds())
        traced = bool(tracer) and round_index % 2 == 1
        if traced:
            tracer.install()
        try:
            lat = run_round(requests, tracer if traced else None, checker, tally)
        finally:
            if traced:
                tracer.uninstall()
        latencies[traced].append(lat)
        timed_ns += sum(lat)
        round_index += 1

    untraced = latencies[False]
    best = best_ms(untraced)
    round_walls = {traced: [sum(lat) for lat in rounds] for traced, rounds in latencies.items()}
    result = {
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "failures": failures,
        "rounds": {"untraced": len(untraced), "traced": len(latencies[True])},
        "requests_per_round": len(requests),
        "call_samples": len(best),
        "round_walls_s": {"untraced": [w / 1e9 for w in round_walls[False]],
                          "traced": [w / 1e9 for w in round_walls[True]]},
        "call_ms_by_round": [[x / 1e6 for x in lat] for lat in untraced],
        "setup_samples_s": setups,
        "metrics": {
            # The fastest set-up, like the fastest repetition of a request: the
            # median of the probes moved with the host's speed by up to 26 %
            # between sets of runs.
            "setup_s": min(setups) if setups else None,
            "wall_s": sum(best) / 1e3,
            "call_ms.p50": statistics.median(best),
            # Inclusive: the 90th percentile stays between two measured
            # latencies even when a round holds only a few requests.
            "call_ms.p90": statistics.quantiles(best, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "env": environment(args.seed),
    }
    if tracer:
        result["trace"] = trace_metrics(tracer, requests, checker, latencies)
        result["spans_kept"] = len(tracer.spans)
        result["spans_dropped"] = tracer.dropped
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                for span_id, name, start, end, parent, request in tracer.spans:
                    fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start, "end_ns": end,
                                         "parent": parent, "request": request}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
