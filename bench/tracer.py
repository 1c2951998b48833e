"""Self-time tracer that wraps latticewell's public functions from outside.

``Tracer.install`` replaces each target function in every latticewell module
namespace that binds it (``cli`` and ``bloch`` use ``from ... import``), and
``Spectrum.energies`` with a wrapped property.  ``uninstall`` puts the
originals back.  Inside a benchmark span, a wrapper records a span (name,
start, end, parent, request id) and adds its self time, its duration minus
that of its child spans, to per-function totals; outside one (an output
check) it only passes the call through.  Spans are kept in memory, up to
``SPAN_CAP`` of them, and written out by the caller at the end; the totals
cover every call.
"""

import functools
import sys
import time
from contextlib import contextmanager

#: (module, attribute) of every wrapped function, in report order.  Leaf
#: helpers called once per mode or term (``dimensionless_energy``,
#: ``theta_argument``, ...) are not wrapped: their time is their caller's.
TARGETS = (
    ("cli", "main"), ("cli", "parse_config"), ("cli", "run"), ("cli", "build_table"), ("cli", "emit"),
    ("thermo", "partition_discrete"), ("thermo", "partition_continuum_sum"),
    ("thermo", "partition_continuum_closed"), ("thermo", "partition_theta"), ("thermo", "theta3"),
    ("thermo", "mean_energy"), ("thermo", "mean_energy_continuum"),
    ("thermo", "characteristic_temperature"), ("thermo", "heat_capacity_two_level"),
    ("spectrum", "build_spectrum"), ("spectrum", "Spectrum.energies"), ("spectrum", "sine_mode_matrix"),
    ("spectrum", "eigenfunction"),
    ("bloch", "density_matrix_spectral"), ("bloch", "density_matrix_normalized"),
    ("bloch", "trace_integral"), ("bloch", "propagate_bloch"),
    ("calculus", "antiderivative"), ("calculus", "antiderivative_series"), ("calculus", "definite_integral"),
)
LAYERS = tuple(f"{module}.{attr}" for module, attr in TARGETS)
#: Span the benchmark opens around each request; its self time is unattributed.
BENCH_SPAN = "bench.request"
SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.self_ns = dict.fromkeys(LAYERS + (BENCH_SPAN,), 0)
        self.calls = dict.fromkeys(LAYERS + (BENCH_SPAN,), 0)
        self.spans = []
        self.dropped = 0
        self.request = None
        self._stack = []        # frames [span id, start ns, child ns]
        self._next_id = 0
        self._saved = []        # (namespace, attribute, original) to restore

    # ---------------------------------------------------------------- spans

    def _enter(self) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, time.perf_counter_ns(), 0])

    def _exit(self, name: str) -> None:
        end = time.perf_counter_ns()
        span_id, start, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, name, start, end, parent, self.request))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        self._enter()
        try:
            yield
        finally:
            self._exit(name)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside a benchmark request, e.g. an output check
                return fn(*args, **kwargs)
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)

        return traced

    # ---------------------------------------------------------------- install

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items() if n == "latticewell" or n.startswith("latticewell.")]
        for module, attr in TARGETS:
            name = f"{module}.{attr}"
            mod = sys.modules[f"latticewell.{module}"]
            if "." in attr:  # a property on a class
                cls_name, prop = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[prop]
                self._saved.append((cls, prop, original))
                setattr(cls, prop, property(self._wrap(name, original.fget)))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._saved.append((ns, key, original))
                        setattr(ns, key, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            ns, key, original = self._saved.pop()
            setattr(ns, key, original)
