"""Outside-in tracing of accelib's layers.

`Tracer.install()` replaces accelib's public entry points with wrappers that
record a span (name, start, end, parent) around every call. Names are wrapped
where callers look them up: on the defining module, and again on a module
that bound the name at import (`restart` imports `fgm` and
`gradient_descent`). Spans stay in memory while a job runs and are folded
into per-name totals when it ends, so memory does not grow with run length.

A span's self time is its duration minus the durations of its direct
children; since spans nest, the self times of a span and all its descendants
add up to the span's duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name); the span name's prefix is the layer
TARGETS = (
    ("accelib.oracles", "ProblemOracle.value", "oracles.value"),
    ("accelib.oracles", "ProblemOracle.gradient", "oracles.gradient"),
    ("accelib.oracles", "ProblemOracle.prox", "oracles.prox"),
    ("accelib.oracles", "make_quadratic", "oracles.build"),
    ("accelib.oracles", "make_huber", "oracles.build"),
    ("accelib.oracles", "make_heb_power", "oracles.build"),
    ("accelib.oracles", "make_l1", "oracles.build"),
    ("accelib.oracles", "make_simplex_indicator", "oracles.build"),
    ("accelib.trace", "Recorder.record", "trace.record"),
    ("accelib.trace", "Trace.to_csv", "trace.to_csv"),
    ("accelib.poly_methods", "gradient_descent", "poly_methods.gradient_descent"),
    ("accelib.restart", "gradient_descent", "poly_methods.gradient_descent"),
    ("accelib.poly_methods", "chebyshev", "poly_methods.chebyshev"),
    ("accelib.poly_methods", "heavy_ball", "poly_methods.heavy_ball"),
    ("accelib.poly_methods", "conjugate_gradient_quadratic", "poly_methods.cg"),
    ("accelib.momentum", "ogm", "momentum.ogm"),
    ("accelib.momentum", "fgm", "momentum.fgm"),
    ("accelib.restart", "fgm", "momentum.fgm"),
    ("accelib.momentum", "constant_momentum", "momentum.constant_momentum"),
    ("accelib.momentum", "item", "momentum.item"),
    ("accelib.momentum", "tmm", "momentum.tmm"),
    ("accelib.momentum", "bregman_agm", "momentum.bregman_agm"),
    ("accelib.momentum", "monotone_wrap", "momentum.monotone_wrap"),
    ("accelib.composite", "fista", "composite.fista"),
    ("accelib.composite", "prox_agm", "composite.prox_agm"),
    ("accelib.extrapolation", "online_rna", "extrapolation.online_rna"),
    ("accelib.extrapolation", "prox_rna", "extrapolation.prox_rna"),
    ("accelib.extrapolation", "solve_pivot", "extrapolation.solve"),
    ("accelib.extrapolation", "lstsq_qr", "extrapolation.solve"),
    ("accelib.extrapolation", "spectral_norm", "extrapolation.solve"),
    ("accelib.prox_outer", "ppa", "prox_outer.ppa"),
    ("accelib.prox_outer", "accel_inexact_ppa", "prox_outer.accel_inexact_ppa"),
    ("accelib.prox_outer", "catalyst", "prox_outer.catalyst"),
    ("accelib.restart", "fixed_restart", "restart.fixed_restart"),
    ("accelib.restart", "scheduled_restart", "restart.scheduled_restart"),
    ("accelib.restart", "grid_restart", "restart.grid_restart"),
    ("accelib.certify", "check_potential", "certify.potential"),
    ("accelib.certify", "potential_scale", "certify.potential"),
    ("accelib.certify", "harvest_triplets", "certify.harvest"),
    ("accelib.certify", "check_interpolation", "certify.interp"),
    ("accelib.cli", "main", "cli.main"),
    ("accelib.cli", "parse_problem", "cli.parse"),
    ("accelib.cli", "write_outputs", "cli.write"),
)

DRIVER_LAYERS = ("poly_methods", "momentum", "composite", "extrapolation",
                 "prox_outer", "restart")
_NOT_DRIVERS = ("extrapolation.solve",)
ORACLE_CALLS = {"oracles.value": "value_calls", "oracles.gradient": "grad_calls",
                "oracles.prox": "prox_calls"}
JOB_SPAN = "bench.job"  # the benchmark's span around one whole job


def layer_of(name):
    return name.split(".", 1)[0]


def is_driver(name):
    return layer_of(name) in DRIVER_LAYERS and name not in _NOT_DRIVERS


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, payload]
        self._stack = []
        self._undo = []
        self.missing = []
        self.totals = defaultdict(lambda: [0, 0, 0])  # name -> calls, total, self ns
        self.counts = defaultdict(float)
        self.kept_bytes_max = 0

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span named `name`."""
        return self._wrap(fn, name)(*args)

    def _wrap(self, fn, name, payload=None):
        """fn, recording a span per call; `payload(args, result)` may keep a
        value for fold() to read when the job ends."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if payload is not None:
                    rec[4] = payload(args, result)
                return result
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target; a target the program no longer has is listed in
        `self.missing` and skipped."""
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            payload = _PAYLOADS.get(name)
            if payload is None and is_driver(name):
                payload = _keep_result
            setattr(owner, leaf, self._wrap(original, name, payload))
            self._undo.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._undo):
            setattr(owner, leaf, original)
        self._undo.clear()

    # -- folding -------------------------------------------------------------

    def fold(self):
        """Add the job's spans to the totals and forget them. A span left
        open by a job stopped at its deadline ends now."""
        spans = self.spans
        now = time.perf_counter_ns()
        for i in self._stack:
            spans[i][2] = now
        self._stack.clear()
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        self_ns = list(dur)
        under_certify = [False] * n
        under_driver = [False] * n
        c = self.counts
        kept = 0
        for i, (name, _, _, parent, payload) in enumerate(spans):
            pname = spans[parent][0] if parent >= 0 else ""
            if parent >= 0:
                self_ns[parent] -= dur[i]
                under_certify[i] = under_certify[parent] or layer_of(pname) == "certify"
                under_driver[i] = under_driver[parent] or is_driver(pname)
            if name in ORACLE_CALLS:
                c[ORACLE_CALLS[name]] += 1
                c["reporting_calls"] += pname == "trace.record"
                c["certify_oracle_calls"] += under_certify[i]
            elif name in ("momentum.fgm", "poly_methods.gradient_descent") \
                    and layer_of(pname) == "restart":
                c["restart_inner_runs"] += 1
            if payload is not None:
                _fold_payload(c, name, payload)
                if is_driver(name) and not under_driver[i]:
                    kept += trace_bytes(payload)  # returned to the job
        self.kept_bytes_max = max(self.kept_bytes_max, kept)
        for i, s in enumerate(spans):
            t = self.totals[s[0]]
            t[0] += 1
            t[1] += dur[i]
            t[2] += self_ns[i]
        spans.clear()


def _keep_result(args, result):
    return result


def _pairs(args, result):
    n = len(args[0])
    return n * (n - 1)


_PAYLOADS = {"certify.interp": _pairs}


def trace_bytes(trace):
    """Bytes held by a trace's iterates and array-valued state."""
    total = 0
    for r in trace.records:
        total += np.asarray(r.x).nbytes
        total += sum(v.nbytes for v in r.state.values() if isinstance(v, np.ndarray))
    return total


def _fold_payload(c, name, payload):
    if name == "certify.interp":
        c["pairs"] += payload
        return
    trace, meta = payload, payload.meta
    steps = max(len(trace.records) - 1, 0)
    layer = layer_of(name)
    if layer == "composite":
        c["composite_steps"] += steps
        c["backtracks"] += meta.get("wasted", 0)
    elif name in ("extrapolation.online_rna", "extrapolation.prox_rna"):
        c["extrapolation_steps"] += steps
        c["fallbacks"] += sum(bool(r.state.get("fallback")) for r in trace.records)
    elif layer == "prox_outer":
        c["inner_iters"] += trace.final.inner_iters
        if name == "prox_outer.catalyst":
            c["catalyst_total"] += meta.get("n_total", 0)
            c["catalyst_useless"] += meta.get("n_useless", 0)
