"""Trace records and oracle-call accounting shared by every method driver."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergedError, InnerSolveError

CSV_HEADER = "k,f_gap,grad_norm,dist_opt,potential,grad_calls,prox_calls,inner_iters,wall_ns"

# record fields that accumulate over a run
TALLIES = ("grad_calls", "prox_calls", "inner_iters", "wall_ns")


@dataclass
class TraceRecord:
    k: int
    x: np.ndarray
    f_gap: float
    grad_norm: float
    dist_opt: float
    potential: float | None
    grad_calls: int
    prox_calls: int
    inner_iters: int
    wall_ns: int
    state: dict = field(default_factory=dict)

    def csv_row(self):
        pot = "" if self.potential is None else repr(self.potential)
        return (
            f"{self.k},{self.f_gap!r},{self.grad_norm!r},{self.dist_opt!r},"
            f"{pot},{self.grad_calls},{self.prox_calls},{self.inner_iters},{self.wall_ns}"
        )


@dataclass
class Trace:
    method: str
    meta: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    def append(self, record):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def xs(self):
        return [r.x for r in self.records]

    @property
    def final(self):
        return self.records[-1]

    def to_csv(self):
        lines = [CSV_HEADER]
        lines.extend(r.csv_row() for r in self.records)
        return "\n".join(lines) + "\n"


class Counters:
    """Mutable oracle-call counters threaded through a run."""

    def __init__(self):
        self.grad_calls = 0
        self.prox_calls = 0
        self.inner_iters = 0


class CountingOracle:
    """Wraps an oracle, counting gradient and prox evaluations."""

    def __init__(self, oracle, counters=None):
        self._oracle = oracle
        self.counters = counters if counters is not None else Counters()

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def value(self, x):
        return self._oracle.value(x)

    def gradient(self, x):
        self.counters.grad_calls += 1
        return self._oracle.gradient(x)

    def prox(self, x, step):
        self.counters.prox_calls += 1
        return self._oracle.prox(x, step)


class Recorder:
    """Builds Trace records for smooth or composite problems. Only `drive`
    builds one; methods never record directly.

    f_gap/dist_opt are reported relative to the known optimum when available,
    NaN otherwise. `oracle` must be the raw (uncounted) oracle; reporting-only
    evaluations never touch the counters.
    """

    def __init__(self, method, oracle, counters, meta=None, objective=None,
                 x_star=None, f_star=None):
        self.trace = Trace(method, dict(meta or {}))
        self._oracle = oracle
        self._counters = counters
        self._objective = objective if objective is not None else oracle.value
        if x_star is None and getattr(oracle, "x_star", None) is not None:
            x_star = oracle.x_star
            f_star = oracle.f_star
        self._x_star = x_star
        self._f_star = f_star
        self._t0 = time.perf_counter_ns()

    def record(self, k, x, grad=None, potential=None, state=None):
        if grad is None:
            grad = self._oracle.gradient(x)
        if self._f_star is not None:
            f_gap = float(self._objective(x) - self._f_star)
            dist = float(np.linalg.norm(x - self._x_star))
        else:
            f_gap = float("nan")
            dist = float("nan")
        rec = TraceRecord(
            k=k,
            x=np.array(x, dtype=float, copy=True),
            f_gap=f_gap,
            grad_norm=float(np.linalg.norm(grad)),
            dist_opt=dist,
            potential=potential,
            grad_calls=self._counters.grad_calls,
            prox_calls=self._counters.prox_calls,
            inner_iters=self._counters.inner_iters,
            wall_ns=time.perf_counter_ns() - self._t0,
            state=dict(state or {}),
        )
        self.trace.append(rec)
        return rec


def check_finite(x, trace):
    if not np.all(np.isfinite(x)):
        raise DivergedError("iterate became non-finite", trace)


def drive(method, oracle, meta, start, view, N=None, check="x", objective=None,
          x_star=None, f_star=None):
    """Run a method written as a stepper and return its Trace.

    `start(co)` receives the counting wrapper of `oracle` (its `counters` are
    the run's) and returns (state, step). `step(state)` returns the next state
    dict, or None to stop; N=None runs until it does. After every step
    `state[check]` must be finite. `view(state)` returns the (x, grad,
    snapshot) to record; grad=None has the recorder evaluate it uncounted.
    A DivergedError or InnerSolveError raised on the way carries the partial
    trace.
    """
    counters = Counters()
    rec = Recorder(method, oracle, counters, meta, objective, x_star, f_star)
    state, step = start(CountingOracle(oracle, counters))
    try:
        x, grad, snap = view(state)
        rec.record(0, x, grad=grad, state=snap)
        k = 0
        while N is None or k < N:
            state = step(state)
            if state is None:
                break
            check_finite(state[check], rec.trace)
            k += 1
            x, grad, snap = view(state)
            rec.record(k, x, grad=grad, state=snap)
    except (DivergedError, InnerSolveError) as exc:
        if exc.trace is None:
            exc.trace = rec.trace
        raise
    return rec.trace


def join(method, meta, runs):
    """One trace from restarted runs, each started at the previous run's final
    iterate: record 0 of the first run, then records 1.. of each run with k
    renumbered, counters and wall time offset by the runs before, and state
    {"epoch": e} for the e-th run (0 for record 0)."""
    trace = Trace(method, dict(meta))
    trace.append(replace(runs[0].records[0], state={"epoch": 0}))
    base = dict.fromkeys(TALLIES, 0)
    for e, run in enumerate(runs, 1):
        for r in run.records[1:]:
            trace.append(replace(r, k=len(trace), state={"epoch": e},
                                 **{t: getattr(r, t) + base[t] for t in TALLIES}))
        base = {t: getattr(run.final, t) + base[t] for t in TALLIES}
    return trace
