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


# rows per reporting oracle call; bounds the stacked iterates and their images
_BATCH = 64


class Recorder:
    """Builds Trace records for smooth or composite problems. Only `drive`
    builds one; methods never record directly.

    `record` keeps the iterate, the counters, the wall time and the state
    snapshot, plus the gradient norm when the caller passes the gradient.
    The reporting columns (f_gap, dist_opt and the missing gradient norms)
    of the records not filled yet are filled together, by row-stacked
    `gradient` and `objective` calls of up to _BATCH rows: by the `record`
    call marked `last`, so reporting stays part of recording, and whenever
    `trace` is read. So every trace a caller sees is complete, and `wall_ns`
    is method time only. f_gap/dist_opt are
    reported relative to the known optimum when available, NaN otherwise.
    `oracle` must be the raw (uncounted) oracle, and `objective` (default:
    its value) must take a stack of points, one per row, like
    `ProblemOracle.value`; reporting-only evaluations never touch the
    counters. With every gradient passed and no optimum known, `oracle` may
    be None.

    `potential`, when given and the optimum is known, is one of the
    `certify` potentials; the same fill then sets the `potential` column
    from it and puts the worst certificate margin and its step in the meta
    (`potential_worst_margin`, `potential_worst_step`). Otherwise the
    column stays empty.
    """

    def __init__(self, method, oracle, counters, meta=None, objective=None,
                 x_star=None, f_star=None, potential=None):
        self._trace = Trace(method, dict(meta or {}))
        self._pending = []  # records whose reporting columns are not filled yet
        self._oracle = oracle
        self._counters = counters
        if objective is None and oracle is not None:
            objective = oracle.value
        self._objective = objective
        if x_star is None and getattr(oracle, "x_star", None) is not None:
            x_star = oracle.x_star
            f_star = oracle.f_star
        self._x_star = x_star
        self._f_star = f_star
        self._potential = potential
        self._t0 = time.perf_counter_ns()

    def record(self, k, x, grad=None, state=None, last=False):
        rec = TraceRecord(
            k=k,
            x=np.array(x, dtype=float, copy=True),
            f_gap=float("nan"),
            grad_norm=None if grad is None else float(np.linalg.norm(grad)),
            dist_opt=float("nan"),
            potential=None,
            grad_calls=self._counters.grad_calls,
            prox_calls=self._counters.prox_calls,
            inner_iters=self._counters.inner_iters,
            wall_ns=time.perf_counter_ns() - self._t0,
            state=dict(state or {}),
        )
        self._trace.append(rec)
        self._pending.append(rec)
        if last:
            self._fill()

    @property
    def trace(self):
        """The trace so far, with every record's reporting columns filled."""
        self._fill()
        return self._trace

    def _fill(self):
        recs, self._pending = self._pending, []
        if not recs:
            return
        for lo in range(0, len(recs), _BATCH):
            block = recs[lo:lo + _BATCH]
            blind = [r for r in block if r.grad_norm is None]
            if blind:
                G = self._oracle.gradient(np.array([r.x for r in blind]))
                for r, norm in zip(blind, np.linalg.norm(G, axis=1)):
                    r.grad_norm = float(norm)
            if self._f_star is not None:
                X = np.array([r.x for r in block])
                gaps = self._objective(X) - self._f_star
                dists = np.linalg.norm(X - self._x_star, axis=1)
                for r, gap, dist in zip(block, gaps, dists):
                    r.f_gap = float(gap)
                    r.dist_opt = float(dist)
        if self._potential is not None and self._f_star is not None:
            self._fill_potential()

    def _fill_potential(self):
        """The potential column of every record, and the worst margin with
        its step in the meta, from the f_gap column already filled: only
        potentials that need the objective at other points (OGM's y_prev)
        evaluate it again. A diverged run's column may hold inf/nan."""
        trace = self._trace
        gap = np.array([r.f_gap for r in trace])
        with np.errstate(all="ignore"):
            phi, margins = self._potential(
                trace.records, gap, trace.meta, self._x_star,
                lambda Y: in_blocks(self._objective, Y) - self._f_star)
        for r, p in zip(trace, phi.tolist()):
            r.potential = p
        if len(margins):
            k = int(margins.argmin())
            trace.meta.update(potential_worst_margin=float(margins[k]),
                              potential_worst_step=k)


def in_blocks(fun, X):
    """fun over the rows of X (a stack of points, or a list of records) in
    blocks of at most _BATCH rows; fun returns one value per row."""
    if not len(X):
        return np.empty(0)
    if len(X) <= _BATCH:
        return fun(X)
    return np.concatenate([fun(X[lo:lo + _BATCH]) for lo in range(0, len(X), _BATCH)])


def check_finite(x, trace=None):
    if not np.all(np.isfinite(x)):
        raise DivergedError("iterate became non-finite", trace)


def drive(method, oracle, meta, start, view, N=None, check="x", objective=None,
          x_star=None, f_star=None, potential=None):
    """Run a method written as a stepper and return its Trace.

    `start(co)` receives the counting wrapper of `oracle` (its `counters` are
    the run's) and returns (state, step). `step(state)` returns the next state
    dict, or None to stop; N=None runs until it does. After every step
    `state[check]` must be finite, and so must every recorded gradient norm
    once the trace is filled (f_gap need not be: an entropy or simplex
    iterate may leave its domain by rounding). `view(state)` returns the (x, grad,
    snapshot) to record; grad=None has the recorder evaluate it uncounted,
    once the run is over. `objective` (default: the oracle's value) is what
    f_gap measures, evaluated on a stack of points as `ProblemOracle.value`
    is. `potential` is the method's `certify` potential, if it has one; the
    recorder fills the `potential` column from it. A DivergedError or
    InnerSolveError raised on the way carries the partial trace.
    """
    counters = Counters()
    rec = Recorder(method, oracle, counters, meta, objective, x_star, f_star, potential)
    state, step = start(CountingOracle(oracle, counters))
    try:
        x, grad, snap = view(state)
        rec.record(0, x, grad=grad, state=snap, last=N == 0)
        k = 0
        while N is None or k < N:
            state = step(state)
            if state is None:
                break
            check_finite(state[check])
            k += 1
            x, grad, snap = view(state)
            rec.record(k, x, grad=grad, state=snap, last=k == N)
    except (DivergedError, InnerSolveError) as exc:
        if exc.trace is None:
            exc.trace = rec.trace
        raise
    trace = rec.trace
    if not np.all(np.isfinite([r.grad_norm for r in trace])):
        raise DivergedError("gradient became non-finite", trace)
    return trace


def join(method, meta, runs):
    """One trace from restarted runs, each started at the previous run's final
    iterate: record 0 of the first run, then records 1.. of each run with k
    renumbered, counters and wall time offset by the runs before, and state
    {"epoch": e} for the e-th run (0 for record 0). The joined method has no
    potential, so its `potential` column is empty."""
    trace = Trace(method, dict(meta))
    trace.append(replace(runs[0].records[0], potential=None, state={"epoch": 0}))
    base = dict.fromkeys(TALLIES, 0)
    for e, run in enumerate(runs, 1):
        for r in run.records[1:]:
            trace.append(replace(r, k=len(trace), potential=None, state={"epoch": e},
                                 **{t: getattr(r, t) + base[t] for t in TALLIES}))
        base = {t: getattr(run.final, t) + base[t] for t in TALLIES}
    return trace
