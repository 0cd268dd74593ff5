"""Traces (columns of records) and oracle-call accounting shared by every method driver."""

from __future__ import annotations

import math
import time
from collections import namedtuple
from collections.abc import Sequence
from operator import add
from types import MappingProxyType

import numpy as np

from .errors import DivergedError, InnerSolveError, InvalidArgument
from .oracles import optimum

CSV_HEADER = "k,f_gap,grad_norm,dist_opt,potential,grad_calls,prox_calls,inner_iters,wall_ns"

# record fields that accumulate over a run, in the order of a trace's
# `tallies` tuples (value_calls is not a CSV column)
TALLIES = ("grad_calls", "prox_calls", "inner_iters", "wall_ns", "value_calls")


# One row of a Trace, built on access and read-only: x is a row of the
# trace's read-only iterate column, state a read-only view of the snapshot.
TraceRecord = namedtuple("TraceRecord", ("k", "x", "f_gap", "grad_norm", "dist_opt",
                                         "potential", *TALLIES, "state"))


class Trace(Sequence):
    """A run's records, held as columns: `k`, `tallies` (one TALLIES tuple per
    record) and `states` (the snapshot dicts) are lists; `x` (n rows), f_gap,
    grad_norm, dist_opt and potential (None without a potential) are
    read-only arrays. Indexing and iteration give `TraceRecord`s built on
    access (a slice, a list of them); `records` is the trace itself."""

    def __init__(self, method, meta=None):
        self.method, self.meta = method, dict(meta or {})
        self.k, self.tallies, self.states = [], [], []
        self.x = np.empty((0, 0))
        self.f_gap = self.grad_norm = self.dist_opt = np.empty(0)
        self.potential, self._stacked = None, {}  # _stacked: the cached `column`s

    def extend(self, k, tallies, states, **arrays):
        """Add rows to the lists k, tallies and states and to the named arrays."""
        self.k += k
        self.tallies += tallies
        self.states += states
        for name, new in arrays.items():
            old = getattr(self, name)
            col = np.concatenate([old, new]) if len(old) else new
            col.flags.writeable = False
            setattr(self, name, col)
        self._stacked.clear()

    def column(self, key, lo=0):
        """The iterates (key "x") or the snapshot entry `key` of the records
        from `lo` on, as floats; a snapshot column is stacked once and cached."""
        if key == "x":
            return self.x[lo:]
        col = self._stacked.get((key, lo))
        if col is None:
            try:
                col = np.array([s[key] for s in self.states[lo:]], dtype=float)
            except KeyError:  # e.g. FGM and constant momentum in form II carry no z
                raise InvalidArgument(f"the trace's records carry no {key!r} to certify") from None
            col.flags.writeable = False
            self._stacked[key, lo] = col
        return col

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        pot = None if self.potential is None else float(self.potential[i])
        return TraceRecord(self.k[i], self.x[i], float(self.f_gap[i]), float(self.grad_norm[i]),
                           float(self.dist_opt[i]), pot, *self.tallies[i],
                           MappingProxyType(self.states[i]))

    def __len__(self):
        return len(self.k)

    @property
    def records(self):
        return self

    @property
    def final(self):
        return self[-1]

    def to_csv(self):
        pots = ([""] * len(self) if self.potential is None
                else map(repr, self.potential.tolist()))
        rows = (f"{k},{gap!r},{norm!r},{dist!r},{pot},{grad},{prox},{inner},{wall}"
                for k, gap, norm, dist, pot, (grad, prox, inner, wall, _) in zip(
                    self.k, self.f_gap.tolist(), self.grad_norm.tolist(),
                    self.dist_opt.tolist(), pots, self.tallies))
        return "\n".join([CSV_HEADER, *rows]) + "\n"


class Counters:
    """Mutable oracle-call counters threaded through a run."""

    def __init__(self):
        self.grad_calls = 0
        self.prox_calls = 0
        self.inner_iters = 0
        self.value_calls = 0


class CountingOracle:
    """Wraps an oracle, counting value, gradient and prox evaluations;
    `value_and_gradient` counts one value and one gradient."""

    def __init__(self, oracle, counters=None):
        self._oracle = oracle
        self.counters = counters if counters is not None else Counters()

    def __getattr__(self, name):
        return getattr(self._oracle, name)

    def value(self, x):
        self.counters.value_calls += 1
        return self._oracle.value(x)

    def gradient(self, x):
        self.counters.grad_calls += 1
        return self._oracle.gradient(x)

    def value_and_gradient(self, x):
        self.counters.value_calls += 1
        self.counters.grad_calls += 1
        return self._oracle.value_and_gradient(x)

    def prox(self, x, step):
        self.counters.prox_calls += 1
        return self._oracle.prox(x, step)


# rows per reporting oracle call; bounds the stacked iterates and their images
_BATCH = 64


class Recorder:
    """Builds a Trace for smooth or composite problems. Only `drive` builds
    one; methods never record directly.

    `record` only appends a row to a list: a copy of the iterate, the
    gradient's norm if passed, one TALLIES tuple and the state snapshot. The
    fill, at the `record` call marked `last` and whenever `trace` is read,
    stacks the pending rows into the trace's columns in blocks of up to
    _BATCH, dropping each row once stacked, and fills the reporting columns
    (f_gap, dist_opt, missing gradient norms). So every trace a caller sees
    is complete, and `wall_ns` is method time only. A block with a row
    missing its gradient norm takes the objective and the gradients from one
    row-stacked `value_and_gradient` call; any other block calls the
    objective alone. `problem` is a `ProblemOracle` or a `CompositeProblem`,
    passed raw: reporting-only evaluations never touch the counters. The
    objective is the smooth value, plus h for a composite problem, and f_gap
    and dist_opt are measured from the problem's optimum (a composite problem
    without one: the smooth part's), NaN when none is known. With every
    gradient passed and no optimum known, `problem` may be None.

    `potential`, when given and the optimum is known, is one of the
    `certify` potentials; the fill then sets the `potential` column from it
    and puts the worst margin and its step in the meta
    (`potential_worst_margin`, `potential_worst_step`).
    """

    def __init__(self, method, problem, counters, meta=None, potential=None):
        self._trace = Trace(method, meta)
        self._pending = []  # (k, x, grad norm, tallies, state) per record not filled yet
        self._counters = counters
        self._smooth = getattr(problem, "smooth", problem)
        self._h = getattr(problem, "nonsmooth", None)
        self._objective = self._x_star = self._f_star = None
        if problem is not None:
            self._objective, self._x_star, self._f_star = optimum(problem)
            if self._x_star is None:
                self._x_star, self._f_star = self._smooth.x_star, self._smooth.f_star
        self._potential = potential
        self._t0 = time.perf_counter_ns()

    def record(self, k, x, grad=None, state=None, last=False):
        c = self._counters
        self._pending.append((
            k, np.array(x, dtype=float, copy=True),
            # = np.linalg.norm bit for bit (the same ddot), but vdot does not warn on overflow
            None if grad is None else math.sqrt(np.vdot(grad, grad)),
            (c.grad_calls, c.prox_calls, c.inner_iters, time.perf_counter_ns() - self._t0,
             c.value_calls),
            dict(state) if state else {}))
        if last:
            self._fill()

    @property
    def trace(self):
        """The trace so far, with every record's reporting columns filled."""
        self._fill()
        return self._trace

    def _fill(self):
        if not self._pending:
            return
        ks, rows, norms, tallies, states = map(list, zip(*self._pending))
        self._pending = []
        n = len(rows)
        X = np.empty((n, *rows[0].shape))
        gap, dist = np.full(n, np.nan), np.full(n, np.nan)
        for lo in range(0, n, _BATCH):
            block = np.stack(rows[lo:lo + _BATCH], out=X[lo:lo + _BATCH])
            rows[lo:lo + _BATCH] = [None] * len(block)  # the column is the only copy
            blind = [i for i in range(len(block)) if norms[lo + i] is None]
            if self._f_star is not None:
                if blind:
                    F, G = self._smooth.value_and_gradient(block)
                    F, G = (F if self._h is None else F + self._h.value(block)), G[blind]
                else:
                    F = self._objective(block)
                gap[lo:lo + len(block)] = F - self._f_star
                dist[lo:lo + len(block)] = np.linalg.norm(block - self._x_star, axis=1)
            elif blind:
                G = self._smooth.gradient(block[blind])
            if blind:
                for i, norm in zip(blind, np.linalg.norm(G, axis=1).tolist()):
                    norms[lo + i] = norm
        self._trace.extend(ks, tallies, states, x=X, f_gap=gap,
                           grad_norm=np.array(norms, dtype=float), dist_opt=dist)
        if self._potential is not None and self._f_star is not None:
            self._fill_potential()

    def _fill_potential(self):
        """The potential column, and the worst margin with its step in the
        meta, from the f_gap column already filled: only potentials that need
        the objective at other points (OGM's y_prev) evaluate it again. A
        diverged run's column may hold inf/nan."""
        trace = self._trace
        with np.errstate(all="ignore"):
            phi, margins = self._potential(
                trace, trace.f_gap, self._x_star,
                lambda Y: in_blocks(self._objective, Y) - self._f_star)
        phi.flags.writeable = False
        trace.potential = phi
        if len(margins):
            k = int(margins.argmin())
            trace.meta.update(potential_worst_margin=float(margins[k]),
                              potential_worst_step=k)


def in_blocks(fun, X):
    """fun over the rows of X in blocks of at most _BATCH rows; fun returns
    one value per row."""
    if not len(X):
        return np.empty(0)
    if len(X) <= _BATCH:
        return fun(X)
    return np.concatenate([fun(X[lo:lo + _BATCH]) for lo in range(0, len(X), _BATCH)])


def check_finite(x, trace=None):
    """Raise DivergedError unless every entry of the 1-D x is finite."""
    # a finite squared norm proves it; only an overflowing one needs the
    # entrywise test (vdot, unlike dot, does not warn when it overflows)
    if not (math.isfinite(np.vdot(x, x)) or np.isfinite(x).all()):
        raise DivergedError("iterate became non-finite", trace)


def drive(method, problem, meta, start, view, N=None, check="x", potential=None):
    """Run a method written as a stepper and return its Trace.

    `problem` is a `ProblemOracle` or a `CompositeProblem` (see `Recorder`).
    `start(co)` receives the counting wrapper of the smooth oracle (its
    `counters` are the run's) and returns (state, step). `step(state)`
    returns the next state dict, or None to stop; N=None runs until it does.
    After every step `state[check]` must be finite, and so must every
    recorded gradient norm once the trace is filled (f_gap need not be: an
    entropy or simplex iterate may leave its domain by rounding).
    `view(state)` returns the (x, grad, snapshot) to record; grad=None has
    the recorder evaluate it uncounted, once the run is over. `potential` is
    the method's `certify` potential, if it has one; the recorder fills the
    `potential` column from it. A DivergedError or InnerSolveError raised on
    the way carries the partial trace.
    """
    counters = Counters()
    rec = Recorder(method, problem, counters, meta, potential)
    state, step = start(CountingOracle(getattr(problem, "smooth", problem), counters))
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
    if not np.isfinite(trace.grad_norm).all():
        raise DivergedError("gradient became non-finite", trace)
    return trace


def join(method, meta, runs):
    """One trace from restarted runs, each started at the previous run's final
    iterate: record 0 of the first run, then records 1.. of each run with k
    renumbered, tallies offset by the runs before, and state {"epoch": e}
    for the e-th run (0 for record 0). The joined method has no potential,
    so its `potential` column is None."""
    tallies, states, base = runs[0].tallies[:1], [{"epoch": 0}], (0,) * len(TALLIES)
    for e, run in enumerate(runs, 1):
        tallies += [tuple(map(add, t, base)) for t in run.tallies[1:]]
        states += [{"epoch": e} for _ in run.tallies[1:]]
        base = tuple(map(add, run.tallies[-1], base))
    trace = Trace(method, meta)
    trace.extend(list(range(len(tallies))), tallies, states, **{
        name: np.concatenate([getattr(runs[0], name), *(getattr(r, name)[1:] for r in runs[1:])])
        for name in ("x", "f_gap", "grad_norm", "dist_opt")})
    return trace
