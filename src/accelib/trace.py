"""Traces (columns of records) and oracle-call accounting shared by every method driver."""

from __future__ import annotations

import math
import time
from collections import namedtuple
from collections.abc import Sequence
from itertools import count
from operator import add
from types import MappingProxyType

import numpy as np

from .certify import evaluate_potential, potential_of
from .errors import DivergedError, InnerSolveError, InvalidArgument, NoCertificate
from .oracles import _BATCH, optimum

CSV_HEADER = "k,f_gap,grad_norm,dist_opt,potential,grad_calls,prox_calls,inner_iters,wall_ns"

# record fields that accumulate over a run, in the order of a trace's
# `tallies` tuples (value_calls and hess_calls are not CSV columns)
TALLIES = ("grad_calls", "prox_calls", "inner_iters", "wall_ns", "value_calls", "hess_calls")


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
        self.potential, self._columns = None, {"x": (0, self.x)}  # key -> (first record, column)

    def set_columns(self, snapshot=(), **columns):
        """Each named array becomes the given column, which holds every row,
        read-only. So does col of each (key, first, col) in `snapshot`: each
        record's `key` entry from record `first` on becomes its read-only
        row, and `column(key)` reads col when it runs to the last record (the
        key "x" stays the iterates')."""
        for name, col in columns.items():
            col.flags.writeable = False
            setattr(self, name, col)
        self._columns = {"x": (0, self.x)}
        for key, first, col in snapshot:
            col.flags.writeable = False
            for s, row in zip(self.states[first:], col):
                s[key] = row
            if first + len(col) == len(self):
                self._columns.setdefault(key, (first, col))

    def column(self, key, lo=0):
        """The iterates (key "x") or the snapshot entry `key` of the records
        from `lo` on, as floats, read-only. A snapshot vector is a lookup: a
        view of the column the recorder wrote at record time, whose rows are
        the records' entries. A scalar entry is stacked on each call. Raises
        NoCertificate when a record from `lo` on lacks the key."""
        first, col = self._columns.get(key, (lo, None))
        if col is None or lo < first:  # below a vector's first record: a KeyError
            try:
                col, first = np.array([s[key] for s in self.states[lo:]], dtype=float), lo
            except KeyError:  # e.g. FGM and constant momentum in form II carry no z
                raise NoCertificate(f"the trace's records carry no {key!r} to certify") from None
            col.flags.writeable = False
        return col[lo - first:]

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
                for k, gap, norm, dist, pot, (grad, prox, inner, wall, _, _) in zip(
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
        self.hess_calls = 0


class CountingOracle:
    """Wraps an oracle, counting value, gradient, prox and Hessian-vector
    evaluations; `value_and_gradient` counts one value and one gradient."""

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

    def hessian_matvec(self, v):
        self.counters.hess_calls += 1
        return self._oracle.hessian_matvec(v)


class Recorder:
    """Builds a Trace for smooth or composite problems. Only `drive` builds
    one; methods never record directly.

    `record` appends k, one TALLIES tuple and the state snapshot straight to
    the lists of the trace it returns, and copies the iterate and each float
    vector of the snapshot into a column at record time, so a step may later
    modify that array in place: `x`, and one column per snapshot key from the
    key's first record. A column's buffer holds the rows left in the run when
    its length is known, else _BATCH rows, doubled in place whenever full. A
    key whose first entry is the recorded iterate itself is rows of `x`. A
    vector key must be in every record from its first on (it may stop), and
    one that began as the iterate must stay it: `record` raises
    InvalidArgument otherwise. The fill, at the `record` call marked `last`
    and whenever `trace` is read, cuts each buffer to its rows in place (a
    copy only when a column handed out earlier still holds it), makes each
    vector entry a read-only row of its column and fills the reporting
    columns (f_gap, dist_opt, missing gradient norms) of every row in blocks
    of _BATCH rows from row 0, so a trace read mid-run evaluates its earlier
    rows again and ends bit-identical to one filled once. So every trace a
    caller sees is complete and holds each array once, and `wall_ns` is
    method time only. A block with a row missing its gradient norm takes the
    objective and the gradients from one row-stacked `value_and_gradient`
    call; any other block calls the objective alone. `problem` is a
    `ProblemOracle` or a `CompositeProblem`, passed raw: reporting-only
    evaluations never touch the counters. The objective is the smooth value,
    plus h for a composite problem, and f_gap and dist_opt are measured from
    the problem's optimum (a composite problem without one: the smooth
    part's), NaN when none is known. With every gradient passed and no
    optimum known, `problem` may be None.

    `potential`, when given and the optimum is known, is one of the `certify`
    potentials (`drive` passes the method's); the fill then sets the
    `potential` column from it (see `certify.evaluate_potential`) and puts the
    worst margin and its step in the meta (`potential_worst_margin`,
    `potential_worst_step`), unless it raises NoCertificate, as on records
    that carry no certificate (form II), where `potential_series` refuses too.
    It reads the snapshot columns through `Trace.column`.
    """

    def __init__(self, method, problem, counters, meta=None, potential=None, rows=None):
        self._trace = Trace(method, meta)
        self._rows = rows  # the run's records, when its length is known
        # self._columns: None (the iterate) or a snapshot key -> [first record, rows,
        # buffer], the entries of records first .. first + rows - 1 (rows of x while
        # buffer is None); self._norms: the recorded gradient norms (None: to evaluate)
        self._columns, self._norms = {}, []
        self._counters, self._potential = counters, potential
        self._smooth = getattr(problem, "smooth", problem)
        self._h = getattr(problem, "nonsmooth", None)
        self._objective = self._x_star = self._f_star = None
        if problem is not None:
            self._objective, self._x_star, self._f_star = optimum(problem)
            if self._x_star is None:
                self._x_star, self._f_star = self._smooth.x_star, self._smooth.f_star
        self._t0 = time.perf_counter_ns()

    def record(self, k, x, grad=None, state=None, last=False):
        c, trace, n = self._counters, self._trace, len(self._trace.k)
        self._write(None, n, x, None)
        trace.k.append(k)
        # = np.linalg.norm bit for bit (the same ddot), but vdot does not warn on overflow
        self._norms.append(None if grad is None else math.sqrt(np.vdot(grad, grad)))
        trace.tallies.append((c.grad_calls, c.prox_calls, c.inner_iters,
                              time.perf_counter_ns() - self._t0, c.value_calls, c.hess_calls))
        snap = dict(state) if state else {}
        for key, value in snap.items():
            if type(value) is np.ndarray and value.dtype.char == "d" and value.ndim:  # float64
                self._write(key, n, value, x)
                snap[key] = None  # the fill binds the entry to its row
        trace.states.append(snap)
        if last:
            self._fill()

    @property
    def trace(self):
        """The trace so far, with every record's reporting columns filled."""
        self._fill()
        return self._trace

    def _write(self, key, n, value, x):
        """`value` as record n's row of `key`'s column (None: the iterate's);
        ndarray.resize grows a buffer in place only while nothing but its
        column list holds it, hence no local name for it until then."""
        col = self._columns.get(key)
        if col is None:  # the rows left in the run when its length is known, or none
            try:
                buf = None if value is x else np.empty(
                    (max((self._rows or 0) - n, 0) or _BATCH, *np.shape(value)))
            except MemoryError:  # a horizon past memory: grow with the run, as for N=None
                buf = np.empty((_BATCH, *np.shape(value)))
            col = self._columns[key] = [n, 0, buf]
        elif col[0] + col[1] != n or col[2] is None and value is not x:
            raise InvalidArgument(f"snapshot vector {key!r} skipped a record or left the iterate")
        elif col[2] is not None and col[1] == len(col[2]):  # full: doubled
            _resize(col, 2 * col[1])
        first, rows, buf = col
        if buf is not None:
            buf[rows] = value
        col[1] = rows + 1

    def _fill(self):
        trace, n = self._trace, len(self._trace.k)
        if len(trace.f_gap) == n:
            return
        for col in self._columns.values():
            if col[2] is not None:
                _resize(col, col[1])
        X = self._columns[None][2]
        gap, norms, dist = self._report(X)
        trace.set_columns([(key, first, X[first:first + rows] if buf is None else buf)
                           for key, (first, rows, buf) in self._columns.items() if key is not None],
                          x=X, f_gap=gap, grad_norm=norms, dist_opt=dist)
        if self._potential is None or self._f_star is None:
            return
        # from the f_gap column just filled: only potentials that need the
        # objective at other points (OGM's y_prev) evaluate it again
        try:
            phi, margins = evaluate_potential(self._potential, trace, lambda: gap,
                                              self._x_star, self._objective, self._f_star)
        except NoCertificate:  # the records carry no certificate (e.g. form II)
            return
        phi.flags.writeable = False
        trace.potential = phi
        if len(margins):
            k = int(margins.argmin())
            trace.meta.update(potential_worst_margin=float(margins[k]), potential_worst_step=k)

    def _report(self, X):
        """f_gap, gradient norms and dist_opt of every row of X, in blocks of _BATCH rows."""
        n, norms = len(X), list(self._norms)
        gap, dist = np.full(n, np.nan), np.full(n, np.nan)
        for lo in range(0, n, _BATCH):
            block = X[lo:lo + _BATCH]
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
        return gap, np.array(norms, dtype=float), dist


def _resize(col, rows):
    """The buffer col[2] grown or cut to `rows` rows in place (ndarray.resize
    refuses while anything but col holds it), or copied when a column handed
    out by an earlier fill still holds it (the blocks `_report` views are gone
    once it has returned)."""
    try:
        col[2].resize((rows, *col[2].shape[1:]))
    except ValueError:  # a copy, its rows past the old ones to be overwritten
        col[2] = np.concatenate([col[2][:rows], col[2][:max(rows - len(col[2]), 0)]])


def check_finite(x, trace=None):
    """Raise DivergedError unless every entry of the 1-D x is finite."""
    # a finite squared norm proves it; only an overflowing one needs the
    # entrywise test (vdot, unlike dot, does not warn when it overflows)
    if not (math.isfinite(np.vdot(x, x)) or np.isfinite(x).all()):
        raise DivergedError("iterate became non-finite", trace)


def drive(method, problem, meta, start, view, N=None, check="x"):
    """Run a method written as a stepper and return its Trace.

    `problem` is a `ProblemOracle` or a `CompositeProblem` (see `Recorder`).
    `start(co)` receives the counting wrapper of the smooth oracle (its
    `counters` are the run's) and returns (state, step). `step(state)`
    returns the next state dict, or None to stop; N=None runs until it does.
    After every step `state[check]` must be finite, and so must every
    recorded gradient norm once the trace is filled (f_gap need not be: an
    entropy or simplex iterate may leave its domain by rounding).
    `view(state)` returns the (x, grad, snapshot) to record; grad=None has
    the recorder evaluate it uncounted, once the run is over. The recorder
    copies x and the snapshot's float vectors into the trace's columns as it
    records them (see `Recorder` for the keys it takes), so a step may modify
    those arrays in place later, and it
    fills the `potential` column from `certify.potential_of(method)`, if any
    (see `Recorder`). A DivergedError or InnerSolveError raised on the way
    carries the partial trace.
    """
    counters = Counters()
    rec = Recorder(method, problem, counters, meta, potential_of(method),
                   None if N is None else N + 1)
    state, step = start(CountingOracle(getattr(problem, "smooth", problem), counters))
    try:
        for k in count():
            x, grad, snap = view(state)
            rec.record(k, x, grad=grad, state=snap, last=k == N)
            if k == N or (state := step(state)) is None:
                break
            check_finite(state[check])
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
    trace.k, trace.tallies, trace.states = list(range(len(tallies))), tallies, states
    trace.set_columns(**{
        name: np.concatenate([getattr(runs[0], name), *(getattr(r, name)[1:] for r in runs[1:])])
        for name in ("x", "f_gap", "grad_norm", "dist_opt")})
    return trace
