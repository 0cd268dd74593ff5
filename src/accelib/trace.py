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
from .errors import DivergedError, InvalidArgument, NoCertificate, RunError
from .oracles import _BATCH, _vdot, optimum

CSV_HEADER = "k,f_gap,grad_norm,dist_opt,potential,grad_calls,prox_calls,inner_iters,wall_ns"

# record fields that accumulate over a run, in the order of a trace's
# `tallies` tuples (value_calls and hess_calls are not CSV columns)
TALLIES = ("grad_calls", "prox_calls", "inner_iters", "wall_ns", "value_calls", "hess_calls")


# One row of a Trace, built on access and read-only: x is a row of the
# trace's read-only iterate column, state a read-only view of the snapshot.
TraceRecord = namedtuple("TraceRecord", ("k", "x", "f_gap", "grad_norm", "dist_opt",
                                         "potential", *TALLIES, "state"))


class Trace(Sequence):
    """A run's records, held as columns: `k` and `tallies` (one TALLIES tuple
    per record) are lists; `x` (n rows), f_gap, grad_norm, dist_opt and
    potential (None without a potential) are read-only arrays, and so is each
    snapshot key's column over its records: rows (a float vector), floats (a
    float) or objects (any other entry). Indexing and iteration give
    `TraceRecord`s built on access (a slice: a list of them), and `states`
    their snapshots, a read-only sequence; `records` is the trace itself."""

    def __init__(self, method, meta=None):
        self.method, self.meta = method, dict(meta or {})
        self.k, self.tallies, self.x = [], [], np.empty((0, 0))
        self.f_gap = self.grad_norm = self.dist_opt = np.empty(0)
        self.potential, self._snapshot = None, {}  # key -> (first record, column)

    def set_columns(self, snapshot=(), **columns):
        """Set the named columns and each (key, first record, column) of `snapshot`, read-only."""
        for col in (*columns.values(), *(col for _, _, col in snapshot)):
            col.flags.writeable = False
        vars(self).update(columns)
        self._snapshot = {key: (first, col) for key, first, col in snapshot}

    @property
    def states(self):
        return _States(self)

    def column(self, key, lo=0):
        """The iterates ("x") or snapshot entry `key` of the records from `lo` on:
        a read-only view of the key's column, its entries as recorded. Raises
        NoCertificate if a record lacks the key."""
        if key == "x":
            return self.x[lo:]
        first, col = self._snapshot.get(key, (lo, None))
        if col is None or lo < first or first + len(col) < len(self):
            # e.g. FGM and constant momentum in form II carry no z
            raise NoCertificate(f"the trace's records carry no {key!r} to certify")
        return col[lo - first:]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        state = {key: col[i - first] if col.ndim > 1 else col.item(i - first)
                 for key, (first, col) in self._snapshot.items() if 0 <= i - first < len(col)}
        pot = None if self.potential is None else float(self.potential[i])
        return TraceRecord(self.k[i], self.x[i], float(self.f_gap[i]), float(self.grad_norm[i]),
                           float(self.dist_opt[i]), pot, *self.tallies[i],
                           MappingProxyType(state))

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


class _States(Sequence):
    """A trace's snapshots: each record's read-only mapping, built on access."""

    def __init__(self, trace):
        self._trace = trace

    def __getitem__(self, i):
        return [r.state for r in self._trace[i]] if isinstance(i, slice) else self._trace[i].state

    def __len__(self):
        return len(self._trace)


class Counters:
    """Mutable oracle-call counters threaded through a run."""

    def __init__(self):
        self.grad_calls = self.prox_calls = self.inner_iters = 0
        self.value_calls = self.hess_calls = 0


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

    `record` appends k and a TALLIES tuple to the trace's lists and writes the
    iterate and each snapshot entry once, into its key's column, so a step may
    later modify a recorded array in place. A key's first entry settles its
    column's kind: the iterate itself (rows of `x`), a float64 vector (rows),
    a float (floats) or anything else (objects). A key is in every record from
    its first on (it may stop), and one that began as the iterate stays it;
    `record` raises InvalidArgument otherwise. Buffers hold the run's rows
    when known, else _BATCH rows, doubled in place when full. The fill, at the
    `record` call marked `last` and whenever `trace` is read, cuts them to
    their rows (copying one that a trace handed out holds) and fills f_gap,
    dist_opt and the missing gradient norms of every row in blocks of _BATCH
    rows from row 0 (a block missing a norm takes the objective and the
    gradients from one `value_and_gradient` call): a trace read mid-run ends
    bit-identical to one filled once, and `wall_ns` is method time only.
    `problem` (a `ProblemOracle` or `CompositeProblem`; None with every
    gradient passed and no optimum known) is passed raw, so reporting never
    touches the counters; f_gap and dist_opt are measured from its optimum
    (else the smooth part's; NaN when none is known), the objective being
    the smooth value plus h. The fill evaluates `potential` (`drive` passes
    the method's) with `certify.evaluate_potential`, which reads the snapshot
    columns through `Trace.column`, and sets the `potential` column and the
    meta's `potential_worst_margin` and `potential_worst_step` unless that
    raises NoCertificate: exactly when `certify.potential_series` succeeds.
    """

    def __init__(self, method, problem, counters, meta=None, potential=None, rows=None):
        self._trace = Trace(method, meta)
        # _columns: None (the iterates) or a key -> [first record, the record it
        # left (None while recorded), entries: an array, or None for rows of the
        # iterates]; every buffer recorded ends at row _cap, and _targets holds
        # the entries of each of the latest record's _keys
        self._columns, self._rows, self._cap, self._keys, self._targets = {}, rows, 0, (), ()
        self._norms = []  # the recorded gradient norms (None: to evaluate)
        self._counters, self._potential, self._problem = counters, potential, problem
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
        if n == self._cap:  # full; at record 0 the run's rows, when known
            try:
                self._reserve(2 * n or self._rows or _BATCH, x)
            except MemoryError:  # a horizon past memory: grow with the run, as for N=None
                self._reserve(2 * n or _BATCH, x)
        i = n - self._cap  # record n's row, counted from the end of every buffer
        self._iterates[2][i] = x
        trace.k.append(k)
        self._norms.append(None if grad is None else math.sqrt(_vdot(grad, grad)))
        trace.tallies.append((c.grad_calls, c.prox_calls, c.inner_iters,
                              time.perf_counter_ns() - self._t0, c.value_calls, c.hess_calls))
        keys = tuple(state) if state else ()
        if keys != self._keys:
            self._settle(n, keys, state, x)
        for key, entries, value in zip(keys, self._targets, state.values()) if keys else ():
            if entries is not None:
                entries[i] = value
            elif value is not x:
                raise InvalidArgument(f"snapshot vector {key!r} left the iterate")
        if last:
            self._fill()

    @property
    def trace(self):
        """The trace so far, with every record's reporting columns filled."""
        self._fill()
        return self._trace

    def _reserve(self, cap, x=None):
        """Every buffer still recorded grown or cut to end at row `cap`."""
        self._targets, self._cap = (), cap  # while resized, a buffer is held by its column alone
        if not self._columns:  # record 0
            self._columns[None] = self._iterates = [0, None, np.empty((cap, *np.shape(x)))]
        for col in self._columns.values():
            if col[1] is None and col[2] is not None:
                _resize(col, cap - col[0])
        self._targets = tuple(self._columns[key][2] for key in self._keys)

    def _settle(self, n, keys, state, x):
        """The columns of record n, whose keys differ from the last record's."""
        self._targets, cols, rows = (), self._columns, self._cap - n
        for key in set(self._keys) - set(keys):  # stopped: cut to its rows
            cols[key][1] = n
            if cols[key][2] is not None:
                _resize(cols[key], n - cols[key][0])
        for key, v in ((key, state[key]) for key in keys if key not in cols):
            vector = type(v) is np.ndarray and v.dtype.char == "d" and v.ndim
            cols[key] = [n, None, None if v is x else np.empty((rows, *v.shape)) if vector
                         else np.empty(rows, float if type(v) is float else object)]
        for key in keys:
            if cols[key][1] is not None:
                kind = "vector" if cols[key][2] is None or cols[key][2].ndim > 1 else "entry"
                raise InvalidArgument(f"snapshot {kind} {key!r} skipped a record")
        self._keys, self._targets = keys, tuple(cols[key][2] for key in keys)

    def _fill(self):
        trace, n = self._trace, len(self._trace.k)
        if len(trace.f_gap) == n:
            return
        self._reserve(n)  # so the next record grows every buffer again
        X = self._columns[None][2]
        values, norms, dist = self._report(X)
        gap = values if self._f_star is None else values - self._f_star
        trace.set_columns([(key, first, X[first:stop or n] if entries is None else entries)
                           for key, (first, stop, entries) in self._columns.items()
                           if key is not None],
                          x=X, f_gap=gap, grad_norm=norms, dist_opt=dist)
        # from the objective values just computed: only potentials that need
        # it at other points (OGM's y_prev) evaluate it again
        try:
            phi, margins = evaluate_potential(self._potential, trace, self._problem, values)
        except NoCertificate:  # no potential, optimum or certificate (e.g. form II)
            return
        phi.flags.writeable = False
        trace.potential = phi
        if len(margins):
            k = int(margins.argmin())
            trace.meta.update(potential_worst_margin=float(margins[k]), potential_worst_step=k)

    def _report(self, X):
        """The objective, gradient norms and dist_opt of every row of X, in
        blocks of _BATCH rows; the objective and dist_opt are NaN without an optimum."""
        n, norms = len(X), list(self._norms)
        values, dist = np.full(n, np.nan), np.full(n, np.nan)
        for lo in range(0, n, _BATCH):
            block = X[lo:lo + _BATCH]
            blind = [i for i in range(len(block)) if norms[lo + i] is None]
            if self._f_star is not None:
                if blind:
                    F, G = self._smooth.value_and_gradient(block)
                    F, G = (F if self._h is None else F + self._h.value(block)), G[blind]
                else:
                    F = self._objective(block)
                values[lo:lo + len(block)] = F
                dist[lo:lo + len(block)] = np.linalg.norm(block - self._x_star, axis=1)
            elif blind:
                G = self._smooth.gradient(block[blind])
            if blind:
                for i, norm in zip(blind, np.linalg.norm(G, axis=1).tolist()):
                    norms[lo + i] = norm
        return values, np.array(norms, dtype=float), dist


def _resize(col, rows):
    """The entries col[2] grown or cut to `rows` rows in place (ndarray.resize
    refuses while anything but col holds it), or copied when a column handed
    out by an earlier fill still holds them."""
    try:
        col[2].resize((rows, *col[2].shape[1:]))
    except ValueError:  # a copy, its rows past the old ones to be overwritten
        col[2] = np.concatenate([col[2][:rows], col[2][:max(rows - len(col[2]), 0)]])


def check_finite(x, trace=None):
    """Raise DivergedError unless every entry of the 1-D x is finite."""
    # a finite squared norm proves it; only an overflowing one needs the
    # entrywise test (vdot, unlike dot, does not warn when it overflows)
    if not (math.isfinite(_vdot(x, x)) or np.isfinite(x).all()):
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
    writes x and each snapshot entry into its key's column (see `Recorder`),
    so a step may modify those arrays in place later, and fills the
    `potential` column from `certify.potential_of(method)`. Any
    `errors.RunError` raised on the way carries the partial trace.
    """
    counters = Counters()
    rec = Recorder(method, problem, counters, meta, potential_of(method),
                   None if N is None else N + 1)
    state, step = start(CountingOracle(getattr(problem, "smooth", problem), counters))
    try:
        for k in count():
            x, grad, snap = view(state)
            rec.record(k, x, grad, snap, k == N)
            if k == N or (state := step(state)) is None:
                break
            check_finite(state[check])
    except RunError as exc:
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
    for the e-th run (0 for record 0). It has no `potential` column."""
    tallies, epochs, base = runs[0].tallies[:1], [0], (0,) * len(TALLIES)
    for e, run in enumerate(runs, 1):
        tallies += [tuple(map(add, t, base)) for t in run.tallies[1:]]
        epochs += [e] * (len(run) - 1)
        base = tuple(map(add, run.tallies[-1], base))
    trace = Trace(method, meta)
    trace.k, trace.tallies = list(range(len(tallies))), tallies
    trace.set_columns([("epoch", 0, np.array(epochs, dtype=object))], **{
        name: np.concatenate([getattr(runs[0], name), *(getattr(r, name)[1:] for r in runs[1:])])
        for name in ("x", "f_gap", "grad_norm", "dist_opt")})
    return trace
