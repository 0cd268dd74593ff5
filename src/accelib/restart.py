"""Restart schemes: fixed epochs under strong convexity, geometric schedules
under a Holderian error bound and a log-grid search, each one `drive` run of
one stepper, the inner method restarted from its own output every epoch."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidArgument
from .momentum import _fgm_factory, fgm  # noqa: F401  re-exported
from .oracles import class_params
from .poly_methods import _gd_factory, gradient_descent  # noqa: F401  re-exported
from .trace import check_finite, drive

SCHED_C = 4.0 * np.exp(2.0 / np.e)  # the constant c in the schedule theory


@dataclass(frozen=True)
class HebParams:
    """f - f* >= (mu_heb / r) dist(x, X*)^r locally; r=2 is strong convexity."""

    r: float
    mu_heb: float
    L: float

    def __post_init__(self):
        if self.r < 2 or self.mu_heb <= 0 or self.L <= 0:
            raise InvalidArgument("need r >= 2, mu_heb > 0, L > 0")

    @property
    def tau(self):
        return 1.0 - 2.0 / self.r

    @property
    def kappa(self):
        return self.L / self.mu_heb ** (2.0 / self.r)


def _restarted(co, inner, lengths, x0, gamma, L):
    """The inner "gd" (step gamma) or "fgm" (mu = 0) stepper, its state extended by the
    epoch (0 at x0) and the steps left in it, restarted from its own x after each
    epoch of `lengths`; the step returns None after the last."""
    if inner == "gd":
        begin = partial(_gd_factory, co, gamma=gamma)
    elif inner == "fgm":
        begin = partial(_fgm_factory, co, mu=0.0, L=class_params(co, 0.0, L)[1])
    else:
        raise InvalidArgument(f"unknown inner method {inner!r}")
    state, inner_step = begin(x0)

    def step(s):
        epoch, left = s["epoch"], s["left"]
        if not left:  # the epoch is over: restart from its output, or stop
            if epoch == len(lengths):
                return None
            s = begin(s["x"])[0] if epoch else s
            epoch, left = epoch + 1, lengths[epoch]
        return dict(inner_step(s), epoch=epoch, left=left - 1)

    return dict(state, epoch=0, left=0), step


def _epoch_view(s):
    return s["x"], s.get("g"), {"epoch": s["epoch"]}


def _epoch_lengths(C, tau, budget):
    """k_i = ceil(C e^(tau i)), i = 0, 1, ..., until they add up to `budget` or
    more; a restart run for `budget` steps cuts the last one short."""
    ks, total = [], 0
    while total < budget:
        ks.append(int(np.ceil(C * np.exp(tau * len(ks)))))
        total += ks[-1]
    return ks


def fixed_restart(oracle, inner, k, x0, epochs, gamma=None, L=None):
    """Restart `inner` from its own output every k iterations."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    return drive(f"restart({inner})", oracle, {"k": k, "epochs": epochs, "inner": inner},
                 lambda co: _restarted(co, inner, [k] * epochs, x0, gamma, L), _epoch_view)


def schedule_lengths(heb, f0_gap, budget):
    """k_i = ceil(C* e^(tau i)) with C* = e^(1-tau) sqrt(c kappa) f0_gap^(-tau/2),
    truncated once the cumulative length reaches the budget."""
    tau = heb.tau
    C_star = np.exp(1.0 - tau) * np.sqrt(SCHED_C * heb.kappa) * f0_gap ** (-tau / 2.0)
    return _epoch_lengths(C_star, tau, budget), C_star


def scheduled_bound(heb, f0_gap, N):
    """Worst-case gap after N total inner iterations under the schedule."""
    tau = heb.tau
    ck = SCHED_C * heb.kappa
    if tau == 0:
        return np.exp(-2.0 * np.exp(-1.0) * ck ** (-0.5) * N) * f0_gap
    denom = (tau * np.exp(-1.0) * f0_gap ** (tau / 2.0) * ck ** (-0.5) * N + 1.0)
    return f0_gap / denom ** (2.0 / tau)


def scheduled_restart(oracle, heb, x0, f0_gap, budget):
    """Geometric restart schedule driven by known error-bound parameters."""
    if f0_gap is None or f0_gap <= 0:
        raise InvalidArgument("scheduled_restart needs f0_gap > 0")
    ks, C_star = schedule_lengths(heb, f0_gap, budget)
    return drive("scheduled_restart", oracle, {"budget": budget, "r": heb.r, "tau": heb.tau,
                                               "C_star": C_star, "ks": ks},
                 lambda co: _restarted(co, "fgm", ks, x0, None, heb.L), _epoch_view, budget)


def grid_cells(N):
    ps = range(1, int(np.floor(np.log2(N))) + 1)
    qs = range(0, int(np.ceil(np.log2(N))) + 1)
    return [(p, q) for p in ps for q in qs]


def grid_restart(oracle, L, x0, budget):
    """Run every (p, q) schedule, constant length 2^p when q = 0 and geometric
    with rate 2^(-q) otherwise, for `budget` inner iterations each, all in one
    step of the run, and return the schedule reaching the lowest objective."""
    if budget < 4:
        raise InvalidArgument("budget must be >= 4")
    cells = []  # (f_final, p, q, x) of each schedule, in grid order

    def run_grid(co):
        for p, q in grid_cells(budget):
            lengths = _epoch_lengths(2.0**p, 0.0 if q == 0 else 2.0 ** (-q), budget)
            s, cell_step = _restarted(co, "fgm", lengths, x0, None, L)
            for _ in range(budget):  # the last epoch cut at the budget
                s = cell_step(s)
                check_finite(s["x"])
            cells.append((co.value(s["x"]), p, q, s["x"]))
        _, p, q, x = min(cells, key=lambda c: c[0])  # the first of equal minima
        return {"x": x, "cell": {"p": p, "q": q}}

    trace = drive("grid_restart", oracle, {"budget": budget},
                  lambda co: ({"x": x0, "cell": {}}, lambda _: run_grid(co)),
                  lambda s: (s["x"], None, s["cell"]), 1)
    table = [{"p": p, "q": q, "f_final": f, "iterations": budget} for f, p, q, _ in cells]
    trace.meta.update(best_p=trace.final.state["p"], best_q=trace.final.state["q"],
                      table_json=json.dumps(table))
    return trace
