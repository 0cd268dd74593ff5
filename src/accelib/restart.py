"""Restart schemes: fixed epoch length for strongly convex problems,
geometric schedules under a Holderian error bound, and the log-grid search
that adapts to unknown error-bound parameters."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgument
from .momentum import fgm
from .poly_methods import gradient_descent
from .trace import TALLIES, Trace, join

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


def _run_inner(inner, oracle, x0, k, gamma=None, L=None):
    if inner == "gd":
        return gradient_descent(oracle, gamma, x0, k)
    if inner == "fgm":
        return fgm(oracle, x0, k, form="I", mu=0.0, L=L)
    raise InvalidArgument(f"unknown inner method {inner!r}")


def fixed_restart(oracle, inner, k, x0, epochs, gamma=None, L=None):
    """Restart `inner` from its own output every k iterations."""
    if k < 1:
        raise InvalidArgument("k must be >= 1")
    x = np.array(x0, dtype=float)
    runs = []
    for _ in range(epochs):
        runs.append(_run_inner(inner, oracle, x, k, gamma=gamma, L=L))
        x = runs[-1].final.x
    return join(f"restart({inner})", {"k": k, "epochs": epochs, "inner": inner},
                runs or [_run_inner(inner, oracle, x, 0, gamma=gamma, L=L)])


def schedule_lengths(heb, f0_gap, budget):
    """k_i = ceil(C* e^(tau i)) with C* = e^(1-tau) sqrt(c kappa) f0_gap^(-tau/2),
    truncated once the cumulative length reaches the budget."""
    tau = heb.tau
    C_star = np.exp(1.0 - tau) * np.sqrt(SCHED_C * heb.kappa) * f0_gap ** (-tau / 2.0)
    ks = []
    total = 0
    i = 0
    while total < budget:
        k = int(np.ceil(C_star * np.exp(tau * i)))
        ks.append(k)
        total += k
        i += 1
    return ks, C_star


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
    x = np.array(x0, dtype=float)
    runs = []
    it = 0
    for k in ks:
        k = min(k, budget - it)
        if k <= 0:
            break
        runs.append(fgm(oracle, x, k, form="I", mu=0.0, L=heb.L))
        x = runs[-1].final.x
        it += k
    return join("scheduled_restart", {"budget": budget, "r": heb.r, "tau": heb.tau,
                                      "C_star": C_star, "ks": ks},
                runs or [fgm(oracle, x, 0, form="I", mu=0.0, L=heb.L)])


def grid_cells(N):
    ps = range(1, int(np.floor(np.log2(N))) + 1)
    qs = range(0, int(np.ceil(np.log2(N))) + 1)
    return [(p, q) for p in ps for q in qs]


def grid_restart(oracle, L, x0, budget):
    """Run every (p, q) schedule — constant length 2^p when q = 0, geometric
    with rate 2^(-q) otherwise — for at most `budget` inner iterations each,
    and return the schedule reaching the lowest objective."""
    if budget < 4:
        raise InvalidArgument("budget must be >= 4")
    x0 = np.array(x0, dtype=float)
    table = []
    best = None
    first = None
    spent = dict.fromkeys(TALLIES, 0)
    for p, q in grid_cells(budget):
        C_p = 2.0**p
        tau_q = 0.0 if q == 0 else 2.0 ** (-q)
        x = x0.copy()
        it = 0
        i = 0
        while it < budget:
            k = int(np.ceil(C_p * np.exp(tau_q * i)))
            k = min(k, budget - it)
            sub = fgm(oracle, x, k, form="I", mu=0.0, L=L)
            if first is None:
                first = sub.records[0]
            spent = {t: getattr(sub.final, t) + spent[t] for t in TALLIES}
            x = sub.final.x
            it += k
            i += 1
        f_final = oracle.value(x)
        table.append({"p": p, "q": q, "f_final": f_final, "iterations": it})
        if best is None or f_final < best[0]:
            best = (f_final, p, q, sub.final)
    trace = Trace("grid_restart", {"budget": budget, "best_p": best[1], "best_q": best[2],
                                   "table_json": json.dumps(table)})
    trace.append(replace(first, potential=None, state={}))  # grid_restart has no potential
    trace.append(replace(best[3], k=1, potential=None, state={"p": best[1], "q": best[2]},
                         **spent))
    return trace
