"""Proximal-gradient acceleration with backtracked smoothness estimates.

Two drivers share one engine: `fista` takes the proximal step from y_k and
needs f smooth on all of R^d; `prox_agm` proxes the z-sequence and keeps every
iterate inside dom h. Backtracking modes:

  - "monotone":  L_{k+1} starts at L_k and never decreases (A_k accounting);
  - "reset":     L_{k+1} starts back at L_0 each iteration (B_k accounting);
  - "decrease":  L_{k+1} starts at max(beta * L_k, L_0), default beta = 1/alpha.

Both accountings step the one A-recurrence of the fast gradient method
(`momentum.next_A`, `momentum._tau_delta`) at q = mu/L_{k+1}. B_k accounting is
that recurrence at A = L_{k+1} B_k, storing B_{k+1} = A_{k+1}/L_{k+1}.

An accepted step always satisfies the descent condition
f(x_{k+1}) <= f(y_k) + <grad f(y_k); x_{k+1}-y_k> + (L_{k+1}/2)||x_{k+1}-y_k||^2.
"""

from __future__ import annotations

import numpy as np

from . import certify
from .errors import InvalidArgument, RunawayLError
from .momentum import _tau_delta, fgm_bound, next_A
from .oracles import CompositeProblem, class_params
from .tolerances import tol_for
from .trace import CountingOracle, drive

MAX_BACKTRACKS = 200

MODES = ("monotone", "reset", "decrease")


def ell_constant(L, L0, alpha):
    """The effective smoothness constant in the convergence corollary."""
    return max(alpha * L, L0)


def fista_bound(L, L0, alpha, R, N, mu=0.0):
    ell = ell_constant(L, L0, alpha)
    return ell * R * R if N == 0 else fgm_bound(ell, R, N, mu)


def _composite_factory(method, problem, co_f, x0, mu, L0, alpha, mode, beta=None):
    """Shared stepper for fista / prox_agm. State keys: x, z, L, and A (monotone
    mode) or B (other modes), plus y, the wasted count and the line search's f(x)."""
    if mode not in MODES:
        raise InvalidArgument(f"unknown backtracking mode {mode!r}")
    if alpha <= 1:
        raise InvalidArgument("alpha must be > 1")
    if L0 <= mu:
        raise InvalidArgument("L0 must exceed mu")
    if beta is None:
        beta = 1.0 / alpha
    if not (0 < beta < 1):
        raise InvalidArgument("beta must be in (0,1)")
    co_h = CountingOracle(problem.nonsmooth, co_f.counters)

    monotone = mode == "monotone"
    key = "A" if monotone else "B"
    state = {"x": np.array(x0, dtype=float), "z": np.array(x0, dtype=float),
             "L": float(L0), "wasted": 0, key: 0.0}

    def step(s):
        x, z = s["x"], s["z"]
        if monotone:
            L1 = s["L"]
        elif mode == "reset":
            L1 = L0
        else:
            L1 = max(beta * s["L"], L0)
        wasted, tau_y = s["wasted"], None
        for attempt in range(MAX_BACKTRACKS + 1):
            q1 = mu / L1
            A = s["A"] if monotone else L1 * s["B"]
            A1 = next_A(A, q1)
            tau, delta = _tau_delta(A, A1, q1)
            if tau != tau_y:  # y is the same for every L1 in monotone mode with mu = 0
                tau_y = tau
                y = x + tau * (z - x)
                f_y, g = co_f.value_and_gradient(y)
            if method == "fista":
                x1 = co_h.prox(y - g / L1, 1.0 / L1)
                z1 = (1.0 - q1 * delta) * z + q1 * delta * y + delta * (x1 - y)
            else:  # prox_agm: prox on the z-sequence
                z1 = co_h.prox((1.0 - q1 * delta) * z + q1 * delta * y - (delta / L1) * g,
                               delta / L1)
                x1 = (A / A1) * x + (1.0 - A / A1) * z1
            lhs = co_f.value(x1)
            rhs = f_y + np.dot(g, x1 - y) + 0.5 * L1 * np.dot(x1 - y, x1 - y)
            if lhs <= rhs + tol_for(abs(rhs)):
                break
            wasted += 1
            L1 *= alpha
        else:
            raise RunawayLError("backtracking exceeded 200 increases; "
                                "is f really smooth, or is alpha too small?")
        return {"x": x1, "z": z1, "L": L1, "y": y, "wasted": wasted, "f": lhs,
                key: A1 if monotone else A1 / L1}

    return state, step


def _view(s):
    return s["x"], None, {k: s[k] for k in ("z", "L", "wasted", "A", "B") if k in s}


def _accelerated_prox(method, problem, x0, N, mu, L0, alpha, mode, beta):
    if not isinstance(problem, CompositeProblem):
        raise InvalidArgument(f"{method} expects a CompositeProblem")
    _, L0 = class_params(problem.smooth, mu=mu, L=L0)
    trace = drive(method, problem,
                  {"N": N, "mu": mu, "L0": L0, "alpha": alpha, "mode": mode},
                  lambda co: _composite_factory(method, problem, co, x0, mu, L0, alpha,
                                                mode, beta),
                  _view, N, potential=certify.composite_potential)
    trace.meta["wasted"] = trace.final.state["wasted"]
    trace.meta["L_final"] = trace.final.state["L"]
    return trace


def fista(problem, x0, N, mu=0.0, L0=None, alpha=2.0, mode="monotone", beta=None):
    """Accelerated proximal gradient taking the prox step from y_k."""
    return _accelerated_prox("fista", problem, x0, N, mu, L0, alpha, mode, beta)


def prox_agm(problem, x0, N, mu=0.0, L0=None, alpha=2.0, mode="monotone", beta=None):
    """Accelerated proximal gradient proxing the z-sequence; keeps all
    iterates in dom h, so f need only be smooth there."""
    return _accelerated_prox("prox_agm", problem, x0, N, mu, L0, alpha, mode, beta)
