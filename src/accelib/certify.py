"""Executable verification: pairwise interpolation and class inequalities,
potential/Lyapunov monotonicity along traces, and the 2x2 distance-contraction
LMI for gradient descent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, UnsupportedOracle
from .momentum import bregman_divergence
from .tolerances import tol_for

LAMBDA_GRID = np.linspace(0.0, 1.0, 11)


@dataclass
class Margin:
    where: object  # pair (i, j), step k, or (name, i, j)
    slack: float


def min_slack(margins):
    """Smallest slack of a list of `Margin`s, or of the pairwise slack matrix
    from `check_interpolation` (its +inf diagonal carries no condition).
    Returns 0.0 when there is nothing to check: no margins, or n <= 1 points."""
    if isinstance(margins, np.ndarray):
        return float(margins.min()) if margins.size > 1 else 0.0
    return min(m.slack for m in margins) if margins else 0.0


# ---------------------------------------------------------------------------
# interpolation

def check_interpolation(triplets, mu, L):
    """Pairwise necessary-and-sufficient condition for membership in the
    smooth strongly convex class:
    f_i >= f_j + <g_j; x_i-x_j> + ||g_i-g_j||^2/(2L)
         + mu/(2(1-mu/L)) ||u_i-u_j||^2 for all i != j, with u = x - g/L.

    Returns the (n, n) array of slacks (left minus right side); entry [i, j]
    holds the condition for the pair (i, j) and the diagonal is +inf. All n^2
    slacks come from one pass of Gram products. X, G and U are centred on
    their mean rows first: the differences are unchanged, but the rounding
    error then scales with the spread of the points, not with ||x||^2."""
    if not (0 <= mu < L):
        raise InvalidArgument("need 0 <= mu < L")
    n = len(triplets)
    if n == 0:
        return np.empty((0, 0))
    X = np.array([t[0] for t in triplets], dtype=float).reshape(n, -1)
    G = np.array([t[1] for t in triplets], dtype=float).reshape(n, -1)
    F = np.array([t[2] for t in triplets], dtype=float)
    Xc = X - X.mean(axis=0)
    Gc = G - G.mean(axis=0)
    Uc = Xc - Gc / L

    def sqdist(A):
        K = A @ A.T
        d = np.diag(K)
        return d[:, None] + d[None, :] - 2.0 * K

    P = Xc @ G.T  # P[i, j] = <x_i - mean, g_j>
    slack = (F[:, None] - F[None, :] - (P - np.diag(P)[None, :])
             - sqdist(Gc) / (2.0 * L) - mu / (2.0 * (1.0 - mu / L)) * sqdist(Uc))
    np.fill_diagonal(slack, np.inf)
    return slack


def harvest_triplets(trace, oracle):
    """Turn a trace into (x, g, f) triplets for interpolation checking, from
    one row-stacked `gradient` and one `value` call over its iterates."""
    X = np.array([r.x for r in trace])
    if not len(X):
        return []
    return list(zip(X, oracle.gradient(X), map(float, oracle.value(X))))


# ---------------------------------------------------------------------------
# class inequalities (i)-(vii), two-sided when mu > 0

ALL_INEQS = ("i", "ii", "iii", "iv", "v", "vi", "vii")


def check_class_inequalities(oracle, mu, L, which=None, samples=200, seed=0,
                             scale=1.0):
    """Evaluate the selected inequalities on random pairs (and a lambda-grid
    for the combination inequalities). Inequalities (iii)/(iv) need dom f =
    R^d and are refused on domain-restricted oracles."""
    if not (0 <= mu < L):
        raise InvalidArgument("need 0 <= mu < L")
    which = ALL_INEQS if which is None else tuple(which)
    restricted = oracle.domain_indicator is not None
    if restricted and ("iii" in which or "iv" in which):
        raise UnsupportedOracle("(iii)/(iv) hold only for full-domain functions")
    rng = np.random.default_rng(seed)
    d = oracle.x_star.shape[0] if oracle.x_star is not None else 5
    margins = []

    def add(name, i, value):
        margins.append(Margin((name, i), float(value)))

    for i in range(samples):
        x = scale * rng.standard_normal(d)
        y = scale * rng.standard_normal(d)
        fx, fy = oracle.value(x), oracle.value(y)
        gx, gy = oracle.gradient(x), oracle.gradient(y)
        dxy = x - y
        dg = gx - gy
        ndx = np.linalg.norm(dxy)
        ndg = np.linalg.norm(dg)
        inner = float(np.dot(dg, dxy))
        if "i" in which:
            add("i.upper", i, L * ndx - ndg)
            if mu > 0:
                add("i.lower", i, ndg - mu * ndx)
        if "ii" in which:
            base = fy + np.dot(gy, dxy)
            add("ii.upper", i, base + 0.5 * L * ndx**2 - fx)
            add("ii.lower", i, fx - base - 0.5 * mu * ndx**2)
        if "iii" in which:
            base = fy + np.dot(gy, dxy)
            add("iii.lower", i, fx - base - ndg**2 / (2.0 * L))
            if mu > 0:
                add("iii.upper", i, base + ndg**2 / (2.0 * mu) - fx)
        if "iv" in which:
            add("iv.lower", i, inner - ndg**2 / L)
            if mu > 0:
                add("iv.upper", i, ndg**2 / mu - inner)
        if "v" in which:
            add("v.upper", i, L * ndx**2 - inner)
            add("v.lower", i, inner - mu * ndx**2)
        if "vi" in which or "vii" in which:
            for lam in LAMBDA_GRID:
                xm = lam * x + (1.0 - lam) * y
                fm = oracle.value(xm)
                if "vi" in which:
                    # (L/2)||.||^2 - f convex, and f - (mu/2)||.||^2 convex
                    gsq = lambda v: 0.5 * float(np.dot(v, v))
                    comb = lam * (L * gsq(x) - fx) + (1 - lam) * (L * gsq(y) - fy)
                    add("vi.upper", (i, lam), comb - (L * gsq(xm) - fm))
                    comb2 = lam * (fx - mu * gsq(x)) + (1 - lam) * (fy - mu * gsq(y))
                    add("vi.lower", (i, lam), comb2 - (fm - mu * gsq(xm)))
                if "vii" in which:
                    mix = lam * fx + (1 - lam) * fy
                    add("vii.lower", (i, lam),
                        fm - mix + lam * (1 - lam) * 0.5 * L * ndx**2)
                    add("vii.upper", (i, lam),
                        mix - lam * (1 - lam) * 0.5 * mu * ndx**2 - fm)
    return margins


# ---------------------------------------------------------------------------
# potential certificates along traces

def _opt(problem):
    """(objective, x_star, F_star) for a ProblemOracle or CompositeProblem."""
    if hasattr(problem, "objective"):
        return problem.objective, problem.x_star, problem.F_star
    return problem.value, problem.x_star, problem.f_star


def check_potential(trace, problem):
    """Recompute the matching potential from the per-record state and return
    per-step margins phi_k - phi_{k+1} (>= 0 up to tolerance means certified)."""
    method = trace.method
    fun, x_star, f_star = _opt(problem)
    if x_star is None:
        raise InvalidArgument("potential checks need a known optimum")
    handler = _POTENTIALS.get(method.split("(")[0])
    if handler is None:
        raise InvalidArgument(f"no potential registered for {method!r}")
    return handler(trace, fun, x_star, f_star)


def _dsq(a, b):
    d = np.asarray(a) - np.asarray(b)
    return float(np.dot(d, d))


def _margins_from_series(phis):
    return [Margin(k, float(phis[k] - phis[k + 1])) for k in range(len(phis) - 1)]


def _pot_gd(trace, fun, x_star, f_star):
    # the certificate is stated for step 1/L, so the trace's gamma defines the
    # smoothness constant it claims; a too-long step then fails the check
    L = 1.0 / trace.meta["gamma"]
    mu = trace.meta.get("mu") or 0.0
    q = mu / L
    phis = []
    A = 0.0
    for r in trace:
        phis.append(A * (fun(r.x) - f_star) + 0.5 * (L + mu * A) * _dsq(r.x, x_star))
        A = (1.0 + A) / (1.0 - q)
    return _margins_from_series(phis)


def _pot_fgm(trace, fun, x_star, f_star):
    mu, L = trace.meta["mu"], trace.meta["L"]
    if trace.meta.get("form") == "II":
        raise InvalidArgument("form II traces carry no z-sequence to certify")
    phis = [r.state["A"] * (fun(r.x) - f_star)
            + 0.5 * (L + mu * r.state["A"]) * _dsq(r.state["z"], x_star)
            for r in trace]
    return _margins_from_series(phis)


def _pot_constmom(trace, fun, x_star, f_star):
    mu, L = trace.meta["mu"], trace.meta["L"]
    rho = 1.0 - np.sqrt(mu / L)
    vs = [fun(r.x) - f_star + 0.5 * mu * _dsq(r.state["z"], x_star) for r in trace]
    return [Margin(k, float(rho * vs[k] - vs[k + 1])) for k in range(len(vs) - 1)]


def _pot_ogm(trace, fun, x_star, f_star, grad=None):
    L = trace.meta["L"]
    if trace.meta.get("form") != "I":
        raise InvalidArgument("only form I carries the (y, z, theta) state")
    phis = []
    for r in trace:
        if r.k == 0:
            phis.append(0.5 * L * _dsq(r.state["z"], x_star))
            continue
        th = r.state["theta_prev"]
        y, g = r.state["y_prev"], r.state["g_prev"]
        phis.append(2.0 * th**2 * (fun(y) - f_star - np.dot(g, g) / (2.0 * L))
                    + 0.5 * L * _dsq(r.state["z"], x_star))
    last = trace.records[-1]
    if "theta_final" in last.state:
        th_f = last.state["theta_final"]
        y_out = last.state["y_final"]
        g_out = last.state["g_final"]
        phis.append(th_f**2 * (fun(y_out) - f_star)
                    + 0.5 * L * _dsq(last.state["z"] - (th_f / L) * g_out, x_star))
    return _margins_from_series(phis)


def _pot_item(trace, fun, x_star, f_star):
    mu, L = trace.meta["mu"], trace.meta["L"]
    q = mu / L
    phis = []
    for r in trace:
        A = r.state["A"]
        zterm = (L + mu * A) / (1.0 - q) * _dsq(r.state["z"], x_star)
        if r.k == 0:
            phis.append(zterm)
            continue
        y, g = r.state["y"], r.state["g"]
        inner = (fun(y) - f_star - np.dot(g, g) / (2.0 * L)
                 - mu / (2.0 * (1.0 - q)) * _dsq(y - g / L, x_star))
        phis.append(A * inner + zterm)
    return _margins_from_series(phis)


def _pot_tmm(trace, fun, x_star, f_star):
    mu, L = trace.meta["mu"], trace.meta["L"]
    q = mu / L
    rho2 = (1.0 - np.sqrt(q)) ** 2
    vs = []
    for r in trace:
        y = r.state["y"]
        g = r.state["g"]
        v = (fun(y) - f_star - np.dot(g, g) / (2.0 * L)
             - mu / (2.0 * (1.0 - q)) * _dsq(y - g / L, x_star)
             + mu / (1.0 - q) * _dsq(r.state["z"], x_star))
        vs.append(v)
    return [Margin(k, float(rho2 * vs[k] - vs[k + 1])) for k in range(len(vs) - 1)]


def _pot_composite(trace, fun, x_star, f_star):
    mu = trace.meta["mu"]
    margins = []
    for k in range(len(trace) - 1):
        r0, r1 = trace.records[k], trace.records[k + 1]
        if "A" in r1.state:
            L1 = r1.state["L"]
            lhs = (r1.state["A"] * (fun(r1.x) - f_star)
                   + 0.5 * (L1 + mu * r1.state["A"]) * _dsq(r1.state["z"], x_star))
            rhs = (r0.state["A"] * (fun(r0.x) - f_star)
                   + 0.5 * (L1 + mu * r0.state["A"]) * _dsq(r0.state["z"], x_star))
        else:
            lhs = (r1.state["B"] * (fun(r1.x) - f_star)
                   + 0.5 * (1.0 + mu * r1.state["B"]) * _dsq(r1.state["z"], x_star))
            rhs = (r0.state["B"] * (fun(r0.x) - f_star)
                   + 0.5 * (1.0 + mu * r0.state["B"]) * _dsq(r0.state["z"], x_star))
        margins.append(Margin(k, float(rhs - lhs)))
    return margins


def _pot_bregman(trace, fun, x_star, f_star):
    L, dgf = trace.meta["L"], trace.meta["dgf"]
    phis = [r.state["A"] * (fun(r.x) - f_star)
            + L * bregman_divergence(dgf, x_star, r.state["z"])
            for r in trace]
    return _margins_from_series(phis)


def _pot_ppa(trace, fun, x_star, f_star):
    mu = trace.meta.get("mu", 0.0)
    phis = [r.state["A"] * (fun(r.x) - f_star)
            + 0.5 * (1.0 + mu * r.state["A"]) * _dsq(r.x, x_star)
            for r in trace]
    return _margins_from_series(phis)


def _pot_accel_ppa(trace, fun, x_star, f_star):
    mu = trace.meta.get("mu", 0.0)
    phis = [r.state["A"] * (fun(r.x) - f_star)
            + 0.5 * (1.0 + mu * r.state["A"]) * _dsq(r.state["z"], x_star)
            for r in trace]
    return _margins_from_series(phis)


def _pot_monotone(trace, fun, x_star, f_star):
    fs = [fun(r.x) for r in trace]
    return [Margin(k, float(fs[k] - fs[k + 1])) for k in range(len(fs) - 1)]


_POTENTIALS = {
    "gd": _pot_gd,
    "fgm": _pot_fgm,
    "constant_momentum": _pot_constmom,
    "ogm": _pot_ogm,
    "item": _pot_item,
    "tmm": _pot_tmm,
    "fista": _pot_composite,
    "prox_agm": _pot_composite,
    "bregman_agm": _pot_bregman,
    "ppa": _pot_ppa,
    "accel_inexact_ppa": _pot_accel_ppa,
    "catalyst": _pot_accel_ppa,
    "monotone": _pot_monotone,
}


def potential_scale(trace, problem):
    fun, x_star, f_star = _opt(problem)
    r0 = trace.records[0]
    return abs(fun(r0.x) - f_star) + _dsq(r0.x, x_star) + 1.0


# ---------------------------------------------------------------------------
# 2x2 LMI for gradient-descent distance contraction

def _lmi_matrix(tau, gamma, mu, L, lam):
    m11 = tau - 1.0 + mu * L * (2.0 * lam) / (2.0 * (L - mu))
    m12 = gamma - (L * lam + mu * lam) / (2.0 * (L - mu))
    m22 = -gamma**2 + (2.0 * lam) / (2.0 * (L - mu))
    return m11, m12, m22


def lmi_gd_distance(tau, gamma, mu, L, grid=400):
    """Scan the single multiplier lambda = lambda_1 = lambda_2 for positive
    semidefiniteness of the 2x2 certificate matrix. Returns the witness
    lambda, or None when no scanned point (including the closed-form vertex
    of the determinant) is feasible. Feasibility proves
    ||x_{k+1}-x_star||^2 <= tau ||x_k-x_star||^2 for every function in the
    class, for one gd step with the given gamma."""
    if not (0 <= mu < L):
        raise InvalidArgument("need 0 <= mu < L")
    candidates = [0.0]
    candidates.extend(np.logspace(-8, 4, grid) / L)
    # det is a concave quadratic in lambda; include its vertex so that tight
    # (tau, gamma) pairs, where the feasible set degenerates to a point, are
    # still found
    a_ = tau - 1.0
    b_ = mu * L / (L - mu)
    c_ = -gamma**2
    d_ = 1.0 / (L - mu)
    e_ = gamma
    f_ = -(L + mu) / (2.0 * (L - mu))
    A2 = b_ * d_ - f_**2
    B1 = a_ * d_ + b_ * c_ - 2.0 * e_ * f_
    if A2 < 0:
        vertex = -B1 / (2.0 * A2)
        if vertex > 0:
            candidates.append(vertex)
    tol = tol_for(1.0 + tau + gamma**2)
    for lam in candidates:
        m11, m12, m22 = _lmi_matrix(tau, gamma, mu, L, lam)
        if m11 >= -tol and m22 >= -tol and m11 * m22 - m12**2 >= -tol:
            return lam
    return None
