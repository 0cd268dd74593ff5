"""Proximal point algorithm, its accelerated inexact variant with a
relative-error acceptance rule, and the Catalyst outer loop with pluggable
linearly convergent inner solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContractViolation, InconsistentCertificate, InnerSolveError,
                     InvalidArgument, UnsupportedOracle)
from .extrapolation import minimize_unimodal
from .momentum import _constant_momentum_factory, _tau_delta
from .oracles import ClassParams, ProblemOracle, _vdot, class_params
from .tolerances import tol_for
from .trace import drive


@dataclass
class InexactProxCertificate:
    """Residual e = x_next - y + lambda*g and the acceptance tolerance delta."""

    e: np.ndarray
    x_next: np.ndarray
    y: np.ndarray
    lam: float
    g: np.ndarray
    delta: float


def check_relative_error(cert):
    """Accept iff ||e|| <= delta ||x_next - y|| (non-strict; 0 <= 0 accepts).

    The stored residual is recomputed from (x_next, y, lam, g) and must match
    to 1e-10, otherwise the certificate is inconsistent.
    """
    recomputed = cert.x_next - cert.y + cert.lam * cert.g
    if np.linalg.norm(recomputed - cert.e) > 1e-10 * (1.0 + np.linalg.norm(cert.e)):
        raise InconsistentCertificate("stored residual does not match (x, y, lambda, g)")
    lhs = float(np.linalg.norm(cert.e))
    rhs = cert.delta * float(np.linalg.norm(cert.x_next - cert.y))
    return lhs <= rhs + tol_for(rhs)


def ppa(oracle, lambdas, x0):
    """Exact proximal point algorithm x_{k+1} = prox_{lambda_k f}(x_k), one
    step per lambda: N = len(lambdas)."""
    if not oracle.has_prox:
        raise UnsupportedOracle("ppa needs an exact prox")
    lambdas = [float(l) for l in lambdas]
    N = len(lambdas)
    if any(l < 0 for l in lambdas):
        raise InvalidArgument("lambdas must be >= 0")
    mu = oracle.params.mu if oracle.params is not None else 0.0

    def start(co):
        def step(s):
            k = s["k"]
            lam = lambdas[k]
            return {"k": k + 1, "x": co.prox(s["x"], lam),
                    "A": s["A"] * (1.0 + lam * mu) + lam}

        return {"k": 0, "x": np.array(x0, dtype=float), "A": 0.0}, step

    return drive("ppa", oracle, {"N": N, "lambdas": lambdas, "mu": mu}, start,
                 lambda s: (s["x"], None, {"A": s["A"]}), N)


def ppa_bound(R, lambdas, mu=0.0):
    lambdas = np.asarray(lambdas, dtype=float)
    if mu == 0:
        return R * R / (2.0 * np.sum(lambdas))
    return mu * R * R / (2.0 * (np.prod(1.0 + lambdas * mu) - 1.0))


def exact_prox_solver(oracle):
    """Wrap an oracle with exact prox as an inexact-prox inner solver
    `solve(y, lam, counters)`, which counts its one prox call in `counters`;
    the returned residual is exactly zero by the prox optimality condition."""
    if not oracle.has_prox:
        raise UnsupportedOracle("oracle has no prox")

    def solve(y, lam, counters):
        x_next = oracle.prox(y, lam)
        counters.prox_calls += 1
        g = (y - x_next) / lam
        e = x_next - y + lam * g  # identically zero
        return x_next, g, e

    return solve


def _outer_point(x, z, A, lam, mu):
    """a_k, A_{k+1} = A_k + a_k, delta_k and the point y_k at which the
    accelerated proximal point outer loop takes its next (inexact) prox step.
    A is in lambda-units (it grows like the sum of the lambda_k), so the fast
    gradient method's tau and delta apply with q = mu."""
    a = (lam + 2.0 * A * lam * mu
         + math.sqrt(4.0 * A * A * lam * mu * (lam * mu + 1.0)
                     + 4.0 * A * lam * (lam * mu + 1.0) + lam * lam)) / 2.0
    tau, delta = _tau_delta(A, A + a, mu)
    return a, A + a, delta, x + tau * (z - x)


def _z_next(z, x_next, g, delta, mu):
    """z_{k+1} from the prox point x_{k+1} and the (sub)gradient g there."""
    return z + mu * delta * (x_next - z) - delta * g


def accel_inexact_ppa(solver, lambdas, delta, x0, mu=0.0, oracle=None, enforce_delta=True):
    """Accelerated inexact proximal point method, one outer step per lambda:
    N = len(lambdas).

    `solver(y, lam, counters)` returns (x_next, g, e) with e the prox residual;
    each step's certificate ||e|| <= delta ||x_next - y|| is checked and a
    violation raises InnerSolveError with the partial trace attached.
    `enforce_delta=False` lets callers run outside the admissible delta range
    to observe the certificate failing.
    """
    lambdas = [float(l) for l in lambdas]
    N = len(lambdas)
    if not all(lam > 0 for lam in lambdas):
        raise InvalidArgument("every lambda must be > 0")
    if not mu >= 0:
        raise InvalidArgument("mu must be >= 0")
    if enforce_delta and mu == 0 and not (0 <= delta <= 1):
        raise InvalidArgument("delta must lie in [0,1] when mu=0")
    if enforce_delta and mu > 0 and not all(0 <= delta <= np.sqrt(1.0 + lam * mu)
                                            for lam in lambdas):
        raise InvalidArgument("delta must lie in [0, sqrt(1+lambda*mu)]")

    def start(co):
        counters = co.counters

        def step(s):
            k, x, z, A = s["k"], s["x"], s["z"], s["A"]
            lam = lambdas[k]
            a, A1, delta_k, y = _outer_point(x, z, A, lam, mu)
            x_next, g, e = solver(y, lam, counters)
            counters.inner_iters += 1
            cert = InexactProxCertificate(e=e, x_next=x_next, y=y, lam=lam, g=g, delta=delta)
            if not check_relative_error(cert):
                raise InnerSolveError(f"relative-error criterion failed at step {k}")
            return {"k": k + 1, "x": x_next, "z": _z_next(z, x_next, g, delta_k, mu),
                    "A": A1, "a": a, "g": g}

        x = np.array(x0, dtype=float)
        return {"k": 0, "x": x, "z": x.copy(), "A": 0.0}, step

    def view(s):
        if "g" in s:
            return s["x"], s["g"], {"A": s["A"], "z": s["z"], "a": s["a"]}
        grad = None if oracle is not None else np.zeros_like(s["x"])
        return s["x"], grad, {"A": s["A"], "z": s["z"]}

    return drive("accel_inexact_ppa", oracle,
                 {"N": N, "delta": delta, "mu": mu, "lambdas": lambdas}, start, view, N)


def ahpe_bound(R, lambdas):
    lambdas = np.asarray(lambdas, dtype=float)
    return 2.0 * R * R / np.sum(np.sqrt(lambdas)) ** 2


# ---------------------------------------------------------------------------
# Catalyst

INNER_SOLVERS = ("gd", "gd_linesearch", "const_momentum")


def inner_constants(inner, lam, L):
    """(C_M, tau_M) of the linear convergence contract on the regularized
    subproblem, which is (L + 1/lam)-smooth and (1/lam)-strongly convex."""
    lamL = lam * L
    if inner == "gd":
        return 1.0, 1.0 / (1.0 + lamL)
    if inner == "gd_linesearch":
        return lamL + 1.0, 2.0 / (2.0 + lamL)
    if inner == "const_momentum":
        return lamL + 1.0, np.sqrt(1.0 / (1.0 + lamL))
    raise InvalidArgument(f"unknown inner solver {inner!r}")


def catalyst_burden(inner, lam, L):
    """Worst-case inner iterations per outer step before the stopping rule
    fires: B = log(C_M (lam L + 2)) / log(1/(1-tau_M)) + 1."""
    C, tau = inner_constants(inner, lam, L)
    with np.errstate(divide="ignore"):  # lam L below rounding gives tau = 1 and B = 1
        return np.log(C * (lam * L + 2.0)) / np.log(np.divide(1.0, 1.0 - tau)) + 1.0


def lambda_gd_tuning(mu, L):
    """lambda = 1/(L - 2 mu); the simple tuning for a gd inner solver."""
    if L <= 2 * mu:
        raise InvalidArgument("needs L > 2 mu")
    return 1.0 / (L - 2.0 * mu)


def lambda_optimal_tuning(mu, L):
    """lambda = 2/(L - 3 mu); the tuning matching the accelerated rate."""
    if L <= 3 * mu:
        raise InvalidArgument("needs L > 3 mu")
    return 2.0 / (L - 3.0 * mu)


def _phi_value(oracle, y, lam, x):
    """Phi(x) = f(x) + ||x - y||^2/(2 lam), f evaluated through `oracle`."""
    r = x - y
    return oracle.value(x) + float(np.dot(r, r)) / (2.0 * lam)


def _regularized(oracle, y, lam):
    """Phi(x) = f(x) + ||x - y||^2/(2 lam)."""
    p = oracle.params
    return ProblemOracle(
        lambda x: _phi_value(oracle, y, lam, x),
        lambda x: oracle.gradient(x) + (x - y) / lam,
        params=ClassParams(p.mu + 1.0 / lam, p.L + 1.0 / lam),
        name="catalyst_subproblem",
    )


def catalyst(oracle, inner, lam, budget_total, x0, mu=0.0):
    """Acceleration of a linearly convergent inner method via the inexact
    accelerated proximal point outer loop.

    Each outer step approximately minimizes Phi_k = f + ||.-y_k||^2/(2 lam),
    warm-started at y_k, stopping as soon as lam ||grad Phi_k(w)|| <= ||w - w0||
    (both sides zero accepts). The outer update uses grad f at the accepted w,
    which that last stopping test has just taken: the outer step takes no
    gradient of its own, so with a gd or gd_linesearch inner solver the
    run's gradient calls are exactly its stopping tests. Stops when
    budget_total inner iterations have been spent; a partially completed
    inner solve counts as useless work.
    An inner solve that accepts its warm start without iterating is charged
    one iteration (its stopping test costs a gradient), so every outer step
    spends budget and the run ends within budget_total outer steps. The
    charged count is what `n_inner`, `inner_counts`, `n_total` and the
    `inner_iters` counter report, so n_total == sum(inner_counts) + n_useless
    and the final record's inner_iters == sum(inner_counts): an inner solve
    cut by the budget is spent after the last record.
    With gd_linesearch, each inner step's line search evaluates Phi through
    counted value calls (`minimize_unimodal`), except on a quadratic f, whose
    closed-form step costs one `hessian_matvec`, counted in `hess_calls`.
    """
    if inner not in INNER_SOLVERS:
        raise InvalidArgument(f"unknown inner solver {inner!r}")
    if not lam > 0:
        raise InvalidArgument("lambda must be > 0")
    if not mu >= 0:
        raise InvalidArgument("mu must be >= 0")
    _, L = class_params(oracle, mu=mu)
    burden = catalyst_burden(inner, lam, L)
    if not np.isfinite(burden):  # lam L past 1/eps rounds 1 - tau_M to 1
        raise InvalidArgument("lambda * L too large for a finite inner-solver burden")
    cap = 2 * int(np.ceil(burden))
    # the class of every subproblem Phi_k: its check refuses an infinite L + 1/lam
    phi_params = ClassParams(oracle.params.mu + 1.0 / lam, L + 1.0 / lam)
    total = 0

    def start(co):
        def step(s):
            nonlocal total
            if total >= budget_total:
                return None
            x, z, A = s["x"], s["z"], s["A"]
            _, A1, delta, y = _outer_point(x, z, A, lam, mu)
            w, g, n_inner, stopped = _inner_solve(co, y, lam, inner, phi_params,
                                                  budget_total - total, cap)
            n_inner = max(n_inner, 1)
            co.counters.inner_iters += n_inner
            total += n_inner
            if not stopped:
                return None
            return {"x": w, "z": _z_next(z, w, g, delta, mu), "A": A1, "g": g,
                    "n_inner": n_inner}

        x = np.array(x0, dtype=float)
        return {"x": x, "z": x.copy(), "A": 0.0, "n_inner": 0}, step

    trace = drive("catalyst", oracle,
                  {"inner": inner, "lambda": lam, "mu": mu, "budget_total": budget_total,
                   "burden": burden}, start,
                  lambda s: (s["x"], s.get("g"), {"A": s["A"], "z": s["z"],
                                                   "n_inner": s["n_inner"]}))
    inner_counts = trace.column("n_inner", 1).tolist()
    trace.meta["inner_counts"] = inner_counts
    trace.meta["n_outer"] = len(inner_counts)
    trace.meta["n_total"] = total  # the final record misses a solve the budget cut
    trace.meta["n_useless"] = total - sum(inner_counts)
    return trace


def _inner_solve(co, y, lam, inner, phi_params, budget_left, cap):
    """Run the inner method on Phi = f + ||.-y||^2/(2 lam), of class `phi_params`,
    from w0 = y until lam ||grad Phi(w)|| <= ||w - w0||. Returns (w, grad f(w),
    iterations, stopped): the gradient is the one the last stopping test took.
    A gd step moves along the stopping test's grad Phi(w)."""
    if inner == "const_momentum":
        s, step = _constant_momentum_factory(_regularized(co, y, lam), y, phi_params.mu,
                                             phi_params.L)
    t_gd = 1.0 / phi_params.L
    w, n = y, min(budget_left, cap)
    for i in range(n + 1):
        # the stopping test costs a gradient of f through co; that is the
        # honest oracle accounting for evaluating it
        g = co.gradient(w)
        r = w - y
        g_phi = g + r / lam  # grad Phi(w), as `_regularized` forms it
        dist = math.sqrt(_vdot(r, r))
        if lam * math.sqrt(_vdot(g_phi, g_phi)) - dist <= tol_for(dist):
            return w, g, i, True
        if i < n:
            if inner == "gd":
                w = w - t_gd * g_phi
            elif inner == "gd_linesearch":  # exact line search on Phi
                w = w - _exact_linesearch(co, w, g_phi, y, lam, phi_params.mu) * g_phi
            else:
                s = step(s)
                w = s["x"]
    if n == cap and budget_left > cap:
        raise ContractViolation(
            "inner solver exceeded twice its advertised burden")
    return w, g, n, False


def _exact_linesearch(co, w, g, y, lam, mu_phi):
    """argmin over t of Phi(w - t g), Phi = f + ||.-y||^2/(2 lam) being
    mu_phi-strongly convex. On a quadratic f it is closed-form, at the cost of
    one counted `hessian_matvec`; otherwise it is `minimize_unimodal`, each
    evaluation of Phi one counted value call."""
    if getattr(co, "is_quadratic", False):
        Hg = co.hessian_matvec(g) + g / lam  # Hessian of Phi applied to g
        return float(np.dot(g, g) / np.dot(g, Hg))
    # t -> Phi(w - t g) is mu_phi ||g||^2-strongly convex with slope -||g||^2
    # at 0, so its minimiser lies in [0, 1/mu_phi], inside this bracket
    return minimize_unimodal(lambda t: _phi_value(co, y, lam, w - t * g), 0.0, 2.0 / mu_phi,
                             evals=42)
