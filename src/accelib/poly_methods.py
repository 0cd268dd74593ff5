"""Methods with polynomial-based analyses: gradient descent, Chebyshev's
semi-iterative method, its heavy-ball limit, and conjugate gradients on
quadratics."""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgument, UnsupportedOracle
from .oracles import class_params
from .trace import drive


def _x_grad(s):
    return s["x"], s["g"], {}


def _gd_factory(co, x0, gamma):
    if gamma is None or gamma <= 0:
        raise InvalidArgument("gamma must be > 0")
    x = np.array(x0, dtype=float)

    def step(s):
        x = s["x"] - gamma * s["g"]
        return {"x": x, "g": co.gradient(x)}

    return {"x": x, "g": co.gradient(x)}, step


def gradient_descent(oracle, gamma, x0, N, mu=0.0):
    """x_{k+1} = x_k - gamma * grad f(x_k).

    `mu` only annotates the trace so the potential certificate can use the
    strongly convex weighting; it does not change the iterates.
    """
    if N < 0:
        raise InvalidArgument("N must be >= 0")
    return drive("gd", oracle, {"gamma": gamma, "N": N, "mu": mu},
                 lambda co: _gd_factory(co, x0, gamma), _x_grad, N)


def delta_sequence(mu, L, N):
    """delta_1 = (L-mu)/(L+mu); delta_k = 1/(2(L+mu)/(L-mu) - delta_{k-1})."""
    deltas = []
    delta = (L - mu) / (L + mu)
    for _ in range(N):
        deltas.append(delta)
        delta = 1.0 / (2.0 * (L + mu) / (L - mu) - delta)
    return deltas


def delta_infty(mu, L):
    return (np.sqrt(L) - np.sqrt(mu)) / (np.sqrt(L) + np.sqrt(mu))


def chebyshev_bound(mu, L, N):
    """Worst-case distance ratio 2/(xi^N + xi^-N), xi = (sqrt(kappa)+1)/(sqrt(kappa)-1)."""
    kappa = L / mu
    xi = (np.sqrt(kappa) + 1.0) / (np.sqrt(kappa) - 1.0)
    return 2.0 / (xi**N + xi ** (-N))


def chebyshev(oracle, x0, N, mu=None, L=None):
    """Chebyshev's method; requires 0 < mu < L.

    First step is plain gradient descent with step 2/(L+mu); afterwards
    x_k = x_{k-1} - (4 delta_k/(L-mu)) grad f(x_{k-1})
              + (1 - 2 delta_k (L+mu)/(L-mu)) (x_{k-2} - x_{k-1}).
    """
    mu, L = class_params(oracle, mu, L)
    if not 0 < mu < L:
        raise InvalidArgument("chebyshev requires 0 < mu < L")

    deltas = delta_sequence(mu, L, N)

    def start(co):
        x = np.array(x0, dtype=float)

        def step(s):
            k, x, g = s["k"], s["x"], s["g"]
            delta = deltas[k]
            if k == 0:  # first step: gradient descent with step 2/(L+mu)
                x_new = x - (2.0 / (L + mu)) * g
            else:
                x_new = (x - (4.0 * delta / (L - mu)) * g
                         + (1.0 - 2.0 * delta * (L + mu) / (L - mu)) * (s["x_prev"] - x))
            return {"k": k + 1, "x": x_new, "x_prev": x, "g": co.gradient(x_new),
                    "delta": delta}

        return {"k": 0, "x": x, "g": co.gradient(x), "delta": None}, step

    return drive("chebyshev", oracle, {"mu": mu, "L": L, "N": N}, start,
                 lambda s: (s["x"], s["g"], {"delta": s["delta"]}), N)


def heavy_ball(oracle, x0, N, mu=None, L=None):
    """Fixed-coefficient limit of Chebyshev's method.

    x_{k+1} = x_k - 4/(sqrt(L)+sqrt(mu))^2 grad f(x_k)
                  + delta_inf^2 (x_k - x_{k-1}).
    """
    mu, L = class_params(oracle, mu, L)
    if mu <= 0:
        raise InvalidArgument("heavy_ball requires mu > 0")
    step_size = 4.0 / (np.sqrt(L) + np.sqrt(mu)) ** 2
    beta = delta_infty(mu, L) ** 2

    def start(co):
        x = np.array(x0, dtype=float)

        def step(s):
            x = s["x"]
            x_new = x - step_size * s["g"] + beta * (x - s["x_prev"])
            return {"x": x_new, "x_prev": x, "g": co.gradient(x_new)}

        return {"x": x, "x_prev": x, "g": co.gradient(x)}, step

    return drive("heavy_ball", oracle,
                 {"mu": mu, "L": L, "N": N, "step": step_size, "momentum": beta},
                 start, _x_grad, N)


def conjugate_gradient_quadratic(oracle, x0, N):
    """CG realization of the span-argmin method, valid on quadratics only.

    Hessian-vector products are taken as gradient differences, which are exact
    when the gradient is affine.
    """
    if not getattr(oracle, "is_quadratic", False):
        raise UnsupportedOracle("conjugate_gradient_quadratic needs a quadratic oracle")

    def start(co):
        x = np.array(x0, dtype=float)
        g = co.gradient(x)

        def step(s):
            x, r, p, rs = s["x"], s["r"], s["p"], s["rs"]
            if rs <= 1e-30:
                return dict(s, g=-r)
            Hp = co.gradient(x + p) + r  # gradient is affine, so this equals H p exactly
            alpha = rs / float(np.dot(p, Hp))
            x = x + alpha * p
            r_new = r - alpha * Hp
            rs_new = float(np.dot(r_new, r_new))
            return {"x": x, "r": r_new, "p": r_new + (rs_new / rs) * p, "rs": rs_new,
                    "g": -r_new}

        r = -g
        return {"x": x, "g": g, "r": r, "p": r.copy(), "rs": float(np.dot(r, r))}, step

    return drive("cg", oracle, {"N": N}, start, _x_grad, N)
