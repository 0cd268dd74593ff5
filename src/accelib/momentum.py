"""Accelerated first-order methods on smooth (possibly strongly) convex
problems: the fast gradient method family in its three algebraic forms, the
optimized gradient method, constant-momentum variants, ITEM, TMM, a monotone
wrapper, and the Bregman accelerated scheme."""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument
from .oracles import CompositeProblem, class_params
from .oracles import bregman_divergence  # noqa: F401  (also public here)
from .poly_methods import delta_infty
from .trace import CountingOracle, drive


# ---------------------------------------------------------------------------
# coefficient sequences: scalar recurrences, taking and returning Python
# floats. `math.sqrt` rounds correctly, as `np.sqrt` does, so they give the
# bits the numpy scalar forms give, without numpy's per-call cost.

def theta_schedule(N):
    """theta_{0,N}=1; 4-rule up to k=N-1; 8-rule for the final theta_{N,N}."""
    if N < 1:
        raise InvalidArgument("N must be >= 1")
    thetas = [1.0]
    for k in range(1, N + 1):
        prev = thetas[-1]
        if k < N:
            thetas.append((1.0 + math.sqrt(4.0 * prev**2 + 1.0)) / 2.0)
        else:
            thetas.append((1.0 + math.sqrt(8.0 * prev**2 + 1.0)) / 2.0)
    return thetas


def next_A(A, q):
    """Larger root of (A - A')^2 - A' - q A'^2 = 0; reduces to A + (1+sqrt(4A+1))/2
    at q=0."""
    return (2.0 * A + 1.0 + math.sqrt(4.0 * A + 4.0 * q * A * A + 1.0)) / (2.0 * (1.0 - q))


def _tau_delta(A, A1, q):
    tau = (A1 - A) * (1.0 + q * A) / (A1 + 2.0 * q * A * A1 - q * A * A)
    delta = (A1 - A) / (1.0 + q * A1)
    return tau, delta


def ogm_bound(L, R, N):
    th = theta_schedule(N)
    return L * R * R / (2.0 * th[N] ** 2)


def fgm_bound(L, R, N, mu=0.0):
    base = L * R * R
    if N == 0:
        return base / 2.0
    if mu == 0:
        return 2.0 * base / N**2
    q = mu / L
    return min(2.0 / N**2, (1.0 - np.sqrt(q)) ** N) * base


# ---------------------------------------------------------------------------
# optimized gradient method

def ogm(oracle, x0, N, form="I", L=None):
    """Optimized gradient method with the fixed-horizon theta schedule.

    Form I carries (x, z); form II is the two-sequence rewriting. Both output
    y_N, recorded as the final trace entry.
    """
    if form not in ("I", "II"):
        raise InvalidArgument(f"unknown OGM form {form!r}")
    _, L = class_params(oracle, mu=0.0, L=L)  # OGM needs only L
    meta = {"N": N, "L": L, "form": form}
    x0 = np.array(x0, dtype=float)
    thetas = theta_schedule(N) if N > 0 else None

    if form == "II" and N > 0:  # with N = 0 both forms record form I's start
        def start(co):
            def step(s):
                k, x, y = s["k"], s["x"], s["y"]
                g = co.gradient(y)
                x_new = y - g / L
                th, th1 = thetas[k], thetas[k + 1]
                y = x_new + ((th - 1.0) / th1) * (x_new - x) + (th / th1) * (x_new - y)
                return {"k": k + 1, "x": x_new, "y": y}

            return {"k": 0, "x": x0, "y": x0.copy()}, step

        return drive("ogm", oracle, meta, start,
                     lambda s: (s["y"] if s["k"] == N else s["x"], None, {"y": s["y"]}),
                     N, check="y")

    def start(co):
        def step(s):
            k, x, z = s["k"], s["x"], s["z"]
            th = thetas[k]
            y = (1.0 - 1.0 / th) * x + (1.0 / th) * z
            g = co.gradient(y)
            return {"k": k + 1, "x": y - g / L, "z": z - (2.0 * th / L) * g,
                    "theta_prev": th, "y_prev": y, "g_prev": g}

        return {"k": 0, "x": x0, "z": x0.copy(), "theta_prev": 0.0}, step

    def view(s):
        snap = {key: s[key] for key in ("z", "theta_prev", "y_prev", "g_prev") if key in s}
        if s["k"] < N or N == 0:
            return s["x"], None, snap
        th_f = thetas[N]
        y_out = (1.0 - 1.0 / th_f) * s["x"] + (1.0 / th_f) * s["z"]
        g_out = oracle.gradient(y_out)  # reporting only
        snap.update(theta_final=th_f, y_final=y_out, g_final=g_out)
        return y_out, g_out, snap

    return drive("ogm", oracle, meta, start, view, N)


# ---------------------------------------------------------------------------
# fast gradient methods (forms I/II/III, mu >= 0 in one A-parameterization)

def _fgm_q(mu, L):
    """q = mu/L of an FGM run; the A-recurrence divides by 1 - q."""
    if not 0 <= mu < L:
        raise InvalidArgument("fgm requires 0 <= mu < L")
    return mu / L


def _fgm_factory(co, x0, mu, L, form_three=False):
    q = _fgm_q(mu, L)
    state = {"A": 0.0, "x": np.array(x0, dtype=float), "z": np.array(x0, dtype=float)}

    def step(s):
        A = s["A"]
        A1 = next_A(A, q)
        tau, delta = _tau_delta(A, A1, q)
        y = s["x"] + tau * (s["z"] - s["x"])
        g = co.gradient(y)
        z1 = (1.0 - q * delta) * s["z"] + q * delta * y - (delta / L) * g
        if form_three:
            x1 = (A / A1) * s["x"] + (1.0 - A / A1) * z1
        else:
            x1 = y - g / L
        return {"A": A1, "x": x1, "z": z1, "y": y}

    return state, step


def _fgm_momentum_factory(co, x0, mu, L):
    """Form II: momentum coefficient beta_k = tau_{k+1} (delta_k - 1), derived
    from the same A-sequence."""
    q = _fgm_q(mu, L)
    x0 = np.array(x0, dtype=float)

    def step(s):
        A, A1, x = s["A"], s["A1"], s["x"]
        g = co.gradient(s["y"])
        x_new = s["y"] - g / L
        A2 = next_A(A1, q)
        _, delta = _tau_delta(A, A1, q)
        tau_next, _ = _tau_delta(A1, A2, q)
        beta = tau_next * (delta - 1.0)
        return {"A": A1, "A1": A2, "x": x_new, "y": x_new + beta * (x_new - x)}

    return {"A": 0.0, "A1": next_A(0.0, q), "x": x0, "y": x0.copy()}, step


def _x_A_z(s):
    return s["x"], None, {"A": s["A"], "z": s["z"]}


def fgm(oracle, x0, N, form="I", mu=None, L=None):
    """Fast gradient method; handles mu = 0 and mu > 0 through one
    A-sequence, with the three equivalent algebraic forms."""
    if form not in ("I", "II", "III"):
        raise InvalidArgument(f"unknown FGM form {form!r}")
    mu, L = class_params(oracle, mu, L)
    meta = {"N": N, "mu": mu, "L": L, "form": form}
    if form == "II":
        return drive("fgm", oracle, meta, lambda co: _fgm_momentum_factory(co, x0, mu, L),
                     lambda s: (s["x"], None, {"A": s["A"]}), N)
    return drive("fgm", oracle, meta,
                 lambda co: _fgm_factory(co, x0, mu, L, form_three=(form == "III")),
                 _x_A_z, N)


# ---------------------------------------------------------------------------
# constant momentum (mu > 0)

def _sqrt_q(mu, L):
    """sqrt(mu/L) of a constant-momentum run, which requires mu > 0."""
    if mu <= 0:
        raise InvalidArgument("constant_momentum requires mu > 0")
    return math.sqrt(mu / L)


def _constant_momentum_factory(co, x0, mu, L):
    sq = _sqrt_q(mu, L)
    state = {"x": np.array(x0, dtype=float), "z": np.array(x0, dtype=float)}

    def step(s):
        y = s["x"] + (sq / (1.0 + sq)) * (s["z"] - s["x"])
        g = co.gradient(y)
        x1 = y - g / L
        z1 = (1.0 - sq) * s["z"] + sq * (y - g / mu)
        return {"x": x1, "z": z1, "y": y}

    return state, step


def constant_momentum(oracle, x0, N, form="I", mu=None, L=None):
    """Accelerated method with constant coefficients; requires mu > 0."""
    if form not in ("I", "II"):
        raise InvalidArgument(f"unknown form {form!r}")
    mu, L = class_params(oracle, mu, L)
    _sqrt_q(mu, L)  # refuses mu <= 0 for both forms
    meta = {"N": N, "mu": mu, "L": L, "form": form}
    if form == "I":
        return drive("constant_momentum", oracle, meta,
                     lambda co: _constant_momentum_factory(co, x0, mu, L),
                     lambda s: (s["x"], None, {"z": s["z"]}), N)

    beta = delta_infty(mu, L)

    def start(co):
        def step(s):
            g = co.gradient(s["y"])
            x_new = s["y"] - g / L
            return {"x": x_new, "y": x_new + beta * (x_new - s["x"])}

        x = np.array(x0, dtype=float)
        return {"x": x, "y": x.copy()}, step

    return drive("constant_momentum", oracle, meta, start,
                 lambda s: (s["x"], None, {}), N)


# ---------------------------------------------------------------------------
# information-theoretic exact method (ITEM)

def item_next_A(A, q):
    return ((1.0 + q) * A + 2.0 * (1.0 + math.sqrt((1.0 + A) * (1.0 + q * A)))) / (1.0 - q) ** 2


def item(oracle, x0, N, mu=None, L=None):
    """ITEM; record k >= 1 holds y_{k-1} (the point where the gradient was
    taken) with z_k in the state."""
    mu, L = class_params(oracle, mu, L)
    if not (0 <= mu < L):
        raise InvalidArgument("item requires 0 <= mu < L")
    q = mu / L

    def start(co):
        def step(s):
            A, x, z = s["A"], s["x"], s["z"]
            A1 = item_next_A(A, q)
            delta = 0.5 * ((1.0 - q) ** 2 * A1 - (1.0 + q) * A) / (1.0 + q + q * A)
            if A == 0.0:
                y = z.copy()  # tau_0 = 1, so y_0 = z_0; avoids 0/0 at A_0 = 0
            else:
                tau = 1.0 - A / ((1.0 - q) * A1)
                y = x + tau * (z - x)
            g = co.gradient(y)
            return {"A": A1, "x": y - g / L,
                    "z": (1.0 - q * delta) * z + q * delta * y - (delta / L) * g,
                    "y": y, "g": g}

        x = np.array(x0, dtype=float)
        return {"A": 0.0, "x": x, "z": x.copy()}, step

    def view(s):
        if "y" not in s:
            return s["x"], None, {"A": s["A"], "z": s["z"]}
        return s["y"], s["g"], {"A": s["A"], "z": s["z"], "y": s["y"], "g": s["g"]}

    return drive("item", oracle, {"N": N, "mu": mu, "L": L}, start, view, N)


# ---------------------------------------------------------------------------
# triple momentum method (TMM)

def tmm(oracle, x0, N, mu=None, L=None):
    """Triple momentum; requires 0 < mu < L. Record k >= 1 holds y_{k-1} with
    z_k in the state."""
    mu, L = class_params(oracle, mu, L)
    if not 0 < mu < L:
        raise InvalidArgument("tmm requires 0 < mu < L")
    sq = np.sqrt(mu / L)
    beta = delta_infty(mu, L)

    def start(co):
        def step(s):
            y_prev, z, g_prev = s["y"], s["z"], s["g"]
            y = beta * (y_prev - g_prev / L) + (1.0 - beta) * z
            g = co.gradient(y)
            return {"y": y, "z": sq * (y - g / mu) + (1.0 - sq) * z, "g": g}

        x = np.array(x0, dtype=float)
        return {"y": x.copy(), "z": x.copy(), "g": co.gradient(x)}, step

    return drive("tmm", oracle, {"N": N, "mu": mu, "L": L}, start,
                 lambda s: (s["y"], s["g"], {"z": s["z"], "y": s["y"], "g": s["g"]}),
                 N, check="y")


# ---------------------------------------------------------------------------
# Bregman accelerated gradient

def _bregman_factory(problem, co_f, x0, L, dgf):
    if dgf not in ("euclidean", "entropy"):
        raise InvalidArgument(f"unknown dgf {dgf!r}")
    if not isinstance(problem, CompositeProblem):
        raise InvalidArgument("bregman_agm expects a CompositeProblem")
    x0 = np.array(x0, dtype=float)
    if dgf == "entropy":
        if problem.nonsmooth.name != "simplex":
            raise InvalidArgument("entropy mode requires the simplex indicator")
        if np.min(x0) <= 0 or abs(np.sum(x0) - 1.0) > 1e-9:
            raise InvalidArgument("entropy mode needs strictly positive x0 on the simplex")
    prox = CountingOracle(problem.nonsmooth, co_f.counters).prox
    state = {"A": 0.0, "x": x0, "z": x0.copy()}

    def step(s):
        A = s["A"]
        A1 = next_A(A, 0.0)
        a = A1 - A
        y = (A / A1) * s["x"] + (1.0 - A / A1) * s["z"]
        g = co_f.gradient(y)
        if dgf == "euclidean":
            z1 = prox(s["z"] - (a / L) * g, a / L)
        else:  # entropy on the simplex
            with np.errstate(divide="ignore"):  # log(0) = -inf is the limit we want
                logits = np.log(s["z"]) - (a / L) * g
            logits -= np.max(logits)
            w = np.exp(logits)
            z1 = w / np.sum(w)
        x1 = (A / A1) * s["x"] + (1.0 - A / A1) * z1
        return {"A": A1, "x": x1, "z": z1, "y": y}

    return state, step


def bregman_agm(problem, x0, N, dgf="euclidean", L=None):
    """Accelerated gradient with a Bregman divergence.

    dgf="euclidean" recovers the fast gradient method in its averaged form
    through the prox of h; dgf="entropy" requires h to be the unit-simplex
    indicator and a strictly positive feasible x0 (multiplicative closed-form
    z-update, every z_k strictly positive on the simplex).
    """
    _, L = class_params(getattr(problem, "smooth", problem), mu=0.0, L=L)
    return drive("bregman_agm", problem, {"N": N, "L": L, "dgf": dgf},
                 lambda co: _bregman_factory(problem, co, x0, L, dgf), _x_A_z, N)


# ---------------------------------------------------------------------------
# monotone wrapper

_WRAPPABLE = ("fgm", "constant_momentum", "fista", "prox_agm", "bregman_agm")


def monotone_wrap(method, problem, x0, N, mu=None, L=None, form="I", dgf="euclidean",
                  L0=None, alpha=2.0, mode="monotone"):
    """Enforce monotonicity: before each inner step, replace the inner x_k by
    the incumbent best point, then keep the better of the step's output and
    the incumbent. The wrapped method's worst-case bound is preserved.

    `form` is fgm's, I or III (form II steps from a y-sequence the wrapper
    does not reset), and "I" for the other methods; `dgf` is bregman_agm's, and
    `L0` (default L), `alpha` and `mode` fista's and prox_agm's, whose checks
    apply. Not applicable to ogm/item/tmm, whose potentials track y-sequences.
    """
    if method not in _WRAPPABLE:
        raise InvalidArgument(f"monotone_wrap does not support {method!r}")
    if form not in (("I", "III") if method == "fgm" else ("I",)):
        raise InvalidArgument(f"monotone_wrap cannot run {method} in form {form!r}")
    x0 = np.array(x0, dtype=float)

    smooth = getattr(problem, "smooth", problem)
    h = getattr(problem, "nonsmooth", None)
    mu, L = class_params(smooth, mu, L)

    def factory(co):
        if method == "fgm":
            return _fgm_factory(co, x0, mu, L, form_three=(form == "III"))
        if method == "constant_momentum":
            return _constant_momentum_factory(co, x0, mu, L)
        if method == "bregman_agm":
            return _bregman_factory(problem, co, x0, L, dgf)
        from .composite import _composite_factory  # fista / prox_agm

        return _composite_factory(method, problem, co, x0, mu, L if L0 is None else L0,
                                  alpha, mode)

    def start(co):
        inner, inner_step = factory(co)

        def objective(x, f=None):  # F = f + h; f is a value call unless the step holds it
            f = co.value(x) if f is None else f
            return f if h is None else f + h.value(x)

        def step(s):
            inner = inner_step(dict(s["inner"], x=s["best"]))
            x = inner["x"]
            f = objective(x, inner.get("f"))
            if f < s["f_best"]:
                return {"inner": inner, "x": x, "best": x, "f_best": f}
            return dict(s, inner=inner, x=x)

        return {"inner": inner, "x": x0, "best": x0, "f_best": objective(x0)}, step

    return drive(f"monotone({method})", problem, {"N": N, "inner": method, "mu": mu, "L": L},
                 start, lambda s: (s["best"], None, {"A": s["inner"].get("A", 0.0)}), N)
