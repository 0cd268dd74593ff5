"""Nonlinear (Anderson-type) acceleration: offline, mixing, online,
regularized, and proximal variants with safeguards."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, SingularSystemError
from .trace import CountingOracle, drive

SINGULAR_PIVOT_REL = 1e-13


class PairBuffer:
    """Ordered (x_i, g_i) pairs with optional capacity; oldest evicted first."""

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise InvalidArgument("capacity must be >= 1")
        self.capacity = capacity
        self._xs = []
        self._gs = []

    def append(self, x, g):
        self._xs.append(np.array(x, dtype=float, copy=True))
        self._gs.append(np.array(g, dtype=float, copy=True))
        if self.capacity is not None and len(self._xs) > self.capacity:
            self._xs.pop(0)
            self._gs.pop(0)

    def __len__(self):
        return len(self._xs)

    @property
    def X(self):
        return np.array(self._xs)

    @property
    def G(self):
        return np.array(self._gs)


@dataclass
class ExtrapolationResult:
    c: np.ndarray
    x_extr: np.ndarray
    gram_cond: float


def lstsq_qr(A, b):
    """Least-squares min ||A y - b|| via QR (backward stable, unlike the
    squared normal equations); b may hold several right-hand sides as columns.

    The module's one singularity rule: raises SingularSystemError when A is
    wide or the singular values of R (those of A) span more than 1 / 1e-13;
    the unpivoted R diagonal would miss a zero hidden by a small leading R_ii.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if m < n:
        raise SingularSystemError(f"wide system: {m} equations, {n} unknowns")
    Q, R = np.linalg.qr(A)
    sv = np.linalg.svd(R, compute_uv=False)
    if sv[-1] < SINGULAR_PIVOT_REL * max(sv[0], 1e-300):
        raise SingularSystemError("rank-deficient system")
    return np.linalg.solve(R, Q.T @ np.asarray(b, dtype=float))


def solve_pivot(A, b):
    """Solve the square system A x = b by `lstsq_qr`; a singular A raises
    SingularSystemError by its rule."""
    return lstsq_qr(A, b)


def spectral_norm(M):
    """||M||_2 of a symmetric PSD M: its largest eigenvalue."""
    return float(np.linalg.eigvalsh(M)[-1])


def _cond(vals):
    """Condition number of a symmetric PSD matrix from its eigenvalues."""
    lo = max(float(vals.min()), 0.0)
    hi = float(vals.max())
    return np.inf if lo == 0.0 else hi / lo


def offline_na(buf):
    """Solve (G^T G) z = 1, normalize c = z / (z^T 1), return x_extr = sum c_i x_i.

    When the Gram solve is singular by `lstsq_qr`'s rule (the buffered
    gradients are affinely dependent, e.g. k >= d on a quadratic where the
    exact minimizer is reachable), the same subproblem min ||c @ G|| s.t.
    sum(c) = 1 is re-solved in difference coordinates c_i (i < k), which stays
    nonsingular whenever the gradient differences are independent. Truly
    degenerate buffers, and buffers of more than d + 1 pairs (a wide
    difference system), still raise.
    """
    if len(buf) < 1:
        raise InvalidArgument("need at least one pair")
    G = buf.G
    GtG = G @ G.T
    k = len(buf)
    try:
        z = lstsq_qr(GtG, np.ones(k))
        c = z / np.sum(z)
    except SingularSystemError:
        if k == 1:
            raise
        D = G[:-1] - G[-1]
        norms = np.linalg.norm(D, axis=1)
        if np.any(norms == 0.0):
            raise
        y = lstsq_qr((D / norms[:, None]).T, -G[-1]) / norms
        c = np.append(y, 1.0 - np.sum(y))
    x_extr = c @ buf.X
    return ExtrapolationResult(c=c, x_extr=x_extr, gram_cond=_cond(np.linalg.eigvalsh(GtG)))


def na_mixing(buf, h):
    """x_extr = sum c_i (x_i - h g_i) with the offline weights."""
    res = offline_na(buf)
    x_extr = res.c @ (buf.X - h * buf.G)
    return ExtrapolationResult(c=res.c, x_extr=x_extr, gram_cond=res.gram_cond)


def rna(buf, h, lam, c_ref=None):
    """Regularized weights from (GG/||GG||_2 + lam I) w = lam c_ref, renormalized.

    c = w + z (1 - w^T 1)/(z^T 1) with (GG_n + lam I) z = 1, so c^T 1 = 1 exactly.
    Default c_ref is uniform.
    """
    if lam <= 0:
        raise InvalidArgument("lambda must be > 0")
    k = len(buf)
    if k < 1:
        raise InvalidArgument("need at least one pair")
    if c_ref is None:
        c_ref = np.full(k, 1.0 / k)
    else:
        c_ref = np.asarray(c_ref, dtype=float)
        if abs(np.sum(c_ref) - 1.0) > 1e-9:
            raise InvalidArgument("c_ref must sum to 1")
    G = buf.G
    GtG = G @ G.T
    vals = np.linalg.eigvalsh(GtG)  # vals[-1] = spectral_norm(GtG)
    norm = float(vals[-1])
    if norm > 0:
        GtG, vals = GtG / norm, vals / norm
    A = GtG + lam * np.eye(k)
    w, z = lstsq_qr(A, np.column_stack([lam * c_ref, np.ones(k)])).T
    c = w + z * (1.0 - np.sum(w)) / np.sum(z)
    x_extr = c @ (buf.X - h * buf.G)
    return ExtrapolationResult(c=c, x_extr=x_extr, gram_cond=_cond(vals + lam))


def golden_section(fun, a, b, evals=20):
    """Golden-section search for the minimiser of a unimodal `fun` on [a, b],
    spending `evals` evaluations."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(evals - 2):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return c if fc < fd else d


def _x_grad_fallback(s):
    return s["x"], s.get("g"), ({"fallback": s["fallback"]} if "fallback" in s else {})


def online_rna(oracle, x0, h, lam, m, N, safeguard="none"):
    """Limited-memory online extrapolation.

    Each step appends (x_k, grad f(x_k)), extrapolates with rna (lam > 0) or
    offline mixing (lam == 0), and optionally safeguards:
      - "descent": accept x_extr only if f(x_extr) < min buffered f(x_i),
        else fall back to x_k - h grad f(x_k);
      - "linesearch": golden-section search of the mixing step over [0, 4h].
    The weights c do not depend on the mixing step, so they are solved once
    per step. A singular solve falls back to the gradient step and flags the
    record state.
    """
    if m < 1:
        raise InvalidArgument("memory m must be >= 1")
    if safeguard not in ("none", "descent", "linesearch"):
        raise InvalidArgument(f"unknown safeguard {safeguard!r}")

    def start(co):
        buf = PairBuffer(capacity=m)

        def step(s):
            x, g = s["x"], s["g"]
            buf.append(x, g)
            X, G = buf.X, buf.G
            try:
                c = (rna(buf, 0.0, lam) if lam > 0 else offline_na(buf)).c
                t = h
                if safeguard == "linesearch":
                    t = golden_section(lambda u: oracle.value(c @ (X - u * G)), 0.0, 4.0 * h)
                x_new = c @ (X - t * G)
                fallback = (safeguard == "descent"
                            and not oracle.value(x_new) < min(oracle.value(xi) for xi in X))
            except SingularSystemError:
                fallback = True
            if fallback:
                x_new = x - h * g
            return {"x": x_new, "g": co.gradient(x_new), "fallback": fallback}

        x = np.array(x0, dtype=float)
        return {"x": x, "g": co.gradient(x)}, step

    return drive("online_rna", oracle,
                 {"h": h, "lambda": lam, "m": m, "N": N, "safeguard": safeguard},
                 start, _x_grad_fallback, N)


def prox_rna(problem, x0, gamma, lam, N, c_ref=None, m=None):
    """Online RNA through a proximal operator.

    Maintains z_k with x_k = prox_{gamma h}(z_k); the extrapolated residuals are
    g_k = (gamma grad f(x_k) + z_k - x_k)/gamma, and the z-sequence is
    extrapolated then re-proxed so every reported x_k lies in dom h.
    """
    if gamma <= 0:
        raise InvalidArgument("gamma must be > 0")

    def start(f):
        h = CountingOracle(problem.nonsmooth, f.counters)
        buf = PairBuffer(capacity=m)

        def step(s):
            x, z = s["x"], s["z"]
            g = (gamma * f.gradient(x) + z - x) / gamma
            buf.append(z, g)
            fallback = False
            try:
                if lam > 0:
                    z_new = rna(buf, gamma, lam, c_ref=c_ref).x_extr
                else:
                    z_new = na_mixing(buf, gamma).x_extr
            except SingularSystemError:
                z_new = z - gamma * g
                fallback = True
            return {"x": h.prox(z_new, gamma), "z": z_new, "fallback": fallback}

        x = np.array(x0, dtype=float)
        # x0 is taken in dom h, so prox_{gamma h}(z0) = x0
        return {"x": x, "z": x.copy()}, step

    return drive("prox_rna", problem.smooth, {"gamma": gamma, "lambda": lam, "N": N},
                 start, _x_grad_fallback, N, check="z", objective=problem.objective,
                 x_star=problem.x_star, f_star=problem.F_star)
