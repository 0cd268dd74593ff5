"""Nonlinear (Anderson-type) acceleration: offline, mixing, online,
regularized, and proximal variants with safeguards.

Every extrapolation solves a k x k system in the Gram matrix G G^T of the
buffered gradients (k <= the buffer's capacity) from one symmetric
eigendecomposition G G^T = V diag(vals) V^T: its largest eigenvalue
normalises it, |vals + lam| are the system's singular values, to which the
module's one singularity rule applies (`SINGULAR_PIVOT_REL`), and the solve
is V diag(1/(vals + lam)) V^T. Pairs whose Gram matrix has a non-finite
trace raise DivergedError.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DivergedError, InvalidArgument, SingularSystemError
from .trace import CountingOracle, drive

SINGULAR_PIVOT_REL = 1e-13


def _rank_deficient(sv):
    """The module's one singularity rule: the singular values `sv` of a system
    span more than 1 / SINGULAR_PIVOT_REL (or are all zero)."""
    return sv.min() < SINGULAR_PIVOT_REL * max(sv.max(), 1e-300)


_NO_ROWS = np.empty((0, 0))
_NO_ROWS.flags.writeable = False


def _stack(M, row, drop):
    """The read-only rows of M without its first `drop`, then `row`."""
    row = np.array(row, dtype=float, ndmin=2)
    M = np.concatenate((M[drop:], row)) if len(M) else row
    M.flags.writeable = False
    return M


class PairBuffer:
    """Ordered (x_i, g_i) pairs with optional capacity; oldest evicted first.

    The attributes `X` and `G` are the pairs stacked as rows, formed once per
    `append` and read-only."""

    def __init__(self, capacity=None):
        if capacity is not None and capacity < 1:
            raise InvalidArgument("capacity must be >= 1")
        self.capacity = capacity
        self.X = self.G = _NO_ROWS

    def append(self, x, g):
        drop = int(self.capacity is not None and len(self) == self.capacity)
        self.X = _stack(self.X, x, drop)
        self.G = _stack(self.G, g, drop)

    def __len__(self):
        return len(self.X)


@dataclass
class ExtrapolationResult:
    c: np.ndarray
    x_extr: np.ndarray


def lstsq_qr(A, b):
    """Least-squares min ||A y - b|| via QR (backward stable, unlike the
    squared normal equations); b may hold several right-hand sides as columns.

    Raises SingularSystemError when A is wide, or when the singular values of
    R (those of A) break the module's singularity rule; the unpivoted R
    diagonal would miss a zero hidden by a small leading R_ii. The
    extrapolations' Gram systems do not come here: they are solved from one
    eigendecomposition (see the module docstring). Only `offline_na`'s
    fallback in difference coordinates, a tall system, does.
    """
    A = np.asarray(A, dtype=float)
    m, n = A.shape
    if m < n:
        raise SingularSystemError(f"wide system: {m} equations, {n} unknowns")
    Q, R = np.linalg.qr(A)
    if _rank_deficient(np.linalg.svd(R, compute_uv=False)):
        raise SingularSystemError("rank-deficient system")
    return np.linalg.solve(R, Q.T @ np.asarray(b, dtype=float))


def solve_pivot(A, b):
    """Solve the square system A x = b by `lstsq_qr`; a singular A raises
    SingularSystemError by its rule."""
    return lstsq_qr(A, b)


def spectral_norm(M):
    """||M||_2 of a symmetric PSD M: its largest eigenvalue."""
    return float(np.linalg.eigvalsh(M)[-1])


def _gram_eigh(G):
    """The eigenvalues (ascending) and eigenvectors of G G^T / ||G G^T||_2,
    from one `eigh`. A non-finite trace of G G^T, which every non-finite
    entry of G or of G G^T gives, raises DivergedError."""
    GGt = G @ G.T
    if not math.isfinite(np.trace(GGt)):
        raise DivergedError("extrapolation pairs became non-finite")
    vals, V = np.linalg.eigh(GGt)
    if vals[-1] > 0:
        vals = vals / vals[-1]
    return vals, V


def _weights(vals, V, lam, c_ref=None):
    """c = w + z (1 - w^T 1)/(z^T 1) from (GG_n + lam I) [w z] = [lam c_ref, 1],
    GG_n = V diag(vals) V^T, so c^T 1 = 1 exactly; c_ref defaults to uniform.
    At lam = 0, w = 0 and c = z / (z^T 1). Raises SingularSystemError when
    |vals + lam| break the module's singularity rule."""
    s = vals + lam
    if _rank_deficient(np.abs(s)):
        raise SingularSystemError("rank-deficient system")
    k = len(s)
    if c_ref is None:
        c_ref = np.full(k, 1.0 / k)
    w, z = (V @ ((V.T @ np.column_stack([lam * c_ref, np.ones(k)])) / s[:, None])).T
    return w + z * (1.0 - np.sum(w)) / np.sum(z)


def _solve_weights(G, lam, c_ref=None):
    """The weights c of the buffered gradients G (one per row): rna's
    regularized weights at lam > 0, offline_na's (with its fallback) at
    lam = 0. Every extrapolation takes its weights from here."""
    vals, V = _gram_eigh(G)
    try:
        c = _weights(vals, V, lam, c_ref)
    except SingularSystemError:
        if lam > 0 or len(G) == 1:
            raise
        D = G[:-1] - G[-1]
        norms = np.linalg.norm(D, axis=1)
        if np.any(norms == 0.0):
            raise
        y = lstsq_qr((D / norms[:, None]).T, -G[-1]) / norms
        c = np.append(y, 1.0 - np.sum(y))
    return c


def _extrapolate(buf, h, lam, c_ref=None):
    """rna's result (na_mixing's at lam = 0) for the pairs in buf."""
    if len(buf) < 1:
        raise InvalidArgument("need at least one pair")
    c = _solve_weights(buf.G, lam, c_ref)
    return ExtrapolationResult(c=c, x_extr=c @ (buf.X - h * buf.G))


def offline_na(buf):
    """Solve (G^T G) z = 1, normalize c = z / (z^T 1), return x_extr = sum c_i x_i
    (the mixing step h = 0 of `na_mixing`).

    When the Gram solve is singular by the module's rule (the buffered
    gradients are affinely dependent, e.g. k >= d on a quadratic where the
    exact minimizer is reachable), the same subproblem min ||c @ G|| s.t.
    sum(c) = 1 is re-solved in difference coordinates c_i (i < k) by
    `lstsq_qr`, which stays nonsingular whenever the gradient differences are
    independent. Truly degenerate buffers, and buffers of more than d + 1
    pairs (a wide difference system), still raise.
    """
    return na_mixing(buf, 0.0)


def na_mixing(buf, h):
    """x_extr = sum c_i (x_i - h g_i) with the offline weights."""
    return _extrapolate(buf, h, 0.0)


def rna(buf, h, lam, c_ref=None):
    """Regularized weights from (GG/||GG||_2 + lam I) w = lam c_ref, renormalized.

    c = w + z (1 - w^T 1)/(z^T 1) with (GG_n + lam I) z = 1, so c^T 1 = 1 exactly.
    Default c_ref is uniform; one given must hold len(buf) finite weights
    summing to 1. Both systems are solved from one eigendecomposition of GG
    (see the module docstring), which also gives ||GG||_2.
    """
    if not lam > 0:
        raise InvalidArgument("lambda must be > 0")
    if c_ref is not None:
        c_ref = np.asarray(c_ref, dtype=float)
        if c_ref.shape != (len(buf),) or not abs(np.sum(c_ref) - 1.0) <= 1e-9:
            raise InvalidArgument(f"c_ref must be {len(buf)} weights summing to 1")
    return _extrapolate(buf, h, lam, c_ref)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi, phi the golden ratio
_GOLDEN = 1.0 - _INVPHI  # the golden step, as a fraction of a segment


def minimize_unimodal(fun, a, b, evals=20):
    """The minimiser of a unimodal `fun` on [a, b], by Brent's method:
    successive parabolic interpolation through the three best points, with a
    golden-section step whenever the parabola's step is rejected.

    It makes at most `evals` evaluations, all inside [a, b], and stops early
    once its bracket is no wider than the one golden-section search leaves
    after `evals` evaluations, (b - a) phi^-(evals - 2). It returns the best
    point it evaluated, which then lies in that bracket with the minimiser.
    Unlike golden section, it does not guarantee to close the bracket within
    `evals` evaluations: if they run out first, the result is only the best
    point found. Steps shorter than a third of that width are lengthened to
    it, so the last two steps, one on each side of the best point, close the
    bracket.
    """
    width = (b - a) * _INVPHI ** (evals - 2)
    tol = width / 3.0
    x = w = v = a + _GOLDEN * (b - a)  # best, second best, previous second best
    fx = fw = fv = fun(x)
    d = e = 0.0  # the last step, and the one before it
    for _ in range(evals - 1):
        if b - a <= width:
            break
        m = 0.5 * (a + b)
        golden = True
        if abs(e) > tol:  # the vertex of the parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            # accepted if it halves the step before last and stays inside
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d = d, p / q
                golden = False
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = tol if x < m else -tol
        if golden:  # into the larger of [a, x] and [x, b]
            e = b - x if x < m else a - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = fun(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x


def _search_from_edge(fun, a, b, evals=20):
    """The minimiser of a convex `fun` on [a, b], to the width
    w = (b - a) phi^-(evals - 2) that `minimize_unimodal` closes: first
    fun(b) and fun(b - w), and b itself if fun(b) <= fun(b - w), since
    convexity then puts a minimiser in [b - w, b]; otherwise
    `minimize_unimodal(fun, a, b, evals)`, after those two evaluations."""
    w = (b - a) * _INVPHI ** (evals - 2)
    if fun(b) <= fun(b - w):
        return b
    return minimize_unimodal(fun, a, b, evals)


def _x_grad_fallback(s):
    return s["x"], s.get("g"), ({"fallback": s["fallback"]} if "fallback" in s else {})


def online_rna(oracle, x0, h, lam, m, N, safeguard="none"):
    """Limited-memory online extrapolation.

    Each step appends (x_k, grad f(x_k)), extrapolates with rna (lam > 0) or
    offline mixing (lam == 0), and optionally safeguards:
      - "descent": accept x_extr only if f(x_extr) < min buffered f(x_i),
        else fall back to x_k - h grad f(x_k);
      - "linesearch": the minimiser of f over the mixing step in [0, 4h],
        each evaluation one counted value call. The step 4h is taken after
        two evaluations when f shows it to be within the search's width of
        the minimiser (`_search_from_edge`), else `minimize_unimodal` runs.
    The weights c do not depend on the mixing step, so they are solved once
    per step, from the stacked pairs, without forming rna's or offline_na's
    x_extr. A singular solve falls back to the gradient step and flags the
    record state. With "descent", f(x_i) is kept beside each buffered pair,
    taken with the gradient at x_i (or from the test itself at an accepted
    x_extr), so no point is evaluated twice.
    """
    if m < 1:
        raise InvalidArgument("memory m must be >= 1")
    if not lam >= 0:
        raise InvalidArgument("lambda must be >= 0 (0: unregularized weights)")
    if safeguard not in ("none", "descent", "linesearch"):
        raise InvalidArgument(f"unknown safeguard {safeguard!r}")

    descent = safeguard == "descent"

    def start(co):
        buf = PairBuffer(capacity=m)
        fs = deque(maxlen=m)  # f(x_i) of the buffered pairs, for "descent"

        def at(x, f=None):
            """The state at x: its gradient, and with "descent" f(x) (given,
            or taken with the gradient)."""
            if not descent:
                return {"x": x, "g": co.gradient(x)}
            if f is None:
                f, g = co.value_and_gradient(x)
            else:
                g = co.gradient(x)
            return {"x": x, "g": g, "f": f}

        def step(s):
            x, g = s["x"], s["g"]
            buf.append(x, g)
            if descent:
                fs.append(s["f"])
            X, G = buf.X, buf.G
            f_new = None
            try:
                c = _solve_weights(G, lam)
                t = h
                if safeguard == "linesearch":
                    t = _search_from_edge(lambda u: co.value(c @ (X - u * G)), 0.0, 4.0 * h)
                x_new = c @ (X - t * G)
                if descent:
                    f_new = co.value(x_new)
                fallback = descent and not f_new < min(fs)
            except SingularSystemError:
                fallback = True
            if fallback:
                x_new, f_new = x - h * g, None
            return dict(at(x_new, f_new), fallback=fallback)

        return at(np.array(x0, dtype=float)), step

    return drive("online_rna", oracle,
                 {"h": h, "lambda": lam, "m": m, "N": N, "safeguard": safeguard},
                 start, _x_grad_fallback, N)


def prox_rna(problem, x0, gamma, lam, N, m=None):
    """Online RNA through a proximal operator.

    Maintains z_k with x_k = prox_{gamma h}(z_k); the extrapolated residuals are
    g_k = (gamma grad f(x_k) + z_k - x_k)/gamma, and the z-sequence is
    extrapolated then re-proxed so every reported x_k lies in dom h. Each
    step's z_{k+1} is `_extrapolate`'s x_extr at the mixing step gamma: rna's
    (lam > 0) or na_mixing's (lam == 0); a singular solve falls back to
    z_k - gamma g_k and flags the record.

    m bounds the buffer to the latest m pairs. With m=None it keeps every
    pair, so its memory and each step's Gram matrix grow with k; at lam = 0,
    past d + 1 pairs, every step falls back to the gradient step while still
    rebuilding the whole Gram matrix. Pass m to bound both.
    """
    if gamma <= 0:
        raise InvalidArgument("gamma must be > 0")
    if not lam >= 0:
        raise InvalidArgument("lambda must be >= 0 (0: unregularized weights)")

    def start(f):
        h = CountingOracle(problem.nonsmooth, f.counters)
        buf = PairBuffer(capacity=m)

        def step(s):
            x, z = s["x"], s["z"]
            g = (gamma * f.gradient(x) + z - x) / gamma
            buf.append(z, g)
            fallback = False
            try:
                z_new = _extrapolate(buf, gamma, lam).x_extr
            except SingularSystemError:
                z_new = z - gamma * g
                fallback = True
            return {"x": h.prox(z_new, gamma), "z": z_new, "fallback": fallback}

        x = np.array(x0, dtype=float)
        # x0 is taken in dom h, so prox_{gamma h}(z0) = x0
        return {"x": x, "z": x.copy()}, step

    return drive("prox_rna", problem, {"gamma": gamma, "lambda": lam, "N": N},
                 start, _x_grad_fallback, N)
