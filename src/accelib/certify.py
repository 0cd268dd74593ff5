"""Executable verification: pairwise interpolation and class inequalities,
potential/Lyapunov monotonicity along traces, and the 2x2 distance-contraction
LMI for gradient descent."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidArgument, UnsupportedOracle
from .tolerances import tol_for
from .oracles import CompositeProblem, bregman_divergence, optimum
from .trace import _BATCH, in_blocks

LAMBDA_GRID = np.linspace(0.0, 1.0, 11)


@dataclass
class Margin:
    where: object  # pair (i, j), step k, or (name, i, j)
    slack: float


def min_slack(margins):
    """Smallest slack of a list of `Margin`s, of an array of per-step potential
    margins, or of the pairwise slack matrix from `check_interpolation` (its
    +inf diagonal carries no condition). Returns 0.0 when there is nothing to
    check: no margins, or n <= 1 points. A NaN step margin is left out, as a
    step that cannot be certified is reported by the caller; when every one
    is NaN the result is NaN."""
    if isinstance(margins, np.ndarray) and margins.ndim == 2:
        return float(margins.min()) if margins.size > 1 else 0.0
    if isinstance(margins, np.ndarray):
        kept = margins[margins == margins]
        return float(kept.min()) if kept.size else (np.nan if margins.size else 0.0)
    return min(m.slack for m in margins) if margins else 0.0


# ---------------------------------------------------------------------------
# interpolation

class Triplets(Sequence):
    """The (x, g, f) triplets of n points, held stacked: X and G are (n, d)
    arrays and F holds the n values. An index and iteration give (x, g, f)
    tuples with f a float, as a list of triplets would."""

    def __init__(self, X, G, F):
        self.X, self.G, self.F = X, G, F

    def __len__(self):
        return len(self.F)

    def __getitem__(self, i):
        return self.X[i], self.G[i], float(self.F[i])


def check_interpolation(triplets, mu, L):
    """Pairwise necessary-and-sufficient condition for membership in the
    smooth strongly convex class:
    f_i >= f_j + <g_j; x_i-x_j> + ||g_i-g_j||^2/(2L)
         + mu/(2(1-mu/L)) ||u_i-u_j||^2 for all i != j, with u = x - g/L.

    `triplets` is a `Triplets` or any sequence of (x, g, f). Returns the
    (n, n) array of slacks (left minus right side); entry [i, j] holds the
    condition for the pair (i, j) and the diagonal is +inf. X, G and U are
    centred on their mean rows first: the differences are unchanged, but the
    rounding error then scales with the spread of the points, not with
    ||x||^2. All n^2 slacks come from one (n x d)(d x n) product and two
    broadcasts: the cross terms [Xc, Gc, Uc] [-G, Gc/L, 2c Uc]^T of the
    expanded squares, with G = Gc + mean(g) and gc = L (xc - uc), are
    Uc (2c Uc - Gc)^T - (Xc mean(g)) 1^T."""
    if not (0 <= mu < L):
        raise InvalidArgument("need 0 <= mu < L")
    n = len(triplets)
    if n == 0:
        return np.empty((0, 0))
    if not isinstance(triplets, Triplets):
        triplets = Triplets(*(np.array(col, dtype=float) for col in zip(*triplets)))
    X, G, F = triplets.X.reshape(n, -1), triplets.G.reshape(n, -1), triplets.F
    g_mean = G.mean(axis=0)
    Xc, Gc = X - X.mean(axis=0), G - g_mean
    Uc = Xc - Gc / L
    # expanding the squares, with c = mu/(2(1-mu/L)) and X, G, U centred,
    # slack[i, j] = a_i + b_j + M[i, j] where
    #   a_i = f_i - ||g_i||^2/(2L) - c ||u_i||^2 - <x_i, mean(g)>,
    #   b_j = -f_j + <g_j, x_j> - ||g_j||^2/(2L) - c ||u_j||^2,
    #   M[i, j] = <u_i, 2c u_j - g_j>,
    # G uncentred in <g_j, x_j>: the inner product with x_i - x_j needs g_j itself
    c = mu / (2.0 * (1.0 - mu / L))
    own = _sq(Gc) / (2.0 * L) + c * _sq(Uc)
    slack = Uc @ ((2.0 * c) * Uc - Gc).T
    slack += (F - own - Xc @ g_mean)[:, None]
    slack += np.einsum("ij,ij->i", G, Xc) - F - own
    np.fill_diagonal(slack, np.inf)
    return slack


def harvest_triplets(trace, oracle):
    """The trace's iterates with the oracle's gradients and values there, as
    stacked `Triplets` for interpolation checking: one row-stacked
    `value_and_gradient` call per block of _BATCH iterates, the blocks of
    `in_blocks`."""
    X = trace.x
    F, G = np.empty(len(X)), np.empty(X.shape)
    for lo in range(0, len(X), _BATCH):
        F[lo:lo + _BATCH], G[lo:lo + _BATCH] = oracle.value_and_gradient(X[lo:lo + _BATCH])
    return Triplets(X, G, F)


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
#
# Each potential is one function of a trace's columns, potential(trace, gap,
# x_star, gap_at) -> (phi, margins), with gap = F(x_k) - F* per record and
# gap_at(Y) = F - F* per row of Y: phi is the `potential` column (which
# `Recorder` fills), margins[k] = phi_k - phi_{k+1} (or rho v_k - v_{k+1}).

def potential_series(trace, problem, smooth_values=None):
    """(phi, margins) of the trace method's potential, recomputed from
    `problem`, whose objective is evaluated row-stacked (see check_potential).
    `smooth_values`, when given, are the smooth part's values at the trace's
    iterates, evaluated by the caller in the blocks of `in_blocks` (as
    `harvest_triplets` does): the objective there is then those values, plus
    the nonsmooth part's for a `CompositeProblem`, the same floats."""
    fun, x_star, f_star = optimum(problem)
    if x_star is None:
        raise InvalidArgument("potential checks need a known optimum")
    handler = _POTENTIALS.get(trace.method.split("(")[0])
    if handler is None:
        raise InvalidArgument(f"no potential registered for {trace.method!r}")

    def gap_at(Y):
        return in_blocks(fun, Y) - f_star

    if smooth_values is None:
        gap = gap_at(trace.x)
    elif isinstance(problem, CompositeProblem):
        gap = smooth_values + in_blocks(problem.nonsmooth.value, trace.x) - f_star
    else:
        gap = smooth_values - f_star
    return handler(trace, gap, x_star, gap_at)


def check_potential(trace, problem):
    """Per-step margins of the method's potential (>= 0 up to tolerance means
    certified). The objective is evaluated once, row-stacked over the records'
    x (and OGM's y_prev), never read from the trace: an independent re-check."""
    _, margins = potential_series(trace, problem)
    return [Margin(k, m) for k, m in enumerate(margins.tolist())]


def _sq(X):
    return np.einsum("ij,ij->i", X, X)


def _dist2(trace, key, x_star):
    return _sq(trace.column(key) - x_star)


def _estimate(A, gap, c, mu, dist2):
    """A (F - F*) + (c + mu A)/2 ||. - x*||^2, the form most potentials take."""
    return A * gap + 0.5 * (c + mu * A) * dist2


def _series(phi):
    return phi, phi[:-1] - phi[1:]


def gd_potential(trace, gap, x_star, gap_at):
    # the certificate is stated for step 1/L, so the trace's gamma defines the
    # smoothness constant it claims; a too-long step then fails the check
    L, mu = 1.0 / trace.meta["gamma"], trace.meta.get("mu") or 0.0
    keep = np.float64(1.0 - mu / L)  # gamma = 1/mu gives A = inf, not ZeroDivisionError
    A = np.fromiter(accumulate(range(len(gap) - 1), lambda A, _: (1.0 + A) / keep,
                               initial=0.0), float, len(gap))
    return _series(_estimate(A, gap, L, mu, _dist2(trace, "x", x_star)))


def fgm_potential(trace, gap, x_star, gap_at):
    return _series(_estimate(trace.column("A"), gap, trace.meta["L"], trace.meta["mu"],
                             _dist2(trace, "z", x_star)))


def constant_momentum_potential(trace, gap, x_star, gap_at):
    mu, L = trace.meta["mu"], trace.meta["L"]
    v = gap + 0.5 * mu * _dist2(trace, "z", x_star)
    return v, (1.0 - np.sqrt(mu / L)) * v[:-1] - v[1:]


def ogm_potential(trace, gap, x_star, gap_at):
    """The final-output term theta_N^2 (f(y_N) - f*) + L/2 ||z_N - theta_N g_N/L
    - x*||^2 (record N holds x = y_N) enters only the last margin, not the column."""
    L = trace.meta["L"]
    if trace.meta.get("form") != "I":
        raise InvalidArgument("only form I carries the (y, z, theta) state")
    phi = 0.5 * L * _dist2(trace, "z", x_star)
    if len(phi) > 1:  # record 0 carries no theta_prev, y_prev, g_prev
        phi[1:] += 2.0 * trace.column("theta_prev", 1) ** 2 * (
            gap_at(trace.column("y_prev", 1)) - _sq(trace.column("g_prev", 1)) / (2.0 * L))
    last = trace.states[-1]
    if "theta_final" not in last:
        return _series(phi)
    th = last["theta_final"]
    final = th**2 * gap[-1] + 0.5 * L * _sq(
        (last["z"] - (th / L) * last["g_final"] - x_star)[None])
    return phi, -np.diff(np.append(phi, final))


def _y_term(trace, lo, mu, L, x_star):
    """-||g||^2/(2L) - mu/(2(1-q)) ||y - g/L - x*||^2 at y = x (ITEM, TMM),
    from record `lo` on."""
    G = trace.column("g", lo)
    return (-_sq(G) / (2.0 * L)
            - mu / (2.0 * (1.0 - mu / L)) * _sq(trace.x[lo:] - G / L - x_star))


def item_potential(trace, gap, x_star, gap_at):
    """Record k >= 1 holds x = y_{k-1} with g there and z_k in the state."""
    mu, L = trace.meta["mu"], trace.meta["L"]
    A = trace.column("A")
    phi = (L + mu * A) / (1.0 - mu / L) * _dist2(trace, "z", x_star)
    if len(phi) > 1:
        phi[1:] += A[1:] * (gap[1:] + _y_term(trace, 1, mu, L, x_star))
    return _series(phi)


def tmm_potential(trace, gap, x_star, gap_at):
    """Every record holds x = y with g there and z in the state."""
    mu, L = trace.meta["mu"], trace.meta["L"]
    v = gap + (_y_term(trace, 0, mu, L, x_star)
               + mu / (1.0 - mu / L) * _dist2(trace, "z", x_star))
    return v, (1.0 - np.sqrt(mu / L)) ** 2 * v[:-1] - v[1:]


def composite_potential(trace, gap, x_star, gap_at):
    """A accounting (monotone mode) compares phi_k and phi_{k+1} at the
    common L_{k+1}; the column holds phi_k at L_k. B accounting has no L."""
    mu = trace.meta["mu"]
    dist2 = _dist2(trace, "z", x_star)
    if "A" not in trace.states[0]:
        return _series(_estimate(trace.column("B"), gap, 1.0, mu, dist2))
    A, Ls = trace.column("A"), trace.column("L")
    phi = _estimate(A, gap, Ls, mu, dist2)
    return phi, _estimate(A[:-1], gap[:-1], Ls[1:], mu, dist2[:-1]) - phi[1:]


def bregman_potential(trace, gap, x_star, gap_at):
    return _series(trace.column("A") * gap + trace.meta["L"] * bregman_divergence(
        trace.meta["dgf"], x_star, trace.column("z")))


def ppa_potential(trace, gap, x_star, gap_at):
    """The exact PPA's z-sequence is its x; the accelerated ones record z."""
    z = "z" if "z" in trace.states[0] else "x"
    return _series(_estimate(trace.column("A"), gap, 1.0, trace.meta.get("mu", 0.0),
                             _dist2(trace, z, x_star)))


def monotone_potential(trace, gap, x_star, gap_at):
    return _series(gap)


_POTENTIALS = {
    "gd": gd_potential, "fgm": fgm_potential, "ogm": ogm_potential,
    "constant_momentum": constant_momentum_potential,
    "item": item_potential, "tmm": tmm_potential,
    "fista": composite_potential, "prox_agm": composite_potential,
    "bregman_agm": bregman_potential, "ppa": ppa_potential,
    "accel_inexact_ppa": ppa_potential, "catalyst": ppa_potential,
    "monotone": monotone_potential,
}


def potential_scale(trace, problem):
    fun, x_star, f_star = optimum(problem)
    x0 = trace.x[0]
    return abs(fun(x0) - f_star) + float(np.sum((x0 - x_star) ** 2)) + 1.0


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
