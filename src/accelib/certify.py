"""Executable verification: pairwise interpolation and class inequalities,
potential/Lyapunov monotonicity along traces, and the 2x2 distance-contraction
LMI for gradient descent."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import InvalidArgument, NoCertificate, UnsupportedOracle
from .tolerances import tol_for
from .oracles import _BATCH, bregman_divergence, in_blocks, optimum

LAMBDA_GRID = np.linspace(0.0, 1.0, 11)


@dataclass
class Margin:
    where: object  # pair (i, j), step k, or (name, i, j)
    slack: float


def min_slack(margins):
    """Smallest slack of a list of `Margin`s, of an array of per-step potential
    margins, or of the pairwise slack matrix from `check_interpolation` (its
    +inf diagonal carries no condition). Returns 0.0 when there is nothing to
    check: no margins, or n <= 1 points. A NaN margin of a list or of a 1-D
    array is left out, wherever it sits, as `verdict` reports a step that cannot
    be certified as a violation; when every one is NaN the result is NaN."""
    if not isinstance(margins, np.ndarray):
        margins = np.array([m.slack for m in margins], dtype=float)
    if margins.ndim == 2:
        return float(margins.min()) if margins.size > 1 else 0.0
    kept = margins[margins == margins]
    return float(kept.min()) if kept.size else (np.nan if margins.size else 0.0)


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
    slack += _dot(G, Xc) - F - own
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


def check_class_inequalities(oracle, mu, L, which=None, samples=200, seed=0):
    """Slacks of the appendix's inequalities on `samples` normal pairs (x, y), with
    dx = x - y, dg = g(x) - g(y), q = <dg, dx>, e = f(x) - f(y) - <g(y), dx> and
    m = lam f(x) + (1-lam) f(y) at x_lam = lam x + (1-lam) y, lam in LAMBDA_GRID:
      (i) mu|dx| <= |dg| <= L|dx|              (ii) mu/2 |dx|^2 <= e <= L/2 |dx|^2
      (iii) |dg|^2/(2L) <= e <= |dg|^2/(2mu)   (iv) |dg|^2/L <= q <= |dg|^2/mu
      (v) mu|dx|^2 <= q <= L|dx|^2    (vi) f - mu/2|.|^2 and L/2|.|^2 - f convex on [y, x]
      (vii) m - lam(1-lam) L/2 |dx|^2 <= f(x_lam) <= m - lam(1-lam) mu/2 |dx|^2
    Each side is one Margin((family.lower|.upper, i or (i, lam)), slack), family by family;
    at mu = 0 no i.lower, iii.upper, iv.upper. Slacks are raw (-4e-16 on a member): compare
    with -tol_for(scale). `which`: a family or several. Needs x_star; (iii), (iv) dom f = R^d."""
    which = set(ALL_INEQS if which is None else [which] if isinstance(which, str) else which)
    if not (0 <= mu < L) or not which <= set(ALL_INEQS):
        raise InvalidArgument(f"need 0 <= mu < L and families among {ALL_INEQS}")
    if oracle.domain_indicator is not None and which & {"iii", "iv"}:
        raise UnsupportedOracle("(iii)/(iv) hold only for full-domain functions")
    if oracle.x_star is None:
        raise InvalidArgument("the class inequalities need the oracle's dimension (its x_star)")
    d = oracle.x_star.shape[0]
    P = np.random.default_rng(seed).standard_normal((samples, 2, d))  # rows x_0, y_0, x_1, ..
    F, G = oracle.value_and_gradient(P.reshape(-1, d))
    x, y, fx, fy, gy, dg = P[:, 0], P[:, 1], F[0::2], F[1::2], G[1::2], G[0::2] - G[1::2]
    nx2, ng2, q, e = _sq(x - y), _sq(dg), _dot(dg, x - y), fx - fy - _dot(gy, x - y)
    nx, ng, lam = np.sqrt(nx2), np.sqrt(ng2), LAMBDA_GRID[:, None]  # lam by pair arrays
    if which & {"vi", "vii"}:  # f at the midpoints: one stacked call
        Xm = lam[..., None] * x + (1.0 - lam[..., None]) * y
        fm = oracle.value(Xm.reshape(-1, d)).reshape(lam.size, -1)
        hx, hy, hm = (0.5 * _sq(v) for v in (x, y, Xm))
    chord = lambda a, b, m: lam * a + (1.0 - lam) * b - m  # noqa: E731
    slacks = {  # thunks: only the chosen families are computed, and no mu side at mu = 0
        "i.lower": lambda: ng - mu * nx, "i.upper": lambda: L * nx - ng,
        "ii.lower": lambda: e - 0.5 * mu * nx2, "ii.upper": lambda: 0.5 * L * nx2 - e,
        "iii.lower": lambda: e - ng2 / (2.0 * L), "iii.upper": lambda: ng2 / (2.0 * mu) - e,
        "iv.lower": lambda: q - ng2 / L, "iv.upper": lambda: ng2 / mu - q,
        "v.lower": lambda: q - mu * nx2, "v.upper": lambda: L * nx2 - q,
        "vi.lower": lambda: chord(fx - mu * hx, fy - mu * hy, fm - mu * hm),
        "vi.upper": lambda: chord(L * hx - fx, L * hy - fy, L * hm - fm),
        "vii.lower": lambda: lam * (1.0 - lam) * 0.5 * L * nx2 - chord(fx, fy, fm),
        "vii.upper": lambda: chord(fx, fy, fm) - lam * (1.0 - lam) * 0.5 * mu * nx2}
    chosen = [n for n in sorted(slacks) if n.split(".")[0] in which
              and (mu > 0 or n not in ("i.lower", "iii.upper", "iv.upper"))]
    return [Margin((n, k[0] if len(k) == 1 else (k[0], LAMBDA_GRID[k[1]])), float(s))
            for n in chosen for k, s in np.ndenumerate(slacks[n]().T)]


# ---------------------------------------------------------------------------
# potential certificates along traces
#
# Each potential is one function of a trace's columns, potential(trace, gap,
# x_star, gap_at) -> (phi, margins), with gap = F(x_k) - F* per record and
# gap_at(Y) = F - F* per row of Y: phi is the `potential` column (which
# `Recorder` fills), margins[k] = phi_k - phi_{k+1} (or rho v_k - v_{k+1}).
# A potential raises NoCertificate on a trace whose records do not carry
# its certificate (form II of fgm, ogm and constant momentum). Temporaries of
# a whole column (z - x*, say) are formed in blocks, so a potential holds
# little beyond the trace's own columns: the objective in the 64-row blocks of
# `in_blocks` from row 0, as the recorder's fill evaluates it, and the
# elementwise distances of `_dist2` and `_y_term` in blocks of _TEMP_BYTES (at
# least 64 rows), whose size no bit of a row depends on.

def potential_of(method):
    """The potential _POTENTIALS registers for a method name ("monotone(fgm)": "monotone")."""
    return _POTENTIALS.get(method.split("(")[0])


def evaluate_potential(potential, trace, problem, values=None):
    """(phi, margins) of a potential on the trace, measured from the optimum of
    `problem` (see `oracles.optimum`). The gaps are `values`, the objective at
    the records' iterates when the caller has them, less F*; else the objective
    is evaluated there in blocks, as it is wherever the potential needs it at
    other points. Raises NoCertificate without a known optimum (or a problem)
    or a potential. The recorder's fill and `potential_series` evaluate every
    potential here: a diverged run, or gd at gamma = 1/mu, gives inf/nan
    entries and no warning."""
    fun, x_star, f_star = (None,) * 3 if problem is None else optimum(problem)
    if x_star is None:
        raise NoCertificate("potential checks need a known optimum")
    if potential is None:
        raise NoCertificate(f"no potential registered for {trace.method!r}")
    with np.errstate(all="ignore"):
        gap = (in_blocks(fun, trace.x) if values is None else values) - f_star
        return potential(trace, gap, x_star, lambda Y: in_blocks(fun, Y) - f_star)


def potential_series(trace, problem, values=None):
    """(phi, margins) of the trace method's potential, recomputed from
    `problem`, whose objective is evaluated row-stacked (see check_potential)
    unless `values` gives it at the trace's iterates (see evaluate_potential)."""
    return evaluate_potential(potential_of(trace.method), trace, problem, values)


def check_potential(trace, problem):
    """Per-step margins of the method's potential (>= 0 up to tolerance means
    certified). The objective is evaluated once, row-stacked over the records'
    x (and OGM's y_prev), never read from the trace: an independent re-check."""
    _, margins = potential_series(trace, problem)
    return [Margin(k, m) for k, m in enumerate(margins.tolist())]


def _dot(X, Y):
    """The inner products of matching rows (the last axis) of X and Y."""
    return np.einsum("...j,...j->...", X, Y)


def _sq(X):
    return _dot(X, X)


_TEMP_BYTES = 256 * 1024


def _rows(X):
    """Rows per block of a temporary shaped like X: _TEMP_BYTES, at least _BATCH."""
    return max(_BATCH, _TEMP_BYTES // max(X.itemsize * X.shape[-1], 1))


def _dist2(trace, key, x_star):
    Z = trace.column(key)
    return in_blocks(lambda B: _sq(B - x_star), Z, rows=_rows(Z))


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
    dist2 = _dist2(trace, "z", x_star)  # first: form II, which has no z, stacks no A
    return _series(_estimate(trace.column("A"), gap, trace.meta["L"], trace.meta["mu"], dist2))


def constant_momentum_potential(trace, gap, x_star, gap_at):
    mu, L = trace.meta["mu"], trace.meta["L"]
    v = gap + 0.5 * mu * _dist2(trace, "z", x_star)
    return v, (1.0 - np.sqrt(mu / L)) * v[:-1] - v[1:]


def ogm_potential(trace, gap, x_star, gap_at):
    """The final-output term theta_N^2 (f(y_N) - f*) + L/2 ||z_N - theta_N g_N/L
    - x*||^2 (record N holds x = y_N) enters only the last margin, not the column."""
    L = trace.meta["L"]
    if trace.meta.get("form") != "I":
        raise NoCertificate("only form I carries the (y, z, theta) state")
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
    return (-_sq(G) / (2.0 * L) - mu / (2.0 * (1.0 - mu / L)) * in_blocks(
        lambda Y, G: _sq(Y - G / L - x_star), trace.x[lo:], G, rows=_rows(G)))


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
    return _series(trace.column("A") * gap + trace.meta["L"] * in_blocks(
        lambda Z: bregman_divergence(trace.meta["dgf"], x_star, Z), trace.column("z")))


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


def verdict(trace, problem):
    """`accelib certify`'s report on a run on `problem`: the potential margins
    and pairwise interpolation slacks, from one `harvest_triplets` pass. An
    entry is a violation unless slack >= -tol (so NaN is), tol from
    `potential_scale` or max |f| + 1; `violations` lists steps k, then pairs
    (i, j), in index order, and the minima are `min_slack`'s. Raises
    NoCertificate on a trace without a certificate."""
    smooth = getattr(problem, "smooth", problem)
    triplets = harvest_triplets(trace, smooth)
    values = triplets.F  # the objective at the iterates: plus h for a composite problem
    if smooth is not problem:
        values = values + in_blocks(problem.nonsmooth.value, trace.x)
    _, margins = potential_series(trace, problem, values)
    interp = check_interpolation(triplets, smooth.params.mu, smooth.params.L)
    bad = []
    for slacks, tol in ((margins, tol_for(potential_scale(trace, problem))),
                        (interp, tol_for(np.abs(triplets.F).max() + 1.0))):
        if not slacks.min(initial=np.inf) >= -tol:  # or NaN: the mask only on failure
            bad += [str(w[0] if len(w) == 1 else tuple(w))
                    for w in np.argwhere(~(slacks >= -tol)).tolist()]
    return {"potential_min_slack": min_slack(margins),
            "interpolation_min_slack": min_slack(interp), "violations": bad, "pass": not bad}


# ---------------------------------------------------------------------------
# 2x2 LMI for gradient-descent distance contraction

def lmi_gd_distance(tau, gamma, mu, L):
    """The witness lambda >= 0 certifying ||x_{k+1}-x_star||^2 <= tau ||x_k-x_star||^2
    for one gd step of size gamma on every L-smooth, mu-strongly convex
    function, or None. The certificate, the contraction gap less
    lambda / (L - mu) times the interpolation inequality
    (L + mu) <g, x - x_star> >= ||g||^2 + mu L ||x - x_star||^2, is a 2x2 matrix
    M(lambda) that must be PSD. det M is concave in lambda (leading coefficient
    -1/4) and M's diagonal nondecreasing, so the one candidate is
    max(lambda_lo, vertex of det M), lambda_lo the smallest lambda >= 0 with a
    nonnegative diagonal. M is tested in the variables (x - x_star, g/L), where
    its entries are of order one at any L: its smallest eigenvalue must be
    >= -tol_for(1 + tau)."""
    if not (0 <= mu < L):
        raise InvalidArgument("need 0 <= mu < L")
    lam = gamma**2 * (L - mu)  # M's (2, 2) entry is >= 0 from here on
    if mu > 0:  # and its (1, 1) entry from here; at mu = 0 it is tau - 1 throughout
        lam = max(lam, (1.0 - tau) * (L - mu) / (mu * L))
    lam = max(lam, 2.0 * (tau - 1.0 - mu * L * gamma**2 + (L + mu) * gamma) / (L - mu))
    m11 = tau - 1.0 + mu * L * lam / (L - mu)
    m12 = L * (gamma - (L + mu) * lam / (2.0 * (L - mu)))
    m22 = L * L * (lam / (L - mu) - gamma**2)
    if 0.5 * (m11 + m22) - math.hypot(0.5 * (m11 - m22), m12) >= -tol_for(1.0 + tau):
        return lam
    return None
