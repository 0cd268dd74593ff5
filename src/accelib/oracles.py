"""Test-problem oracles, proximal maps, and the small vector-algebra contract.

An oracle bundles value/gradient (and optionally prox) for one function, the
smoothness/strong-convexity parameters it belongs to, and the optimum when it
is known in closed form. Oracles are safe to share: their one interior
mutation is the rotated quadratic's Q, rebuilt from its seed on the first
exact prox and kept, with the same bits whichever call builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, lapack_lite

from .errors import InvalidArgument, UnsupportedOracle


@dataclass(frozen=True)
class ClassParams:
    mu: float
    L: float

    def __post_init__(self):
        if not (0 <= self.mu <= self.L < np.inf) or self.L <= 0:
            raise InvalidArgument(f"need 0 <= mu <= L < inf, got mu={self.mu}, L={self.L}")

    @property
    def q(self):
        return self.mu / self.L

    @property
    def kappa(self):
        return np.inf if self.mu == 0 else self.L / self.mu


def class_params(oracle, mu=None, L=None):
    """(mu, L) for a driver: each as passed, else from `oracle.params`.
    Raises InvalidArgument when one is missing from both."""
    params = oracle.params
    if params is None and (mu is None or L is None):
        raise InvalidArgument(f"{oracle.name} has no class parameters; pass mu and L")
    return (params.mu if mu is None else mu), (params.L if L is None else L)


class ProblemOracle:
    """First-order oracle for a single function.

    value/gradient are required; prox is optional (None when unavailable).
    optimum fields (x_star, f_star) are None when unknown. `heb` carries the
    (r, mu_heb) pair of a Holderian error bound when one holds by construction.
    value/gradient also take a stack of points, one per row (a 2-D x), and
    return one value or gradient per row. The optional `values`/`gradients`
    arguments are row-stacked forms of the two functions; without them the
    rows are evaluated one at a time. The optional `value_from_gradient(x, g)`
    gives f(x) from x and the gradient g at x, for one point or row-stacked,
    with the arithmetic of `value`; `value_and_gradient` uses it.
    """

    def __init__(self, value, gradient, params=None, prox=None, x_star=None,
                 f_star=None, heb=None, is_quadratic=False, domain_indicator=None,
                 name="oracle", values=None, gradients=None, value_from_gradient=None):
        self._value = value
        self._gradient = gradient
        self._values = values
        self._gradients = gradients
        self._value_from_gradient = value_from_gradient
        self.params = params
        self._prox = prox
        self.x_star = None if x_star is None else np.asarray(x_star, dtype=float)
        self.f_star = f_star
        self.heb = heb
        self.is_quadratic = is_quadratic
        self.domain_indicator = domain_indicator
        self.name = name

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            if self._values is not None:
                return np.asarray(self._values(x), dtype=float)
            return np.array([self._value(r) for r in x], dtype=float)
        return float(self._value(x))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            if self._gradients is not None:
                return np.asarray(self._gradients(x), dtype=float)
            G = np.empty_like(x)
            for i, r in enumerate(x):
                G[i] = self._gradient(r)
            return G
        return np.asarray(self._gradient(x), dtype=float)

    def value_and_gradient(self, x):
        """(value(x), gradient(x)), for one point or a stack of rows, from one
        `gradient` call: the value comes from the gradient when the oracle has
        a value-from-gradient form (the quadratic's saves its Hessian product),
        and from `value` otherwise. Either way it equals `value(x)` exactly."""
        x = np.asarray(x, dtype=float)
        g = self.gradient(x)
        if self._value_from_gradient is None:
            return self.value(x), g
        f = self._value_from_gradient(x, g)
        return (np.asarray(f, dtype=float) if x.ndim == 2 else float(f)), g

    @property
    def has_prox(self):
        return self._prox is not None

    def prox(self, x, step):
        if self._prox is None:
            raise UnsupportedOracle(f"{self.name} has no prox")
        if step < 0:
            raise InvalidArgument("prox step must be >= 0")
        return np.asarray(self._prox(np.asarray(x, dtype=float), step), dtype=float)


@dataclass
class CompositeProblem:
    """F = f + h with smooth f and prox-friendly h."""

    smooth: ProblemOracle
    nonsmooth: ProblemOracle
    x_star: np.ndarray | None = None
    F_star: float | None = None

    def __post_init__(self):
        if not self.nonsmooth.has_prox:
            raise InvalidArgument("nonsmooth part must expose a prox")

    def objective(self, x):
        """F(x), or F at each row of a 2-D x."""
        return self.smooth.value(x) + self.nonsmooth.value(x)


def optimum(problem):
    """(objective, x_star, f_star) of a ProblemOracle or a CompositeProblem."""
    if isinstance(problem, CompositeProblem):
        return problem.objective, problem.x_star, problem.F_star
    return problem.value, problem.x_star, problem.f_star


# np.vdot without its __array_function__ dispatch: = np.linalg.norm's squared
# norm bit for bit (the same ddot), but unlike dot it does not warn on overflow
_vdot = getattr(np.vdot, "_implementation", np.vdot)

# rows per row-stacked reporting or certifying oracle call; bounds the stacked
# points and their images
_BATCH = 64


def in_blocks(fun, X, *more, rows=_BATCH):
    """fun over the rows of X, and the matching rows of each array in `more`,
    in blocks of at most `rows` rows; fun returns one value per row."""
    if len(X) <= rows:
        return fun(X, *more)
    return np.concatenate([fun(X[lo:lo + rows], *[A[lo:lo + rows] for A in more])
                           for lo in range(0, len(X), rows)])


# rows and columns per block of `_transpose_in_place`; each swap holds one block
_BLOCK = 128


def _transpose_in_place(a):
    """Transpose the square C-ordered array a in place, one pair of blocks
    at a time, so at most one block is held beside a."""
    d = len(a)
    for lo in range(0, d, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(lo + _BLOCK, d, _BLOCK):
            cols = slice(j, j + _BLOCK)
            block = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = block.T


def _gaussian_q(rng, d):
    """The Q factor of a d x d standard Gaussian drawn from rng, C-ordered,
    in the one d x d buffer the Gaussian was drawn into.

    The Gaussian is transposed in place, so the buffer holds it column-major;
    LAPACK's dgeqrf factors it in place and dorgqr turns the factorisation
    into Q, the routines `np.linalg.qr` calls, so Q has the same bits without
    that call's input copy and discarded R. A last in-place transpose makes Q
    C-ordered. No second d x d array is held at any point.
    """
    a = np.empty((d, d))
    rng.standard_normal(out=a)
    _transpose_in_place(a)
    tau = np.empty(d)
    for routine, args in ((lapack_lite.dgeqrf, (d, d, a, d, tau)),
                          (lapack_lite.dorgqr, (d, d, d, a, d, tau))):
        work = np.empty(1)
        routine(*args, work, -1, 0)  # workspace query
        work = np.empty(max(1, d, int(work[0])))
        info = routine(*args, work, work.size, 0)["info"]
        if info != 0:
            raise LinAlgError(f"{routine.__name__} returned info = {info}")
    _transpose_in_place(a)
    return a


def make_quadratic(eigs, x_star, f_star=0.0, seed=None):
    """f(x) = 1/2 <x - x_star; H (x - x_star)> + f_star.

    H is diagonal with the given eigenvalues; pass a seed (anything
    `np.random.default_rng` takes) to conjugate it by a random orthogonal
    matrix Q so methods cannot exploit axis alignment. The rotated oracle
    keeps H = B B^T alone, with B = Q diag(sqrt(eigs)): Q comes from LAPACK's
    QR done in place in the buffer a seeded Gaussian was drawn into
    (`_gaussian_q`), B is written over Q, one `syrk` gives H (exactly
    symmetric), and B is dropped, so the build holds at most two d x d
    arrays. value, gradient and `hessian_matvec` cost one d x d product, their
    row-stacked forms one matrix-matrix product; `value_and_gradient` costs one
    too, taking f = 1/2 <x - x_star, grad f(x)> + f_star from the gradient. The
    prox is exact and uses the factored form,
    prox_{lam f}(x) = x_star + Q (I + lam diag(eigs))^{-1} Q^T (x - x_star):
    two d x d products. Only the prox reads Q, so its first call rebuilds Q,
    with the build's bits, by replaying the seed's bit-generator state taken
    before the draw (a passed-in Generator is not advanced again), and keeps
    it. Raises InvalidArgument when H is not finite.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.size == 0:
        raise InvalidArgument("eigs must be nonempty")
    if (eigs <= 0).any():
        raise InvalidArgument("eigs must be positive")
    x_star = np.asarray(x_star, dtype=float)
    d = eigs.size
    if x_star.shape != (d,):
        raise InvalidArgument("x_star dimension must match eigs")

    Q = H = None
    if seed is not None:
        rng = np.random.default_rng(seed)
        bit_generator, state = type(rng.bit_generator), rng.bit_generator.state
        B = _gaussian_q(rng, d)
        B *= np.sqrt(eigs)
        with np.errstate(over="ignore", invalid="ignore"):
            H = B @ B.T
        del B  # before the finiteness mask, so the peak stays at B and H
        if not np.isfinite(H).all():
            raise InvalidArgument("the rotated Hessian overflows; eigenvalues too large")

    def rotation():  # Q, rebuilt from the seed's state on the first call, then kept
        nonlocal Q
        if Q is None:
            replay = np.random.Generator(bit_generator())
            replay.bit_generator.state = state
            Q = _gaussian_q(replay, d)
        return Q

    def hess(V):  # H v, or H v_i for each row v_i of a 2-D V (H is symmetric)
        return eigs * V if H is None else V @ H

    def gradient(x):  # also one gradient per row of a 2-D x
        return hess(x - x_star)

    def half_dot(w, g):  # f from w = x - x_star and g = H w, per row of a 2-D w
        if w.ndim == 2:
            return 0.5 * np.einsum("ij,ij->i", w, g) + f_star
        return 0.5 * np.dot(w, g) + f_star

    def value_from_gradient(x, g):
        return half_dot(x - x_star, g)

    def value(x):  # value_from_gradient(x, gradient(x)), forming x - x_star once
        w = x - x_star
        return half_dot(w, hess(w))

    def prox(x, lam):
        w = x - x_star
        if H is None:
            return x_star + w / (1.0 + lam * eigs)
        rot = rotation()
        return x_star + rot @ ((rot.T @ w) / (1.0 + lam * eigs))

    params = ClassParams(float(eigs.min()), float(eigs.max()))
    oracle = ProblemOracle(value, gradient, params=params, prox=prox,
                           x_star=x_star, f_star=f_star, is_quadratic=True,
                           name="quadratic", values=value, gradients=gradient,
                           value_from_gradient=value_from_gradient)
    oracle.hessian_matvec = lambda v: hess(np.asarray(v, dtype=float))
    return oracle


def make_huber(tau, L, d):
    """Coordinatewise Huber loss with optimum at 0.

    Quadratic (L/2) x_i^2 on |x_i| <= tau, affine L*tau*|x_i| - L*tau^2/2
    outside; the affine constant is the one making value and gradient agree
    at |x_i| = tau.
    """
    if tau <= 0:
        raise InvalidArgument("tau must be > 0")
    if L <= 0:
        raise InvalidArgument("L must be > 0")
    a, half_L = L * tau, 0.5 * L
    offset = half_L * tau * tau

    def value(x):  # also one value per row of a 2-D x
        ax = np.abs(x)
        return np.add.reduce(np.where(ax <= tau, half_L * x * x, a * ax - offset), axis=-1)

    def gradient(x):  # coordinatewise, so also row-stacked
        ax = np.abs(x)
        return np.where(ax <= tau, L * x, a * np.sign(x))

    oracle = ProblemOracle(value, gradient, params=ClassParams(0.0, float(L)),
                           x_star=np.zeros(d), f_star=0.0, name="huber",
                           values=value, gradients=gradient)
    oracle.tau = float(tau)
    return oracle


def make_heb_power(r, d):
    """f(x) = ||x||^r / r; satisfies the Holderian bound (mu/r) ||x||^r <= f - f*
    with mu = 1, with equality everywhere.

    Smooth only locally for r > 2: on a ball of radius R the gradient is
    Lipschitz with constant (r-1) R^(r-2), reported by smoothness_on_ball.
    """
    if r < 2:
        raise InvalidArgument("r must be >= 2")

    def value(x):
        return np.linalg.norm(x) ** r / r

    def gradient(x):
        n = np.linalg.norm(x)
        if n == 0.0:
            return np.zeros_like(x)
        return n ** (r - 2) * x

    def values(X):
        return np.linalg.norm(X, axis=1) ** r / r

    def gradients(X):  # 0 ** (r - 2) * 0 is 0 for r >= 2, so rows at 0 need no case
        return np.linalg.norm(X, axis=1, keepdims=True) ** (r - 2) * X

    params = ClassParams(1.0, 1.0) if r == 2 else None
    oracle = ProblemOracle(value, gradient, params=params,
                           x_star=np.zeros(d), f_star=0.0, heb=(float(r), 1.0),
                           name=f"power{r}", values=values, gradients=gradients)
    oracle.smoothness_on_ball = lambda R: (r - 1) * R ** (r - 2)
    return oracle


def prox_l1(x, weight):
    """Soft-thresholding: prox of weight * ||.||_1."""
    if weight < 0:
        raise InvalidArgument("weight must be >= 0")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * np.maximum(np.abs(x) - weight, 0.0)


def project_simplex(x):
    """Euclidean projection onto {x >= 0, sum x = 1}."""
    x = np.asarray(x, dtype=float)
    u = np.sort(x)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, x.size + 1)
    cond = u - (css - 1.0) / ks > 0
    rho = ks[cond][-1]
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(x - theta, 0.0)


def make_l1(weight, d):
    """h(x) = weight * ||x||_1 with its exact prox."""
    if weight < 0:
        raise InvalidArgument("weight must be >= 0")

    def value(x):  # also one value per row of a 2-D x
        return weight * np.sum(np.abs(x), axis=-1)

    def gradient(x):
        raise UnsupportedOracle("l1 term is nonsmooth")

    return ProblemOracle(value, gradient, prox=lambda x, lam: prox_l1(x, lam * weight),
                         domain_indicator=lambda x: True, name="l1", values=value)


def make_simplex_indicator(d, tol=1e-9):
    """Indicator of the unit simplex; prox is the Euclidean projection."""

    def members(X):  # one flag per row of a 2-D X, or one for a point
        return (np.abs(np.sum(X, axis=-1) - 1.0) <= tol) & (np.min(X, axis=-1) >= -tol)

    def member(x):
        return bool(members(x))

    def gradient(x):
        raise UnsupportedOracle("indicator is nonsmooth")

    return ProblemOracle(lambda x: 0.0 if member(x) else np.inf, gradient,
                         prox=lambda x, lam: project_simplex(x), domain_indicator=member,
                         name="simplex", values=lambda X: np.where(members(X), 0.0, np.inf))


def make_zero(d):
    """h identically zero (prox = identity); turns composite drivers smooth."""
    return ProblemOracle(lambda x: 0.0, lambda x: np.zeros(d),
                         prox=lambda x, lam: x, domain_indicator=lambda x: True,
                         name="zero", values=lambda X: np.zeros(len(X)),
                         gradients=np.zeros_like)


def bregman_divergence(dgf, a, b):
    """D_w(a; b) for the supported distance-generating functions, or
    D_w(a; b_i) for each row b_i of a 2-D b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if dgf == "euclidean":
        return 0.5 * np.sum((a - b) ** 2, axis=-1)
    if dgf == "entropy":
        mask = a > 0
        return (np.sum(a[mask] * np.log(a[mask] / b[..., mask]), axis=-1)
                + np.sum(b - a, axis=-1))
    raise InvalidArgument(f"unknown dgf {dgf!r}")


def finite_diff_gradient(oracle, x, h):
    """Central finite differences, one coordinate at a time."""
    if h <= 0:
        raise InvalidArgument("h must be > 0")
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2 * h)
    return g
