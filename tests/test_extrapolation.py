import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accelib import extrapolation as ex, oracles, poly_methods as pm
from accelib.errors import DivergedError, InvalidArgument, SingularSystemError


def test_solve_pivot_matches_reference():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    b = rng.standard_normal(6)
    assert np.allclose(ex.solve_pivot(A, b), np.linalg.solve(A, b), atol=1e-10)


def test_solve_pivot_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularSystemError):
        ex.solve_pivot(A, np.ones(2))


@settings(deadline=None, max_examples=60)
@given(n=st.integers(1, 6), extra=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_solvers_match_numpy_on_full_rank(n, extra, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n + extra, n))
    b = rng.standard_normal(n + extra)
    want = np.linalg.lstsq(A, b, rcond=None)[0]
    tol = 1e-12 * np.linalg.cond(A) * max(np.linalg.norm(want), 1.0)
    assert np.allclose(ex.lstsq_qr(A, b), want, rtol=0.0, atol=tol)
    if extra == 0:
        assert np.allclose(ex.solve_pivot(A, b), want, rtol=0.0, atol=tol)


@settings(deadline=None, max_examples=60)
@given(n=st.integers(2, 6), rank=st.integers(1, 5), extra=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_solvers_reject_rank_deficient_systems(n, rank, extra, seed):
    rank = min(rank, n - 1)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n + extra, rank)) @ rng.standard_normal((rank, n))
    b = rng.standard_normal(n + extra)
    with pytest.raises(SingularSystemError):
        ex.lstsq_qr(A, b)
    if extra == 0:
        with pytest.raises(SingularSystemError):
            ex.solve_pivot(A, b)


@settings(deadline=None, max_examples=30)
@given(m=st.integers(1, 5), extra=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_lstsq_qr_rejects_wide_systems(m, extra, seed):
    rng = np.random.default_rng(seed)
    with pytest.raises(SingularSystemError):
        ex.lstsq_qr(rng.standard_normal((m, m + extra)), rng.standard_normal(m))


def test_spectral_norm_power_iteration():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((5, 5))
    M = B @ B.T
    want = np.linalg.norm(M, 2)
    assert ex.spectral_norm(M) == pytest.approx(want, rel=1e-6)


def test_offline_na_two_orthonormal_gradients():
    # two points with orthonormal gradients: minimizing ||Gc|| with sum(c)=1
    # gives c = (1/2, 1/2) (computed by hand from the normal equations)
    buf = ex.PairBuffer()
    buf.append(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    buf.append(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    res = ex.offline_na(buf)
    assert np.allclose(res.c, [0.5, 0.5], atol=1e-12)
    assert abs(res.c.sum() - 1.0) <= 1e-12


def test_offline_na_exact_recovery_full_krylov(quad_6):
    x0 = np.full(6, 1.5)
    tr = pm.gradient_descent(quad_6, 2.0 / 11.0, x0, 6)
    buf = ex.PairBuffer()
    for rec in tr.records:
        buf.append(rec.x, quad_6.gradient(rec.x))
    res = ex.offline_na(buf)
    x_extr = res.x_extr
    scale = np.linalg.norm(quad_6.gradient(x0))
    assert np.linalg.norm(quad_6.gradient(x_extr)) <= 1e-9 * scale


def test_rna_weights_sum_to_one_and_limit(quad_6):
    x0 = np.full(6, 1.5)
    tr = pm.gradient_descent(quad_6, 1.0 / 10.0, x0, 4)
    buf = ex.PairBuffer()
    for rec in tr.records:
        buf.append(rec.x, quad_6.gradient(rec.x))
    off = ex.offline_na(buf)
    for lam in (1e-12, 1e-6, 1.0):
        res = ex.rna(buf, h=0.0, lam=lam)
        assert res.c.sum() == pytest.approx(1.0, abs=1e-10)
    # lam -> 0 recovers the unregularized weights
    res = ex.rna(buf, h=0.0, lam=1e-14)
    assert np.allclose(res.c, off.c, atol=1e-4)
    # large lam pulls weights toward the uniform reference
    res = ex.rna(buf, h=0.0, lam=1e12)
    assert np.allclose(res.c, np.full(5, 0.2), atol=1e-6)


def test_na_mixing_moves_along_gradients(quad_6):
    buf = ex.PairBuffer()
    x = np.full(6, 1.5)
    for _ in range(3):
        g = quad_6.gradient(x)
        buf.append(x, g)
        x = x - 0.1 * g
    res = ex.na_mixing(buf, h=0.1)
    # mixing h subtracts h * (combined gradient) from the combination
    plain = ex.na_mixing(buf, h=0.0)
    diff = plain.x_extr - res.x_extr
    assert np.allclose(diff, 0.1 * res.c @ buf.G, atol=1e-10)
    assert np.allclose(plain.x_extr, plain.c @ buf.X, atol=1e-10)


def test_mixing_weights_do_not_depend_on_step(quad_6):
    # online_rna solves c once per step and line-searches h on c @ (X - h G)
    x0 = np.full(6, 1.5)
    tr = pm.gradient_descent(quad_6, 1.0 / 10.0, x0, 4)
    buf = ex.PairBuffer()
    for rec in tr.records:
        buf.append(rec.x, quad_6.gradient(rec.x))
    for weights in (lambda h: ex.rna(buf, h, 1e-6).c, lambda h: ex.na_mixing(buf, h).c):
        for h in (0.1, 1.0):
            assert np.array_equal(weights(h), weights(0.0))


@pytest.mark.parametrize("driver", ["online_rna", "prox_rna"])
def test_unregularized_extrapolation_falls_back_past_d_plus_one_pairs(driver):
    # with lam = 0 and more than d + 1 buffered pairs the difference system is
    # wide; each such step must take the flagged gradient step, not crash
    p = oracles.make_quadratic([1.0, 4.0, 9.0], np.array([1.0, -2.0, 0.5]), seed=3)
    x0 = np.array([2.0, -1.0, 3.0])
    if driver == "online_rna":
        tr = ex.online_rna(p, x0, h=1.0 / 9.0, lam=0.0, m=5, N=20)
    else:
        comp = oracles.CompositeProblem(p, oracles.make_zero(3))
        tr = ex.prox_rna(comp, x0, gamma=1.0 / 9.0, lam=0.0, N=20)
    assert len(tr.records) == 21
    assert [r.state["fallback"] for r in tr.records[1:]] == [False] * 4 + [True] * 16
    assert tr.final.f_gap <= 1e-12 * p.value(x0)


def test_online_rna_converges(quad_6):
    x0 = np.full(6, 1.5)
    tr = ex.online_rna(quad_6, x0, h=0.1, lam=1e-8, m=5, N=25)
    assert tr.final.f_gap <= 1e-8 * quad_6.value(x0)
    assert len(tr.records) == 26


def test_online_rna_safeguard_descent(quad_6):
    x0 = np.full(6, 1.5)
    tr = ex.online_rna(quad_6, x0, h=0.1, lam=1e-8, m=5, N=25, safeguard="descent")
    vals = [quad_6.value(r.x) for r in tr.records]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


def test_online_rna_requires_memory(quad_6):
    with pytest.raises(InvalidArgument):
        ex.online_rna(quad_6, np.ones(6), h=0.1, lam=1e-8, m=0, N=5)


def test_pair_buffer_capacity():
    buf = ex.PairBuffer(capacity=3)
    for i in range(5):
        buf.append(np.array([float(i)]), np.array([float(i)]))
    assert len(buf) == 3
    assert buf.X[0][0] == 2.0


def test_prox_rna_matches_online_rna_on_smooth():
    # zero nonsmooth part and h=0: prox variant reproduces the smooth driver
    rng = np.random.default_rng(2)
    p = oracles.make_quadratic([1.0, 4.0, 9.0], rng.standard_normal(3), seed=2)
    comp = oracles.CompositeProblem(p, oracles.make_zero(3))
    x0 = rng.standard_normal(3)
    gamma = 1.0 / 9.0
    a = ex.prox_rna(comp, x0, gamma=gamma, lam=1e-9, N=12, m=12)
    b = ex.online_rna(p, x0, h=gamma, lam=1e-9, m=12, N=12)
    for ra, rb in zip(a.records, b.records):
        assert np.allclose(ra.x, rb.x, atol=1e-9)


def test_prox_rna_lasso_converges():
    rng = np.random.default_rng(4)
    p = oracles.make_quadratic([1.0, 5.0, 10.0], rng.standard_normal(3), seed=4)
    comp = oracles.CompositeProblem(p, oracles.make_l1(0.05, 3))
    x0 = np.zeros(3)
    tr = ex.prox_rna(comp, x0, gamma=0.1, lam=1e-8, N=40)
    vals = [comp.objective(r.x) for r in tr.records]
    assert vals[-1] <= min(vals[:5]) + 1e-12
    # prox-gradient fixed point: small composite gradient mapping at the end
    x = tr.final.x
    mapped = comp.nonsmooth.prox(x - 0.1 * p.gradient(x), 0.1)
    assert np.linalg.norm(mapped - x) <= 1e-3


@pytest.mark.parametrize("lam", [1e-8, 0.0])
def test_online_rna_descent_evaluates_no_point_twice(lam):
    # f(x_i) is kept beside each buffered pair instead of being evaluated
    # again at every step
    rng = np.random.default_rng(11)
    p = oracles.make_quadratic(np.linspace(1.0, 50.0, 8), rng.standard_normal(8), seed=11)
    seen = {"value": [], "gradient": []}
    for name, kind in (("value", "value"), ("value_and_gradient", "value"),
                       ("gradient", "gradient")):
        fn = getattr(p, name)

        def spy(x, fn=fn, kind=kind):
            if np.ndim(x) == 1:  # the run's calls; the fill's are row-stacked
                seen[kind].append(np.asarray(x).tobytes())
            return fn(x)

        setattr(p, name, spy)
    tr = ex.online_rna(p, rng.standard_normal(8), 1.0 / 50.0, lam, 4, 30, safeguard="descent")
    fallbacks = [r.state["fallback"] for r in tr.records[1:]]
    assert any(fallbacks) and not all(fallbacks)  # both outcomes of the test
    values, grads = seen["value"], seen["gradient"]
    assert len(values) == len(set(values)) and len(grads) == len(set(grads))
    assert (tr.final.value_calls, tr.final.grad_calls) == (len(values), len(grads))


INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section_reference(fun, a, b, evals=20):
    """Golden-section search spending `evals` evaluations: the routine that
    `minimize_unimodal` replaced, kept as the reference for its bound."""
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(evals - 2):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = fun(d)
    return c if fc < fd else d


def argmin_by_slope(slope, a, b):
    """The minimiser on [a, b] of a convex function whose derivative is
    `slope`: an end of [a, b], or the root of the slope by bisection down to
    adjacent doubles."""
    if slope(a) >= 0.0:
        return a
    if slope(b) <= 0.0:
        return b
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return mid
        if slope(mid) < 0.0:
            a = mid
        else:
            b = mid


def line_function(kind, rng, c):
    """A 1-D strongly convex function and its derivative: c (t - t0)^2 + k,
    or a Huber loss restricted to a line or log-sum-exp along a line, each
    plus c t^2."""
    if kind == "quadratic":
        t0, k = rng.uniform(-8.0, 8.0), rng.uniform(-10.0, 10.0)
        return lambda t: c * (t - t0) ** 2 + k, lambda t: 2.0 * c * (t - t0)
    d = int(rng.integers(1, 9))
    w, g = rng.uniform(-3.0, 3.0, d), rng.uniform(-3.0, 3.0, d)
    if kind == "huber":
        h = oracles.make_huber(rng.uniform(0.05, 2.0), rng.uniform(0.1, 5.0), d)
        return (lambda t: h.value(w - t * g) + c * t * t,
                lambda t: -float(g @ h.gradient(w - t * g)) + 2.0 * c * t)

    def lse(t):
        z = w + t * g
        top = z.max()
        return top + np.log(np.exp(z - top).sum()) + c * t * t

    def lse_slope(t):
        e = np.exp(w + t * g - (w + t * g).max())
        return float(e @ g / e.sum()) + 2.0 * c * t

    return lse, lse_slope


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(["quadratic", "huber", "log-sum-exp"]),
       seed=st.integers(0, 2**32 - 1), evals=st.integers(2, 24),
       a=st.floats(-4.0, 4.0), width=st.floats(0.5, 8.0), c=st.floats(0.1, 10.0))
def test_minimize_unimodal_meets_the_golden_section_bound(kind, seed, evals, a, width, c):
    # at most `evals` evaluations, all in [a, b], and a result within
    # (b - a) phi^-(evals - 2) of the minimiser: the bracket golden section
    # leaves after `evals` evaluations, a bound the reference meets too.
    # Up to 24 evaluations the bound stays above the rounding floor of f near
    # its minimiser; at 38 the reference misses it on kind="huber", seed=41,
    # a=0, width=1, c=1, where its result's f is 1 ulp above the minimum
    fun, slope = line_function(kind, np.random.default_rng(seed), c)
    b = a + width
    t_star = argmin_by_slope(slope, a, b)
    bound = (b - a) * INVPHI ** (evals - 2)
    points = []
    t = ex.minimize_unimodal(lambda u: points.append(u) or fun(u), a, b, evals)
    assert 1 <= len(points) <= evals and all(a <= u <= b for u in points)
    assert t in points and fun(t) == min(map(fun, points))  # the best point evaluated
    assert abs(t - t_star) <= bound
    assert abs(golden_section_reference(fun, a, b, evals) - t_star) <= bound


@pytest.mark.parametrize("lam", [1e-8, 0.0])
@pytest.mark.parametrize("driver", ["online_rna", "prox_rna"])
def test_overflowing_pair_buffer_raises_diverged_with_the_partial_trace(driver, lam):
    # a step far beyond 2/L blows the buffered gradients up; the Gram matrix
    # overflows before any iterate does, and the solve must not escape as
    # numpy's LinAlgError ("Eigenvalues did not converge", "SVD did not
    # converge")
    p = oracles.make_quadratic([1.0, 4.0, 9.0], np.array([1.0, -2.0, 0.5]), seed=3)
    x0 = np.array([2.0, -1.0, 3.0])
    with np.errstate(all="ignore"), pytest.raises(DivergedError) as exc:
        if driver == "online_rna":
            ex.online_rna(p, x0, h=100.0, lam=lam, m=3, N=400)
        else:
            comp = oracles.CompositeProblem(p, oracles.make_zero(3))
            ex.prox_rna(comp, x0, gamma=100.0, lam=lam, N=400, m=3)
    tr = exc.value.trace
    assert tr is not None and 1 < len(tr) < 401
    assert np.isfinite(tr.x).all()


def qr_weights_reference(G, lam, c_ref):
    """The Gram solve the eigendecomposition replaced, kept as the reference:
    lam = 0 solves offline_na's G G^T z = 1 by `lstsq_qr`, lam > 0 rna's two
    systems in G G^T / ||G G^T||_2 + lam I."""
    k = len(G)
    GtG = G @ G.T
    if lam == 0:
        z = ex.lstsq_qr(GtG, np.ones(k))
        return z / np.sum(z)
    norm = float(np.linalg.eigvalsh(GtG)[-1])
    if norm > 0:
        GtG = GtG / norm
    w, z = ex.lstsq_qr(GtG + lam * np.eye(k), np.column_stack([lam * c_ref, np.ones(k)])).T
    return w + z * (1.0 - np.sum(w)) / np.sum(z)


@settings(deadline=None, max_examples=400)
@given(k=st.integers(1, 8), d=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(0.0, 8.0), lam=st.one_of(st.just(0.0), st.floats(-12.0, 0.0)))
def test_eigen_weights_match_the_qr_reference(k, d, seed, spread, lam):
    # gradients whose rows differ in scale by up to 10^spread, so the Gram
    # matrix runs from well conditioned to singular (always when k > d)
    lam = 0.0 if lam == 0.0 else 10.0 ** lam
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-spread / 2, spread / 2, (k, 1))
    c_ref = rng.dirichlet(np.ones(k))
    GtG = G @ G.T
    A = GtG / np.linalg.norm(GtG, 2) + lam * np.eye(k)
    sv = np.linalg.svd(A, compute_uv=False)
    ratio = sv[-1] / sv[0]
    try:
        want = qr_weights_reference(G, lam, c_ref)
    except SingularSystemError:
        want = None
    try:
        got = ex._weights(*ex._gram_eigh(G), lam, c_ref)
    except SingularSystemError:
        got = None
    if ratio < 1e-14:
        assert want is None and got is None
    elif ratio > 1e-12:
        assert want is not None and got is not None
    if want is None or got is None:
        return
    assert abs(np.sum(got) - 1.0) <= 1e-12
    scale = max(1.0, np.abs(want).max()) ** 2
    assert np.abs(got - want).max() <= 64 * k * np.finfo(float).eps * scale / ratio


def test_one_eigendecomposition_per_extrapolation(monkeypatch, quad_6):
    # a nonsingular rna/offline_na/na_mixing call makes one eigh and no other
    # dense factorisation or solve
    x0 = np.full(6, 1.5)
    tr = pm.gradient_descent(quad_6, 1.0 / 10.0, x0, 4)
    buf = ex.PairBuffer()
    for rec in tr.records:
        buf.append(rec.x, quad_6.gradient(rec.x))
    calls = []
    for name in ("eigh", "eigvalsh", "qr", "svd", "solve", "lstsq", "inv"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, name=name, fn=fn, **kw: calls.append(name) or fn(*a, **kw))
    for extrapolate in (lambda: ex.rna(buf, 0.1, 1e-8), lambda: ex.offline_na(buf),
                        lambda: ex.na_mixing(buf, 0.1)):
        calls.clear()
        extrapolate()
        assert calls == ["eigh"]


def test_pair_buffer_stacks_read_only_copies():
    buf = ex.PairBuffer(capacity=2)
    x = np.array([1.0, 2.0])
    buf.append(x, -x)
    x[0] = 9.0  # the buffer holds a copy
    buf.append(x, -x)
    buf.append(2 * x, -2 * x)
    assert np.array_equal(buf.X, [[9.0, 2.0], [18.0, 4.0]])
    assert np.array_equal(buf.G, -buf.X)
    assert buf.X is buf.X  # stacked once per append, not per access
    with pytest.raises(ValueError):
        buf.X[0, 0] = 0.0


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(["quadratic", "huber", "log-sum-exp"]),
       seed=st.integers(0, 2**32 - 1), evals=st.integers(3, 24),
       a=st.floats(-4.0, 4.0), width=st.floats(0.5, 8.0), c=st.floats(0.1, 10.0))
def test_search_from_edge_takes_the_edge_in_two_evaluations(kind, seed, evals, a, width, c):
    # a minimiser at the end of the bracket costs 2 evaluations and returns
    # that end; any other stays within the golden-section bound of
    # `minimize_unimodal`, after at most evals + 2 evaluations
    fun, slope = line_function(kind, np.random.default_rng(seed), c)
    b = a + width
    t_star = argmin_by_slope(slope, a, b)
    points = []
    t = ex._search_from_edge(lambda u: points.append(u) or fun(u), a, b, evals)
    assert len(points) <= evals + 2 and all(a <= u <= b for u in points)
    assert abs(t - t_star) <= (b - a) * INVPHI ** (evals - 2)
    if t_star == b:
        assert t == b and len(points) == 2


def test_online_rna_linesearch_pays_two_values_at_the_bracket_edge(monkeypatch):
    # the workload's instance (d = 100, kappa = 100, h = 1/L, m = 8): most
    # searches end at the edge 4h of the bracket and cost 2 value calls, the
    # others 2 plus those of their `minimize_unimodal`
    rng = np.random.default_rng(7)
    p = oracles.make_quadratic(np.linspace(0.1, 10.0, 100), rng.standard_normal(100), seed=7)
    searches = []  # the points each `minimize_unimodal` call evaluated
    inner = ex.minimize_unimodal

    def spy(fun, a, b, evals):
        points = []
        searches.append(points)
        return inner(lambda u: points.append(u) or fun(u), a, b, evals)

    monkeypatch.setattr(ex, "minimize_unimodal", spy)
    tr = ex.online_rna(p, rng.standard_normal(100), h=0.1, lam=1e-8, m=8, N=15,
                       safeguard="linesearch")
    per_step = np.diff([r.value_calls for r in tr.records])
    assert per_step.min() == 2
    assert sorted(per_step[per_step > 2] - 2) == sorted(map(len, searches))
    assert np.sum(per_step == 2) >= 8 and len(searches) >= 1
    assert tr.final.value_calls == 2 * 15 + sum(map(len, searches))


def _negative_lam_problem():
    # the repro: a d = 3 rotated quadratic, m = 3, five steps
    p = oracles.make_quadratic([1.0, 4.0, 9.0], np.array([1.0, -2.0, 0.5]), seed=3)
    return p, np.array([2.0, -1.0, 3.0])


@pytest.mark.parametrize("lam", [-1.0, -1e-300, float("nan")])
def test_online_and_prox_rna_refuse_a_negative_lambda(lam):
    p, x0 = _negative_lam_problem()
    with pytest.raises(InvalidArgument, match="lambda"):
        ex.online_rna(p, x0, h=1 / 9, lam=lam, m=3, N=5)
    prob = oracles.CompositeProblem(p, oracles.make_zero(3))
    with pytest.raises(InvalidArgument, match="lambda"):
        ex.prox_rna(prob, x0, gamma=1 / 9, lam=lam, N=5, m=3)


def test_zero_lambda_still_selects_the_unregularized_weights():
    p, x0 = _negative_lam_problem()
    tr = ex.online_rna(p, x0, h=1 / 9, lam=0.0, m=3, N=5)
    prob = oracles.CompositeProblem(p, oracles.make_zero(3))
    tr_prox = ex.prox_rna(prob, x0, gamma=1 / 9, lam=0.0, N=5, m=3)
    assert tr.meta["lambda"] == tr_prox.meta["lambda"] == 0.0
    # both step with offline mixing from the same pairs
    np.testing.assert_allclose(tr_prox.x, tr.x, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("lam, m", [(0.0, None), (0.0, 3), (1e-15, None), (1e-8, 4)])
def test_prox_rna_steps_to_the_extrapolation_of_its_pairs(lam, m):
    # the z-sequence, read off the prox's inputs, is rna's x_extr (na_mixing's
    # at lam = 0) of the pairs the run buffered, bit for bit; a singular
    # solve gives the flagged step z_k - gamma g_k
    p = oracles.make_quadratic([1.0, 4.0, 9.0], np.array([1.0, -2.0, 0.5]), seed=3)
    l1 = oracles.make_l1(0.05, 3)
    prox, zs = l1.prox, []
    l1.prox = lambda z, t: zs.append(z) or prox(z, t)
    gamma, x0 = 1 / 9, np.array([2.0, -1.0, 3.0])
    tr = ex.prox_rna(oracles.CompositeProblem(p, l1), x0, gamma=gamma, lam=lam, N=20, m=m)
    assert len(zs) == 20
    buf, z, fallbacks = ex.PairBuffer(capacity=m), x0, []
    for x, z_next in zip(tr.x, zs):
        g = (gamma * p.gradient(x) + z - x) / gamma
        buf.append(z, g)
        try:
            want = (ex.rna(buf, gamma, lam) if lam > 0 else ex.na_mixing(buf, gamma)).x_extr
            fallbacks.append(False)
        except SingularSystemError:
            want = z - gamma * g
            fallbacks.append(True)
        assert want.tobytes() == z_next.tobytes()
        z = z_next
    assert [r.state["fallback"] for r in tr.records[1:]] == fallbacks
    assert any(fallbacks) == (lam < 1e-13)


def test_rna_refuses_a_malformed_reference_or_lambda():
    rng = np.random.default_rng(0)
    buf = ex.PairBuffer()
    for _ in range(3):
        buf.append(rng.standard_normal(4), rng.standard_normal(4))
    for c_ref in ([0.5, 0.5], [0.25] * 4, [[1 / 3] * 3], [np.nan, 0.5, 0.5], [0.5, 0.6, 0.1]):
        with pytest.raises(InvalidArgument, match="c_ref"):
            ex.rna(buf, 0.1, 1e-3, c_ref=c_ref)
    assert np.sum(ex.rna(buf, 0.1, 1e-3, c_ref=[0.2, 0.3, 0.5]).c) == pytest.approx(1.0)
    with pytest.raises(InvalidArgument, match="lambda"):
        ex.rna(buf, 0.1, float("nan"))
