import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accelib import oracles
from accelib.errors import InvalidArgument, UnsupportedOracle


def test_quadratic_frozen_values():
    p = oracles.make_quadratic([1.0, 10.0], np.zeros(2))
    x = np.array([1.0, 1.0])
    # f(x) = (1*1 + 10*1)/2, gradient = (1, 10), independently computed
    assert p.value(x) == pytest.approx(5.5, abs=1e-12)
    assert np.allclose(p.gradient(x), [1.0, 10.0], atol=1e-12)
    assert p.params.mu == pytest.approx(1.0)
    assert p.params.L == pytest.approx(10.0)
    assert p.f_star == 0.0
    # prox_{lam f}(x) = (I + lam H)^{-1} x for lam = 1: (1/2, 1/11)
    assert np.allclose(p.prox(x, 1.0), [0.5, 1.0 / 11.0], atol=1e-12)


def test_quadratic_rotation_preserves_spectrum_and_optimum():
    rng = np.random.default_rng(3)
    xs = rng.standard_normal(5)
    p = oracles.make_quadratic(np.arange(1, 6, dtype=float), xs, seed=3)
    assert np.allclose(p.gradient(xs), 0.0, atol=1e-12)
    assert p.value(xs) == pytest.approx(0.0, abs=1e-14)
    # gradient Lipschitz constant equals the top eigenvalue
    v = rng.standard_normal(5)
    assert np.linalg.norm(p.hessian_matvec(v)) <= 5.0 * np.linalg.norm(v) + 1e-12


def test_huber_frozen_values():
    p = oracles.make_huber(0.1, 1.0, 1)
    x = np.array([1.0])
    # outer branch: L*tau*|x| - L*tau^2/2 = 0.1 - 0.005
    assert p.value(x) == pytest.approx(0.095, abs=1e-12)
    assert p.gradient(x)[0] == pytest.approx(0.1, abs=1e-12)
    # quadratic branch at |x| <= tau
    y = np.array([0.05])
    assert p.value(y) == pytest.approx(0.5 * 0.05**2, abs=1e-15)
    assert p.gradient(y)[0] == pytest.approx(0.05, abs=1e-15)
    # continuity across the kink
    eps = 1e-9
    assert p.value(np.array([0.1 + eps])) == pytest.approx(
        p.value(np.array([0.1 - eps])), abs=1e-9
    )


def huber_value_reference(x, tau, L):
    """The Huber value as `make_huber` first wrote it."""
    ax = np.abs(x)
    return np.sum(np.where(ax <= tau, 0.5 * L * x * x, L * tau * ax - 0.5 * L * tau * tau),
                  axis=-1)


@settings(deadline=None, max_examples=200)
@given(d=st.integers(1, 40), rows=st.integers(0, 6), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-3.0, 3.0), tau=st.floats(1e-3, 1e3), L=st.floats(1e-3, 1e3))
def test_huber_value_equals_the_reference_bit_for_bit(d, rows, seed, log_scale, tau, L):
    # rows = 0: one 1-D point; else a stack of that many rows
    shape = (rows, d) if rows else (d,)
    x = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(shape)
    got = oracles.make_huber(tau, L, d).value(x)
    assert np.array_equal(got, huber_value_reference(x, tau, L))
    assert np.shape(got) == shape[:-1]


def test_heb_power_frozen_values():
    p = oracles.make_heb_power(4, 2)
    x = np.array([1.0, 0.0])
    assert p.value(x) == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(p.gradient(x), [1.0, 0.0], atol=1e-12)
    assert p.heb == (4, 1.0)
    assert p.smoothness_on_ball(2.0) == pytest.approx(3 * 4.0)
    with pytest.raises(InvalidArgument):
        oracles.make_heb_power(1, 2)


def test_heb_power_r2_is_strongly_convex_class():
    p = oracles.make_heb_power(2, 3)
    assert p.params.mu == pytest.approx(1.0)
    assert p.params.L == pytest.approx(1.0)


def test_prox_l1_frozen():
    got = oracles.prox_l1(np.array([2.0, -0.5]), 1.0)
    assert np.allclose(got, [1.0, 0.0], atol=1e-14)


def test_class_params_validation():
    with pytest.raises(InvalidArgument):
        oracles.ClassParams(-1.0, 1.0)
    with pytest.raises(InvalidArgument):
        oracles.ClassParams(2.0, 1.0)
    cp = oracles.ClassParams(1.0, 10.0)
    assert cp.q == pytest.approx(0.1)
    assert cp.kappa == pytest.approx(10.0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8))
def test_project_simplex_properties(vals):
    x = np.asarray(vals, dtype=float)
    p = oracles.project_simplex(x)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert (p >= -1e-12).all()
    # projection: p is the closest simplex point, so no simplex vertex improves
    d = np.linalg.norm(p - x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = 1.0
        assert d <= np.linalg.norm(e - x) + 1e-9


def test_simplex_indicator_prox_and_domain():
    p = oracles.make_simplex_indicator(3)
    y = p.prox(np.array([0.5, 0.5, -1.0]), 2.0)
    assert y.sum() == pytest.approx(1.0, abs=1e-12)
    assert p.value(y) == 0.0
    assert p.value(np.array([2.0, 0.0, 0.0])) == np.inf
    assert p.domain_indicator(np.array([0.2, 0.3, 0.5]))
    assert not p.domain_indicator(np.array([0.2, 0.3, 0.6]))


def test_l1_oracle_value_and_prox():
    p = oracles.make_l1(0.5, 2)
    assert p.value(np.array([1.0, -2.0])) == pytest.approx(1.5)
    lam = 2.0  # effective threshold lam * weight = 1
    assert np.allclose(p.prox(np.array([2.0, -0.5]), lam), [1.0, 0.0], atol=1e-14)


def test_finite_diff_matches_analytic_gradient():
    rng = np.random.default_rng(11)
    p = oracles.make_quadratic([1.0, 3.0, 9.0], rng.standard_normal(3), seed=11)
    x = rng.standard_normal(3)
    fd = oracles.finite_diff_gradient(p, x, 1e-6)
    assert np.allclose(fd, p.gradient(x), atol=1e-5)

    h = oracles.make_huber(0.1, 1.0, 3)
    fd = oracles.finite_diff_gradient(h, x, 1e-7)
    assert np.allclose(fd, h.gradient(x), atol=1e-5)


def test_composite_problem_objective():
    smooth = oracles.make_quadratic([1.0, 2.0], np.zeros(2))
    nonsmooth = oracles.make_l1(1.0, 2)
    cp = oracles.CompositeProblem(smooth, nonsmooth)
    x = np.array([1.0, -1.0])
    assert cp.objective(x) == pytest.approx(0.5 + 1.0 + 2.0)
    assert cp.smooth is smooth and cp.nonsmooth is nonsmooth


def _rotated_quad(d):
    return oracles.make_quadratic(np.linspace(1.0, 50.0, d), np.linspace(-1.0, 2.0, d),
                                  f_star=0.5, seed=d)


def _diag_quad(d):
    return oracles.make_quadratic(np.linspace(1.0, 50.0, d), np.linspace(-1.0, 2.0, d))


# (factory(d), has a gradient)
BATCHED = {
    "rotated_quadratic": (_rotated_quad, True),
    "diagonal_quadratic": (_diag_quad, True),
    "huber": (lambda d: oracles.make_huber(0.3, 2.0, d), True),
    "heb_power": (lambda d: oracles.make_heb_power(3.0, d), True),
    "l1": (lambda d: oracles.make_l1(0.7, d), False),
    "simplex": (lambda d: oracles.make_simplex_indicator(d), False),
    "zero": (oracles.make_zero, True),
    "composite": (lambda d: oracles.CompositeProblem(_rotated_quad(d),
                                                     oracles.make_l1(0.7, d)), False),
}


@pytest.mark.parametrize("kind", sorted(BATCHED))
@settings(max_examples=25, deadline=None)
@given(n=st.integers(0, 8), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([0.1, 1.0, 30.0]))
def test_batched_evaluations_match_pointwise(kind, n, d, seed, scale):
    factory, smooth = BATCHED[kind]
    f = factory(d)
    X = scale * np.random.default_rng(seed).standard_normal((n, d))
    if kind == "simplex":  # half the rows on the simplex, where h = 0
        A = np.abs(X[::2])
        X[::2] = A / A.sum(axis=1, keepdims=True)
    value = f.objective if kind == "composite" else f.value
    values = value(X)
    assert values.shape == (n,)
    want = np.array([value(x) for x in X], dtype=float)
    np.testing.assert_allclose(values, want, rtol=1e-12, atol=0)
    if smooth:
        G = f.gradient(X)
        assert G.shape == (n, d)
        for g, x in zip(G, X):
            ref = f.gradient(x)
            assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["huber", "heb_power", "l1", "simplex", "zero"])
def test_stacked_forms_do_not_loop_over_rows(kind):
    factory, smooth = BATCHED[kind]
    f = factory(4)
    X = np.random.default_rng(1).standard_normal((6, 4))
    X[::2] = np.abs(X[::2]) / np.abs(X[::2]).sum(axis=1, keepdims=True)  # on the simplex
    X[1] = 0.0
    want_values = [f.value(x) for x in X]
    want_grads = [f.gradient(x) for x in X] if smooth else None

    def pointwise(x):
        raise AssertionError("a stacked call evaluated one row at a time")

    f._value = f._gradient = pointwise
    np.testing.assert_allclose(f.value(X), want_values, rtol=1e-14, atol=0)
    if smooth:
        np.testing.assert_allclose(f.gradient(X), want_grads, rtol=1e-14, atol=0)


def test_simplex_stacked_form_keeps_the_membership_tolerance():
    h = oracles.make_simplex_indicator(3, tol=1e-6)
    X = np.array([[0.5, 0.5 + 5e-7, 0.0], [0.5, 0.5 + 2e-6, 0.0], [1.0, 0.0, -5e-7],
                  [1.0, 0.0, -2e-6]])
    assert h.value(X).tolist() == [0.0, np.inf, 0.0, np.inf]
    assert [h.value(x) for x in X] == [0.0, np.inf, 0.0, np.inf]


def _no_params():
    return oracles.make_heb_power(4, 12)


@pytest.mark.parametrize("run", [
    lambda mo, pm, cp, po: mo.fgm(_no_params(), np.ones(12), 30, L=3.0),
    lambda mo, pm, cp, po: mo.item(_no_params(), np.ones(12), 30, L=3.0),
    lambda mo, pm, cp, po: mo.tmm(_no_params(), np.ones(12), 30, L=3.0),
    lambda mo, pm, cp, po: mo.constant_momentum(_no_params(), np.ones(12), 30, L=3.0),
    lambda mo, pm, cp, po: mo.fgm(_no_params(), np.ones(12), 30, mu=0.0),
    lambda mo, pm, cp, po: mo.ogm(_no_params(), np.ones(12), 30),
    lambda mo, pm, cp, po: mo.monotone_wrap("fgm", _no_params(), np.ones(12), 30, L=3.0),
    lambda mo, pm, cp, po: mo.bregman_agm(
        oracles.CompositeProblem(_no_params(), oracles.make_zero(12)), np.ones(12), 30),
    lambda mo, pm, cp, po: cp.fista(
        oracles.CompositeProblem(_no_params(), oracles.make_zero(12)), np.ones(12), 30),
    lambda mo, pm, cp, po: pm.chebyshev(_no_params(), np.ones(12), 30, L=3.0),
    lambda mo, pm, cp, po: pm.heavy_ball(_no_params(), np.ones(12), 30, L=3.0),
    lambda mo, pm, cp, po: po.catalyst(_no_params(), "gd", 0.5, 30, np.ones(12)),
])
def test_drivers_without_class_params_raise_invalid_argument(run):
    from accelib import composite, momentum, poly_methods, prox_outer

    with pytest.raises(InvalidArgument, match="no class parameters"):
        run(momentum, poly_methods, composite, prox_outer)


def test_class_params_prefers_arguments():
    quad = oracles.make_quadratic([1.0, 10.0], np.zeros(2))
    assert oracles.class_params(quad) == (1.0, 10.0)
    assert oracles.class_params(quad, mu=0.0, L=20.0) == (0.0, 20.0)
    assert oracles.class_params(_no_params(), mu=0.5, L=3.0) == (0.5, 3.0)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("d", [1, 5, 200])
def test_rotated_quadratic_keeps_an_exactly_symmetric_hessian(d):
    Q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))  # the oracle's draw
    eigs = np.linspace(1.0, 50.0, d)
    rng = np.random.default_rng(d + 1)
    x_star = rng.standard_normal(d)
    p = oracles.make_quadratic(eigs, x_star, f_star=0.5, seed=d)
    H = p.hessian_matvec(np.eye(d))  # each row is H e_i = H's i-th row, exactly
    assert np.array_equal(H, H.T)
    H_ref = (Q * eigs) @ Q.T
    X = rng.standard_normal((7, d))
    for x in X:
        g = p.gradient(x)
        assert _rel(g, H_ref @ (x - x_star)) <= 1e-12
        assert _rel(p.hessian_matvec(x), H_ref @ x) <= 1e-12
        assert p.value(x) == pytest.approx(0.5 + 0.5 * np.dot(x - x_star, g), rel=1e-12)
        for lam in (1e-3, 1.0, 1e3):
            prox = p.prox(x, lam)
            step = lam * p.gradient(prox)
            assert np.linalg.norm(x - prox - step) <= 1e-10 * max(
                np.linalg.norm(x - prox), np.linalg.norm(step))
    assert _rel(p.gradient(X), (X - x_star) @ H_ref) <= 1e-12


def test_rotated_quadratic_with_an_overflowing_hessian_is_refused():
    # each diagonal entry of H is a convex combination of the eigenvalues, so at
    # the largest double the rounding of the sum overflows for this draw
    with pytest.raises(InvalidArgument, match="overflows"):
        oracles.make_quadratic(np.full(5, np.finfo(float).max), np.zeros(5), seed=0)


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 2])
@pytest.mark.parametrize("d", [1, 2, 3, 17, 64, 200])
def test_rotated_quadratic_equals_the_numpy_qr_construction_bit_for_bit(d, seed):
    # the reference: Q from np.linalg.qr of the same draw, H = B B^T with
    # B = Q diag(sqrt(eigs)), and the oracle's formulas; d = 1 checks that
    # writing B does not overwrite Q
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    eigs = np.linspace(0.1, 10.0, d)
    B = Q * np.sqrt(eigs)
    H = B @ B.T
    rng = np.random.default_rng(d)
    x_star, x, X = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal((5, d))
    p = oracles.make_quadratic(eigs, x_star, f_star=0.5, seed=seed)
    w, W = x - x_star, X - x_star
    np.testing.assert_array_equal(p.gradient(x), w @ H)
    np.testing.assert_array_equal(p.gradient(X), W @ H)
    assert p.value(x) == 0.5 * np.dot(w, w @ H) + 0.5
    np.testing.assert_array_equal(p.value(X), 0.5 * np.einsum("ij,ij->i", W, W @ H) + 0.5)
    for lam in (1e-3, 1.0):
        np.testing.assert_array_equal(p.prox(x, lam),
                                      x_star + Q @ ((Q.T @ w) / (1.0 + lam * eigs)))
    np.testing.assert_array_equal(p.hessian_matvec(x), x @ H)
    np.testing.assert_array_equal(p.hessian_matvec(np.eye(d)), H)


def test_building_a_rotated_quadratic_holds_three_d_by_d_arrays():
    # Q, B and H: the QR is done in place on one copy of the Gaussian, which
    # then holds B (4.13 d^2 doubles when np.linalg.qr's copies were held too)
    import tracemalloc

    d = 400
    eigs, x_star = np.linspace(0.1, 10.0, d), np.zeros(d)
    oracles.make_quadratic(eigs[:2], x_star[:2], seed=1)  # warm up
    tracemalloc.start()
    try:
        oracles.make_quadratic(eigs, x_star, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * d * d) <= 3.05


def test_fgm_on_a_rotated_quadratic_is_interpolable_in_high_dimension():
    from accelib import certify, momentum
    from accelib.tolerances import tol_for

    d = 200
    p = oracles.make_quadratic(np.linspace(1.0, 50.0, d),
                               np.random.default_rng(5).standard_normal(d), seed=4)
    trace = momentum.fgm(p, np.zeros(d), 60)
    triplets = certify.harvest_triplets(trace, p)
    slack = certify.check_interpolation(triplets, p.params.mu, p.params.L)
    assert certify.min_slack(slack) >= -tol_for(max(abs(t[2]) for t in triplets) + 1.0)


def _spied(oracle):
    """The oracle with its `value` and `gradient` calls counted."""
    calls = {"value": 0, "gradient": 0}
    for name in calls:
        fn = getattr(oracle, name)

        def spy(x, fn=fn, name=name):
            calls[name] += 1
            return fn(x)

        setattr(oracle, name, spy)
    return oracle, calls


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 40), seed=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
       rows=st.integers(0, 70), f_star=st.floats(-10.0, 10.0), data=st.data())
def test_value_and_gradient_equals_value_and_gradient_bit_for_bit(d, seed, rows, f_star,
                                                                   data):
    # rows = 0 is one point; otherwise a stack of that many rows
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="draws"))
    eigs = rng.uniform(0.01, 100.0, d)
    p, calls = _spied(oracles.make_quadratic(eigs, rng.standard_normal(d), f_star=f_star,
                                             seed=seed))
    x = rng.standard_normal((rows, d) if rows else d) * rng.uniform(0.1, 10.0)
    f, g = p.value_and_gradient(x)
    assert calls == {"value": 0, "gradient": 1}  # one Hessian product
    want_f, want_g = p.value(x), p.gradient(x)
    np.testing.assert_array_equal(g, want_g)
    # and both are f = 1/2 <w, H w> + f* with w = x - x*, summed as before
    w = x - p.x_star
    Hw = p.hessian_matvec(w)
    if rows:
        assert f.shape == (rows,) and f.dtype == float
        np.testing.assert_array_equal(f, want_f)
        np.testing.assert_array_equal(f, 0.5 * np.einsum("ij,ij->i", w, Hw) + f_star)
    else:
        assert type(f) is float and f == want_f == 0.5 * np.dot(w, Hw) + f_star


def _fallback_oracles():
    d = 6
    quad = oracles.make_quadratic(np.linspace(1.0, 5.0, d), np.ones(d), seed=2)
    from accelib.prox_outer import _regularized

    return [oracles.make_huber(0.3, 2.0, d), oracles.make_heb_power(3, d),
            oracles.make_heb_power(2, d), oracles.make_zero(d),
            _regularized(quad, np.full(d, 0.5), 0.7)]


@pytest.mark.parametrize("rows", [0, 1, 9])
@pytest.mark.parametrize("index", range(5))
def test_value_and_gradient_falls_back_to_the_two_calls(index, rows):
    # huber, power3, power2, zero and catalyst's subproblem have no
    # value-from-gradient form: one value call and one gradient call each
    p, calls = _spied(_fallback_oracles()[index])
    rng = np.random.default_rng(index)
    x = rng.standard_normal((rows, 6) if rows else 6)
    f, g = p.value_and_gradient(x)
    assert calls == {"value": 1, "gradient": 1}
    np.testing.assert_array_equal(g, p.gradient(x))
    np.testing.assert_array_equal(f, p.value(x))


def test_value_and_gradient_of_a_nonsmooth_term_raises_like_gradient():
    l1, calls = _spied(oracles.make_l1(0.5, 3))
    with pytest.raises(UnsupportedOracle):
        l1.value_and_gradient(np.ones(3))
    assert calls == {"value": 0, "gradient": 1}
