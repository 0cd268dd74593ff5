import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accelib import (certify as ct, composite as cp, momentum as mo, oracles,
                     poly_methods as pm, prox_outer as po)
from accelib.errors import InvalidArgument, UnsupportedOracle
from accelib.tolerances import tol_for


def reference_interpolation(triplets, mu, L):
    """The pairwise interpolation conditions evaluated one pair at a time; the
    reference that the Gram-matrix form of check_interpolation must match."""
    q = mu / L
    pts = [(np.asarray(x, dtype=float), np.asarray(g, dtype=float), float(f))
           for (x, g, f) in triplets]
    slack = np.full((len(pts), len(pts)), np.inf)
    for i, (xi, gi, fi) in enumerate(pts):
        for j, (xj, gj, fj) in enumerate(pts):
            if i == j:
                continue
            dg = gi - gj
            dx = xi - xj
            rhs = (fj + np.dot(gj, dx) + np.dot(dg, dg) / (2.0 * L)
                   + mu / (2.0 * (1.0 - q)) * np.dot(dx - dg / L, dx - dg / L))
            slack[i, j] = fi - rhs
    return slack


def assert_matches_reference(triplets, mu, L):
    got = ct.check_interpolation(triplets, mu, L)
    want = reference_interpolation(triplets, mu, L)
    assert got.shape == want.shape == (len(triplets), len(triplets))
    assert np.all(np.isinf(np.diag(got)))
    tol = tol_for(max((abs(t[2]) for t in triplets), default=0.0) + 1.0)
    off = ~np.eye(len(triplets), dtype=bool)
    assert np.all(np.abs(got[off] - want[off]) <= tol)
    return got, tol


def test_interpolation_accepts_in_class_triplets(quad_6):
    rng = np.random.default_rng(0)
    triplets = []
    for _ in range(12):
        x = rng.standard_normal(6)
        triplets.append((x, quad_6.gradient(x), quad_6.value(x)))
    margins = ct.check_interpolation(triplets, 1.0, 10.0)
    assert ct.min_slack(margins) >= -1e-10


def test_interpolation_rejects_planted_violation():
    # two points on a "function" steeper than any L=1 smooth convex function
    triplets = [
        (np.array([0.0]), np.array([0.0]), 0.0),
        (np.array([1.0]), np.array([10.0]), 10.0),
    ]
    margins = ct.check_interpolation(triplets, 0.0, 1.0)
    assert ct.min_slack(margins) < -1e-6


@settings(deadline=None, max_examples=60)
@given(n=st.integers(0, 12), d=st.integers(1, 6), L=st.floats(0.1, 100.0),
       q=st.floats(0.0, 0.99), seed=st.integers(0, 2**32 - 1))
def test_interpolation_matches_pairwise_reference(n, d, L, q, seed):
    mu = q * L
    rng = np.random.default_rng(seed)
    eigs = rng.uniform(mu if mu > 0 else 1e-3 * L, L, d)
    quad = oracles.make_quadratic(eigs, rng.standard_normal(d), seed=seed)
    triplets = [(x, quad.gradient(x), quad.value(x))
                for x in rng.standard_normal((n, d)) * 3.0]
    got, tol = assert_matches_reference(triplets, mu, L)
    assert ct.min_slack(got) >= -tol


def test_interpolation_far_from_origin():
    # rounding must scale with the spread of the points, not with ||x||^2
    quad = oracles.make_quadratic(np.linspace(1.0, 10.0, 5),
                                  np.full(5, 1e4) + np.arange(5.0), seed=3)
    tr = mo.fgm(quad, quad.x_star + np.ones(5), 60, mu=1.0)
    triplets = ct.harvest_triplets(tr.records, quad)
    got, tol = assert_matches_reference(triplets, 1.0, 10.0)
    assert ct.min_slack(got) >= -tol


def test_interpolation_locates_planted_violation():
    # f = x^2/2 is in the class (mu=0, L=10), where pair (i, j) has slack
    # 0.45 (x_i - x_j)^2; lowering f_2 by 1 breaks only the pair (2, 1)
    triplets = [(np.array([x]), np.array([x]), 0.5 * x * x) for x in (0.0, 9.0, 10.0)]
    triplets[2] = (triplets[2][0], triplets[2][1], triplets[2][2] - 1.0)
    slack = ct.check_interpolation(triplets, 0.0, 10.0)
    assert [tuple(p) for p in np.argwhere(slack < -tol_for(51.0))] == [(2, 1)]
    assert ct.min_slack(slack) == pytest.approx(-0.55)


@pytest.mark.parametrize("n", [0, 1])
def test_interpolation_without_pairs(n):
    triplets = [(np.ones(3), np.ones(3), 1.0)] * n
    slack = ct.check_interpolation(triplets, 0.0, 1.0)
    assert slack.shape == (n, n)
    assert ct.min_slack(slack) == 0.0


def test_interpolation_validates_class():
    with pytest.raises(InvalidArgument):
        ct.check_interpolation([], 2.0, 1.0)


def test_harvest_triplets_shapes(quad_2):
    tr = pm.gradient_descent(quad_2, 0.1, np.ones(2), 3)
    triplets = ct.harvest_triplets(tr.records, quad_2)
    assert len(triplets) == 4
    x, g, f = triplets[0]
    assert np.allclose(x, np.ones(2))
    assert f == pytest.approx(quad_2.value(np.ones(2)))


def test_class_inequalities_pass_on_member(quad_2):
    margins = ct.check_class_inequalities(quad_2, 1.0, 10.0, samples=100)
    assert ct.min_slack(margins) >= -1e-8


def test_class_inequalities_fail_out_of_class(quad_2):
    # claim a tighter class (larger mu) than the oracle belongs to
    margins = ct.check_class_inequalities(quad_2, 5.0, 10.0, samples=100)
    assert ct.min_slack(margins) < 0


def test_class_inequalities_domain_restricted():
    p = oracles.make_simplex_indicator(3)
    with pytest.raises(UnsupportedOracle):
        ct.check_class_inequalities(p, 0.0, 1.0, which=("iii",))


def test_potential_gd(quad_2):
    tr = pm.gradient_descent(quad_2, 1.0 / 10.0, np.array([2.0, -1.0]), 50, mu=1.0)
    margins = ct.check_potential(tr, quad_2)
    scale = ct.potential_scale(tr, quad_2)
    assert ct.min_slack(margins) >= -1e-8 * scale


def test_potential_gd_broken_step(quad_2):
    tr = pm.gradient_descent(quad_2, 3.0 / 10.0, np.array([2.0, -1.0]), 50, mu=1.0)
    margins = ct.check_potential(tr, quad_2)
    assert ct.min_slack(margins) < 0


@pytest.mark.parametrize("maker", [
    lambda p, x0: mo.fgm(p, x0, 40, mu=0.0),
    lambda p, x0: mo.fgm(p, x0, 40, mu=1.0),
    lambda p, x0: mo.ogm(p, x0, 40),
    lambda p, x0: mo.item(p, x0, 40),
    lambda p, x0: mo.tmm(p, x0, 40),
    lambda p, x0: mo.constant_momentum(p, x0, 40),
])
def test_momentum_potentials(quad_2, maker):
    tr = maker(quad_2, np.array([2.0, -1.0]))
    margins = ct.check_potential(tr, quad_2)
    scale = ct.potential_scale(tr, quad_2)
    assert ct.min_slack(margins) >= -1e-8 * scale, tr.method


def test_ppa_potential(quad_2):
    tr = po.ppa(quad_2, [0.7] * 20, np.array([2.0, -1.0]))
    margins = ct.check_potential(tr, quad_2)
    assert ct.min_slack(margins) >= -1e-8 * ct.potential_scale(tr, quad_2)


def test_unregistered_method_raises(quad_2):
    tr = pm.chebyshev(quad_2, np.ones(2), 5)
    with pytest.raises(InvalidArgument):
        ct.check_potential(tr, quad_2)


def test_lmi_known_feasible_points():
    mu, L = 1.0, 10.0
    q = mu / L
    assert ct.lmi_gd_distance((1 - q) ** 2, 1 / L, mu, L) is not None
    tau_opt = ((L - mu) / (L + mu)) ** 2
    assert ct.lmi_gd_distance(tau_opt, 2 / (L + mu), mu, L) is not None
    assert ct.lmi_gd_distance(0.95 * (1 - q) ** 2, 1 / L, mu, L) is None
    assert ct.lmi_gd_distance(0.95 * tau_opt, 2 / (L + mu), mu, L) is None


# ---------------------------------------------------------------------------
# the potentials evaluated one record at a time: the reference that the
# stacked forms of check_potential must match

def _dsq(a, b):
    d = np.asarray(a) - np.asarray(b)
    return float(np.dot(d, d))


def _series_margins(phis):
    return [phis[k] - phis[k + 1] for k in range(len(phis) - 1)]


def _ref_gd(trace, fun, x_star, f_star):
    L = 1.0 / trace.meta["gamma"]
    mu = trace.meta.get("mu") or 0.0
    q = mu / L
    phis = []
    A = 0.0
    for r in trace:
        phis.append(A * (fun(r.x) - f_star) + 0.5 * (L + mu * A) * _dsq(r.x, x_star))
        A = (1.0 + A) / (1.0 - q)
    return _series_margins(phis)


def _ref_fgm(trace, fun, x_star, f_star):
    mu, L = trace.meta["mu"], trace.meta["L"]
    return _series_margins([r.state["A"] * (fun(r.x) - f_star)
                            + 0.5 * (L + mu * r.state["A"]) * _dsq(r.state["z"], x_star)
                            for r in trace])


def _ref_constmom(trace, fun, x_star, f_star):
    mu, L = trace.meta["mu"], trace.meta["L"]
    rho = 1.0 - np.sqrt(mu / L)
    vs = [fun(r.x) - f_star + 0.5 * mu * _dsq(r.state["z"], x_star) for r in trace]
    return [rho * vs[k] - vs[k + 1] for k in range(len(vs) - 1)]


def _ref_ogm(trace, fun, x_star, f_star):
    L = trace.meta["L"]
    phis = []
    for r in trace:
        if r.k == 0:
            phis.append(0.5 * L * _dsq(r.state["z"], x_star))
            continue
        th = r.state["theta_prev"]
        y, g = r.state["y_prev"], r.state["g_prev"]
        phis.append(2.0 * th**2 * (fun(y) - f_star - np.dot(g, g) / (2.0 * L))
                    + 0.5 * L * _dsq(r.state["z"], x_star))
    last = trace.records[-1]
    if "theta_final" in last.state:
        th_f = last.state["theta_final"]
        phis.append(th_f**2 * (fun(last.state["y_final"]) - f_star)
                    + 0.5 * L * _dsq(last.state["z"] - (th_f / L) * last.state["g_final"],
                                     x_star))
    return _series_margins(phis)


def _ref_item(trace, fun, x_star, f_star):
    mu, L = trace.meta["mu"], trace.meta["L"]
    q = mu / L
    phis = []
    for r in trace:
        A = r.state["A"]
        zterm = (L + mu * A) / (1.0 - q) * _dsq(r.state["z"], x_star)
        if r.k == 0:
            phis.append(zterm)
            continue
        y, g = r.state["y"], r.state["g"]
        inner = (fun(y) - f_star - np.dot(g, g) / (2.0 * L)
                 - mu / (2.0 * (1.0 - q)) * _dsq(y - g / L, x_star))
        phis.append(A * inner + zterm)
    return _series_margins(phis)


def _ref_tmm(trace, fun, x_star, f_star):
    mu, L = trace.meta["mu"], trace.meta["L"]
    q = mu / L
    vs = []
    for r in trace:
        y, g = r.state["y"], r.state["g"]
        vs.append(fun(y) - f_star - np.dot(g, g) / (2.0 * L)
                  - mu / (2.0 * (1.0 - q)) * _dsq(y - g / L, x_star)
                  + mu / (1.0 - q) * _dsq(r.state["z"], x_star))
    rho2 = (1.0 - np.sqrt(q)) ** 2
    return [rho2 * vs[k] - vs[k + 1] for k in range(len(vs) - 1)]


def _ref_composite(trace, fun, x_star, f_star):
    mu = trace.meta["mu"]
    margins = []
    for r0, r1 in zip(trace.records, trace.records[1:]):
        if "A" in r1.state:
            L1 = r1.state["L"]
            lhs = (r1.state["A"] * (fun(r1.x) - f_star)
                   + 0.5 * (L1 + mu * r1.state["A"]) * _dsq(r1.state["z"], x_star))
            rhs = (r0.state["A"] * (fun(r0.x) - f_star)
                   + 0.5 * (L1 + mu * r0.state["A"]) * _dsq(r0.state["z"], x_star))
        else:
            lhs = (r1.state["B"] * (fun(r1.x) - f_star)
                   + 0.5 * (1.0 + mu * r1.state["B"]) * _dsq(r1.state["z"], x_star))
            rhs = (r0.state["B"] * (fun(r0.x) - f_star)
                   + 0.5 * (1.0 + mu * r0.state["B"]) * _dsq(r0.state["z"], x_star))
        margins.append(rhs - lhs)
    return margins


def _ref_bregman(trace, fun, x_star, f_star):
    L, dgf = trace.meta["L"], trace.meta["dgf"]
    return _series_margins([r.state["A"] * (fun(r.x) - f_star)
                            + L * mo.bregman_divergence(dgf, x_star, r.state["z"])
                            for r in trace])


def _ref_ppa(trace, fun, x_star, f_star):
    mu = trace.meta.get("mu", 0.0)
    return _series_margins([r.state["A"] * (fun(r.x) - f_star)
                            + 0.5 * (1.0 + mu * r.state["A"]) * _dsq(r.x, x_star)
                            for r in trace])


def _ref_accel_ppa(trace, fun, x_star, f_star):
    mu = trace.meta.get("mu", 0.0)
    return _series_margins([r.state["A"] * (fun(r.x) - f_star)
                            + 0.5 * (1.0 + mu * r.state["A"]) * _dsq(r.state["z"], x_star)
                            for r in trace])


def _ref_monotone(trace, fun, x_star, f_star):
    fs = [fun(r.x) for r in trace]
    return [fs[k] - fs[k + 1] for k in range(len(fs) - 1)]


REFERENCE_POTENTIALS = {
    "gd": _ref_gd, "fgm": _ref_fgm, "constant_momentum": _ref_constmom, "ogm": _ref_ogm,
    "item": _ref_item, "tmm": _ref_tmm, "fista": _ref_composite, "prox_agm": _ref_composite,
    "bregman_agm": _ref_bregman, "ppa": _ref_ppa, "accel_inexact_ppa": _ref_accel_ppa,
    "catalyst": _ref_accel_ppa, "monotone": _ref_monotone,
}


def reference_margins(trace, problem):
    if isinstance(problem, oracles.CompositeProblem):
        fun, f_star = problem.objective, problem.F_star
    else:
        fun, f_star = problem.value, problem.f_star
    return REFERENCE_POTENTIALS[trace.method.split("(")[0]](trace, fun, problem.x_star, f_star)


def assert_potential_matches_reference(trace, problem, weighted=0.0):
    """Margins equal within 1e-12 of the potential scale, of the margin itself
    (a diverging run's margins grow far past the scale of record 0) and of
    `weighted`, a bound on A_k |F(x_k)|: the stacked and the pointwise
    objective differ by rounding, about eps |F|, which the potential weights
    by A_k."""
    got = ct.check_potential(trace, problem)
    want = reference_margins(trace, problem)
    assert [m.where for m in got] == list(range(len(want)))
    scale = ct.potential_scale(trace, problem)
    for m, w in zip(got, want):
        assert abs(m.slack - w) <= 1e-12 * (scale + abs(w) + weighted), (trace.method, m, w)
    return got


def criterion_06_runs(N):
    """The runs of acceptance criterion 6, plus its two negative controls."""
    rng = np.random.default_rng(0)
    quad = oracles.make_quadratic([0.01, 4.0, 10.0], rng.standard_normal(3), seed=0)
    hub = oracles.make_huber(0.1, 1.0, 3)
    xq = rng.standard_normal(3) * 2
    xh = np.full(3, 1.5)
    qcomp = oracles.CompositeProblem(quad, oracles.make_zero(3),
                                     x_star=quad.x_star, F_star=quad.f_star)
    hcomp = oracles.CompositeProblem(hub, oracles.make_zero(3),
                                     x_star=hub.x_star, F_star=hub.f_star)
    exact = po.exact_prox_solver(quad)

    def sloppy(y, lam, counters):
        x_next, g, _ = exact(y, lam, counters)
        x_bad = x_next - 0.9 * (x_next - y)
        return x_bad, g, x_bad - y + lam * g

    return [
        (lambda: pm.gradient_descent(quad, 0.1, xq, N, mu=0.01), quad),
        (lambda: pm.gradient_descent(hub, 1.0, xh, N), hub),
        (lambda: pm.gradient_descent(quad, 0.3, xq, N, mu=0.01), quad),
        (lambda: mo.fgm(quad, xq, N, mu=0.01), quad),
        (lambda: mo.fgm(hub, xh, N, mu=0.0), hub),
        (lambda: mo.fgm(quad, xq, N, form="III"), quad),
        (lambda: mo.ogm(quad, xq, N), quad),
        (lambda: mo.ogm(hub, xh, N), hub),
        (lambda: mo.constant_momentum(quad, xq, N), quad),
        (lambda: mo.item(quad, xq, N), quad),
        (lambda: mo.tmm(quad, xq, N), quad),
        (lambda: cp.fista(qcomp, xq, N, L0=10.0, mode="monotone"), qcomp),
        (lambda: cp.fista(qcomp, xq, N, L0=1.0, mode="monotone"), qcomp),
        (lambda: cp.fista(qcomp, xq, N, L0=1.0, mode="reset"), qcomp),
        (lambda: cp.fista(qcomp, xq, N, L0=1.0, mode="decrease"), qcomp),
        (lambda: cp.fista(hcomp, xh, N, L0=1.0, mode="monotone"), hcomp),
        (lambda: cp.prox_agm(qcomp, xq, N, L0=10.0, mode="monotone"), qcomp),
        (lambda: cp.prox_agm(qcomp, xq, N, L0=1.0, mode="reset"), qcomp),
        (lambda: cp.prox_agm(qcomp, xq, N, L0=1.0, mode="decrease", mu=0.01), qcomp),
        (lambda: mo.bregman_agm(qcomp, xq, N, dgf="euclidean"), qcomp),
        (lambda: po.ppa(quad, [0.7] * N, xq), quad),
        (lambda: po.accel_inexact_ppa(exact, [0.5] * N, 0.0, xq, oracle=quad), quad),
        (lambda: po.accel_inexact_ppa(exact, [0.5] * N, 0.5, xq, mu=0.01, oracle=quad),
         quad),
        (lambda: po.accel_inexact_ppa(sloppy, [1.0] * N, 10.0, xq, mu=0.0, oracle=quad,
                                      enforce_delta=False), quad),
        (lambda: po.catalyst(quad, "gd", 0.5, 4 * N, xq), quad),
        (lambda: mo.monotone_wrap("fgm", hcomp, xh, N, mu=0.0, L=1.0), hcomp),
        (lambda: mo.monotone_wrap("fista", qcomp, xq, N, mode="reset", L0=1.0), qcomp),
    ]


def _entropy_run(N):
    rng = np.random.default_rng(23)
    quad = oracles.make_quadratic(np.linspace(1, 5, 6), rng.standard_normal(6), seed=23)
    simplex = oracles.make_simplex_indicator(6)
    x_star = np.full(6, 1.0 / 6)
    for _ in range(3000):  # projected gradient, step 1/L
        x_star = oracles.project_simplex(x_star - quad.gradient(x_star) / 5.0)
    prob = oracles.CompositeProblem(quad, simplex, x_star=x_star,
                                    F_star=float(quad.value(x_star)))
    return mo.bregman_agm(prob, np.full(6, 1.0 / 6), N, dgf="entropy"), prob


@pytest.mark.parametrize("N", [0, 1, 2, 100])
def test_potentials_match_pointwise_reference(N):
    methods = set()
    for run, problem in criterion_06_runs(N):
        tr = run()
        methods.add(tr.method.split("(")[0])
        assert_potential_matches_reference(tr, problem)
    tr, problem = _entropy_run(N)
    methods.add(tr.method)
    # F* is far from 0 here, unlike in the runs above
    assert_potential_matches_reference(tr, problem, tr.final.state["A"] * abs(problem.F_star))
    assert methods == set(ct._POTENTIALS)


def test_ogm_final_term_is_the_last_margin(quad_6):
    tr = mo.ogm(quad_6, np.ones(6), 12)
    margins = assert_potential_matches_reference(tr, quad_6)
    assert len(margins) == len(tr) == 13  # one more than the 12 steps
    assert "theta_final" in tr.final.state


@settings(deadline=None, max_examples=40)
@given(method=st.sampled_from(["gd", "fgm", "item", "tmm"]), L=st.floats(0.5, 100.0),
       q=st.floats(0.0, 0.9), N=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_potential_matches_reference_property(method, L, q, N, seed):
    mu = q * L
    rng = np.random.default_rng(seed)
    d = 4
    eigs = np.concatenate([[max(mu, 1e-3 * L), L], rng.uniform(max(mu, 1e-3 * L), L, d - 2)])
    quad = oracles.make_quadratic(eigs, rng.standard_normal(d), seed=seed)
    x0 = rng.standard_normal(d) * 3.0
    if method == "gd":
        tr = pm.gradient_descent(quad, 1.0 / L, x0, N, mu=mu)
    elif method == "fgm":
        tr = mo.fgm(quad, x0, N, mu=mu, L=L)
    elif method == "item":
        tr = mo.item(quad, x0, N, mu=mu, L=L)
    else:
        tr = mo.tmm(quad, x0, N, mu=max(mu, 1e-3 * L), L=L)
    assert_potential_matches_reference(tr, quad)


# ---------------------------------------------------------------------------
# the one-product interpolation check against the pairwise reference

@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 80), d=st.integers(1, 40), L=st.floats(0.1, 100.0),
       q=st.floats(0.0, 0.99), offset=st.floats(0.0, 1e6), seed=st.integers(0, 2**32 - 1))
def test_interpolation_matches_reference_far_from_origin(n, d, L, q, offset, seed):
    # the optimum and the points sit up to 1e6 from the origin, where ||x||^2
    # dwarfs the pairwise differences the slacks are made of
    mu = q * L
    rng = np.random.default_rng(seed)
    center = offset * rng.standard_normal(d) / np.sqrt(d)
    eigs = rng.uniform(mu if mu > 0 else 1e-3 * L, L, d)
    quad = oracles.make_quadratic(eigs, center + rng.standard_normal(d), seed=seed)
    triplets = [(x, quad.gradient(x), quad.value(x))
                for x in center + 3.0 * rng.standard_normal((n, d))]
    got, tol = assert_matches_reference(triplets, mu, L)
    assert ct.min_slack(got) >= -tol


@settings(deadline=None, max_examples=40)
@given(n=st.integers(2, 60), d=st.integers(1, 30), L=st.floats(0.1, 100.0),
       q=st.floats(0.99, 0.9999), offset=st.floats(0.0, 1e4), seed=st.integers(0, 2**32 - 1))
def test_interpolation_matches_reference_for_large_c(n, d, L, q, offset, seed):
    # near q = 1, c = mu/(2(1-q)) reaches 5000 mu: the (n x d)(d x n) product
    # weighs <u_i, u_j> by 2c, with u = x - g/L far smaller than x and g
    mu = q * L
    rng = np.random.default_rng(seed)
    center = offset * rng.standard_normal(d) / np.sqrt(d)
    eigs = rng.uniform(mu, L, d)
    quad = oracles.make_quadratic(eigs, center + rng.standard_normal(d), seed=seed)
    X = center + 3.0 * rng.standard_normal((n, d))
    F, G = quad.value_and_gradient(X)
    got, tol = assert_matches_reference(ct.Triplets(X, G, F), mu, L)
    assert ct.min_slack(got) >= -tol
    assert np.array_equal(got, ct.check_interpolation(list(zip(X, G, F.tolist())), mu, L))


def test_min_slack_of_step_margins_skips_nan():
    assert ct.min_slack(np.array([np.nan, 2.0, -1.0, np.nan])) == -1.0
    assert np.isnan(ct.min_slack(np.array([np.nan, np.nan])))
    assert ct.min_slack(np.array([5.0])) == 5.0
    assert ct.min_slack(np.empty(0)) == 0.0


def test_interpolation_on_converged_traces_matches_reference(monkeypatch, capsys):
    # every certified CLI method run long enough that its iterates converge,
    # so the slacks are differences of nearly equal terms
    from accelib import cli

    seen = []
    real = cli.certify_mod.check_interpolation
    monkeypatch.setattr(cli.certify_mod, "check_interpolation",
                        lambda trip, mu, L: seen.append((trip, mu, L)) or real(trip, mu, L))
    methods = [m for m in cli.METHODS if m in ct._POTENTIALS]
    assert len(methods) == 10
    for method in methods:
        cli.main(["certify", "--method", method, "--problem", "quad:d=20,kappa=50",
                  "--N", "150", "--seed", "5"])
        capsys.readouterr()
        triplets, mu, L = seen.pop()
        got, want = real(triplets, mu, L), reference_interpolation(triplets, mu, L)
        tol = tol_for(max(abs(t[2]) for t in triplets) + 1.0)  # as cmd_certify's
        assert np.array_equal(np.argwhere(got < -tol), np.argwhere(want < -tol)), method
        assert abs(ct.min_slack(got) - ct.min_slack(want)) <= tol, method


# ---------------------------------------------------------------------------
# potentials read the trace's columns

def test_missing_state_column_raises_invalid_argument(quad_6):
    tr = mo.fgm(quad_6, np.ones(6), 10, form="II")  # form II carries no z
    with pytest.raises(InvalidArgument, match="'z'"):
        tr.column("z")
    with pytest.raises(InvalidArgument):
        ct.check_potential(tr, quad_6)
    assert tr.column("A").shape == (11,)


def test_ogm_final_only_state_is_readable(quad_6):
    tr = mo.ogm(quad_6, np.ones(6), 8)
    last = tr.records[-1].state
    assert {"theta_final", "g_final", "y_final"} <= set(last)
    assert np.array_equal(last["y_final"], tr.final.x)
    assert not any("theta_final" in r.state for r in tr.records[:-1])
    with pytest.raises(InvalidArgument):  # record 0 carries no y_prev
        tr.column("y_prev")
    assert tr.column("y_prev", 1).shape == (8, 6)
