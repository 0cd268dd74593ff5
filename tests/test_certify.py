import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accelib import (certify as ct, composite as cp, momentum as mo, oracles,
                     poly_methods as pm, prox_outer as po)
from accelib.errors import DivergedError, InvalidArgument, UnsupportedOracle
from accelib.errors import NoCertificate
from accelib.tolerances import tol_for
from accelib.trace import CountingOracle


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


def test_class_inequalities_refuse_an_oracle_of_unknown_dimension():
    # the pairs are drawn in x_star's dimension; without it no dimension is guessed
    H = np.diag([1.0, 2.0, 4.0])
    quad_3 = oracles.ProblemOracle(lambda x: 0.5 * x @ H @ x, lambda x: H @ x,
                                   params=oracles.ClassParams(1.0, 4.0))
    half_sq = lambda x: 0.5 * np.add.reduce(x * x, axis=-1)  # noqa: E731
    coordinatewise_7 = oracles.ProblemOracle(half_sq, lambda x: x, values=half_sq,
                                             gradients=lambda x: x,
                                             params=oracles.ClassParams(1.0, 1.0))
    for p, mu, L in [(quad_3, 1.0, 4.0), (coordinatewise_7, 0.5, 2.0)]:
        with pytest.raises(InvalidArgument, match="x_star"):
            ct.check_class_inequalities(p, mu, L)


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


def test_lmi_refuses_a_factor_below_the_rate_at_large_L():
    # the quadratic mu ||x||^2 / 2 contracts by (1 - gamma mu)^2 = 0.003011
    # here, so the factor 1.27e-4 below is false; a tolerance fixed at
    # tol_for(1 + tau + gamma^2), far above the certificate's entries at this
    # L, once certified it
    L, mu = 650.6761227268219, 602.7394132846622
    gamma, tau = 0.0015680495264588814, 0.0027231673668673038
    assert tau < (1.0 - gamma * mu) ** 2
    assert ct.lmi_gd_distance(tau, gamma, mu, L) is None
    assert ct.lmi_gd_distance((1.0 - gamma * mu) ** 2, gamma, mu, L) is not None


@settings(deadline=None, max_examples=500)
@given(log_L=st.floats(-3.0, 6.0),
       ratio=st.one_of(st.just(0.0), st.floats(-8.0, np.log10(0.999)).map(lambda e: 10.0**e)),
       step=st.floats(1e-9, 2.0, exclude_max=True))
def test_lmi_certifies_exactly_the_gd_rate(log_L, ratio, step):
    # the LMI's tight factor for one gd step is max(|1 - gamma mu|, |1 - gamma L|)^2:
    # the rate is certified, with its witness lambda >= 0, and 1e-7 below it is not
    L = 10.0**log_L
    mu, gamma = ratio * L, step / L
    rate = max(abs(1.0 - gamma * mu), abs(1.0 - gamma * L)) ** 2
    lam = ct.lmi_gd_distance(rate, gamma, mu, L)
    assert lam is not None and lam >= 0.0
    assert ct.lmi_gd_distance(rate - 1e-7, gamma, mu, L) is None


@pytest.mark.parametrize("slacks, want", [
    ([np.nan, -1.0], -1.0), ([-1.0, np.nan], -1.0),  # wherever the NaN sits
    ([np.nan, np.nan], np.nan), ([], 0.0)])
def test_min_slack_of_a_margin_list_follows_the_array_rule(slacks, want):
    got = ct.min_slack([ct.Margin(k, s) for k, s in enumerate(slacks)])
    by_array = ct.min_slack(np.array(slacks, dtype=float))
    assert np.array_equal([got, by_array], [want, want], equal_nan=True)


def test_check_potential_of_gd_at_one_over_mu_gives_margins_without_a_warning():
    # gamma = 1/mu makes the potential's A-sequence divide by 1 - mu/L = 0;
    # the fill and check_potential evaluate it under one errstate
    import warnings

    p = oracles.make_quadratic(np.linspace(1, 10, 5), np.ones(5), seed=1)
    tr = pm.gradient_descent(p, 1.0, np.zeros(5), 20, mu=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        margins = np.array([m.slack for m in ct.check_potential(tr, p)])
    assert len(margins) == 20 and not np.isfinite(margins).all()
    with np.errstate(invalid="ignore"):  # inf - inf: the fill's column gives the same NaN
        want = tr.potential[:-1] - tr.potential[1:]
    assert np.array_equal(margins, want, equal_nan=True)


UPPER = {"i.upper", "ii.upper", "iii.lower", "iv.lower", "v.upper", "vi.upper", "vii.lower"}
LOWER = {"i.lower", "ii.lower", "iii.upper", "iv.upper", "v.lower", "vi.lower", "vii.upper"}


def _flagged(oracle, mu, L):
    """The inequality families whose smallest slack on 200 pairs is negative."""
    worst = {}
    for m in ct.check_class_inequalities(oracle, mu, L, samples=200, seed=1):
        worst[m.where[0]] = min(worst.get(m.where[0], np.inf), m.slack)
    return {name for name, slack in worst.items() if slack < -1e-8}, set(worst)


@pytest.mark.parametrize("oracle, mu, L, wrong_mu", [
    (oracles.make_quadratic(np.linspace(1, 10, 6), np.zeros(6), seed=3), 1.0, 10.0, 5.0),
    (oracles.make_huber(0.3, 2.0, 2), 0.0, 2.0, 0.5)], ids=["quadratic", "huber"])
def test_class_inequalities_flag_exactly_the_misstated_side(oracle, mu, L, wrong_mu):
    # (upper) families use L, (lower) families mu: at the true class none is
    # flagged; claiming L/2 flags every (upper) one, a larger mu every (lower)
    flagged, checked = _flagged(oracle, mu, L)
    assert flagged == set() and checked == (UPPER | LOWER if mu > 0 else
                                            UPPER | LOWER - {"i.lower", "iii.upper", "iv.upper"})
    assert _flagged(oracle, mu, L / 2)[0] == UPPER
    assert _flagged(oracle, wrong_mu, L)[0] == LOWER


def reference_class_inequalities(oracle, mu, L, which, samples, seed):
    """The appendix's inequalities (i)-(vii) written out one pair at a time,
    as {(family.side, key): slack}: the reference that the stacked evaluation
    of check_class_inequalities must match."""
    rng = np.random.default_rng(seed)
    d = len(oracle.x_star)
    out = {}
    for i in range(samples):
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        fx, fy, gx, gy = oracle.value(x), oracle.value(y), oracle.gradient(x), oracle.gradient(y)
        dx, dg = x - y, gx - gy
        nx, ng, inner = np.linalg.norm(dx), np.linalg.norm(dg), float(np.dot(dg, dx))
        e = fx - (fy + np.dot(gy, dx))  # f(x) less its linearisation at y
        sides = {  # (lower, upper); None where the mu side says nothing at mu = 0
            # (i)   mu ||x - y|| <= ||g(x) - g(y)|| <= L ||x - y||
            "i": (ng - mu * nx if mu > 0 else None, L * nx - ng),
            # (ii)  mu/2 ||x - y||^2 <= e <= L/2 ||x - y||^2
            "ii": (e - mu / 2 * nx**2, L / 2 * nx**2 - e),
            # (iii) ||g(x) - g(y)||^2 / (2L) <= e <= ||g(x) - g(y)||^2 / (2 mu)
            "iii": (e - ng**2 / (2 * L), ng**2 / (2 * mu) - e if mu > 0 else None),
            # (iv)  ||g(x) - g(y)||^2 / L <= <g(x) - g(y), x - y> <= ||g(x) - g(y)||^2 / mu
            "iv": (inner - ng**2 / L, ng**2 / mu - inner if mu > 0 else None),
            # (v)   mu ||x - y||^2 <= <g(x) - g(y), x - y> <= L ||x - y||^2
            "v": (inner - mu * nx**2, L * nx**2 - inner)}
        for family, pair in sides.items():
            for side, slack in zip(("lower", "upper"), pair):
                if family in which and slack is not None:
                    out[(f"{family}.{side}", i)] = slack
        for lam in ct.LAMBDA_GRID:
            xl = lam * x + (1 - lam) * y
            fl, mean = oracle.value(xl), lam * fx + (1 - lam) * fy
            h = lambda v: 0.5 * np.dot(v, v)  # noqa: E731
            if "vi" in which:  # f - mu/2 ||.||^2 and L/2 ||.||^2 - f are convex
                out[("vi.lower", (i, lam))] = (lam * (fx - mu * h(x)) + (1 - lam) * (fy - mu * h(y))
                                               - (fl - mu * h(xl)))
                out[("vi.upper", (i, lam))] = (lam * (L * h(x) - fx) + (1 - lam) * (L * h(y) - fy)
                                               - (L * h(xl) - fl))
            if "vii" in which:
                # mean - lam(1-lam) L/2 ||x-y||^2 <= f(xl) <= mean - lam(1-lam) mu/2 ||x-y||^2
                out[("vii.lower", (i, lam))] = fl - (mean - lam * (1 - lam) * L / 2 * nx**2)
                out[("vii.upper", (i, lam))] = mean - lam * (1 - lam) * mu / 2 * nx**2 - fl
    return out


@pytest.mark.parametrize("which", [None, ("vi",), ("i", "v")], ids=["all", "vi", "i+v"])
@pytest.mark.parametrize("oracle, mu, L", [
    (oracles.make_quadratic(np.linspace(1, 10, 6), np.zeros(6), seed=3), 1.0, 10.0),
    (oracles.make_huber(0.3, 2.0, 2), 0.0, 2.0)], ids=["quadratic", "huber"])
def test_class_inequalities_match_the_pointwise_reference(oracle, mu, L, which):
    margins = ct.check_class_inequalities(oracle, mu, L, which=which, samples=50, seed=1)
    got = {m.where: m.slack for m in margins}
    want = reference_class_inequalities(oracle, mu, L, which or ct.ALL_INEQS, 50, 1)
    assert len(got) == len(margins) and got.keys() == want.keys()
    assert all(got[k] == pytest.approx(want[k], rel=1e-12, abs=1e-12) for k in want)


@pytest.mark.parametrize("samples", [1, 200])
@pytest.mark.parametrize("which, value_calls", [(None, 2), (("i", "v"), 1), ("vii", 2)])
def test_class_inequalities_call_the_oracle_once_per_stack(quad_2, which, value_calls, samples):
    # one value_and_gradient call at every pair, one value call at every
    # midpoint when (vi) or (vii) is checked, whatever the number of pairs
    co = CountingOracle(quad_2)
    assert ct.check_class_inequalities(co, 1.0, 10.0, which=which, samples=samples)
    assert (co.counters.value_calls, co.counters.grad_calls) == (value_calls, 1)


def test_class_inequalities_read_a_string_as_one_family(quad_2):
    margins = ct.check_class_inequalities(quad_2, 5.0, 10.0, which="vi")
    assert {m.where[0] for m in margins} == {"vi.lower", "vi.upper"}
    assert len(margins) == 2 * 200 * len(ct.LAMBDA_GRID)


@pytest.mark.parametrize("which", [("viii",), ("i", "viii"), "", "iiii"])
def test_class_inequalities_refuse_an_unknown_family(quad_2, which):
    # an unknown name once checked nothing, and min_slack read the empty list as 0.0
    with pytest.raises(InvalidArgument):
        ct.check_class_inequalities(quad_2, 1.0, 10.0, which=which)


def test_check_potential_of_a_diverged_trace_gives_margins_without_a_warning():
    # the objective at a diverged trace's iterates overflows: check_potential
    # evaluates it under the potential's errstate, so the run's own warning
    # policy (error::RuntimeWarning here) does not turn it into an exception
    q = oracles.make_quadratic(np.linspace(1, 10, 6), np.random.default_rng(7).standard_normal(6),
                               seed=7)
    with np.errstate(all="ignore"), pytest.raises(DivergedError) as exc:
        pm.gradient_descent(q, 3 / 10, np.ones(6), 5000)
    trace = exc.value.trace
    margins = np.array([m.slack for m in ct.check_potential(trace, q)])
    assert len(trace) == 1022 and len(margins) == 1021
    assert np.isfinite(margins[:10]).all() and not np.isfinite(margins).all()


# ---------------------------------------------------------------------------
# verdict: the library form of `accelib certify`

def test_verdict_reduces_both_checks_with_one_rule(quad_6):
    trace = mo.fgm(quad_6, np.ones(6), 30)
    report = ct.verdict(trace, quad_6)
    assert list(report) == ["potential_min_slack", "interpolation_min_slack", "violations",
                            "pass"]
    assert report["pass"] is True and report["violations"] == []
    _, margins = ct.potential_series(trace, quad_6)
    assert report["potential_min_slack"] == ct.min_slack(margins)
    triplets = ct.harvest_triplets(trace, quad_6)
    interp = ct.check_interpolation(triplets, quad_6.params.mu, quad_6.params.L)
    assert report["interpolation_min_slack"] == ct.min_slack(interp)


def test_verdict_labels_steps_then_pairs_in_index_order(quad_6, monkeypatch):
    # NaN and a negative slack alike, in both checks
    real_series, real_interp = ct.potential_series, ct.check_interpolation

    def series(*args):
        phi, margins = real_series(*args)
        margins[[1, 4]] = np.nan, -1.0
        return phi, margins

    def interp(*args):
        slack = real_interp(*args)
        slack[2, 0], slack[0, 3] = -1.0, np.nan
        return slack

    monkeypatch.setattr(ct, "potential_series", series)
    monkeypatch.setattr(ct, "check_interpolation", interp)
    report = ct.verdict(mo.fgm(quad_6, np.ones(6), 10), quad_6)
    assert report["violations"] == ["1", "4", "(0, 3)", "(2, 0)"]
    assert report["potential_min_slack"] == -1.0  # min_slack leaves the NaN margin out
    assert np.isnan(report["interpolation_min_slack"])
    assert report["pass"] is False


def test_verdict_of_a_trace_without_a_certificate_raises_no_certificate(quad_6):
    x0 = np.ones(6)
    lasso = oracles.CompositeProblem(quad_6, oracles.make_l1(0.1, 6))  # no known optimum
    for trace, problem in [(pm.chebyshev(quad_6, x0, 5), quad_6),
                           (mo.fgm(quad_6, x0, 5, form="II"), quad_6),
                           (mo.ogm(quad_6, x0, 5, form="II"), quad_6),
                           (cp.fista(lasso, x0, 5), lasso)]:
        with pytest.raises(NoCertificate):
            ct.verdict(trace, problem)
    # mu = L is a bad argument, not a missing certificate
    flat = oracles.make_quadratic([2.0, 2.0], np.zeros(2))
    with pytest.raises(InvalidArgument, match="need 0 <= mu < L") as info:
        ct.verdict(pm.gradient_descent(flat, 0.5, np.ones(2), 5), flat)
    assert not isinstance(info.value, NoCertificate)
