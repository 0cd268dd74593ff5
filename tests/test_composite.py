import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from accelib import composite as cp, momentum as mo, oracles
from accelib.errors import InvalidArgument


def lasso_instance(seed=0, d=5, weight=0.1):
    rng = np.random.default_rng(seed)
    p = oracles.make_quadratic(np.linspace(1.0, 8.0, d), rng.standard_normal(d), seed=seed)
    return oracles.CompositeProblem(p, oracles.make_l1(weight, d))


def ref_optimum(problem, gamma, iters=30000):
    x = np.zeros(len(problem.smooth.x_star))
    for _ in range(iters):
        x = problem.nonsmooth.prox(x - gamma * problem.smooth.gradient(x), gamma)
    return problem.objective(x)


def next_B_reference(B, L, mu):
    """The closed form the reset/decrease modes once stepped B_k with:
    the larger root of L (B' - B)^2 = (1 + mu B') B'."""
    return (2.0 * L * B + 1.0 + math.sqrt(4.0 * L * B + 4.0 * mu * L * B * B + 1.0)) / (
        2.0 * (L - mu))


@settings(max_examples=200, deadline=None)
@given(B=st.just(0.0) | st.floats(1e-8, 1e4), L=st.floats(1e-3, 1e3),
       q=st.floats(0.0, 1.0, exclude_max=True))
def test_B_accounting_is_the_A_recurrence_at_A_equal_LB(B, L, q):
    mu = q * L
    assume(mu < L)
    A = L * B
    A1 = mo.next_A(A, mu / L)
    B1 = next_B_reference(B, L, mu)
    # L - mu and L (1 - mu/L) round differently, by about eps / (1 - mu/L)
    assert A1 / L == pytest.approx(B1, rel=1e-14 / (1.0 - mu / L))
    tau, delta = mo._tau_delta(A, A1, mu / L)
    tau_ref, _ = mo._tau_delta(B, B1, mu)
    delta_ref = L * (B1 - B) / (1.0 + mu * B1)
    # A1 - A cancels at large A: up to about 1e-12 at A = 1e7
    assert tau == pytest.approx(tau_ref, rel=1e-11)
    assert delta == pytest.approx(delta_ref, rel=1e-11)


def test_ell_constant():
    assert cp.ell_constant(10.0, 1.0, 2.0) == 20.0
    assert cp.ell_constant(1.0, 5.0, 2.0) == 5.0


def test_modes_exposed():
    assert set(cp.MODES) == {"monotone", "reset", "decrease"}


@pytest.mark.parametrize("mode", ["monotone", "reset", "decrease"])
def test_fista_bound_all_modes(mode):
    problem = lasso_instance()
    d = 5
    x0 = np.zeros(d)
    N = 40
    L, L0, alpha = 8.0, 1.0, 2.0
    F_star = ref_optimum(problem, 1.0 / 8.0)
    tr = cp.fista(problem, x0, N, L0=L0, alpha=alpha, mode=mode)
    # the backtracked constant never exceeds max(alpha L, L0)
    assert tr.meta["L_final"] <= cp.ell_constant(L, L0, alpha) + 1e-12
    gap = problem.objective(tr.final.x) - F_star
    R = np.linalg.norm(x0)  # reference optimum is near the origin-ball here
    # distance to the true composite optimum is bounded by ||x0|| + tail
    assert gap <= cp.fista_bound(L, L0, alpha, R + 2.0, N) + 1e-9


def test_fista_monotone_wasted_counter():
    problem = lasso_instance()
    x0 = np.zeros(5)
    L, L0, alpha = 8.0, 1.0, 2.0
    tr = cp.fista(problem, x0, 30, L0=L0, alpha=alpha, mode="monotone")
    assert tr.meta["wasted"] <= math.ceil(math.log(L / L0, alpha))


@pytest.mark.parametrize("method, f_gap", [(cp.fista, 6.738739255364864e-4),
                                           (cp.prox_agm, 6.738739255364702e-4)])
def test_monotone_backtracking_takes_one_gradient_per_step(method, f_gap):
    # with mu = 0 the point y_k does not depend on the trial L, so a
    # backtrack re-evaluates neither grad f(y_k) nor f(y_k)
    p = oracles.make_quadratic(np.linspace(1.0, 10.0, 5), np.ones(5), seed=3)
    comp = oracles.CompositeProblem(p, oracles.make_zero(5), x_star=p.x_star, F_star=p.f_star)
    tr = method(comp, np.zeros(5), 20, L0=0.1)
    assert tr.meta["wasted"] == 7
    assert tr.final.grad_calls == 20  # was 27, one more per backtrack
    assert tr.final.f_gap == pytest.approx(f_gap, rel=1e-12)  # the same iterates


def test_fista_zero_nonsmooth_matches_fgm():
    rng = np.random.default_rng(6)
    p = oracles.make_quadratic([1.0, 4.0, 9.0], rng.standard_normal(3), seed=6)
    comp = oracles.CompositeProblem(p, oracles.make_zero(3))
    x0 = rng.standard_normal(3)
    # L0 = L and huge alpha: no backtracking, fixed step 1/L
    a = cp.fista(comp, x0, 25, L0=9.0, alpha=2.0, mode="monotone")
    b = mo.fgm(p, x0, 25, form="I", mu=0.0, L=9.0)
    for ra, rb in zip(a.records, b.records):
        assert np.linalg.norm(ra.x - rb.x) <= 1e-9 * max(1.0, np.linalg.norm(rb.x))


def test_prox_agm_zero_nonsmooth_matches_fgm_iii():
    rng = np.random.default_rng(8)
    p = oracles.make_quadratic([1.0, 4.0, 9.0], rng.standard_normal(3), seed=8)
    comp = oracles.CompositeProblem(p, oracles.make_zero(3))
    x0 = rng.standard_normal(3)
    a = cp.prox_agm(comp, x0, 25, L0=9.0, alpha=2.0, mode="monotone")
    b = mo.fgm(p, x0, 25, form="III", mu=0.0, L=9.0)
    for ra, rb in zip(a.records, b.records):
        assert np.linalg.norm(ra.x - rb.x) <= 1e-9 * max(1.0, np.linalg.norm(rb.x))


def test_fista_strongly_convex_linear_rate():
    rng = np.random.default_rng(9)
    p = oracles.make_quadratic([1.0, 10.0], rng.standard_normal(2), seed=9)
    comp = oracles.CompositeProblem(p, oracles.make_zero(2))
    x0 = rng.standard_normal(2) * 3
    tr = cp.fista(comp, x0, 80, mu=1.0, L0=10.0, mode="monotone")
    assert comp.objective(tr.final.x) - p.f_star <= 1e-10 * comp.objective(x0)


def test_fista_rejects_bad_mode():
    problem = lasso_instance()
    with pytest.raises(InvalidArgument):
        cp.fista(problem, np.zeros(5), 5, mode="bogus")


def test_backtracking_restores_descent_condition():
    # start with a wildly optimistic L0; every mode must still converge
    problem = lasso_instance(seed=3)
    x0 = np.zeros(5)
    vals = {}
    for mode in cp.MODES:
        tr = cp.fista(problem, x0, 60, L0=1e-3, alpha=2.0, mode=mode)
        vals[mode] = problem.objective(tr.final.x)
    ref = ref_optimum(problem, 1.0 / 8.0, iters=5000)
    for mode, v in vals.items():
        assert v - ref <= 1e-6, mode


@pytest.mark.parametrize("mode", cp.MODES)
@pytest.mark.parametrize("method", [cp.fista, cp.prox_agm])
def test_backtracking_counts_each_value_once(method, mode):
    # f(y_k) comes with grad f(y_k) from one call, and each trial costs f(x_{k+1})
    p = oracles.make_quadratic(np.linspace(1.0, 10.0, 5), np.ones(5), seed=3)
    comp = oracles.CompositeProblem(p, oracles.make_zero(5), x_star=p.x_star, F_star=p.f_star)
    tr = method(comp, np.zeros(5), 20, mu=0.5, L0=0.6, mode=mode)
    assert tr.meta["wasted"] > 0
    assert tr.final.value_calls == tr.final.grad_calls + 20 + tr.meta["wasted"]


def test_drivers_refuse_a_smooth_problem():
    p = lasso_instance().smooth
    for run in (cp.fista, cp.prox_agm, mo.bregman_agm):
        with pytest.raises(InvalidArgument, match="CompositeProblem"):
            run(p, np.zeros(5), 5)


@pytest.mark.parametrize("method", [cp.fista, cp.prox_agm])
def test_drivers_refuse_a_negative_mu(method):
    # q = mu/L < 0 used to end in a ZeroDivisionError inside the A-recurrence
    with pytest.raises(InvalidArgument, match="mu must be >= 0"):
        method(lasso_instance(), np.zeros(5), 20, mu=-1.0)
    with pytest.raises(InvalidArgument, match="mu must be >= 0"):
        mo.monotone_wrap("fista", lasso_instance(), np.zeros(5), 20, mu=-1.0)
