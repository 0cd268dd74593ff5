import math
import signal

import numpy as np
import pytest

from accelib import oracles, prox_outer as po
from accelib.extrapolation import minimize_unimodal
from accelib.errors import (
    ContractViolation,
    InconsistentCertificate,
    InnerSolveError,
    InvalidArgument,
)


def test_ppa_state_A_frozen(quad_2):
    # mu=1, lam=1: A' = A(1+lam*mu) + lam doubles-plus-one each step; A_5 = 31
    tr = po.ppa(quad_2, [1.0] * 5, np.array([2.0, 2.0]))
    assert tr.final.state["A"] == pytest.approx(31.0, abs=1e-12)


def test_ppa_bound_holds(quad_2):
    x0 = np.array([3.0, -2.0])
    lambdas = [0.5] * 12
    tr = po.ppa(quad_2, lambdas, x0)
    R = np.linalg.norm(x0 - quad_2.x_star)
    assert tr.final.f_gap <= po.ppa_bound(R, lambdas, mu=1.0) + 1e-12


def test_check_relative_error_accepts_and_rejects(quad_2):
    y = np.array([1.0, 1.0])
    solve = po.exact_prox_solver(quad_2)
    from accelib.trace import Counters
    x_next, g, e = solve(y, 1.0, Counters())
    cert = po.InexactProxCertificate(e=e, x_next=x_next, y=y, lam=1.0, g=g, delta=0.0)
    po.check_relative_error(cert)  # exact: passes at delta = 0
    bad = po.InexactProxCertificate(
        e=e + 1.0, x_next=x_next, y=y, lam=1.0, g=g, delta=0.0
    )
    with pytest.raises(InconsistentCertificate):
        po.check_relative_error(bad)


def test_ahpe_bound_frozen():
    # constant lam: 2 R^2 / (N^2 lam)
    assert po.ahpe_bound(2.0, [0.5] * 10) == pytest.approx(
        2 * 4.0 / (10 * math.sqrt(0.5)) ** 2
    )


def test_accel_inexact_ppa_exact_inner(quad_2):
    x0 = np.array([3.0, 1.0])
    solver = po.exact_prox_solver(quad_2)
    lambdas = [0.5] * 15
    tr = po.accel_inexact_ppa(solver, lambdas, 0.0, x0, oracle=quad_2)
    R = np.linalg.norm(x0 - quad_2.x_star)
    assert tr.final.f_gap <= po.ahpe_bound(R, lambdas) + 1e-12


def test_accel_inexact_ppa_rejects_bad_delta(quad_2):
    solver = po.exact_prox_solver(quad_2)
    with pytest.raises(InvalidArgument):
        po.accel_inexact_ppa(solver, [1.0] * 3, 1.5, np.ones(2), oracle=quad_2)


@pytest.mark.parametrize("lambdas, mu", [([1.0, -0.5, 1.0], 0.0), ([1.0, 0.0, 1.0], 0.0),
                                         ([1.0, np.nan, 1.0], 0.0), ([1.0] * 3, -0.5)])
def test_accel_inexact_ppa_refuses_a_bad_lambda_or_mu_before_the_first_step(quad_2, lambdas,
                                                                            mu):
    # a negative lambda or mu makes the outer point's square root negative
    # once A > 0; it is refused up front, not met mid-run
    exact, calls = po.exact_prox_solver(quad_2), []

    def solver(y, lam, counters):
        calls.append(lam)
        return exact(y, lam, counters)

    with pytest.raises(InvalidArgument):
        po.accel_inexact_ppa(solver, lambdas, 0.0, np.ones(2), mu=mu, oracle=quad_2)
    assert calls == []


def test_accel_inexact_ppa_refuses_delta_for_a_later_lambda_before_the_first_step(quad_2):
    # delta = 1.2 is admissible for lambda = 10 (sqrt(11)) but not for 0.01
    exact, calls = po.exact_prox_solver(quad_2), []

    def solver(y, lam, counters):
        calls.append(lam)
        return exact(y, lam, counters)

    with pytest.raises(InvalidArgument, match="delta"):
        po.accel_inexact_ppa(solver, [10.0, 0.01], 1.2, np.ones(2), mu=1.0, oracle=quad_2)
    assert calls == []


@pytest.mark.parametrize("lam, mu", [(-1.0, 0.0), (np.nan, 0.0), (1.0, -0.1)])
def test_catalyst_refuses_a_bad_lambda_or_mu_before_the_first_step(quad_6, lam, mu):
    f, calls = quad_6, []
    probe = oracles.ProblemOracle(f.value, lambda x: calls.append(1) or f.gradient(x),
                                  params=f.params)
    with pytest.raises(InvalidArgument):
        po.catalyst(probe, "gd", lam, budget_total=50, x0=np.zeros(6), mu=mu)
    assert calls == []


def test_accel_inexact_ppa_flags_broken_certificate(quad_2):
    exact = po.exact_prox_solver(quad_2)

    def sloppy(y, lam, counters):
        x_next, g, _ = exact(y, lam, counters)
        err = np.array([0.4, 0.0]) * np.linalg.norm(x_next - y)
        return x_next + err, g, err

    with pytest.raises(InnerSolveError):
        po.accel_inexact_ppa(sloppy, [1.0] * 5, 0.1, np.array([3.0, 1.0]),
                             oracle=quad_2)


def test_inner_constants_frozen():
    # gd inner: C = 1, tau = 1/(1 + lam L)
    C, tau = po.inner_constants("gd", 1.0, 1.0)
    assert C == 1.0 and tau == pytest.approx(0.5)
    # burden for lam L = 1 with gd: log(1*(1+2))/log(1/(1-1/2)) + 1
    want = math.log(3.0) / math.log(2.0) + 1
    assert po.catalyst_burden("gd", 1.0, 1.0) == pytest.approx(want, rel=1e-12)


def test_lambda_tunings_frozen():
    assert po.lambda_gd_tuning(1.0, 10.0) == pytest.approx(1.0 / 8.0)
    assert po.lambda_optimal_tuning(1.0, 10.0) == pytest.approx(2.0 / 7.0)


@pytest.mark.parametrize("inner", ["gd", "gd_linesearch", "const_momentum"])
def test_catalyst_accounting(quad_6, inner):
    x0 = np.full(6, 2.0)
    lam = 1.0
    tr = po.catalyst(quad_6, inner, lam, budget_total=400, x0=x0)
    B = tr.meta["burden"]
    counts = tr.meta["inner_counts"]
    assert all(c <= math.ceil(B) for c in counts)
    assert tr.meta["n_total"] < (tr.meta["n_outer"] + 1) * B
    R = np.linalg.norm(x0 - quad_6.x_star)
    assert tr.final.f_gap <= 2 * R**2 / (lam * tr.meta["n_outer"] ** 2) + 1e-12


def test_catalyst_counts_useless_tail(quad_6):
    x0 = np.full(6, 2.0)
    tr = po.catalyst(quad_6, "gd", 1.0, budget_total=11, x0=x0)
    # budget too small for clean outer steps: either all used or a tail is wasted
    assert tr.meta["n_total"] <= 11
    assert tr.meta["n_useless"] >= 0
    assert tr.meta["n_total"] - tr.meta["n_useless"] == sum(tr.meta["inner_counts"])


@pytest.mark.parametrize("inner", ["gd", "gd_linesearch"])
def test_catalyst_gd_step_reuses_the_stopping_test_gradient(inner):
    # per outer step: one gradient per stopping test (one more than the inner
    # iterations) and one at the prox point; gd used to take two per iteration
    f = oracles.make_quadratic(np.linspace(1.0, 10.0, 6), np.ones(6), seed=5)
    tr = po.catalyst(f, inner, 1.0, 200, np.full(6, 2.0))
    assert tr.final.grad_calls <= tr.final.inner_iters + 2 * (tr.meta["n_outer"] + 1)


def test_catalyst_lambda_below_rounding():
    # lam L below eps makes tau_M = 1; the burden used to divide by 1 - tau_M = 0
    assert po.catalyst_burden("gd", 1e-17, 1.0) == 1.0
    f = oracles.make_quadratic(np.linspace(1.0, 10.0, 3), np.ones(3), seed=5)
    assert po.catalyst(f, "gd", 1e-17, 5, np.zeros(3)).meta["n_outer"] >= 1


def test_catalyst_unknown_inner(quad_6):
    with pytest.raises(InvalidArgument):
        po.catalyst(quad_6, "bogus", 1.0, budget_total=50, x0=np.zeros(6))


@pytest.fixture
def alarm():
    """Fail a test that has not returned after 20 s instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("no return within 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_catalyst_ends_when_inner_solves_take_no_iterations(alarm):
    # once the iterate has converged the inner solve accepts its warm start;
    # such a step is charged one iteration, so the budget still runs out
    tr = po.catalyst(oracles.make_huber(0.1, 1.0, 3), "gd", 1.0, 300, np.ones(3))
    m = tr.meta
    assert m["n_outer"] <= 300
    assert min(m["inner_counts"]) == 1
    assert m["n_total"] == tr.final.inner_iters == sum(m["inner_counts"]) + m["n_useless"]


@pytest.mark.parametrize("inner", ["gd", "gd_linesearch"])
@pytest.mark.parametrize("budget", [1, 7, 60])
def test_catalyst_gradient_calls_are_its_stopping_tests(monkeypatch, inner, budget):
    # the outer step reuses grad f(w) from the stopping test that accepted w,
    # and a gd step the one from the test before it
    tests = []
    tol_for = po.tol_for
    monkeypatch.setattr(po, "tol_for", lambda scale: tests.append(scale) or tol_for(scale))
    rng = np.random.default_rng(4)
    p = oracles.make_quadratic(np.linspace(0.5, 20.0, 7), rng.standard_normal(7), seed=4)
    calls = []
    grad = p.gradient
    p.gradient = lambda x: (np.ndim(x) == 1 and calls.append(1)) or grad(x)
    tr = po.catalyst(p, inner, 0.2, budget, rng.standard_normal(7))
    assert len(calls) == len(tests)  # 1-D calls: the run's, not the fill's
    # a final inner solve cut by the budget made n_useless + 1 tests after
    # the last record
    useless = tr.meta["n_useless"]
    assert tr.final.grad_calls == len(tests) - (useless + 1 if useless else 0)


@pytest.mark.parametrize("inner", po.INNER_SOLVERS)
def test_catalyst_accounting_identities_under_every_budget(inner):
    # a solve cut by the budget counts in n_total and n_useless, but is spent
    # after the last record, so the final inner_iters leaves it out
    rng = np.random.default_rng(4)
    p = oracles.make_quadratic(np.linspace(0.5, 20.0, 7), rng.standard_normal(7), seed=4)
    x0 = rng.standard_normal(7)
    cut = 0
    for budget in range(1, 21):
        tr = po.catalyst(p, inner, 0.2, budget, x0)
        m = tr.meta
        assert m["n_total"] == sum(m["inner_counts"]) + m["n_useless"] <= budget
        assert tr.final.inner_iters == sum(m["inner_counts"])
        cut += m["n_useless"] > 0
    assert cut  # some budget cuts an inner solve


@pytest.mark.parametrize("d, seed", [(20, 3), (100, 1), (200, 2)])
def test_catalyst_line_search_stops_short_of_its_evaluation_cap(monkeypatch, d, seed):
    # each gd_linesearch step on a non-quadratic f minimises Phi along -grad
    # with counted value calls, at most 42 per search; every search closes
    # its bracket, as narrow as 42 golden-section evaluations would leave
    # it, before the cap, since the minimiser's bound holds only then
    searches = []

    def counted(fun, a, b, evals):
        calls = []
        t = minimize_unimodal(lambda u: calls.append(u) or fun(u), a, b, evals)
        searches.append((len(calls), evals))
        return t

    monkeypatch.setattr(po, "minimize_unimodal", counted)
    f = oracles.make_huber(0.1, 1.0, d)
    x0 = 10.0 * np.random.default_rng(seed).standard_normal(d)
    for budget in (30, 60, 110):
        searches.clear()
        tr = po.catalyst(f, "gd_linesearch", 1.0, budget, x0)
        m = tr.meta
        assert searches and all(n < evals == 42 for n, evals in searches)
        assert 0 < tr.final.value_calls <= sum(n for n, _ in searches)
        assert tr.final.value_calls < 42 * sum(m["inner_counts"])
        assert m["n_total"] == sum(m["inner_counts"]) + m["n_useless"]
        assert tr.final.inner_iters == sum(m["inner_counts"])


@pytest.mark.parametrize("budget", [7, 20, 60, 200])
def test_catalyst_counts_one_hessian_product_per_closed_form_line_search(budget):
    # on a quadratic each gd_linesearch step is one counted hessian_matvec;
    # a solve cut by the budget makes its n_useless searches after the last
    # record, so they are missing from its tallies
    rng = np.random.default_rng(4)
    p = oracles.make_quadratic(np.linspace(0.5, 20.0, 7), rng.standard_normal(7), seed=4)
    x0 = rng.standard_normal(7)
    searches = []
    hess = p.hessian_matvec
    p.hessian_matvec = lambda v: searches.append(1) or hess(v)
    tr = po.catalyst(p, "gd_linesearch", 0.2, budget, x0)
    assert tr.final.hess_calls > 0
    assert tr.final.hess_calls + tr.meta["n_useless"] == len(searches)
    hess_tally = [r.hess_calls for r in tr]
    assert hess_tally == sorted(hess_tally) and hess_tally[0] == 0
    f = oracles.make_huber(0.1, 1.0, 7)  # no closed form: value calls only
    others = [po.catalyst(p, inner, 0.2, budget, x0) for inner in ("gd", "const_momentum")]
    others += [po.catalyst(f, "gd_linesearch", 1.0, budget, 10.0 * x0),
               po.ppa(p, [0.5] * 5, x0),
               po.accel_inexact_ppa(po.exact_prox_solver(p), [0.5] * 5, 0.0, x0, oracle=p)]
    assert all(r.hess_calls == 0 for tr in others for r in tr)
