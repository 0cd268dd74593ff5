import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from accelib import momentum as mo, oracles
from accelib.errors import DivergedError, InvalidArgument

from conftest import seeded_quadratics


def test_theta_schedule_frozen():
    # theta_0 = 1; theta_{k+1} = (1 + sqrt(4 theta_k^2 + 1))/2; last uses the
    # (1 + sqrt(8 theta^2 + 1))/2 rule
    th = mo.theta_schedule(1)
    assert th[0] == pytest.approx(1.0)
    assert th[1] == pytest.approx(2.0, abs=1e-14)
    th = mo.theta_schedule(3)
    assert th[1] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-14)
    assert th[3] == pytest.approx((1 + math.sqrt(8 * th[2] ** 2 + 1)) / 2, abs=1e-14)


def test_next_A_frozen():
    # q = 0: A1 = 1, A2 = (3 + sqrt(5))/2
    A1 = mo.next_A(0.0, 0.0)
    A2 = mo.next_A(A1, 0.0)
    assert A1 == pytest.approx(1.0, abs=1e-14)
    assert A2 == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 0.9), st.integers(1, 40))
def test_A_growth(q, N):
    A = 0.0
    for _ in range(N):
        A1 = mo.next_A(A, q)
        assert A1 > A
        A = A1
    # convex mode grows at least quadratically: A_N >= N^2/4
    if q == 0.0:
        assert A >= N**2 / 4.0 - 1e-9


def test_item_next_A_frozen():
    assert mo.item_next_A(0.0, 0.0) == pytest.approx(4.0, abs=1e-13)


def test_bounds_frozen():
    # ogm: L R^2 / (2 theta_N^2); fgm convex: 2 L R^2 / N^2
    th = mo.theta_schedule(8)
    assert mo.ogm_bound(10.0, 1.0, 8) == pytest.approx(10.0 / (2 * th[8] ** 2))
    assert mo.fgm_bound(10.0, 1.0, 8) == pytest.approx(20.0 / 64.0)
    assert mo.ogm_bound(10.0, 1.0, 8) < mo.fgm_bound(10.0, 1.0, 8)


def _max_rel_dev(tr_a, tr_b):
    worst = 0.0
    for ra, rb in zip(tr_a.records, tr_b.records):
        scale = max(np.linalg.norm(ra.x), np.linalg.norm(rb.x), 1.0)
        worst = max(worst, np.linalg.norm(ra.x - rb.x) / scale)
    return worst


@pytest.mark.parametrize("mu", [0.0, 1.0])
def test_fgm_form_equivalence(mu):
    for p, x0 in seeded_quadratics(3):
        a = mo.fgm(p, x0, 20, form="I", mu=mu)
        b = mo.fgm(p, x0, 20, form="II", mu=mu)
        c = mo.fgm(p, x0, 20, form="III", mu=mu)
        assert _max_rel_dev(a, b) <= 1e-9
        assert _max_rel_dev(a, c) <= 1e-9


def test_ogm_form_equivalence():
    for p, x0 in seeded_quadratics(3):
        a = mo.ogm(p, x0, 20, form="I")
        b = mo.ogm(p, x0, 20, form="II")
        assert _max_rel_dev(a, b) <= 1e-9


def test_constant_momentum_form_equivalence():
    for p, x0 in seeded_quadratics(3):
        a = mo.constant_momentum(p, x0, 20, form="I")
        b = mo.constant_momentum(p, x0, 20, form="II")
        assert _max_rel_dev(a, b) <= 1e-9


def test_fgm_convex_bound(quad_6):
    x0 = np.full(6, 1.5)
    R2 = np.linalg.norm(x0 - quad_6.x_star) ** 2
    tr = mo.fgm(quad_6, x0, 32, mu=0.0)
    for rec in tr.records[1:]:
        assert rec.f_gap <= 2 * 10.0 * R2 / rec.k**2 + 1e-12


def test_ogm_final_bound(quad_6):
    x0 = np.full(6, 1.5)
    R = np.linalg.norm(x0 - quad_6.x_star)
    tr = mo.ogm(quad_6, x0, 16)
    assert tr.final.f_gap <= mo.ogm_bound(10.0, R, 16) + 1e-12


def test_strongly_convex_methods_linear_rate(quad_2):
    x0 = np.array([4.0, -3.0])
    f0 = quad_2.value(x0)
    for tr in (
        mo.fgm(quad_2, x0, 60, mu=1.0),
        mo.constant_momentum(quad_2, x0, 60),
        mo.item(quad_2, x0, 60),
        mo.tmm(quad_2, x0, 60),
    ):
        assert tr.final.f_gap <= 1e-8 * f0, tr.method


def test_constant_momentum_requires_mu():
    p = oracles.make_huber(0.1, 1.0, 2)
    with pytest.raises(InvalidArgument):
        mo.constant_momentum(p, np.ones(2), 5)


def test_bregman_euclidean_matches_fgm(quad_6):
    x0 = np.full(6, 0.5)
    comp = oracles.CompositeProblem(quad_6, oracles.make_zero(6))
    a = mo.bregman_agm(comp, x0, 25, dgf="euclidean")
    b = mo.fgm(quad_6, x0, 25, form="III", mu=0.0)
    assert _max_rel_dev(a, b) <= 1e-9


def test_bregman_entropy_stays_on_simplex():
    rng = np.random.default_rng(1)
    d = 5
    p = oracles.make_quadratic(np.linspace(1, 6, d), rng.standard_normal(d), seed=1)
    comp = oracles.CompositeProblem(p, oracles.make_simplex_indicator(d))
    x0 = np.full(d, 1.0 / d)
    tr = mo.bregman_agm(comp, x0, 30, dgf="entropy")
    for rec in tr.records:
        assert rec.x.sum() == pytest.approx(1.0, abs=1e-12)
        assert rec.x.min() > 0.0


def test_bregman_divergence_frozen():
    a = np.array([0.5, 0.5])
    b = np.array([0.25, 0.75])
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert mo.bregman_divergence("entropy", a, b) == pytest.approx(want, abs=1e-12)
    assert mo.bregman_divergence("euclidean", a, b) == pytest.approx(
        0.5 * np.linalg.norm(a - b) ** 2
    )


def test_monotone_wrap_nonincreasing():
    p = oracles.make_huber(0.05, 1.0, 3)
    x0 = np.full(3, 1.0)
    tr = mo.monotone_wrap("fgm", oracles.CompositeProblem(p, oracles.make_zero(3)),
                          x0, 50, mu=0.0, L=1.0)
    vals = [p.value(r.x) for r in tr.records]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
    assert tr.method == "monotone(fgm)"


def test_monotone_wrap_rejects_unknown():
    p = oracles.make_huber(0.05, 1.0, 2)
    comp = oracles.CompositeProblem(p, oracles.make_zero(2))
    with pytest.raises(InvalidArgument):
        mo.monotone_wrap("item", comp, np.ones(2), 5, mu=1.0, L=1.0)


def _trace_or_partial(run):
    """(trace, None) from run(), or (partial trace, error) if it diverges."""
    try:
        return run(), None
    except DivergedError as exc:
        return exc.trace, exc


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # see the divergence note below
@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), L=st.floats(0.5, 100.0),
       kappa=st.floats(1.0, 1e3), N=st.integers(0, 40))
@example(d=1, seed=0, L=1.0, kappa=1.0, N=5)
@example(d=3, seed=0, L=1.0, kappa=1.000001, N=40)  # the A-sequence overflows at step 26
def test_form_equivalences_over_random_rotated_quadratics(d, seed, L, kappa, N):
    rng = np.random.default_rng(seed)
    eigs = np.concatenate([[L, L / kappa], rng.uniform(L / kappa, L, 6)])[:d]
    p = oracles.make_quadratic(eigs, rng.standard_normal(d), seed=seed)
    x0 = 2.0 * rng.standard_normal(d)
    mu_f = p.params.mu
    groups = [[lambda f=f, mu=mu: mo.fgm(p, x0, N, form=f, mu=mu) for f in ("I", "II", "III")]
              for mu in {0.0, mu_f} if mu < L]
    groups += [[lambda f=f, m=m: m(p, x0, N, form=f) for f in ("I", "II")]
               for m in (mo.ogm, mo.constant_momentum)]
    if mu_f == L:  # d = 1 or kappa = 1: outside FGM's class
        for run in (mo.fgm, functools.partial(mo.monotone_wrap, "fgm")):
            with pytest.raises(InvalidArgument, match="mu < L"):
                run(p, x0, N, mu=mu_f)
    for group in groups:
        runs = [_trace_or_partial(run) for run in group]
        # Close to mu = L the A-sequence overflows within N steps (A_k grows like
        # (1 - sqrt(mu/L))^-k); the forms share it, so they diverge together and
        # agree up to the last record they all have.
        assert len({err is None for _, err in runs}) == 1
        for trace, _ in runs[1:]:
            assert _max_rel_dev(runs[0][0], trace) <= 1e-9


@pytest.mark.parametrize("N", [0, 1, 25])
def test_tmm_takes_one_gradient_per_step(N):
    # the step reuses the gradient at y_{k-1} that the previous step took
    p, x0 = seeded_quadratics(1, d=6)[0]
    points = []
    grad = p.gradient
    p.gradient = lambda x: points.append(np.array(x)) or grad(x)
    tr = mo.tmm(p, x0, N)
    assert [r.grad_calls for r in tr] == list(range(1, N + 2))
    assert len(points) == N + 1  # the counter is the calls made, start included
    for r, y in zip(tr, points):  # each at the recorded y, with its g
        np.testing.assert_array_equal(r.x, y)
        np.testing.assert_array_equal(r.state["g"], grad(y))


@pytest.mark.parametrize("method", ["fista", "prox_agm"])
def test_monotone_wrap_takes_f_from_the_line_search(method):
    # the accepted trial of the inner line search has evaluated f(x_{k+1}), so
    # each step costs f(y_k) and f(x_{k+1}): 2N + 1 value calls with f(x0)
    from accelib.composite import _composite_factory
    from accelib.trace import CountingOracle

    N = 20
    p = oracles.make_quadratic(np.linspace(1.0, 10.0, 5), np.ones(5), seed=3)
    l1 = oracles.make_l1(0.2, 5)
    comp = oracles.CompositeProblem(p, l1)
    x0 = np.full(5, 2.0)
    tr = mo.monotone_wrap(method, comp, x0, N)
    assert tr.final.value_calls == 2 * N + 1
    # reference: the wrapper as a loop over the inner stepper, F evaluated in full
    inner, step = _composite_factory(method, comp, CountingOracle(p), x0, p.params.mu,
                                     p.params.L, 2.0, "monotone")
    best, f_best, xs = x0, p.value(x0) + l1.value(x0), [x0]
    for _ in range(N):
        inner = step(dict(inner, x=best))
        f = p.value(inner["x"]) + l1.value(inner["x"])
        if f < f_best:
            best, f_best = inner["x"], f
        xs.append(best)
    assert inner["wasted"] == 0
    assert all(np.array_equal(r.x, x) for r, x in zip(tr, xs)) and len(tr) == N + 1


# ---------------------------------------------------------------------------
# the coefficient recurrences in Python floats: the bits of the numpy forms

def _np_next_A(A, q):
    return (2.0 * A + 1.0 + np.sqrt(4.0 * A + 4.0 * q * A * A + 1.0)) / (2.0 * (1.0 - q))


def _np_item_next_A(A, q):
    return ((1.0 + q) * A + 2.0 * (1.0 + np.sqrt((1.0 + A) * (1.0 + q * A)))) / (1.0 - q) ** 2


def _bits(x):
    return np.float64(x).tobytes()


_AS = [0.0, *np.geomspace(1e-12, 1e150, 400).tolist()]


@pytest.mark.parametrize("q", [0.0, 1e-4, 0.02, 0.5])
def test_coefficient_recurrences_return_the_numpy_forms_bits_as_floats(q):
    for A in _AS:
        A1 = mo.next_A(A, q)
        assert type(A1) is float and _bits(A1) == _bits(_np_next_A(A, q))
        tau, delta = mo._tau_delta(A, A1, q)
        tau_np, delta_np = mo._tau_delta(A, _np_next_A(A, q), q)
        assert type(tau) is float and type(delta) is float
        assert (_bits(tau), _bits(delta)) == (_bits(tau_np), _bits(delta_np))
        A1 = mo.item_next_A(A, q)
        assert type(A1) is float and _bits(A1) == _bits(_np_item_next_A(A, q))


def test_recurrence_runs_keep_the_numpy_forms_bits():
    # along the sequences the methods step, where each A is the last output
    for q in (0.0, 1e-4, 0.02, 0.5):
        A = A_np = 0.0
        for _ in range(3000):
            A, A_np = mo.next_A(A, q), _np_next_A(A_np, q)
            assert type(A) is float and _bits(A) == _bits(A_np)
            if A > 1e150:  # short of the overflow
                break
    th = mo.theta_schedule(2000)
    ref = [1.0]
    for k in range(1, 2001):
        c = 4.0 if k < 2000 else 8.0
        ref.append((1.0 + np.sqrt(c * ref[-1] ** 2 + 1.0)) / 2.0)
    assert all(type(t) is float for t in th)
    assert [_bits(t) for t in th] == [_bits(t) for t in ref]


def test_outer_point_coefficients_are_floats():
    from accelib import prox_outer as po

    x, z = np.zeros(3), np.ones(3)
    A = 0.0
    for lam, mu in [(0.1, 0.0), (0.5, 2.0), (3.0, 1e-3)]:
        a, A1, delta, y = po._outer_point(x, z, A, lam, mu)
        assert all(type(v) is float for v in (a, A1, delta))
        a_np = (lam + 2.0 * A * lam * mu
                + np.sqrt(4.0 * A * A * lam * mu * (lam * mu + 1.0)
                          + 4.0 * A * lam * (lam * mu + 1.0) + lam * lam)) / 2.0
        assert _bits(a) == _bits(a_np)
        A = A1


def test_overflowing_A_sequence_diverges_without_a_python_error():
    # 4 q A^2 overflows near A = 1e154 (ROADMAP item 1, not mended here): the
    # float recurrence must still end in DivergedError, not in OverflowError,
    # ZeroDivisionError or a math domain error
    p = oracles.make_quadratic([1.0, 10.0], np.zeros(2), seed=0)
    with np.errstate(all="ignore"), pytest.raises(DivergedError):
        mo.fgm(p, np.ones(2), 1000)


def _wrap_problems():
    p = oracles.make_quadratic([1.0, 4.0, 9.0], np.array([1.0, -2.0, 0.5]), seed=3)
    return p, oracles.CompositeProblem(p, oracles.make_l1(0.1, 3)), np.full(3, 1.0 / 3)


@pytest.mark.parametrize("method, form", [("fgm", "bogus"), ("fgm", "II"),
                                          ("constant_momentum", "II"), ("fista", "III")])
def test_monotone_wrap_refuses_a_form_it_cannot_run(method, form):
    p, lasso, x0 = _wrap_problems()
    with pytest.raises(InvalidArgument, match="form"):
        mo.monotone_wrap(method, lasso, x0, 5, form=form)


def test_monotone_wrap_runs_fgm_form_three():
    p, lasso, x0 = _wrap_problems()
    one = mo.monotone_wrap("fgm", lasso, x0, 30, mu=0.0)
    three = mo.monotone_wrap("fgm", lasso, x0, 30, mu=0.0, form="III")
    assert lasso.objective(three.final.x) <= lasso.objective(x0)
    assert not np.array_equal(one.x, three.x)  # the forms' x_k differ on a kinked h


def test_monotone_wrap_refuses_an_unknown_dgf():
    p, lasso, x0 = _wrap_problems()
    with pytest.raises(InvalidArgument, match="dgf"):
        mo.monotone_wrap("bregman_agm", lasso, x0, 5, dgf="bogus")


def test_monotone_wrap_refuses_entropy_off_the_simplex():
    p, lasso, x0 = _wrap_problems()
    with pytest.raises(InvalidArgument, match="simplex"):
        mo.monotone_wrap("bregman_agm", lasso, x0, 5, dgf="entropy")


@pytest.mark.parametrize("method", ["fista", "prox_agm", "bregman_agm"])
def test_monotone_wrap_refuses_a_smooth_problem_for_a_composite_method(method):
    p, lasso, x0 = _wrap_problems()
    with pytest.raises(InvalidArgument, match="CompositeProblem"):
        mo.monotone_wrap(method, p, x0, 5)


def test_monotone_wrap_refuses_constant_momentum_without_mu():
    p, lasso, x0 = _wrap_problems()
    with pytest.raises(InvalidArgument, match="mu > 0"):
        mo.monotone_wrap("constant_momentum", lasso, x0, 5, mu=0.0)


def test_monotone_wrap_refuses_a_misspelt_option():
    p, lasso, x0 = _wrap_problems()
    with pytest.raises(TypeError):
        mo.monotone_wrap("fista", lasso, x0, 5, moed="reset")
