import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accelib import oracles, poly_methods as pm
from accelib.errors import InvalidArgument, UnsupportedOracle


def test_delta_sequence_frozen():
    # mu=1, L=10: delta_1 = 9/11, delta_2 = 99/161 (computed by hand)
    d = pm.delta_sequence(1.0, 10.0, 2)
    assert d[0] == pytest.approx(9.0 / 11.0, abs=1e-15)
    assert d[1] == pytest.approx(99.0 / 161.0, abs=1e-15)


def test_chebyshev_steps_delta_sequence(quad_2):
    tr = pm.chebyshev(quad_2, np.array([3.0, -2.0]), 12)
    deltas = [r.state["delta"] for r in tr.records[1:]]
    assert deltas == pm.delta_sequence(quad_2.params.mu, quad_2.params.L, 12)  # bit for bit


def test_delta_infty_frozen():
    want = (math.sqrt(10) - 1) / (math.sqrt(10) + 1)
    assert pm.delta_infty(1.0, 10.0) == pytest.approx(want, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 0.99))
def test_delta_sequence_decreases_to_limit(q):
    mu, L = q, 1.0
    d = pm.delta_sequence(mu, L, 30)
    assert all(d[i + 1] <= d[i] + 1e-15 for i in range(len(d) - 1))
    assert all(x >= pm.delta_infty(mu, L) - 1e-12 for x in d)


def test_chebyshev_bound_frozen():
    # kappa=10: xi = (sqrt(10)+1)/(sqrt(10)-1), bound = 2/(xi^N + xi^-N)
    xi = (math.sqrt(10) + 1) / (math.sqrt(10) - 1)
    for N in (1, 5, 12):
        want = 2.0 / (xi**N + xi**-N)
        assert pm.chebyshev_bound(1.0, 10.0, N) == pytest.approx(want, rel=1e-13)


def test_gradient_descent_trace_shape(quad_2):
    tr = pm.gradient_descent(quad_2, 2.0 / 11.0, np.array([1.0, 1.0]), 5)
    assert len(tr.records) == 6
    assert tr.records[0].k == 0
    assert tr.final.grad_calls >= 5
    assert tr.meta["gamma"] == pytest.approx(2.0 / 11.0)


def test_gradient_descent_contracts(quad_2):
    x0 = np.array([3.0, -1.0])
    tr = pm.gradient_descent(quad_2, 1.0 / 10.0, x0, 40)
    # contraction factor (1 - gamma*mu) = 0.9 per step in distance
    assert tr.final.dist_opt <= 0.9**40 * np.linalg.norm(x0 - quad_2.x_star) + 1e-12


def test_chebyshev_beats_gd_on_quadratic(quad_6):
    x0 = np.zeros(6)
    gd = pm.gradient_descent(quad_6, 2.0 / 11.0, x0, 15)
    ch = pm.chebyshev(quad_6, x0, 15)
    assert ch.final.dist_opt < gd.final.dist_opt
    # distance bound holds along the whole run
    r0 = np.linalg.norm(x0 - quad_6.x_star)
    for rec in ch.records:
        assert rec.dist_opt <= pm.chebyshev_bound(1.0, 10.0, rec.k) * r0 + 1e-8 * r0


def test_chebyshev_requires_strong_convexity():
    p = oracles.make_huber(0.1, 1.0, 2)
    with pytest.raises(InvalidArgument):
        pm.chebyshev(p, np.ones(2), 5)


def test_heavy_ball_converges_linearly(quad_2):
    x0 = np.array([5.0, 5.0])
    tr = pm.heavy_ball(quad_2, x0, 60)
    rho = pm.delta_infty(1.0, 10.0)
    # asymptotic rate delta_infty per step; allow generous constant
    assert tr.final.dist_opt <= 100 * rho**60 * np.linalg.norm(x0)


def test_cg_exact_termination(quad_6):
    x0 = np.full(6, 2.0)
    tr = pm.conjugate_gradient_quadratic(quad_6, x0, 6)
    assert tr.final.grad_norm <= 1e-8
    assert tr.final.f_gap <= 1e-12 * quad_6.value(x0)


def test_cg_rejects_nonquadratic():
    p = oracles.make_huber(0.1, 1.0, 2)
    with pytest.raises(UnsupportedOracle):
        pm.conjugate_gradient_quadratic(p, np.ones(2), 3)


def test_cg_dominates_chebyshev(quad_6):
    x0 = np.full(6, 2.0)
    for N in (2, 4, 6):
        cg = pm.conjugate_gradient_quadratic(quad_6, x0, N)
        ch = pm.chebyshev(quad_6, x0, N)
        assert cg.final.f_gap <= ch.final.f_gap + 1e-12
