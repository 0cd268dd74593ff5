import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from accelib import certify as ct, momentum as mo, oracles, poly_methods as pm, prox_outer as po
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
