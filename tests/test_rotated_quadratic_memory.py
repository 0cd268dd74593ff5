"""The rotated quadratic keeps H alone: its Q is rebuilt from the seed, in one
d x d buffer, on the first exact prox, with the bits the build had."""

import tracemalloc

import numpy as np
import pytest

from accelib import momentum, oracles

D = 400
DD = 8 * D * D  # bytes of one d x d float64 array


def _quad(d, seed=2, x_star=None):
    x_star = np.zeros(d) if x_star is None else x_star
    return oracles.make_quadratic(np.linspace(0.1, 10.0, d), x_star, f_star=0.5, seed=seed)


@pytest.fixture
def traced():
    """tracemalloc on for the test, after a warm-up build and prox (the first
    ones import numpy.random and allocate once-only buffers)."""
    _quad(2).prox(np.ones(2), 0.3)
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _prox_cost(p, x):
    """(traced peak, what stays held) of one prox at x, its result dropped."""
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    p.prox(x, 0.3)
    now, peak = tracemalloc.get_traced_memory()
    return peak - held, now - held


def test_the_build_holds_two_d_by_d_arrays(traced):
    # B (written over Q) and H; three with Q kept beside them
    p = _quad(D)
    held, peak = tracemalloc.get_traced_memory()
    assert peak <= 2.05 * DD
    assert held <= 1.05 * DD  # H alone
    assert p.has_prox


def test_a_prox_free_run_holds_no_second_d_by_d_array(traced):
    # OGM reads H only: during the run the oracle adds no d x d array to H
    # and the run's columns (21 rows of a few d-vectors here)
    p = _quad(D)
    x0 = np.random.default_rng(0).standard_normal(D)
    tracemalloc.reset_peak()
    assert len(momentum.ogm(p, x0, 20)) == 21
    assert tracemalloc.get_traced_memory()[1] <= 1.5 * DD  # two with Q kept


def test_the_first_prox_rebuilds_q_once_in_one_buffer(traced):
    p = _quad(D)
    x = np.ones(D)
    peak, kept = _prox_cost(p, x)
    assert DD <= kept <= DD + 1024  # Q, kept
    assert peak < 1.5 * DD  # one d x d buffer, LAPACK's workspace and one block
    peak, kept = _prox_cost(p, x)
    assert kept < 1024
    assert peak < 0.1 * DD  # a few d-vectors: Q is not built again


@pytest.mark.parametrize("d", [127, 128, 129, 255, 257])
def test_the_rebuilt_q_gives_the_numpy_qr_bits(d):
    # block edges of the in-place transpose (128 x 128 blocks)
    Q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    eigs = np.linspace(0.1, 10.0, d)
    B = Q * np.sqrt(eigs)
    H = B @ B.T
    rng = np.random.default_rng(d + 1)
    x_star, x = rng.standard_normal(d), rng.standard_normal(d)
    p = oracles.make_quadratic(eigs, x_star, f_star=0.5, seed=d)
    w = x - x_star
    for _ in range(2):  # before the prox has rebuilt Q, and after
        np.testing.assert_array_equal(p.gradient(x), w @ H)
        assert p.value(x) == 0.5 * np.dot(w, w @ H) + 0.5
        np.testing.assert_array_equal(p.hessian_matvec(x), x @ H)
        for lam in (1e-3, 1.0):
            np.testing.assert_array_equal(p.prox(x, lam),
                                          x_star + Q @ ((Q.T @ w) / (1.0 + lam * eigs)))


@pytest.mark.parametrize("d", [1, 9, 130])
def test_a_passed_generator_gives_the_bits_of_its_seed(d):
    x_star = np.linspace(-1.0, 1.0, d)
    gen = np.random.default_rng(5)
    by_gen, by_int = _quad(d, gen, x_star), _quad(d, 5, x_star)
    after_build = gen.bit_generator.state
    X = np.random.default_rng(6).standard_normal((3, d))
    for x in X:
        np.testing.assert_array_equal(by_gen.prox(x, 0.7), by_int.prox(x, 0.7))
        np.testing.assert_array_equal(by_gen.gradient(x), by_int.gradient(x))
        assert by_gen.value(x) == by_int.value(x)
    np.testing.assert_array_equal(by_gen.hessian_matvec(np.eye(d)),
                                  by_int.hessian_matvec(np.eye(d)))
    assert gen.bit_generator.state == after_build  # the rebuild replays, not redraws
