import math

import numpy as np
import pytest

from accelib import oracles, restart as rs
from accelib.errors import InvalidArgument


def test_sched_constant_frozen():
    assert rs.SCHED_C == pytest.approx(4 * math.exp(2 / math.e), rel=1e-14)
    assert rs.SCHED_C == pytest.approx(8.34826, abs=1e-5)


def test_heb_params():
    h = rs.HebParams(4, 1.0, 12.0)
    assert h.tau == pytest.approx(0.5)
    assert h.kappa == pytest.approx(12.0)
    h2 = rs.HebParams(2, 4.0, 8.0)
    assert h2.tau == 0.0
    assert h2.kappa == pytest.approx(2.0)


def test_fixed_restart_halves_gap(quad_2):
    x0 = np.array([5.0, -4.0])
    k = math.ceil(8 * 10.0 / 1.0)
    tr = rs.fixed_restart(quad_2, "fgm", k, x0, epochs=4, L=10.0)
    # gap at each epoch boundary (k iterations apart)
    gaps = [quad_2.value(tr.records[e * k].x) for e in range(5)]
    for a, b in zip(gaps, gaps[1:]):
        assert b <= 0.5 * a


def test_schedule_lengths_growth():
    heb = rs.HebParams(4, 1.0, 12.0)
    ks, C = rs.schedule_lengths(heb, 1.0, 500)
    assert all(k >= 1 for k in ks)
    # tau > 0: epoch lengths grow geometrically like e^{tau i}
    assert ks[-1] > ks[0]
    assert ks[0] == math.ceil(C)


def test_scheduled_bound_forms():
    heb4 = rs.HebParams(4, 1.0, 12.0)
    b1 = rs.scheduled_bound(heb4, 1.0, 200000)
    b2 = rs.scheduled_bound(heb4, 1.0, 400000)
    # asymptotic power decay N^(-2/tau) for tau > 0
    assert b2 < b1
    assert b2 / b1 == pytest.approx(2.0 ** (-2.0 / heb4.tau), rel=0.01)
    heb2 = rs.HebParams(2, 1.0, 12.0)
    e1 = rs.scheduled_bound(heb2, 1.0, 100)
    e2 = rs.scheduled_bound(heb2, 1.0, 200)
    # exponential decay for tau = 0: equal ratios over equal increments
    assert e2 / e1 == pytest.approx(e1 / rs.scheduled_bound(heb2, 1.0, 0), rel=1e-9)


def test_scheduled_restart_meets_bound():
    p = oracles.make_heb_power(4, 3)
    x0 = np.array([3.0, 1.5, -1.5])
    R = np.linalg.norm(x0)
    heb = rs.HebParams(4, 1.0, p.smoothness_on_ball(R))
    f0 = p.value(x0)
    tr = rs.scheduled_restart(p, heb, x0, f0, budget=600)
    assert p.value(tr.final.x) <= rs.scheduled_bound(heb, f0, 600)


def test_scheduled_restart_gap_decreases_with_budget():
    # r = 3 is pre-asymptotic at desk-scale budgets, so assert monotone decay
    # rather than the asymptotic exponent
    p = oracles.make_heb_power(3, 3)
    x0 = np.array([3.0, 1.5, -1.5])
    heb = rs.HebParams(3, 1.0, p.smoothness_on_ball(np.linalg.norm(x0)))
    f0 = p.value(x0)
    gaps = [p.value(rs.scheduled_restart(p, heb, x0, f0, budget=b).final.x)
            for b in (128, 256, 512)]
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


def test_grid_cells_structure():
    cells = rs.grid_cells(128)
    # exponents p >= 1 index lengths 2^p; q = 0 means constant schedule
    for p, q in cells:
        assert 1 <= p <= 7
        assert 0 <= q <= 7
    assert len(cells) == len(set(cells))
    assert len(cells) == 7 * 8


def test_grid_restart_beats_plain_fgm(quad_6):
    from accelib.momentum import fgm

    x0 = np.full(6, 2.0)
    budget = 64
    tr = rs.grid_restart(quad_6, 10.0, x0, budget)
    plain = fgm(quad_6, x0, budget, mu=0.0, L=10.0)
    assert quad_6.value(tr.final.x) <= quad_6.value(plain.final.x) + 1e-15
    assert "best_p" in tr.meta and "best_q" in tr.meta


def test_grid_restart_budget_validation(quad_6):
    with pytest.raises(InvalidArgument):
        rs.grid_restart(quad_6, 10.0, np.zeros(6), 2)


def test_fixed_restart_bad_inner(quad_2):
    with pytest.raises(InvalidArgument):
        rs.fixed_restart(quad_2, "cg", 5, np.ones(2), epochs=2, L=10.0)


def test_grid_restart_counts_every_cell(quad_6):
    budget = 16
    tr = rs.grid_restart(quad_6, 10.0, np.full(6, 2.0), budget)
    assert tr.final.grad_calls == budget * len(rs.grid_cells(budget))


def test_fixed_restart_counts_calls_per_record(quad_2):
    tr = rs.fixed_restart(quad_2, "fgm", 10, np.array([5.0, -4.0]), epochs=3, L=10.0)
    assert len(tr) == 31
    for i, r in enumerate(tr):
        assert r.grad_calls == i


def test_scheduled_restart_counts_calls_per_record():
    p = oracles.make_heb_power(4, 3)
    x0 = np.array([3.0, 1.5, -1.5])
    heb = rs.HebParams(4, 1.0, p.smoothness_on_ball(np.linalg.norm(x0)))
    f0 = p.value(x0)
    ks, _ = rs.schedule_lengths(heb, f0, 100)
    assert ks[0] > 1  # a record mid-epoch would read the epoch's end count
    tr = rs.scheduled_restart(p, heb, x0, f0, budget=100)
    assert len(tr) == 101
    for i, r in enumerate(tr):
        assert r.grad_calls == i
