import json
import math

import numpy as np
import pytest

from accelib import oracles, restart as rs
from accelib.errors import DivergedError, InvalidArgument
from accelib.momentum import fgm
from accelib.poly_methods import gradient_descent
from accelib.trace import join


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


def _chained(oracle, inner, lengths, x0, gamma=None, L=None):
    """Reference restart: one public driver run per epoch, each started at the
    previous run's output, joined into one trace."""

    def run(x, k):
        if inner == "gd":
            return gradient_descent(oracle, gamma, x, k)
        return fgm(oracle, x, k, mu=0.0, L=L)

    runs, x = [], np.array(x0, dtype=float)
    for k in lengths:
        runs.append(run(x, k))
        x = runs[-1].final.x
    return join("reference", {}, runs or [run(x, 0)])


def _assert_same_run(tr, ref):
    assert len(tr) == len(ref)
    for r, s in zip(tr, ref):
        assert r.k == s.k and r.state == s.state
        assert np.array_equal(r.x, s.x)
        assert (r.grad_calls, r.prox_calls, r.inner_iters, r.value_calls) == \
            (s.grad_calls, s.prox_calls, s.inner_iters, s.value_calls)
    for col in ("f_gap", "grad_norm", "dist_opt"):
        np.testing.assert_allclose([getattr(r, col) for r in tr],
                                   [getattr(s, col) for s in ref], rtol=1e-12, atol=0)


@pytest.mark.parametrize("inner, k, epochs", [("fgm", 7, 4), ("fgm", 1, 3), ("gd", 5, 3),
                                              ("gd", 3, 0), ("fgm", 4, 0)])
def test_fixed_restart_is_the_chained_inner_runs(quad_6, inner, k, epochs):
    x0 = np.full(6, 2.0)
    gamma = 1.0 / quad_6.params.L
    tr = rs.fixed_restart(quad_6, inner, k, x0, epochs, gamma=gamma, L=quad_6.params.L)
    assert tr.method == f"restart({inner})"
    assert tr.meta == {"k": k, "epochs": epochs, "inner": inner}
    _assert_same_run(tr, _chained(quad_6, inner, [k] * epochs, x0, gamma, quad_6.params.L))


@pytest.mark.parametrize("r, budget", [(4, 100), (3, 257), (2, 90), (4, 0)])
def test_scheduled_restart_is_the_chained_inner_runs(r, budget):
    p = oracles.make_heb_power(r, 3)
    x0 = np.array([3.0, 1.5, -1.5])
    heb = rs.HebParams(r, 1.0, p.smoothness_on_ball(np.linalg.norm(x0)))
    f0 = p.value(x0)
    ks, _ = rs.schedule_lengths(heb, f0, budget)
    lengths, it = [], 0
    for k in ks:  # the schedule, its last epoch cut at the budget
        lengths.append(min(k, budget - it))
        it += lengths[-1]
    tr = rs.scheduled_restart(p, heb, x0, f0, budget)
    assert tr.meta["ks"] == ks
    _assert_same_run(tr, _chained(p, "fgm", lengths, x0, L=heb.L))


@pytest.mark.parametrize("budget", [4, 16, 37])
def test_grid_restart_picks_the_chained_runs_best_cell(quad_6, budget):
    x0 = np.full(6, 2.0)
    table, best = [], None
    for p, q in rs.grid_cells(budget):
        x, it, i = x0.copy(), 0, 0
        while it < budget:
            k = min(int(np.ceil(2.0**p * np.exp((0.0 if q == 0 else 2.0 ** (-q)) * i))),
                    budget - it)
            x = fgm(quad_6, x, k, mu=0.0, L=10.0).final.x
            it, i = it + k, i + 1
        table.append(quad_6.value(x))
        if best is None or table[-1] < best[0]:
            best = (table[-1], p, q, x)
    tr = rs.grid_restart(quad_6, 10.0, x0, budget)
    assert (tr.meta["best_p"], tr.meta["best_q"]) == best[1:3]
    assert [c["f_final"] for c in json.loads(tr.meta["table_json"])] == table
    assert np.array_equal(tr.final.x, best[3]) and np.array_equal(tr.records[0].x, x0)
    assert tr.final.state == {"p": best[1], "q": best[2]}


def test_grid_restart_counts_its_selection_values(quad_6):
    budget = 16
    tr = rs.grid_restart(quad_6, 10.0, np.full(6, 2.0), budget)
    assert tr.final.value_calls == len(rs.grid_cells(budget))
    assert tr.records[0].value_calls == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_diverging_restart_raises_with_the_restart_trace():
    p = oracles.make_quadratic(np.linspace(1.0, 10.0, 6), np.ones(6), seed=2)
    with pytest.raises(DivergedError) as err:
        rs.fixed_restart(p, "fgm", 5, 2.0 * np.ones(6), 400, L=0.05)  # L/200
    tr = err.value.trace
    assert tr.method == "restart(fgm)"
    epochs = [r.state["epoch"] for r in tr]
    assert epochs[:12] == [0] + [1] * 5 + [2] * 5 + [3]  # the earlier epochs are kept
    assert sorted(set(epochs)) == list(range(epochs[-1] + 1)) and epochs == sorted(epochs)
    assert [r.grad_calls for r in tr] == list(range(len(tr)))
    # a grid cell that diverges stops the grid run, before the selection
    with pytest.raises(DivergedError) as err:
        rs.grid_restart(p, 0.05, 2.0 * np.ones(6), 128)
    assert err.value.trace.method == "grid_restart" and len(err.value.trace) == 1
