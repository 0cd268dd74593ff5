import numpy as np
import pytest

from accelib import trace as tr_mod
from accelib.errors import DivergedError


def test_csv_header_frozen():
    assert tr_mod.CSV_HEADER == (
        "k,f_gap,grad_norm,dist_opt,potential,grad_calls,prox_calls,"
        "inner_iters,wall_ns"
    )


def test_counting_oracle_counts(quad_2):
    counters = tr_mod.Counters()
    co = tr_mod.CountingOracle(quad_2, counters)
    co.gradient(np.ones(2))
    co.gradient(np.ones(2))
    co.prox(np.ones(2), 1.0)
    assert counters.grad_calls == 2
    assert counters.prox_calls == 1


def test_recorder_unknown_optimum_yields_nan():
    from accelib.oracles import ClassParams, ProblemOracle

    blind = ProblemOracle(value=lambda x: float(x @ x),
                          gradient=lambda x: 2.0 * x,
                          params=ClassParams(0.0, 2.0))
    counters = tr_mod.Counters()
    rec = tr_mod.Recorder("gd", blind, counters, meta={})
    rec.record(0, np.array([1.0]))
    r = rec.trace.records[0]
    assert np.isnan(r.f_gap) and np.isnan(r.dist_opt)


def test_check_finite_raises(quad_2):
    counters = tr_mod.Counters()
    rec = tr_mod.Recorder("gd", quad_2, counters, meta={})
    rec.record(0, np.ones(2))
    with pytest.raises(DivergedError) as exc:
        tr_mod.check_finite(np.array([np.inf, 0.0]), rec.trace)
    assert exc.value.trace is rec.trace


def test_to_csv_rows(quad_2):
    counters = tr_mod.Counters()
    rec = tr_mod.Recorder("gd", quad_2, counters, meta={})
    rec.record(0, np.ones(2))
    rec.record(1, np.zeros(2))
    text = rec.trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == tr_mod.CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    assert lines[2].startswith("1,")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_diverged_partial_trace_has_reporting_columns(quad_6):
    from accelib.poly_methods import gradient_descent

    with pytest.raises(DivergedError) as exc:
        gradient_descent(quad_6, 3.0 / quad_6.params.L, np.ones(6), 5000)
    records = exc.value.trace.records
    assert len(records) > 500
    X = np.array([r.x for r in records])
    want = {
        "grad_norm": [np.linalg.norm(quad_6.gradient(x)) for x in X],
        "f_gap": [quad_6.value(x) - quad_6.f_star for x in X],
        "dist_opt": [np.linalg.norm(x - quad_6.x_star) for x in X],
    }
    for col, ref in want.items():
        got = np.array([getattr(r, col) for r in records], dtype=float)
        ref = np.array(ref)
        # f and ||g|| overflow long before x does; where the direct
        # evaluation is finite, so is the record
        assert np.isfinite(ref[:100]).all()
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0, err_msg=col)


def test_recorder_used_directly_fills_csv(quad_2):
    rec = tr_mod.Recorder("gd", quad_2, tr_mod.Counters(), meta={})
    rec.record(0, np.ones(2))
    rec.record(1, np.array([0.5, 0.0]), grad=np.array([0.5, 0.0]))
    rows = [line.split(",") for line in rec.trace.to_csv().strip().split("\n")[1:]]
    # f = (x_1^2 + 10 x_2^2)/2 and grad = (x_1, 10 x_2) on quad_2
    assert [float(r[1]) for r in rows] == pytest.approx([5.5, 0.125], rel=1e-15)
    assert [float(r[2]) for r in rows] == pytest.approx([np.sqrt(101.0), 0.5], rel=1e-15)
    assert [float(r[3]) for r in rows] == pytest.approx([np.sqrt(2.0), 0.5], rel=1e-15)


def _column_runs():
    from accelib import composite, momentum as mo, oracles, poly_methods as pm
    from accelib import prox_outer as po

    rng = np.random.default_rng(5)
    quad = oracles.make_quadratic(np.linspace(0.1, 10.0, 5), rng.standard_normal(5), seed=5)
    comp = oracles.CompositeProblem(quad, oracles.make_l1(0.0, 5),
                                    x_star=quad.x_star, F_star=quad.f_star)
    x0 = rng.standard_normal(5)
    N = 70  # more than one block of reporting rows
    return [
        (pm.gradient_descent(quad, 0.1, x0, N, mu=0.1), quad),
        (mo.fgm(quad, x0, N), quad),
        (mo.ogm(quad, x0, N), quad),
        (mo.constant_momentum(quad, x0, N), quad),
        (mo.item(quad, x0, N), quad),
        (mo.tmm(quad, x0, N), quad),
        (composite.fista(comp, x0, N, L0=1.0, mode="monotone"), comp),
        (composite.prox_agm(comp, x0, N, L0=1.0, mode="reset"), comp),
        (mo.bregman_agm(comp, x0, N), comp),
        (mo.monotone_wrap("fgm", comp, x0, N), comp),
        (po.ppa(quad, [0.5] * N, x0), quad),
        (po.accel_inexact_ppa(po.exact_prox_solver(quad), [0.5] * N, 0.0, x0,
                              oracle=quad), quad),
        (po.catalyst(quad, "gd", 0.5, 200, x0), quad),
    ]


def test_potential_column_is_the_certified_series():
    from accelib import certify as ct

    for trace, problem in _column_runs():
        phi, margins = ct.potential_series(trace, problem)
        column = np.array([r.potential for r in trace], dtype=float)
        np.testing.assert_array_equal(column, phi, err_msg=trace.method)
        slacks = [m.slack for m in ct.check_potential(trace, problem)]
        k = int(np.argmin(slacks))
        assert trace.meta["potential_worst_step"] == k, trace.method
        assert trace.meta["potential_worst_margin"] == slacks[k], trace.method
        csv_column = [row.split(",")[4] for row in trace.to_csv().split("\n")[1:-1]]
        assert [float(v) for v in csv_column] == column.tolist()


def test_potential_column_empty_without_a_potential(quad_6):
    from accelib import extrapolation, poly_methods as pm, restart

    x0 = np.ones(6)
    traces = [
        pm.chebyshev(quad_6, x0, 5),
        pm.heavy_ball(quad_6, x0, 5),
        pm.conjugate_gradient_quadratic(quad_6, x0, 5),
        extrapolation.online_rna(quad_6, x0, 1.0 / quad_6.params.L, 1e-8, 3, 5),
        restart.fixed_restart(quad_6, "fgm", 3, x0, 2, L=quad_6.params.L),
        restart.grid_restart(quad_6, quad_6.params.L, x0, 8),
    ]
    rec = tr_mod.Recorder("gd", quad_6, tr_mod.Counters(), meta={})
    rec.record(0, x0)
    rec.record(1, x0 / 2)
    traces.append(rec.trace)
    for trace in traces:
        assert all(r.potential is None for r in trace), trace.method
        assert "potential_worst_margin" not in trace.meta
        assert all(row.split(",")[4] == "" for row in trace.to_csv().split("\n")[1:-1])
