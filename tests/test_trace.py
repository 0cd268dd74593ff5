import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_potential_column_is_filled_exactly_when_potential_series_succeeds(quad_6):
    # the one rule behind the column: drive fills it from the registered
    # potential unless that potential refuses the records (form II carries
    # no certificate), just as certify.potential_series refuses them
    from accelib import certify as ct, extrapolation, momentum as mo, oracles
    from accelib import poly_methods as pm, restart
    from accelib.errors import InvalidArgument

    x0 = np.ones(6)
    L = quad_6.params.L
    comp = oracles.CompositeProblem(quad_6, oracles.make_l1(0.0, 6),
                                    x_star=quad_6.x_star, F_star=quad_6.f_star)
    p4 = oracles.make_heb_power(4, 3)
    heb = restart.HebParams(4, 1.0, p4.smoothness_on_ball(3.0))
    runs = _column_runs() + [(run, quad_6) for run in [
        mo.fgm(quad_6, x0, 20, form="II"),
        mo.fgm(quad_6, x0, 20, form="III"),
        mo.ogm(quad_6, x0, 20, form="II"),
        mo.ogm(quad_6, x0, 0, form="II"),
        mo.constant_momentum(quad_6, x0, 20, form="II"),
        mo.monotone_wrap("constant_momentum", quad_6, x0, 20),
        pm.chebyshev(quad_6, x0, 20),
        pm.heavy_ball(quad_6, x0, 20),
        pm.conjugate_gradient_quadratic(quad_6, x0, 5),
        extrapolation.online_rna(quad_6, x0, 1.0 / L, 1e-8, 3, 20),
        restart.fixed_restart(quad_6, "fgm", 5, x0, 3, L=L),
        restart.fixed_restart(quad_6, "gd", 5, x0, 3, gamma=1.0 / L),
        restart.grid_restart(quad_6, L, x0, 16),
    ]] + [(extrapolation.prox_rna(comp, x0, 1.0 / L, 1e-8, 20), comp),
          (restart.scheduled_restart(p4, heb, np.array([2.0, 1.0, -1.0]), 4.0, 64), p4)]
    filled, refused = set(), set()
    for trace, problem in runs:
        csv_column = [row.split(",")[4] for row in trace.to_csv().split("\n")[1:-1]]
        try:
            phi, margins = ct.potential_series(trace, problem)
        except InvalidArgument:
            refused.add((trace.method, trace.meta.get("form")))
            assert trace.potential is None, trace.method
            assert "potential_worst_margin" not in trace.meta, trace.method
            assert "potential_worst_step" not in trace.meta, trace.method
            assert csv_column == [""] * len(trace), trace.method
            continue
        assert trace.potential.tobytes() == phi.tobytes(), trace.method
        k = int(margins.argmin())
        assert trace.meta["potential_worst_step"] == k, trace.method
        assert trace.meta["potential_worst_margin"] == margins[k], trace.method
        assert csv_column == [repr(v) for v in phi.tolist()], trace.method
        filled.add((trace.method, trace.meta.get("form")))
    assert refused == {("fgm", "II"), ("ogm", "II"), ("constant_momentum", "II")} | {
        (m, None) for m in ("chebyshev", "heavy_ball", "cg", "online_rna", "prox_rna",
                            "restart(fgm)", "restart(gd)", "grid_restart", "scheduled_restart")}
    assert filled == {("fgm", "I"), ("fgm", "III"), ("ogm", "I"), ("constant_momentum", "I")} | {
        (m, None) for m in ("gd", "item", "tmm", "fista", "prox_agm", "bregman_agm",
                            "monotone(fgm)", "monotone(constant_momentum)", "ppa",
                            "accel_inexact_ppa", "catalyst")}


def test_counting_oracle_counts_values(quad_2):
    counters = tr_mod.Counters()
    co = tr_mod.CountingOracle(quad_2, counters)
    co.value(np.ones(2))
    f, g = co.value_and_gradient(np.ones(2))
    assert (counters.value_calls, counters.grad_calls) == (2, 1)
    assert f == quad_2.value(np.ones(2)) and np.array_equal(g, quad_2.gradient(np.ones(2)))


def test_value_calls_are_a_tally_but_not_a_csv_column():
    from accelib import composite, oracles

    p = oracles.make_quadratic(np.linspace(1.0, 10.0, 4), np.ones(4), seed=1)
    comp = oracles.CompositeProblem(p, oracles.make_l1(0.1, 4))
    runs = [composite.fista(comp, np.zeros(4), 6, L0=1.0),
            composite.fista(comp, np.ones(4), 4, L0=1.0)]
    assert all(r.final.value_calls > 0 for r in runs)
    joined = tr_mod.join("restart(fista)", {}, runs)
    assert joined.final.value_calls == runs[0].final.value_calls + runs[1].final.value_calls
    assert "value_calls" in tr_mod.TALLIES and "value_calls" not in tr_mod.CSV_HEADER
    assert [len(row.split(",")) for row in joined.to_csv().splitlines()] == [9] * 12


def test_fill_takes_objective_and_gradient_from_one_product():
    # a blind method's block: the quadratic's Hessian is applied once per row,
    # and the composite objective adds h to the smooth value
    from accelib import momentum, oracles

    p = oracles.make_quadratic(np.linspace(1.0, 10.0, 5), np.ones(5), seed=2)
    comp = oracles.CompositeProblem(p, oracles.make_l1(0.3, 5))
    rows = []
    grad = p.gradient
    p.gradient = lambda x: rows.append(np.shape(x)) or grad(x)
    p.value = None  # the fill must not call it
    tr = momentum.bregman_agm(comp, np.zeros(5), 70)  # takes no value itself
    assert sorted(shape for shape in rows if len(shape) == 2) == [(7, 5), (64, 5)]
    assert tr.final.grad_calls == len(rows) - 2 == 70
    X = np.array([r.x for r in tr])
    G = grad(X)  # reference: F - f* with F = f + h, f* the smooth part's (no F* given)
    F = 0.5 * np.einsum("ij,ij->i", X - p.x_star, G) + p.f_star + 0.3 * np.abs(X).sum(axis=1)
    np.testing.assert_allclose([r.f_gap for r in tr], F - p.f_star, rtol=1e-13)
    np.testing.assert_allclose([r.grad_norm for r in tr], np.linalg.norm(G, axis=1),
                               rtol=1e-13)


# ---------------------------------------------------------------------------
# check_finite and the recorded gradient norm

@pytest.mark.parametrize("d", [1, 7, 1000])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_raises_at_every_position(d, bad):
    import warnings

    positions = range(d) if d < 1000 else [0, 1, 499, 998, 999]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i in positions:
            x = np.ones(d)
            x[i] = bad
            with pytest.raises(DivergedError):
                tr_mod.check_finite(x)
        tr_mod.check_finite(np.ones(d))
        tr_mod.check_finite(1e200 * np.ones(d))  # the squared norm overflows; x does not
        tr_mod.check_finite(-1e200 * np.ones(d))


@settings(deadline=None, max_examples=200)
@given(d=st.integers(1, 300), log_scale=st.floats(-300.0, 300.0),
       seed=st.integers(0, 2**32 - 1))
def test_recorded_gradient_norm_is_np_linalg_norm(d, log_scale, seed):
    g = 10.0**log_scale * np.random.default_rng(seed).standard_normal(d)
    rec = tr_mod.Recorder("gd", None, tr_mod.Counters())
    rec.record(0, np.zeros(d), grad=g)  # an overflowing norm records inf, without a warning
    with np.errstate(over="ignore"):
        want = np.linalg.norm(g)
    assert rec.trace.grad_norm.tobytes() == np.float64(want).tobytes()


# ---------------------------------------------------------------------------
# the columnar trace and its read-only record view

def test_records_view_indexing_slicing_iteration(quad_6):
    from accelib.momentum import fgm

    tr = fgm(quad_6, np.ones(6), 9)
    assert len(tr) == len(tr.records) == 10
    ks = [r.k for r in tr]
    assert ks == list(range(10)) == [r.k for r in tr.records]
    assert tr.records[3].k == 3 and tr.records[-1].k == 9 and tr.records[-10].k == 0
    assert tr.final.k == 9 and np.array_equal(tr.final.x, tr.x[-1])
    assert [r.k for r in tr.records[2:8:3]] == [2, 5]
    assert [r.k for r in tr.records[::-1]] == ks[::-1]
    pairs = list(zip(tr.records, tr.records[1:]))
    assert [(a.k, b.k) for a, b in pairs] == [(k, k + 1) for k in range(9)]
    with pytest.raises(IndexError):
        tr.records[10]
    r = tr.records[4]
    assert np.array_equal(r.x, tr.x[4]) and r.f_gap == tr.f_gap[4]
    assert (r.grad_calls, r.value_calls, r.state["A"]) == (tr.tallies[4][0], tr.tallies[4][4],
                                                           tr.column("A")[4])
    assert isinstance(r.f_gap, float) and isinstance(r.grad_calls, int)


def test_record_x_is_read_only_and_not_aliased(quad_2):
    rec = tr_mod.Recorder("gd", quad_2, tr_mod.Counters())
    x = np.array([1.0, 2.0])
    rec.record(0, x, state={"z": x})
    x[0] = 5.0  # the method reuses its array after recording
    r = rec.trace.records[0]
    assert r.x.tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        r.x[0] = 3.0
    with pytest.raises(TypeError):
        r.state["z"] = None
    with pytest.raises(AttributeError):
        r.f_gap = 0.0
    for col in (rec.trace.x, rec.trace.f_gap, rec.trace.grad_norm, rec.trace.dist_opt):
        assert not col.flags.writeable


def test_trace_read_mid_run_grows_its_columns(quad_2):
    rec = tr_mod.Recorder("gd", quad_2, tr_mod.Counters())
    rec.record(0, np.ones(2), state={"A": 1.0})
    assert rec.trace.column("A").tolist() == [1.0]
    rec.record(1, np.zeros(2), state={"A": 2.0})
    tr = rec.trace
    assert tr.column("A").tolist() == [1.0, 2.0]  # the cached column is restacked
    assert tr.x.tolist() == [[1.0, 1.0], [0.0, 0.0]] and tr.f_gap.tolist() == [5.5, 0.0]


def test_join_renumbers_offsets_and_marks_epochs(quad_6):
    from accelib.momentum import fgm

    a = fgm(quad_6, np.ones(6), 4)
    b = fgm(quad_6, a.final.x, 3)
    c = fgm(quad_6, b.final.x, 0)  # a run without steps adds no record
    joined = tr_mod.join("restart(fgm)", {"k": 4}, [a, b, c])
    assert [r.k for r in joined] == list(range(8))
    assert [r.state for r in joined] == [{"epoch": 0}] + [{"epoch": 1}] * 4 + [{"epoch": 2}] * 3
    assert np.array_equal(joined.x, np.vstack([a.x, b.x[1:]]))
    assert joined.f_gap.tolist() == a.f_gap.tolist() + b.f_gap[1:].tolist()
    for t in tr_mod.TALLIES:
        got = [getattr(r, t) for r in joined]
        want = ([getattr(r, t) for r in a]
                + [getattr(r, t) + getattr(a.final, t) for r in b.records[1:]])
        assert got == want, t
    assert joined.potential is None and joined.meta == {"k": 4}


# ---------------------------------------------------------------------------
# Hessian products, and what a trace holds

def test_counting_oracle_counts_hessian_products(quad_6):
    from accelib import momentum, poly_methods as pm

    counters = tr_mod.Counters()
    co = tr_mod.CountingOracle(quad_6, counters)
    v = np.arange(6.0)
    assert np.array_equal(co.hessian_matvec(v), quad_6.hessian_matvec(v))
    assert (counters.hess_calls, counters.grad_calls, counters.value_calls) == (1, 0, 0)
    assert tr_mod.TALLIES[-1] == "hess_calls" and tr_mod.TALLIES.index("value_calls") == 4
    x0 = np.ones(6)
    for tr in (pm.gradient_descent(quad_6, 0.1, x0, 5), momentum.fgm(quad_6, x0, 5),
               momentum.ogm(quad_6, x0, 5), momentum.item(quad_6, x0, 5)):
        assert [r.hess_calls for r in tr] == [0] * 6, tr.method


def _traced(fn):
    """fn() and the bytes it leaves allocated, as tracemalloc counts them."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_an_ogm_trace_holds_each_array_once():
    # x, z, y_prev and g_prev are (N+1) x d values each; a second copy of any
    # of them (per-record arrays beside a stacked column) would be a fifth
    from accelib import certify, momentum, oracles

    d, N = 600, 150
    rng = np.random.default_rng(3)
    p = oracles.make_quadratic(np.linspace(0.1, 10.0, d), rng.standard_normal(d), seed=3)
    x0 = rng.standard_normal(d)
    tr, kept = _traced(lambda: momentum.ogm(p, x0, N))
    block = (N + 1) * d * 8
    assert 4 * block < kept < 4.5 * block
    assert tr.x.shape == (N + 1, d) and tr.x.base is None and not tr.x.flags.writeable
    columns = {"z": tr.column("z"), "y_prev": tr.column("y_prev", 1),
               "g_prev": tr.column("g_prev", 1)}
    for i, state in enumerate(tr.states):
        for key, col in columns.items():
            if key in state:
                assert np.shares_memory(state[key], col), (i, key)
                assert not state[key].flags.writeable
    last = tr.states[-1]
    assert np.shares_memory(last["y_final"], tr.x) and not last["y_final"].flags.writeable
    # certify reads the same columns: no new stacking, the same margins
    again, more = _traced(lambda: [tr.column("z"), tr.column("y_prev", 1),
                                   tr.column("g_prev", 2)])
    assert all(np.shares_memory(a, columns[k]) for a, k in zip(again, columns))
    assert more < block / 10
    _, margins = certify.potential_series(tr, p)
    k = int(margins.argmin())
    assert (tr.meta["potential_worst_step"], tr.meta["potential_worst_margin"]) == (k, margins[k])


def _replay(source, problem, reads=(), potential=None):
    """A Recorder fed the rows of `source` blind (no gradient, no N), its
    trace read after each record count in `reads`; returns the final trace."""
    rec = tr_mod.Recorder(source.method, problem, tr_mod.Counters(), source.meta, potential)
    seen = []
    for i, (k, x, state) in enumerate(zip(source.k, source.x, source.states)):
        rec.record(k, x, state=state)
        if i + 1 in reads:
            tr = rec.trace
            assert len(tr) == len(tr.x) == len(tr.f_gap) == i + 1
            seen.append((tr.x, tr.x.copy()))
    for x, copy in seen:  # rows handed out earlier never change
        assert np.array_equal(x, copy)
    return rec.trace


@pytest.mark.parametrize("which", ["catalyst", "fixed_restart"])
def test_a_trace_read_mid_run_fills_as_one_filled_once(which):
    from accelib import certify, oracles, prox_outer, restart

    rng = np.random.default_rng(8)
    p = oracles.make_quadratic(np.linspace(0.05, 10.0, 30), rng.standard_normal(30), seed=8)
    x0 = rng.standard_normal(30)
    if which == "catalyst":
        source, potential = prox_outer.catalyst(p, "gd", 0.5, 600, x0), certify.ppa_potential
    else:
        source, potential = restart.fixed_restart(p, "fgm", 23, x0, 7, L=10.0), None
    n = len(source)
    assert n > 2 * 64 and n % 64
    once = _replay(source, p, potential=potential)
    assert once.x.shape == source.x.shape and once.x.base is None
    assert once.x.tobytes() == source.x.tobytes()
    for reads in [(1, 63, 64, 65, n - 1), range(1, n + 1, 37)]:
        mid = _replay(source, p, reads, potential)
        for name in ("x", "f_gap", "grad_norm", "dist_opt", "potential"):
            a, b = getattr(once, name), getattr(mid, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), (reads, name)
        assert mid.meta == once.meta and mid.x.base is None


def test_a_horizon_past_memory_grows_with_the_run(quad_6):
    # N + 1 rows that no allocation can hold: the column grows as for N=None
    rec = tr_mod.Recorder("gd", quad_6, tr_mod.Counters(), rows=10**15)
    for k in range(70):
        rec.record(k, np.full(6, 1.0 / (k + 1)))
    assert rec.trace.x.shape == (70, 6) and rec.trace.x[69, 0] == 1.0 / 70


def test_only_a_missing_certificate_leaves_the_potential_column_empty(quad_2, monkeypatch):
    # the fill swallows NoCertificate alone: any other error of a potential
    # leaves the run, as it would leave `potential_series`
    from accelib import certify, poly_methods
    from accelib.errors import InvalidArgument, NoCertificate

    def refusing(trace, gap, x_star, gap_at):
        raise NoCertificate("the records carry no z")

    def broken(trace, gap, x_star, gap_at):
        raise InvalidArgument("broken potential")

    monkeypatch.setitem(certify._POTENTIALS, "gd", refusing)
    trace = poly_methods.gradient_descent(quad_2, 0.1, np.ones(2), 5)
    assert trace.potential is None and "potential_worst_margin" not in trace.meta
    monkeypatch.setitem(certify._POTENTIALS, "gd", broken)
    with pytest.raises(InvalidArgument, match="broken potential"):
        poly_methods.gradient_descent(quad_2, 0.1, np.ones(2), 5)


# ---------------------------------------------------------------------------
# snapshot vectors are copied into their columns at record time

def test_a_step_may_modify_a_recorded_snapshot_vector_in_place(quad_2):
    # every step overwrites the one z array in place after its view returned it
    def start(co):
        def step(s):
            s["z"][:] = s["k"] + 1.0
            return {"k": s["k"] + 1, "x": s["x"] / 2.0, "z": s["z"]}

        return {"k": 0, "x": np.ones(2), "z": np.zeros(2)}, step

    tr = tr_mod.drive("in_place", quad_2, {}, start, lambda s: (s["x"], None, {"z": s["z"]}), N=3)
    want = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]
    assert tr.column("z").tolist() == want
    assert [r.state["z"].tolist() for r in tr] == want
    for state in tr.states:
        assert np.shares_memory(state["z"], tr.column("z")) and not state["z"].flags.writeable


def test_an_ogm_run_peaks_less_than_half_a_column_above_its_trace():
    # the recorder copies each snapshot vector once, into its column, and the
    # potential forms its column-sized temporaries in blocks of 64 rows
    import gc
    import tracemalloc

    from accelib import momentum, oracles

    d, N = 200, 1000
    rng = np.random.default_rng(3)
    p = oracles.make_quadratic(np.linspace(0.1, 10.0, d), rng.standard_normal(d), seed=3)
    x0 = rng.standard_normal(d)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tr = momentum.ogm(p, x0, N)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column = (N + 1) * d * 8
    assert len(tr) == N + 1 and kept - before > 4 * column  # x, z, y_prev, g_prev
    assert peak - kept < column / 2


def test_snapshot_columns_of_a_run_of_unknown_length_grow_in_place():
    # 64 rows, doubled whenever full: a buffer that each doubling copied would
    # hold the old and the new rows together, 1.5 columns above the trace
    import gc
    import tracemalloc

    d, n = 100, 1000
    rec = tr_mod.Recorder("gd", None, tr_mod.Counters())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(n):
            x = np.full(d, float(k))
            rec.record(k, x, grad=x, state={"z": -x, "A": float(k)})
        tr = rec.trace
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    column = n * d * 8
    assert tr.column("z")[n - 1, 0] == -(n - 1.0) and tr.x.base is None
    assert 2 * column < kept - before and peak - kept < column / 2


def test_a_snapshot_vector_is_in_every_record_from_its_first(quad_2):
    # y is a copy until its last record, where it is the iterate itself (as
    # OGM's form II records it); z stops after record 2
    from accelib.errors import InvalidArgument, NoCertificate

    rec = tr_mod.Recorder("gd", quad_2, tr_mod.Counters())
    for k in range(5):
        x = np.full(2, float(k))
        state = {"y": x if k == 4 else x + 10.0}
        if k < 3:
            state["z"] = -x
        rec.record(k, x, state=state)
    tr = rec.trace
    assert tr.column("y")[:, 0].tolist() == [10.0, 11.0, 12.0, 13.0, 4.0]
    assert [s["z"][0] for s in tr.states[:3]] == [0.0, -1.0, -2.0]
    assert all(not v.flags.writeable for s in tr.states for v in s.values())
    with pytest.raises(NoCertificate):
        tr.column("z")  # records 3 and 4 carry no z
    # a vector key that skips a record, or that began as the iterate and then
    # holds another array, has no column to extend
    for states in ([{"z": np.ones(2)}, {}, {"z": np.ones(2)}],
                   [{"y": None}, {"y": np.ones(2)}]):
        rec = tr_mod.Recorder("gd", quad_2, tr_mod.Counters())
        with pytest.raises(InvalidArgument, match="snapshot vector"):
            for k, state in enumerate(states):
                x = np.full(2, float(k))
                rec.record(k, x, state={key: x if v is None else v for key, v in state.items()})


def test_a_composite_problem_without_an_optimum_gets_no_potential(quad_6):
    # the column is measured from the problem's own optimum, as certify's is:
    # the smooth part's optimum is no certificate of the composite problem
    from accelib import certify as ct, composite as cp, momentum as mo, oracles
    from accelib.errors import NoCertificate

    x0, d = np.ones(6), 6
    lasso = oracles.CompositeProblem(quad_6, oracles.make_l1(0.1, d))
    simplex = oracles.CompositeProblem(quad_6, oracles.make_simplex_indicator(d))
    runs = [(cp.fista(lasso, x0, 20), lasso),
            (cp.prox_agm(lasso, x0, 20), lasso),
            (mo.bregman_agm(simplex, np.full(d, 1.0 / d), 20, dgf="entropy"), simplex),
            (mo.monotone_wrap("fista", lasso, x0, 20), lasso)]
    for trace, problem in runs:
        assert trace.potential is None, trace.method
        assert not {"potential_worst_margin", "potential_worst_step"} & set(trace.meta)
        assert all(row.split(",")[4] == "" for row in trace.to_csv().split("\n")[1:-1])
        with pytest.raises(NoCertificate, match="potential checks need a known optimum"):
            ct.potential_series(trace, problem)


def test_a_float_scalar_column_is_a_lookup():
    # a float entry (FGM's A) is written into a float column at record time:
    # certify's two reads of it per run share that column, and stack nothing
    import tracemalloc

    from accelib import momentum, oracles

    rng = np.random.default_rng(5)
    p = oracles.make_quadratic(np.linspace(0.1, 10.0, 8), rng.standard_normal(8), seed=5)
    tr = momentum.fgm(p, rng.standard_normal(8), 150)
    first = tr.column("A")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        again = tr.column("A")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1024
    assert np.shares_memory(first, again) and np.shares_memory(tr.column("A", 1), first)
    assert not first.flags.writeable and not again.flags.writeable
    assert first.tolist() == [r.state["A"] for r in tr]
    assert all(type(s["A"]) is float for s in tr.states)


@pytest.mark.parametrize("error", ["InnerSolveError", "DivergedError"])
def test_a_run_error_raised_without_a_trace_gets_the_partial_one(quad_2, error):
    # both partial-trace errors share one base: drive attaches the records
    # made before the failing step to either, and RunError catches both
    from accelib import errors

    def start(co):
        def step(s):
            if s["k"] == 2:  # the step from record 2: records 0, 1 and 2 are made
                raise getattr(errors, error)("toy stepper failed")
            return {"k": s["k"] + 1, "x": s["x"] / 2.0}

        return {"k": 0, "x": np.array([4.0, -2.0])}, step

    with pytest.raises(errors.RunError) as info:
        tr_mod.drive("toy", quad_2, {}, start, lambda s: (s["x"], None, {}), N=10)
    assert type(info.value) is getattr(errors, error)
    assert info.value.trace is not None and len(info.value.trace) == 3
    assert info.value.trace.x[:, 0].tolist() == [4.0, 2.0, 1.0]
    assert info.value.trace.k == [0, 1, 2]


def test_column_of_an_object_key_is_its_entries_as_recorded(quad_2, quad_6):
    # a snapshot entry that is neither a float nor a float vector is looked up,
    # not stacked as floats: a read-only view of its column, types kept
    from accelib import extrapolation as ex, restart as rs
    from accelib.errors import NoCertificate

    k = 20
    restarted = rs.fixed_restart(quad_2, "fgm", k, np.array([5.0, -4.0]), epochs=3, L=10.0)
    epoch = restarted.column("epoch")
    assert epoch.tolist() == [0] + [1] * k + [2] * k + [3] * k
    assert all(type(e) is int for e in epoch.tolist())
    assert not epoch.flags.writeable
    assert np.shares_memory(epoch, restarted.column("epoch", 1))

    online = ex.online_rna(quad_6, np.full(6, 1.5), h=0.1, lam=0.0, m=8, N=12)
    fallback = online.column("fallback", 1)
    assert fallback.tolist() == [r.state["fallback"] for r in online.records[1:]]
    assert all(type(f) is bool for f in fallback.tolist()) and any(fallback.tolist())
    assert not fallback.flags.writeable
    assert np.shares_memory(fallback, online.column("fallback", 1))
    with pytest.raises(NoCertificate):
        online.column("fallback")  # record 0 carries no fallback
