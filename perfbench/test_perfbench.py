"""Self-tests of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from accelib import momentum, oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    code, lines = _bench("--workload", "prox-extrap", "--seed", "3",
                         "--seconds", "0.5", "--trace", trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(section)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
    assert run.WORKLOADS == workloads.WORKLOADS


def test_same_seed_same_jobs():
    for name in workloads.WORKLOADS:
        assert workloads.make_jobs(name, 7) == workloads.make_jobs(name, 7)
        assert workloads.make_jobs(name, 7) != workloads.make_jobs(name, 8)


def test_a_slot_keeps_its_shape():
    def shape(job):
        if job["kind"] == "lib":
            return {k: v for k, v in job.items() if k != "seed"}
        argv = list(job["argv"])
        del argv[argv.index("--seed"):argv.index("--seed") + 2]
        return job["label"], argv

    for name in workloads.WORKLOADS:
        jobs = workloads.make_jobs(name, 5)
        period = max(job["slot"] for job in jobs) + 1
        assert len(jobs) % period == 0
        for i, job in enumerate(jobs[period:], period):
            assert job["slot"] == i % period
            assert shape(job) == shape(jobs[i % period])


def test_every_slot_weighs_the_same():
    lat = np.array([1.0, 1.0, 1.0, 5.0])
    one_each = np.array([1.0, 1.0, 1.0, 1.0])
    assert run.weighted_percentile(lat, one_each, 50) == 1.0
    assert run.weighted_percentile(lat, one_each, 90) == 5.0
    # slot 0 ran three times and slot 1 once: equal weight per slot
    per_slot = np.array([1 / 3, 1 / 3, 1 / 3, 1.0])
    assert run.weighted_percentile(lat, per_slot, 40) == 1.0
    assert run.weighted_percentile(lat, per_slot, 75) == 5.0
    assert 1.0 < run.weighted_percentile(lat, per_slot, 60) < 5.0


def test_times_scale_with_the_reference_kernel():
    loop = run.Loop([{"slot": 0}, {"slot": 1}], ".")
    loop.latencies = [0.1, 0.3, 0.1]
    loop.reference = [2 * run.REFERENCE_S]  # a host running at half speed
    metrics, raw = run.end_to_end_metrics(loop, (0.5, [run.REFERENCE_S]))
    assert raw["jobs_per_s"] == pytest.approx(2 / 0.4)
    assert metrics["jobs_per_s"]["value"] == pytest.approx(2 * 2 / 0.4)
    assert metrics["job_ms.p50"]["value"] == pytest.approx(raw["job_ms.p50"] / 2)
    assert metrics["setup_s"]["value"] == pytest.approx(0.5)


def test_fails_without_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "run-highdim", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _stub_loop(monkeypatch, tmp_path, job_fn, deadline=0.2):
    monkeypatch.setattr(workloads, "run_job", lambda job, workdir: job_fn())
    monkeypatch.setattr(run, "DEADLINE_S", deadline)
    return run.Loop([{"label": "stub"}], str(tmp_path)).run_for(0.05)


def test_job_past_deadline_counts_as_failed(monkeypatch, tmp_path):
    loop = _stub_loop(monkeypatch, tmp_path, lambda: time.sleep(5))
    assert len(loop.latencies) == 1 and loop.latencies[0] < 1.0
    assert loop.failures == [("stub", "passed its 0.2 s deadline")]


def test_wrong_output_counts_as_failed(monkeypatch, tmp_path):
    def wrong():
        raise workloads.JobFailed("gap above bound")

    loop = _stub_loop(monkeypatch, tmp_path, wrong)
    assert loop.failures and all("wrong output" in d for _, d in loop.failures)


def test_run_check_rejects_missed_bound_and_nan(tmp_path):
    out = tmp_path / "t.csv"
    header = "k,f_gap,grad_norm,dist_opt,potential,grad_calls,prox_calls,inner_iters,wall_ns"
    out.write_text(f"{header}\n0,1.0,1.0,1.0,,0,0,0,5\n")
    sidecar = {"final_gap": 1.0, "bound": 2.0, "bound_satisfied": True}
    (tmp_path / "t.csv.json").write_text(json.dumps(sidecar))
    workloads._check_run_output(str(out))
    (tmp_path / "t.csv.json").write_text(json.dumps({**sidecar, "bound_satisfied": False}))
    with pytest.raises(workloads.JobFailed):
        workloads._check_run_output(str(out))
    (tmp_path / "t.csv.json").write_text(json.dumps(sidecar))
    out.write_text(f"{header}\n0,nan,1.0,1.0,,0,0,0,5\n")
    with pytest.raises(workloads.JobFailed):
        workloads._check_run_output(str(out))


def test_defects_are_counted(tmp_path, monkeypatch):
    # (b) and (c) fail fast; (a) would hang until the deadline
    monkeypatch.setattr(workloads, "DEFECTS", workloads.DEFECTS[1:])
    loop = run.run_defects(str(tmp_path))
    assert len(loop.latencies) == 2


def _self_sum(totals):
    return sum(v[2] for v in totals.values())


def test_child_self_times_sum_to_parent():
    tr = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        tr.span("b.leaf", leaf)
        time.sleep(0.001)
        tr.span("b.leaf", leaf)

    tr.span(tracing.JOB_SPAN, tr.span, "a.middle", middle)
    tr.fold()
    job = tr.totals[tracing.JOB_SPAN]
    assert _self_sum(tr.totals) == job[1]
    assert tr.totals["b.leaf"][0] == 2
    assert tr.totals["a.middle"][2] == tr.totals["a.middle"][1] - tr.totals["b.leaf"][1]


def test_installed_tracer_accounts_for_a_real_run():
    p = oracles.make_quadratic([1.0, 4.0, 9.0], [1.0, 2.0, 3.0], seed=1)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert tr.missing == []
        tr.span(tracing.JOB_SPAN, momentum.fgm, p, [0.0, 0.0, 0.0], 5)
    finally:
        tr.uninstall()
    tr.fold()
    assert _self_sum(tr.totals) == tr.totals[tracing.JOB_SPAN][1]
    assert tr.totals["momentum.fgm"][0] == 1
    assert tr.counts["grad_calls"] >= 5
    assert tr.counts["reporting_calls"] > 0
    assert not hasattr(momentum.fgm, "__wrapped__")


def test_lasso_optimum_is_a_prox_gradient_fixed_point():
    prob, _ = workloads._lasso(30, seed=4)
    x, gamma = prob.x_star, 1.0 / prob.smooth.params.L
    step = prob.nonsmooth.prox(x - gamma * prob.smooth.gradient(x), gamma)
    assert np.linalg.norm(step - x) <= 1e-10 * (1.0 + np.linalg.norm(x))
    assert np.count_nonzero(x) < x.size  # the l1 term is active somewhere
