"""Benchmark for accelib: one closed-loop client running generated jobs.

    python3 perfbench/run.py --workload run-highdim --seed 1 --seconds 35 --trace 0

Run from a checkout holding `src/accelib`. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a traced run. `--workload all` runs every workload and then the known-defect
repros (`--workload defects`), each in its own process, and prints a table.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are fixed before numpy loads and reported with the result.
# One thread: with two on a two-core machine every matvec waits for the
# slower core, which widened the run-to-run spread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("run-highdim", "certify-long", "prox-extrap")
DEADLINE_S = 20.0  # ten times the slowest job seen; a hang counts as failed
SETUP_REPEATS = 9
# End-to-end times are scaled to a host on which one reference_kernel() call
# takes REFERENCE_S, about its mean on the 2-vCPU VM the benchmark was written
# on. Other tenants of a shared host slow every job by up to a third for
# minutes at a time; the kernel, timed before each job, slows with them, and
# the scaling cancels that drift.
REFERENCE_S = 0.0019
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_ms.p50", "ms"),
              ("job_ms.p90", "ms"), ("peak_rss_mb", "MB"))


class JobTimeout(BaseException):
    """Raised by the alarm handler; a BaseException so that no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_with_deadline(fn, seconds):
    """Call fn(); return (ok, detail). A job fails if it raises, if its output
    check fails, or if it is still running after `seconds`."""
    from workloads import JobFailed

    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            fn()
            return True, "ok"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return False, f"passed its {seconds:g} s deadline"
    except JobFailed as exc:
        return False, f"wrong output: {exc}"
    except Exception as exc:  # the job's failure is the measurement
        return False, f"raised {type(exc).__name__}: {exc}"


@functools.cache
def _reference_data():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((700, 700)), rng.standard_normal(700),
            rng.standard_normal(50), list(rng.standard_normal((20, 20))))


def reference_kernel():
    """Fixed work that does not touch accelib, of the kinds the workloads
    spend their time on: numpy calls on short vectors from Python loops (a
    recurrence, and a pair loop like the interpolation check) and matvecs
    at d=700."""
    A, v, w, points = _reference_data()
    for _ in range(200):
        w = 0.5 * w + 1e-3 * np.dot(w, w)
    for xi in points:
        for xj in points[:6]:
            dx = xi - xj
            np.dot(dx, dx) + np.dot(xj, dx)
    for _ in range(3):
        v = A @ v
        v /= np.linalg.norm(v)


def time_reference():
    """Time one reference_kernel() call after an untimed one, so that the
    time does not depend on what the last job left in the caches."""
    reference_kernel()
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def measure_setup(workload, seed):
    """Median wall time of a fresh interpreter importing accelib.cli and
    generating the job list, and the reference-kernel times taken between
    launches; one untimed launch first fills __pycache__."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            f"import accelib.cli, workloads; workloads.make_jobs({workload!r}, {seed})")
    times, reference = [], []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - t0)
        reference += [time_reference() for _ in range(10)]
    return statistics.median(times), reference


def provenance(workload, seed, seconds, trace):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "commit": commit}


class Loop:
    """One closed-loop client: the next job starts when the previous ends."""

    def __init__(self, jobs, workdir, tracer=None):
        self.jobs = jobs
        self.workdir = workdir
        self.tracer = tracer
        self.latencies = []
        self.failures = []
        self.reference = []

    def run_one(self, job):
        """Run one job and record its latency and, if it failed, why."""
        from tracing import JOB_SPAN
        from workloads import run_job

        call = functools.partial(run_job, job, self.workdir)
        if self.tracer is not None:
            call = functools.partial(self.tracer.span, JOB_SPAN, call)
        t0 = time.perf_counter()
        ok, detail = run_with_deadline(call, DEADLINE_S)
        self.latencies.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.fold()
        if not ok:
            self.failures.append((job["label"], detail))
        return ok, detail

    def run_for(self, seconds, reference=False):
        """Run jobs for `seconds`; with `reference`, time the reference
        kernel before each job."""
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            if reference:
                self.reference.append(time_reference())
            self.run_one(self.jobs[len(self.latencies) % len(self.jobs)])
        self.wall = time.perf_counter() - start
        return self


def weighted_percentile(values, weights, q):
    """The q-th percentile of values, each counted with its weight: linear
    interpolation between the weighted midpoints of the sorted values."""
    order = np.argsort(values)
    v, w = values[order], weights[order]
    return float(np.interp(q / 100.0 * w.sum(), np.cumsum(w) - w / 2.0, v))


def end_to_end_metrics(loop, setup):
    """Job metrics with every slot of the workload's period weighted
    equally, and times scaled to the reference host (see REFERENCE_S).
    Returns the metrics and the same figures unscaled."""
    setup_s, setup_reference = setup
    lat_s = np.array(loop.latencies)
    slots = np.array([loop.jobs[i % len(loop.jobs)]["slot"] for i in range(len(lat_s))])
    counts = np.bincount(slots)
    slot_mean = np.bincount(slots, weights=lat_s)[counts > 0] / counts[counts > 0]
    weights = 1.0 / counts[slots]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {
        "setup_s": setup_s,
        "jobs_per_s": len(slot_mean) / slot_mean.sum(),
        "job_ms.p50": weighted_percentile(lat_s, weights, 50) * 1000.0,
        "job_ms.p90": weighted_percentile(lat_s, weights, 90) * 1000.0,
    }
    speed = statistics.fmean(loop.reference) / REFERENCE_S
    setup_speed = statistics.fmean(setup_reference) / REFERENCE_S
    values = {
        "setup_s": raw["setup_s"] / setup_speed,
        "jobs_per_s": raw["jobs_per_s"] * speed,
        "job_ms.p50": raw["job_ms.p50"] / speed,
        "job_ms.p90": raw["job_ms.p90"] / speed,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    raw["reference_s"] = statistics.fmean(loop.reference)
    raw["setup_reference_s"] = statistics.fmean(setup_reference)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, raw


def layer_metrics(tracer, n_jobs, wall, overhead):
    """Per-layer metrics from the folded spans. Times and counts are per job;
    a ratio with nothing to count is 0."""
    from tracing import DRIVER_LAYERS, JOB_SPAN, is_driver, layer_of

    t, c = tracer.totals, tracer.counts
    ns = 1e-9

    def total(*names):
        return sum(t[n][1] for n in names if n in t) * ns / n_jobs

    def self_of(pred):
        return sum(v[2] for n, v in t.items() if pred(n)) * ns / n_jobs

    def calls(pred):
        return sum(v[0] for n, v in t.items() if pred(n)) / n_jobs

    def ratio(a, b):
        return a / b if b else 0.0

    oracle_names = ("oracles.value", "oracles.gradient", "oracles.prox")
    n_oracle = c["grad_calls"] + c["value_calls"] + c["prox_calls"]
    m = {
        "oracles.grad_calls": (c["grad_calls"] / n_jobs, "count/job"),
        "oracles.value_calls": (c["value_calls"] / n_jobs, "count/job"),
        "oracles.prox_calls": (c["prox_calls"] / n_jobs, "count/job"),
        "oracles.self_s": (self_of(lambda n: n in oracle_names), "s/job"),
        "oracles.build_s": (self_of(lambda n: n == "oracles.build"), "s/job"),
        "oracles.reporting_frac": (ratio(c["reporting_calls"], n_oracle), "ratio"),
        "oracles.certify_calls": (c["certify_oracle_calls"] / n_jobs, "count/job"),
        "trace.record_calls": (calls(lambda n: n == "trace.record"), "count/job"),
        "trace.record_self_s": (self_of(lambda n: n == "trace.record"), "s/job"),
        "trace.csv_s": (total("trace.to_csv"), "s/job"),
        "trace.kept_bytes": (tracer.kept_bytes_max, "bytes_computed"),
    }
    for layer in DRIVER_LAYERS:
        m[f"{layer}.calls"] = (calls(lambda n: is_driver(n) and layer_of(n) == layer),
                               "count/job")
        m[f"{layer}.self_s"] = (self_of(lambda n: layer_of(n) == layer), "s/job")
    interp_s = total("certify.interp")
    m.update({
        "composite.backtracks": (c["backtracks"] / n_jobs, "count/job"),
        "composite.accept_frac": (ratio(c["composite_steps"],
                                        c["composite_steps"] + c["backtracks"]), "ratio"),
        "extrapolation.solve_calls": (calls(lambda n: n == "extrapolation.solve"),
                                      "count/job"),
        "extrapolation.solve_s": (total("extrapolation.solve"), "s/job"),
        "extrapolation.fallback_frac": (ratio(c["fallbacks"], c["extrapolation_steps"]),
                                        "ratio"),
        "prox_outer.inner_iters": (c["inner_iters"] / n_jobs, "count/job"),
        "prox_outer.useless_frac": (ratio(c["catalyst_useless"], c["catalyst_total"]),
                                    "ratio"),
        "restart.inner_runs": (c["restart_inner_runs"] / n_jobs, "count/job"),
        "certify.self_s": (self_of(lambda n: layer_of(n) == "certify"), "s/job"),
        "certify.potential_s": (total("certify.potential"), "s/job"),
        "certify.harvest_s": (total("certify.harvest"), "s/job"),
        "certify.interp_s": (interp_s, "s/job"),
        "certify.pairs": (c["pairs"] / n_jobs, "count/job"),
        "certify.pairs_per_s": (ratio(c["pairs"] / n_jobs, interp_s), "1/s"),
        "cli.parse_s": (total("cli.parse"), "s/job"),
        "cli.write_s": (total("cli.write"), "s/job"),
        "cli.self_s": (self_of(lambda n: n == "cli.main"), "s/job"),
        "bench.jobs": (n_jobs, "count"),
        "bench.job_s": (wall / n_jobs, "s/job"),
        "bench.accounted_frac": (self_of(lambda n: n != JOB_SPAN) * n_jobs / wall,
                                 "ratio"),
        "bench.traced_jobs_per_s": (overhead["traced_jobs_per_s"], "1/s"),
        "bench.untraced_jobs_per_s": (overhead["untraced_jobs_per_s"], "1/s"),
        "bench.trace_overhead_frac": (overhead["overhead_frac"], "ratio"),
    })
    return {name: {"value": float(v), "unit": u} for name, (v, u) in m.items()}


def replay_untraced(loop, seconds):
    """Re-run untraced the first traced jobs that took up to `seconds`, and
    compare their wall times with the traced ones."""
    traced, k = 0.0, 0
    while k < len(loop.latencies) and (k == 0 or traced + loop.latencies[k] <= seconds):
        traced += loop.latencies[k]
        k += 1
    plain = Loop(loop.jobs, loop.workdir)
    for job in loop.jobs[:k]:
        plain.run_one(job)
    untraced = sum(plain.latencies)
    return {"traced_jobs_per_s": k / traced, "untraced_jobs_per_s": k / untraced,
            "overhead_frac": traced / untraced - 1.0}


def measure(args, workdir):
    import workloads

    for _ in range(20):
        reference_kernel()  # untimed warm-up
    setup = measure_setup(args.workload, args.seed)
    jobs = workloads.make_jobs(args.workload, args.seed)
    Loop(jobs, workdir).run_one(jobs[0])  # untimed warm-up: first BLAS calls are slow
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        if tracer.missing:
            print(f"note: not traced (gone from the program): {tracer.missing}",
                  file=sys.stderr)
    try:
        loop = Loop(jobs, workdir, tracer).run_for(args.seconds, reference=not args.trace)
    finally:
        if tracer is not None:
            tracer.uninstall()
    n = len(loop.latencies)
    if args.trace:
        overhead = replay_untraced(loop, args.seconds / 4.0)
        metrics, unscaled = layer_metrics(tracer, n, loop.wall, overhead), None
        _print_spans(tracer, n)
    else:
        metrics, unscaled = end_to_end_metrics(loop, setup)
    return loop, metrics, unscaled


def _print_spans(tracer, n_jobs):
    print(f"{'span':<34}{'calls/job':>12}{'total s/job':>13}{'self s/job':>12}",
          file=sys.stderr)
    for name, (calls, total, self_ns) in sorted(tracer.totals.items(),
                                               key=lambda kv: -kv[1][2]):
        print(f"{name:<34}{calls / n_jobs:>12.1f}{total * 1e-9 / n_jobs:>13.5f}"
              f"{self_ns * 1e-9 / n_jobs:>12.5f}", file=sys.stderr)


def run_defects(workdir):
    """Run each known-defect repro once; a defect that still stands fails."""
    import workloads

    loop = Loop([], workdir)
    for job in workloads.DEFECTS:
        ok, detail = loop.run_one(job)
        print(f"{job['label']}: {'fixed' if ok else 'stands'} ({detail})", file=sys.stderr)
    return loop


def run_all(args):
    """Each workload, then the defect repros, in its own process; print the
    metrics as a table with units and sample counts."""
    results = {}
    for workload in WORKLOADS + ("defects",):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        *_, info, result = proc.stdout.strip().splitlines()
        results[workload] = json.loads(result)
        samples = json.loads(info)["samples"]
        r = results[workload]
        print(f"\n{workload}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
        print(f"  {'failed_frac':<32}{r['failed'] / r['attempted']:>16.6g} {'ratio':<14}"
              f"n={r['attempted']}")
        for name, metric in r["metrics"].items():
            print(f"  {name:<32}{metric['value']:>16.6g} {metric['unit']:<14}"
                  f"n={samples.get(name, samples['jobs'])}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all", "defects"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "accelib" / "__init__.py").is_file():
        print(f"error: no accelib sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        if args.workload == "defects":
            loop, metrics, unscaled = run_defects(str(workdir)), {}, None
        else:
            loop, metrics, unscaled = measure(args, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted, failed = len(loop.latencies), len(loop.failures)
    for label, detail in loop.failures[:20]:
        print(f"failed: {label}: {detail}", file=sys.stderr)
    if attempted < 100 and args.workload != "defects":
        print(f"warning: {attempted} jobs; job_ms.p90 needs 100", file=sys.stderr)
    info = provenance(args.workload, args.seed, args.seconds, args.trace)
    info["samples"] = {"jobs": attempted, "setup_s": SETUP_REPEATS, "peak_rss_mb": 1}
    info["failed_frac"] = failed / attempted if attempted else 0.0
    if unscaled is not None:
        info["unscaled"] = unscaled
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
