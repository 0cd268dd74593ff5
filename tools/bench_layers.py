"""Measure accelib's layers apart, in one process with one BLAS thread, and
write BENCH_layers.json. A peak is the tracemalloc peak of one call, traced
from its start, in MiB; a time is the median over repeats that alternate the
order of the cases.

- `cold_peak_mib`, taken first, before any warm-up: "run ogm" is `run
  --method ogm --problem quad:d=200,kappa=100 --N 4000 --seed 2`, from after
  the import; "fixed_restart" is `restart.fixed_restart(p, "fgm", 100, x0, 40,
  L=10.0)` at d = 200, from after the build (`fixed_restart_records`).
- `cases`: gd, fgm, ogm, item, fista and catalyst each run once on `quad:d=10`
  and `quad:d=50` (N = 150, seed 1) through the CLI's method table, and every
  `Recorder.record` call of the run's recorder is captured. The replay of
  those calls into a fresh `Recorder` is timed in two parts: the records
  before the last (`replay_us_per_record`), and the last record with the
  trace read (`fill_us`: a recorder given the run's rows fills inside that
  record). The whole run is timed apart.
- `dims`: the rotated quadratic's build (eigenvalues 0.1 to 10, x* = 0, seed
  2) and its first prox (x = 1, step 0.3) at d = 10 to 1000, timed and traced
  in separate passes, since tracing slows the allocations it counts.
- `cli_peak_mib`: `compare --methods gd,fgm,ogm,item`, `run --method ogm` and
  `run --method ppa` on `quad:d=1000` at `--N 320`, each after a warm-up.

    PYTHONPATH=src python tools/bench_layers.py [--repeats 10] [--out BENCH_layers.json]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from accelib import cli, oracles, restart, trace  # noqa: E402

METHODS = ("gd", "fgm", "ogm", "item", "fista", "catalyst")
RECORD_DIMS, N = (10, 50), 150
DIMS, SEED, STEP = (10, 50, 200, 500, 1000), 2, 0.3
CLI_RUNS = {
    "compare gd,fgm,ogm,item": ["compare", "--methods", "gd,fgm,ogm,item"],
    "run ogm": ["run", "--method", "ogm"],
    "run ppa": ["run", "--method", "ppa"],
}


def _peak(call):
    """call()'s result and its tracemalloc peak in MiB, traced from its start."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _cli(*argv):
    """cli.main(argv) with stdout discarded; a nonzero exit ends the harness."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def _cold(out):
    """(cold_peak_mib, fixed_restart_records)."""
    _, ogm = _peak(lambda: _cli("run", "--method", "ogm", "--problem", "quad:d=200,kappa=100",
                                "--N", "4000", "--seed", "2", "--out", out))
    rng = np.random.default_rng(2)
    p = oracles.make_quadratic(np.linspace(0.1, 10, 200), rng.standard_normal(200), seed=2)
    x0 = rng.standard_normal(200)
    tr, fixed = _peak(lambda: restart.fixed_restart(p, "fgm", 100, x0, 40, L=10.0))
    return {"run ogm": ogm, "fixed_restart": fixed}, len(tr)


def _run(method, d):
    """A thunk running `method` on quad:d=<d> as the CLI's `run` does."""
    args = cli.build_parser().parse_args(
        ["run", "--method", method, "--problem", f"quad:d={d}", "--N", str(N), "--seed", "1"])
    oracle, problem, x0 = cli._setup(args)
    entry = cli.METHODS[method]
    target = problem if entry.composite else oracle
    return lambda: entry.run(args, target, x0)


def _capture(run):
    """(the first recorder's arguments, its record calls) of one run; arrays
    are copied as passed, a state entry that was the iterate stays it."""
    Recorder, made, calls = trace.Recorder, [], []

    class Capturing(Recorder):
        def __init__(self, method, problem, counters, meta=None, potential=None, rows=None):
            super().__init__(method, problem, counters, meta, potential, rows)
            if not made:
                made.append((self, (method, problem, dict(meta or {}), potential, rows)))

        def record(self, k, x, grad=None, state=None):
            if self is made[0][0]:
                x_copy = x.copy()
                snap = {key: x_copy if v is x else v.copy() if isinstance(v, np.ndarray) else v
                        for key, v in (state or {}).items()}
                calls.append((k, x_copy, None if grad is None else grad.copy(), snap))
            super().record(k, x, grad, state)

    trace.Recorder = Capturing
    try:
        run()
    finally:
        trace.Recorder = Recorder
    return made[0][1], calls


def _medians(items, repeats, measure):
    """{item: the medians of the figures measure(item) returns}, over repeats
    that alternate the order of the items."""
    samples = {item: [] for item in items}
    for r in range(repeats):
        for item in items if r % 2 == 0 else items[::-1]:
            gc.collect()
            samples[item].append(measure(item))
    return {item: tuple(map(statistics.median, zip(*rows))) for item, rows in samples.items()}


def _replay_and_run(run, init, calls):
    """(us of the records before the last, us of the last record and the
    trace read, of one replay into a fresh Recorder; whole run us)."""
    method, problem, meta, potential, rows = init
    rec = trace.Recorder(method, problem, trace.Counters(), meta, potential, rows)
    record, (*head, last) = rec.record, calls
    t0 = time.perf_counter_ns()
    for k, x, grad, state in head:
        record(k, x, grad, state)
    t1 = time.perf_counter_ns()
    record(*last)
    rec.trace
    t2 = time.perf_counter_ns()
    run()
    return (t1 - t0) / 1e3, (t2 - t1) / 1e3, (time.perf_counter_ns() - t2) / 1e3


def _cases(repeats):
    cases = {}
    for method in METHODS:
        for d in RECORD_DIMS:
            run = _run(method, d)
            cases[f"{method}/d={d}"] = (run, *_capture(run))
    result = {}
    medians = _medians(list(cases), repeats, lambda name: _replay_and_run(*cases[name]))
    for name, (replay, fill, whole) in medians.items():
        n = len(cases[name][2])
        result[name] = {"records": n, "replay_us_per_record": replay / (n - 1), "fill_us": fill,
                        "run_us": whole, "recorder_frac": (replay + fill) / whole}
    return result


def _build(d):
    """(build ms, first prox ms, build peak MiB, first prox peak MiB) at d."""
    eigs, x_star, x = np.linspace(0.1, 10.0, d), np.zeros(d), np.ones(d)
    t0 = time.perf_counter_ns()
    p = oracles.make_quadratic(eigs, x_star, seed=SEED)
    t1 = time.perf_counter_ns()
    p.prox(x, STEP)
    t2 = time.perf_counter_ns()
    p, build = _peak(lambda: oracles.make_quadratic(eigs, x_star, seed=SEED))
    _, prox = _peak(lambda: p.prox(x, STEP))
    return (t1 - t0) / 1e6, (t2 - t1) / 1e6, build, prox


def _dims(repeats):
    oracles.make_quadratic([1.0], [0.0], seed=0).prox(np.ones(1), STEP)  # one-time costs
    keys = ("build_ms", "prox_ms", "build_peak_mib", "prox_peak_mib")
    return {str(d): dict(zip(keys, figures))
            for d, figures in _medians(DIMS, repeats, _build).items()}


def _cli_peak(argv, out):
    """The peak of one CLI command on quad:d=1000 at --N 320, after it ran on quad:d=2."""
    argv = [*argv, "--N", "320", "--seed", "2", *(["--out", out] if argv[0] == "run" else [])]
    _cli(*argv, "--problem", "quad:d=2")
    gc.collect()
    return _peak(lambda: _cli(*argv, "--problem", "quad:d=1000"))[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out", default="BENCH_layers.json")
    opts = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "trace.csv")
        cold, records = _cold(out)
        result = {"repeats": opts.repeats, "blas_threads": 1, "cold_peak_mib": cold,
                  "fixed_restart_records": records, "cases": _cases(opts.repeats),
                  "dims": _dims(opts.repeats),
                  "cli_peak_mib": {name: _cli_peak(a, out) for name, a in CLI_RUNS.items()}}
    for section in ("cold_peak_mib", "cases", "dims", "cli_peak_mib"):
        for name, v in result[section].items():
            figures = v.items() if isinstance(v, dict) else [("peak_mib", v)]
            print(f"{section:13s} {name:23s}" + "".join(f"  {key} {x:9.3f}" for key, x in figures))
    with open(opts.out, "w") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
