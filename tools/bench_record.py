"""Time the recorder alone, apart from the methods it records.

For gd, fgm, ogm, item, fista and catalyst on `quad:d=10` and `quad:d=50`
(N = 150, seed 1), it runs the method once through the CLI's method table and
captures every `Recorder.record` call of the run's recorder: (k, x, grad,
state), copied as they were passed, with the recorder's arguments. It then
times, separately, the record-only replay of those calls into a fresh
`Recorder` and the fill that reading its trace runs, and the whole library
run. Repeats alternate the order of the cases; each figure is the median over
the repeats. BLAS runs on one thread.

    PYTHONPATH=src python tools/bench_record.py [--repeats 20] [--out BENCH_record.json]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from accelib import cli, trace  # noqa: E402

METHODS = ("gd", "fgm", "ogm", "item", "fista", "catalyst")
DIMS = (10, 50)
N = 150


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

        def record(self, k, x, grad=None, state=None, last=False):
            if self is made[0][0]:
                x_copy = x.copy()
                snap = {key: x_copy if v is x else v.copy() if isinstance(v, np.ndarray) else v
                        for key, v in (state or {}).items()}
                calls.append((k, x_copy, None if grad is None else grad.copy(), snap))
            super().record(k, x, grad, state, last)

    trace.Recorder = Capturing
    try:
        run()
    finally:
        trace.Recorder = Recorder
    return made[0][1], calls


def _time_replay(init, calls):
    """(record-only ns, fill ns) of one replay into a fresh Recorder."""
    method, problem, meta, potential, rows = init
    rec = trace.Recorder(method, problem, trace.Counters(), meta, potential, rows)
    record = rec.record
    t0 = time.perf_counter_ns()
    for k, x, grad, state in calls:
        record(k, x, grad, state)
    t1 = time.perf_counter_ns()
    rec.trace
    return t1 - t0, time.perf_counter_ns() - t1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--out", default="BENCH_record.json")
    opts = parser.parse_args(argv)

    cases = {}
    for method in METHODS:
        for d in DIMS:
            run = _run(method, d)
            init, calls = _capture(run)
            cases[f"{method}/d={d}"] = (run, init, calls, {"replay": [], "fill": [], "run": []})
    names = list(cases)
    for r in range(opts.repeats):
        for name in names if r % 2 == 0 else names[::-1]:
            run, init, calls, times = cases[name]
            gc.collect()
            replay, fill = _time_replay(init, calls)
            t0 = time.perf_counter_ns()
            run()
            times["run"].append(time.perf_counter_ns() - t0)
            times["replay"].append(replay)
            times["fill"].append(fill)

    result = {"N": N, "repeats": opts.repeats, "blas_threads": 1, "unit": "us", "cases": {}}
    for name, (_, _, calls, times) in cases.items():
        replay, fill, whole = (statistics.median(times[key]) / 1e3
                               for key in ("replay", "fill", "run"))
        result["cases"][name] = {"records": len(calls),
                                 "replay_us_per_record": replay / len(calls),
                                 "fill_us": fill, "run_us": whole,
                                 "recorder_frac": (replay + fill) / whole}
        print(f"{name:14s} {len(calls):4d} records  replay {replay / len(calls):6.2f} us/record"
              f"  fill {fill:8.1f} us  run {whole:8.1f} us")
    with open(opts.out, "w") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
