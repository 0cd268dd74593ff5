"""Time the rotated quadratic's build and its first exact prox, and take
their memory peaks.

For d in 10, 50, 200, 500 and 1000 it builds `oracles.make_quadratic`
(eigenvalues spaced from 0.1 to 10, x* = 0, seed 2) and calls its prox once,
at x = 1 with step 0.3. A timed pass and a tracemalloc pass are run apart,
since tracing slows the allocations it counts; a peak is the traced peak
above what was held when the call began. Repeats alternate the order of the
dimensions; each figure is the median over the repeats. It then takes the
tracemalloc peaks of three CLI commands on `quad:d=1000` at `--N 320`:
`compare --methods gd,fgm,ogm,item`, `run --method ogm` and
`run --method ppa`, each after a warm-up command on `quad:d=2`, so that
first-call allocations are not counted. BLAS runs on one thread.

    PYTHONPATH=src python tools/bench_build.py [--repeats 5] [--out BENCH_build.json]
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

from accelib import cli, oracles  # noqa: E402

DIMS = (10, 50, 200, 500, 1000)
SEED, STEP = 2, 0.3
CLI_RUNS = {
    "compare gd,fgm,ogm,item": ["compare", "--methods", "gd,fgm,ogm,item"],
    "run ogm": ["run", "--method", "ogm"],
    "run ppa": ["run", "--method", "ppa"],
}


def _timed(d):
    """(build ns, first prox ns) of one build at dimension d."""
    eigs, x_star, x = np.linspace(0.1, 10.0, d), np.zeros(d), np.ones(d)
    t0 = time.perf_counter_ns()
    p = oracles.make_quadratic(eigs, x_star, seed=SEED)
    t1 = time.perf_counter_ns()
    p.prox(x, STEP)
    return t1 - t0, time.perf_counter_ns() - t1


def _traced_peak(call):
    """call()'s result and its tracemalloc peak in bytes, above what was held
    when it began."""
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    result = call()
    return result, tracemalloc.get_traced_memory()[1] - held


def _peaks(d):
    """(build peak, first prox peak) in bytes of one build at dimension d."""
    eigs, x_star, x = np.linspace(0.1, 10.0, d), np.zeros(d), np.ones(d)
    tracemalloc.start()
    try:
        p, build = _traced_peak(lambda: oracles.make_quadratic(eigs, x_star, seed=SEED))
        _, prox = _traced_peak(lambda: p.prox(x, STEP))
    finally:
        tracemalloc.stop()
    return build, prox


def _cli_peak(argv, out):
    """The tracemalloc peak in bytes of one CLI command on quad:d=1000 at
    --N 320, after the same command on quad:d=2."""
    def main(spec):
        extra = ["--out", out] if argv[0] == "run" else []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main([*argv, "--problem", spec, "--N", "320", "--seed", "2", *extra])
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")

    main("quad:d=2")
    gc.collect()
    tracemalloc.start()
    try:
        return _traced_peak(lambda: main("quad:d=1000"))[1]
    finally:
        tracemalloc.stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_build.json")
    opts = parser.parse_args(argv)

    oracles.make_quadratic([1.0], [0.0], seed=0).prox(np.ones(1), STEP)  # imports numpy.random
    samples = {d: {"build_ms": [], "prox_ms": [], "build_peak_mib": [], "prox_peak_mib": []}
               for d in DIMS}
    for r in range(opts.repeats):
        for d in DIMS if r % 2 == 0 else DIMS[::-1]:
            gc.collect()
            build, prox = _timed(d)
            samples[d]["build_ms"].append(build / 1e6)
            samples[d]["prox_ms"].append(prox / 1e6)
            build, prox = _peaks(d)
            samples[d]["build_peak_mib"].append(build / 2**20)
            samples[d]["prox_peak_mib"].append(prox / 2**20)

    result = {"seed": SEED, "repeats": opts.repeats, "blas_threads": 1, "dims": {},
              "cli_peak_mib": {}}
    for d, figures in samples.items():
        result["dims"][str(d)] = {key: statistics.median(v) for key, v in figures.items()}
        print(f"d={d:5d}  " + "  ".join(f"{key} {v:9.3f}"
                                        for key, v in result["dims"][str(d)].items()))
    with tempfile.TemporaryDirectory() as tmp:
        for name, cli_argv in CLI_RUNS.items():
            peak = _cli_peak(cli_argv, os.path.join(tmp, "trace.csv")) / 2**20
            result["cli_peak_mib"][name] = peak
            print(f"{name:24s} quad:d=1000 N=320  peak {peak:.1f} MiB")
    with open(opts.out, "w") as fh:
        json.dump(result, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
