"""Workload generators and job runners for the accelib benchmark.

A job is a small dict made from the workload seed. The program under test
only ever sees the generated arguments: CLI jobs call `accelib.cli.main` with
an argv list, library jobs call the public drivers through their modules (so
the tracer's wrappers apply). Every runner checks the job's output and raises
`JobFailed` when the check fails.

Each workload is a fixed period of two cycles of job types, repeated end to
end. Horizons and budgets are spread evenly over their range and dimensions
alternate between the two cycles, the same for every seed; the seed draws
each job's problem instance and starting point. So every seed runs the same
mix of sizes on different inputs. A job's `slot` is its place in the period:
jobs in one slot have the same shape, which lets `run.py` weight every slot
equally whatever part of a period a run ends in.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from accelib import (cli, composite, extrapolation, momentum, oracles,
                     prox_outer, restart)
from accelib.tolerances import tol_for

WORKLOADS = ("run-highdim", "certify-long", "prox-extrap")

# the CLI method list as of the benchmark's definition; kept here so a method
# added later does not change the workload
CLI_METHODS = ("gd", "chebyshev", "heavy_ball", "cg", "ogm", "fgm",
               "constant_momentum", "item", "tmm", "fista", "prox_agm", "ppa",
               "catalyst")
CERTIFIED_METHODS = ("gd", "fgm", "ogm", "item", "tmm", "constant_momentum",
                     "fista", "prox_agm", "ppa", "catalyst")
COMPARE_METHODS = "gd,fgm,ogm,item"
CYCLES = 40  # even, and far more jobs than any run finishes; the loop wraps if not


class JobFailed(Exception):
    """The job ran but its output failed the benchmark's check."""


# ---------------------------------------------------------------------------
# job lists

def make_jobs(workload, seed):
    """The workload's job list for `seed`: CYCLES cycles, alternating the
    two shapes of its cycle, each job tagged with its slot in the period."""
    try:
        cycle = _CYCLES[workload]
    except KeyError:
        raise ValueError(f"unknown workload {workload!r}") from None
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cycles = [cycle(rng, c % 2) for c in range(CYCLES)]
    period = len(cycles[0]) + len(cycles[1])
    jobs = [job for jobs_of_cycle in cycles for job in jobs_of_cycle]
    for i, job in enumerate(jobs):
        job["slot"] = i % period
    return jobs


def _job_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _sizes(lo, hi, n):
    """n values evenly spread over [lo, hi] for the n jobs of a cycle, in a
    fixed shuffle."""
    order = np.random.default_rng(n).permutation(n)
    return np.linspace(lo, hi, n)[order]


QUAD, LASSO = "quad:d={},kappa=100", "lasso:d={}"


def _run_highdim_cycle(rng, c):
    # two d=500 jobs per method and a d=1000 job for every other method, in
    # turn, so a run finishes enough jobs for a p90; fista/prox_agm stay on
    # quad because of the lasso defect (c)
    specs = []
    for i, method in enumerate(CLI_METHODS):
        other = QUAD if method in ("fista", "prox_agm") else LASSO
        specs += [("run", method, QUAD.format(500)), ("run", method, other.format(500))]
        if (i + c) % 2 == 0:
            specs.append(("run", method, (QUAD if i % 4 < 2 else other).format(1000)))
        if i % 4 == 3:
            spec = (QUAD.format(500), LASSO.format(500), QUAD.format(1000))[i // 4]
            specs.append(("compare", None, spec))
    horizons = _sizes(200, 320, len(specs))
    jobs = []
    for (cmd, method, spec), N in zip(specs, horizons):
        argv = [cmd, "--problem", spec, "--N", str(round(N)),
                "--seed", str(_job_seed(rng))]
        if cmd == "run":
            argv += ["--method", method]
            label = f"run:{method}:{spec}"
        else:
            argv += ["--methods", COMPARE_METHODS]
            label = f"compare:{spec}"
        jobs.append({"kind": "cli", "check": cmd, "label": label, "argv": argv})
    return jobs


def _certify_long_cycle(rng, c):
    specs = [(m, d) for m in CERTIFIED_METHODS for d in (10, 20, 50)]
    horizons = _sizes(100, 200, len(specs))
    jobs = []
    for (method, d), N in zip(specs, horizons):
        if method == "item":
            # defect (b): item fails its certificate from N~100 on; see README
            N = 60 + (N - 100) * 0.3
        spec = f"quad:d={d},kappa=50"
        argv = ["certify", "--method", method, "--problem", spec, "--N", str(round(N)),
                "--seed", str(_job_seed(rng))]
        jobs.append({"kind": "cli", "check": "certify",
                     "label": f"certify:{method}:d={d}", "argv": argv})
    return jobs


# (driver, options) for one prox-extrap cycle; d alternates 100/200, `size`
# in [0, 1] sets each job's horizon or budget within its range
_PROX_EXTRAP_TYPES = (
    ("online_rna", {"safeguard": "none", "lam": 1e-8}),
    ("online_rna", {"safeguard": "none", "lam": 0.0}),
    ("online_rna", {"safeguard": "descent", "lam": 1e-8}),
    ("online_rna", {"safeguard": "descent", "lam": 0.0}),
    ("online_rna", {"safeguard": "linesearch", "lam": 1e-8}),
    ("prox_rna", {"lam": 1e-8}),
    ("prox_rna", {"lam": 0.0}),
    ("fista", {"mode": "reset"}),
    ("fista", {"mode": "decrease"}),
    ("prox_agm", {"mode": "reset"}),
    ("prox_agm", {"mode": "decrease"}),
    ("catalyst", {"inner": "gd", "problem": "quad"}),
    ("catalyst", {"inner": "gd_linesearch", "problem": "quad"}),
    ("catalyst", {"inner": "const_momentum", "problem": "quad"}),
    ("catalyst", {"inner": "gd", "problem": "huber"}),
    ("catalyst", {"inner": "gd_linesearch", "problem": "huber"}),
    ("catalyst", {"inner": "const_momentum", "problem": "huber"}),
    ("fixed_restart", {}),
    ("scheduled_restart", {}),
    ("grid_restart", {}),
    ("monotone_fista", {}),
    ("bregman_entropy", {}),
    ("ppa", {}),
)


def _prox_extrap_cycle(rng, c):
    jobs = []
    sizes = _sizes(0.0, 1.0, len(_PROX_EXTRAP_TYPES))
    for i, ((fn, opts), size) in enumerate(zip(_PROX_EXTRAP_TYPES, sizes)):
        d = (100, 200)[(i + c) % 2]
        label = ":".join([fn, *(str(v) for v in opts.values()), f"d={d}"])
        jobs.append({"kind": "lib", "fn": fn, "label": label, "d": d,
                     "seed": _job_seed(rng), "size": float(size), **opts})
    return jobs


# Seed defects, one repro each; the workloads above keep clear of them so
# that no job fails, and `run.py --workload defects` counts those that stand.
DEFECTS = (
    {"kind": "cli", "check": "run", "label": "(a) catalyst on huber never returns",
     "argv": ["run", "--method", "catalyst", "--problem", "huber:d=200,tau=0.1",
              "--N", "300"]},
    {"kind": "cli", "check": "certify", "label": "(b) item certificate at N=150",
     "argv": ["certify", "--method", "item", "--problem", "quad:d=20,kappa=50",
              "--N", "150", "--seed", "5"]},
    {"kind": "cli", "check": "run", "label": "(c) fista on lasso misses its bound",
     "argv": ["run", "--method", "fista", "--problem", "lasso:d=50", "--N", "100"]},
)


_CYCLES = {
    "run-highdim": _run_highdim_cycle,
    "certify-long": _certify_long_cycle,
    "prox-extrap": _prox_extrap_cycle,
}


# ---------------------------------------------------------------------------
# running and checking one job

def run_job(job, workdir):
    """Run one job and check its output; raise JobFailed on a bad output.
    Any other exception from the program propagates to the caller."""
    if job["kind"] == "cli":
        _run_cli(job, workdir)
    else:
        _LIB_RUNNERS[job["fn"]](job)


def _run_cli(job, workdir):
    argv = list(job["argv"])
    out_path = None
    if job["check"] == "run":
        out_path = os.path.join(workdir, "trace.csv")
        argv += ["--out", out_path]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise JobFailed(f"exit code {code}")
    if job["check"] == "run":
        _check_run_output(out_path)
        return
    report = json.loads(stdout.getvalue())
    if job["check"] == "compare":
        gaps = list(report["final_gaps"].values())
        if len(gaps) != COMPARE_METHODS.count(",") + 1 or not _all_finite(gaps):
            raise JobFailed(f"compare gaps {gaps}")
    elif report.get("pass") is not True:
        raise JobFailed(f"certify pass={report.get('pass')}")


def _check_run_output(out_path):
    with open(out_path) as fh:
        header, *rows = fh.read().splitlines()
    with open(out_path + ".json") as fh:
        summary = json.load(fh)
    if not rows:
        raise JobFailed("empty trace")
    cols = header.split(",")
    for name in ("f_gap", "grad_norm", "dist_opt"):
        j = cols.index(name)
        if not _all_finite(float(r.split(",")[j]) for r in rows):
            raise JobFailed(f"non-finite {name}")
    if not _all_finite([summary["final_gap"]]):
        raise JobFailed("non-finite final_gap")
    if summary["bound_satisfied"] is False:
        raise JobFailed(f"gap {summary['final_gap']} above bound {summary['bound']}")


def _all_finite(values):
    return all(math.isfinite(v) for v in values)


def _check_final(trace, gap=None, bound=None):
    if not np.all(np.isfinite(trace.final.x)):
        raise JobFailed("non-finite final iterate")
    if bound is not None and not gap <= bound + tol_for(bound):
        raise JobFailed(f"gap {gap:.3e} above bound {bound:.3e}")


# problems --------------------------------------------------------------------

def _quad(d, seed, kappa=100.0, L=10.0):
    rng = np.random.default_rng(seed)
    eigs = np.linspace(L / kappa, L, d)
    return oracles.make_quadratic(eigs, rng.standard_normal(d), seed=seed), rng


def _lasso(d, seed, weight=0.1):
    """Lasso whose composite optimum is known by construction.

    The smooth part 1/2 (x-c)^T H (x-c) is centred at c = x* + weight H^-1 s
    with s in the l1 subdifferential at x*, so 0 is in grad f(x*) + weight
    d||x*||_1. H^-1 s comes from a quadratic with the reciprocal eigenvalues
    and the same rotation seed.
    """
    rng = np.random.default_rng(seed)
    eigs = np.linspace(1.0, 10.0, d)
    x_star = rng.standard_normal(d) * (rng.uniform(size=d) < 0.5)
    s = np.where(x_star != 0.0, np.sign(x_star), rng.uniform(-0.5, 0.5, d))
    inv = oracles.make_quadratic(1.0 / eigs, np.zeros(d), seed=seed)
    smooth = oracles.make_quadratic(eigs, x_star + weight * inv.hessian_matvec(s),
                                    seed=seed)
    l1 = oracles.make_l1(weight, d)
    F_star = smooth.value(x_star) + l1.value(x_star)
    return oracles.CompositeProblem(smooth, l1, x_star=x_star, F_star=F_star), rng


def _gap(problem, x):
    return problem.objective(x) - problem.F_star


# library runners ---------------------------------------------------------------

def _online_rna(job):
    p, rng = _quad(job["d"], job["seed"])
    x0 = rng.standard_normal(job["d"])
    N = 15 if job["safeguard"] == "linesearch" else 40 + int(20 * job["size"])
    tr = extrapolation.online_rna(p, x0, h=1.0 / p.params.L, lam=job["lam"], m=8,
                                  N=N, safeguard=job["safeguard"])
    _check_final(tr)


def _prox_rna(job):
    prob, rng = _lasso(job["d"], job["seed"])
    x0 = rng.standard_normal(job["d"])
    tr = extrapolation.prox_rna(prob, x0, gamma=1.0 / prob.smooth.params.L,
                                lam=job["lam"], N=40 + int(20 * job["size"]), m=8)
    _check_final(tr)


def _composite(job):
    prob, rng = _lasso(job["d"], job["seed"])
    x0 = rng.standard_normal(job["d"])
    N = 150 + int(100 * job["size"])
    L = prob.smooth.params.L
    L0 = L / 8.0  # underestimated, so the line search backtracks
    fn = composite.fista if job["fn"] == "fista" else composite.prox_agm
    tr = fn(prob, x0, N, L0=L0, alpha=2.0, mode=job["mode"])
    R = float(np.linalg.norm(x0 - prob.x_star))
    _check_final(tr, _gap(prob, tr.final.x),
                        composite.fista_bound(L, L0, 2.0, R, N))


def _catalyst(job):
    d = job["d"]
    if job["problem"] == "quad":
        p, rng = _quad(d, job["seed"])
        x0 = rng.standard_normal(d)
        budget = 200 + int(100 * job["size"])
    else:
        # defect (a): catalyst never returns once the outer loop has
        # converged on huber; a start far out and a budget of at most 110
        # inner steps stop it short of that, see README
        p = oracles.make_huber(0.1, 1.0, d)
        x0 = 10.0 * np.random.default_rng(job["seed"]).standard_normal(d)
        budget = 80 + int(30 * job["size"])
    lam = 1.0 / p.params.L
    tr = prox_outer.catalyst(p, job["inner"], lam, budget, x0)
    _check_final(tr)


def _fixed_restart(job):
    p, rng = _quad(job["d"], job["seed"])
    x0 = rng.standard_normal(job["d"])
    tr = restart.fixed_restart(p, "fgm", 40, x0, epochs=4 + int(3 * job["size"]),
                               L=p.params.L)
    _check_final(tr)


def _scheduled_restart(job):
    d = job["d"]
    p = oracles.make_heb_power(4, d)
    x0 = np.random.default_rng(job["seed"]).standard_normal(d)
    x0 *= 2.0 / np.linalg.norm(x0)
    heb = restart.HebParams(4, 1.0, p.smoothness_on_ball(np.linalg.norm(x0)))
    f0 = p.value(x0)
    budget = 300 + int(200 * job["size"])
    tr = restart.scheduled_restart(p, heb, x0, f0, budget)
    _check_final(tr, p.value(tr.final.x) - p.f_star,
                        restart.scheduled_bound(heb, f0, budget))


def _grid_restart(job):
    p, rng = _quad(job["d"], job["seed"])
    x0 = rng.standard_normal(job["d"])
    tr = restart.grid_restart(p, p.params.L, x0, 24 + int(8 * job["size"]))
    _check_final(tr)


def _monotone_fista(job):
    prob, rng = _lasso(job["d"], job["seed"])
    x0 = rng.standard_normal(job["d"])
    N = 100 + int(100 * job["size"])
    L = prob.smooth.params.L
    tr = momentum.monotone_wrap("fista", prob, x0, N, mu=0.0, L=L)
    R = float(np.linalg.norm(x0 - prob.x_star))
    _check_final(tr, _gap(prob, tr.final.x),
                        composite.fista_bound(L, L, 2.0, R, N))


def _bregman_entropy(job):
    d = job["d"]
    p, _ = _quad(d, job["seed"], kappa=10.0)
    prob = oracles.CompositeProblem(p, oracles.make_simplex_indicator(d))
    tr = momentum.bregman_agm(prob, np.full(d, 1.0 / d), 100 + int(100 * job["size"]),
                              dgf="entropy")
    _check_final(tr)


def _ppa(job):
    p, rng = _quad(job["d"], job["seed"])
    x0 = rng.standard_normal(job["d"])
    N = 100 + int(100 * job["size"])
    lambdas = 0.05 * 1.02 ** np.arange(N)  # growing steps: library-only schedule
    tr = prox_outer.ppa(p, lambdas, x0)
    R = float(np.linalg.norm(x0 - p.x_star))
    _check_final(tr, p.value(tr.final.x) - p.f_star,
                        prox_outer.ppa_bound(R, lambdas, p.params.mu))


_LIB_RUNNERS = {
    "online_rna": _online_rna,
    "prox_rna": _prox_rna,
    "fista": _composite,
    "prox_agm": _composite,
    "catalyst": _catalyst,
    "fixed_restart": _fixed_restart,
    "scheduled_restart": _scheduled_restart,
    "grid_restart": _grid_restart,
    "monotone_fista": _monotone_fista,
    "bregman_entropy": _bregman_entropy,
    "ppa": _ppa,
}
