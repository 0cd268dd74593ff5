"""Experiment runner: build a problem from a compact spec, run a method,
write a CSV trace plus a JSON summary sidecar, and verify certificates.

Subcommands:
  run      one method on one problem -> CSV trace + JSON sidecar
  compare  several methods on the same problem -> aligned gap table
  certify  run a method and write `certify.verdict` on its trace: its
           potential margins and pairwise interpolation slacks

Exit codes (2, 3 and 4 from `main`'s table of errors): 0 ok; 2 config/schema
error, or out of memory; 3 divergence (partial trace written); 4 no
certificate (`NoCertificate`: no registered potential, records without its
state, or a composite problem without a known optimum); 5 certificate violated.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import certify as certify_mod
from . import composite, momentum, oracles, poly_methods, prox_outer
from .errors import (ContractViolation, DivergedError, InvalidArgument, NoCertificate,
                     RunawayLError, UnsupportedOracle)
from .tolerances import tol_for, tolerances

EXIT_SCHEMA = 2
EXIT_DIVERGED = 3
EXIT_NO_CERT = 4
EXIT_CERT_FAIL = 5


class ConfigError(Exception):
    pass


def parse_problem(spec, seed, mu, L):
    """Problem specs: quad:d=20 | quad:d=20,kappa=10 | huber:d=1,tau=0.1 |
    lasso:d=10,weight=0.1."""
    try:
        kind, _, rest = spec.partition(":")
        opts = {}
        if rest:
            for item in rest.split(","):
                key, _, val = item.partition("=")
                opts[key] = float(val)
        d = int(opts.get("d", 10))
        rng = np.random.default_rng(seed)
        if kind == "quad":
            lo = mu if mu and mu > 0 else 1.0
            hi = L if L else 10.0
            if "kappa" in opts:
                if not opts["kappa"] > 0:
                    raise ConfigError("kappa must be > 0")
                lo, hi = hi / opts["kappa"], hi
            eigs = np.linspace(lo, hi, d)
            x_star = rng.standard_normal(d)
            return oracles.make_quadratic(eigs, x_star, seed=seed), None
        if kind == "huber":
            return oracles.make_huber(opts.get("tau", 0.1), L or 1.0, d), None
        if kind == "lasso":
            eigs = np.linspace(mu if mu else 1.0, L if L else 10.0, d)
            smooth = oracles.make_quadratic(eigs, rng.standard_normal(d), seed=seed)
            problem = oracles.CompositeProblem(smooth, oracles.make_l1(opts.get("weight", 0.1), d))
            return smooth, problem
        raise ConfigError(f"unknown problem kind {spec!r}")
    except (ValueError, InvalidArgument) as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class Method:
    """One CLI method. `run(args, problem, x0)` calls the driver, looked up on
    its module at call time; `bound(args, oracle, x0, R)` is the worst-case
    bound on the trace's `column` (None: no bound for these flags).
    `composite` methods run on, and are certified against, the composite
    problem: a smooth spec gets a zero nonsmooth term."""

    run: Callable
    bound: Callable | None = None
    composite: bool = False
    column: str = "f_gap"


def _gd_bound(args, oracle, x0, R):
    L = oracle.params.L  # the bound holds for the default step 1/L only
    return L * R * R / (4.0 * args.N + 2.0) if not args.gamma or args.gamma == 1.0 / L else None


def _constant_momentum_bound(args, oracle, x0, R):
    p = oracle.params
    f0 = oracle.value(x0) - oracle.f_star
    return (1.0 - np.sqrt(p.mu / p.L)) ** args.N * (f0 + 0.5 * p.mu * R * R)


def _accelerated_prox(name):
    return Method(lambda a, p, x0: getattr(composite, name)(
                      p, x0, a.N, mu=a.mu or 0.0, alpha=2.0, mode=a.mode or "monotone"),
                  lambda a, o, x0, R: momentum.fgm_bound(o.params.L, R, a.N),
                  composite=True)


METHODS = {
    "gd": Method(lambda a, o, x0: poly_methods.gradient_descent(
                     o, a.gamma or 1.0 / o.params.L, x0, a.N, mu=o.params.mu),
                 _gd_bound),
    "chebyshev": Method(lambda a, o, x0: poly_methods.chebyshev(o, x0, a.N),
                        lambda a, o, x0, R: poly_methods.chebyshev_bound(
                            o.params.mu, o.params.L, a.N) * R,
                        column="dist_opt"),
    "heavy_ball": Method(lambda a, o, x0: poly_methods.heavy_ball(o, x0, a.N)),
    "cg": Method(lambda a, o, x0: poly_methods.conjugate_gradient_quadratic(o, x0, a.N)),
    "ogm": Method(lambda a, o, x0: momentum.ogm(o, x0, a.N, form=a.form or "I"),
                  lambda a, o, x0, R: momentum.ogm_bound(o.params.L, R, a.N)),
    "fgm": Method(lambda a, o, x0: momentum.fgm(
                      o, x0, a.N, form=a.form or "I",
                      mu=o.params.mu if a.mu is None else a.mu),
                  lambda a, o, x0, R: momentum.fgm_bound(o.params.L, R, a.N, mu=o.params.mu)),
    "constant_momentum": Method(lambda a, o, x0: momentum.constant_momentum(
                                    o, x0, a.N, form=a.form or "I"),
                                _constant_momentum_bound),
    "item": Method(lambda a, o, x0: momentum.item(o, x0, a.N)),
    "tmm": Method(lambda a, o, x0: momentum.tmm(o, x0, a.N)),
    "fista": _accelerated_prox("fista"),
    "prox_agm": _accelerated_prox("prox_agm"),
    "ppa": Method(lambda a, o, x0: prox_outer.ppa(o, [a.lam or 1.0] * a.N, x0)),
    "catalyst": Method(lambda a, o, x0: prox_outer.catalyst(
                           o, "gd", a.lam or 1.0 / o.params.L, a.N, x0)),
}


def _setup(args):
    """(smooth oracle, composite problem, x0) shared by every command. A
    malformed ACCEL_TOL is refused here, before the run."""
    tolerances()
    for name in ("mu", "L", "lam", "gamma"):  # e.g. a subnormal --L, whose 1/L overflows
        value = getattr(args, name)
        if value and not np.isfinite(1.0 / value):
            raise ConfigError(f"{name}={value!r} has no finite reciprocal")
    oracle, problem = parse_problem(args.problem, args.seed, args.mu, args.L)
    x0 = np.random.default_rng(args.seed + 1).standard_normal(oracle.x_star.shape[0])
    if args.N < 0:
        raise ConfigError("--N must be >= 0")
    if problem is None:
        problem = oracles.CompositeProblem(oracle, oracles.make_zero(x0.size),
                                           x_star=oracle.x_star, F_star=oracle.f_star)
    return oracle, problem, x0


def _finite(obj):
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return str(obj) if isinstance(obj, float) and not np.isfinite(obj) else obj


def _dumps(obj):
    """Strict JSON: a non-finite float is written as the CSV writes it, "inf",
    "-inf" or "nan", which float() reads back."""
    return json.dumps(_finite(obj), indent=2, default=str, allow_nan=False)


def _write(path, text):
    """Write text to `path`, or to stdout with a final newline."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text)


def write_outputs(trace, args, bound, config):
    value = getattr(trace.final, METHODS[args.method].column)
    satisfied = None if bound is None else bool(value <= bound + tol_for(bound))
    atol, rtol = tolerances()
    summary = {
        "config": config,
        "final_gap": trace.final.f_gap,
        "grad_calls": trace.final.grad_calls,
        "prox_calls": trace.final.prox_calls,
        "value_calls": trace.final.value_calls,
        "bound": bound,
        "bound_satisfied": satisfied,
        # null exactly when `certify` with these flags exits 4, and with one record
        "potential_worst_margin": trace.meta.get("potential_worst_margin"),
        "potential_worst_step": trace.meta.get("potential_worst_step"),
        "provenance": {"accelib": __version__, "numpy": np.__version__,
                       "seed": args.seed, "atol": atol, "rtol": rtol},
    }
    csv_text, text = trace.to_csv(), _dumps(summary)
    if args.out:
        _write(args.out, csv_text)
        _write(args.out + ".json", text)
    else:
        _write(None, csv_text + text)
    return summary


def cmd_run(args):
    method, (oracle, problem, x0) = METHODS[args.method], _setup(args)
    trace = method.run(args, problem if method.composite else oracle, x0)
    bound = None
    if method.bound is not None and args.N > 0:
        bound = method.bound(args, oracle, x0, float(np.linalg.norm(x0 - oracle.x_star)))
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    write_outputs(trace, args, bound, config)
    return 0


def cmd_compare(args):
    """Each method's trace is dropped, once its (grad_calls, f_gap) column is
    taken, before the next method runs: the peak is one build plus one run."""
    names = args.methods.split(",")
    if len(names) < 2:
        raise ConfigError("compare needs at least two methods")
    if set(names) - set(METHODS):
        raise ConfigError(f"unknown method in {args.methods!r}")
    oracle, problem, x0 = _setup(args)
    columns = {}
    for name in names:
        method = METHODS[name]
        trace = method.run(args, problem if method.composite else oracle, x0)
        columns[name] = [(grad_calls, gap) for (grad_calls, *_), gap
                         in zip(trace.tallies, trace.f_gap.tolist())]
        del trace
    _write(args.out, _dumps({"problem": args.problem,
                             "final_gaps": {m: columns[m][-1][1] for m in names},
                             "columns": columns}))
    return 0


def cmd_certify(args):
    """Run the method and write `certify.verdict` on its trace (see there);
    a trace without a certificate exits 4 through `main`."""
    method, (oracle, problem, x0) = METHODS[args.method], _setup(args)
    target = problem if method.composite else oracle
    report = certify_mod.verdict(method.run(args, target, x0), target)
    _write(args.out, _dumps({"method": args.method, **report}))
    return EXIT_CERT_FAIL if report["violations"] else 0


@functools.cache
def build_parser():
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(prog="accelib",
                                     description="first-order method runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, require_method=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--method", required=require_method, choices=METHODS)
        p.add_argument("--problem", required=True)
        p.add_argument("--N", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--L", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--form", default=None, choices=("I", "II", "III"))
        p.add_argument("--mode", default=None, choices=composite.MODES)
        p.add_argument("--gamma", type=float, default=None)
        return p

    command("run", cmd_run, "run one method, write trace + summary")
    command("compare", cmd_compare, "run several methods on one problem",
            require_method=False).add_argument("--methods", required=True,
                                               help="comma-separated method list")
    command("certify", cmd_certify, "check potential + interpolation")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the schema-error code
        return int(exc.code) if exc.code else 0
    try:
        # an overflowing run ends in one `error:` line, not numpy warnings first
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader went away (e.g. `| head -1`): not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except NoCertificate as exc:  # before InvalidArgument, its base
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CERT
    except (ConfigError, InvalidArgument, UnsupportedOracle, ContractViolation,
            RunawayLError) as exc:  # the last two: flags past what the method can take
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except MemoryError as exc:  # flags past what memory can take, e.g. certify's N^2 slacks
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DivergedError as exc:
        if args.command == "run" and args.out and exc.trace is not None:
            _write(args.out, exc.trace.to_csv())  # the partial trace
        print(f"error: diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
