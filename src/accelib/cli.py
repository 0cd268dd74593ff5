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
import contextlib
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

EXIT_SCHEMA, EXIT_DIVERGED, EXIT_NO_CERT, EXIT_CERT_FAIL = 2, 3, 4, 5


class ConfigError(Exception):
    pass


D_MAX = 4096  # the bound on every spec's d (see parse_problem)
_D = (int, 10, lambda v: 1 <= v <= D_MAX, f"an integer from 1 to {D_MAX}")


def _rotated(seed, lo, hi, d):  # eigenvalues spaced from lo to hi; x_star and Q from seed
    x_star = np.random.default_rng(seed).standard_normal(d)
    return oracles.make_quadratic(np.linspace(lo, hi, d), x_star, seed=seed)


def _quad(seed, mu, L, d, kappa):
    lo = (L or 10.0) / kappa if kappa else mu if mu and mu > 0 else 1.0
    return _rotated(seed, lo, L or 10.0, d), None


def _lasso(seed, mu, L, d, weight):
    smooth = _rotated(seed, mu or 1.0, L or 10.0, d)
    return smooth, oracles.CompositeProblem(smooth, oracles.make_l1(weight, d))


# kind -> (builder(seed, mu, L, **options) -> (oracle, composite problem or None),
#          {key: (parse, default, check, the check in words)}); a float's check
# also refuses inf, and NaN fails every comparison
PROBLEMS = {
    "quad": (_quad, {"d": _D, "kappa": (float, None, lambda v: 1 <= v < np.inf,
                                        "a finite float >= 1 (it is L/mu)")}),
    "huber": (lambda seed, mu, L, d, tau: (oracles.make_huber(tau, L or 1.0, d), None),
              {"d": _D, "tau": (float, 0.1, lambda v: 0 < v < np.inf, "a finite float > 0")}),
    "lasso": (_lasso, {"d": _D, "weight": (float, 0.1, lambda v: 0 <= v < np.inf,
                                           "a finite float >= 0")}),
}


def parse_problem(spec, seed, mu, L):
    """(smooth oracle, composite problem or None) for `kind:key=value,...`, by
    the kind's `PROBLEMS` entry. Keys (type, default, check): d (int, 10, 1 to
    D_MAX = 4096: a rotated quadratic holds two d x d arrays, 256 MiB), quad
    kappa (float, none, >= 1), huber tau (float, 0.1, > 0), lasso weight (float,
    0.1, >= 0). Floats are finite. A bad key is a ConfigError naming it."""
    kind, _, rest = spec.partition(":")
    if kind not in PROBLEMS:
        raise ConfigError(f"problem spec {spec!r}: unknown kind (kinds: {', '.join(PROBLEMS)})")
    build, options = PROBLEMS[kind]
    given = {}
    for key, _, text in (item.partition("=") for item in rest.split(",") if rest):
        where = f"problem spec {spec!r}: {key}={text!r}"
        if key not in options:
            raise ConfigError(f"{where}: {kind} takes only {', '.join(options)}")
        if key in given:
            raise ConfigError(f"{where}: {key} is given twice")
        parse, _, check, rule = options[key]
        with contextlib.suppress(ValueError):
            given[key] = parse(text)
        if key not in given or not check(given[key]):
            raise ConfigError(f"{where}: {key} must be {rule}")
    try:  # every key is checked before anything is built
        return build(seed, mu, L, **{k: given.get(k, option[1]) for k, option in options.items()})
    except ValueError as exc:  # a library caller's negative seed, or a builder's InvalidArgument
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
    return L * R * R / (4.0 * args.N + 2.0) if args.gamma in (None, 1.0 / L) else None


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
                     o, 1.0 / o.params.L if a.gamma is None else a.gamma, x0, a.N,
                     mu=o.params.mu),
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
    "ppa": Method(lambda a, o, x0: prox_outer.ppa(o, [1.0 if a.lam is None else a.lam] * a.N, x0)),
    "catalyst": Method(lambda a, o, x0: prox_outer.catalyst(
                           o, "gd", 1.0 / o.params.L if a.lam is None else a.lam, a.N, x0)),
}


def _setup(args):
    """(smooth oracle, composite problem, x0) shared by every command. A
    malformed ACCEL_TOL is refused here, before the run."""
    tolerances()
    for name in ("mu", "L", "lam", "gamma"):  # e.g. a subnormal --L, whose 1/L overflows
        value = getattr(args, name)
        if value and not np.isfinite(1.0 / value):
            raise ConfigError(f"{name}={value!r} has no finite reciprocal")
    for name in ("N", "seed"):  # before anything is built
        if getattr(args, name) < 0:
            raise ConfigError(f"--{name} must be >= 0")
    oracle, problem = parse_problem(args.problem, args.seed, args.mu, args.L)
    x0 = np.random.default_rng(args.seed + 1).standard_normal(oracle.x_star.shape[0])
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
        **{key: getattr(trace.final, key) for key in ("grad_calls", "prox_calls", "value_calls")},
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
    bound = (method.bound(args, oracle, x0, float(np.linalg.norm(x0 - oracle.x_star)))
             if method.bound is not None and args.N > 0 else None)
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
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"method {name!r} is named twice in {args.methods!r}")
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
    parser = argparse.ArgumentParser(prog="accelib", description="first-order method runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, require_method=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--method", required=require_method, choices=METHODS)
        p.add_argument("--problem", required=True)
        p.add_argument("--N", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        for flag, dest in (("--mu", "mu"), ("--L", "L"), ("--lambda", "lam")):
            p.add_argument(flag, dest=dest, type=float)
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
    try:
        args = build_parser().parse_args(argv)
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
    # ContractViolation and RunawayLError: flags past what the method can take;
    # MemoryError: past what memory can take, e.g. certify's N^2 slacks
    except (ConfigError, InvalidArgument, UnsupportedOracle, ContractViolation,
            RunawayLError, MemoryError) as exc:
        oom = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {oom}{exc}", file=sys.stderr)
        return EXIT_NO_CERT if isinstance(exc, NoCertificate) else EXIT_SCHEMA
    except DivergedError as exc:
        if args.command == "run" and args.out and exc.trace is not None:
            _write(args.out, exc.trace.to_csv())  # the partial trace
        print(f"error: diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
