"""Experiment runner: build a problem from a compact spec, run a method,
write a CSV trace plus a JSON summary sidecar, and verify certificates.

Subcommands:
  run      one method on one problem -> CSV trace + JSON sidecar
  compare  several methods on the same problem -> aligned gap table
  certify  run a method and check its potential + interpolation margins

Exit codes: 0 ok; 2 config/schema error; 3 divergence (partial trace written);
4 no certificate registered; 5 certificate violated.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import certify as certify_mod
from . import composite, momentum, poly_methods, prox_outer
from .errors import DivergedError, InvalidArgument, UnsupportedOracle
from .oracles import CompositeProblem, make_huber, make_l1, make_quadratic
from .tolerances import tol_for

EXIT_SCHEMA = 2
EXIT_DIVERGED = 3
EXIT_NO_CERT = 4
EXIT_CERT_FAIL = 5

METHODS = ("gd", "chebyshev", "heavy_ball", "cg", "ogm", "fgm",
           "constant_momentum", "item", "tmm", "fista", "prox_agm", "ppa",
           "catalyst")


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
            return make_quadratic(eigs, x_star, seed=seed), None
        if kind == "huber":
            return make_huber(opts.get("tau", 0.1), L or 1.0, d), None
        if kind == "lasso":
            eigs = np.linspace(mu if mu else 1.0, L if L else 10.0, d)
            smooth = make_quadratic(eigs, rng.standard_normal(d), seed=seed)
            problem = CompositeProblem(smooth, make_l1(opts.get("weight", 0.1), d))
            return smooth, problem
        raise ConfigError(f"unknown problem kind {spec!r}")
    except (ValueError, InvalidArgument) as exc:
        raise ConfigError(str(exc)) from exc


def run_method(args, oracle, problem, x0):
    name = args.method
    N = args.N
    if name == "gd":
        gamma = args.gamma if args.gamma else 1.0 / oracle.params.L
        return poly_methods.gradient_descent(oracle, gamma, x0, N,
                                             mu=oracle.params.mu)
    if name == "chebyshev":
        return poly_methods.chebyshev(oracle, x0, N)
    if name == "heavy_ball":
        return poly_methods.heavy_ball(oracle, x0, N)
    if name == "cg":
        return poly_methods.conjugate_gradient_quadratic(oracle, x0, N)
    if name == "ogm":
        return momentum.ogm(oracle, x0, N, form=args.form or "I")
    if name == "fgm":
        return momentum.fgm(oracle, x0, N, form=args.form or "I",
                            mu=args.mu if args.mu is not None else oracle.params.mu)
    if name == "constant_momentum":
        return momentum.constant_momentum(oracle, x0, N, form=args.form or "I")
    if name == "item":
        return momentum.item(oracle, x0, N)
    if name == "tmm":
        return momentum.tmm(oracle, x0, N)
    if name == "ppa":
        lam = args.lam if args.lam else 1.0
        return prox_outer.ppa(oracle, [lam] * N, x0)
    if name == "catalyst":
        lam = args.lam if args.lam else 1.0 / oracle.params.L
        return prox_outer.catalyst(oracle, "gd", lam, N, x0)
    if name in ("fista", "prox_agm"):
        if problem is None:
            from .oracles import make_zero

            problem = CompositeProblem(oracle, make_zero(x0.size),
                                       x_star=oracle.x_star, F_star=oracle.f_star)
        fn = composite.fista if name == "fista" else composite.prox_agm
        return fn(problem, x0, N, mu=args.mu or 0.0, alpha=2.0,
                  mode=args.mode or "monotone")
    raise ConfigError(f"unknown method {name!r}")


def bound_for(args, oracle, x0):
    R = float(np.linalg.norm(np.asarray(x0) - oracle.x_star)) if oracle.x_star is not None else None
    if R is None:
        return None
    p = oracle.params
    N = args.N
    if N == 0:
        return None
    if args.method == "ogm":
        return momentum.ogm_bound(p.L, R, N)
    if args.method in ("fgm", "fista", "prox_agm"):
        return momentum.fgm_bound(p.L, R, N, mu=p.mu if args.method == "fgm" else 0.0)
    if args.method == "gd" and (not args.gamma or args.gamma == 1.0 / p.L):
        return p.L * R * R / (2.0 * N)
    if args.method == "chebyshev":
        return poly_methods.chebyshev_bound(p.mu, p.L, N) * R
    if args.method == "constant_momentum":
        f0 = oracle.value(np.asarray(x0, dtype=float)) - oracle.f_star
        return (1.0 - np.sqrt(p.mu / p.L)) ** N * (f0 + 0.5 * p.mu * R * R)
    return None


def write_outputs(trace, args, bound, config):
    out = args.out
    csv_text = trace.to_csv()
    final_gap = trace.final.f_gap
    if bound is not None and args.method == "chebyshev":
        satisfied = bool(trace.final.dist_opt <= bound + tol_for(bound))
    elif bound is not None:
        satisfied = bool(final_gap <= bound + tol_for(bound))
    else:
        satisfied = None
    summary = {
        "config": config,
        "final_gap": final_gap,
        "grad_calls": trace.final.grad_calls,
        "prox_calls": trace.final.prox_calls,
        "bound": bound,
        "bound_satisfied": satisfied,
    }
    if out:
        with open(out, "w") as fh:
            fh.write(csv_text)
        with open(out + ".json", "w") as fh:
            json.dump(summary, fh, indent=2, default=str)
    else:
        sys.stdout.write(csv_text)
        json.dump(summary, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    return summary


def _resolved_config(args):
    return {k: v for k, v in vars(args).items() if k != "func" and v is not None}


def cmd_run(args):
    oracle, problem = parse_problem(args.problem, args.seed, args.mu, args.L)
    rng = np.random.default_rng(args.seed + 1)
    d = oracle.x_star.shape[0]
    x0 = rng.standard_normal(d)
    if args.N < 0:
        raise ConfigError("--N must be >= 0")
    trace = run_method(args, oracle, problem, x0)
    bound = bound_for(args, oracle, x0)
    write_outputs(trace, args, bound, _resolved_config(args))
    return 0


def cmd_compare(args):
    methods = args.methods.split(",")
    if len(methods) < 2:
        raise ConfigError("compare needs at least two methods")
    oracle, problem = parse_problem(args.problem, args.seed, args.mu, args.L)
    rng = np.random.default_rng(args.seed + 1)
    x0 = rng.standard_normal(oracle.x_star.shape[0])
    columns = {}
    for m in methods:
        sub = argparse.Namespace(**vars(args))
        sub.method = m
        trace = run_method(sub, oracle, problem, x0)
        columns[m] = [(r.grad_calls, r.f_gap) for r in trace]
    report = {"problem": args.problem,
              "final_gaps": {m: columns[m][-1][1] for m in methods},
              "columns": columns}
    text = json.dumps(report, indent=2, default=str)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def cmd_certify(args):
    oracle, problem = parse_problem(args.problem, args.seed, args.mu, args.L)
    rng = np.random.default_rng(args.seed + 1)
    x0 = rng.standard_normal(oracle.x_star.shape[0])
    trace = run_method(args, oracle, problem, x0)
    target = problem if problem is not None and args.method in ("fista", "prox_agm") \
        else oracle
    try:
        margins = certify_mod.check_potential(trace, target)
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CERT
    tol = tol_for(certify_mod.potential_scale(trace, target))
    bad = [str(m.where) for m in margins if m.slack < -tol]
    triplets = certify_mod.harvest_triplets(trace, oracle)
    interp = certify_mod.check_interpolation(triplets, oracle.params.mu,
                                             oracle.params.L)
    iscale = max(abs(t[2]) for t in triplets) + 1.0
    bad += [str((int(i), int(j)))
            for i, j in np.argwhere(interp < -tol_for(iscale))]  # row-major
    report = {
        "method": args.method,
        "potential_min_slack": certify_mod.min_slack(margins),
        "interpolation_min_slack": certify_mod.min_slack(interp),
        "violations": bad,
        "pass": not bad,
    }
    print(json.dumps(report, indent=2, default=str))
    return 0 if report["pass"] else EXIT_CERT_FAIL


@functools.cache
def build_parser():
    """The argument parser, built once per process on first use."""
    parser = argparse.ArgumentParser(prog="accelib",
                                     description="first-order method runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, require_method=True):
        p.add_argument("--method", required=require_method, choices=METHODS)
        p.add_argument("--problem", required=True)
        p.add_argument("--N", type=int, default=50)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--L", type=float, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--form", default=None, choices=("I", "II", "III"))
        p.add_argument("--mode", default=None, choices=composite.MODES)
        p.add_argument("--gamma", type=float, default=None)

    p_run = sub.add_parser("run", help="run one method, write trace + summary")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several methods on one problem")
    common(p_cmp, require_method=False)
    p_cmp.add_argument("--methods", required=True,
                       help="comma-separated method list")
    p_cmp.set_defaults(func=cmd_compare)

    p_cert = sub.add_parser("certify", help="check potential + interpolation")
    common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the schema-error code
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, InvalidArgument, UnsupportedOracle) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except DivergedError as exc:
        if args.command == "run" and args.out and exc.trace is not None:
            with open(args.out, "w") as fh:  # the partial trace
                fh.write(exc.trace.to_csv())
        print(f"error: diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
