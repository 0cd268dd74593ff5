import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from accelib import certify as ct, cli, composite
from accelib.errors import InvalidArgument
from accelib.oracles import ProblemOracle
from accelib.tolerances import tol_for


def strip_wall(text):
    lines = text.strip().split("\n")
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_run_writes_trace_and_sidecar(tmp_path):
    out = tmp_path / "trace.csv"
    code = cli.main(["run", "--method", "fgm", "--problem", "quad:d=8",
                     "--N", "50", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 52  # header + N+1 records
    assert lines[0] == ("k,f_gap,grad_norm,dist_opt,potential,grad_calls,"
                        "prox_calls,inner_iters,wall_ns")
    side = json.loads((tmp_path / "trace.csv.json").read_text())
    assert side["bound_satisfied"] is True
    assert side["grad_calls"] >= 50
    assert side["config"]["seed"] == 3


def test_run_N_zero_single_row(tmp_path):
    out = tmp_path / "t.csv"
    code = cli.main(["run", "--method", "gd", "--problem", "quad:d=4",
                     "--N", "0", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 2


def test_run_deterministic_excluding_wall(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argset = ["run", "--method", "ogm", "--problem", "quad:d=6", "--N", "20",
              "--seed", "11"]
    assert cli.main(argset + ["--out", str(a)]) == 0
    assert cli.main(argset + ["--out", str(b)]) == 0
    assert strip_wall(a.read_text()) == strip_wall(b.read_text())


def test_bad_problem_spec_exit_2(tmp_path):
    for spec in ("nope:d=3", "quad:d=5,kappa=0"):
        code = cli.main(["run", "--method", "gd", "--problem", spec,
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2


def test_bad_flag_exit_2():
    assert cli.main(["run", "--method", "gd"]) == 2  # missing --problem
    assert cli.main(["run", "--method", "bogus", "--problem", "quad:d=2"]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_diverging_run_exit_3_partial_trace(tmp_path):
    out = tmp_path / "div.csv"
    code = cli.main(["run", "--method", "gd", "--problem", "quad:d=4",
                     "--N", "500", "--gamma", "1000.0", "--out", str(out)])
    assert code == 3
    lines = out.read_text().strip().split("\n")
    assert 2 <= len(lines) < 502  # header + at least the start of the run


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize("argv", [
    ["compare", "--methods", "gd,fgm"],
    ["certify", "--method", "gd"],
])
def test_diverging_compare_and_certify_exit_3(argv, capsys):
    code = cli.main(argv + ["--problem", "quad:d=5", "--gamma", "5", "--N", "2000"])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_cg_on_nonquadratic_exit_2(tmp_path):
    code = cli.main(["run", "--method", "cg", "--problem", "huber:d=3,tau=0.1",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_compare_reports_all_methods(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = cli.main(["compare", "--methods", "gd,fgm,ogm",
                     "--problem", "quad:d=6", "--N", "25", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report["final_gaps"]) == {"gd", "fgm", "ogm"}
    for m in ("gd", "fgm", "ogm"):
        assert len(report["columns"][m]) == 26
        assert float(report["final_gaps"][m]) >= 0.0


def test_certify_pass(capsys):
    code = cli.main(["certify", "--method", "fgm", "--problem", "quad:d=5",
                     "--N", "30"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["potential_min_slack"] >= -1e-8


def test_certify_N_zero_has_no_pairs(capsys):
    code = cli.main(["certify", "--method", "gd", "--problem", "quad:d=5", "--N", "0"])
    assert code == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert report["interpolation_min_slack"] == 0.0
    assert report["pass"] is True


def test_certify_lists_interpolation_pairs_after_steps(monkeypatch, capsys):
    real = cli.certify_mod.check_interpolation

    def planted(triplets, mu, L):
        slack = real(triplets, mu, L)
        slack[2, 0] = slack[0, 3] = -1.0
        return slack

    monkeypatch.setattr(cli.certify_mod, "check_interpolation", planted)
    code = cli.main(["certify", "--method", "gd", "--problem", "quad:d=5",
                     "--N", "10", "--gamma", "0.21"])
    assert code == 5
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations[-2:] == ["(0, 3)", "(2, 0)"]
    assert violations[:-2] and all(v.isdigit() for v in violations[:-2])


@pytest.mark.parametrize("command", ["certify", "run"])
def test_out_of_memory_is_one_error_line_and_exit_2(command, monkeypatch, capsys, tmp_path):
    # e.g. certify's (N+1, N+1) slack matrix at N = 20000 under a 1.5 GB limit
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.98 GiB for an array with shape (20001, 20001)")

    monkeypatch.setattr(cli.certify_mod, "check_interpolation", exhausted)
    monkeypatch.setattr(cli.poly_methods, "gradient_descent", exhausted)
    code = cli.main([command, "--method", "gd", "--problem", "quad:d=2", "--N", "5",
                     "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_SCHEMA == 2
    assert err == ("error: out of memory: Unable to allocate 2.98 GiB for an array "
                   "with shape (20001, 20001)\n")
    assert "Traceback" not in err


def test_certify_no_registered_certificate_exit_4():
    code = cli.main(["certify", "--method", "chebyshev",
                     "--problem", "quad:d=5", "--N", "10"])
    assert code == 4


def test_certify_violation_exit_5(capsys):
    code = cli.main(["certify", "--method", "gd", "--problem", "quad:d=5",
                     "--N", "40", "--gamma", "0.3"])
    assert code == 5
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["violations"]


def test_run_lasso_fista(tmp_path):
    out = tmp_path / "lasso.csv"
    code = cli.main(["run", "--method", "fista", "--N", "40",
                     "--problem", "lasso:d=8,weight=0.05", "--out", str(out)])
    assert code == 0
    side = json.loads((tmp_path / "lasso.csv.json").read_text())
    assert side["prox_calls"] >= 40


def test_module_entry_point_imports_cleanly():
    # `python -m accelib.cli` must not find accelib.cli already imported
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "accelib.cli", "--help"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_exits_without_traceback(tmp_path):
    # the reader closes the pipe after one line, as `accelib run ... | head -1` does
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen([sys.executable, "-m", "accelib.cli", "run", "--method", "gd",
                                 "--problem", "quad:d=2", "--N", "5000"],
                                env=env, stdout=subprocess.PIPE, stderr=err)
        proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        stderr = err.read()
    assert "Traceback" not in stderr and "Error" not in stderr, stderr
    assert code in (0, 2, 3, 4, 5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the gradient overflows
def test_gradient_overflow_exits_3_with_partial_trace(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = cli.main(["run", "--method", "fgm", "--problem", "quad:d=2", "--N", "3",
                     "--L", "4.49423283715579e+307", "--out", str(out)])
    assert code == 3
    assert "gradient became non-finite" in capsys.readouterr().err
    assert len(out.read_text().strip().split("\n")) == 5  # header + N+1 records


CERTIFIED = ("gd", "fgm", "ogm", "item", "tmm", "constant_momentum", "fista", "prox_agm",
             "ppa", "catalyst")


@pytest.mark.parametrize("N", [0, 1, 2])
@pytest.mark.parametrize("method", CERTIFIED)
def test_certify_small_N(method, N, capsys):
    code = cli.main(["certify", "--method", method, "--problem", "quad:d=5",
                     "--N", str(N), "--seed", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True


@pytest.mark.parametrize("method", ["fgm", "constant_momentum", "ogm"])
def test_certify_form_without_state_exit_4(method, capsys):
    # constant momentum in form II used to end in a KeyError traceback
    code = cli.main(["certify", "--method", method, "--form", "II",
                     "--problem", "quad:d=5", "--N", "10"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_run_sidecar_reports_worst_potential_margin(tmp_path):
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--method", "gd", "--problem", "quad:d=5", "--N", "30",
                     "--gamma", "0.3", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.csv.json").read_text())
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    phi = [float(r[4]) for r in rows]
    margins = [a - b for a, b in zip(phi, phi[1:])]
    # gd with a step above 2/L claims L = 1/gamma and breaks its certificate
    assert side["potential_worst_margin"] == pytest.approx(min(margins), rel=1e-12)
    assert side["potential_worst_step"] == margins.index(min(margins))
    assert side["potential_worst_margin"] < 0
    assert cli.main(["run", "--method", "cg", "--problem", "quad:d=5", "--N", "3",
                     "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.csv.json").read_text())
    assert side["potential_worst_margin"] is None and side["potential_worst_step"] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # A_k = inf is the point
def test_gd_step_one_over_mu(tmp_path, capsys):
    # the gd potential divides by 1 - mu gamma; at gamma = 1/mu (here 1/1,
    # far above 2/L) certify used to end in a ZeroDivisionError traceback
    argv = ["--method", "gd", "--problem", "quad:d=5", "--N", "20", "--gamma", "1.0"]
    assert cli.main(["run", *argv, "--out", str(tmp_path / "t.csv")]) == 0
    assert cli.main(["certify", *argv]) == 5
    assert json.loads(capsys.readouterr().out)["violations"][0] == "0"


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("N", ["-1", "-2"])
@pytest.mark.parametrize("argv", [
    ["run", "--method", "gd"],
    ["compare", "--methods", "gd,fgm"],
    ["certify", "--method", "fgm"],
    ["certify", "--method", "ogm"],
])
def test_negative_N_exit_2(argv, N, capsys):
    # certify used to exit 0 (fgm) or end in a TypeError traceback (ogm)
    assert cli.main(argv + ["--problem", "quad:d=3", "--N", N]) == 2
    assert capsys.readouterr().err == "error: --N must be >= 0\n"


def test_delta_flag_is_gone():
    assert cli.main(["run", "--method", "gd", "--problem", "quad:d=3", "--delta", "0.5"]) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # A_k = inf is the point
def test_non_finite_values_are_json_strings(tmp_path, capsys):
    argv = ["--method", "gd", "--problem", "quad:d=5", "--N", "20", "--gamma", "1.0"]
    assert cli.main(["certify", *argv]) == 5
    assert strict_json(capsys.readouterr().out)["potential_min_slack"] == "-inf"
    assert cli.main(["run", *argv, "--out", str(tmp_path / "t.csv")]) == 0
    side = strict_json((tmp_path / "t.csv.json").read_text())
    assert side["potential_worst_margin"] == "nan"
    assert math.isnan(float(side["potential_worst_margin"]))


def test_certify_out_writes_the_report(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert cli.main(["certify", "--method", "fgm", "--problem", "quad:d=3", "--N", "5",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert strict_json(out.read_text())["pass"] is True


def test_compare_unknown_method_exit_2(capsys):
    code = cli.main(["compare", "--methods", "gd,bogus", "--problem", "quad:d=3"])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@st.composite
def cli_argv(draw):
    """A command over methods from the table, on a small random spec."""
    names = sorted(cli.METHODS)
    command = draw(st.sampled_from(["run", "compare", "certify"]))
    if command == "compare":
        argv = [command, "--methods",
                ",".join(draw(st.lists(st.sampled_from(names), min_size=2, max_size=3)))]
    else:
        argv = [command, "--method", draw(st.sampled_from(names))]
    spec = f"{draw(st.sampled_from(['quad', 'huber', 'lasso']))}:d={draw(st.integers(1, 5))}"
    argv += ["--problem", spec, "--N", str(draw(st.integers(-1, 20))),
             "--seed", str(draw(st.integers(0, 3)))]
    positive = st.just(0.0) | st.floats(0.0, exclude_min=True, allow_infinity=False,
                                        allow_subnormal=True)
    for flag, values in (("--mu", positive), ("--L", positive), ("--lambda", positive),
                         ("--gamma", positive), ("--form", st.sampled_from(["I", "II", "III"])),
                         ("--mode", st.sampled_from(composite.MODES))):
        if draw(st.booleans()):
            argv += [flag, str(draw(values))]
    return argv


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # diverging draws exit 3
@settings(max_examples=60, deadline=None)
@given(cli_argv())
@example(["run", "--method", "chebyshev", "--problem", "quad:d=1"])  # ZeroDivisionError
@example(["run", "--method", "tmm", "--problem", "quad:d=1"])  # ZeroDivisionError
@example(["certify", "--method", "ogm", "--problem", "quad:d=3", "--N", "-1"])  # TypeError
@example(["run", "--method", "gd", "--problem", "quad:d=1", "--mu", "5e-324",
          "--L", "17.2"])  # ZeroDivisionError
@example(["run", "--method", "catalyst", "--problem", "huber:d=4", "--N", "8",
          "--L", "5e-324"])  # OverflowError
@example(["certify", "--method", "catalyst", "--problem", "huber:d=4", "--N", "8",
          "--seed", "2", "--L", "4.1e-282"])  # ContractViolation
@example(["certify", "--method", "catalyst", "--problem", "quad:d=5", "--N", "4",
          "--lambda", "8.36e159", "--L", "0.133"])  # OverflowError: infinite burden
@example(["run", "--method", "prox_agm", "--problem", "quad:d=3", "--N", "9", "--seed", "2",
          "--L", "1.7478693632368791e+308"])  # RunawayLError: f overflows
def test_cli_exit_codes_over_the_method_table(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5)
    if argv[0] != "run" and code in (0, 5):
        strict_json(out.getvalue())


@pytest.mark.parametrize("flags, message", [
    (["--N", "3", "--L", "4.49423283715579e+307"], "gradient became non-finite"),
    (["--N", "1000"], "iterate became non-finite"),  # the A-sequence overflows
])
def test_overflowing_run_prints_one_error_line(flags, message):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONWARNINGS", None)  # numpy's default: print each warning
    proc = subprocess.run([sys.executable, "-m", "accelib.cli", "run", "--method", "fgm",
                           "--problem", "quad:d=2", *flags], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stderr == f"error: diverged: {message}\n"


@pytest.mark.parametrize("method, problem", [("fista", "lasso:d=6"), ("gd", "quad:d=6")])
def test_run_sidecar_reports_value_calls(tmp_path, method, problem):
    out = tmp_path / "t.csv"
    assert cli.main(["run", "--method", method, "--problem", problem, "--N", "20",
                     "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.csv.json").read_text())
    if method == "gd":  # a gradient step evaluates no f; reporting is not counted
        assert side["value_calls"] == 0
    else:  # f(y_k) and one f(x_{k+1}) per trial of the line search
        assert side["value_calls"] >= side["grad_calls"] + 20


@pytest.mark.parametrize("argv, raw", [
    (["run", "--method", "gd", "--problem", "quad:d=3", "--N", "3"], "abc"),
    (["certify", "--method", "gd", "--problem", "quad:d=3", "--N", "3"], "1e-10,x"),
    (["compare", "--methods", "gd,fgm", "--problem", "quad:d=3", "--N", "3"], "-1,0"),
])
def test_malformed_accel_tol_exits_2_before_the_run(monkeypatch, capsys, argv, raw):
    from accelib import momentum, poly_methods

    def not_run(*args, **kwargs):
        raise AssertionError("the method ran")

    monkeypatch.setattr(poly_methods, "gradient_descent", not_run)
    monkeypatch.setattr(momentum, "fgm", not_run)
    monkeypatch.setenv("ACCEL_TOL", raw)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ACCEL_TOL") and captured.err.count("\n") == 1


def test_malformed_accel_tol_prints_no_traceback():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), ACCEL_TOL="abc")
    proc = subprocess.run([sys.executable, "-m", "accelib.cli", "run", "--method", "gd",
                           "--problem", "quad:d=3", "--N", "3"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ACCEL_TOL") and proc.stderr.count("\n") == 1


def test_run_sidecar_records_its_provenance(tmp_path, monkeypatch):
    import numpy as np

    import accelib

    out = tmp_path / "t.csv"
    assert cli.main(["run", "--method", "fgm", "--problem", "quad:d=4", "--N", "5",
                     "--seed", "6", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.csv.json").read_text())
    assert side["provenance"] == {"accelib": accelib.__version__, "numpy": np.__version__,
                                  "seed": 6, "atol": 1e-10, "rtol": 1e-9}
    assert set(side) == {"config", "final_gap", "grad_calls", "prox_calls", "value_calls",
                         "bound", "bound_satisfied", "potential_worst_margin",
                         "potential_worst_step", "provenance"}
    monkeypatch.setenv("ACCEL_TOL", "1e-6,1e-5")
    assert cli.main(["run", "--method", "fgm", "--problem", "quad:d=4", "--N", "5",
                     "--out", str(out)]) == 0
    prov = json.loads((tmp_path / "t.csv.json").read_text())["provenance"]
    assert (prov["seed"], prov["atol"], prov["rtol"]) == (0, 1e-6, 1e-5)


# ---------------------------------------------------------------------------
# certify against the public certificate functions

def stacked_interpolation(triplets, mu, L):
    """Interpolation slacks from one (n x 3d)(3d x n) product: the form that
    check_interpolation's (n x d)(d x n) product rewrites."""
    X, G, F = (np.array(col, dtype=float) for col in zip(*triplets))
    Xc, Gc = X - X.mean(axis=0), G - G.mean(axis=0)
    Uc = Xc - Gc / L
    c = mu / (2.0 * (1.0 - mu / L))
    own = np.einsum("ij,ij->i", Gc, Gc) / (2.0 * L) + c * np.einsum("ij,ij->i", Uc, Uc)
    slack = np.hstack([Xc, Gc, Uc]) @ np.hstack([-G, Gc / L, (2.0 * c) * Uc]).T
    slack += (F - own)[:, None]
    slack += np.einsum("ij,ij->i", G, Xc) - F - own
    np.fill_diagonal(slack, np.inf)
    return slack


def public_certify(argv):
    """(exit code, report) of `certify` rebuilt from check_potential,
    harvest_triplets and stacked_interpolation; None for exit code 4."""
    args = cli.build_parser().parse_args(argv)
    method = cli.METHODS[args.method]
    oracle, problem, x0 = cli._setup(args)
    target = problem if method.composite else oracle
    trace = method.run(args, target, x0)
    try:
        margins = ct.check_potential(trace, target)
    except InvalidArgument:
        return 4, None
    tol = tol_for(ct.potential_scale(trace, target))
    bad = [str(m.where) for m in margins if not m.slack >= -tol]  # a NaN margin fails
    finite = [m.slack for m in margins if not math.isnan(m.slack)]
    triplets = list(ct.harvest_triplets(trace, oracle))
    interp = stacked_interpolation(triplets, oracle.params.mu, oracle.params.L)
    itol = tol_for(max(abs(f) for _, _, f in triplets) + 1.0)
    bad += [str((int(i), int(j))) for i, j in zip(*(interp < -itol).nonzero())]
    report = {"potential_min_slack": min(finite) if finite else math.nan,
              "interpolation_min_slack": ct.min_slack(interp), "itol": itol,
              "violations": bad, "pass": not bad}
    return (5 if bad else 0), report


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # gamma = 1/mu makes A_k = inf
@pytest.mark.parametrize("argv", [
    *(["--method", m, "--problem", p, "--N", "40", "--seed", s]
      for m in CERTIFIED for p in ("quad:d=6,kappa=20", "lasso:d=6") for s in ("3", "4")),
    ["--method", "gd", "--problem", "quad:d=5", "--N", "40", "--gamma", "0.3"],
    ["--method", "gd", "--problem", "quad:d=5", "--N", "20", "--gamma", "1.0"],
])
def test_certify_matches_public_certificate_functions(argv, capsys):
    code = cli.main(["certify", *argv])
    got = json.loads(capsys.readouterr().out) if code != 4 else None
    want_code, want = public_certify(["certify", *argv])
    assert code == want_code
    if want is None:
        return
    assert got["pass"] is want["pass"]
    assert got["violations"] == want["violations"]
    pmin = float(got["potential_min_slack"])  # a non-finite one is a string
    assert pmin == want["potential_min_slack"] or math.isnan(pmin) and math.isnan(
        want["potential_min_slack"])
    assert abs(got["interpolation_min_slack"] - want["interpolation_min_slack"]) <= want["itol"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # A_k = inf is the point
def test_certify_counts_nan_potential_margins_as_violations(capsys):
    # gd with gamma = 1/mu: A_1 = inf, so margin 0 is -inf and every later one
    # inf - inf; no step after the first can be certified either
    assert cli.main(["certify", "--method", "gd", "--problem", "quad:d=5", "--N", "20",
                     "--gamma", "1.0"]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["violations"][:20] == [str(k) for k in range(20)]
    assert report["potential_min_slack"] == "-inf"


@pytest.mark.parametrize("method", CERTIFIED)
def test_certify_evaluates_the_iterates_once_after_the_run(method, monkeypatch, capsys):
    # after the run, the smooth oracle sees one pass of row-stacked calls over
    # the iterates, in blocks of at most 64 rows, plus OGM's y_prev rows; the
    # only other call is potential_scale's value at x0
    traces, calls, depth = [], [], [0]
    real = cli.METHODS[method]

    def run(args, problem, x0):
        traces.append(real.run(args, problem, x0))
        return traces[-1]

    def spying(name, real_call):
        def spy(self, x):
            outer = bool(traces) and self.name == "quadratic" and not depth[0]
            if outer:  # value_and_gradient's own gradient call is not counted
                calls.append((name, np.array(x, dtype=float, copy=True)))
            depth[0] += outer
            try:
                return real_call(self, x)
            finally:
                depth[0] -= outer
        return spy

    monkeypatch.setitem(cli.METHODS, method, dataclasses.replace(real, run=run))
    for name in ("value", "gradient", "value_and_gradient"):
        monkeypatch.setattr(ProblemOracle, name, spying(name, getattr(ProblemOracle, name)))
    assert cli.main(["certify", "--method", method, "--problem", "quad:d=4,kappa=1000",
                     "--N", "150"]) == 0
    capsys.readouterr()
    (trace,) = traces
    stacked = [(name, x) for name, x in calls if x.ndim == 2]
    assert [name for name, _ in stacked[:3]] == ["value_and_gradient"] * 3
    assert all(len(x) <= 64 for _, x in stacked)
    assert np.array_equal(np.concatenate([x for _, x in stacked[:3]]), trace.x)
    rest = [x for name, x in stacked[3:] if name == "value"]
    assert len(rest) == len(stacked) - 3
    if method == "ogm":
        assert np.array_equal(np.concatenate(rest), trace.column("y_prev", 1))
    else:
        assert not rest
    points = [(name, x) for name, x in calls if x.ndim == 1]
    assert [name for name, _ in points] == ["value"]
    assert np.array_equal(points[0][1], trace.x[0])


def test_compare_holds_one_trace_at_a_time(tmp_path):
    # tracemalloc counts numpy's allocations exactly: compare's peak is one
    # build plus its largest run, not the traces of the methods before it
    import tracemalloc

    common = ["--problem", "quad:d=300", "--N", "300", "--out", str(tmp_path / "out")]

    def peak(argv):
        tracemalloc.start()
        try:
            assert cli.main(argv + common) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    methods = ["gd", "fgm", "ogm", "item"]
    peak(["run", "--method", "gd"])  # first calls of the process warm up
    runs = max(peak(["run", "--method", m]) for m in methods)
    assert peak(["compare", "--methods", ",".join(methods)]) <= 1.1 * runs


def test_run_constant_momentum_reports_its_bound(tmp_path):
    # the sidecar bound (1 - sqrt(mu/L))^N (f0 + mu R^2 / 2), from x0 drawn as run draws it
    out = tmp_path / "cm.csv"
    assert cli.main(["run", "--method", "constant_momentum", "--problem", "quad:d=8",
                     "--N", "40", "--seed", "3", "--out", str(out)]) == 0
    side = json.loads((tmp_path / "cm.csv.json").read_text())
    oracle, _ = cli.parse_problem("quad:d=8", 3, None, None)
    x0 = np.random.default_rng(4).standard_normal(8)
    mu, L = oracle.params.mu, oracle.params.L
    R2 = float(np.sum((x0 - oracle.x_star) ** 2))
    want = (1.0 - math.sqrt(mu / L)) ** 40 * (oracle.value(x0) - oracle.f_star + 0.5 * mu * R2)
    assert side["bound"] == pytest.approx(want, rel=1e-12)
    assert side["bound_satisfied"] is True and 0.0 <= side["final_gap"] <= side["bound"]


def test_compare_of_one_method_exits_2(capsys):
    assert cli.main(["compare", "--methods", "gd", "--problem", "quad:d=4"]) == 2
    assert "needs at least two methods" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certify's one verdict path, and the exit codes from main's table

def test_certify_counts_nan_interpolation_slacks_as_violations(monkeypatch, capsys):
    # a NaN pairwise slack cannot be certified, as a NaN potential margin cannot;
    # it used to pass, as NaN < -tol is false
    real = ct.check_interpolation

    def planted(triplets, mu, L):
        slack = real(triplets, mu, L)
        slack[1, 0] = np.nan
        return slack

    monkeypatch.setattr(ct, "check_interpolation", planted)
    assert cli.main(["certify", "--method", "fgm", "--problem", "quad:d=5", "--N", "30"]) == 5
    report = strict_json(capsys.readouterr().out)
    assert report["violations"] == ["(1, 0)"]
    assert report["interpolation_min_slack"] == "nan"
    assert report["pass"] is False


@pytest.mark.parametrize("problem", [["quad:d=1"], ["quad:d=4", "--mu", "5", "--L", "5"]])
def test_certify_with_mu_equal_to_L_is_a_bad_configuration(problem, capsys):
    # check_interpolation's plain InvalidArgument: exit 2, not the 4 of NoCertificate
    assert cli.main(["certify", "--method", "gd", "--problem", *problem]) == 2
    assert capsys.readouterr().err == "error: need 0 <= mu < L\n"


@pytest.mark.parametrize("argv, message", [
    (["chebyshev", "quad:d=5"], "no potential registered for 'chebyshev'"),
    (["fgm", "quad:d=5", "--form", "II"], "the trace's records carry no 'z' to certify"),
    (["ogm", "quad:d=5", "--form", "II"], "only form I carries the (y, z, theta) state"),
    (["fista", "lasso:d=6"], "potential checks need a known optimum"),
])
def test_certify_exit_4_names_the_missing_certificate(argv, message, capsys):
    method, problem, *form = argv
    assert cli.main(["certify", "--method", method, "--problem", problem, "--N", "10", *form]) == 4
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_a_broken_potential_is_not_a_missing_certificate(monkeypatch, capsys):
    # only NoCertificate means "no certificate": any other InvalidArgument from
    # a potential leaves the run, and the CLI reports it as exit 2
    def broken(trace, gap, x_star, gap_at):
        raise InvalidArgument("broken potential")

    monkeypatch.setitem(ct._POTENTIALS, "gd", broken)
    for command in ("run", "certify"):
        assert cli.main([command, "--method", "gd", "--problem", "quad:d=3", "--N", "5"]) == 2
        assert capsys.readouterr().err == "error: broken potential\n"


@pytest.mark.parametrize("N", [1, 20, 100])
def test_gd_sidecar_bound_is_attained_on_the_huber_worst_case(N, tmp_path):
    # Drori & Teboulle (2014): gd with step 1/L has f(x_N) - f* <= L R^2/(4N+2),
    # attained on the 1-D Huber with threshold R/(2N+1) started at distance R
    seed, out = 3, tmp_path / "t.csv"
    R = abs(float(np.random.default_rng(seed + 1).standard_normal(1)[0]))  # the CLI's x0
    assert cli.main(["run", "--method", "gd", "--problem", f"huber:d=1,tau={R / (2 * N + 1)!r}",
                     "--N", str(N), "--seed", str(seed), "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.csv.json").read_text())
    assert side["bound"] == R * R / (4 * N + 2)
    assert side["bound_satisfied"] is True
    assert abs(side["final_gap"] / side["bound"] - 1.0) <= 2 * N * np.finfo(float).eps



def test_gd_bound_is_attained_at_every_horizon_up_to_200():
    # the same worst case from x0 = R at N = 1..200; the ratio's rounding
    # grows with N (at most 2.2e-14 here), and the bound check's tol_for covers it
    from accelib import oracles, poly_methods

    L, R = 1.0, 1.0
    for N in range(1, 201):
        huber = oracles.make_huber(R / (2 * N + 1), L, 1)
        gap = poly_methods.gradient_descent(huber, 1.0 / L, np.array([R]), N).final.f_gap
        bound = cli._gd_bound(argparse.Namespace(N=N, gamma=None), huber, None, R)
        assert abs(gap / bound - 1.0) <= 2 * N * np.finfo(float).eps
        assert gap <= bound + tol_for(bound)


@pytest.mark.parametrize("method", ["fista", "prox_agm"])
def test_run_reports_no_potential_where_certify_has_no_certificate(method, tmp_path, capsys):
    # a lasso spec has no known optimum: the sidecar's potential keys are null,
    # not a margin measured from the smooth part's optimum, and certify exits 4
    argv = ["--method", method, "--problem", "lasso:d=6", "--N", "20"]
    out = tmp_path / "t.csv"
    assert cli.main(["run", *argv, "--out", str(out)]) == 0
    side = json.loads((tmp_path / "t.csv.json").read_text())
    assert side["potential_worst_margin"] is None and side["potential_worst_step"] is None
    assert all(row.split(",")[4] == "" for row in out.read_text().split("\n")[1:-1])
    assert cli.main(["certify", *argv]) == 4
    assert capsys.readouterr().err.endswith("error: potential checks need a known optimum\n")
