import json
import re

import pytest

from accelib import cli


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
