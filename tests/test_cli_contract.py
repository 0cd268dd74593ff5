"""The CLI's documented contract, each part checked once: the README's
examples run, each exit code ends a fresh process without a traceback, the
`run` sidecar's potential margin is null exactly when `certify` exits 4, and
importing the CLI imports no scipy."""

import json
import os
import re
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from accelib import cli

ROOT = Path(__file__).resolve().parents[1]


def _fresh(args, cwd=None, preexec_fn=None):
    """`python <args>` in a new process, with this checkout's src on the path."""
    return subprocess.run([sys.executable, *args], cwd=cwd, preexec_fn=preexec_fn,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)


def test_the_readme_cli_examples_run(tmp_path):
    # the commands live only in README.md, under "## CLI examples"
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI examples\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("accelib ")]
    assert len(examples) == 3
    for _, *argv in examples:
        proc = _fresh(["-m", "accelib.cli", *argv], cwd=tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "Traceback" not in proc.stderr


def _address_space_1_5_gb():
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)


EXITS = [
    # mu = L: a bad configuration
    ("certify --method gd --problem quad:d=1", 2, None),
    ("certify --method chebyshev --problem quad:d=5", 4, None),
    # gd at gamma = 1/mu violates its certificate
    ("certify --method gd --problem quad:d=5 --N 20 --gamma 1.0", 5, None),
    # a negative mu used to end fista and prox_agm in a ZeroDivisionError traceback
    ("run --method fista --problem quad:d=5 --N 20 --mu -1", 2, None),
    ("certify --method prox_agm --problem huber:d=3 --N 20 --mu -1", 2, None),
    # certify's (N+1) x (N+1) slack matrix takes 2.98 GiB, past the limit
    ("certify --method gd --problem quad:d=2 --N 20000", 2, _address_space_1_5_gb),
]


@pytest.mark.parametrize("argv, want, limit", EXITS, ids=[argv for argv, _, _ in EXITS])
def test_each_exit_code_ends_a_fresh_process_without_a_traceback(argv, want, limit):
    # exit 0 is the README examples'; exit 3 is
    # tests/test_cli.py::test_overflowing_run_prints_one_error_line
    proc = _fresh(["-m", "accelib.cli", *argv.split()], preexec_fn=limit)
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr
    if want != cli.EXIT_CERT_FAIL:
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ")


@pytest.mark.parametrize("argv", [
    *(["--method", m, "--problem", spec]
      for spec in ("quad:d=5", "lasso:d=6") for m in cli.METHODS),
    *(["--method", m, "--problem", "quad:d=5", "--form", "II"]
      for m in ("fgm", "ogm", "constant_momentum")),
], ids=" ".join)
def test_the_run_sidecar_margin_is_null_exactly_when_certify_exits_4(argv, tmp_path, capsys):
    out = tmp_path / "pot.csv"
    assert cli.main(["run", *argv, "--N", "20", "--out", str(out)]) == 0
    margin = json.loads((tmp_path / "pot.csv.json").read_text())["potential_worst_margin"]
    code = cli.main(["certify", *argv, "--N", "20"])
    capsys.readouterr()
    assert (margin is None) == (code == cli.EXIT_NO_CERT), (margin, code)


def test_the_cli_imports_no_scipy():
    # scipy costs the CLI about 0.19 s of start-up and 27 MB of memory
    proc = _fresh(["-c", "import sys, accelib.cli; print('scipy' in sys.modules)"])
    assert proc.stdout == "False\n", proc.stderr
