"""The CLI's problem specs: each instance is bit-identical to the one the
spec names, and each bad spec ends in exit 2 with one `error:` line."""

import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accelib import cli


def _digest(spec, seed, mu, L):
    """SHA-256 over what `parse_problem` builds: x_star, (mu, L), f_star, and
    the oracle's value, gradient and prox at two fixed points (for lasso also
    the l1 term's value and prox)."""
    oracle, problem = cli.parse_problem(spec, seed, mu, L)
    d = oracle.x_star.shape[0]
    points = np.random.default_rng(12345).standard_normal((2, d))
    parts = [oracle.x_star, [oracle.params.mu, oracle.params.L, oracle.f_star],
             [getattr(oracle, "tau", np.nan)], [problem is None]]
    for x in points:
        parts += [oracle.gradient(x), [oracle.value(x)]]
        if oracle.has_prox:
            parts.append(oracle.prox(x, 0.3))
        if problem is not None:
            parts += [[problem.nonsmooth.value(x)], problem.nonsmooth.prox(x, 0.3)]
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part, dtype=float).tobytes())
    return h.hexdigest()


# (spec, seed, --mu, --L) -> digest: the spec forms the tests, README, CI and
# perfbench's workloads use, with and without --mu/--L, frozen before the
# problem table replaced parse_problem's hand branches
DIGESTS = {
    ("quad", 0, None, None):
        "58889f394ce857ad6c4f2345d0f5e92c12c4809450e661dc660b33a0e3bff1a7",
    ("quad:d=1", 0, None, None):
        "c94ea48f793ea07bfe9d2e3c319e8a65e0f22b5f49d15f045e329b35f8de7fae",
    ("quad:d=2", 0, None, None):
        "aaaa92fa94707f3734f16e609cb31269995ea4a403425c153bb675c273473543",
    ("quad:d=5", 0, None, None):
        "33deaa3a6bb3fc5770b1b24f693131a2cc8c00fc77f82d470b9e4f6acdcfce94",
    ("quad:d=5", 1, 0.5, 4.0):
        "3ad318e54ea08338aaaa1971e28b0f6a52c52431cd5acb7a37d7e8a90279bf5a",
    ("quad:d=5", 1, 0.0, 0.0):
        "b016ad427a2ea79c731bb8d4e00e00cb0bba72a2971269f56c82815d445a213a",
    ("quad:d=3", 2, -1.0, None):
        "d1ce70598268ef0f3951f8d5dd761f8423d39f69d6c63d662df500b895e2af4b",
    ("quad:d=8", 3, None, None):
        "e04a55c7b4b490429192f8e941c82382dd5d960f646e9c10556b5c3e3c6232fd",
    ("quad:d=10", 0, None, None):
        "58889f394ce857ad6c4f2345d0f5e92c12c4809450e661dc660b33a0e3bff1a7",
    ("quad:d=20,kappa=10", 0, None, None):
        "80dd2b82ed456df78c4d0219f0a08ce66aeeb9ad3dd2b3b3792f75d6dfb9ddc3",
    ("quad:d=20,kappa=50", 7, None, None):
        "b8d477b7f4658c114b94106b5ab52aee0dc9b62ad415848a784bf6702cbfb6fc",
    ("quad:d=6,kappa=20", 4, None, None):
        "24cc2ce622bab164cc2d8b035984afc9b753c753bbc47f04647e4c43b07847fd",
    ("quad:d=5,kappa=50", 1, None, 2.0):
        "85f2ef76783e3588cabea5e410b7f0fb790d684d8708ed8ecd1aefc01d3e0698",
    ("quad:d=5,kappa=50", 1, 0.3, 2.0):
        "85f2ef76783e3588cabea5e410b7f0fb790d684d8708ed8ecd1aefc01d3e0698",
    ("quad:d=200,kappa=100", 2, None, None):
        "5365b66dc13cb5fb4d5d0a53bcd0aaee78afd520df0bf1ccfd2a92a59942b7f3",
    ("huber:d=4", 0, None, None):
        "7979fdd0683484077460edc55546c1ae9274a2da45aa717712f45c568408db45",
    ("huber:d=4", 2, None, 4.1e-282):
        "5f933c3f2cce756fc02ea54d92acd63227556f326e08db3e42148c8eddaef5cc",
    ("huber:d=1,tau=0.1", 0, None, None):
        "3583d8c7440776c504c6df3d9c9d7bc91c838c7e44269c5dcec7f0ce6f01f88d",
    ("huber:d=1,tau=0.0196078431372549", 0, 0.5, None):
        "d4fb683a22db80333ae544abe051166789745a3e450aea73418b92e4fae5b700",
    ("huber:d=200,tau=0.1", 5, None, 3.0):
        "63c3d5778fdb296c2eb277dc372996a037d1fabca4c261bed096460056a41d24",
    ("lasso:d=6", 3, None, None):
        "5f98646025185473ce3c7650a0cabd22ff501fc3ad004296afc210e118398a2a",
    ("lasso:d=6", 4, 0.5, 20.0):
        "aff335e6362e81bb7e1e629f0f27e10963d2b749088b12f8f425af91108fbd98",
    ("lasso:d=10,weight=0.1", 0, None, None):
        "999435c100259266d1e28f9cbd6893085a6eb2d259c418c33d9d18c8b419422b",
    ("lasso:d=8,weight=0.05", 2, 0.0, None):
        "2eeb4f55219cb593a0c1b14c0c1f0a112349fd93fe5dd5ffadd3379e5c585404",
    ("lasso:d=50", 1, None, None):
        "7337e512ea98d3ce922d346aa41f19cbcf8e31916f2d4ddb65f7aced27335b40",
    ("quad:d=4,kappa=1000", 0, 0.2, None):
        "3e6c8eb965d663129fbe5b4799db885786f2488c0df4286a5efe680d3bcfa60a",
    ("huber:d=3,tau=0.5", 1, 0.0, 0.0):
        "4ebc3bafeeca5b8c235edc5c6ec9064f73fe25c29ec08908d660fbc3539f25d0",
    ("quad:d=1000,kappa=100", 3, None, None):
        "c912174c93e899796243b77c75f73c3f2c9473e45a715cda5876e075925bc5ae",
    ("lasso:d=500", 4, None, None):
        "050f614df3bd38191a041158a7b4d1cf1c9bfc381f2f1a9c80565546e0469351",
}


@pytest.mark.parametrize("case", list(DIGESTS), ids=str)
def test_every_spec_form_builds_the_frozen_instance(case):
    assert _digest(*case) == DIGESTS[case]


@pytest.mark.parametrize("spec, key", [
    ("quad:d=inf", "d"),
    ("quad:d=5,foo=3", "foo"),
    ("quad:d=5.7", "d"),
    ("quad:d=5,d=7", "d"),
    ("huber:d=3,kappa=10", "kappa"),
    ("huber:d=3,tau=nan", "tau"),
    ("lasso:d=4,weight=nan", "weight"),
    (f"quad:d={cli.D_MAX + 1}", "d"),
    ("quad:d=1000000000", "d"),
])
def test_bad_spec_exits_2_with_one_error_line_naming_the_key(spec, key):
    # under a 1.5 GB address space an allocation of d-sized vectors ends in
    # "error: out of memory", which names no key: d must be refused before
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)

    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "accelib.cli", "run", "--method", "gd",
                           "--problem", spec, "--N", "3"],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, timeout=60, preexec_fn=limit)
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: problem spec {spec!r}: {key}=")


_KINDS = st.sampled_from(["quad", "huber", "lasso", "nope", "", "Quad"])
_KEYS = st.sampled_from(["d", "kappa", "tau", "weight", "foo", "", "D"])
_BAD = st.sampled_from(["", "nan", "inf", "-inf", "1e3", "2.0", "5.7", "x", "1,5", " "])
_VALUES = _BAD | st.integers(-3, 20).map(str) | st.floats().map(repr)


@st.composite
def specs(draw):
    """A spec whose first key is a d that is either refused or at most 5."""
    items = [("d", draw(_BAD | st.integers(-3, 5).map(str) | st.just(str(cli.D_MAX + 1))))]
    items += draw(st.lists(st.tuples(_KEYS, _VALUES | st.none()), max_size=3))
    return draw(_KINDS) + ":" + ",".join(
        key if text is None else f"{key}={text}" for key, text in items)


@settings(max_examples=150, deadline=None)
@given(specs())
def test_generated_spec_runs_or_exits_2_with_one_error_line(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--method", "gd", "--problem", spec, "--N", "3"])
    assert code in (0, 2)
    if code == 2:
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ")


def test_a_repeated_key_exits_2_in_process(capsys):
    # the subprocess cases above leave this branch unreached by an in-process trace
    assert cli.main(["run", "--method", "gd", "--problem", "quad:d=5,d=7", "--N", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: problem spec 'quad:d=5,d=7': d='7': d is given twice\n")
