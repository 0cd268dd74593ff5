import os

import pytest

from accelib import tolerances as tl


def test_defaults():
    atol, rtol = tl.tolerances()
    assert atol == 1e-10
    assert rtol == 1e-9


def test_tol_for_scales_with_magnitude():
    assert tl.tol_for(0.0) == 1e-10
    assert tl.tol_for(1.0) == pytest.approx(1e-10 + 1e-9)
    assert tl.tol_for(1e6) == pytest.approx(1e-10 + 1e-3)


def test_slack_ok_sign_convention():
    assert tl.slack_ok(0.0)
    assert tl.slack_ok(-5e-10, magnitude=1.0)
    assert not tl.slack_ok(-1e-8, magnitude=1.0)
    assert tl.slack_ok(1e3)


def test_env_override(monkeypatch):
    monkeypatch.setenv("ACCEL_TOL", "1e-6,1e-5")
    assert tl.tolerances() == (1e-6, 1e-5)
    assert tl.slack_ok(-1e-7)
    monkeypatch.delenv("ACCEL_TOL")
    assert tl.tolerances() == (1e-10, 1e-9)


@pytest.mark.parametrize("raw", ["abc", "1e-10,x", "1e-10", "1e-10,1e-9,0", "",
                                 "-1e-10,1e-9", "1e-10,-0.5", "inf,1e-9", "1e-10,nan"])
def test_malformed_env_raises_invalid_argument(monkeypatch, raw):
    from accelib.errors import InvalidArgument

    monkeypatch.setenv("ACCEL_TOL", raw)
    with pytest.raises(InvalidArgument, match="ACCEL_TOL") as info:
        tl.tolerances()
    assert isinstance(info.value, ValueError)
    with pytest.raises(InvalidArgument):
        tl.tol_for(1.0)


def test_env_is_read_on_every_call(monkeypatch):
    monkeypatch.setenv("ACCEL_TOL", "0,0")
    assert tl.tolerances() == (0.0, 0.0)
    monkeypatch.setenv("ACCEL_TOL", " 2e-6 , 3e-5 ")  # float() strips spaces
    assert tl.tol_for(2.0) == 2e-6 + 3e-5 * 2.0
    monkeypatch.delenv("ACCEL_TOL")
    assert tl.tolerances() == (tl.DEFAULT_ATOL, tl.DEFAULT_RTOL)
