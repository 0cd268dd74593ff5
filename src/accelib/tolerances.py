"""Global scale-aware tolerance policy.

Every inequality check in the library accepts slack >= -(atol + rtol * magnitude).
Defaults are atol=1e-10, rtol=1e-9; the ACCEL_TOL environment variable overrides
both as a comma-separated pair "atol,rtol". `ACCEL_TOL` is read when a run
starts: a step loop that tests every trial point (the composite line search)
takes the pair once per run from `tolerances()`, so changing the variable
mid-run does not affect that run.
"""

import os

DEFAULT_ATOL = 1e-10
DEFAULT_RTOL = 1e-9


def tolerances():
    """Return the active (atol, rtol) pair, honoring ACCEL_TOL."""
    raw = os.environ.get("ACCEL_TOL")
    if raw is None:
        return DEFAULT_ATOL, DEFAULT_RTOL
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError("ACCEL_TOL must be 'atol,rtol'")
    return float(parts[0]), float(parts[1])


def tol_for(magnitude=1.0):
    atol, rtol = tolerances()
    return atol + rtol * abs(magnitude)


def slack_ok(slack, magnitude=1.0):
    """True iff slack >= -(atol + rtol * |magnitude|)."""
    return slack >= -tol_for(magnitude)
