"""First-order convex optimization methods with executable convergence
certificates: momentum/accelerated gradient schemes, Chebyshev iterations,
Anderson-type extrapolation, proximal and restart machinery, plus checkers
for the inequalities their analyses rest on."""

# `cli` is left to `from accelib import cli`: importing it here would make
# `python -m accelib.cli` warn that the module was imported before it ran.
from . import (certify, composite, extrapolation, momentum, oracles,
               poly_methods, prox_outer, restart, tolerances, trace)

__all__ = [
    "certify", "cli", "composite", "extrapolation", "momentum", "oracles",
    "poly_methods", "prox_outer", "restart", "tolerances", "trace",
]

__version__ = "0.1.0"
