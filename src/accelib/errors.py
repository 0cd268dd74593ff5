"""Typed errors shared by the method drivers and checkers."""


class InvalidArgument(ValueError):
    """Arguments outside a method's stated preconditions."""


class NoCertificate(InvalidArgument):
    """A trace carries no certificate to check: no registered potential, records
    without the potential's state, or no known optimum."""


class UnsupportedOracle(TypeError):
    """The oracle lacks a capability the operation requires (prox, quadratic form, ...)."""


class RunError(RuntimeError):
    """A run failed part way. Carries the partial trace: `trace.drive`
    attaches it when the raiser passes none."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class DivergedError(RunError):
    """An iterate became non-finite."""


class SingularSystemError(RuntimeError):
    """A small dense solve hit a pivot below the singularity threshold."""


class RunawayLError(RuntimeError):
    """Backtracking increased L more than 200 times within one iteration."""


class InnerSolveError(RunError):
    """An inner subproblem solver failed."""


class ContractViolation(RuntimeError):
    """An inner solver broke its advertised linear convergence contract."""


class InconsistentCertificate(ValueError):
    """Stored residual does not match the one recomputed from (x, y, lambda, g)."""
