"""Exception types raised across the package.

Every error the library raises deliberately derives from TransectPlanError so
callers (and the CLI exit-code map) can catch the family in one clause.
"""


class TransectPlanError(Exception):
    """Base class for all deliberate errors raised by this package."""


class FactorizationFailure(TransectPlanError):
    """Cholesky factorization failed even after the jitter escalation ladder."""


class SingularCovariance(TransectPlanError):
    """A triangular factor carries a diagonal entry too small to take a log of."""


class GridTooLarge(TransectPlanError):
    """The requested dense operation would exceed the supported grid size."""


class InvalidArity(TransectPlanError):
    """A robot configuration does not match the expected team size or row set."""


class BudgetExceeded(TransectPlanError):
    """Exhaustive search would evaluate more leaves than the configured budget."""


class ConditionViolated(TransectPlanError):
    """A closed-form bound was requested outside its validity condition."""


class AnisotropyViolated(TransectPlanError):
    """The team bound requires equal normalized length-scales in both axes."""


class EmptyUnobservedSet(TransectPlanError):
    """The posterior-entropy metric has no unobserved locations left to score."""


class ZeroMeanField(TransectPlanError):
    """The squared-error metric cannot normalize by a zero field mean."""


class MismatchedInstances(TransectPlanError):
    """Two evaluation records, or paths valued together, do not describe the
    same planning instance (one grid and one team size)."""


class ParseError(TransectPlanError):
    """A field file, sidecar file, CLI value, or policy name could not be parsed."""
