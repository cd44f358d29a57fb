"""Exception hierarchy shared across the package.

Everything raised on purpose derives from AjlabError so the command-line
layer can map "the math said no" to a single exit code while genuine bugs
still surface as ordinary tracebacks.
"""


class AjlabError(Exception):
    """Base class for domain-level failures."""


class DomainError(AjlabError):
    """Input outside an operation's declared domain (zero denominator in a
    substitution, non-divisible quotient, unsupported variable set, ...)."""


class PoleError(AjlabError):
    """A denominator vanishes where a finite value is required."""


class DegeneracyError(AjlabError):
    """An elimination or linear solve collapsed (zero resultant, singular
    Jacobian)."""


class ConvergenceError(AjlabError):
    """An iterative solver ran out of iterations before reaching tolerance,
    or left the range of floats."""


class BranchCutError(AjlabError):
    """A dilogarithm was requested on its cut without a side."""


class SupportError(AjlabError):
    """A discrete evaluation point lies outside the summand's support in a
    context where that is not allowed."""


class SingularityError(AjlabError):
    """A potential or coefficient was evaluated at a singular point."""
