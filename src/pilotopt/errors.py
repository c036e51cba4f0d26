"""Exception hierarchy shared across the package.

Two broad failure families are distinguished because the command line
maps them to different exit codes: bad inputs or unsupported settings
(exit 2) versus genuine numerical breakdown (exit 3).
"""


class ContractViolation(ValueError):
    """An argument breaks a documented precondition (shape, symmetry, range)."""


class ConfigurationError(ValueError):
    """A requested configuration is invalid or unsupported."""


class NumericalError(RuntimeError):
    """A numerical routine failed (non-convergence, non-finite values)."""


class SingularMatrixError(NumericalError):
    """A matrix required to be invertible is singular or too ill-conditioned."""
