"""Exception hierarchy shared by all modules.

The command line tool maps these onto exit codes: job-file problems exit
with 2, mathematical degeneracies with 3, numerical non-convergence with 4,
a failed annihilation or Ehrhart certificate with 5.
"""


class GkzForgeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class JobFileError(GkzForgeError):
    """Malformed, schema-violating or inconsistent job file."""

    exit_code = 2


class DegeneracyError(GkzForgeError):
    """Mathematically degenerate or unsupported input."""

    exit_code = 3


class NumericalError(GkzForgeError):
    """A numerical routine failed to reach its target accuracy."""

    exit_code = 4


class CertificateFailed(GkzForgeError):
    """A nonzero trusted symbolic residual, or an Ehrhart count off the volume."""

    exit_code = 5


# -- lattice ---------------------------------------------------------------

class DuplicatePoint(DegeneracyError):
    pass


class DegenerateConfiguration(DegeneracyError):
    pass


class LowerDimensionalPolytope(DegeneracyError):
    pass


class NonIntegerVolume(DegeneracyError):
    """Internal consistency failure of the Ehrhart interpolation."""


class LimitExceeded(DegeneracyError):
    """Input larger than the supported desk-scale bounds."""


# -- weyl ------------------------------------------------------------------

class VariableMismatch(DegeneracyError):
    pass


# -- tautsys ---------------------------------------------------------------

class SaturationBudgetExceeded(DegeneracyError):
    pass


# -- series ----------------------------------------------------------------

class UnsupportedFamily(DegeneracyError):
    pass


class TruncationTooSmall(DegeneracyError):
    pass


# -- periods ---------------------------------------------------------------

class NoInteriorMonomial(DegeneracyError):
    pass


class SingularOnContour(DegeneracyError):
    pass


class PoleNearPath(DegeneracyError):
    pass


class DivergentAtBoundary(DegeneracyError):
    pass


class MultipleRoot(DegeneracyError):
    pass


class StencilOutOfDomain(DegeneracyError):
    pass


class NonConvergent(NumericalError):
    pass
