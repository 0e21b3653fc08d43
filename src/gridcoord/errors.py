"""Shared exception hierarchy.

Three coarse families exist so the CLI can map failures to exit codes:
input problems (bad files, bad schemas), infeasible optimization stages,
and iterative methods that fail to converge.
"""


class GridcoordError(Exception):
    """Base class for all package errors."""


class InputError(GridcoordError):
    """Malformed or inconsistent input data."""


class InfeasibleError(GridcoordError):
    """An optimization stage has no feasible point."""


class ConvergenceError(GridcoordError):
    """An iterative method exhausted its iteration budget."""


# -- numeric kernel ----------------------------------------------------------

class SingularMatrix(GridcoordError):
    """A linear solve hit a pivot below the singularity threshold."""


# -- feeder model ------------------------------------------------------------

class ParseError(InputError):
    """Document does not match the expected schema."""


# What reading a missing or mistyped field of a decoded JSON document
# raises (``doc["x"]``, ``float("abc")``, ``re, im = [1, 2, 3]``); loaders
# turn these into ParseError.
FIELD_ERRORS = (LookupError, TypeError, ValueError, AttributeError)


class ValidationError(InputError):
    """Parsed data violates a model invariant (non-radial, dangling DER, ...)."""


class InvalidPartition(InputError):
    """Observable/unobservable split violates the controllability condition."""


class NoConvergence(ConvergenceError):
    """Fixed-point or Newton iteration did not converge."""


# -- inverter ----------------------------------------------------------------

class InvalidProfile(InputError):
    """Droop profile breakpoints are not monotone or otherwise unusable."""


# -- MILP --------------------------------------------------------------------

class UnknownVariable(InputError):
    """A constraint or objective references a variable id that does not exist."""


class TooLarge(InputError):
    """Brute-force enumeration requested above the enumeration cap."""


# -- dispatch ----------------------------------------------------------------

class InfeasibleStage(InfeasibleError):
    """A DSO stage MILP is infeasible under the current constraints."""


class DegenerateSensitivity(GridcoordError):
    """Substation sensitivity sum is non-positive; weights are undefined."""


# -- transmission ------------------------------------------------------------

class SingularJacobian(SingularMatrix):
    """Power-flow Jacobian is singular at the operating point."""


# -- data bundle -------------------------------------------------------------

class ChecksumMismatch(InputError):
    """Bundled data file does not match its recorded checksum."""
