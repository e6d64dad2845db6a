"""Error taxonomy shared across the package.

``AugsegError`` subclasses describe problems with user-supplied data or
arguments (bad shapes, malformed files, domain violations); the CLI maps
them to exit code 1.  ``InvariantError`` signals a broken internal
invariant (exit code 2) and deliberately does not inherit from
``AugsegError``.
"""

import numbers


class AugsegError(Exception):
    """Base class for input/usage errors."""


class DimensionError(AugsegError):
    """Tensor shapes or extents are incompatible with the operation."""


class ContractError(AugsegError):
    """A documented precondition was violated."""


class NumericDomainError(AugsegError):
    """Input values lie outside the mathematical domain (e.g. log of <= 0)."""


class FormatError(AugsegError):
    """A file could not be parsed; message includes the byte offset."""


class InputError(AugsegError):
    """Missing files, invalid flags, or otherwise unusable inputs."""


class InvariantError(Exception):
    """An internal invariant failed; indicates a bug, not bad input."""


def check_seed(value, name):
    """``value`` if numpy's generators accept it as a seed (an integer
    >= 0); otherwise a ``ContractError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 0:
        raise ContractError(
            f"{name} must be a non-negative integer, got {value!r}")
    return value
