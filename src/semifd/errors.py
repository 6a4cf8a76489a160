"""Exception types shared across the package: each is an InputError (the CLI
exits 2), an InvariantError (a failed check, exit 1) or a ResourceLimitError (3)."""


class SemifdError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SemifdError):
    """The arguments do not describe a valid computation."""


class InvariantError(SemifdError):
    """A certified property fails, or a numerical certificate is refused."""


class ResourceLimitError(SemifdError):
    """Enumeration exceeded the configured table-entry cap."""


class PresentationError(InputError):
    """Malformed or non-homogeneous monoid presentation."""


class LengthBoundError(InputError):
    """An operation needs words longer than the enumerated bound."""


class IncompleteFiberError(InputError):
    """The enumeration bound is too small to guarantee a complete fiber."""


class ControlledMapError(InputError):
    """Generator images do not define a homomorphism with finite fibers."""


class BasisMismatchError(InputError):
    """Operator composition or comparison over incompatible bases."""


class DegreeOverflowError(InputError):
    """A kernel coefficient or graded basis beyond the working degree."""


class KernelSpecError(InputError):
    """Invalid kernel coefficient sequence."""


class CancellativityError(InvariantError):
    """The enumerated table violates left or right cancellation."""
