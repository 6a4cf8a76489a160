"""Exception types shared across the package."""


class SemifdError(Exception):
    """Base class for all errors raised by this package."""


class PresentationError(SemifdError):
    """Malformed or non-homogeneous monoid presentation."""


class LengthBoundError(SemifdError):
    """An operation needs words longer than the enumerated bound."""


class ResourceLimitError(SemifdError):
    """Enumeration exceeded the configured table-entry cap."""


class CancellativityError(SemifdError):
    """The enumerated table violates left or right cancellation."""


class IncompleteFiberError(SemifdError):
    """The enumeration bound is too small to guarantee a complete fiber."""


class ControlledMapError(SemifdError):
    """Generator images do not define a homomorphism with finite fibers."""


class BasisMismatchError(SemifdError):
    """Operator composition or comparison over incompatible bases."""


class DegreeOverflowError(SemifdError):
    """A kernel coefficient or graded basis beyond the working degree."""


class KernelSpecError(SemifdError):
    """Invalid kernel coefficient sequence."""
