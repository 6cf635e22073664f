"""Exception types shared across the package."""


class DquantError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(DquantError, ValueError):
    """Operand shapes are incompatible."""


class NonFiniteInput(DquantError, ValueError):
    """Input contains NaN or infinity."""


class UnsupportedBits(DquantError, ValueError):
    """Bit width outside the supported set {2, 4, 8}."""


class UnsupportedDtype(DquantError, TypeError):
    """Array input that is not bool, integer or floating point."""


class RangeOverflow(DquantError, ValueError):
    """Integer value outside the symmetric range for the bit width."""


class CorruptPayload(DquantError, ValueError):
    """Packed payload length disagrees with shape and bit width."""


class BondMismatch(DquantError, ValueError):
    """Adjacent local tensors disagree on their shared bond dimension."""


class LayerOutOfRange(DquantError, IndexError):
    """Layer index is outside the configured cache."""


class AlreadyPrefilled(DquantError, ValueError):
    """Prefill called on a layer that already holds tokens."""


class DimMismatch(DquantError, ValueError):
    """Row width differs from the configured cache dimension."""


class EmptyInput(DquantError, ValueError):
    """Operation requires at least one value."""


class MalformedFile(DquantError, ValueError):
    """File does not follow the declared binary layout."""


class InvariantViolated(DquantError, RuntimeError):
    """Internal bookkeeping broke one of its own invariants (a program fault)."""
