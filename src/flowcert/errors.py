"""Exception taxonomy shared by all flowcert modules, and the default caps
that :class:`CapacityError` enforces."""

from __future__ import annotations


class FlowcertError(Exception):
    """Base class for every error raised by this package."""


class InvalidGroupError(FlowcertError):
    """Group construction rejected (empty factor list, factor < 2)."""


class InvalidElementError(FlowcertError):
    """Element code outside [0, order) or malformed residue tuple."""


class UnsupportedGroupError(FlowcertError):
    """Operation not implemented for this group shape (explicit, not silent)."""


class NotAFlowError(FlowcertError):
    """Values do not sum to the identity; carries the offending sum."""

    def __init__(self, message: str, sum_code: int):
        super().__init__(message)
        self.sum_code = sum_code


class ShapeError(FlowcertError):
    """Mismatched group, length, or index structure between operands."""


class InvalidPermutationError(FlowcertError):
    """Index map is not a bijection on [0, n)."""


# The default caps, kept here with CapacityError so that the CLI can give
# its options their defaults without importing the engine.
DEFAULT_FLOW_CAP = 1 << 24  # flows of one (group, n)
DEFAULT_FIBER_CAP = 1 << 22  # members of one fiber
DEFAULT_SWEEP_CAP = 1 << 27  # multisets of one degree of a sweep


class CapacityError(FlowcertError):
    """Requested enumeration exceeds a configured cap; carries the numbers."""

    def __init__(self, message: str, required: int, cap: int):
        super().__init__(message)
        self.required = required
        self.cap = cap


def count_text(count: int) -> str:
    """``count`` in decimal for an error message, or the power of two it
    reaches when it has more digits than the interpreter converts to a
    string (4,300 by default)."""
    try:
        return str(count)
    except ValueError:
        return f"at least 2**{count.bit_length() - 1}"


class InvalidExchangeError(FlowcertError):
    """Pair exchange rejected; carries the two partial sums."""

    def __init__(self, message: str, sum_f: int, sum_g: int):
        super().__init__(message)
        self.sum_f = sum_f
        self.sum_g = sum_g


class ContainmentError(FlowcertError):
    """A sub-multiset to remove is not contained in the target multiset."""


class InvalidMoveError(FlowcertError):
    """Move with mismatched degrees or incompatible sides."""


class PreconditionError(FlowcertError):
    """A stated operation precondition does not hold."""


class InvalidTransformationError(FlowcertError):
    """Coloring transformation preconditions violated."""


class InvalidFiberError(FlowcertError):
    """Multisets handed to a fiber operation do not share one signature."""


class IncompatibilityError(FlowcertError):
    """Endpoints of a path query are not compatible."""
