"""Exception taxonomy.

Three families matter to callers: validation failures (bad mathematical
input), budget failures (a numerical target cannot be met within the
configured limits), and parse failures (malformed problem files).  The CLI
maps them to distinct exit codes.
"""


class ThetaFockError(Exception):
    """Base class for all library errors."""


class ValidationError(ThetaFockError):
    """Input violates a mathematical invariant."""


class NotHermitian(ValidationError):
    pass


class NotPositiveDefinite(ValidationError):
    pass


class NotSymmetric(ValidationError):
    pass


class ImaginaryPartNotPositiveDefinite(ValidationError):
    pass


class RealPartNotPositiveDefinite(ValidationError):
    pass


class NotIndependent(ValidationError):
    pass


class NotIsotropic(ValidationError):
    """Some generator pair has a nonzero symplectic pairing.

    Attributes ``pair`` (j, k) and ``value`` carry the offending entry.
    """

    def __init__(self, pair, value, message=None):
        self.pair = pair
        self.value = value
        super().__init__(
            message
            or f"generators {pair} are not isotropic: E(w{pair[0]}, w{pair[1]}) = {value:.3e}"
        )


class RankExceedsG(ValidationError):
    pass


class NonUnitModulus(ValidationError):
    pass


class SingularBasis(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class BudgetError(ThetaFockError):
    """A numerical accuracy or size budget was exceeded."""


class TailBoundUnreachable(BudgetError):
    pass


class GridTooCoarse(BudgetError):
    pass


class NodeBudgetExceeded(BudgetError):
    """A quadrature grid, reduction or norms battery would ask for more values than its budget."""


class ValueOutOfRange(BudgetError, OverflowError):
    """A result lies outside the double range and would be inf or NaN."""


class ParseError(ThetaFockError):
    """Problem file could not be parsed; ``field`` names the bad entry."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")
