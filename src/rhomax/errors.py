"""Exception types shared across the package."""


class RhomaxError(Exception):
    """Base class for all package-specific errors."""


class OrderTooSmall(RhomaxError):
    """Requested graph order is below the minimum for the given surplus."""


class Degenerate(RhomaxError):
    """Operation undefined for this input (e.g. T-subgraph of a tree)."""


class InvalidRegime(RhomaxError):
    """Operation only applies in the t >= 1 (or t = 0) regime."""


class ZeroPolynomial(RhomaxError):
    pass


class PoleAtPoint(RhomaxError):
    """Rational function evaluated at a root of its denominator."""


class PoleAt3(RhomaxError):
    """The closed-form crossover function has a pole at 3."""


class RefinementBudgetExceeded(RhomaxError):
    """Interval refinement hit its bisection budget without deciding."""


class VerificationFailed(RhomaxError):
    """A step of the elimination algorithm did not verify.

    This is a mathematical event (the candidate could not be eliminated),
    not an operational error.
    """

    def __init__(self, step: int, detail: str):
        self.step = step
        self.detail = detail
        super().__init__(f"verification failed at step ({step}): {detail}")


class StructureViolation(RhomaxError):
    """A certified structural claim about a polynomial failed."""


class OutOfProvenRange(RhomaxError):
    """Classification requested beyond the certified surplus range."""


class NotConnected(RhomaxError):
    pass


class BudgetExceeded(RhomaxError):
    """Brute-force search space larger than oracle.BUDGET."""
