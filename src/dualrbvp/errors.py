"""Exception hierarchy.

Two broad families matter for the command line front end: ``InputError``
(bad problem data, exit code 3) and ``NumericalError`` (a computation that
started from valid data failed to converge or produced an inconsistent
value, exit code 4).  ``UnsolvableError`` is its own category (exit code 2)
because it is a legitimate mathematical outcome, not a failure.
"""

from __future__ import annotations


class DualRbvpError(Exception):
    """Base class for all package errors."""


class InputError(DualRbvpError):
    """Invalid input: bad file, degenerate geometry, ill-posed data."""


class NumericalError(DualRbvpError):
    """A numerical procedure failed on otherwise admissible input."""


# -- algebra ----------------------------------------------------------------

class NotInvertibleError(InputError):
    """Element has (numerically) vanishing complex part, hence no inverse."""

    def __init__(self, message: str = "element is not invertible", indices=None):
        super().__init__(message)
        self.indices = indices


class ExpOverflowError(NumericalError):
    """exp() result is not representable in double precision."""


class DegenerateBasisError(InputError):
    """Basis pair fails the real-linear independence determinant test."""

    def __init__(self, message: str, det: float):
        super().__init__(message)
        self.det = det


class NotInSubspaceError(InputError):
    """A dual complex value is not consistent with any point of the plane E."""


# -- expressions ------------------------------------------------------------

class ExprError(InputError):
    """Base class for expression parsing/evaluation errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier {name!r} (offset {position})")
        self.name = name
        self.position = position


class UnboundVariableError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"no value bound for variable {name!r}")
        self.name = name


# -- contours ---------------------------------------------------------------

class ContourError(InputError):
    pass


class EmptySpecError(ContourError):
    pass


class SelfIntersectingError(ContourError):
    pass


# -- integration and boundary limits ----------------------------------------

class TooCloseToBoundaryError(NumericalError):
    """Evaluation point is inside the quadrature guard band of the curve."""


class CornerNodeError(NumericalError):
    """Boundary limit requested at a corner node of a polygonal contour."""


# -- index / canonical function ---------------------------------------------

class NotInvertibleOnContourError(InputError):
    """Coefficient is singular at one or more contour nodes."""

    def __init__(self, message: str, indices=None):
        super().__init__(message)
        self.indices = indices


class BranchAmbiguityError(NumericalError):
    """Argument tracking cannot resolve the branch even after refinement."""


class ClosureFailureError(NumericalError):
    """Continuous logarithm does not return to its start after a loop."""

    def __init__(self, message: str, mismatch: float):
        super().__init__(message)
        self.mismatch = mismatch


class OriginNotInteriorError(InputError):
    """Canonical construction needs 0 in the interior domain."""


# -- boundary value problems -------------------------------------------------

class PolynomialDegreeError(InputError):
    """Supplied polynomial has more coefficients than the index allows."""


class UnsolvableError(DualRbvpError):
    """Negative-index problem whose moment conditions fail.

    Carries the full solvability report so callers can still serialize it.
    """

    def __init__(self, report):
        super().__init__("problem is unsolvable: nonzero moment conditions")
        self.report = report


# -- files -------------------------------------------------------------------

class ProblemFormatError(InputError):
    """Problem or result file does not match the expected schema."""
