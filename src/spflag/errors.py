"""Error types shared across the package."""
from __future__ import annotations


class SymbolSyntaxError(ValueError):
    """Raised when a symbol expression or symbol JSON cannot be parsed."""


class ConstraintError(ValueError):
    """Raised when structurally valid input violates a documented constraint."""


class UnsupportedRank(ValueError):
    """Raised when an operation is only defined for certain distribution ranks."""


class NonSkew(ValueError):
    """Raised when a matrix expected to be skew-symmetric is not."""


class DegenerateBranch(ValueError):
    """Raised when a closed-form kernel formula degenerates (all cofactors vanish)."""


class CapReached(RuntimeError):
    """Prolongation hit the degree cap without terminating.

    Carries the partial report so that callers probing for infinite type can
    still inspect the degreewise dimensions computed so far.
    """

    def __init__(self, report):
        super().__init__(f"prolongation still nonzero at degree cap (report: {report})")
        self.report = report


class JacobiViolation(ArithmeticError):
    """Raised when assembled structure constants fail the Jacobi identity."""


class RangeError(ValueError):
    """Raised when a requested minor or prolongation range is empty."""


class NotInAnnihilator(ValueError):
    """Raised when a covector argument is not in the required annihilator."""


class NonRegularPoint(ValueError):
    """Raised when curve data drops rank at the base point."""


class NonSymplecticFlag(ValueError):
    """Raised when extracted flag data cannot come from a symplectic symbol."""
