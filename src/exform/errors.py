"""Exception types shared across the package."""


class ExformError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ExformError):
    """Malformed input data: unknown labels, broken relations, bad syntax."""


class StructureError(ExformError):
    """A structural precondition (rooted forest, valid SDF, ...) fails."""


class BudgetExceeded(ExformError):
    """An exhaustive enumeration would exceed the configured budget."""


class EnumerationBudgetExceeded(BudgetExceeded):
    """An exhaustive (profile, history) sweep would be too large."""


class ChoiceError(ExformError):
    """A candidate choice is not a nonempty union of nodes."""


class NotAHistory(ExformError):
    pass


class NotOrderConsistent(StructureError):
    pass


class NotClosed(ExformError):
    """The given history has no minimum among its members."""


class WNotInHistoryCore(ExformError):
    """The candidate outcome does not lie in the intersection of the history."""


class NoOutcome(ExformError):
    pass


class MultipleOutcomes(ExformError):
    pass


class ZeroProbabilityBlockRequested(ExformError):
    pass


class UnknownExample(InputError):
    pass


class APAxiomViolation(StructureError):
    """Action-path forest data violates one of its axioms."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"action-path axiom {axiom} violated: {witness!r}")


class APSEFAxiomViolation(StructureError):
    """Action-path extensive-form data violates one of its axioms."""

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"action-path form axiom {axiom} violated: {witness!r}")


class NotLimit(ExformError):
    """The ordinal is zero or a successor, not a limit."""


class ANotLeqB(ExformError):
    """Left subtraction requires the first argument to be <= the second."""


class GridAxiomViolation(StructureError):
    pass


class TargetOutOfRange(InputError):
    pass


class InconsistentOutcome(InputError):
    pass
