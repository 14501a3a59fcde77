"""Exception types shared across the library.

Every failure mode that callers are expected to handle gets its own class;
plain ``ValueError`` is reserved for programming mistakes.
"""


class CheegerLabError(Exception):
    """Base class for all library errors."""


class InvalidInputError(CheegerLabError, ValueError):
    """Malformed graph/metric/tree data or an argument outside an op's domain."""


class BudgetExceededError(CheegerLabError):
    """An enumeration would exceed its configured budget.

    Raised before any work is done, except in ``lemma_suite``, whose
    ``lemmas._connected_sets`` counts sets as it yields them and raises at the
    first set past the budget; partial answers are never returned.
    ``option`` names what raises the budget, or is None for a fixed cap.
    """

    def __init__(
        self, required: int, budget: int, what: str = "subsets", option: str | None = "--budget"
    ):
        self.required = required
        self.budget = budget
        if option is None:
            limit, remedy = "the fixed cap", "no option raises it, so shrink the instance"
        else:
            limit, remedy = "the budget", f"raise it with {option} or shrink the instance"
        super().__init__(f"{required} {what} exceed {limit} of {budget}; {remedy}")


class EmptyWindowError(CheegerLabError):
    """No admissible vertex remains after applying the frontier discipline."""


class InvalidSupportError(CheegerLabError):
    """A function's support touches the frontier zone where identities are not ambient-exact."""


class InvalidHorizonError(CheegerLabError):
    """A horizon parameter exceeds what the loaded window can represent."""


class ConstructionError(CheegerLabError):
    """A built object violated one of its structural invariants (carries a witness)."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)
