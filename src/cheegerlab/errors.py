"""Exception types shared across the library, and the default budgets they
enforce.

Every failure mode that callers are expected to handle gets its own class;
plain ``ValueError`` is reserved for programming mistakes.  The budgets live
here, beside the error that refuses past them, so that option builders and
modules that never build a graph read them without loading
``cheegerlab.graphs``.
"""


class CheegerLabError(Exception):
    """Base class for all library errors."""


class InvalidInputError(CheegerLabError, ValueError):
    """Malformed graph/metric/tree data or an argument outside an op's domain."""


#: Hard cap on how many subsets a brute-force scan may enumerate.
DEFAULT_SUBSET_BUDGET = 2**22

#: Exhaustive four-point scans refuse above this many ordered quadruples: b^4
#: for the largest biconnected block of a graph, n^4 for a metric space.
DEFAULT_DELTA_BUDGET = 2**31

#: Counts from here up are not printed in full (they may run past Python's
#: int-to-str limit); a refusal says "more than <budget>" instead.
LONG_COUNT = 10**40


class BudgetExceededError(CheegerLabError):
    """An enumeration would exceed its configured budget.

    Raised before any work is done, except in ``lemma_suite``, whose
    ``lemmas._connected_sets`` counts sets as it yields them and raises at the
    first set past the budget; partial answers are never returned.
    ``required`` is None when the count is only known to pass the budget.
    ``option`` names what raises the budget, or is None for a fixed cap;
    ``remedy`` says how to shrink the instance.
    """

    def __init__(
        self, required: int | None, budget: int, what: str = "subsets",
        option: str | None = "--budget", remedy: str = "shrink the instance",
    ):
        self.required = required
        self.budget = budget
        if option is None:
            limit, remedy = "the fixed cap", f"no option raises it, so {remedy}"
        else:
            limit, remedy = "the budget", f"raise it with {option} or {remedy}"
        short = required is not None and required < LONG_COUNT
        count = required if short else f"more than {budget}"
        super().__init__(f"{count} {what} exceed {limit} of {budget}; {remedy}")


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
