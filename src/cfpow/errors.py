"""Error types shared across the toolkit.

Every error carries a short machine-readable ``code`` that the CLI maps to
its JSON error output and exit status.
"""


class ToolkitError(Exception):
    """Base class; exit status 3 at the CLI unless a subclass overrides."""

    code = "error"

    def __init__(self, detail: str = ""):
        super().__init__(detail or self.code)
        self.detail = detail or self.code


class InputError(ToolkitError):
    code = "invalid-input"


class CannotFactorError(ToolkitError):
    code = "cannot-factor"


class MixedFieldError(ToolkitError):
    code = "mixed-field"


class NonQuadraticError(ToolkitError):
    code = "nonquadratic"


class PeriodCapError(ToolkitError):
    code = "period-cap"


class PrecisionError(ToolkitError):
    code = "precision-exhausted"


class PWPreconditionError(ToolkitError):
    code = "pw-precondition"


class BudgetExceededError(ToolkitError):
    """Search budget ran out; carries the work finished so far.

    ``partial`` holds the solutions from fully enumerated partitions and
    ``completed`` the N1 values whose partitions ran to the end.
    """

    code = "budget-exceeded"

    def __init__(self, detail: str = "", partial=(), completed=()):
        super().__init__(detail)
        self.partial = tuple(partial)
        self.completed = tuple(completed)


class InapplicableError(ToolkitError):
    """Hypothesis of a bound pipeline not met; exit status 2 at the CLI."""

    code = "inapplicable"
