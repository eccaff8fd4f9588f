"""Error types shared across the package.

The CLI maps these onto distinct exit codes, so analysis code should raise
the most specific class that applies.
"""

__all__ = [
    "SchemaError",
    "BudgetError",
    "PreconditionError",
    "ModeError",
    "ExactnessError",
    "DEFAULT_BUDGET",
]

# the work an enumeration (rank profiles), a search (objective evaluations and basis
# matrix entries), an evolution or a state (monomial pairs) may do before it gives up
DEFAULT_BUDGET = 5_000_000


class SchemaError(ValueError):
    """A scenario file or operator/region literal does not match the schema."""


class BudgetError(RuntimeError):
    """An enumeration or search would exceed its configured budget."""


class PreconditionError(ValueError):
    """An operation was called on inputs violating its stated preconditions."""


class ModeError(TypeError):
    """Exact and floating operands were mixed without explicit coercion."""


class ExactnessError(ModeError):
    """A value required in exact mode is not representable in Q[pi]."""
