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
    "check_budget",
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


def check_budget(work: int, what: str, limit: int = DEFAULT_BUDGET) -> None:
    """Raise :class:`BudgetError` if ``work`` units of ``what`` exceed ``limit``.

    Every gate calls this before the work it bounds.  The message is formatted
    only when it raises, so a gate may call it once per product, and a count
    past 2**64 shows as a power of two: its digits could pass what ``str`` converts.
    """
    if work > limit:
        work, limit = (str(n) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}"
                       for n in (work, limit))
        raise BudgetError(f"{work} {what}, over the budget of {limit}")
