"""Half-integer lattice coordinates, stored as doubled integers.

Generator sites and cone coordinates live on (1/2)Z.  Storing the doubled
value keeps every comparison and boundary test an exact integer operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import SchemaError

__all__ = ["to_double", "from_double", "double_str"]


def to_double(x) -> int:
    """Convert a half-integer (int, Fraction, float or string) to 2*x.

    Strings accept the forms "2", "-1/2", "3/2".  Floats must be within
    1e-9 of a half-integer.
    """
    if isinstance(x, bool):
        raise SchemaError("boolean is not a lattice coordinate")
    if isinstance(x, int):
        return 2 * x
    if isinstance(x, Fraction):
        d = x * 2
        if d.denominator != 1:
            raise SchemaError(f"{x} is not a half-integer")
        return int(d)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise SchemaError(f"{x} is not a half-integer")
        d = round(2 * x)
        if abs(2 * x - d) > 1e-9:
            raise SchemaError(f"{x} is not a half-integer")
        return d
    if isinstance(x, str):
        try:
            return to_double(Fraction(x.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"cannot parse half-integer {x!r}") from exc
    raise SchemaError(f"cannot interpret {x!r} as a half-integer")


def from_double(d: int) -> Fraction:
    return Fraction(d, 2)


@lru_cache(maxsize=1024)
def double_str(d: int) -> str:
    """Render a doubled coordinate back as "2", "-1/2", "3/2".

    Each value's string is made once and shared, so reports that a caller
    keeps hold their site strings once.
    """
    if d % 2 == 0:
        return str(d // 2)
    return f"{d}/2"
