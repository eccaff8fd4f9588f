"""Exact scalars: polynomials in pi with (Gaussian-)rational coefficients.

Because pi is transcendental, an element a0 + a1*pi + a2*pi^2 + ... of Q[pi]
is zero exactly when every coefficient is zero, so equality is decided
coefficient-wise with no tolerance.  This is what turns the commuting
common-cause equations into exact decisions instead of floating comparisons.

Real and imaginary parts are kept as separate coefficient tuples; most
scalars occurring in practice are real.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ExactnessError, ModeError

__all__ = ["ExactScalar", "parse_exact", "PI", "EXACT_I"]

_ZERO = Fraction(0)


# Coefficient types a scalar refuses: floats and complex numbers are inexact,
# and a bool is a truth value, not a number.
_INEXACT = (float, complex, bool)
# A single number given for a part is its constant coefficient.
_NUMBERS = (int, Fraction, float, complex)


def _trim(coeffs) -> tuple:
    """Coefficients as a tuple of Fractions without trailing zeros.

    The normaliser of :class:`ExactScalar` and :func:`_polydiv`; the helpers
    below take and return tuples already in this form and do not redo it."""
    out = []
    for c in coeffs:
        if isinstance(c, _INEXACT):
            raise ExactnessError(
                f"exact scalars take int or Fraction coefficients, not {type(c).__name__}"
            )
        out.append(Fraction(c))
    return _strip(out)


def _strip(out: list) -> tuple:
    """A fresh list of Fractions as a tuple, without its trailing zeros."""
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return _strip(out)


def _neg(a):
    return tuple(-c for c in a)


def _conv(a, b):
    if not a or not b:
        return ()
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _strip(out)


def _scale(a, f):
    if not f:
        return ()
    return tuple(c * f for c in a)


def _polydiv(num, den):
    """Exact polynomial division num/den in Q[pi]; raises if inexact."""
    if not den:
        raise ZeroDivisionError("division by exact zero")
    if len(den) == 1:
        return _scale(num, Fraction(1) / den[0])
    rem = list(num)
    quot = [_ZERO] * max(len(num) - len(den) + 1, 0)
    lead = den[-1]
    for k in range(len(quot) - 1, -1, -1):
        if len(rem) < len(den) + k:
            continue
        c = rem[len(den) - 1 + k] / lead
        quot[k] = c
        for j, d in enumerate(den):
            rem[j + k] -= c * d
    if any(r != 0 for r in rem):
        raise ExactnessError("quotient does not lie in Q[pi]")
    return _trim(quot)


def _eval(coeffs, x: float) -> float:
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + float(c)
    return out


def _arctan_bounds(x: int, n: int) -> tuple:
    """Rational bounds on arctan(1/x) from n and n + 1 terms of its alternating series."""
    terms = [Fraction((-1) ** j, (2 * j + 1) * x ** (2 * j + 1)) for j in range(n + 1)]
    low = sum(terms[:n], _ZERO)
    return min(low, low + terms[n]), max(low, low + terms[n])


def _pi_bounds(n: int) -> tuple:
    """Rational bounds on pi by Machin's formula 16 arctan(1/5) - 4 arctan(1/239)."""
    a_lo, a_hi = _arctan_bounds(5, n)
    b_lo, b_hi = _arctan_bounds(239, n)
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


_PI_BOUNDS_16 = _pi_bounds(16)


def _sign(coeffs) -> int:
    """The exact sign of sum_k coeffs[k] * pi^k.

    The polynomial is bounded on rational intervals around pi, tightened
    until both bounds share a sign; this ends because pi is transcendental,
    so a nonzero polynomial does not vanish there."""
    n, (lo, hi) = 16, _PI_BOUNDS_16
    while coeffs:
        low = high = _ZERO
        for k, c in enumerate(coeffs):
            ends = (c * lo ** k, c * hi ** k)
            low += min(ends)
            high += max(ends)
        if low > 0:
            return 1
        if high < 0:
            return -1
        n *= 2
        lo, hi = _pi_bounds(n)
    return 0


class ExactScalar:
    """An element of Q(i)[pi], i.e. sum_k (a_k + i*b_k) * pi^k with a_k, b_k rational.

    Instances are immutable.  Arithmetic mixes freely with int and Fraction;
    mixing with floats, or building a scalar from float, complex or bool
    coefficients, raises :class:`~isingccp.errors.ExactnessError` so that
    exact decisions can never silently degrade to floating point.

    Order comparisons apply to real elements only and are exact: a nonzero
    element of Q[pi] has a definite sign, which rational bounds on pi decide.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=(), im=()):
        if isinstance(re, _NUMBERS):
            re = (re,)
        if isinstance(im, _NUMBERS):
            im = (im,)
        object.__setattr__(self, "re", _trim(re))
        object.__setattr__(self, "im", _trim(im))

    @classmethod
    def _of(cls, re: tuple, im: tuple) -> "ExactScalar":
        """A scalar from coefficient tuples that this module's helpers already
        trimmed, without the constructor's check and re-wrap."""
        out = object.__new__(cls)
        object.__setattr__(out, "re", re)
        object.__setattr__(out, "im", im)
        return out

    def __setattr__(self, *a):
        raise AttributeError("ExactScalar is immutable")

    @classmethod
    def pi_power(cls, k: int, coeff=1) -> "ExactScalar":
        return cls((0,) * k + (coeff,))

    @staticmethod
    def _coerce(other):
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return ExactScalar(other)
        if isinstance(other, (float, complex)):
            raise ExactnessError(
                "cannot mix floats with exact scalars; convert with complex(x)"
            )
        return None

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ExactScalar._of(_add(self.re, other.re), _add(self.im, other.im))

    __radd__ = __add__

    def __neg__(self):
        return ExactScalar._of(_neg(self.re), _neg(self.im))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        re = _add(_conv(self.re, other.re), _neg(_conv(self.im, other.im)))
        im = _add(_conv(self.re, other.im), _conv(self.im, other.re))
        return ExactScalar._of(re, im)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by exact zero")
        if not other.im:
            return ExactScalar(_polydiv(self.re, other.re), _polydiv(self.im, other.re))
        # multiply through by the conjugate; the denominator becomes real
        num = self * other.conjugate()
        den = _add(_conv(other.re, other.re), _conv(other.im, other.im))
        return ExactScalar(_polydiv(num.re, den), _polydiv(num.im, den))

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "ExactScalar":
        return ExactScalar._of(self.re, _neg(self.im))

    # -- predicates and conversions ----------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @property
    def is_rational(self) -> bool:
        return not self.im and len(self.re) <= 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ExactnessError(f"{self} is not rational")
        return self.re[0] if self.re else _ZERO

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a rational value hashes like its Fraction, as __eq__ demands
        if not self.im and len(self.re) <= 1:
            return hash(self.re[0] if self.re else 0)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(_eval(self.re, math.pi), _eval(self.im, math.pi))

    def __float__(self):
        if self.im:
            raise ExactnessError(f"{self} has an imaginary part")
        return _eval(self.re, math.pi)

    def _compare(self, other) -> int:
        """The exact sign of self - other."""
        other = self._coerce(other)
        if other is None or self.im or other.im:
            raise ExactnessError("ordering is defined for real exact scalars only")
        return _sign(_add(self.re, _neg(other.re)))

    def __lt__(self, other):
        return self._compare(other) < 0

    def __le__(self, other):
        return self._compare(other) <= 0

    def __gt__(self, other):
        return self._compare(other) > 0

    def __ge__(self, other):
        return self._compare(other) >= 0

    # -- formatting ----------------------------------------------------------

    @staticmethod
    def _fmt_real(coeffs) -> str:
        if not coeffs:
            return "0"
        parts = []
        for k, c in enumerate(coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            power = "pi" if k == 1 else f"pi^{k}"
            if c == 1:
                term = power
            elif c == -1:
                term = f"-{power}"
            else:
                term = f"{c}*{power}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    def __str__(self):
        if not self.im:
            return self._fmt_real(self.re)
        imtok = self._fmt_real(self.im)
        if not self.re:
            return f"({imtok})*i"
        return f"({self._fmt_real(self.re)})+({imtok})*i"

    def __repr__(self):
        return f"ExactScalar({self})"


PI = ExactScalar.pi_power(1)
EXACT_I = ExactScalar(0, 1)


def zero(exact: bool):
    """The zero of a scalar mode: ExactScalar() exactly, 0j in float mode."""
    return ExactScalar() if exact else 0j


def is_zero(c) -> bool:
    """Whether a scalar of either mode is zero; an ExactScalar decides it
    coefficient-wise, any other number compares with 0."""
    return c.is_zero if isinstance(c, ExactScalar) else c == 0


def coerce(c, exact: bool):
    """``c`` as an ExactScalar (exact mode) or complex (float mode) coefficient."""
    if exact:
        if isinstance(c, ExactScalar):
            return c
        if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
            return ExactScalar(c)
        raise ModeError(
            f"exact operators need ExactScalar or rational coefficients, got {type(c).__name__}"
        )
    if isinstance(c, ExactScalar):
        raise ModeError("float operators cannot take ExactScalar coefficients; use complex(c)")
    if isinstance(c, (int, float, complex, Fraction)) and not isinstance(c, bool):
        return complex(c)
    raise ModeError(f"cannot use {type(c).__name__} as a float coefficient")


_TERM_RE = re.compile(
    r"^(?:(?P<coef>-?\d+(?:/\d+)?)\*)?"
    r"pi(?:\^(?P<pow>\d+))?"
    r"(?:/(?P<div>\d+))?$"
)


def parse_exact(text: str) -> ExactScalar:
    """Parse an exact real token such as "1/4", "1/4+pi/20" or "1/16-1/400*pi^2".

    Each term is either a rational "p/q" or a pi term with an optional
    rational prefactor ("1/400*pi^2"), power ("pi^2") and divisor ("pi/20").
    Decimal literals are rejected: they belong to float mode.
    """
    s = text.replace(" ", "")
    if not s:
        raise ExactnessError("empty exact token")
    if "." in s or "e" in s.replace("pi", "") or "E" in s:
        raise ExactnessError(f"{text!r} looks like a float; exact tokens are rational")
    total = ExactScalar()
    for chunk in re.findall(r"[+-]?[^+-]+", s):
        sign = -1 if chunk.startswith("-") else 1
        body = chunk.lstrip("+-")
        if not body:
            raise ExactnessError(f"malformed exact token {text!r}")
        if "pi" not in body:
            try:
                total = total + sign * Fraction(body)
            except (ValueError, ZeroDivisionError) as exc:
                raise ExactnessError(f"malformed exact term {chunk!r}") from exc
            continue
        m = _TERM_RE.match(body)
        if m is None:
            raise ExactnessError(f"malformed exact term {chunk!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("div"):
            coef /= int(m.group("div"))
        power = int(m.group("pow") or 1)
        total = total + ExactScalar.pi_power(power, sign * coef)
    return total
