"""Operator algebra generated by the chain of self-adjoint unitaries U_i.

One generator sits at every half-integer site.  Generators at half-integer
distance anticommute, all other pairs commute, and every generator squares
to the identity:

    U_i U_j = -U_j U_i   if |i - j| = 1/2,
    U_i U_j =  U_j U_i   otherwise,
    U_i^2   = 1.

Words in the generators therefore reduce to monomials indexed by a finite,
strictly ascending set of sites together with a sign, and general operators
are finite linear combinations of such monomials.  Coefficients are either
complex floats or :class:`~isingccp.exact.ExactScalar` values; the two modes
never mix implicitly.

A dense matrix oracle maps a window of the chain onto qubits via

    U_k     -> Z_k                  (integer site k)
    U_{k+1/2} -> X_k X_{k+1}

which realises the generator relations exactly; the representation is
checked against them once, on first use.

Internally a monomial is an ``int`` bitmask with bit ``d + 64`` set for each
doubled site ``d`` present, the symplectic Pauli-frame encoding of Aaronson
and Gottesman (quant-ph/0406196) applied to this chain.  One rule then
serves the products, the adjoints and traces, and the qubit oracle.  Sites
must lie at or above -32 (doubled -64); lower sites raise
:class:`~isingccp.errors.PreconditionError`.  There is no upper limit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import ModeError, PreconditionError
from .exact import ExactScalar
from .geometry import DoubleCone
from .halfint import double_str, from_double, to_double

__all__ = [
    "Operator",
    "product_trace",
    "commutes",
    "is_projection",
    "support_interval",
    "localization",
    "to_matrix",
    "window_monomials",
    "DEFAULT_TOL",
]

DEFAULT_TOL = 1e-10

_PHASE_TOKENS = {"+1": 0, "1": 0, "+i": 1, "i": 1, "-1": 2, "-i": 3}
_PHASE_VALUES = {0: 1, 1: 1j, 2: -1, 3: -1j}


# Bit of doubled site 0.  Even, so a bit's parity is its site's parity.
_ORIGIN = 64


def _bit(d: int) -> int:
    """Key of the generator at doubled site d."""
    if d < -_ORIGIN:
        raise PreconditionError(
            f"site {double_str(d)} lies below the lowest encodable site {double_str(-_ORIGIN)}"
        )
    return 1 << (d + _ORIGIN)


def _sites(key: int) -> tuple:
    """The ascending doubled sites of a monomial key."""
    out = []
    while key:
        low = key & -key
        out.append(low.bit_length() - 1 - _ORIGIN)
        key ^= low
    return tuple(out)


def _span(key: int) -> tuple[int, int]:
    """The lowest and highest doubled site of a nonzero key."""
    return (key & -key).bit_length() - 1 - _ORIGIN, key.bit_length() - 1 - _ORIGIN


def _odd(s: int, t: int) -> int:
    """1 if U_S U_T = -U_{S ^ T}, else 0.

    Sorting the word U_S U_T moves each generator of T left past the larger
    sites of S; only a neighbour at doubled distance 1 anticommutes, so the
    sign counts the sites of T whose right neighbour lies in S.  With T = S
    this is the sign of U_S U_S, which is also the sign of reversing U_S.
    """
    return (s & (t << 1)).bit_count() & 1


def _reduce_word(word) -> tuple[int, int]:
    """Key and sign parity of an ordered word of doubled sites."""
    key = odd = 0
    for d in word:
        b = _bit(d)
        odd ^= _odd(key, b)
        key ^= b
    return key, odd


def _phase_index(phase) -> int:
    if isinstance(phase, str):
        if phase not in _PHASE_TOKENS:
            raise PreconditionError(f"unknown phase token {phase!r}")
        return _PHASE_TOKENS[phase]
    p = {1: 0, 1j: 1, -1: 2, -1j: 3}.get(phase)
    if p is None:
        raise PreconditionError(f"phase must be a fourth root of unity, got {phase!r}")
    return p


# -- coefficients ------------------------------------------------------------


def _zero(exact: bool):
    return ExactScalar() if exact else 0j


def _coerce_coeff(c, exact: bool):
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


def _is_zero_coeff(c, tol: float = 0.0) -> bool:
    if isinstance(c, ExactScalar):
        return c.is_zero
    return abs(c) <= tol


def _phase_times(c, phase: int, exact: bool):
    if phase == 0:
        return c
    if exact:
        return c * _EXACT_PHASES[phase]
    # adding 0j turns the negative zeros a complex product can leave
    # (-0.5 * -1 == 0.5-0j) into positive ones
    return c * _PHASE_VALUES[phase] + 0j


_EXACT_PHASES = {1: ExactScalar(0, 1), 2: ExactScalar(-1), 3: ExactScalar(0, -1)}


def _hull(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (min(a[0], b[0]), max(a[1], b[1]))


class Operator:
    """A finite combination of canonical monomials with mode-tagged scalars.

    Operators are immutable values.  ``time`` is an optional localization
    label: 0 marks a Cauchy-surface operator, a positive integer marks the
    image of a surface operator under that many causal time steps (``base``
    then records the doubled site interval of the surface preimage), and
    None means no localization claim is carried.  Terms are keyed by the
    private monomial bitmask; build operators with the constructors below.
    """

    __slots__ = ("_terms", "exact", "time", "base")

    def __init__(self, terms: dict, exact: bool, time=0, base=None):
        self._terms = {s: c for s, c in terms.items() if not _is_zero_coeff(c)}
        self.exact = exact
        self.time = time
        self.base = base

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, exact=False) -> "Operator":
        return cls({}, exact)

    @classmethod
    def identity(cls, exact=False) -> "Operator":
        return cls({0: _coerce_coeff(1, exact)}, exact)

    @classmethod
    def generator(cls, site, exact=False) -> "Operator":
        """The generator U at a half-integer site."""
        return cls({_bit(to_double(site)): _coerce_coeff(1, exact)}, exact)

    @classmethod
    def from_terms(cls, terms, exact=False) -> "Operator":
        """Build from an iterable of (coefficient, sites, phase) triples.

        The phase defaults to "+1".  Terms on the same monomial are summed;
        a monomial's first coefficient is kept exactly as given.
        """
        acc: dict = {}
        for coeff, sites, *rest in terms:
            phase = _phase_index(rest[0]) if rest else 0
            key, odd = _reduce_word(to_double(s) for s in sites)
            c = _phase_times(_coerce_coeff(coeff, exact), (phase + 2 * odd) % 4, exact)
            acc[key] = acc[key] + c if key in acc else c
        return cls(acc, exact)

    # -- structure ----------------------------------------------------------

    def terms(self):
        """Iterator over (sites, coefficient) pairs, ordered by the ascending
        tuples of doubled sites."""
        return iter(sorted((_sites(key), c) for key, c in self._terms.items()))

    def coefficient(self, sites):
        key, _ = _reduce_word(sorted(to_double(s) for s in sites))
        return self._terms.get(key, _zero(self.exact))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def _check_mode(self, other: "Operator"):
        if self.exact != other.exact:
            raise ModeError(
                "cannot combine exact and float operators; coerce with to_float()"
            )

    def _labels_with(self, other: "Operator"):
        if self.is_zero:
            return other.time, other.base
        if other.is_zero:
            return self.time, self.base
        if self.time == other.time:
            if self.time in (0, None):
                return self.time, None
            return self.time, _hull(self.base, other.base)
        return None, None

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_mode(other)
        acc = dict(self._terms)
        for s, c in other._terms.items():
            acc[s] = acc.get(s, _zero(self.exact)) + c
        time, base = self._labels_with(other)
        return Operator(acc, self.exact, time, base)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Operator({s: -c for s, c in self._terms.items()}, self.exact, self.time, self.base)

    def scaled(self, scalar) -> "Operator":
        c = _coerce_coeff(scalar, self.exact)
        return Operator({s: v * c for s, v in self._terms.items()}, self.exact, self.time, self.base)

    def __rmul__(self, scalar):
        if isinstance(scalar, Operator):
            return NotImplemented
        return self.scaled(scalar)

    def __truediv__(self, scalar):
        if self.exact:
            coerced = ExactScalar._coerce(scalar)
            if coerced is None:
                raise ModeError(f"cannot divide an exact operator by {type(scalar).__name__}")
            return self.scaled(ExactScalar(1) / coerced)
        return self.scaled(1.0 / scalar)

    # -- multiplicative structure --------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Operator):
            return self.scaled(other)
        self._check_mode(other)
        acc: dict = {}
        zero = _zero(self.exact)
        for s1, c1 in self._terms.items():
            for s2, c2 in other._terms.items():
                c = c1 * c2
                if _odd(s1, s2):
                    c = -c
                key = s1 ^ s2
                acc[key] = acc.get(key, zero) + c
        time, base = self._labels_with(other)
        return Operator(acc, self.exact, time, base)

    def adjoint(self) -> "Operator":
        acc = {}
        for s, c in self._terms.items():
            cc = c.conjugate()
            if _odd(s, s):
                cc = -cc
            acc[s] = cc
        return Operator(acc, self.exact, self.time, self.base)

    # -- functionals -----------------------------------------------------------

    def trace(self):
        """The normalized trace: the coefficient of the identity monomial."""
        return self._terms.get(0, _zero(self.exact))

    def sup_coefficient(self) -> float:
        """Largest coefficient magnitude (numeric, both modes)."""
        if not self._terms:
            return 0.0
        return max(abs(complex(c)) for c in self._terms.values())

    def is_close_to_zero(self, tol: float = DEFAULT_TOL) -> bool:
        if self.exact:
            return self.is_zero
        return self.sup_coefficient() <= tol

    def isclose(self, other: "Operator", tol: float = DEFAULT_TOL) -> bool:
        return (self - other).is_close_to_zero(tol)

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.exact == other.exact and self._terms == other._terms

    def __hash__(self):
        return hash((self.exact, frozenset(self._terms.items())))

    # -- conversions ------------------------------------------------------------

    def to_float(self) -> "Operator":
        """Explicit coercion from exact to float mode."""
        if not self.exact:
            return self
        return Operator(
            {s: complex(c) for s, c in self._terms.items()}, False, self.time, self.base
        )

    def with_labels(self, time, base=None) -> "Operator":
        return Operator(self._terms, self.exact, time, base)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for s, c in self.terms():
            cs = str(c) if self.exact else format(complex(c), "g")
            word = " ".join(f"U({double_str(k)})" for k in s) if s else "1"
            parts.append(f"({cs})·{word}")
        return " + ".join(parts)

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"<Operator {mode}, {len(self._terms)} terms>"


# -- module-level operations ---------------------------------------------------


def product_trace(x: Operator, y: Operator):
    """Normalized trace of x*y without forming the product.

    Monomials are trace-orthogonal: tr(U_S U_T) vanishes unless S = T, and
    U_S U_S is the identity times a sign.
    """
    x._check_mode(y)
    total = _zero(x.exact)
    terms = y._terms
    for s, cx in x._terms.items():
        cy = terms.get(s)
        if cy is not None:
            prod = cx * cy
            total = total + (-prod if _odd(s, s) else prod)
    return total


def commutes(x: Operator, y: Operator, tol: float = DEFAULT_TOL) -> bool:
    """True iff xy - yx vanishes (exactly, or below tol in float mode)."""
    return (x * y - y * x).is_close_to_zero(tol)


def is_projection(x: Operator, tol: float = DEFAULT_TOL) -> bool:
    """True iff x is self-adjoint and idempotent within the mode tolerance."""
    return (x - x.adjoint()).is_close_to_zero(tol) and (x * x - x).is_close_to_zero(tol)


def support_interval(x: Operator):
    """Smallest half-integer interval carrying every monomial of x.

    Returns (i, j) as Fractions, or None for multiples of the identity.
    Raises on the zero operator, whose support is undefined.
    """
    if x.is_zero:
        raise PreconditionError("the zero operator has no support")
    mask = 0
    for key in x._terms:
        mask |= key
    if not mask:
        return None
    lo, hi = _span(mask)
    return (from_double(lo), from_double(hi))


def localization(x: Operator) -> DoubleCone:
    """The double cone in which x is localized.

    Surface operators (time label 0) live over their site hull at translate
    0.  Evolved operators carry the surface interval of their preimage and
    live over it at their time label.  Operators without a label fall back
    to the site hull of their expansion, which is always a valid (if not
    tight) localization at translate 0.
    """
    if x.time not in (0, None) and x.base is not None:
        return DoubleCone(x.time, x.base[0], x.base[1])
    span = support_interval(x)
    if span is None:
        raise PreconditionError("multiples of the identity are localized everywhere")
    return DoubleCone(0, to_double(span[0]), to_double(span[1]))


def window_monomials(sites):
    """Yield (word, sign) for each nonempty subset of the doubled ``sites``,
    in :func:`itertools.combinations` order by size.  ``word`` holds the
    half-integer sites, as :meth:`Operator.from_terms` takes them; the
    monomial's adjoint is ``sign`` times the monomial."""
    for size in range(1, len(sites) + 1):
        for subset in combinations(sites, size):
            key, _ = _reduce_word(subset)
            yield [from_double(d) for d in subset], -1 if _odd(key, key) else 1


# -- dense matrix oracle ---------------------------------------------------------

_relations_checked = False


def _window_qubits(window) -> tuple[int, int]:
    i2, j2 = (to_double(window[0]), to_double(window[1]))
    if i2 > j2:
        raise PreconditionError("window needs i <= j")
    return i2 // 2, (j2 + 1) // 2


def _add_monomial(out: np.ndarray, key: int, coeff: complex, q1: int) -> None:
    """Add coeff times the matrix of one monomial into ``out``, in O(dim).

    Qubit q is bit q1 - q of a basis index.  The monomial is sign * X^xmask
    Z^zmask, so column c goes to row c ^ xmask with sign
    (-1)^popcount(c & zmask).  On qubit k the ascending word reads X Z X
    (from sites k - 1/2, k, k + 1/2); moving the right X past the Z costs
    one sign per pair (k, k + 1/2) present.
    """
    xmask = zmask = 0
    sign = 1.0
    for d in _sites(key):
        bit = 1 << (q1 - d // 2)
        if d % 2:
            xmask ^= bit | (bit >> 1)
            if key >> (d - 1 + _ORIGIN) & 1:
                sign = -sign
        else:
            zmask |= bit
    cols = np.arange(out.shape[0])
    signs = np.where(np.bitwise_count(cols & zmask) % 2, -sign, sign)
    out[cols ^ xmask, cols] += coeff * signs


def _check_relations():
    """Verify the qubit images satisfy the generator relations once."""
    global _relations_checked
    if _relations_checked:
        return
    sites = [0, 1, 2, 3, 4]  # doubled: 0, 1/2, 1, 3/2, 2 on qubits 0..2
    mats = {}
    for s in sites:
        mats[s] = np.zeros((8, 8), dtype=complex)
        _add_monomial(mats[s], _bit(s), 1.0, 2)
    for a in sites:
        for b in sites:
            sign = -1 if abs(a - b) == 1 else 1
            if not np.array_equal(mats[a] @ mats[b], sign * (mats[b] @ mats[a])):
                raise AssertionError("qubit representation violates the generator relations")
        if not np.array_equal(mats[a] @ mats[a], np.eye(8, dtype=complex)):
            raise AssertionError("qubit representation violates U^2 = 1")
    _relations_checked = True


def to_matrix(x: Operator, window) -> np.ndarray:
    """Dense matrix of x on a window (i, j) of half-integer sites.

    The window is mapped to qubits floor(i)..ceil(j); the support of x must
    fit inside the window.
    """
    _check_relations()
    w_i2, w_j2 = to_double(window[0]), to_double(window[1])
    q0, q1 = _window_qubits(window)
    dim = 2 ** (q1 - q0 + 1)
    out = np.zeros((dim, dim), dtype=complex)
    for key, coeff in x._terms.items():
        if key:
            lo, hi = _span(key)
            if lo < w_i2 or hi > w_j2:
                raise PreconditionError(
                    f"support {double_str(lo)}..{double_str(hi)} "
                    f"exceeds window {double_str(w_i2)}..{double_str(w_j2)}"
                )
        _add_monomial(out, key, complex(coeff), q1)
    return out
