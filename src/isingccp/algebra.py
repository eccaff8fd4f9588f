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
complex floats or :class:`~isingccp.exact.ExactScalar` Gaussian rationals; the
two modes never mix implicitly.  An exact coefficient carrying pi is refused:
pi enters only through state weights.

A dense matrix oracle maps a window of the chain onto qubits via

    U_k     -> Z_k                  (integer site k)
    U_{k+1/2} -> X_k X_{k+1}

which realises the generator relations exactly; the tests check the
images against them.

Internally a monomial is an ``int`` bitmask with bit ``d + 64`` set for each
doubled site ``d`` present, the symplectic Pauli-frame encoding of Aaronson
and Gottesman (quant-ph/0406196) applied to this chain.  One rule then
serves the products, the adjoints and traces, and the qubit oracle.  Sites
must lie between -32 and 12000 (doubled -64 and 24000), so a key holds at
most 24,065 bits; other sites raise :class:`~isingccp.errors.PreconditionError`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import ExactnessError, ModeError, PreconditionError
from .exact import ExactScalar, coerce, is_zero, zero
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
# The highest doubled site.  It leaves site 10000 room for its images under
# evolution, and a window up to it has sector sizes below 2**12033, short
# enough for ``str`` (4,300 digits).
_TOP = 24_000


def _bit(d: int) -> int:
    """Key of the generator at doubled site d."""
    if not -_ORIGIN <= d <= _TOP:
        # no echo of d: a far-out site has more digits than ``str`` converts
        raise PreconditionError(
            f"sites must lie between {double_str(-_ORIGIN)} and {double_str(_TOP)}"
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


def _coefficient(c, exact: bool):
    """``c`` as a coefficient of the mode; an exact one must be a Gaussian rational."""
    c = coerce(c, exact)
    if exact and (len(c.re) > 1 or len(c.im) > 1):
        raise ExactnessError(f"exact operator coefficients are Gaussian rationals, not {c}")
    return c


def _phase_times(c, phase: int, exact: bool):
    if phase == 0:
        return c
    if exact:
        return c * _EXACT_PHASES[phase]
    # adding 0j turns the negative zeros a complex product can leave
    # (-0.5 * -1 == 0.5-0j) into positive ones
    return c * _PHASE_VALUES[phase] + 0j


_EXACT_PHASES = {1: ExactScalar(0, 1), 2: ExactScalar(-1), 3: ExactScalar(0, -1)}


# -- float terms as arrays ----------------------------------------------------------

# Monomial pairs per block of the product kernel, which bounds its temporary arrays.
_BLOCK_PAIRS = 1 << 14
# Keys at most this many bits wide are grouped through a direct-address table.
_TABLE_BITS = 16
# Products of fewer monomial pairs, and sums and product traces of fewer terms,
# run faster on the dicts than numpy's fixed cost per call allows (at least 1).
_ARRAY_WORK = 64


class _Arrays(NamedTuple):
    """A float operator's terms in dict order: key ``keys[n] << low`` has
    coefficient ``complex(re[n], im[n])``.  Every key is below ``1 << width``
    and ``width`` is at most 62, so ``keys << 1`` stays below the sign bit."""

    keys: np.ndarray
    re: np.ndarray
    im: np.ndarray
    low: int
    width: int


def _odd_arrays(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """:func:`_odd` elementwise on int64 keys below ``1 << 62``."""
    return (np.bitwise_count(s & (t << 1)) & 1).view(bool)


def _aligned(x: "Operator", y: "Operator"):
    """The arrays of two float operators over one bit offset, or None when
    either is exact or their keys together span more than 62 bits."""
    a = x._arrays()
    b = y._arrays() if a is not None else None
    if b is None:
        return None
    # an operator whose keys are all 0 fits any offset
    la = a.low if a.width else b.low
    lb = b.low if b.width else la
    low = min(la, lb)
    width = max(la + a.width, lb + b.width) - low
    if width > 62:
        return None
    return (_Arrays(a.keys << (la - low) if la > low else a.keys, a.re, a.im, low, width),
            _Arrays(b.keys << (lb - low) if lb > low else b.keys, b.re, b.im, low, width))


def _group(keys: np.ndarray, width: int):
    """The distinct keys in order of first occurrence, and for each key the
    index of its own among them.  Keys must be below ``1 << width``."""
    n = len(keys)
    positions = np.arange(n)
    if width <= _TABLE_BITS:
        table = np.full(1 << width, n)
        np.minimum.at(table, keys, positions)
        uniq = keys[table[keys] == positions]
        table[uniq] = positions[:len(uniq)]
        return uniq, table[keys]
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = np.minimum.reduceat(order, np.flatnonzero(new))
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    slot = np.empty(n, dtype=np.intp)
    slot[order] = rank[np.cumsum(new) - 1]
    return keys[np.sort(first)], slot


def _nonzero(keys, re, im, low, width) -> _Arrays:
    """The terms whose coefficient is not zero, as ``Operator`` keeps them."""
    kept = (re != 0) | (im != 0)
    if kept.all():
        return _Arrays(keys, re, im, low, width)
    return _Arrays(keys[kept], re[kept], im[kept], low, width)


def _float_product(a: _Arrays, b: _Arrays) -> _Arrays:
    """Terms of the product of two aligned float operators.

    The result equals the pair loop of ``Operator.__mul__`` bit for bit: the same
    keys in the same order and the same coefficient bits.  Each coefficient
    product is formed from separately rounded real products, as CPython's
    complex multiply forms it (numpy's complex multiply can differ in the last
    bit), and each key sums its products in row-major pair order from 0.0 with
    ``np.bincount``, as ``acc.get(key, 0j) + c`` does.  Keys come out in order of
    first occurrence.  Rows go in blocks of about ``_BLOCK_PAIRS`` pairs; the keys
    seen so far and their running sums lead the next block, so each sum goes on
    in the same order.  A running sum that starts at 0.0 is never -0.0, so
    carrying it loses no bit.

    When the product spans several blocks and no bit is set in keys of both
    factors, every pair makes its own key, so the keys come in row-major order
    and each sum is the single ``0.0 + x``; the blocks are then only gathered.
    """
    keys = None
    rows = max(1, _BLOCK_PAIRS // len(b.keys))
    disjoint = rows < len(a.keys) and not (
        np.bitwise_or.reduce(a.keys) & np.bitwise_or.reduce(b.keys))
    blocks = []
    for r in range(0, len(a.keys), rows):
        xk, xr, xi = a.keys[r:r + rows], a.re[r:r + rows], a.im[r:r + rows]
        # numpy loops fastest along the last axis, so the longer side of the
        # block goes there; ravel() then copies the pairs into row-major order
        flip = len(xk) > len(b.keys)
        if flip:
            xk, xr, xi = xk[None, :], xr[None, :], xi[None, :]
            yk, yr, yi = b.keys[:, None], b.re[:, None], b.im[:, None]
        else:
            xk, xr, xi = xk[:, None], xr[:, None], xi[:, None]
            yk, yr, yi = b.keys, b.re, b.im
        odd = _odd_arrays(xk, yk)
        pr = xr * yr
        pr -= xi * yi
        pi = xr * yi
        pi += xi * yr
        np.negative(pr, out=pr, where=odd)
        np.negative(pi, out=pi, where=odd)
        pairs = xk ^ yk
        if flip:
            pairs, pr, pi = pairs.T, pr.T, pi.T
        pairs, pr, pi = pairs.ravel(), pr.ravel(), pi.ravel()
        if disjoint:  # adding to 0.0 turns -0.0 into 0.0, as bincount does
            blocks.append((pairs, pr + 0.0, pi + 0.0))
            continue
        if keys is not None:
            pairs = np.concatenate((keys, pairs))
            pr, pi = np.concatenate((re, pr)), np.concatenate((im, pi))
        keys, slot = _group(pairs, a.width)
        re = np.bincount(slot, pr, len(keys))
        im = np.bincount(slot, pi, len(keys))
    if disjoint:
        keys, re, im = (np.concatenate(part) for part in zip(*blocks))
    return _nonzero(keys, re, im, a.low, a.width)


def _float_sum(a: _Arrays, b: _Arrays) -> _Arrays:
    """Terms of the sum of two aligned float operators, as the dict loop of
    ``Operator.__add__`` makes them: a's keys in a's order, then b's new keys
    in b's order; ``x + y`` on shared keys, ``0.0 + y`` on new ones, a's other
    coefficients as they are, and zero sums dropped."""
    keys, slot = _group(np.concatenate((a.keys, b.keys)), a.width)
    re, im = np.zeros(len(keys)), np.zeros(len(keys))
    re[:len(a.keys)], im[:len(a.keys)] = a.re, a.im
    at = slot[len(a.keys):]
    re[at] += b.re
    im[at] += b.im
    return _nonzero(keys, re, im, a.low, a.width)


def _float_product_trace(a: _Arrays, b: _Arrays, order: np.ndarray) -> complex:
    """Normalized trace of the product of two aligned float operators, summed
    as the dict loop of :func:`product_trace` sums it: over a's keys that b
    holds, in a's order, sequentially from 0.0.  ``order`` sorts b's keys."""
    if not len(order):
        return 0j
    ranked = b.keys[order]
    # a key above the largest is looked up at the last slot, and found unequal
    at = np.minimum(np.searchsorted(ranked, a.keys), len(ranked) - 1)
    hit = ranked[at] == a.keys
    at = order[at[hit]]
    keys, xr, xi = a.keys[hit], a.re[hit], a.im[hit]
    yr, yi = b.re[at], b.im[at]
    odd = _odd_arrays(keys, keys)
    pr, pi = xr * yr - xi * yi, xr * yi + xi * yr
    np.negative(pr, out=pr, where=odd)
    np.negative(pi, out=pi, where=odd)
    # accumulate adds in order (np.add.reduce would sum pairwise)
    return complex(*(np.add.accumulate(np.concatenate(([0.0], p)))[-1] for p in (pr, pi)))


def _operator(terms, arrays, exact, time=0, base=None) -> "Operator":
    """An operator over terms already free of zero coefficients."""
    op = Operator.__new__(Operator)
    op._dict, op._arr, op.exact, op.time, op.base = terms, arrays, exact, time, base
    op._order = None
    return op


class Operator:
    """A finite combination of canonical monomials with mode-tagged scalars.

    Operators are immutable values.  ``time`` is a localization label: a
    positive integer marks the image of a surface operator under that many
    causal time steps, and ``base`` then records the doubled site interval
    of the surface preimage.  Only evolution sets it (``apply_beta``,
    ``beta_generator_image`` and ``alpha_shift``, through
    :meth:`with_labels`), and :meth:`to_float` keeps it.  Every other
    operator, each result of the arithmetic below included, has time label
    0 and no base, and :func:`localization` places it by its support.
    Terms are keyed by the private monomial bitmask; build operators with
    the constructors below.

    Float operators compute on their terms as arrays (:class:`_Arrays`) and
    build the term dict only when something reads it.  Exact operators, float
    keys spanning more than 62 bits, and operations smaller than
    ``_ARRAY_WORK`` keep the dict and its loops; an operation on one operator
    takes the form that operator already has.
    """

    __slots__ = ("_dict", "_arr", "_order", "exact", "time", "base")

    def __init__(self, terms: dict, exact: bool, time=0, base=None):
        self._dict = {s: c for s, c in terms.items() if not is_zero(c)}
        self._arr = None
        self._order = None
        self.exact = exact
        self.time = time
        self.base = base

    @property
    def _terms(self) -> dict:
        """The terms as a dict from key to coefficient, built on first read."""
        if self._dict is None:
            keys, re, im, low, _ = self._arr
            coeffs = np.empty(len(keys), dtype=complex)
            coeffs.real, coeffs.imag = re, im
            self._dict = dict(zip([k << low for k in keys.tolist()], coeffs.tolist()))
        return self._dict

    def _arrays(self) -> _Arrays | None:
        """The terms as arrays, built on first use; None in exact mode and
        when the keys span more than 62 bits."""
        if self._arr is None and not self.exact:
            mask = 0
            for key in self._dict:
                mask |= key
            low = max((mask & -mask).bit_length() - 1, 0)
            width = (mask >> low).bit_length()
            if width > 62:
                return None
            coeffs = np.array(list(self._dict.values()), dtype=complex)
            self._arr = _Arrays(np.array([k >> low for k in self._dict], dtype=np.int64),
                                coeffs.real.copy(), coeffs.imag.copy(), low, width)
        return self._arr

    def _key_order(self) -> np.ndarray:
        """The permutation that sorts the keys of :meth:`_arrays`, found on first
        use, so the product traces of several operators against this one (a
        state's four sectors) sort its keys once.  Aligning shifts every key
        left by one amount, so the permutation sorts the aligned keys too."""
        if self._order is None:
            self._order = np.argsort(self._arrays().keys)
        return self._order

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, exact=False) -> "Operator":
        return cls({}, exact)

    @classmethod
    def identity(cls, exact=False) -> "Operator":
        return cls({0: coerce(1, exact)}, exact)

    @classmethod
    def generator(cls, site, exact=False) -> "Operator":
        """The generator U at a half-integer site."""
        return cls({_bit(to_double(site)): coerce(1, exact)}, exact)

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
            c = _phase_times(_coefficient(coeff, exact), (phase + 2 * odd) % 4, exact)
            acc[key] = acc[key] + c if key in acc else c
        return cls(acc, exact)

    # -- structure ----------------------------------------------------------

    def terms(self):
        """Iterator over (sites, coefficient) pairs, ordered by the ascending
        tuples of doubled sites."""
        return iter(sorted((_sites(key), c) for key, c in self._terms.items()))

    @property
    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self):
        return len(self._arr.keys) if self._dict is None else len(self._dict)

    def _check_mode(self, other: "Operator"):
        if self.exact != other.exact:
            raise ModeError(
                "cannot combine exact and float operators; coerce with to_float()"
            )

    # -- linear structure ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_mode(other)
        pair = _aligned(self, other) if len(self) + len(other) >= _ARRAY_WORK else None
        if pair is not None:
            return _operator(None, _float_sum(*pair), False)
        acc = dict(self._terms)
        for s, c in other._terms.items():
            acc[s] = acc.get(s, zero(self.exact)) + c
        return Operator(acc, self.exact)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        arr = self._arr
        if arr is not None:
            return _operator(None, arr._replace(re=-arr.re, im=-arr.im), False)
        return Operator({s: -c for s, c in self._terms.items()}, self.exact)

    def scaled(self, scalar) -> "Operator":
        c = _coefficient(scalar, self.exact)
        arr = self._arr
        if arr is not None:  # v * c as CPython's complex multiply forms it
            re = arr.re * c.real - arr.im * c.imag
            im = arr.re * c.imag + arr.im * c.real
            return _operator(None, _nonzero(arr.keys, re, im, arr.low, arr.width), False)
        return Operator({s: v * c for s, v in self._terms.items()}, self.exact)

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
        pair = _aligned(self, other) if len(self) * len(other) >= _ARRAY_WORK else None
        if pair is not None:
            return _operator(None, _float_product(*pair), False)
        acc: dict = {}
        nil = zero(self.exact)
        for s1, c1 in self._terms.items():
            for s2, c2 in other._terms.items():
                c = c1 * c2
                if _odd(s1, s2):
                    c = -c
                key = s1 ^ s2
                acc[key] = acc.get(key, nil) + c
        return Operator(acc, self.exact)

    def adjoint(self) -> "Operator":
        arr = self._arr
        if arr is not None:  # -conj(c) is (-re, im)
            odd = _odd_arrays(arr.keys, arr.keys)
            return _operator(None, arr._replace(re=np.where(odd, -arr.re, arr.re),
                                                im=np.where(odd, arr.im, -arr.im)), False)
        acc = {}
        for s, c in self._terms.items():
            cc = c.conjugate()
            if _odd(s, s):
                cc = -cc
            acc[s] = cc
        return Operator(acc, self.exact)

    # -- functionals -----------------------------------------------------------

    def trace(self):
        """The normalized trace: the coefficient of the identity monomial."""
        arr = self._arr
        if arr is not None:
            at = np.flatnonzero(arr.keys == 0)
            return complex(arr.re[at[0]], arr.im[at[0]]) if len(at) else 0j
        return self._terms.get(0, zero(self.exact))

    def sup_coefficient(self) -> float:
        """Largest coefficient magnitude (numeric, both modes)."""
        if self.is_zero:
            return 0.0
        arr = self._arr
        if arr is not None:  # abs(complex) is hypot(re, im)
            return float(np.hypot(arr.re, arr.im).max())
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
        return _operator(self._dict, self._arr, self.exact, time, base)

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
        return f"<Operator {mode}, {len(self)} terms>"


# -- module-level operations ---------------------------------------------------


def product_trace(x: Operator, y: Operator):
    """Normalized trace of x*y without forming the product.

    Monomials are trace-orthogonal: tr(U_S U_T) vanishes unless S = T, and
    U_S U_S is the identity times a sign.
    """
    x._check_mode(y)
    pair = _aligned(x, y) if len(x) + len(y) >= _ARRAY_WORK else None
    if pair is not None:
        return _float_product_trace(*pair, y._key_order())
    total = zero(x.exact)
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

    An evolved operator (from ``apply_beta``, ``beta_generator_image`` or
    ``alpha_shift``) lives over the surface interval of its preimage at its
    time label.  Every other operator, arithmetic on evolved ones included,
    lives over the site hull of its expansion at translate 0: valid by
    isotony, if not tight (the product of the events at ``O^m(1,0)`` and
    ``O^m(1,1)`` gives ``O[t=0](-1/2,3/2)``, not ``O[t=1](0,1)``).
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


def terms_json(x: Operator) -> list:
    """The terms of x as JSON records: exact coefficients as tokens, float ones
    as (real, imag) pairs, and the sites as one shared tuple of strings per
    word, so that reports a caller keeps hold each word once."""
    return [{"coeff": str(c) if x.exact else (c.real, c.imag), "sites": _sites_json(sites)}
            for sites, c in x.terms()]


@lru_cache(maxsize=4096)
def _sites_json(sites: tuple) -> tuple:
    return tuple(map(double_str, sites))


# -- dense matrix oracle ---------------------------------------------------------


def qubit_range(window2) -> range:
    """The qubits floor(i)..ceil(j) of the doubled window ``(i2, j2)``."""
    i2, j2 = window2
    if i2 > j2:
        raise PreconditionError("window needs i <= j")
    return range(i2 // 2, (j2 + 1) // 2 + 1)


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


def to_matrix(x: Operator, window) -> np.ndarray:
    """Dense matrix of x on a window (i, j) of half-integer sites.

    The window is mapped to qubits floor(i)..ceil(j); the support of x must
    fit inside the window.
    """
    w_i2, w_j2 = to_double(window[0]), to_double(window[1])
    qubits = qubit_range((w_i2, w_j2))
    q1, dim = qubits[-1], 2 ** len(qubits)
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
