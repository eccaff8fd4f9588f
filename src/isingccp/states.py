"""States built from weighted event sectors, and partition conditioning.

Given two commuting projections A and B, the four sector projections

    AB, A'B', AB', A'B        (primes denote complements)

are mutually orthogonal and sum to the identity.  Reweighting the
normalized trace sector by sector,

    phi(X) = sum_P  w_P * tr(P X) / tr(P),      w_P > 0, sum_P w_P = 1,

defines a faithful state on the whole chain algebra; the choice of weights
controls the correlation between A and B.  Evaluation is purely symbolic
(the normalized trace of a monomial is zero unless it is the identity), so
operators of arbitrary support can be evaluated without choosing a matrix
window.

A partition of unity {C_k} induces the conditional expectation
E(x) = sum_k C_k x C_k onto the subalgebra commuting with every cell; this
is the conditioning used by the noncommuting screening-off criterion.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import (
    DEFAULT_TOL,
    Operator,
    is_projection,
    product_trace,
    qubit_range,
    support_interval,
)
from .errors import DEFAULT_BUDGET, BudgetError, ModeError, PreconditionError
from .exact import ExactScalar, coerce, zero
from .halfint import to_double

__all__ = [
    "SECTORS",
    "PartitionOfUnity",
    "LambdaState",
    "build_lambda_state",
    "conditional_expectation",
    "correlation",
    "sector_correlation",
    "NoncommutingEventsError",
    "DegenerateSectorError",
    "WeightError",
]

SECTORS = ("AB", "ApBp", "ABp", "ApB")


class NoncommutingEventsError(PreconditionError):
    """The two events of a sector state must commute."""


class DegenerateSectorError(PreconditionError):
    """A sector projection vanished, so the sector state is undefined."""


class WeightError(PreconditionError):
    """Sector weights must be strictly positive and sum to one."""


class PartitionOfUnity:
    """A finite family of mutually orthogonal projections summing to 1."""

    def __init__(self, cells, tol: float = DEFAULT_TOL):
        cells = tuple(cells)
        if not cells:
            raise PreconditionError("a partition needs at least one cell")
        exact = cells[0].exact
        for k, c in enumerate(cells):
            if c.exact != exact:
                raise ModeError("partition cells mix exact and float modes")
            if not is_projection(c, tol):
                raise PreconditionError(f"cell {k} is not a projection")
        for k in range(len(cells)):
            for l in range(k + 1, len(cells)):
                if not (cells[k] * cells[l]).is_close_to_zero(tol):
                    raise PreconditionError(f"cells {k} and {l} are not orthogonal")
        total = cells[0]
        for c in cells[1:]:
            total = total + c
        if not (total - Operator.identity(exact)).is_close_to_zero(tol):
            raise PreconditionError("cells do not sum to the identity")
        self.cells = cells
        self.exact = exact

    def __iter__(self):
        return iter(self.cells)

    def __len__(self):
        return len(self.cells)

    def __getitem__(self, k):
        return self.cells[k]


def conditional_expectation(partition: PartitionOfUnity, x: Operator) -> Operator:
    """E(x) = sum_k C_k x C_k, the expectation onto the partition's commutant."""
    out = Operator.zero(x.exact)
    for c in partition:
        out = out + c * x * c
    return out


class LambdaState:
    """The sector-weighted faithful state determined by (A, B, weights).

    Use :func:`build_lambda_state` to construct one; it validates the
    commutation, sector and weight preconditions.  ``a_perp`` and ``b_perp``
    are the complements 1 - A and 1 - B.
    """

    def __init__(self, a, b, a_perp, b_perp, sectors, weights, sector_traces, exact):
        self.a = a
        self.b = b
        self.a_perp = a_perp
        self.b_perp = b_perp
        self.sectors = sectors
        self.weights = weights
        self.sector_traces = sector_traces
        self.exact = exact
        self._correlation = None

    def evaluate(self, x: Operator):
        """phi(x) = sum_P w_P tr(P x) / tr(P)."""
        if x.exact != self.exact:
            raise ModeError("operator and state modes differ; coerce explicitly")
        total = zero(self.exact)
        for label in SECTORS:
            p = self.sectors[label]
            total = total + self.weights[label] * product_trace(p, x) / self.sector_traces[label]
        return total

    def window(self):
        """Site hull of the two events (doubled interval)."""
        spans = [support_interval(self.a), support_interval(self.b)]
        lo = min(to_double(s[0]) for s in spans if s is not None)
        hi = max(to_double(s[1]) for s in spans if s is not None)
        return lo, hi

    def sector_sizes(self) -> dict:
        """Unnormalized sector ranks m_P = tr(P) * 2^n on the n-qubit window of the events."""
        n = len(qubit_range(self.window()))
        out = {}
        for label in SECTORS:
            tr = self.sector_traces[label]
            m = (tr.as_fraction() if self.exact else Fraction(tr).limit_denominator(2 ** n)) * 2 ** n
            if m.denominator != 1:
                raise PreconditionError(f"sector {label} has non-dyadic trace on {n} qubits")
            out[label] = int(m)
        return out

    def to_float(self) -> "LambdaState":
        """The same state in float mode; a float state is returned as it is."""
        if not self.exact:
            return self
        return build_lambda_state(self.a.to_float(), self.b.to_float(),
                                  {k: float(w) for k, w in self.weights.items()})

    def density_matrix(self, window):
        """Density of the state restricted to a matrix window."""
        import numpy as np
        from .algebra import to_matrix

        rho = None
        for label in SECTORS:
            p = to_matrix(self.sectors[label].to_float(), window)
            w = complex(self.weights[label]) if self.exact else self.weights[label]
            term = (w / np.trace(p).real) * p
            rho = term if rho is None else rho + term
        return rho


def build_lambda_state(a: Operator, b: Operator, weights, tol: float = DEFAULT_TOL) -> LambdaState:
    """Validate and build the sector-weighted state.

    ``weights`` maps the sector labels "AB", "ApBp", "ABp", "ApB" to strictly
    positive scalars summing to one (ExactScalar/Fraction in exact mode,
    floats otherwise).  If its largest product, (1 - A)(1 - B), may multiply
    more than ``DEFAULT_BUDGET`` pairs of monomials, it raises
    :class:`~isingccp.errors.BudgetError` before forming any product.
    """
    if a.exact != b.exact:
        raise ModeError("events mix exact and float modes")
    exact = a.exact
    pairs = (max(len(a), len(b)) + 1) ** 2
    if pairs > DEFAULT_BUDGET:
        raise BudgetError(f"the state's products may multiply {pairs} monomial pairs, over {DEFAULT_BUDGET}")
    if not is_projection(a, tol) or not is_projection(b, tol):
        raise PreconditionError("both events must be projections")
    ab = a * b
    if not (ab - b * a).is_close_to_zero(tol):
        raise NoncommutingEventsError("the two events do not commute")
    one = Operator.identity(exact)
    a_perp, b_perp = one - a, one - b
    sectors = {
        "AB": ab,
        "ApBp": a_perp * b_perp,
        "ABp": a * b_perp,
        "ApB": a_perp * b,
    }
    traces = {}
    for label, p in sectors.items():
        tr = p.trace()
        degenerate = tr.is_zero if exact else abs(tr) <= tol
        if degenerate:
            raise DegenerateSectorError(f"sector {label} vanishes; the state is undefined")
        traces[label] = tr if exact else tr.real
    missing = set(SECTORS) - set(weights)
    if missing:
        raise WeightError(f"missing sector weights: {sorted(missing)}")
    # float weights stay real
    coerced = {k: coerce(weights[k], True) if exact else float(weights[k]) for k in SECTORS}
    for label, w in coerced.items():
        positive = (w > 0) if exact else w > tol
        if not positive:
            raise WeightError(f"weight for sector {label} must be strictly positive")
    total = sum(coerced[k] for k in SECTORS[1:]) + coerced[SECTORS[0]]
    if exact:
        if total != ExactScalar(1):
            raise WeightError(f"weights sum to {total}, expected 1")
    elif abs(total - 1.0) > tol:
        raise WeightError(f"weights sum to {total}, expected 1")
    return LambdaState(a, b, a_perp, b_perp, sectors, coerced, traces, exact)


def correlation(state: LambdaState):
    """phi(AB) - phi(A) phi(B), computed once per state."""
    if state._correlation is None:
        ab = state.evaluate(state.sectors["AB"])
        pa = state.evaluate(state.a)
        pb = state.evaluate(state.b)
        state._correlation = ab - pa * pb
    return state._correlation


def sector_correlation(state: LambdaState):
    """The same correlation in sector form: w_AB w_A'B' - w_AB' w_A'B."""
    w = state.weights
    return w["AB"] * w["ApBp"] - w["ABp"] * w["ApB"]
