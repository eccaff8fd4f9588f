"""Screening-off analysis: classical, commuting and noncommuting deciders.

A partition {C_k} screens off a correlation between commuting events A, B
when, cell by cell, the conditional product identity holds.  Multiplying
out the conditionals turns each cell condition into the residual

    phi(A B C_k) phi(A'B'C_k) - phi(A B'C_k) phi(A'B C_k) = 0,

which is also meaningful for cells of probability zero (both sides vanish).
Cells lying below A, A', B or B' satisfy the condition in every state; such
solutions are trivial.

For cells commuting with both events inside a finite matrix window, every
trace entering the residual is an integer block rank divided by the window
dimension.  With exact weights the residual therefore becomes a decidable
identity in Q[pi], and all partitions of a window can be checked by
enumerating integer rank assignments: a finite and complete search.

The noncommuting variant conditions through the partition's expectation
E(x) = sum_k C_k x C_k instead, and reduces to the commuting criterion
whenever the cells commute with both events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product as iter_product
from typing import NamedTuple

from .algebra import DEFAULT_TOL, Operator, commutes
from .errors import DEFAULT_BUDGET, BudgetError, ExactnessError, ModeError, PreconditionError
from .exact import ExactScalar, coerce, is_zero
from .states import (
    SECTORS,
    LambdaState,
    PartitionOfUnity,
    conditional_expectation,
    correlation as _state_correlation,
)

__all__ = [
    "CellReport",
    "CcsReport",
    "ProbabilitySpace",
    "classical_ccs_check",
    "commuting_ccs_residuals",
    "noncommuting_ccs_residuals",
    "exact_wccp_decision",
    "enumerate_commuting_tuples",
    "EnumerationResult",
    "screening_weight",
    "WeightResult",
    "common_cause_candidate",
]

_TRIVIALITY_LABELS = ("A", "A'", "B", "B'")


def scalar_json(v):
    """A scalar as its float value, with the exact token too for ExactScalar and Fraction."""
    if isinstance(v, (ExactScalar, Fraction)):
        return {"exact": str(v), "float": complex(v).real}
    return {"float": complex(v).real}


@dataclass
class CellReport:
    index: int
    residual: object
    weight: object
    trivial: bool
    trivial_under: tuple = ()

    def to_dict(self):
        return {
            "index": self.index,
            "residual": scalar_json(self.residual),
            "weight": scalar_json(self.weight),
            "trivial": self.trivial,
            "trivial_under": list(self.trivial_under),
        }


@dataclass
class CcsReport:
    """Per-cell residuals of a screening-off check plus the overall verdict."""

    mode: str
    cells: list
    satisfied: bool
    correlation: object = None
    trivial: bool = False
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "mode": self.mode,
            "satisfied": self.satisfied,
            "trivial": self.trivial,
            "cells": [c.to_dict() for c in self.cells],
        }
        if self.correlation is not None:
            out["correlation"] = scalar_json(self.correlation)
        if self.extras:
            out["extras"] = {
                k: (
                    scalar_json(v)
                    if isinstance(v, (int, float, complex, ExactScalar, Fraction))
                    and not isinstance(v, bool)
                    else v
                )
                for k, v in self.extras.items()
            }
        return out


def _residual_is_zero(value, exact: bool, tol: float) -> bool:
    if exact:
        return is_zero(value)
    return abs(complex(value).real) <= tol


# -- classical case ----------------------------------------------------------


class ProbabilitySpace:
    """A finite probability space over atoms 0..n-1.

    Weights may be Fractions (exact) or floats.  Events are any iterables of
    atom indices.
    """

    def __init__(self, weights):
        weights = list(weights)
        if not weights:
            raise PreconditionError("a probability space needs at least one atom")
        exact = all(isinstance(w, (int, Fraction)) for w in weights)
        if exact:
            weights = [Fraction(w) for w in weights]
            total = sum(weights)
            if total != 1:
                raise PreconditionError(f"atom weights sum to {total}, expected 1")
        else:
            weights = [float(w) for w in weights]
            if abs(sum(weights) - 1.0) > 1e-9:
                raise PreconditionError("atom weights must sum to 1")
        if any(w < 0 for w in weights):
            raise PreconditionError("atom weights must be nonnegative")
        self.weights = weights
        self.exact = exact

    @property
    def n_atoms(self):
        return len(self.weights)

    def event(self, atoms) -> frozenset:
        ev = frozenset(int(a) for a in atoms)
        if any(a < 0 or a >= self.n_atoms for a in ev):
            raise PreconditionError("event contains atoms outside the space")
        return ev

    def p(self, atoms):
        ev = self.event(atoms)
        zero = Fraction(0) if self.exact else 0.0
        return sum((self.weights[a] for a in ev), zero)


def classical_ccs_check(space: ProbabilitySpace, a, b, partition, tol: float = 1e-12) -> CcsReport:
    """Check a partition of the sample space for screening off p(AB) > p(A)p(B).

    Cells of probability zero pass vacuously.  For partitions of size two
    the report also carries the two positive-statistical-relevance
    differences p(A|C) - p(A|C') and p(B|C) - p(B|C')."""
    a, b = space.event(a), space.event(b)
    cells = [space.event(c) for c in partition]
    everything = frozenset(range(space.n_atoms))
    union = frozenset().union(*cells) if cells else frozenset()
    if union != everything:
        raise PreconditionError("partition does not cover the sample space")
    for i in range(len(cells)):
        for j in range(i + 1, len(cells)):
            if cells[i] & cells[j]:
                raise PreconditionError(f"partition cells {i} and {j} overlap")

    a_c = everything - a
    b_c = everything - b
    reports = []
    for k, c in enumerate(cells):
        residual = space.p(a & b & c) * space.p(a_c & b_c & c) - space.p(
            (a - b) & c
        ) * space.p((b - a) & c)
        dominators = tuple(
            lab
            for lab, ev in zip(_TRIVIALITY_LABELS, (a, a_c, b, b_c))
            if c <= ev
        )
        reports.append(
            CellReport(k, residual, space.p(c), bool(dominators), dominators)
        )
    corr = space.p(a & b) - space.p(a) * space.p(b)
    satisfied = all(_residual_is_zero(r.residual, space.exact, tol) for r in reports)
    extras = {}
    if len(cells) == 2:
        pc, pcp = space.p(cells[0]), space.p(cells[1])
        if pc > 0 and pcp > 0:
            extras["relevance_A"] = space.p(a & cells[0]) / pc - space.p(a & cells[1]) / pcp
            extras["relevance_B"] = space.p(b & cells[0]) / pc - space.p(b & cells[1]) / pcp
            extras["positive_relevance"] = bool(
                extras["relevance_A"] > 0 and extras["relevance_B"] > 0
            )
    return CcsReport(
        mode="classical",
        cells=reports,
        satisfied=satisfied,
        correlation=corr,
        trivial=all(r.trivial for r in reports),
        extras=extras,
    )


# -- quantum cases ------------------------------------------------------------


def _cell_triviality(cell: Operator, state: LambdaState, tol: float) -> tuple:
    """The events among A, A', B, B' that the cell lies below, from C A and C B:
    C <= X iff C X = C, and C (1 - X) = C iff C X = 0."""
    below = []
    for x in (state.a, state.b):
        cx = cell * x
        below += ((cx - cell).is_close_to_zero(tol), cx.is_close_to_zero(tol))
    return tuple(lab for lab, hit in zip(_TRIVIALITY_LABELS, below) if hit)


def _ccs_report(mode: str, state: LambdaState, partition, tol: float, condition) -> CcsReport:
    """Per-cell residuals w_AB w_A'B' - w_AB' w_A'B of the conditioned sector
    values phi(condition(P C)), P running over the four sectors.  The sectors
    sum to 1 and the conditioning keeps each cell, so the four values sum to
    the cell's weight phi(C)."""
    reports = []
    for k, c in enumerate(partition):
        v = [state.evaluate(condition(state.sectors[label] * c)) for label in SECTORS]
        residual = v[0] * v[1] - v[2] * v[3]
        dominators = _cell_triviality(c, state, tol)
        reports.append(CellReport(k, residual, v[0] + v[1] + v[2] + v[3], bool(dominators), dominators))
    return CcsReport(
        mode=mode,
        cells=reports,
        satisfied=all(_residual_is_zero(r.residual, state.exact, tol) for r in reports),
        correlation=_state_correlation(state),
        trivial=all(r.trivial for r in reports),
    )


def commuting_ccs_residuals(
    state: LambdaState, partition: PartitionOfUnity, tol: float = DEFAULT_TOL
) -> CcsReport:
    """Residuals of the commuting screening-off condition, cell by cell.

    Every cell must commute with both events; a violation is reported as an
    error naming the offending cell."""
    for k, c in enumerate(partition):
        if not commutes(c, state.a, tol) or not commutes(c, state.b, tol):
            raise PreconditionError(
                f"cell {k} does not commute with both events; "
                "use noncommuting_ccs_residuals for noncommuting partitions"
            )
    return _ccs_report("commuting", state, partition, tol, lambda y: y)


def noncommuting_ccs_residuals(
    state: LambdaState, partition: PartitionOfUnity | tuple, tol: float = DEFAULT_TOL
) -> CcsReport:
    """Residuals of the noncommuting screening-off condition, cell by cell.

    ``partition`` is a :class:`PartitionOfUnity` or a tuple of cells the
    caller has already checked to be one: orthogonal projections summing to
    1.  Each cell's weight is the sum of its four conditioned sector values,
    which equals phi(C_k) only for such cells.  Conditioning goes through
    E(x) = sum C_k x C_k, so the cells need not commute with the events; when
    they do, this coincides with :func:`commuting_ccs_residuals`."""
    return _ccs_report(
        "noncommuting", state, partition, tol, lambda y: conditional_expectation(partition, y)
    )


# -- exact rank-tuple decision --------------------------------------------------


def _coerce_exact_weights(weights):
    """The four sector weights as ExactScalars; P/Q does not depend on their scale."""
    seq = [weights[k] for k in SECTORS] if isinstance(weights, dict) else list(weights)
    if len(seq) != 4:
        raise PreconditionError("expected four sector weights")
    try:
        w = [coerce(v, True) for v in seq]
        if all(v > 0 for v in w):
            return w
    except ModeError:  # a float weight, or a complex one, which has no order
        pass
    raise PreconditionError("the exact decision needs exact weights, each real and positive")


def _sector_sizes(m) -> list:
    m = [int(v) for v in m]
    if len(m) != 4 or any(v <= 0 for v in m):
        raise PreconditionError("expected four positive sector sizes")
    return m


def _rank_products(m, r) -> tuple:
    """The integers L, R of a cell, whose identity reads w_AB w_A'B' L == w_AB' w_A'B R."""
    return m[2] * m[3] * r[0] * r[1], m[0] * m[1] * r[2] * r[3]


def exact_wccp_decision(weights, m, r) -> bool:
    """Decide one cell of the commuting screening-off condition exactly.

    For a cell commuting with both events, the unnormalized trace of each
    sector product is an integer block rank r_P with 0 <= r_P <= m_P, and
    the cell condition becomes an identity in Q[pi]:

        w_AB w_A'B' m_AB' m_A'B r_AB r_A'B' == w_AB' w_A'B m_AB m_A'B' r_AB' r_A'B

    which this decides with no tolerance at all.
    """
    w = _coerce_exact_weights(weights)
    m = _sector_sizes(m)
    r = [int(v) for v in r]
    if len(r) != 4 or any(v < 0 or v > mv for v, mv in zip(r, m)):
        raise PreconditionError("expected four ranks with 0 <= r_P <= m_P")
    lhs, rhs = _rank_products(m, r)
    return w[0] * w[1] * lhs == w[2] * w[3] * rhs


def _cell_ratio(w) -> tuple:
    """(a, b) with a*L == b*R iff exact_wccp_decision(w, m, r), (L, R) = _rank_products(m, r).

    (a, b) is P/Q = w_AB w_A'B' / (w_AB' w_A'B) in lowest terms if that ratio is
    rational, else (1, -1): then only L = R = 0 passes, since L, R >= 0."""
    try:
        return (w[0] * w[1] / (w[2] * w[3])).as_fraction().as_integer_ratio()
    except ExactnessError:  # P/Q is not rational
        return 1, -1


def _compositions(n: int, k: int) -> list:
    """The splits of n into k nonnegative parts in lexicographic order, from stars and bars."""
    return [tuple(y - x - 1 for x, y in zip((-1, *bars), (*bars, n + k - 1)))
            for bars in combinations(range(n + k - 1), k - 1)]


def _cell_trivial_ranks(r) -> bool:
    """Below A, A', B or B': both ranks of the event's complement are 0."""
    return not (r[1] or r[3]) or not (r[0] or r[2]) or not (r[2] or r[1]) or not (r[0] or r[3])


class EnumerationResult(NamedTuple):
    checked: int
    satisfying: list  # [(profile, trivial)]
    nontrivial: list  # profiles only

    @property
    def n_satisfying(self):
        return len(self.satisfying)

    @property
    def n_nontrivial(self):
        return len(self.nontrivial)


def enumerate_commuting_tuples(weights, m, k_size: int, budget: int = DEFAULT_BUDGET) -> EnumerationResult:
    """Exhaustively enumerate commuting-partition rank profiles on a window.

    A profile assigns each of the k cells a rank per sector, with the ranks
    of each sector summing to that sector's size.  Every profile with a
    realizable partition appears (any block-rank split of each sector can be
    realized by orthogonal subprojections), so an empty nontrivial list is a
    complete verification that no nontrivial commuting partition of that
    size satisfies the screening-off condition on the window.

    With (a, b) = :func:`_cell_ratio` a cell passes iff
    a m_AB' m_A'B r_AB r_A'B' == b m_AB m_A'B' r_AB' r_A'B: the left side reads
    only the AB and A'B' ranks, the right side only the AB' and A'B ones.  So
    the (AB', A'B) halves of the profiles are indexed by their k-tuple of
    right sides, and each (AB, A'B') half, in lexicographic order, is joined
    with the halves whose tuple equals its own of left sides.  The satisfying
    profiles come out sector-major, in lexicographic order of the rank splits.
    ``checked`` is the closed-form number of profiles,
    prod_P C(m_P + k - 1, k - 1), and the budget caps it.  The index holds
    |splits_AB'| * |splits_A'B| entries, at most checked / 4 for k >= 2; when
    that half is the large one, as for m = (1, 1, 600, 600), it costs most.
    """
    w = _coerce_exact_weights(weights)
    m = _sector_sizes(m)
    if k_size < 1:
        raise PreconditionError("partition size must be at least 1")
    count = math.prod(math.comb(mv + k_size - 1, k_size - 1) for mv in m)
    if count > budget:
        raise BudgetError(f"enumeration needs {count} rank profiles, over the budget of {budget}")
    a, b = _cell_ratio(w)
    splits = [_compositions(mv, k_size) for mv in m]
    index = {}
    for s2, s3 in iter_product(splits[2], splits[3]):
        key = tuple(b * m[0] * m[1] * x * y for x, y in zip(s2, s3))
        index.setdefault(key, []).append((s2, s3))
    satisfying = []
    for s0, s1 in iter_product(splits[0], splits[1]):
        key = tuple(a * m[2] * m[3] * x * y for x, y in zip(s0, s1))
        for s2, s3 in index.get(key, ()):
            cells = tuple(zip(s0, s1, s2, s3))
            satisfying.append((cells, all(_cell_trivial_ranks(c) for c in cells)))
    nontrivial = [cells for cells, trivial in satisfying if not trivial]
    return EnumerationResult(count, satisfying, nontrivial)


# -- the weight formula and the explicit family -----------------------------------


class WeightResult(NamedTuple):
    value: object
    within_range: bool


def screening_weight(p_ab, p_apbp, p_abp, p_apb) -> WeightResult:
    """The weight a subevent of AB must take to complete a screening-off pair.

    Returns (p_ab * p_apbp - p_abp * p_apb) / p_apbp together with whether it
    lies strictly between 0 and p_ab, which certifies a positive correlation."""
    if is_zero(p_apbp):
        raise ZeroDivisionError("the A'B' sector has probability zero")
    value = (p_ab * p_apbp - p_abp * p_apb) / p_apbp
    within = bool(0 < value and value < p_ab)
    return WeightResult(value, within)


def common_cause_candidate(a1, a2, a3, exact: bool = False, tol: float = 1e-9) -> Operator:
    """The explicit noncommuting screening-off projection over sites (0, 1).

    C = (1 + a1 U_{1/2} + a2 U_1 + i a3 U_0 U_{1/2}) / 2 is a projection for
    every real unit vector (a1, a2, a3); the support lies in the common past
    of the two standard evolved events."""
    if exact:
        a1, a2, a3 = Fraction(a1), Fraction(a2), Fraction(a3)
        if a1 * a1 + a2 * a2 + a3 * a3 != 1:
            raise PreconditionError("exact candidates need a1^2 + a2^2 + a3^2 == 1")
        half = Fraction(1, 2)
    else:
        a1, a2, a3 = float(a1), float(a2), float(a3)
        if abs(a1 * a1 + a2 * a2 + a3 * a3 - 1.0) > tol:
            raise PreconditionError("candidate coefficients must satisfy a1^2+a2^2+a3^2 = 1")
        half = 0.5
    return Operator.from_terms(
        [
            (half, [], "+1"),
            (half * a1, ["1/2"], "+1"),
            (half * a2, ["1"], "+1"),
            (half * a3, ["0", "1/2"], "+i"),
        ],
        exact=exact,
    )
