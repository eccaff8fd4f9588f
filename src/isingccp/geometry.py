"""Causal geometry of the discrete two-dimensional Minkowski lattice.

Minimal double cones of unit diameter are centred at (0, x) for integer x
and at (1/2, x) for half-integer x, together with all integer time
translates of that thickened Cauchy surface.  A double cone is the smallest
diamond containing a consecutive run of minimal cones on one translate, so
a minimal cone is the double cone over a single site.

All coordinates are doubled integers (see :mod:`isingccp.halfint`), and all
diamonds are open, so every membership or separation query is an exact
integer inequality on light-cone coordinates u = t - x, v = t + x.  Causal
pasts and futures are unbounded; they are stored as the finitely many wedge
apexes that bound them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, SchemaError
from .halfint import double_str, from_double, to_double

__all__ = [
    "DoubleCone",
    "Region",
    "spacelike_separated",
    "causal_past",
    "causal_future",
    "pasts",
    "PAST_MODES",
]

# the modes of :func:`pasts`
PAST_MODES = ("weak", "common", "strong")


@dataclass(frozen=True, order=True)
class DoubleCone:
    """Smallest diamond containing the minimal cones over sites i..j at one
    integer time translate t of the Cauchy surface."""

    t: int
    i2: int
    j2: int

    def __post_init__(self):
        if self.i2 > self.j2:
            raise PreconditionError("double cone needs i <= j")

    @classmethod
    def span(cls, t: int, i, j) -> "DoubleCone":
        return cls(int(t), to_double(i), to_double(j))

    @classmethod
    def minimal(cls, t, x) -> "DoubleCone":
        """The minimal cone centred at (t, x), which needs t - x in Z: the
        single-site cone over x on translate t (integer x) or t - 1/2
        (half-integer x)."""
        t2, x2 = to_double(t), to_double(x)
        if (t2 - x2) % 2 != 0:
            raise PreconditionError(
                f"cone centre ({double_str(t2)},{double_str(x2)}) "
                "violates the parity constraint t - x in Z"
            )
        return cls(t2 // 2, x2, x2)

    @property
    def i(self) -> Fraction:
        return from_double(self.i2)

    @property
    def j(self) -> Fraction:
        return from_double(self.j2)

    # open extents in doubled light-cone coordinates
    @property
    def u_lo2(self) -> int:
        return 2 * self.t - 2 * (self.j2 // 2) - 1

    @property
    def u_hi2(self) -> int:
        return 2 * self.t - 2 * (self.i2 // 2) + 1

    @property
    def v_lo2(self) -> int:
        return 2 * self.t + 2 * ((self.i2 + 1) // 2) - 1

    @property
    def v_hi2(self) -> int:
        return 2 * self.t + 2 * ((self.j2 + 1) // 2) + 1

    def sites(self) -> list[int]:
        return list(range(self.i2, self.j2 + 1))

    def translated(self, dt: int, dx: int) -> "DoubleCone":
        return DoubleCone(self.t + dt, self.i2 + 2 * dx, self.j2 + 2 * dx)

    def __str__(self):
        if self.i2 == self.j2:
            return f"O^m({double_str(2 * self.t + self.i2 % 2)},{double_str(self.i2)})"
        return f"O[t={self.t}]({double_str(self.i2)},{double_str(self.j2)})"


def _prune(apexes) -> frozenset:
    """Drop wedges dominated by another wedge; the maximal antichain is a
    canonical representation, so region equality is set equality."""
    apexes = set(apexes)
    keep = set()
    for a in apexes:
        if not any(b != a and b[0] >= a[0] and b[1] >= a[1] for b in apexes):
            keep.add(a)
    return frozenset(keep)


@dataclass(frozen=True)
class Region:
    """An unbounded causal past or future, bounded by wedge apexes.

    A past wedge with apex (u2, v2) is the open set {u < u2/2, v < v2/2};
    a future wedge is {u > u2/2, v > v2/2}.
    """

    apexes: frozenset
    kind: str  # "past" | "future"

    @classmethod
    def past(cls, apexes) -> "Region":
        return cls(_prune(apexes), "past")

    @classmethod
    def future(cls, apexes) -> "Region":
        apexes = {(-u, -v) for (u, v) in apexes}
        return cls(frozenset((-u, -v) for (u, v) in _prune(apexes)), "future")

    def contains(self, d: DoubleCone) -> bool:
        """Whole-diamond containment.  A diamond inside a union of wedges is
        inside a single wedge (approach its future corner), so the test is
        per-apex."""
        if self.kind == "past":
            return any(d.u_hi2 <= u and d.v_hi2 <= v for (u, v) in self.apexes)
        return any(d.u_lo2 >= u and d.v_lo2 >= v for (u, v) in self.apexes)

    def contains_region(self, other: "Region") -> bool:
        if self.kind != other.kind:
            raise PreconditionError("cannot compare past and future regions")
        if self.kind == "past":
            return all(
                any(u <= su and v <= sv for (su, sv) in self.apexes)
                for (u, v) in other.apexes
            )
        return all(
            any(u >= su and v >= sv for (su, sv) in self.apexes)
            for (u, v) in other.apexes
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "apexes": [
                {"u": double_str(u), "v": double_str(v)}
                for (u, v) in sorted(self.apexes)
            ],
        }


def _causally_before(a: DoubleCone, b: DoubleCone) -> bool:
    """True iff some point of a causally precedes some point of b."""
    return a.u_lo2 < b.u_hi2 and a.v_lo2 < b.v_hi2


def spacelike_separated(a: DoubleCone, b: DoubleCone) -> bool:
    """True iff no point of one cone is in the causal past or future of a
    point of the other (45-degree light cones, open diamonds)."""
    return not _causally_before(a, b) and not _causally_before(b, a)


def causal_past(cone: DoubleCone) -> Region:
    """The union of backward light cones of all points of the cone, as a
    past Region with one wedge."""
    return Region.past({(cone.u_hi2, cone.v_hi2)})


def causal_future(cone: DoubleCone) -> Region:
    """Time reflection of :func:`causal_past`."""
    return Region.future({(cone.u_lo2, cone.v_lo2)})


def pasts(a: DoubleCone, b: DoubleCone, mode: str) -> Region:
    """The weak, common or strong past of a pair of double cones.

    weak   = I_-(a) union I_-(b)
    common = I_-(a) intersect I_-(b)
    strong = intersection of I_-(m) over all minimal cones m inside a or b
           = the past wedge at (min u_lo2 + 2, min v_lo2 + 2): the lowest centre
             of a minimal cone inside a diamond is (u_lo2 + 1, v_lo2 + 1)
    """
    pa, pb = (a.u_hi2, a.v_hi2), (b.u_hi2, b.v_hi2)
    if mode == "weak":
        return Region.past({pa, pb})
    if mode == "common":
        return Region.past({(min(pa[0], pb[0]), min(pa[1], pb[1]))})
    if mode == "strong":
        return Region.past({(min(a.u_lo2, b.u_lo2) + 2, min(a.v_lo2, b.v_lo2) + 2)})
    raise SchemaError(f"unknown past mode {mode!r}; use weak, common or strong")
