"""Causal geometry of the discrete two-dimensional Minkowski lattice.

Minimal double cones of unit diameter are centred at (0, x) for integer x
and at (1/2, x) for half-integer x, together with all integer time
translates of that thickened Cauchy surface.  A double cone is the smallest
diamond containing a consecutive run of minimal cones on one translate.

All coordinates are doubled integers (see :mod:`isingccp.halfint`), and all
diamonds are open, so every membership or separation query is an exact
integer inequality on light-cone coordinates u = t - x, v = t + x.  Causal
pasts are unbounded; they are stored as the finitely many wedge apexes that
bound them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import PreconditionError, SchemaError
from .halfint import double_str, from_double, to_double

__all__ = [
    "MinimalCone",
    "DoubleCone",
    "Region",
    "spacelike_separated",
    "causal_past",
    "causal_future",
    "pasts",
]


@dataclass(frozen=True, order=True)
class MinimalCone:
    """Open unit diamond centred at (t, x), stored as doubled coordinates.

    The lattice parity constraint t - x in Z must hold; Cauchy-surface cones
    have t = 0 at integer x and t = 1/2 at half-integer x.
    """

    t2: int
    x2: int

    def __post_init__(self):
        if (self.t2 - self.x2) % 2 != 0:
            raise PreconditionError(
                f"cone centre ({double_str(self.t2)},{double_str(self.x2)}) "
                "violates the parity constraint t - x in Z"
            )

    @classmethod
    def at(cls, t, x) -> "MinimalCone":
        return cls(to_double(t), to_double(x))

    @classmethod
    def surface(cls, x) -> "MinimalCone":
        """The Cauchy-surface cone over site x (time 0 or 1/2 by parity)."""
        x2 = to_double(x)
        return cls(x2 % 2, x2)

    @property
    def t(self) -> Fraction:
        return from_double(self.t2)

    @property
    def x(self) -> Fraction:
        return from_double(self.x2)

    # open extents in doubled light-cone coordinates
    @property
    def u_lo2(self) -> int:
        return self.t2 - self.x2 - 1

    @property
    def u_hi2(self) -> int:
        return self.t2 - self.x2 + 1

    @property
    def v_lo2(self) -> int:
        return self.t2 + self.x2 - 1

    @property
    def v_hi2(self) -> int:
        return self.t2 + self.x2 + 1

    def translated(self, dt: int, dx: int) -> "MinimalCone":
        return MinimalCone(self.t2 + 2 * dt, self.x2 + 2 * dx)

    def as_double_cone(self) -> "DoubleCone":
        layer = self.t2 // 2 if self.x2 % 2 == 0 else (self.t2 - 1) // 2
        return DoubleCone(layer, self.x2, self.x2)

    def __str__(self):
        return f"O^m({double_str(self.t2)},{double_str(self.x2)})"


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

    def spanning_cones(self) -> list[MinimalCone]:
        """The minimal cones over sites i..j on this translate."""
        return [
            MinimalCone(2 * self.t + (s % 2), s) for s in self.sites()
        ]

    def contained_cones(self) -> list[MinimalCone]:
        """All lattice minimal cones lying inside the open diamond."""
        out = []
        for u2 in range(self.u_lo2 + 1, self.u_hi2):
            if u2 % 2 != 0:
                continue
            for v2 in range(self.v_lo2 + 1, self.v_hi2):
                if v2 % 2 != 0:
                    continue
                out.append(MinimalCone((u2 + v2) // 2, (v2 - u2) // 2))
        return out

    def contains_cone(self, m: MinimalCone) -> bool:
        return (
            m.u_lo2 >= self.u_lo2
            and m.u_hi2 <= self.u_hi2
            and m.v_lo2 >= self.v_lo2
            and m.v_hi2 <= self.v_hi2
        )

    def translated(self, dt: int, dx: int) -> "DoubleCone":
        return DoubleCone(self.t + dt, self.i2 + 2 * dx, self.j2 + 2 * dx)

    def __str__(self):
        if self.i2 == self.j2:
            m = self.spanning_cones()[0]
            return str(m)
        return f"O[t={self.t}]({double_str(self.i2)},{double_str(self.j2)})"


def as_double_cone(obj) -> DoubleCone:
    if isinstance(obj, DoubleCone):
        return obj
    if isinstance(obj, MinimalCone):
        return obj.as_double_cone()
    raise SchemaError(f"expected a cone, got {type(obj).__name__}")


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
    """A spacetime region: either a finite set of minimal cones or an
    unbounded causal past/future bounded by wedge apexes.

    A past wedge with apex (u2, v2) is the open set {u < u2/2, v < v2/2};
    a future wedge is {u > u2/2, v > v2/2}.
    """

    cones: frozenset = field(default_factory=frozenset)
    apexes: frozenset = field(default_factory=frozenset)
    kind: str = "finite"  # "finite" | "past" | "future"

    @classmethod
    def of_cones(cls, cones) -> "Region":
        cones = frozenset(cones)
        if not all(isinstance(m, MinimalCone) for m in cones):
            raise SchemaError("finite regions are sets of minimal cones")
        return cls(cones=cones)

    @classmethod
    def past(cls, apexes) -> "Region":
        return cls(apexes=_prune(apexes), kind="past")

    @classmethod
    def future(cls, apexes) -> "Region":
        apexes = {(-u, -v) for (u, v) in apexes}
        return cls(apexes=frozenset((-u, -v) for (u, v) in _prune(apexes)), kind="future")

    @property
    def is_empty(self) -> bool:
        return not self.cones and not self.apexes

    def contains_cone(self, m: MinimalCone) -> bool:
        if self.kind == "finite":
            return m in self.cones
        if self.kind == "past":
            return any(m.u_hi2 <= u and m.v_hi2 <= v for (u, v) in self.apexes)
        return any(m.u_lo2 >= u and m.v_lo2 >= v for (u, v) in self.apexes)

    def contains_double_cone(self, d: DoubleCone) -> bool:
        """Whole-diamond containment.  A diamond inside a union of wedges is
        inside a single wedge (approach its future corner), so the test is
        per-apex."""
        if self.kind == "past":
            return any(d.u_hi2 <= u and d.v_hi2 <= v for (u, v) in self.apexes)
        if self.kind == "future":
            return any(d.u_lo2 >= u and d.v_lo2 >= v for (u, v) in self.apexes)
        return all(self.contains_cone(m) for m in d.contained_cones())

    def contains_region(self, other: "Region") -> bool:
        if self.kind == "finite" or other.kind == "finite":
            if self.kind == "finite" and other.kind == "finite":
                return other.cones <= self.cones
            raise PreconditionError("cannot compare finite and unbounded regions")
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

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.cones == other.cones
            and self.apexes == other.apexes
        )

    def __hash__(self):
        return hash((self.kind, self.cones, self.apexes))

    def to_dict(self) -> dict:
        if self.kind == "finite":
            return {
                "kind": "finite",
                "cones": [
                    {"t": double_str(m.t2), "x": double_str(m.x2)}
                    for m in sorted(self.cones)
                ],
            }
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


def spacelike_separated(a, b) -> bool:
    """True iff no point of one cone is in the causal past or future of a
    point of the other (45-degree light cones, open diamonds)."""
    a, b = as_double_cone(a), as_double_cone(b)
    return not _causally_before(a, b) and not _causally_before(b, a)


def _past_apexes(obj) -> set:
    if isinstance(obj, (MinimalCone, DoubleCone)):
        d = as_double_cone(obj)
        return {(d.u_hi2, d.v_hi2)}
    if isinstance(obj, Region):
        if obj.kind == "past":
            return set(obj.apexes)
        if obj.kind == "future":
            raise PreconditionError("causal past of a future region is unbounded")
        return {(m.u_hi2, m.v_hi2) for m in obj.cones}
    raise SchemaError(f"cannot take the causal past of {type(obj).__name__}")


def causal_past(region) -> Region:
    """The union of backward light cones of all points of the region.

    Accepts a minimal cone, a double cone, or a finite/past Region; the
    result is a past Region whose wedges carry the apex data.
    """
    apexes = _past_apexes(region)
    if not apexes:
        raise PreconditionError("causal past of an empty region")
    return Region.past(apexes)


def causal_future(region) -> Region:
    """Time reflection of :func:`causal_past`."""
    if isinstance(region, (MinimalCone, DoubleCone)):
        d = as_double_cone(region)
        apexes = {(d.u_lo2, d.v_lo2)}
    elif isinstance(region, Region) and region.kind == "finite":
        apexes = {(m.u_lo2, m.v_lo2) for m in region.cones}
    else:
        raise SchemaError("causal future needs a bounded region")
    if not apexes:
        raise PreconditionError("causal future of an empty region")
    return Region.future(apexes)


def pasts(a, b, mode: str) -> Region:
    """The weak, common or strong past of a pair of double cones.

    weak   = I_-(a) union I_-(b)
    common = I_-(a) intersect I_-(b)
    strong = intersection of I_-(m) over all minimal cones m inside a or b
    """
    a, b = as_double_cone(a), as_double_cone(b)
    pa, pb = (a.u_hi2, a.v_hi2), (b.u_hi2, b.v_hi2)
    if mode == "weak":
        return Region.past({pa, pb})
    if mode == "common":
        return Region.past({(min(pa[0], pb[0]), min(pa[1], pb[1]))})
    if mode == "strong":
        cones = a.contained_cones() + b.contained_cones()
        u = min(m.u_hi2 for m in cones)
        v = min(m.v_hi2 for m in cones)
        return Region.past({(u, v)})
    raise SchemaError(f"unknown past mode {mode!r}; use weak, common or strong")
