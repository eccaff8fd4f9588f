"""Light-cone geometry on the discrete Minkowski lattice.

Minimal double cones live at (0, x) for integer x and (1/2, x) for
half-integer x, plus all integer time translates.  Every causal query is an
exact integer test on light-cone coordinates.
"""

from isingccp import DoubleCone, causal_past, pasts, spacelike_separated

a = DoubleCone.minimal(1, 0)
b = DoubleCone.minimal(1, 1)
print(f"{a} and {b} spacelike separated? {spacelike_separated(a, b)}")
print(f"{a} and itself?                  {spacelike_separated(a, a)}")

origin = DoubleCone.minimal(0, 0)
print(f"\n{origin} lies in the causal past of {a}? {causal_past(a).contains(origin)}")
print(f"far cone O^m(0,5) does?          {causal_past(a).contains(DoubleCone.minimal(0, 5))}")

# The two events of the standard correlated pair sit at (1,0) and (1,1).
# Their common past contains the surface double cone over sites 0..1,
# and for minimal cones the strong past coincides with the common past.
shared = DoubleCone.span(0, 0, 1)
common = pasts(a, b, "common")
strong = pasts(a, b, "strong")
weak = pasts(a, b, "weak")
print(f"\ncommon past apexes: {sorted(common.apexes)} (doubled light-cone coords)")
print(f"common past contains {shared}? {common.contains(shared)}")
print(f"strong past equals common past? {strong == common}")
print(f"weak contains common contains strong? "
      f"{weak.contains_region(common) and common.contains_region(strong)}")
