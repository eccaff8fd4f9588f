"""The generator algebra: signs, projections, traces, and the matrix oracle.

One self-adjoint unitary generator sits at every half-integer site; nearest
half-integer neighbours anticommute and everything else commutes.
"""

from fractions import Fraction

import numpy as np

from isingccp import (
    Operator,
    commutes,
    is_projection,
    support_interval,
    to_matrix,
)

half = Fraction(1, 2)


def word(sites):
    """A word in the generators, as a one-term exact operator."""
    return Operator.from_terms([(1, sites)], exact=True)


u0 = word([0])
uh = word([half])
print("U(0)*U(1/2)  =", u0 * uh)
print("U(1/2)*U(0)  =", uh * u0, "   (the swap costs a sign)")
print("U(0)*U(0)    =", u0 * u0)
print("U(0)*U(5) == U(5)*U(0)?", u0 * word([5]) == word([5]) * u0)

# (1 + U_{-1/2} U_0 U_{1/2}) / 2 is a projection of trace 1/2
w = Operator.from_terms(
    [(Fraction(1, 2), [], "+1"), (Fraction(1, 2), ["-1/2", "0", "1/2"], "+1")], exact=True
)
print("\nprojection?      ", is_projection(w))
print("normalized trace:", w.trace())
print("support interval: ", support_interval(w))

# every nonidentity monomial is traceless
print("tr U(0) =", Operator.generator(0, exact=True).trace())

# the dense-matrix oracle realizes the relations on qubits
window = (0, Fraction(3, 2))
x = Operator.generator(0)
y = Operator.generator(half)
mx, my = to_matrix(x, window), to_matrix(y, window)
print("\noracle: U(0) anticommutes with U(1/2)?",
      np.allclose(mx @ my, -my @ mx), "| algebra says:", not commutes(x, y))
print("oracle matrix of U(0) on one site:\n", to_matrix(x, (0, 0)).real)
