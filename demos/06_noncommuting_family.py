"""An explicit family of noncommuting screening-off partitions.

Dropping the requirement that the cells commute with the events, and
conditioning through E(x) = C x C + C' x C' instead, the projections

    C = (1 + a1 U(1/2) + a2 U(1) + i a3 U(0) U(1/2)) / 2,   a1^2+a2^2+a3^2 = 1,

screen off the correlation for every unit triple whenever the weights
satisfy w_AB + w_A'B' = w_AB' + w_A'B.  Their support lies in the common
past of the two events, which here equals the strong past.
"""

from fractions import Fraction

import numpy as np

from isingccp import (
    DoubleCone,
    DynamicsParams,
    Operator,
    PartitionOfUnity,
    apply_beta,
    build_lambda_state,
    common_cause_candidate,
    localization,
    noncommuting_ccs_residuals,
    parse_exact,
    pasts,
    support_interval,
)

half = Fraction(1, 2)
p = DynamicsParams("0", "0", 1, 1)


def event(site):
    base = Operator.from_terms([(half, [], "+1"), (half, [site], "+1")], exact=True)
    return apply_beta(p, base, 1)


a, b = event(0), event(1)
state = build_lambda_state(a, b, {
    "AB": parse_exact("1/4"), "ApBp": parse_exact("1/4"),
    "ABp": parse_exact("1/4+pi/20"), "ApB": parse_exact("1/4-pi/20"),
})

one = Operator.identity(True)
for triple in [(1, 0, 0), (Fraction(3, 5), Fraction(4, 5), 0), (0, Fraction(3, 5), Fraction(4, 5))]:
    c = common_cause_candidate(*triple, exact=True)
    report = noncommuting_ccs_residuals(state, PartitionOfUnity([c, one - c]))
    residuals = [str(cell.residual) for cell in report.cells]
    print(f"a = {triple}: residuals {residuals}, trivial? {report.trivial}")

# localization: the candidate support sits in the common past of the events
c = common_cause_candidate(0, Fraction(3, 5), Fraction(4, 5), exact=True)
span = support_interval(c)
cone = DoubleCone.span(0, span[0], span[1])
common = pasts(localization(a), localization(b), "common")
print(f"\nsupport {span} as {cone}; inside the common past? "
      f"{common.contains(cone)}")

# the identity needs the balanced-weight condition: an unbalanced state fails
unbalanced = build_lambda_state(a.to_float(), b.to_float(),
                                {"AB": 0.3, "ApBp": 0.3, "ABp": 0.25, "ApB": 0.15})
v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
cf = common_cause_candidate(*v)
report = noncommuting_ccs_residuals(unbalanced, PartitionOfUnity([cf, Operator.identity() - cf]))
print(f"\nunbalanced weights: residual {report.cells[0].residual.real:.6f} (nonzero)")
