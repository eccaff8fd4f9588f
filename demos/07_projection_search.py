"""Searching a window algebra for screening-off projections numerically.

Candidates are rank-fixed spectral projections of self-adjoint window
elements, driven to zero residual by least squares with an analytic
Jacobian from random restarts.  On the pi-weighted state the unconstrained search finds
noncommuting solutions at once, while restricting to candidates commuting
with both events finds nothing, matching the exact enumeration.
"""

import numpy as np

from isingccp import (
    DoubleCone,
    DynamicsParams,
    Operator,
    SolverConfig,
    apply_beta,
    build_lambda_state,
    solve_noncommuting_cc,
)

p = DynamicsParams("0", "0", 1, 1)


def event(site):
    base = Operator.from_terms([(0.5, [], "+1"), (0.5, [site], "+1")])
    return apply_beta(p, base, 1)


state = build_lambda_state(event(0), event(1), {
    "AB": 0.25, "ApBp": 0.25, "ABp": 0.25 + np.pi / 20, "ApB": 0.25 - np.pi / 20,
})
window = DoubleCone.span(0, 0, 1)

found = solve_noncommuting_cc(state, window, SolverConfig(seed=7, restarts=8, tol=1e-8))
print(f"unconstrained search: {len(found)} candidates")
for cand in found[:3]:
    print(f"  restart {cand.restart}: residuals {[f'{r:.1e}' for r in cand.residuals]}, "
          f"commuting={cand.commuting}, support={cand.support}, "
          f"in common past={cand.localization['common']}")

constrained = solve_noncommuting_cc(
    state, window, SolverConfig(seed=7, restarts=8, tol=1e-8, commuting_constraint=True)
)
print(f"\ncommuting-constrained search: {len(constrained)} candidates "
      "(none exist on this window)")
