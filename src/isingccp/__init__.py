"""isingccp: chain operator algebra on a discrete Minkowski net with
correlating states and common-cause (screening-off) analysis.

The package provides, layer by layer:

- :mod:`isingccp.geometry`  -- minimal double cones, light cones, pasts;
- :mod:`isingccp.algebra`   -- the generator algebra, traces, projections
  and a dense-matrix oracle;
- :mod:`isingccp.dynamics`  -- the parametrized causal time step and
  space translation;
- :mod:`isingccp.states`    -- sector-weighted faithful states and the
  partition conditional expectation;
- :mod:`isingccp.causal`    -- classical, commuting and noncommuting
  screening-off deciders, including the exact rank-profile enumeration;
- :mod:`isingccp.search`    -- a numerical search for noncommuting
  screening-off partitions;
- :mod:`isingccp.cli`       -- the `isingccp` command.

Exact mode carries scalars in Q(i)[pi] so correlation values and the
commuting screening-off decision are computed with no floating tolerance.
"""

__version__ = "0.1.0"

from .algebra import (
    DEFAULT_TOL,
    Operator,
    commutes,
    is_projection,
    localization,
    product_trace,
    support_interval,
    to_matrix,
    window_monomials,
)
from .causal import (
    CcsReport,
    EnumerationResult,
    ProbabilitySpace,
    classical_ccs_check,
    common_cause_candidate,
    commuting_ccs_residuals,
    enumerate_commuting_tuples,
    exact_wccp_decision,
    noncommuting_ccs_residuals,
    screening_weight,
)
from .dynamics import (
    DynamicsParams,
    alpha_shift,
    apply_beta,
    beta_generator_image,
    check_primitive_causality,
)
from .errors import (
    BudgetError,
    ExactnessError,
    ModeError,
    PreconditionError,
    SchemaError,
)
from .exact import EXACT_I, PI, ExactScalar, parse_exact
from .geometry import (
    DoubleCone,
    Region,
    causal_future,
    causal_past,
    pasts,
    spacelike_separated,
)
from .search import Candidate, SolverConfig, solve_noncommuting_cc
from .states import (
    SECTORS,
    LambdaState,
    PartitionOfUnity,
    build_lambda_state,
    conditional_expectation,
    correlation,
    sector_correlation,
)

__all__ = [
    "__version__",
    # algebra
    "DEFAULT_TOL", "Operator", "commutes", "is_projection",
    "localization", "product_trace",
    "support_interval", "to_matrix", "window_monomials",
    # causal analysis
    "CcsReport", "EnumerationResult", "ProbabilitySpace", "classical_ccs_check",
    "common_cause_candidate", "commuting_ccs_residuals", "enumerate_commuting_tuples",
    "exact_wccp_decision", "noncommuting_ccs_residuals", "screening_weight",
    # dynamics
    "DynamicsParams", "alpha_shift", "apply_beta", "beta_generator_image",
    "check_primitive_causality",
    # errors
    "BudgetError", "ExactnessError", "ModeError", "PreconditionError", "SchemaError",
    # exact scalars
    "EXACT_I", "PI", "ExactScalar", "parse_exact",
    # geometry
    "DoubleCone", "Region", "causal_future", "causal_past",
    "pasts", "spacelike_separated",
    # search
    "Candidate", "SolverConfig", "solve_noncommuting_cc",
    # states
    "SECTORS", "LambdaState", "PartitionOfUnity", "build_lambda_state",
    "conditional_expectation", "correlation", "sector_correlation",
]
