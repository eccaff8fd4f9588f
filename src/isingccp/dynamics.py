"""Causal unit time evolution and integer space translation of the chain.

The unit time step is the automorphism family parametrized by two angles
and two signs.  On an integer-site generator it acts as

    U_x -> eta1 sin^2(t1) U_x + eta1 cos^2(t1) U_{x-1/2} U_x U_{x+1/2}
           + (i/2) sin(2 t1) (U_{x-1/2} U_x - U_x U_{x+1/2})

and on a half-integer-site generator the same shape with the second
parameter pair, with the already-evolved images of the two neighbouring
integer-site generators substituted in place of those generators.  The
image of any generator stays inside its three-cone past neighbourhood,
which is the discrete form of local primitive causality.

No inverse step is computed: operators living at a later time are always
constructed as forward images of Cauchy-surface operators and carry a time
label recording that construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .algebra import Operator, support_interval
from .errors import DEFAULT_BUDGET, BudgetError, ExactnessError, PreconditionError, SchemaError
from .exact import ExactScalar, is_zero
from .halfint import from_double, to_double

__all__ = [
    "DynamicsParams",
    "beta_generator_image",
    "apply_beta",
    "alpha_shift",
    "check_primitive_causality",
]

_HALF_PI = math.pi / 2


def _parse_angle(value) -> float:
    if isinstance(value, bool):
        raise SchemaError(f"{value!r} is not an angle; use radians, '0' or 'pi/2'")
    if isinstance(value, str):
        token = value.replace(" ", "")
        if token == "0":
            return 0.0
        if token in ("pi/2", "1/2*pi"):
            return _HALF_PI
        try:
            return float(token)
        except ValueError as exc:
            raise SchemaError(f"cannot parse angle {value!r}; use radians, '0' or 'pi/2'") from exc
    return float(value)


@dataclass(frozen=True)
class DynamicsParams:
    """Parameters (theta1, theta2, eta1, eta2) of the unit time step.

    Angles lie in (-pi/2, pi/2]; the signs are +1 or -1.  In exact mode only
    theta in {0, pi/2} is admissible, since other angles have irrational
    evolution coefficients.
    """

    theta1: float = 0.0
    theta2: float = 0.0
    eta1: int = 1
    eta2: int = 1

    def __post_init__(self):
        object.__setattr__(self, "theta1", _parse_angle(self.theta1))
        object.__setattr__(self, "theta2", _parse_angle(self.theta2))
        for name in ("theta1", "theta2"):
            th = getattr(self, name)
            if not (-_HALF_PI < th <= _HALF_PI):
                raise PreconditionError(f"{name}={th} outside (-pi/2, pi/2]")
        for name in ("eta1", "eta2"):
            if getattr(self, name) not in (1, -1):
                raise PreconditionError(f"{name} must be +1 or -1")

    def _coefficients(self, which: int, exact: bool):
        """(sin^2, cos^2, i sin(2 theta)/2) for parameter pair 1 or 2."""
        theta = self.theta1 if which == 1 else self.theta2
        if exact:
            if theta == 0.0:
                return ExactScalar(0), ExactScalar(1), ExactScalar(0)
            if theta == _HALF_PI:
                return ExactScalar(1), ExactScalar(0), ExactScalar(0)
            raise ExactnessError(
                f"theta{which}={theta} has irrational coefficients; "
                "exact mode needs theta in {0, pi/2}"
            )
        s, c = math.sin(theta), math.cos(theta)
        return s * s, c * c, 1j * (s * c)


# Each generic-angle scenario brings fresh angles, so no later scenario hits
# its images; 256 entries still hold the 9 images of an event at t = 3 many
# times over.
@lru_cache(maxsize=256)
def _generator_image(params: DynamicsParams, site2: int, exact: bool) -> Operator:
    integer = site2 % 2 == 0
    s2, c2, i_h = params._coefficients(1 if integer else 2, exact)
    eta = params.eta1 if integer else params.eta2
    if integer:
        left, x, right = from_double(site2 - 1), from_double(site2), from_double(site2 + 1)
        img = Operator.from_terms([(eta * s2, [x]), (eta * c2, [left, x, right])], exact)
        if not is_zero(i_h):
            img = img + Operator.from_terms([(i_h, [left, x]), (-i_h, [x, right])], exact)
        return img
    left = _generator_image(params, site2 - 1, exact)
    right = _generator_image(params, site2 + 1, exact)
    mid = Operator.generator(from_double(site2), exact)
    img = mid.scaled(eta * s2) + (left * mid * right).scaled(eta * c2)
    if not is_zero(i_h):
        img = img + (left * mid - mid * right).scaled(i_h)
    return img


def beta_generator_image(params: DynamicsParams, site, exact: bool = False) -> Operator:
    """The image of the generator at ``site`` under one causal time step.

    The result is labelled as living at time 1 over the generator's site.
    """
    d = to_double(site)
    return _generator_image(params, d, exact).with_labels(1, (d, d))


def apply_beta(params: DynamicsParams, x: Operator, t: int) -> Operator:
    """Evolve a Cauchy-surface operator forward by t unit time steps.

    The map is the homomorphic extension of the generator images: each
    monomial goes to the ordered product of its generators' images, with
    coefficients untouched.  The result carries time label t and remembers
    the surface support of x.  x needs time label 0, which every operator
    has except the images evolution labels, so an arithmetic result, even
    of evolved operators, is evolved over its support.

    Once its products have multiplied more than ``DEFAULT_BUDGET`` pairs of
    monomials, it raises :class:`~isingccp.errors.BudgetError`.
    """
    if t < 0:
        raise PreconditionError(
            "inverse evolution is not computed; build operators at a later "
            "time as forward images of surface operators with apply_beta"
        )
    if x.time != 0:
        raise PreconditionError("apply_beta expects an operator with time label 0")
    span = None if x.is_zero else support_interval(x)
    base = None if span is None else (to_double(span[0]), to_double(span[1]))
    out, pairs = x, 0
    for _ in range(t):
        acc = Operator.zero(x.exact)
        for sites, coeff in out.terms():
            term = Operator.identity(x.exact)
            for s in sites:
                image = _generator_image(params, s, x.exact)
                pairs += len(term) * len(image)
                if pairs > DEFAULT_BUDGET:
                    raise BudgetError(f"evolving by {t} steps multiplies over {DEFAULT_BUDGET}"
                                      " monomial pairs, the budget")
                term = term * image
            acc = acc + term.scaled(coeff)
        out = acc
    return out.with_labels(t, base)


def alpha_shift(x: Operator, dx: int) -> Operator:
    """Integer space translation: every site i goes to i + dx."""
    dx = int(dx)
    shifted = Operator.from_terms(
        ((c, [from_double(s + 2 * dx) for s in sites]) for sites, c in x.terms()), x.exact
    )
    base = None if x.base is None else (x.base[0] + 2 * dx, x.base[1] + 2 * dx)
    return shifted.with_labels(x.time, base)


def check_primitive_causality(params: DynamicsParams, site, exact: bool = False) -> bool:
    """True iff the generator image stays within its causal neighbourhood:
    half a site each way for integer sites, one site each way for
    half-integer sites."""
    d = to_double(site)
    img = _generator_image(params, d, exact)
    span = support_interval(img)
    if span is None:
        return True
    lo, hi = to_double(span[0]), to_double(span[1])
    reach = 1 if d % 2 == 0 else 2
    return lo >= d - reach and hi <= d + reach
