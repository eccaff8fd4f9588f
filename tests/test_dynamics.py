from fractions import Fraction

import numpy as np
import pytest

from isingccp import dynamics
from isingccp import (
    BudgetError,
    DynamicsParams,
    ExactnessError,
    Operator,
    PreconditionError,
    alpha_shift,
    apply_beta,
    beta_generator_image,
    check_primitive_causality,
    commutes,
    is_projection,
    localization,
    spacelike_separated,
    support_interval,
)
from conftest import half_sum, random_operator

HALF = Fraction(1, 2)


def random_params(rng):
    return DynamicsParams(
        float(rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2)),
        float(rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2)),
        int(rng.choice([1, -1])),
        int(rng.choice([1, -1])),
    )


def test_parameter_validation():
    DynamicsParams("pi/2", "0", 1, -1)
    with pytest.raises(PreconditionError):
        DynamicsParams(3.2, 0, 1, 1)
    with pytest.raises(PreconditionError):
        DynamicsParams(0, 0, 2, 1)


def test_image_at_theta_zero(std_params):
    img = beta_generator_image(std_params, 0, exact=True)
    expected = Operator.from_terms([(1, ["-1/2", "0", "1/2"], "+1")], exact=True)
    assert img == expected.with_labels(1, (0, 0))


def test_image_at_theta_half_pi():
    p = DynamicsParams("pi/2", "0", 1, 1)
    img = beta_generator_image(p, 0, exact=True)
    assert img == Operator.generator(0, exact=True).with_labels(1, (0, 0))


def test_exact_mode_rejects_generic_angle():
    p = DynamicsParams(0.3, 0, 1, 1)
    with pytest.raises(ExactnessError):
        beta_generator_image(p, 0, exact=True)


def test_generic_image_is_selfadjoint_unitary():
    rng = np.random.default_rng(21)
    one = Operator.identity()
    for _ in range(25):
        p = random_params(rng)
        for site in (0, HALF):
            img = beta_generator_image(p, site)
            assert (img.adjoint() - img).is_close_to_zero(1e-10)
            assert (img * img - one).is_close_to_zero(1e-10)


def test_images_preserve_generator_relations():
    rng = np.random.default_rng(22)
    for _ in range(25):
        p = random_params(rng)
        imgs = {s: beta_generator_image(p, s) for s in (0, HALF, 1, Fraction(3, 2))}
        for i, x in imgs.items():
            for j, y in imgs.items():
                if abs(i - j) == HALF:
                    assert (x * y + y * x).is_close_to_zero(1e-10)
                else:
                    assert (x * y - y * x).is_close_to_zero(1e-10)


def test_apply_beta_is_unital(std_params):
    assert apply_beta(std_params, Operator.identity(), 3).isclose(Operator.identity())


def test_apply_beta_builds_the_standard_events(std_params):
    a = apply_beta(std_params, half_sum(0, exact=True), 1)
    expected = Operator.from_terms(
        [(Fraction(1, 2), [], "+1"), (Fraction(1, 2), ["-1/2", "0", "1/2"], "+1")], exact=True
    )
    assert a == expected.with_labels(1, (0, 0))
    assert is_projection(a)
    assert apply_beta(std_params, half_sum(0, exact=True), 1) == a


def test_apply_beta_rejects_negative_time(std_params):
    with pytest.raises(PreconditionError):
        apply_beta(std_params, half_sum(0), -1)


def test_apply_beta_preserves_trace():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = random_params(rng)
        x = random_operator(rng)
        assert abs(complex(apply_beta(p, x, 1).trace() - x.trace())) < 1e-10


def test_apply_beta_is_multiplicative():
    rng = np.random.default_rng(24)
    for _ in range(10):
        p = random_params(rng)
        x, y = random_operator(rng, n_terms=3), random_operator(rng, n_terms=3)
        lhs = apply_beta(p, x * y, 1)
        rhs = apply_beta(p, x, 1) * apply_beta(p, y, 1)
        assert lhs.isclose(rhs, 1e-9)


def test_alpha_shift_examples():
    assert alpha_shift(Operator.generator(0), 1) == Operator.generator(1)
    rng = np.random.default_rng(25)
    x, y = random_operator(rng), random_operator(rng)
    assert alpha_shift(x * y, 2) == alpha_shift(x, 2) * alpha_shift(y, 2)


def test_alpha_commutes_with_beta():
    rng = np.random.default_rng(26)
    for _ in range(10):
        p = random_params(rng)
        x = random_operator(rng, n_terms=3)
        lhs = alpha_shift(apply_beta(p, x, 1), 1)
        rhs = apply_beta(p, alpha_shift(x, 1), 1)
        assert lhs.isclose(rhs, 1e-10)


def test_primitive_causality_bounds():
    rng = np.random.default_rng(27)
    for _ in range(25):
        p = random_params(rng)
        assert check_primitive_causality(p, 0)
        assert check_primitive_causality(p, HALF)
    # fixed-point parameters shrink the support strictly (exactly at pi/2)
    p = DynamicsParams("pi/2", "0", 1, 1)
    assert support_interval(beta_generator_image(p, 0, exact=True)) == (0, 0)
    assert check_primitive_causality(p, 0, exact=True)
    assert check_primitive_causality(p, 0)
    # the half-integer image at theta = 0 expands exactly one site each way
    p0 = DynamicsParams("0", "0", 1, 1)
    img = beta_generator_image(p0, HALF, exact=True)
    assert support_interval(img) == (Fraction(-1, 2), Fraction(3, 2))
    assert check_primitive_causality(p0, HALF, exact=True)


def test_einstein_causality_after_evolution():
    rng = np.random.default_rng(28)
    for _ in range(20):
        p = random_params(rng)
        # supports over sites [0, 1] and [3, 4]: spacelike after one step
        x = apply_beta(p, random_operator(rng, lo=0, hi=3, n_terms=3), 1)
        y = apply_beta(p, random_operator(rng, lo=6, hi=9, n_terms=3), 1)
        if x.is_zero or y.is_zero:
            continue
        assert spacelike_separated(localization(x), localization(y))
        assert commutes(x, y, 1e-12)


def test_evolved_localization(std_params, events_exact):
    a, b = events_exact
    la, lb = localization(a), localization(b)
    assert (la.t, la.i, la.j) == (1, 0, 0)
    assert (lb.t, lb.i, lb.j) == (1, 1, 1)
    assert spacelike_separated(la, lb)


def test_three_steps_at_generic_angles_fit_the_image_cache():
    # every generic-angle scenario brings fresh angles, so its images are
    # never reused by the next one; one event at t = 3 must still fit
    dynamics._generator_image.cache_clear()
    apply_beta(DynamicsParams(0.3, 0.7), half_sum(0), 3)
    info = dynamics._generator_image.cache_info()
    assert info.maxsize == 256
    assert 0 < info.currsize == info.misses  # nothing was evicted


def test_evolution_past_the_budget_raises():
    # at generic angles the event (1 + U_0)/2 multiplies 57,055 monomial pairs
    # over three steps and about 14 million over four
    params, x = DynamicsParams(0.7, 0.4), half_sum(0)
    assert len(apply_beta(params, x, 3)) == 1152
    with pytest.raises(BudgetError, match="monomial pairs to evolve an operator, over the budget"):
        apply_beta(params, x, 4)
