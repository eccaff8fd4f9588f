from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingccp import (
    EXACT_I,
    ExactScalar,
    ModeError,
    Operator,
    PreconditionError,
    commutes,
    is_projection,
    localization,
    product_trace,
    alpha_shift,
    support_interval,
    to_matrix,
)
from conftest import half_sum, random_operator

HALF = Fraction(1, 2)


# -- monomials ----------------------------------------------------------------


def mono(sites, phase="+1"):
    """One monomial, the word over ``sites`` times ``phase``, as an exact operator."""
    return Operator.from_terms([(1, sites, phase)], exact=True)


def test_nearest_neighbour_anticommutation():
    u0 = mono([0])
    uh = mono([HALF])
    assert u0 * uh == mono([0, HALF])
    assert uh * u0 == mono([0, HALF], "-1")


def test_generators_square_to_identity():
    u0 = mono([0])
    assert u0 * u0 == Operator.identity(exact=True)


def test_distant_generators_commute():
    u0, u5 = mono([0]), mono([5])
    assert u0 * u5 == u5 * u0 == mono([0, 5])


def test_word_reduction_handles_order():
    # U_{1/2} U_0 written as an unsorted word picks up the swap sign
    assert mono([HALF, 0]) == mono([0, HALF], "-1")


sites_strategy = st.lists(st.integers(min_value=-6, max_value=6), min_size=0, max_size=5)
PHASES = ("+1", "+i", "-1", "-i")


@st.composite
def monomials(draw):
    word = draw(sites_strategy)
    return mono([Fraction(s, 2) for s in word]) * mono([], draw(st.sampled_from(PHASES)))


@settings(max_examples=300)
@given(monomials(), monomials(), monomials())
def test_monomial_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(monomials(), monomials())
def test_phase_group_closed(a, b):
    # a product of monomials is one monomial times a fourth root of unity
    ((_, coeff),) = (a * b).terms()
    assert coeff in (ExactScalar(1), EXACT_I, ExactScalar(-1), -EXACT_I)


def test_monomial_adjoint_phase_bookkeeping():
    m = mono([0, HALF], "+i")
    # (i U_0 U_{1/2})^dagger = -i U_{1/2} U_0 = i U_0 U_{1/2}
    assert m.adjoint() == m


# -- operators -----------------------------------------------------------------


def test_half_sum_is_projection():
    a = half_sum(HALF)
    assert is_projection(a)
    assert (a * a).isclose(a)


def test_unit_law_and_trace():
    one = Operator.identity()
    x = random_operator(np.random.default_rng(0))
    assert (x * one).isclose(x)
    assert one.trace() == 1
    assert Operator.generator(0).trace() == 0


def test_evolved_half_sum_trace(std_params):
    from isingccp import apply_beta

    a = apply_beta(std_params, half_sum(0, exact=True), 1)
    assert a.trace() == ExactScalar(Fraction(1, 2))


def test_selfadjoint_phase_combination():
    z = Operator.from_terms([(1, [0, HALF], "+i")])
    assert (z.adjoint() - z).is_zero


def test_commutation_examples(events_float):
    a, b = events_float
    assert commutes(a, b)
    assert not commutes(Operator.generator(0), Operator.generator(HALF))
    assert commutes(Operator.generator(0), Operator.identity())


def test_is_projection_counterexample():
    bad = Operator.from_terms([(0.5, [], "+1"), (1.0, [0], "+1")])
    assert not is_projection(bad)


def test_support_interval_cases():
    assert support_interval(Operator.generator(0)) == (0, 0)
    w = Operator.from_terms([(1.0, ["-1/2", "0", "1/2"], "+1")])
    assert support_interval(w) == (Fraction(-1, 2), Fraction(1, 2))
    assert support_interval(Operator.identity()) is None
    with pytest.raises(PreconditionError):
        support_interval(Operator.zero())


def test_trace_cyclicity_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = random_operator(rng), random_operator(rng)
        assert abs(complex((x * y).trace() - (y * x).trace())) < 1e-12


def test_product_trace_agrees_with_product():
    rng = np.random.default_rng(6)
    for _ in range(50):
        x, y = random_operator(rng), random_operator(rng)
        assert abs(complex(product_trace(x, y)) - complex((x * y).trace())) < 1e-12


def test_mode_mixing_raises(events_exact, events_float):
    with pytest.raises(ModeError):
        events_exact[0] * events_float[0]
    with pytest.raises(ModeError):
        events_float[0].scaled(ExactScalar(1))
    assert events_exact[0].to_float().isclose(events_float[0])


def test_exact_operator_arithmetic():
    a = half_sum(0, exact=True)
    assert (a * a - a).is_zero
    assert a.trace() == ExactScalar(Fraction(1, 2))


# -- the dense matrix oracle ----------------------------------------------------


def test_identity_and_single_site_matrices():
    assert np.array_equal(to_matrix(Operator.identity(), (0, 1)), np.eye(4))
    assert np.array_equal(to_matrix(Operator.generator(0), (0, 0)), np.diag([1.0, -1.0]))


def test_half_site_generator_matrix():
    m = to_matrix(Operator.generator(HALF), (0, HALF))
    x = np.array([[0, 1], [1, 0]])
    assert np.array_equal(m, np.kron(x, x))


def test_support_outside_window_rejected():
    with pytest.raises(PreconditionError):
        to_matrix(Operator.generator(5), (0, 1))


def test_oracle_is_a_homomorphism():
    rng = np.random.default_rng(7)
    # doubled sites from [lo, 8), the second range crossing below site 0
    for lo, win in ((0, (0, Fraction(7, 2))), (-6, (-3, Fraction(7, 2)))):
        for _ in range(40):
            x, y = random_operator(rng, lo=lo), random_operator(rng, lo=lo)
            mx, my = to_matrix(x, win), to_matrix(y, win)
            assert np.allclose(to_matrix(x * y, win), mx @ my, atol=1e-12)
            assert np.allclose(to_matrix(x.adjoint(), win), mx.conj().T, atol=1e-12)
            dim = mx.shape[0]
            assert abs(np.trace(mx) / dim - complex(x.trace())) < 1e-12


def test_sites_below_the_encoding_limit_are_rejected():
    lowest = Operator.generator(-32)
    assert support_interval(lowest) == (-32, -32)
    assert alpha_shift(Operator.generator(0), -32) == lowest
    for site in (-33, Fraction(-65, 2)):
        with pytest.raises(PreconditionError):
            Operator.generator(site)
        with pytest.raises(PreconditionError):
            Operator.from_terms([(1.0, [0, site])])
    with pytest.raises(PreconditionError):
        alpha_shift(half_sum(HALF), -33)


def test_oracle_relations():
    win = (0, 2)
    sites = [0, HALF, 1, Fraction(3, 2), 2]
    mats = {s: to_matrix(Operator.generator(s), win) for s in sites}
    for i in sites:
        for j in sites:
            sign = -1 if abs(i - j) == HALF else 1
            assert np.array_equal(mats[i] @ mats[j], sign * (mats[j] @ mats[i]))
    # explicit images on qubits -1, 0, 1 (qubit -1 is the leftmost factor)
    x, z, one = np.array([[0, 1], [1, 0]]), np.diag([1, -1]), np.eye(2)

    def on(factors):
        return np.kron(np.kron(factors.get(-1, one), factors.get(0, one)), factors.get(1, one))

    for k in (-1, 0, 1):
        assert np.array_equal(to_matrix(Operator.generator(k), (-1, 1)), on({k: z}))
    for k in (-1, 0):
        image = on({k: x, k + 1: x})
        assert np.array_equal(to_matrix(Operator.generator(k + HALF), (-1, 1)), image)


def test_localization_labels(std_params, events_float):
    a, b = events_float
    assert localization(a) == localization(a)  # stable
    assert (localization(a).t, localization(a).i2, localization(a).j2) == (1, 0, 0)
    assert (localization(b).t, localization(b).i2, localization(b).j2) == (1, 2, 2)
    surf = half_sum(HALF)
    assert localization(surf).t == 0


def test_trace_cyclicity_exact_mode():
    rng = np.random.default_rng(8)
    for _ in range(20):
        terms = []
        for _ in range(3):
            k = rng.integers(0, 6, size=int(rng.integers(1, 4)))
            sites = sorted(set(Fraction(int(v), 2) for v in k))
            coeff = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            terms.append((coeff, sites, "+1"))
        x = Operator.from_terms(terms, exact=True)
        y = Operator.from_terms(list(reversed(terms)), exact=True)
        assert (x * y).trace() == (y * x).trace()
