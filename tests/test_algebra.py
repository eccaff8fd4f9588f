import math
import struct
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingccp import algebra
from isingccp import (
    DoubleCone,
    DynamicsParams,
    EXACT_I,
    ExactScalar,
    ExactnessError,
    ModeError,
    Operator,
    PI,
    PreconditionError,
    commutes,
    is_projection,
    localization,
    product_trace,
    alpha_shift,
    apply_beta,
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


def test_division_and_left_multiplication_by_a_scalar():
    a, f = half_sum(0, exact=True), half_sum(0)
    assert a / 2 == a.scaled(Fraction(1, 2))
    assert a / Fraction(1, 3) == a.scaled(3)
    with pytest.raises(ExactnessError):
        a / 0.5
    with pytest.raises(ModeError):
        a / "a"
    assert f / 4 == f.scaled(0.25)
    assert 2 * a == a.scaled(2) and 2 * f == f.scaled(2)


def test_exact_operators_refuse_pi_coefficients():
    # a projection's coefficients carry no pi, so pi enters only through weights
    with pytest.raises(ExactnessError, match="Gaussian rationals"):
        Operator.from_terms([(PI, [])], exact=True)
    a = half_sum(0, exact=True)
    with pytest.raises(ExactnessError):
        a.scaled(PI)
    with pytest.raises(ExactnessError):
        a * (1 + PI * EXACT_I)
    assert Operator.from_terms([(EXACT_I / 3, [0])], exact=True).trace() == 0


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


def test_qubit_range_is_the_oracle_dimension():
    # doubled windows from -3..3: at most 7 qubits
    for lo2 in range(-6, 7):
        for hi2 in range(lo2, 7):
            window = (Fraction(lo2, 2), Fraction(hi2, 2))
            qubits = algebra.qubit_range((lo2, hi2))
            assert qubits == range(math.floor(window[0]), math.ceil(window[1]) + 1)
            assert to_matrix(Operator.identity(), window).shape[0] == 2 ** len(qubits)
        with pytest.raises(PreconditionError):
            algebra.qubit_range((lo2, lo2 - 1))
        with pytest.raises(PreconditionError):
            to_matrix(Operator.identity(), (Fraction(lo2, 2), Fraction(lo2 - 1, 2)))


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


def test_sites_above_the_encoding_limit_are_rejected():
    highest = Operator.generator(12000)
    assert support_interval(highest) == (12000, 12000)
    assert alpha_shift(Operator.generator(0), 12000) == highest
    for site in (Fraction(24001, 2), 10 ** 30):
        with pytest.raises(PreconditionError, match="between -32 and 12000"):
            Operator.generator(site)
    with pytest.raises(PreconditionError):
        alpha_shift(highest, 1)


def test_oracle_relations():
    win = (0, 2)
    sites = [0, HALF, 1, Fraction(3, 2), 2]
    mats = {s: to_matrix(Operator.generator(s), win) for s in sites}
    for i in sites:
        for j in sites:
            sign = -1 if abs(i - j) == HALF else 1
            assert np.array_equal(mats[i] @ mats[j], sign * (mats[j] @ mats[i]))
        assert np.array_equal(mats[i] @ mats[i], np.eye(8))
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


@pytest.mark.parametrize("work", [10 ** 9, 1], ids=["dicts", "arrays"])
def test_arithmetic_localizes_by_support(std_params, events_float, work):
    a, b = events_float
    if work == 1:
        a, b = (algebra._operator(None, x._arrays(), False, x.time, x.base) for x in (a, b))
    one = Operator.identity()
    with patch.object(algebra, "_ARRAY_WORK", work):
        # the events keep the cones evolution gave them
        assert localization(a) == DoubleCone.minimal(1, 0)
        assert localization(b) == DoubleCone.minimal(1, 1)
        # arithmetic carries no label: the product lives over its support
        # hull at t = 0, a looser cone than O[t=1](0,1) and valid by isotony
        assert localization(a * b) == DoubleCone(0, -1, 3)
        for x in (-a, a.scaled(2), a.adjoint()):
            assert localization(x) == DoubleCone(0, -1, 1)
        # so apply_beta takes arithmetic results and evolves them over their support
        assert localization(apply_beta(std_params, a * b, 1)) == DoubleCone(1, -1, 3)
        assert localization(apply_beta(std_params, one - a, 1)) == DoubleCone(1, -1, 1)


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


# -- float product kernel -------------------------------------------------------


def loop_product(x, y):
    """Terms of x * y by the pair loop, the reference for the array kernel."""
    acc = {}
    for s1, c1 in x._terms.items():
        for s2, c2 in y._terms.items():
            c = c1 * c2
            if (s1 & (s2 << 1)).bit_count() & 1:
                c = -c
            key = s1 ^ s2
            acc[key] = acc.get(key, 0j) + c
    return {key: c for key, c in acc.items() if c != 0}


def bits(terms):
    """Keys in dict order with the exact bits of each coefficient."""
    return [(key, struct.pack("<dd", c.real, c.imag)) for key, c in terms.items()]


def loop_sum(x, y):
    """Terms of a sum of two term dicts by the dict loop."""
    acc = dict(x)
    for key, c in y.items():
        acc[key] = acc.get(key, 0j) + c
    return {key: c for key, c in acc.items() if c != 0}


def loop_product_trace(x, y):
    """product_trace(x, y) by the dict loop."""
    total = 0j
    for key, cx in x._terms.items():
        cy = y._terms.get(key)
        if cy is not None:
            prod = cx * cy
            total = total + (-prod if (key & (key << 1)).bit_count() & 1 else prod)
    return total


# signed zeros, values whose products round, and full-precision draws
_parts = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.1, 1 / 3]) | st.floats(-10, 10)
_scalars = st.builds(complex, _parts, _parts)


@st.composite
def float_operators(draw, lo=-64, hi=-5):
    """Float operators over doubled sites lo .. hi (site -32 is the lowest
    encodable one), with every coefficient kept exactly as drawn."""
    terms = draw(st.dictionaries(
        st.frozensets(st.integers(lo, hi), max_size=4),
        _scalars,
        max_size=12,
    ))
    return Operator.from_terms(
        [(c, [Fraction(d, 2) for d in sorted(sites)]) for sites, c in terms.items()]
    )


@settings(max_examples=300, deadline=None)
@given(float_operators(), float_operators(), st.sampled_from([0, 30]),
       st.sampled_from([1, 2, 3, 7, 1 << 14]))
def test_float_product_matches_the_pair_loop(x, y, shift, block):
    # a shift of 30 puts the keys above the int64 range, so the kernel must
    # shift them down; small blocks carry running sums from block to block
    x, y = alpha_shift(x, shift), alpha_shift(y, shift)
    with patch.object(algebra, "_BLOCK_PAIRS", block), patch.object(algebra, "_ARRAY_WORK", 1):
        assert bits((x * y)._terms) == bits(loop_product(x, y))


@settings(max_examples=200, deadline=None)
@given(float_operators(-64, -40), float_operators(-39, -5), st.sampled_from([0, 30]),
       st.sampled_from([1, 2, 3, 7]), st.booleans())
def test_disjoint_float_products_take_the_pairs_in_order(x, y, shift, block, swap):
    # no site lies in both factors, so every pair is its own term; a product
    # over several blocks gathers them without grouping.  Doubled sites -40
    # and -39 anticommute, so one of the two orders carries signs.
    x, y = (y, x) if swap else (x, y)
    x, y = alpha_shift(x, shift), alpha_shift(y, shift)
    with patch.object(algebra, "_BLOCK_PAIRS", block), patch.object(algebra, "_ARRAY_WORK", 1), \
            patch.object(algebra, "_group", wraps=algebra._group) as group:
        assert bits((x * y)._terms) == bits(loop_product(x, y))
    if len(x) > block:
        assert not group.called


def test_far_apart_events_multiply_without_grouping():
    params = DynamicsParams(0.7, 0.4)
    a = apply_beta(params, half_sum(0), 2)
    b = apply_beta(params, half_sum(10), 2)
    one = Operator.identity()
    pairs = ((a, b), (one - a, one - b), (b, a))
    with patch.object(algebra, "_BLOCK_PAIRS", 64), \
            patch.object(algebra, "_group", wraps=algebra._group) as group:
        for x, y in pairs:
            assert bits((x * y)._terms) == bits(loop_product(x, y))
    assert not group.called


@st.composite
def mixed_operators(draw):
    """Float operators for every path of the float arithmetic: keys spanning 8
    bits (direct-address table), 17 and 60 bits (sort), or 70 bits (dict
    loops), shifted above the int64 range or not, with terms held in a dict
    (``from_terms``), as arrays only, or made by the product kernel."""
    span, shift = draw(st.sampled_from([8, 17, 60, 70])), draw(st.sampled_from([0, 30]))
    x = alpha_shift(draw(float_operators(-64, -65 + span)), shift)
    born = draw(st.sampled_from(["dict", "arrays", "product"]))
    if born == "arrays" and x._arrays() is not None:
        return algebra._operator(None, x._arrays(), False, x.time, x.base)
    if born == "product":
        with patch.object(algebra, "_ARRAY_WORK", 1):
            return x * alpha_shift(draw(float_operators(-64, -57)), shift)
    return x


def check_sums_and_traces(x, y, scalar):
    """Sums, differences, negation, scaling, adjoint and traces against the
    dict loops, bit for bit."""
    negated = {key: -c for key, c in y._terms.items()}
    assert bits((x + y)._terms) == bits(loop_sum(x._terms, y._terms))
    assert bits((x - y)._terms) == bits(loop_sum(x._terms, negated))
    assert bits((-y)._terms) == bits(negated)
    assert bits(x.scaled(scalar)._terms) == bits(
        {key: c * scalar for key, c in x._terms.items() if c * scalar != 0})
    assert bits(x.adjoint()._terms) == bits(
        {key: -c.conjugate() if (key & (key << 1)).bit_count() & 1 else c.conjugate()
         for key, c in x._terms.items()})
    assert bits({0: x.trace()}) == bits({0: x._terms.get(0, 0j)})
    assert bits({0: product_trace(x, y)}) == bits({0: loop_product_trace(x, y)})
    assert x.sup_coefficient() == max((abs(c) for c in x._terms.values()), default=0.0)


@settings(max_examples=300, deadline=None)
@given(mixed_operators(), mixed_operators(), _scalars, st.sampled_from([1, algebra._ARRAY_WORK]))
def test_float_sums_and_traces_match_the_dict_loops(x, y, scalar, work):
    # with work 1 every sum and product trace takes the arrays; with the
    # default, small ones take the loops on operators that may hold arrays only
    with patch.object(algebra, "_ARRAY_WORK", work):
        check_sums_and_traces(x, y, scalar)


@settings(max_examples=100, deadline=None)
@given(float_operators(0, 7), float_operators(0, 7), st.sampled_from([0, 30]))
def test_kernel_born_operators_read_like_their_rebuild(x, y, shift):
    # from_terms keeps each coefficient as given, so the rebuild holds the
    # pair loop's terms in its order with its bits
    x, y = alpha_shift(x, shift), alpha_shift(y, shift)
    with patch.object(algebra, "_ARRAY_WORK", 1):
        born = x * y
    rebuilt = Operator.from_terms(
        [(c, [Fraction(d, 2) for d in algebra._sites(key)]) for key, c in loop_product(x, y).items()]
    )
    assert bits(born._terms) == bits(rebuilt._terms)
    assert [(sites, bits({0: c})) for sites, c in born.terms()] == [
        (sites, bits({0: c})) for sites, c in rebuilt.terms()]
    assert born == rebuilt and hash(born) == hash(rebuilt)
    assert str(born) == str(rebuilt)
    window = (shift, shift + Fraction(7, 2))
    assert np.array_equal(to_matrix(born, window), to_matrix(rebuilt, window))


def test_float_product_falls_back_on_keys_wider_than_int64():
    # keys spanning 62 bits fit (shifted left once, they stay below the sign
    # bit of int64); from 63 bits on the loop computes the product
    for top, fits in ((Fraction(29, 2), True), (15, False), (31, False)):
        x = Operator.from_terms([(0.5 + 0.25j, [-16, 0]), (1 / 3, [HALF, top])])
        y = Operator.from_terms([(-0.1j, [0, top]), (0.7 - 0.3j, [-16]), (0.2, [top])])
        assert (algebra._aligned(x, y) is not None) == fits
        assert (x._arrays() is not None) == fits
        assert bits((x * y)._terms) == bits(loop_product(x, y))
    # 34 and 31 bits each, 63 together
    x = Operator.from_terms([(0.5 + 0.25j, [-16, 0]), (1 / 3, [HALF])])
    y = Operator.from_terms([(-0.1j, [0, 15]), (0.2, [15])])
    assert x._arrays() is not None and y._arrays() is not None
    assert algebra._aligned(x, y) is None
    assert bits((x * y)._terms) == bits(loop_product(x, y))


def test_float_product_at_three_steps_of_generic_angles():
    params = DynamicsParams(0.3, 0.7)
    a = apply_beta(params, half_sum(0), 3)
    b = apply_beta(params, half_sum(1), 3)
    assert len(a) == 1152
    for x, y in ((a, a), (a, b)):
        assert bits((x * y)._terms) == bits(loop_product(x, y))
