from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from isingccp import EXACT_I, ExactScalar, ExactnessError, parse_exact
from isingccp.exact import is_zero, zero

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys = st.lists(rationals, min_size=0, max_size=4)
gaussians = st.tuples(rationals, rationals).map(lambda t: ExactScalar(*t))


def scalar(re=(), im=()):
    return ExactScalar(tuple(re), tuple(im))


def test_zero_iff_all_coefficients_vanish():
    assert not scalar()
    assert scalar((Fraction(1, 3),))
    assert scalar((0, Fraction(1, 3)))
    # pi is transcendental: a + b*pi + c*pi^2 == 0 only coefficient-wise
    assert scalar((1, -1)) != ExactScalar(0)


def test_the_zero_of_each_scalar_mode():
    assert type(zero(True)) is ExactScalar and is_zero(zero(True))
    assert type(zero(False)) is complex and is_zero(zero(False))
    for value in (0, 0.0, -0.0, 0j, Fraction(0), scalar(), scalar((0,), (0, 0))):
        assert is_zero(value)
    for value in (1e-300, 1e-300j, float("nan"), Fraction(1, 10**9), scalar((), (0, 1)), EXACT_I):
        assert not is_zero(value)


def test_product_rule_linear_terms():
    a, b, c, d = Fraction(2, 3), Fraction(-1, 7), Fraction(5), Fraction(1, 2)
    lhs = scalar((a, b)) * scalar((c, d))
    assert lhs == scalar((a * c, a * d + b * c, b * d))


@given(polys, polys, polys)
def test_multiplication_distributes(p, q, r):
    x, y, z = scalar(p), scalar(q), scalar(r)
    assert x * (y + z) == x * y + x * z


@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert scalar(p) * scalar(q) == scalar(q) * scalar(p)


@given(polys, polys, rationals)
def test_subtraction_from_a_rational_negates(p, q, n):
    x = scalar(p, q)
    assert n - x == -(x - n)


@given(gaussians.filter(bool), rationals)
def test_a_rational_over_a_gaussian_divides_back(x, n):
    assert (n / x) * x == n


@given(polys, polys, gaussians.filter(bool))
def test_division_by_a_gaussian_divides_back(p, q, y):
    x = scalar(p, q)
    assert (x / y) * y == x


def test_str_of_a_complex_value():
    assert str(ExactScalar(0, Fraction(1, 2))) == "(1/2)*i"
    assert str(parse_exact("1/4+pi/20") + EXACT_I * parse_exact("pi^2")) == "(1/4+1/20*pi)+(pi^2)*i"


def test_parse_tokens():
    assert parse_exact("1/4+pi/20") == scalar((Fraction(1, 4), Fraction(1, 20)))
    assert parse_exact("1/16-1/400*pi^2") == scalar((Fraction(1, 16), 0, Fraction(-1, 400)))
    assert parse_exact("pi/2") == scalar((0, Fraction(1, 2)))
    assert parse_exact("-3/5") == ExactScalar(Fraction(-3, 5))
    assert parse_exact("2*pi") == scalar((0, 2))


def test_parse_round_trip():
    for token in ("1/4+1/20*pi", "1/16-1/400*pi^2", "0", "-1/2", "pi^2"):
        assert str(parse_exact(token)) == token


def test_parse_rejects_decimals():
    with pytest.raises(ExactnessError):
        parse_exact("0.25")
    with pytest.raises(ExactnessError):
        parse_exact("1e-3")


def test_correlating_weights_product():
    a = parse_exact("1/4+pi/20")
    b = parse_exact("1/4-pi/20")
    assert ExactScalar(Fraction(1, 16)) - a * b == parse_exact("1/400*pi^2")


def test_division_exact_and_inexact():
    quarter = ExactScalar(Fraction(1, 4))
    assert parse_exact("1/400*pi^2") / quarter == parse_exact("1/100*pi^2")
    pi = parse_exact("pi")
    assert (pi * pi) / pi == pi
    with pytest.raises(ExactnessError):
        ExactScalar(1) / pi
    with pytest.raises(ZeroDivisionError):
        pi / ExactScalar(0)


def test_complex_parts_and_conjugation():
    z = ExactScalar(Fraction(1, 2)) + EXACT_I * parse_exact("pi/4")
    assert z.conjugate() + z == ExactScalar(1)
    assert EXACT_I * EXACT_I == ExactScalar(-1)
    assert complex(EXACT_I) == 1j


def test_hash_agrees_with_equality():
    assert len({ExactScalar(1), 1}) == 1
    assert len({ExactScalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(ExactScalar(0)) == hash(0)
    assert hash(parse_exact("1/4+pi/20")) == hash(parse_exact("1/4+pi/20"))


def test_float_mixing_rejected():
    with pytest.raises(ExactnessError):
        ExactScalar(1) + 0.5
    with pytest.raises(ExactnessError):
        ExactScalar(1) * 1j


@pytest.mark.parametrize("re, im", [
    ((0.1,), ()),            # would be 3602879701896397/36028797018963968
    ((1,), (0.5,)),          # would be 1+(1/2)i
    (0.5, ()),
    (True, ()),              # would be 1
    ((Fraction(1, 2), True), ()),
    (1j, ()),
    ((), (1 + 0j,)),
    ((1, 2.0), ()),
])
def test_constructor_refuses_inexact_and_bool_coefficients(re, im):
    with pytest.raises(ExactnessError):
        ExactScalar(re, im)


@pytest.mark.parametrize("coeff", [0.5, True, 1j])
def test_pi_power_refuses_inexact_and_bool_coefficients(coeff):
    with pytest.raises(ExactnessError):
        ExactScalar.pi_power(2, coeff)


def test_constructor_converts_ints_and_fractions():
    x = ExactScalar((1, Fraction(2, 4), 0), 3)
    assert x.re == (Fraction(1), Fraction(1, 2)) and x.im == (Fraction(3),)
    assert all(type(c) is Fraction for c in x.re + x.im)
    assert ExactScalar.pi_power(2, 3) == scalar((0, 0, 3))


# pi powers up to 3, with imaginary parts
pi_gaussians = st.builds(scalar, polys, polys)


def _assert_normalised(r):
    for part in (r.re, r.im):
        assert type(part) is tuple
        assert all(type(c) is Fraction for c in part)
        assert not part or part[-1] != 0
    again = ExactScalar(r.re, r.im)
    assert r == again and str(r) == str(again) and hash(r) == hash(again)


@given(pi_gaussians, pi_gaussians, gaussians.filter(bool), rationals)
def test_arithmetic_keeps_trimmed_fraction_tuples(x, y, g, n):
    # the helpers behind the operators skip the constructor's trim, so every
    # result must already be in the form the constructor would give it
    results = [x + y, x - y, x * y, -x, x.conjugate(), x / g, x + n, n - x, x * n]
    if y:
        results.append((x * y) / y)
    if x:
        results.append(x / x)
    for r in results:
        _assert_normalised(r)


@given(pi_gaussians, pi_gaussians)
def test_of_equals_the_constructor_on_helper_tuples(x, y):
    # + - * and conjugate() build their results with _of, skipping the trim
    for r in (x + y, -x, x * y, x.conjugate()):
        again = ExactScalar(r.re, r.im)
        of = ExactScalar._of(r.re, r.im)
        assert of == again and hash(of) == hash(again) and str(of) == str(again)


def test_ordering_of_real_values():
    assert parse_exact("1/4") < parse_exact("1/4+pi/20")
    assert parse_exact("1/4-pi/20") > 0
    with pytest.raises(ExactnessError):
        _ = EXACT_I < ExactScalar(1)


def test_ordering_is_exact_below_double_precision():
    # a continued-fraction convergent of pi: the difference is about +7.8e-17,
    # which double-precision evaluation cannot tell from zero
    x = parse_exact("pi") - Fraction(245850922, 78256779)
    assert x > 0 and x >= 0 and x != 0
    assert not x < 0 and not x <= 0
    assert -x < 0 and not -x > 0
    assert parse_exact("pi") > ExactScalar(Fraction(245850922, 78256779))
    assert (x * x - x * x) <= 0 <= x * x


def _pi_convergents():
    # the continued fraction of pi; its convergents lie alternately below and
    # above pi, the last ones closer to it than 1e-24
    terms = (3, 7, 15, 1, 292, 1, 1, 1, 2, 1, 3, 1, 14, 2, 1, 1, 2, 2, 2, 2, 1, 84, 2, 1, 1, 15, 3, 13)
    h, h_prev, k, k_prev = 1, 0, 0, 1
    out = []
    for a in terms:
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        out.append(Fraction(h, k))
    return out


PI_CONVERGENTS = _pi_convergents()


@given(st.integers(0, len(PI_CONVERGENTS) - 1), rationals.filter(bool))
def test_ordering_at_pi_convergents(n, r):
    c = PI_CONVERGENTS[n]
    below = n % 2 == 0
    pi = parse_exact("pi")
    # pi^2 - c^2 has the sign of pi - c
    for x in (pi - c, pi * pi - c * c):
        assert (r * x > 0) == (below == (r > 0))
        assert (r * x < 0) == (below != (r > 0))


@given(polys, polys)
def test_ordering_trichotomy(p, q):
    x, y = scalar(p), scalar(q)
    assert [x < y, x == y, x > y].count(True) == 1
    assert (x < y) == (y > x) and (x <= y) == (y >= x)


def test_float_evaluation():
    import math

    value = float(parse_exact("1/400*pi^2"))
    assert abs(value - math.pi ** 2 / 400) < 1e-15
