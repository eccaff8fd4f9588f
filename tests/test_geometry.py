from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingccp import (
    DoubleCone,
    PreconditionError,
    Region,
    SchemaError,
    causal_future,
    causal_past,
    pasts,
    spacelike_separated,
)
from isingccp.halfint import to_double


def test_cone_parity_constraint():
    DoubleCone.minimal(Fraction(1, 2), Fraction(1, 2))
    DoubleCone.minimal(1, 0)
    with pytest.raises(PreconditionError):
        DoubleCone.minimal(Fraction(1, 2), 0)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), 0.25])
def test_float_that_is_not_a_half_integer_is_a_schema_error(x):
    with pytest.raises(SchemaError):
        to_double(x)


def test_surface_cones():
    # a minimal cone is the single-site double cone on the translate at or below it
    half = Fraction(1, 2)
    assert DoubleCone.minimal(0, 0) == DoubleCone.span(0, 0, 0)
    assert DoubleCone.minimal(half, half) == DoubleCone.span(0, half, half)
    assert DoubleCone.minimal(-half, half) == DoubleCone.span(-1, half, half)
    assert str(DoubleCone.minimal(half, -half)) == "O^m(1/2,-1/2)"


def test_spacelike_examples():
    a = DoubleCone.minimal(1, 0)
    b = DoubleCone.minimal(1, 1)
    assert spacelike_separated(a, b)
    assert not spacelike_separated(a, a)
    assert not spacelike_separated(DoubleCone.minimal(0, 0), a)


def test_causal_past_examples():
    a = DoubleCone.minimal(1, 0)
    past = causal_past(a)
    assert past.contains(DoubleCone.minimal(0, 0))
    assert past.contains(a)  # pasts include the region itself
    assert not past.contains(DoubleCone.minimal(0, 5))


def test_causal_future_examples():
    a = DoubleCone.minimal(1, 0)
    future = causal_future(a)
    assert future.contains(a)  # futures include the region itself
    assert future.contains(DoubleCone.minimal(Fraction(3, 2), Fraction(1, 2)))
    assert not future.contains(DoubleCone.minimal(0, 0))
    assert not future.contains(DoubleCone.minimal(2, 5))


def test_pasts_of_the_standard_pair():
    a, b = DoubleCone.minimal(1, 0), DoubleCone.minimal(1, 1)
    common = pasts(a, b, "common")
    strong = pasts(a, b, "strong")
    weak = pasts(a, b, "weak")
    shared = DoubleCone.span(0, 0, 1)
    assert common.contains(shared)
    assert strong == common  # minimal cones: strong and common pasts agree
    assert weak.contains_region(common)
    assert common.contains_region(strong)


def _contained_cones(cone):
    """All lattice minimal cones inside the open diamond, listed one by one:
    the reference for the strong past's closed form."""
    out = []
    for u2 in range(cone.u_lo2 + 1, cone.u_hi2):
        if u2 % 2 != 0:
            continue
        for v2 in range(cone.v_lo2 + 1, cone.v_hi2):
            if v2 % 2 != 0:
                continue
            x2 = (v2 - u2) // 2
            out.append(DoubleCone((u2 + v2) // 4, x2, x2))
    return out


def test_double_cone_extent_and_contained_cones():
    shared = DoubleCone.span(0, 0, 1)
    spanning = {DoubleCone.span(0, x, x) for x in (0, Fraction(1, 2), 1)}
    assert spanning == {
        DoubleCone.minimal(0, 0),
        DoubleCone.minimal(Fraction(1, 2), Fraction(1, 2)),
        DoubleCone.minimal(0, 1),
    }
    assert spanning <= set(_contained_cones(shared))
    assert all(m.i2 == m.j2 for m in _contained_cones(shared))
    for m in spanning:
        assert _contained_cones(m) == [m]


_CONES = st.builds(lambda t, i2, width: DoubleCone(t, i2, i2 + width),
                   st.integers(-6, 6), st.integers(-12, 12), st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(a=_CONES, b=_CONES)
def test_the_strong_past_is_the_past_of_every_contained_minimal_cone(a, b):
    cones = _contained_cones(a) + _contained_cones(b)
    listed = Region.past({(min(m.u_hi2 for m in cones), min(m.v_hi2 for m in cones))})
    assert pasts(a, b, "strong") == listed


def _random_cone_pair(rng):
    def cone():
        t = int(rng.integers(-4, 5))
        i2 = int(rng.integers(-8, 8))
        j2 = i2 + int(rng.integers(0, 5))
        return DoubleCone(t, i2, j2)

    return cone(), cone()


def test_past_ordering_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b = _random_cone_pair(rng)
        weak = pasts(a, b, "weak")
        common = pasts(a, b, "common")
        strong = pasts(a, b, "strong")
        assert weak.contains_region(common)
        assert common.contains_region(strong)


def test_spacelike_iff_outside_past_and_future():
    rng = np.random.default_rng(12)
    for _ in range(300):
        t = int(rng.integers(-3, 4))
        x2 = int(rng.integers(-6, 7))
        m = DoubleCone(t, x2, x2)
        d = DoubleCone(int(rng.integers(-3, 4)), int(rng.integers(-6, 7)), int(rng.integers(-6, 7)) + 12)
        related = causal_past(d).contains(m) or causal_future(d).contains(m)
        assert spacelike_separated(m, d) == (not related)


def test_translation_commutes_with_pasts():
    rng = np.random.default_rng(13)
    for _ in range(100):
        a, b = _random_cone_pair(rng)
        dx = int(rng.integers(-3, 4))
        for mode in ("weak", "common", "strong"):
            moved = pasts(a.translated(0, dx), b.translated(0, dx), mode)
            base = pasts(a, b, mode)
            shifted = Region.past({(u - 2 * dx, v + 2 * dx) for (u, v) in base.apexes})
            assert moved == shifted


def test_region_serialization():
    region = pasts(DoubleCone.minimal(1, 0), DoubleCone.minimal(1, 1), "common")
    d = region.to_dict()
    assert d["kind"] == "past"
    assert d["apexes"] == [{"u": "1/2", "v": "3/2"}]
