import struct
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingccp import algebra
from isingccp import (
    DynamicsParams,
    ExactScalar,
    ModeError,
    Operator,
    PartitionOfUnity,
    PreconditionError,
    apply_beta,
    build_lambda_state,
    commutes,
    conditional_expectation,
    correlation,
    parse_exact,
    product_trace,
    sector_correlation,
    to_matrix,
)
from isingccp.states import (
    SECTORS,
    DegenerateSectorError,
    LambdaState,
    NoncommutingEventsError,
    WeightError,
)
from conftest import half_sum, random_operator

HALF = Fraction(1, 2)
QUARTER = {"AB": 0.25, "ApBp": 0.25, "ABp": 0.25, "ApB": 0.25}


# -- construction ---------------------------------------------------------------


def test_rejects_noncommuting_events():
    a = half_sum(0)
    b = half_sum(HALF)  # neighbours anticommute
    with pytest.raises(NoncommutingEventsError):
        build_lambda_state(a, b, QUARTER)


def test_exact_weight_below_double_precision_is_positive(events_exact):
    tiny = parse_exact("pi") - Fraction(245850922, 78256779)  # about 7.8e-17
    quarter = ExactScalar(Fraction(1, 4))
    weights = {"AB": tiny, "ApBp": quarter, "ABp": quarter, "ApB": ExactScalar(HALF) - tiny}
    state = build_lambda_state(*events_exact, weights)
    assert state.weights["AB"] == tiny


def test_rejects_degenerate_sector():
    a = half_sum(0)
    with pytest.raises(DegenerateSectorError):
        build_lambda_state(a, a, QUARTER)  # AB' = A - A^2 = 0


def test_rejects_bad_weights(events_float):
    a, b = events_float
    with pytest.raises(WeightError):
        build_lambda_state(a, b, {"AB": 0.5, "ApBp": 0.5, "ABp": 0.0, "ApB": 0.0})
    with pytest.raises(WeightError):
        build_lambda_state(a, b, {"AB": 0.5, "ApBp": 0.25, "ABp": 0.25, "ApB": 0.25})
    with pytest.raises(WeightError):
        build_lambda_state(a, b, {"AB": 1.0})


def test_weights_are_coerced_into_the_state_mode(events_exact, events_float):
    mixed = {"AB": Fraction(1, 4), "ApBp": ExactScalar(Fraction(1, 4)),
             "ABp": Fraction(1, 4), "ApB": ExactScalar(Fraction(1, 4))}
    exact = build_lambda_state(*events_exact, mixed)
    assert all(type(w) is ExactScalar for w in exact.weights.values())
    with pytest.raises(ModeError):
        build_lambda_state(*events_exact, {**mixed, "ABp": 0.25})
    state = build_lambda_state(*events_float, {**mixed, "ABp": 0.25})
    assert all(type(w) is float and w == 0.25 for w in state.weights.values())


def test_accepts_the_offset_weights(state_exact):
    assert state_exact.exact
    assert state_exact.sector_traces["AB"] == ExactScalar(Fraction(1, 4))


# -- evaluation -------------------------------------------------------------------


def test_state_is_normalized(state_exact, state_float):
    assert state_exact.evaluate(Operator.identity(True)) == ExactScalar(1)
    assert abs(state_float.evaluate(Operator.identity()) - 1) < 1e-14


def test_sector_values_collapse(state_exact, pi_offset_weights):
    for label in ("AB", "ApBp", "ABp", "ApB"):
        assert state_exact.evaluate(state_exact.sectors[label]) == pi_offset_weights[label]


def test_event_probability_sums_two_sectors(state_exact, pi_offset_weights):
    got = state_exact.evaluate(state_exact.a)
    assert got == pi_offset_weights["AB"] + pi_offset_weights["ABp"]


def test_uniform_weights_reproduce_the_trace(events_float):
    state = build_lambda_state(*events_float, QUARTER)
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = random_operator(rng)
        assert abs(state.evaluate(x) - complex(x.trace())) < 1e-12


@pytest.fixture(scope="module")
def generic_states(events_float):
    """A state on small sectors (4 terms, dict loops) and one on t = 2 events
    at generic angles (288 terms each, arrays)."""
    params = DynamicsParams(0.3, 0.7, 1, 1)
    a, b = (apply_beta(params, half_sum(site), 2) for site in (0, 1))
    weights = {"AB": 0.1, "ApBp": 0.2, "ABp": 0.3, "ApB": 0.4}
    return build_lambda_state(*events_float, weights), build_lambda_state(a, b, weights)


_parts = st.sampled_from([0.0, -0.0, 1.0, -0.5, 0.1]) | st.floats(-10, 10)


@settings(max_examples=150, deadline=None)
@given(which=st.sampled_from([0, 1]),
       terms=st.dictionaries(st.frozensets(st.integers(-3, 5), max_size=4),
                             st.builds(complex, _parts, _parts), max_size=40),
       sector=st.sampled_from([None, *SECTORS]),
       offset=st.sampled_from([0, 7, 40]),
       work=st.sampled_from([1, algebra._ARRAY_WORK]))
def test_evaluate_matches_one_product_trace_per_sector(generic_states, which, terms, sector,
                                                       offset, work):
    # evaluate sorts x's keys once for its four sectors; the result must still
    # equal four product_trace calls by the dict loops, bit for bit.  An offset
    # moves x off the events' sites, so the operands align at different shifts.
    state = generic_states[which]
    x = Operator.from_terms([(c, [Fraction(d + offset, 2) for d in sorted(sites)])
                             for sites, c in terms.items()])
    if sector is not None:
        x = x + state.sectors[sector]
    expected = 0j
    with patch.object(algebra, "_ARRAY_WORK", 1 << 30):
        for label in SECTORS:
            expected = expected + (state.weights[label] * product_trace(state.sectors[label], x)
                                   / state.sector_traces[label])
    with patch.object(algebra, "_ARRAY_WORK", work):
        value = state.evaluate(x)
    assert struct.pack("<dd", value.real, value.imag) == struct.pack(
        "<dd", expected.real, expected.imag)


def test_correlation_values(state_exact, events_float):
    assert correlation(state_exact) == parse_exact("1/400*pi^2")
    assert sector_correlation(state_exact) == parse_exact("1/400*pi^2")
    trace_state = build_lambda_state(*events_float, QUARTER)
    assert abs(correlation(trace_state)) < 1e-15


def test_correlation_is_computed_once_per_state(events_float, monkeypatch):
    state = build_lambda_state(*events_float, {"AB": 0.4, "ApBp": 0.3, "ABp": 0.2, "ApB": 0.1})
    one = Operator.identity()
    assert state.a_perp == one - state.a and state.b_perp == one - state.b
    evaluated = []
    evaluate = LambdaState.evaluate
    monkeypatch.setattr(LambdaState, "evaluate",
                        lambda self, x: evaluated.append(x) or evaluate(self, x))
    first = correlation(state)
    assert correlation(state) == first and len(evaluated) == 3


def test_faithfulness_on_the_window(state_float):
    lo, hi = state_float.window()
    rho = state_float.density_matrix((Fraction(lo, 2), Fraction(hi, 2)))
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() > 0
    # the density eigenvalues are exactly w_P / m_P, each with multiplicity m_P
    expected = sorted(
        float(state_float.weights[k]) / 4
        for k in ("AB", "ApBp", "ABp", "ApB")
        for _ in range(4)
    )
    assert np.allclose(sorted(eigs), expected)


def test_exact_float_agreement(state_exact, state_float):
    rng = np.random.default_rng(32)
    # evaluate the same operators through both modes
    for _ in range(20):
        terms = []
        for _ in range(4):
            k = rng.integers(-2, 6, size=int(rng.integers(1, 4)))
            sites = sorted(set(Fraction(int(v), 2) for v in k))
            coeff = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 10)))
            terms.append((coeff, sites, "+1"))
        xe = Operator.from_terms(terms, exact=True)
        xf = xe.to_float()
        assert abs(complex(state_exact.evaluate(xe)) - state_float.evaluate(xf)) < 1e-12


# -- partitions and the conditional expectation --------------------------------------


def test_partition_validation(events_float):
    a, _ = events_float
    one = Operator.identity()
    PartitionOfUnity([a, one - a])
    with pytest.raises(PreconditionError):
        PartitionOfUnity([a, a])  # not orthogonal
    with pytest.raises(PreconditionError):
        PartitionOfUnity([a])  # does not sum to the identity
    with pytest.raises(PreconditionError):
        PartitionOfUnity([a.scaled(0.5), one - a.scaled(0.5)])


def test_expectation_identity_partition():
    part = PartitionOfUnity([Operator.identity()])
    rng = np.random.default_rng(33)
    x = random_operator(rng)
    assert conditional_expectation(part, x).isclose(x)


def test_expectation_fixes_commuting_operators(events_float):
    a, b = events_float
    part = PartitionOfUnity([a, Operator.identity() - a])
    assert conditional_expectation(part, b).isclose(b)  # [a, b] = 0
    assert conditional_expectation(part, Operator.identity()).isclose(Operator.identity())


def test_expectation_is_idempotent(events_float):
    a, _ = events_float
    part = PartitionOfUnity([a, Operator.identity() - a])
    rng = np.random.default_rng(34)
    for _ in range(15):
        x = random_operator(rng, lo=-2, hi=6)
        once = conditional_expectation(part, x)
        twice = conditional_expectation(part, once)
        assert once.isclose(twice, 1e-12)


def test_expectation_is_positive(events_float):
    a, _ = events_float
    part = PartitionOfUnity([a, Operator.identity() - a])
    rng = np.random.default_rng(35)
    win = (Fraction(-1, 2), Fraction(3, 2))
    for _ in range(10):
        y = random_operator(rng, lo=-1, hi=4, n_terms=3)
        x = y.adjoint() * y  # positive
        m = to_matrix(conditional_expectation(part, x), win)
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() > -1e-11


def test_expectation_bimodule_property(events_float):
    a, b = events_float
    one = Operator.identity()
    part = PartitionOfUnity([a, one - a])
    rng = np.random.default_rng(36)
    # b commutes with both cells, so it moves through the expectation
    for _ in range(10):
        x = random_operator(rng, lo=-2, hi=6, n_terms=3)
        lhs = conditional_expectation(part, b * x * b)
        rhs = b * conditional_expectation(part, x) * b
        assert lhs.isclose(rhs, 1e-11)


def test_expectation_output_commutes_with_cells(events_float):
    a, _ = events_float
    part = PartitionOfUnity([a, Operator.identity() - a])
    rng = np.random.default_rng(37)
    for _ in range(10):
        x = random_operator(rng, lo=-2, hi=6, n_terms=3)
        e = conditional_expectation(part, x)
        for cell in part:
            assert commutes(e, cell, 1e-11)
