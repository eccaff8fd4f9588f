from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from isingccp import (
    BudgetError,
    DoubleCone,
    EXACT_I,
    EnumerationResult,
    ExactScalar,
    Operator,
    PI,
    PartitionOfUnity,
    PreconditionError,
    ProbabilitySpace,
    build_lambda_state,
    classical_ccs_check,
    common_cause_candidate,
    commuting_ccs_residuals,
    conditional_expectation,
    enumerate_commuting_tuples,
    exact_wccp_decision,
    is_projection,
    localization,
    noncommuting_ccs_residuals,
    parse_exact,
    pasts,
    screening_weight,
    support_interval,
    to_matrix,
    window_monomials,
)
from conftest import half_sum

HALF = Fraction(1, 2)
F = Fraction


# -- classical --------------------------------------------------------------------


def test_independent_events_whole_space_partition():
    # two fair independent bits
    space = ProbabilitySpace([F(1, 4)] * 4)
    a, b = {0, 1}, {0, 2}
    report = classical_ccs_check(space, a, b, [{0, 1, 2, 3}])
    assert report.satisfied
    assert report.correlation == 0


def test_constructed_common_cause_space():
    # p(C) = 1/2, p(A|C) = p(B|C) = 4/5, p(A|C') = p(B|C') = 1/5, independent given C
    # atoms: (C, AB), (C, AB'), (C, A'B), (C, A'B'), then the C' block
    c_block = [F(1, 2) * x for x in (F(16, 25), F(4, 25), F(4, 25), F(1, 25))]
    cp_block = [F(1, 2) * x for x in (F(1, 25), F(4, 25), F(4, 25), F(16, 25))]
    space = ProbabilitySpace(c_block + cp_block)
    a = {0, 1, 4, 5}
    b = {0, 2, 4, 6}
    c = {0, 1, 2, 3}
    report = classical_ccs_check(space, a, b, [c, {4, 5, 6, 7}])
    assert report.correlation == F(9, 100)
    assert report.satisfied
    assert not report.trivial
    assert report.extras["relevance_A"] == F(3, 5)
    assert report.extras["positive_relevance"] is True


def test_event_partition_is_trivially_screening():
    space = ProbabilitySpace([F(1, 8)] * 8)
    a = {0, 1, 2, 3}
    b = {0, 1, 4, 5}
    report = classical_ccs_check(space, a, b, [a, {4, 5, 6, 7}])
    assert report.satisfied
    assert report.trivial


def test_non_partition_rejected():
    space = ProbabilitySpace([F(1, 2), F(1, 2)])
    with pytest.raises(PreconditionError):
        classical_ccs_check(space, {0}, {1}, [{0}])
    with pytest.raises(PreconditionError):
        classical_ccs_check(space, {0}, {1}, [{0, 1}, {1}])


# -- commuting quantum case ---------------------------------------------------------


def test_event_partition_screens_trivially(state_exact):
    b = state_exact.b
    part = PartitionOfUnity([b, Operator.identity(True) - b])
    report = commuting_ccs_residuals(state_exact, part)
    assert report.satisfied
    assert report.trivial
    assert all(c.residual == ExactScalar(0) for c in report.cells)


def test_noncommuting_cells_rejected(state_exact):
    c = common_cause_candidate(F(3, 5), F(4, 5), 0, exact=True)
    part = PartitionOfUnity([c, Operator.identity(True) - c])
    with pytest.raises(PreconditionError, match="cell 0"):
        commuting_ccs_residuals(state_exact, part)


def test_sector_sum_partition_under_uniform_weights(events_exact):
    # conditioning on "A agrees with B" correlates the events even in the
    # uncorrelated state: the residuals are +/- 1/16 by sector arithmetic
    a, b = events_exact
    quarter = ExactScalar(F(1, 4))
    state = build_lambda_state(a, b, dict.fromkeys(("AB", "ApBp", "ABp", "ApB"), quarter))
    one = Operator.identity(True)
    diag = a * b + (one - a) * (one - b)
    part = PartitionOfUnity([diag, one - diag])
    report = commuting_ccs_residuals(state, part)
    assert not report.satisfied
    assert report.cells[0].residual == ExactScalar(F(1, 16))
    assert report.cells[1].residual == ExactScalar(F(-1, 16))
    # the uncorrelated state is screened by the event partitions themselves
    for cell in (a, b):
        trivial_part = PartitionOfUnity([cell, one - cell])
        assert commuting_ccs_residuals(state, trivial_part).satisfied


# -- the exact decision and enumeration ----------------------------------------------


def test_decision_subprojection_of_one_sector(pi_offset_weights):
    w = [pi_offset_weights[k] for k in ("AB", "ApBp", "ABp", "ApB")]
    assert exact_wccp_decision(w, (4, 4, 4, 4), (2, 0, 0, 0))


def test_decision_rejects_mixed_ranks(pi_offset_weights):
    w = [pi_offset_weights[k] for k in ("AB", "ApBp", "ABp", "ApB")]
    assert not exact_wccp_decision(w, (4, 4, 4, 4), (1, 1, 1, 1))


def test_decision_uniform_weights_symmetric_case():
    w = [F(1, 4)] * 4
    assert exact_wccp_decision(w, (4, 4, 4, 4), (1, 1, 1, 1))


def test_decision_validates_ranks(pi_offset_weights):
    w = [pi_offset_weights[k] for k in ("AB", "ApBp", "ABp", "ApB")]
    with pytest.raises(PreconditionError):
        exact_wccp_decision(w, (4, 4, 4, 4), (5, 0, 0, 0))


def test_decision_only_zero_products_pass(pi_offset_weights):
    w = [pi_offset_weights[k] for k in ("AB", "ApBp", "ABp", "ApB")]
    for r in np.ndindex(3, 3, 3, 3):
        ok = exact_wccp_decision(w, (2, 2, 2, 2), tuple(int(v) for v in r))
        assert ok == (r[0] * r[1] == 0 and r[2] * r[3] == 0)


def test_enumeration_offset_weights_all_trivial(pi_offset_weights):
    result = enumerate_commuting_tuples(pi_offset_weights, (4, 4, 4, 4), 2)
    assert result.checked == 5 ** 4
    assert result.n_satisfying > 0
    assert result.n_nontrivial == 0


def test_enumeration_uniform_weights_nontrivial_exist():
    result = enumerate_commuting_tuples([F(1, 4)] * 4, (4, 4, 4, 4), 2)
    assert result.n_nontrivial > 0
    assert ((1, 1, 1, 1), (3, 3, 3, 3)) in result.nontrivial


def test_enumeration_size_one_partition(pi_offset_weights):
    correlated = enumerate_commuting_tuples(pi_offset_weights, (4, 4, 4, 4), 1)
    assert correlated.n_satisfying == 0  # the whole-algebra cell cannot screen off
    uniform = enumerate_commuting_tuples([F(1, 4)] * 4, (4, 4, 4, 4), 1)
    assert uniform.n_satisfying == 1


def test_enumeration_budget(pi_offset_weights):
    with pytest.raises(BudgetError):
        enumerate_commuting_tuples(pi_offset_weights, (64, 64, 64, 64), 3, budget=1000)


@pytest.mark.parametrize("m, k", [((0, 4, 4, 4), 2), ((4, 4, 0, 4), 1), ((4, 4, 4, -1), 3),
                                  ((4, 4, 4), 2), ((4, 4, 4, 4), 0)])
def test_enumeration_preconditions(pi_offset_weights, m, k):
    with pytest.raises(PreconditionError):
        enumerate_commuting_tuples(pi_offset_weights, m, k)


def test_enumeration_three_cells_on_the_eight_site_window(pi_offset_weights):
    # every one of the 45^4 profiles of three-cell commuting partitions at
    # sector size 8 is decided: only trivial partitions screen off
    result = enumerate_commuting_tuples(pi_offset_weights, (8, 8, 8, 8), 3)
    assert result.checked == 45 ** 4
    assert result.n_satisfying > 0
    assert result.n_nontrivial == 0


# -- the enumeration against a per-profile reference -------------------------------

# the sectors AB, A'B', AB', A'B that make up each event
_EVENT_SECTORS = {"A": (0, 2), "A'": (1, 3), "B": (0, 3), "B'": (1, 2)}


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_enumeration(weights, m, k):
    """Every rank profile in product-of-compositions order, one exact decision per cell."""
    checked, satisfying = 0, []
    for splits in product(*(_compositions(mv, k) for mv in m)):
        checked += 1
        cells = tuple(tuple(split[j] for split in splits) for j in range(k))
        if all(exact_wccp_decision(weights, m, cell) for cell in cells):
            trivial = all(
                any(all(cell[p] == 0 for p in range(4) if p not in inside)
                    for inside in _EVENT_SECTORS.values())
                for cell in cells
            )
            satisfying.append((cells, trivial))
    return EnumerationResult(checked, satisfying, [c for c, trivial in satisfying if not trivial])


_small = st.fractions(min_value=-2, max_value=2, max_denominator=6)
_scalars = st.one_of(
    st.just(ExactScalar(0)),
    _small.map(ExactScalar),
    st.tuples(_small, _small).map(ExactScalar),  # a + b pi
    st.tuples(_small, _small).map(lambda t: ExactScalar(t[0], t[1])),  # a + b i
)
_unit = st.fractions(min_value=F(1, 10), max_value=1, max_denominator=10)


@st.composite
def _enumeration_cases(draw):
    k = draw(st.integers(1, 3))
    m = draw(st.lists(st.integers(1, 4 if k < 3 else 3), min_size=4, max_size=4))
    kind = draw(st.sampled_from(["hit", "hit", "scalars", "pi-offset"]))
    if kind == "scalars":
        return [draw(_scalars) for _ in range(4)], m, k
    if kind == "pi-offset":
        return [parse_exact(t) for t in ("1/4", "1/4", "1/4+pi/20", "1/4-pi/20")], m, k
    # P/Q = w_AB w_A'B' / (w_AB' w_A'B) set to R/L of a drawn cell with both
    # products nonzero, so that this cell passes and nontrivial profiles can;
    # a common factor of w_AB and w_AB' keeps P/Q rational while the weights
    # are not, and an extra factor of w_AB alone (pi or i) makes it irrational
    r = [draw(st.integers(1, mv)) for mv in m]
    ratio = F(m[0] * m[1] * r[2] * r[3], m[2] * m[3] * r[0] * r[1])
    w_apbp, w_abp, w_apb = draw(_unit), draw(_unit), draw(_unit)
    factor = draw(st.sampled_from([ExactScalar(1), PI, 1 + PI, EXACT_I, PI * PI - 3]))
    extra = draw(st.sampled_from([ExactScalar(1), ExactScalar(1), PI, EXACT_I]))
    weights = [extra * factor * (ratio * w_abp * w_apb / w_apbp), ExactScalar(w_apbp),
               factor * w_abp, ExactScalar(w_apb)]
    return weights, m, k


@settings(max_examples=60, deadline=None)
@given(_enumeration_cases())
def test_enumeration_matches_the_per_profile_reference(case):
    weights, m, k = case
    result = enumerate_commuting_tuples(weights, m, k)
    assume(result.checked <= 1500)
    assert result == _reference_enumeration(weights, m, k)


# -- the weight formula ----------------------------------------------------------------


def test_weight_formula_example():
    value = screening_weight(0.4, 0.3, 0.2, 0.1)
    assert abs(value.value - 1 / 3) < 1e-15
    assert value.within_range


def test_weight_formula_uncorrelated_boundary():
    value = screening_weight(F(1, 4), F(1, 4), F(1, 4), F(1, 4))
    assert value.value == 0
    assert not value.within_range


def test_weight_formula_exact(pi_offset_weights):
    w = pi_offset_weights
    value = screening_weight(w["AB"], w["ApBp"], w["ABp"], w["ApB"])
    assert value.value == parse_exact("1/100*pi^2")
    assert value.within_range


def test_weight_formula_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        screening_weight(0.4, 0.0, 0.2, 0.1)


# -- the explicit candidate family -----------------------------------------------------


def test_candidate_single_generator_cases():
    c = common_cause_candidate(1, 0, 0, exact=True)
    assert c == half_sum(HALF, exact=True)
    assert common_cause_candidate(0, 1, 0, exact=True) == half_sum(1, exact=True)


def test_candidate_is_projection_with_support():
    c = common_cause_candidate(F(3, 5), F(4, 5), 0, exact=True)
    assert is_projection(c)
    # the third coefficient vanishes here, so the tight support is (1/2, 1),
    # inside the window (0, 1); a generic triple fills the window
    assert support_interval(c) == (HALF, 1)
    full = common_cause_candidate(0, F(3, 5), F(4, 5), exact=True)
    assert is_projection(full)
    assert support_interval(full) == (0, 1)
    with pytest.raises(PreconditionError):
        common_cause_candidate(1, 1, 0)


def test_candidate_support_in_common_past(events_exact):
    a, b = events_exact
    region = pasts(localization(a), localization(b), "common")
    c = common_cause_candidate(0.6, 0.0, 0.8)
    span = support_interval(c)
    cone = DoubleCone.span(0, span[0], span[1])
    assert region.contains(cone)


# -- noncommuting residuals --------------------------------------------------------------


def _partition(c):
    return PartitionOfUnity([c, Operator.identity(c.exact) - c])


def test_family_screens_off_exactly(state_exact):
    for triple in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (F(3, 5), F(4, 5), 0), (F(3, 5), 0, F(4, 5))):
        c = common_cause_candidate(*triple, exact=True)
        report = noncommuting_ccs_residuals(state_exact, _partition(c))
        assert report.satisfied
        assert all(cell.residual == ExactScalar(0) for cell in report.cells)
        assert not report.trivial


def test_family_screens_off_for_any_balanced_weights(events_float):
    rng = np.random.default_rng(41)
    for _ in range(10):
        l1 = rng.uniform(0.05, 0.45)
        l3 = rng.uniform(0.05, 0.45)
        w = {"AB": l1, "ApBp": 0.5 - l1, "ABp": l3, "ApB": 0.5 - l3}
        state = build_lambda_state(*events_float, w)
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        report = noncommuting_ccs_residuals(state, _partition(common_cause_candidate(*v)))
        assert max(abs(c.residual.real) for c in report.cells) < 1e-14


def test_unbalanced_weights_leave_a_residual(events_float):
    state = build_lambda_state(
        *events_float, {"AB": 0.3, "ApBp": 0.3, "ABp": 0.25, "ApB": 0.15}
    )
    v = (1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
    report = noncommuting_ccs_residuals(state, _partition(common_cause_candidate(*v)))
    assert min(abs(c.residual.real) for c in report.cells) > 1e-4
    assert not report.satisfied


def test_residuals_equal_for_cell_and_complement(state_float):
    rng = np.random.default_rng(42)
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        report = noncommuting_ccs_residuals(state_float, _partition(common_cause_candidate(*v)))
        r1, r2 = (c.residual.real for c in report.cells)
        assert abs(r1 - r2) < 1e-13


def test_noncommuting_reduces_to_commuting(state_float):
    b = state_float.b
    part = _partition(b)
    nc = noncommuting_ccs_residuals(state_float, part)
    c = commuting_ccs_residuals(state_float, part)
    for cell_nc, cell_c in zip(nc.cells, c.cells):
        assert abs((cell_nc.residual - cell_c.residual).real) < 1e-15
    assert nc.trivial and c.trivial


def test_closed_forms_of_the_conditioned_values(state_float, events_float):
    """The four conditioned sector values follow closed quadratic forms in the
    family coefficients, with a common prefactor of 1/4."""
    rng = np.random.default_rng(43)
    w = state_float.weights
    for _ in range(25):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        c = common_cause_candidate(*v)
        part = _partition(c)
        a1s, rest = v[0] ** 2, v[1] ** 2 + v[2] ** 2
        expected = {
            "AB": (w["AB"] + w["ApBp"] * a1s + w["ApB"] * rest) / 4,
            "ApBp": (w["AB"] * a1s + w["ApBp"] + w["ABp"] * rest) / 4,
            "ABp": (w["ApBp"] * rest + w["ABp"] + w["ApB"] * a1s) / 4,
            "ApB": (w["AB"] * rest + w["ABp"] * a1s + w["ApB"]) / 4,
        }
        for label, want in expected.items():
            got = state_float.evaluate(
                conditional_expectation(part, state_float.sectors[label] * c)
            ).real
            assert abs(got - want) < 1e-12


def test_conditioned_values_sum_to_cell_probability(state_float):
    # sum over sectors of (phi o E)(X C) = phi(C); pins the 1/4 prefactor
    rng = np.random.default_rng(44)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    c = common_cause_candidate(*v)
    part = _partition(c)
    total = sum(
        state_float.evaluate(conditional_expectation(part, state_float.sectors[k] * c)).real
        for k in ("AB", "ApBp", "ABp", "ApB")
    )
    assert abs(total - state_float.evaluate(c).real) < 1e-13
    assert abs(state_float.evaluate(c).real - 0.5) < 1e-13


def test_density_matrix_identity_for_residuals(state_float):
    """The conditioned values equal Tr(X C rho C) on a window density."""
    rng = np.random.default_rng(45)
    lo, hi = state_float.window()
    win = (F(lo, 2), F(hi, 2))
    rho = state_float.density_matrix(win)
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        c = common_cause_candidate(*v)
        part = _partition(c)
        c_mat = to_matrix(c, win)
        for label in ("AB", "ApBp", "ABp", "ApB"):
            sym = state_float.evaluate(
                conditional_expectation(part, state_float.sectors[label] * c)
            ).real
            mat = np.trace(to_matrix(state_float.sectors[label], win) @ c_mat @ rho @ c_mat).real
            assert abs(sym - mat) < 1e-12


def test_density_identity_for_random_partitions(state_float):
    """Tr(X C rho C) matches the symbolic conditioned values for partitions
    built from random spectral projections of window elements."""
    rng = np.random.default_rng(46)
    lo, hi = state_float.window()
    win = (F(lo, 2), F(hi, 2))
    rho = state_float.density_matrix(win)
    # doubled sites 0, 1, 2: the surface window over (0, 1)
    monomials = list(window_monomials([0, 1, 2]))
    one = Operator.identity()
    for _ in range(10):
        h = Operator.zero()
        for word, sign in monomials:
            coeff = float(rng.normal())
            h = h + Operator.from_terms([(coeff if sign > 0 else coeff * 1j, word)])
        h_mat = to_matrix(h, win)
        _, vecs = np.linalg.eigh(h_mat)
        rank = int(rng.integers(1, 4)) * 4  # multiples of the embedding factor
        top = vecs[:, h_mat.shape[0] - rank:]
        c_mat = top @ top.conj().T
        # expand back into the window's monomial basis
        dim = h_mat.shape[0]
        c_op = Operator.identity().scaled(complex(np.trace(c_mat)) / dim)
        for word, sign in monomials:
            mono = Operator.from_terms([(1.0, word)])
            coeff = sign * np.trace(to_matrix(mono, win) @ c_mat) / dim
            c_op = c_op + mono.scaled(complex(coeff))
        if not is_projection(c_op, 1e-9):
            continue  # degenerate spectral cut left the window algebra
        part = PartitionOfUnity([c_op, one - c_op], tol=1e-8)
        for label in ("AB", "ApBp", "ABp", "ApB"):
            sym = state_float.evaluate(
                conditional_expectation(part, state_float.sectors[label] * c_op)
            ).real
            mat = np.trace(to_matrix(state_float.sectors[label], win) @ c_mat @ rho @ c_mat).real
            assert abs(sym - mat) < 1e-12
