"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import time
from fractions import Fraction

import numpy as np

from isingccp import (
    DoubleCone,
    DynamicsParams,
    Operator,
    PartitionOfUnity,
    SolverConfig,
    apply_beta,
    beta_generator_image,
    build_lambda_state,
    check_primitive_causality,
    commutes,
    common_cause_candidate,
    conditional_expectation,
    correlation,
    enumerate_commuting_tuples,
    localization,
    noncommuting_ccs_residuals,
    parse_exact,
    pasts,
    solve_noncommuting_cc,
    spacelike_separated,
    to_matrix,
)
from conftest import half_sum, random_operator

HALF = Fraction(1, 2)
SECTOR_ORDER = ("AB", "ApBp", "ABp", "ApB")


def _report(n, elapsed, limit, detail):
    print(f"\nACCEPTANCE {n}: PASS in {elapsed:.2f}s (limit {limit}s) -- {detail}")


def _random_params(rng):
    return DynamicsParams(
        float(rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2)),
        float(rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2)),
        int(rng.choice([1, -1])),
        int(rng.choice([1, -1])),
    )


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_criterion_1_correlation_value(state_exact, state_float):
    t0 = time.perf_counter()
    exact = correlation(state_exact)
    assert exact == parse_exact("1/400*pi^2")
    assert str(exact) == "1/400*pi^2"
    value = correlation(state_float).real
    assert abs(value - np.pi ** 2 / 400) < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, 1, "correlation equals pi^2/400 exactly and to 1e-12 in float")


def test_criterion_2_conditioned_closed_forms(events_float):
    """The conditioned sector values follow the closed quadratic forms.

    The common prefactor forced by unit preservation of the conditioning map
    is 1/4 (the four values must sum to phi(C) = 1/2); the verification pins
    that constant and the full quadratic structure at 1e-12.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    a_op, b_op = events_float
    lambdas = [rng.dirichlet([2.0, 2.0, 2.0, 2.0]) for _ in range(50)]
    states = [
        build_lambda_state(a_op, b_op, dict(zip(SECTOR_ORDER, lam))) for lam in lambdas
    ]
    one = Operator.identity()
    worst = 0.0
    for _ in range(200):
        v = _random_unit(rng)
        c = common_cause_candidate(*v)
        part = PartitionOfUnity([c, one - c])
        a1s, rest = v[0] ** 2, v[1] ** 2 + v[2] ** 2
        conditioned = {
            label: conditional_expectation(part, states[0].sectors[label] * c)
            for label in SECTOR_ORDER
        }
        for state, lam in zip(states, lambdas):
            w = dict(zip(SECTOR_ORDER, lam))
            expected = (
                (w["AB"] + w["ApBp"] * a1s + w["ApB"] * rest) / 4,
                (w["AB"] * a1s + w["ApBp"] + w["ABp"] * rest) / 4,
                (w["ApBp"] * rest + w["ABp"] + w["ApB"] * a1s) / 4,
                (w["AB"] * rest + w["ABp"] * a1s + w["ApB"]) / 4,
            )
            for label, want in zip(SECTOR_ORDER, expected):
                got = state.evaluate(conditioned[label]).real
                worst = max(worst, abs(got - want))
    assert worst < 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, elapsed, 10, f"closed forms hold for 200 x 50 draws, worst error {worst:.2e}")


def test_criterion_3_family_residuals(events_float):
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    a_op, b_op = events_float
    one = Operator.identity()
    worst_balanced = 0.0
    for _ in range(60):
        l1 = rng.uniform(0.02, 0.48)
        l3 = rng.uniform(0.02, 0.48)
        state = build_lambda_state(
            a_op, b_op, {"AB": l1, "ApBp": 0.5 - l1, "ABp": l3, "ApB": 0.5 - l3}
        )
        c = common_cause_candidate(*_random_unit(rng))
        report = noncommuting_ccs_residuals(state, PartitionOfUnity([c, one - c]))
        worst_balanced = max(worst_balanced, max(abs(x.residual.real) for x in report.cells))
    assert worst_balanced < 1e-12
    unbalanced = build_lambda_state(
        a_op, b_op, {"AB": 0.3, "ApBp": 0.3, "ABp": 0.25, "ApB": 0.15}
    )
    c = common_cause_candidate(1 / np.sqrt(2), 1 / np.sqrt(2), 0.0)
    report = noncommuting_ccs_residuals(unbalanced, PartitionOfUnity([c, one - c]))
    floor = min(abs(x.residual.real) for x in report.cells)
    assert floor > 1e-4
    elapsed = time.perf_counter() - t0
    _report(
        3, elapsed, "-",
        f"balanced weights vanish to {worst_balanced:.2e}; the unbalanced case stays at {floor:.2e}",
    )


def test_criterion_4_exhaustive_rank_enumeration(pi_offset_weights):
    t0 = time.perf_counter()
    for size in (1, 2, 4, 8):
        result = enumerate_commuting_tuples(pi_offset_weights, [size] * 4, 2)
        assert result.n_nontrivial == 0, f"sector size {size}"
        assert result.n_satisfying > 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, elapsed, 60, "no nontrivial commuting partition up to sector size 8 (exact)")


def test_criterion_5_dynamics_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    one = Operator.identity()
    win = (-2, 3)
    for _ in range(100):
        p = _random_params(rng)
        images = {s: beta_generator_image(p, s) for s in (0, HALF, 1)}
        for s, img in images.items():
            m = to_matrix(img, win)
            assert np.linalg.norm(m @ m - np.eye(m.shape[0])) < 1e-10
            assert np.linalg.norm(m - m.conj().T) < 1e-10
            assert check_primitive_causality(p, s)
        for i in (0, HALF):
            for j in (HALF, 1):
                if i == j:
                    continue
                x, y = images[i], images[j]
                sign = -1 if abs(i - j) == HALF else 1
                assert (x * y - (y * x).scaled(sign)).is_close_to_zero(1e-10)
        x = random_operator(rng, lo=-2, hi=4, n_terms=3)
        assert abs(complex(apply_beta(p, x, 1).trace() - x.trace())) < 1e-10
    elapsed = time.perf_counter() - t0
    _report(5, elapsed, "-", "100 draws: unitary self-adjoint images, relations, trace, causality")


def test_criterion_6_einstein_causality(std_params):
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 100:
        p = _random_params(rng)
        # random spacelike pair: separated surface intervals, then one step
        start = int(rng.integers(-4, 2))
        gap_start = start + int(rng.integers(2, 4))
        x = apply_beta(p, random_operator(rng, lo=start, hi=start + 2, n_terms=3), 1)
        y = apply_beta(p, random_operator(rng, lo=gap_start + 4, hi=gap_start + 7, n_terms=3), 1)
        if x.is_zero or y.is_zero:
            continue
        assert spacelike_separated(localization(x), localization(y))
        assert commutes(x, y, 1e-12)
        checked += 1
    # exact mode subset
    for t1 in ("0", "pi/2"):
        p = DynamicsParams(t1, "0", 1, 1)
        xe = apply_beta(p, half_sum(0, exact=True), 1)
        ye = apply_beta(p, half_sum(3, exact=True), 1)
        assert spacelike_separated(localization(xe), localization(ye))
        assert (xe * ye - ye * xe).is_zero
    elapsed = time.perf_counter() - t0
    _report(6, elapsed, "-", "100 spacelike pairs commute (exactly in exact mode)")


def test_criterion_7_geometry(std_params):
    t0 = time.perf_counter()
    a, b = DoubleCone.minimal(1, 0), DoubleCone.minimal(1, 1)
    common = pasts(a, b, "common")
    strong = pasts(a, b, "strong")
    assert common.contains(DoubleCone.span(0, 0, 1))
    assert strong == common
    rng = np.random.default_rng(707)

    def cone():
        i2 = int(rng.integers(-9, 9))
        return DoubleCone(int(rng.integers(-5, 6)), i2, i2 + int(rng.integers(0, 9)))

    for _ in range(1000):
        c1 = cone()
        c2 = cone()
        weak = pasts(c1, c2, "weak")
        com = pasts(c1, c2, "common")
        stg = pasts(c1, c2, "strong")
        assert weak.contains_region(com)
        assert com.contains_region(stg)
    elapsed = time.perf_counter() - t0
    _report(7, elapsed, "-", "shared-past membership, strong=common for the minimal pair, ordering on 1000 pairs")


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    win = (0, Fraction(15, 2))  # eight qubits, dimension 256
    dim = 256
    ops = [random_operator(rng, lo=0, hi=16, n_terms=6) for _ in range(500)]
    for k in range(0, 500, 2):
        x, y = ops[k], ops[k + 1]
        mx = to_matrix(x, win)
        my = to_matrix(y, win)
        assert np.linalg.norm(to_matrix(x * y, win) - mx @ my) < 1e-12 * dim
        assert np.linalg.norm(to_matrix(x.adjoint(), win) - mx.conj().T) < 1e-12
        assert abs(np.trace(mx) / dim - complex(x.trace())) < 1e-12
    elapsed = time.perf_counter() - t0
    _report(8, elapsed, "-", "homomorphism, adjoint and trace agree on 500 operators at 2^8")


def test_criterion_9_solver_recovery(state_float):
    t0 = time.perf_counter()
    window = DoubleCone.span(0, 0, 1)
    found = solve_noncommuting_cc(state_float, window, SolverConfig(seed=909, restarts=20, tol=1e-8))
    assert found, "expected at least one candidate below 1e-8"
    assert any(max(c.residuals) < 1e-8 for c in found)
    constrained = solve_noncommuting_cc(
        state_float, window, SolverConfig(seed=909, restarts=20, tol=1e-8, commuting_constraint=True)
    )
    assert constrained == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(9, elapsed, 120, f"{len(found)} candidates recovered; the commuting search returns none")
