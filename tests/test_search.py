import json
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import least_squares
from scipy.optimize._numdiff import approx_derivative

from isingccp import search
from isingccp import (
    BudgetError,
    DoubleCone,
    Operator,
    PartitionOfUnity,
    SolverConfig,
    build_lambda_state,
    noncommuting_ccs_residuals,
    solve_noncommuting_cc,
    to_matrix,
)

WINDOW = DoubleCone.span(0, 0, 1)


def test_finds_screening_projections(state_float):
    cfg = SolverConfig(seed=5, restarts=4, tol=1e-8)
    found = solve_noncommuting_cc(state_float, WINDOW, cfg)
    assert found
    for cand in found:
        assert max(cand.residuals) < 1e-8
        assert not cand.commuting  # only noncommuting solutions exist here
        assert cand.localization["common"] and cand.localization["weak"]
        # re-verify through the symbolic route
        part = PartitionOfUnity([cand.projection, Operator.identity() - cand.projection])
        report = noncommuting_ccs_residuals(state_float, part)
        assert max(abs(c.residual.real) for c in report.cells) < 1e-8
        # the report lists the projection's terms exactly
        terms = [(complex(*t["coeff"]), [Fraction(s) for s in t["sites"]])
                 for t in cand.to_dict()["projection"]]
        assert Operator.from_terms(terms) == cand.projection


def test_exact_state_is_coerced(state_exact):
    cfg = SolverConfig(seed=2, restarts=2, tol=1e-8)
    found = solve_noncommuting_cc(state_exact, WINDOW, cfg)
    assert found


def test_commuting_constraint_returns_nothing(state_float):
    cfg = SolverConfig(seed=5, restarts=4, tol=1e-8, commuting_constraint=True)
    assert solve_noncommuting_cc(state_float, WINDOW, cfg) == []


def test_uncorrelated_state_admits_solutions(events_float):
    state = build_lambda_state(
        *events_float, dict.fromkeys(("AB", "ApBp", "ABp", "ApB"), 0.25)
    )
    # search the window that contains the first event itself
    window = DoubleCone.span(0, Fraction(-1, 2), Fraction(1, 2))
    cfg = SolverConfig(seed=3, restarts=4, tol=1e-8)
    found = solve_noncommuting_cc(state, window, cfg)
    assert found
    # the event's own partition is among the zero-residual solutions and is trivial
    a = events_float[0]
    part = PartitionOfUnity([a, Operator.identity() - a])
    report = noncommuting_ccs_residuals(state, part)
    assert report.satisfied
    assert report.trivial


def test_determinism(state_float):
    cfg = SolverConfig(seed=11, restarts=3, tol=1e-8)
    first = solve_noncommuting_cc(state_float, WINDOW, cfg)
    second = solve_noncommuting_cc(state_float, WINDOW, cfg)
    assert len(first) == len(second)
    for c1, c2 in zip(first, second):
        assert c1.restart == c2.restart
        assert c1.projection == c2.projection


def test_window_budget(state_float):
    cfg = SolverConfig(seed=0, restarts=1, max_window_qubits=3)
    with pytest.raises(BudgetError):
        solve_noncommuting_cc(state_float, DoubleCone.span(0, -3, 4), cfg)


def test_rank_validation(state_float):
    from isingccp import PreconditionError

    with pytest.raises(PreconditionError):
        solve_noncommuting_cc(state_float, WINDOW, SolverConfig(rank=4, restarts=1))


def test_surface_window_required(state_float):
    from isingccp import PreconditionError

    with pytest.raises(PreconditionError):
        solve_noncommuting_cc(state_float, DoubleCone.span(1, 0, 1), SolverConfig(restarts=1))


# -- the window object's check of a restart's candidate ------------------------


@pytest.fixture(scope="module")
def solution(state_float):
    """A zero-residual noncommuting candidate of the free search."""
    found = solve_noncommuting_cc(state_float, WINDOW, SolverConfig(seed=5, restarts=1))
    assert found and not found[0].commuting
    return found[0]


def test_judge_rejects_a_matrix_outside_the_search_window(state_float, solution):
    obj = search._Objective(state_float, WINDOW, SolverConfig())
    # rotate the solution by exp(i e U(3/2)): still a projection on the matrix
    # window, but off the search window's algebra by O(e), while its expansion
    # in that algebra is a projection up to O(e**2)
    assert obj.mat_win[1] == Fraction(3, 2) and 3 not in obj.sites
    e = 1e-5
    x = to_matrix(Operator.from_terms([(1.0, [Fraction(3, 2)])]), obj.mat_win)
    v = np.cos(e) * np.eye(obj.dim) + 1j * np.sin(e) * x
    c_mat = to_matrix(solution.projection, obj.mat_win)
    assert obj.judge(c_mat, 0, 0.0) is not None
    assert obj.judge(v @ c_mat @ v.conj().T, 0, 0.0) is None


def test_judge_rejects_a_non_projection(state_float):
    obj = search._Objective(state_float, WINDOW, SolverConfig())
    assert obj.judge(0.5 * np.eye(obj.dim), 0, 0.0) is None


def test_judge_rejects_a_noncommuting_solution_under_the_constraint(state_float, solution):
    free = search._Objective(state_float, WINDOW, SolverConfig())
    c_mat = to_matrix(solution.projection, free.mat_win)
    accepted = free.judge(c_mat, 3, 0.25)
    assert (accepted.projection - solution.projection).is_close_to_zero(1e-12)
    assert (accepted.restart, accepted.objective, accepted.commuting) == (3, 0.25, False)
    # the projection holds its terms in the order terms() lists them, so a
    # rebuild from that list sums its residuals to the same bits
    rebuilt = Operator.from_terms([(c, [Fraction(s, 2) for s in sites])
                                   for sites, c in accepted.projection.terms()])
    report = noncommuting_ccs_residuals(
        state_float, PartitionOfUnity([rebuilt, Operator.identity() - rebuilt]))
    assert tuple(abs(c.residual.real) for c in report.cells) == accepted.residuals
    constrained = search._Objective(state_float, WINDOW, SolverConfig(commuting_constraint=True))
    assert constrained.judge(c_mat, 3, 0.25) is None


# -- the batched objective against a per-point reference -----------------------

SEARCH_WINDOWS = [WINDOW, DoubleCone.span(0, 0, 2)]  # one and two sites wide


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _per_point(obj):
    """Projector and objective one point at a time: the reference the batch equals bit for bit."""
    n, dim = obj.basis_flat.shape[0], obj.dim
    basis_mats = obj.basis_flat.reshape(n, dim, dim)

    def projector(x):
        h = np.tensordot(x, basis_mats, axes=1)
        _, vecs = np.linalg.eigh(h)
        top = vecs[:, dim - obj.rank_full:]
        return top @ top.conj().T

    def residual_pair(c):
        out = []
        for cell in (c, np.eye(dim) - c):
            rho_k = cell @ obj.rho @ cell
            vals = [np.trace(s @ rho_k).real for s in obj.sector_mats]
            out.append(vals[0] * vals[1] - vals[2] * vals[3])
        return out[0], out[1]

    def objective(x):
        c = projector(x)
        r1, r2 = residual_pair(c)
        if obj.constrained:
            comm_a = np.linalg.norm(c @ obj.a_mat - obj.a_mat @ c) / dim
            comm_b = np.linalg.norm(c @ obj.b_mat - obj.b_mat @ c) / dim
            return np.array([r1, r2, search._PENALTY * comm_a, search._PENALTY * comm_b])
        return np.array([r1, r2])

    return projector, objective


def _objective(state, window, constrained):
    cfg = SolverConfig(commuting_constraint=constrained)
    return search._Objective(state.to_float(), window, cfg)


@settings(max_examples=25, deadline=None)
@given(
    window=st.sampled_from(SEARCH_WINDOWS),
    constrained=st.booleans(),
    k=st.integers(1, 5),
    data=st.data(),
)
def test_batched_rows_equal_the_per_point_objective(state_float, window, constrained, k, data):
    obj = _objective(state_float, window, constrained)
    n, dim = obj.basis_flat.shape[0], obj.dim
    coords = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    xs = np.array(data.draw(st.lists(st.lists(coords, min_size=n, max_size=n),
                                     min_size=k, max_size=k)))
    projector, objective = _per_point(obj)
    want = np.array([objective(x) for x in xs])
    for chunk in (1, 2, 3):
        with patch.object(search, "_CHUNK_ENTRIES", chunk * dim * dim):
            assert _same_bits(obj.rows(xs), want)
    for x in xs:
        assert _same_bits(obj.projectors(x[None])[0], projector(x))
        assert _same_bits(obj.fun(x), objective(x))


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("window", SEARCH_WINDOWS)
def test_jacobian_is_scipys_two_point_rule(state_float, window, constrained):
    obj = _objective(state_float, window, constrained)
    _, objective = _per_point(obj)
    rng = np.random.default_rng(7)
    for x in (rng.normal(size=obj.basis_flat.shape[0]) for _ in range(3)):
        want = approx_derivative(objective, x, method="2-point", f0=objective(x))
        assert _same_bits(obj.jac(x), want)  # no cached base value: evaluates f(x)
        obj.fun(x)
        assert _same_bits(obj.jac(x), want)  # base value from the last fun call


@pytest.mark.parametrize("constrained", [False, True])
def test_solve_matches_scipys_own_two_point_jacobian(state_float, constrained):
    cfg = SolverConfig(seed=5, restarts=2, tol=1e-8, max_iters=15,
                       commuting_constraint=constrained)

    def solve(jac):
        counts = []

        def wrapped(*args, **kwargs):
            if jac is not None:
                kwargs["jac"] = jac
            out = least_squares(*args, **kwargs)
            counts.append((out.nfev, out.njev))
            return out

        with patch.object(search, "least_squares", wrapped):
            found = solve_noncommuting_cc(state_float, WINDOW, cfg)
        return json.dumps([c.to_dict() for c in found], sort_keys=True), counts

    batched, batched_counts = solve(None)
    scipys, scipys_counts = solve("2-point")
    assert batched == scipys
    assert batched_counts == scipys_counts
    assert len(batched_counts) == 2
