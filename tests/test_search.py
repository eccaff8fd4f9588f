import logging
import warnings
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        assert cand.projection.adjoint() == cand.projection
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
    # 13 qubits: over the 10 a matrix window may span, refused before its sites are listed
    cfg = SolverConfig(seed=0, restarts=1)
    with patch.object(DoubleCone, "sites", side_effect=AssertionError("sites were listed")), \
            pytest.raises(BudgetError, match="13 qubits"):
        solve_noncommuting_cc(state_float, DoubleCone.span(0, -6, 6), cfg)


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
    assert isinstance(obj.judge(c_mat, 0, 0.0), search.Candidate)
    assert obj.judge(v @ c_mat @ v.conj().T, 0, 0.0) == "outside window"


def test_judge_rejects_a_non_projection(state_float):
    obj = search._Objective(state_float, WINDOW, SolverConfig())
    assert obj.judge(0.5 * np.eye(obj.dim), 0, 0.0) == "not a projection"


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
    assert constrained.judge(c_mat, 3, 0.25) == "noncommuting"


@pytest.mark.parametrize("constrained", [False, True])
def test_each_restart_logs_one_debug_record(state_float, caplog, constrained):
    logger = logging.getLogger("isingccp.search")
    assert not logger.handlers  # nothing is printed unless the caller configures logging
    cfg = SolverConfig(seed=5, restarts=3, max_iters=15, commuting_constraint=constrained)
    with caplog.at_level(logging.DEBUG, logger=logger.name):
        found = solve_noncommuting_cc(state_float, WINDOW, cfg)
    records = [r for r in caplog.records if r.name == logger.name]
    assert [(r.levelno, r.args[0]) for r in records] == [(logging.DEBUG, k) for k in range(3)]
    verdicts = [r.args[1] for r in records]
    if constrained:
        # the commuting projections the search reaches do not screen off
        assert found == [] and verdicts == ["residual"] * 3
    else:
        assert verdicts.count("accepted") == len(found) > 0
        assert set(verdicts) <= {"accepted", "outside window", "not a projection", "residual"}
    for r in records:  # restart, verdict, nfev, njev, status, objective
        assert r.args[2] >= r.args[3] >= 1 and r.args[5] >= 0


# -- the objective against a per-point reference, and its Jacobian ------------

SEARCH_WINDOWS = [WINDOW, DoubleCone.span(0, 0, 2)]  # one and two sites wide


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


def _per_point(obj):
    """Projector and objective written out plainly: the reference ``_Objective`` equals bit for bit."""
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
            a_mat, b_mat = obj.event_mats
            comm_a = np.linalg.norm(c @ a_mat - a_mat @ c) / dim
            comm_b = np.linalg.norm(c @ b_mat - b_mat @ c) / dim
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
    k=st.integers(1, 3),
    data=st.data(),
)
def test_objective_equals_the_per_point_reference(state_float, window, constrained, k, data):
    obj = _objective(state_float, window, constrained)
    n = obj.basis_flat.shape[0]
    coords = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    projector, objective = _per_point(obj)
    for _ in range(k):
        x = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
        rows, (_, _, (c, _), _, comms) = obj.evaluate(x)
        assert _same_bits(c, projector(x))
        assert _same_bits(rows, objective(x))
        # the commutators jac reads, one per event under the constraint
        assert len(comms) == (2 if constrained else 0)
        for e, (d, norm) in zip(obj.event_mats, comms):
            assert _same_bits(d, c @ e - e @ c) and norm == np.linalg.norm(d)


def _central_differences(fun, x, step=1e-6):
    return np.array([(fun(x + step * e) - fun(x - step * e)) / (2 * step)
                     for e in np.eye(len(x))]).T


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("window", SEARCH_WINDOWS)
def test_jacobian_matches_central_differences(state_float, window, constrained):
    obj = _objective(state_float, window, constrained)
    n = obj.basis_flat.shape[0]
    rng = np.random.default_rng(7)
    for x in (rng.normal(size=n) for _ in range(3)):
        want = _central_differences(lambda y: obj.evaluate(y)[0], x)
        got = obj.jac(x, obj.evaluate(x)[1])
        obj.evaluate(x + 1.0)
        # jac reads only the point it is given, not the last evaluation
        assert _same_bits(obj.jac(x, obj.evaluate(x)[1]), got)
        assert got.shape == (4 if constrained else 2, n)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
    # at x = 0 every eigenvalue ties: every gap is 0 and the Jacobian stays finite
    assert np.all(np.isfinite(obj.jac(np.zeros(n), obj.evaluate(np.zeros(n))[1])))


@pytest.mark.parametrize("constrained", [False, True])
def test_solve_runs_one_eigh_per_objective_evaluation(state_float, constrained):
    cfg = SolverConfig(seed=5, restarts=2, tol=1e-8, max_iters=15,
                       commuting_constraint=constrained)
    eighs, traces, counts, jac_calls = [], [], [], []
    eigh, least_squares = np.linalg.eigh, search.least_squares
    jac, trace_cells = search._Objective.jac, search._Objective._traces

    def counted_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return eigh(a, *args, **kwargs)

    def counted_traces(self, cell):
        traces.append(cell.shape)
        return trace_cells(self, cell)

    def counted_least_squares(*args, **kwargs):
        out = least_squares(*args, **kwargs)
        counts.append((out.nfev, out.njev))
        return out

    def counted_jac(self, x, point):
        before = len(eighs), len(traces)
        out = jac(self, x, point)
        jac_calls.append((len(eighs), len(traces)) != before)
        return out

    with patch.object(np.linalg, "eigh", counted_eigh), \
            patch.object(search._Objective, "_traces", counted_traces), \
            patch.object(search, "least_squares", counted_least_squares), \
            patch.object(search._Objective, "jac", counted_jac):
        solve_noncommuting_cc(state_float, WINDOW, cfg)
    assert len(counts) == 2
    # one per objective evaluation, and none for a restart's candidate
    assert len(eighs) == sum(nfev for nfev, _ in counts)
    assert len(traces) == 2 * sum(nfev for nfev, _ in counts)
    # no Jacobian makes an eigh or takes a trace
    assert len(jac_calls) == sum(njev for _, njev in counts) > 0
    assert not any(jac_calls)


# -- the Levenberg-Marquardt loop ----------------------------------------------


def _solver_runs(state, window, cfg):
    """Each restart's solver result, and the accepted candidates."""
    runs, least_squares = [], search.least_squares

    def recorded(*args, **kwargs):
        runs.append(least_squares(*args, **kwargs))
        return runs[-1]

    with patch.object(search, "least_squares", recorded):
        found = solve_noncommuting_cc(state, window, cfg)
    return runs, found


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("window", SEARCH_WINDOWS)
def test_solver_stays_within_max_iters_times_n(state_float, window, constrained):
    cfg = SolverConfig(seed=5, restarts=3, max_iters=1, commuting_constraint=constrained)
    runs, _ = _solver_runs(state_float, window, cfg)
    cap = cfg.max_iters * (2 ** len(window.sites()) - 1)
    assert len(runs) == 3
    for run in runs:
        assert 1 <= run.njev <= run.nfev <= cap
        assert run.status != 0 or run.nfev == cap  # status 0: stopped at the cap, not past it


@pytest.mark.parametrize("constrained", [False, True])
@pytest.mark.parametrize("window", SEARCH_WINDOWS)
def test_solver_returns_what_its_last_accepted_point_evaluated(state_float, window, constrained):
    obj = _objective(state_float, window, constrained)
    n = obj.basis_flat.shape[0]
    for seed in range(3):
        x0 = np.random.default_rng([5, seed]).normal(size=n)
        out = search.least_squares(obj.evaluate, x0, obj.jac, 20 * n)
        rows, point = obj.evaluate(out.x)
        assert _same_bits(out.fun, rows)
        vals, vecs, cells, traces, comms = point
        assert _same_bits(out.aux[0], vals) and _same_bits(out.aux[1], vecs)
        assert all(_same_bits(a, b) for a, b in zip(out.aux[2], cells, strict=True))
        assert all(_same_bits(a, b) for a, b in zip(out.aux[3], traces, strict=True))
        assert all(_same_bits(a[0], b[0]) and _same_bits(a[1], b[1])
                   for a, b in zip(out.aux[4], comms, strict=True))


@pytest.mark.parametrize("constrained", [False, True])
def test_solver_start_where_every_eigenvalue_ties_ends_finite(state_float, constrained):
    obj = _objective(state_float, WINDOW, constrained)
    n = obj.basis_flat.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = search.least_squares(obj.evaluate, np.zeros(n), obj.jac, 400 * n)
    assert np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.fun))
    # the start is final: its cost is 0 (status 4), or every gap is 0, so the
    # Jacobian and the gradient vanish (status 1)
    assert (out.nfev, out.njev) == (1, 1) and out.status in (1, 4)


def test_accepted_restarts_end_with_rows_below_tol(state_float):
    cfg = SolverConfig(seed=5, restarts=4, tol=1e-8)
    runs, found = _solver_runs(state_float, WINDOW, cfg)
    assert found
    for cand in found:
        f = runs[cand.restart].fun
        assert np.max(np.abs(f)) < cfg.tol
        assert cand.objective == float(np.sum(f ** 2))


def test_search_over_the_evaluation_budget_is_refused_before_any_restart(state_float):
    # restarts x max_iters x n: 2 x 400,000 x 7 is over DEFAULT_BUDGET
    cfg = SolverConfig(seed=5, restarts=2, max_iters=400_000)
    with patch.object(search, "least_squares", side_effect=AssertionError("a restart ran")), \
            pytest.raises(BudgetError, match="5600000 objective evaluations"):
        solve_noncommuting_cc(state_float, WINDOW, cfg)
    # the defaults on the two-site window make 20 x 400 x 31 = 248,000, under it
    obj = search._Objective(state_float, SEARCH_WINDOWS[1], SolverConfig())
    assert len(obj.words) == 31
