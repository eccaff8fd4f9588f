"""Numerical search for two-cell noncommuting screening-off partitions.

The candidate cell C is parametrized as the rank-r spectral projection of a
self-adjoint element of the window algebra, so every iterate is exactly a
projection in that algebra; the search then drives the two screening-off
residuals for {C, 1-C} to zero by finite-difference least squares from
random restarts.

The objective works on a dense matrix window through the identity

    (phi o E)(X C) = Tr(X C rho C),    rho = window density of the state,

and every accepted candidate is re-verified through the symbolic operator
route, so the matrix shortcut never certifies itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .algebra import (
    Operator,
    commutes,
    is_projection,
    localization,
    support_interval,
    to_matrix,
    window_monomials,
)
from .causal import noncommuting_ccs_residuals
from .errors import BudgetError, PreconditionError
from .geometry import DoubleCone, pasts
from .halfint import from_double, to_double
from .states import SECTORS, LambdaState, PartitionOfUnity

__all__ = ["SolverConfig", "Candidate", "solve_noncommuting_cc"]

# weight of the commutator norms against the residuals under the commuting constraint
_PENALTY = 3.0


@dataclass(frozen=True)
class SolverConfig:
    """Reproducible settings for the projection search.

    ``rank`` is the rank of the candidate within the search window's qubit
    representation (default: half the window dimension).  With
    ``commuting_constraint`` the commutators with both events join the
    residual vector and candidates that fail to commute are rejected.

    ``max_iters`` caps scipy's ``nfev`` at ``max_iters * n`` per restart, for
    the ``n = 2**s - 1`` basis monomials of a window of ``s`` half-integer
    sites.  scipy's ``trf`` leaves the finite-difference calls of the
    Jacobian out of ``nfev``, so one restart can evaluate the objective up
    to ``max_iters * n * (n + 1)`` times.
    """

    seed: int = 0
    restarts: int = 20
    max_iters: int = 400
    tol: float = 1e-8
    rank: int | None = None
    commuting_constraint: bool = False
    max_window_qubits: int = 10


@dataclass
class Candidate:
    projection: Operator
    residuals: tuple
    objective: float
    commuting: bool
    cell_trivial: tuple
    trivial: bool
    support: tuple
    localization: dict
    restart: int

    def to_dict(self):
        from .halfint import double_str

        return {
            "restart": self.restart,
            "residuals": [float(r) for r in self.residuals],
            "objective": float(self.objective),
            "commuting": self.commuting,
            "trivial": self.trivial,
            "cell_trivial": list(self.cell_trivial),
            "support": [str(self.support[0]), str(self.support[1])],
            "localization": self.localization,
            "projection": [
                {
                    "coeff": [c.real, c.imag],
                    "sites": [double_str(s) for s in sites],
                }
                for sites, c in self.projection.terms()
            ],
        }


def _selfadjoint_basis(sites: list[int]) -> list[Operator]:
    """Hermitian monomial basis of the window algebra, identity excluded."""
    return [
        Operator.from_terms([(1.0 if sign > 0 else 1j, word)])
        for word, sign in window_monomials(sites)
    ]


def _window_sites(window) -> list[int]:
    if isinstance(window, DoubleCone):
        if window.t != 0:
            raise PreconditionError("the search window must sit on the Cauchy surface (t = 0)")
        return window.sites()
    i2, j2 = to_double(window[0]), to_double(window[1])
    if i2 > j2:
        raise PreconditionError("window needs i <= j")
    return list(range(i2, j2 + 1))


def _chop(op: Operator, tol: float = 1e-12) -> Operator:
    kept = [(c, [from_double(s) for s in sites]) for sites, c in op.terms() if abs(c) > tol]
    return Operator.from_terms(kept).with_labels(op.time, op.base)


def solve_noncommuting_cc(state: LambdaState, window, config: SolverConfig | None = None) -> list:
    """Search a window algebra for two-cell screening-off partitions.

    Returns the accepted candidates in restart order, each annotated with
    its symbolically re-verified residuals, commutation and triviality
    flags, and the location of its support relative to the weak, common and
    strong pasts of the two events.  An empty list means no candidate
    reached the tolerance; with ``commuting_constraint`` candidates must
    also commute with both events.
    """
    cfg = config or SolverConfig()
    fstate = state.to_float()
    sites = _window_sites(window)

    a_loc = localization(fstate.a)
    b_loc = localization(fstate.b)
    span_a, span_b = support_interval(fstate.a), support_interval(fstate.b)
    lo = min(to_double(span_a[0]), to_double(span_b[0]), sites[0])
    hi = max(to_double(span_a[1]), to_double(span_b[1]), sites[-1])
    mat_win = (from_double(lo), from_double(hi))

    n_full = (hi + 1) // 2 - lo // 2 + 1
    if n_full > cfg.max_window_qubits:
        raise BudgetError(
            f"matrix window needs {n_full} qubits, over the budget of {cfg.max_window_qubits}"
        )
    dim = 2 ** n_full
    n_win = (sites[-1] + 1) // 2 - sites[0] // 2 + 1
    win_dim = 2 ** n_win
    rank = cfg.rank if cfg.rank is not None else win_dim // 2
    if not 0 < rank < win_dim:
        raise PreconditionError(f"rank must lie strictly between 0 and {win_dim}")
    rank_full = rank * (dim // win_dim)

    basis = _selfadjoint_basis(sites)
    basis_mats = np.array([to_matrix(h, mat_win) for h in basis])
    sector_mats = {k: to_matrix(fstate.sectors[k].to_float(), mat_win) for k in SECTORS}
    rho = fstate.density_matrix(mat_win)
    a_mat = to_matrix(fstate.a, mat_win)
    b_mat = to_matrix(fstate.b, mat_win)

    def projector(x: np.ndarray) -> np.ndarray:
        h = np.tensordot(x, basis_mats, axes=1)
        _, vecs = np.linalg.eigh(h)
        top = vecs[:, dim - rank_full:]
        return top @ top.conj().T

    def residual_pair(c: np.ndarray) -> tuple[float, float]:
        out = []
        for cell in (c, np.eye(dim) - c):
            rho_k = cell @ rho @ cell
            vals = [np.trace(sector_mats[k] @ rho_k).real for k in SECTORS]
            out.append(vals[0] * vals[1] - vals[2] * vals[3])
        return out[0], out[1]

    def objective(x: np.ndarray) -> np.ndarray:
        c = projector(x)
        r1, r2 = residual_pair(c)
        if cfg.commuting_constraint:
            comm_a = np.linalg.norm(c @ a_mat - a_mat @ c) / dim
            comm_b = np.linalg.norm(c @ b_mat - b_mat @ c) / dim
            return np.array([r1, r2, _PENALTY * comm_a, _PENALTY * comm_b])
        return np.array([r1, r2])

    candidates = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        x0 = rng.normal(size=len(basis))
        result = least_squares(
            objective,
            x0,
            method="trf",
            jac="2-point",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=cfg.max_iters * len(basis),
        )
        c_mat = projector(result.x)
        cand = _postprocess(
            c_mat, basis, fstate, sites, mat_win, dim,
            a_loc, b_loc, cfg, restart, float(np.sum(result.fun ** 2)),
        )
        if cand is not None:
            candidates.append(cand)
    return candidates


def _postprocess(c_mat, basis, fstate, sites, mat_win, dim, a_loc, b_loc, cfg, restart, objective):
    # expand the matrix in the window's monomial basis and confirm it stays
    # inside the window algebra (eigenvalue ties can push it outside)
    unit = np.trace(c_mat).real / dim
    terms = [(unit, ())]
    recon = unit * np.eye(dim, dtype=complex)
    for word, sign in window_monomials(sites):
        mono_mat = to_matrix(Operator.from_terms([(1.0, word)]), mat_win)
        # monomial matrices are HS-orthonormal; the adjoint of one is its
        # reversal sign times itself
        c = sign * np.trace(mono_mat @ c_mat) / dim
        terms.append((complex(c), word))
        recon = recon + c * mono_mat
    if np.linalg.norm(recon - c_mat) > 1e-8:
        return None
    c_op = _chop(Operator.from_terms(terms), 1e-11)
    if c_op.is_zero or not is_projection(c_op, 1e-8):
        return None
    one = Operator.identity()
    try:
        part = PartitionOfUnity([c_op, one - c_op], tol=1e-7)
    except PreconditionError:
        return None
    report = noncommuting_ccs_residuals(fstate, part, tol=cfg.tol)
    residuals = tuple(abs(c.residual.real) for c in report.cells)
    if max(residuals) >= cfg.tol:
        return None
    comm = commutes(c_op, fstate.a, 1e-9) and commutes(c_op, fstate.b, 1e-9)
    if cfg.commuting_constraint and not comm:
        return None
    span = support_interval(c_op)
    if span is None:
        span = (from_double(sites[0]), from_double(sites[-1]))
    cone = DoubleCone(0, to_double(span[0]), to_double(span[1]))
    loc = {
        mode: pasts(a_loc, b_loc, mode).contains(cone)
        for mode in ("weak", "common", "strong")
    }
    cell_trivial = tuple(c.trivial for c in report.cells)
    return Candidate(
        projection=c_op,
        residuals=residuals,
        objective=objective,
        commuting=comm,
        cell_trivial=cell_trivial,
        trivial=all(cell_trivial),
        support=span,
        localization=loc,
        restart=restart,
    )
