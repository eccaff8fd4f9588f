"""Numerical search for two-cell noncommuting screening-off partitions.

The candidate cell C is parametrized as the rank-r spectral projection of a
self-adjoint element h(x) = sum_j x_j B_j of the window algebra, so every
iterate is exactly a projection in that algebra; the search then drives the
two screening-off residuals for {C, 1-C} to zero by least squares from
random restarts.

The objective works on a dense matrix window through the identity

    (phi o E)(X C) = Tr(X C rho C),    rho = window density of the state,

and every accepted candidate is re-verified through the symbolic operator
route, so the matrix shortcut never certifies itself.

scipy's ``least_squares`` gets the Jacobian in closed form, from the
first-order perturbation of a spectral projection (Daleckii-Krein; T. Kato,
*Perturbation Theory for Linear Operators*, ch. II sec. 2): with
h = V diag(l) V^H,

    dC/dx_j = V (K o V^H B_j V) V^H,    K_ab = 1 / (l_a - l_b)

when exactly one of a, b is a kept eigenvalue, the kept one first, and
K_ab = 0 otherwise or where that gap is exactly 0.  The Jacobian at x
reuses the eigendecomposition that ``fun`` made there, so a trust-region
step costs one ``eigh``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Operator,
    commutes,
    is_projection,
    localization,
    qubit_range,
    support_interval,
    terms_json,
    to_matrix,
    window_monomials,
)
from .causal import noncommuting_ccs_residuals
from .errors import BudgetError, PreconditionError
from .geometry import PAST_MODES, DoubleCone, pasts
from .halfint import double_str, from_double, to_double
from .states import SECTORS, LambdaState

__all__ = ["SolverConfig", "Candidate", "solve_noncommuting_cc"]

# weight of the commutator norms against the residuals under the commuting constraint
_PENALTY = 3.0

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Reproducible settings for the projection search.

    ``rank`` is the rank of the candidate within the search window's qubit
    representation (default: half the window dimension).  With
    ``commuting_constraint`` the commutators with both events join the
    residual vector and candidates that fail to commute are rejected.

    ``max_iters`` caps scipy's ``nfev`` at ``max_iters * n`` per restart, for
    the ``n = 2**s - 1`` basis monomials of a window of ``s`` half-integer
    sites.  The Jacobian is analytic, so one restart makes at most
    ``max_iters * n`` objective evaluations and at most as many Jacobians,
    each reusing the ``eigh`` of its step's objective evaluation.
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
        return {
            "restart": self.restart,
            "residuals": [float(r) for r in self.residuals],
            "objective": float(self.objective),
            "commuting": self.commuting,
            "trivial": self.trivial,
            "cell_trivial": list(self.cell_trivial),
            "support": [double_str(to_double(s)) for s in self.support],
            "localization": self.localization,
            "projection": terms_json(self.projection),
        }


def least_squares(*args, **kwargs):
    """scipy's ``least_squares``, imported on first use: only the search loads scipy."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


class _Objective:
    """One search window: its matrices, the residual rows at a point with
    their Jacobian, and the check of each restart's candidate.

    ``fun(x)`` gives the ``m`` residual rows at ``x``, ``m`` being 2, or 4
    under the commuting constraint, and keeps the eigendecomposition of h(x)
    for ``jac(x)``.  Each row f is a function of C alone with
    df = Re tr(dC G) for a matrix G, so by the module docstring's formula
    df/dx_j = Re tr(B_j V (K o V^H G V) V^H): one transform per row and one
    product with the basis give the whole Jacobian.
    """

    def __init__(self, fstate: LambdaState, window: DoubleCone, cfg: SolverConfig):
        if window.t != 0:
            raise PreconditionError("the search window must sit on the Cauchy surface (t = 0)")
        self.fstate, self.cfg = fstate, cfg
        self.sites = sites = window.sites()
        self.a_loc, self.b_loc = localization(fstate.a), localization(fstate.b)
        lo, hi = fstate.window()
        lo, hi = min(lo, sites[0]), max(hi, sites[-1])
        self.mat_win = (from_double(lo), from_double(hi))

        n_full = len(qubit_range((lo, hi)))
        if n_full > cfg.max_window_qubits:
            raise BudgetError(
                f"matrix window needs {n_full} qubits, over the budget of {cfg.max_window_qubits}"
            )
        self.dim = dim = 2 ** n_full
        win_dim = 2 ** len(qubit_range((sites[0], sites[-1])))
        rank = cfg.rank if cfg.rank is not None else win_dim // 2
        if not 0 < rank < win_dim:
            raise PreconditionError(f"rank must lie strictly between 0 and {win_dim}")
        self.rank_full = rank * (dim // win_dim)
        self.constrained = cfg.commuting_constraint

        # the Hermitian basis of the window algebra (identity excluded): a
        # monomial, or i times it when its adjoint is minus itself
        self.words = [(word, "+1" if sign > 0 else "+i") for word, sign in window_monomials(sites)]
        basis = [to_matrix(Operator.from_terms([(1.0, word, phase)]), self.mat_win)
                 for word, phase in self.words]
        self.basis_flat = np.array(basis).reshape(len(basis), dim * dim)
        self.sector_mats = [to_matrix(fstate.sectors[k].to_float(), self.mat_win) for k in SECTORS]
        self.rho = fstate.density_matrix(self.mat_win)
        self.event_mats = (to_matrix(fstate.a, self.mat_win), to_matrix(fstate.b, self.mat_win))
        self.eye = np.eye(dim)
        # +1 where the row's eigenvalue is kept and the column's is not, -1 for
        # the reverse, 0 otherwise: the orientation of K's gaps
        kept = np.arange(dim) >= dim - self.rank_full
        self.orient = kept[:, None] * 1.0 - kept[None, :]
        self._last = (None, None)  # (point bytes, eigh of h) of the last ``fun`` call

    def _h(self, x: np.ndarray) -> np.ndarray:
        # a (1, n) by (n, dim**2) product, as np.tensordot(x, basis, 1) rounds it
        n, dim = len(self.basis_flat), self.dim
        return np.dot(x.reshape(1, n), self.basis_flat).reshape(dim, dim)

    def _top(self, vecs: np.ndarray) -> np.ndarray:
        top = vecs[:, self.dim - self.rank_full:]
        return top @ top.conj().T

    def _traces(self, cell: np.ndarray) -> list:
        """Tr(S cell rho cell) for the four sectors S."""
        rho_k = cell @ self.rho @ cell
        return [np.trace(s @ rho_k).real for s in self.sector_mats]

    def projector(self, x: np.ndarray) -> np.ndarray:
        """The rank-``rank_full`` top spectral projection of h(x)."""
        return self._top(np.linalg.eigh(self._h(x))[1])

    def fun(self, x: np.ndarray) -> np.ndarray:
        """scipy's ``fun``: the residual rows at ``x``."""
        spectrum = np.linalg.eigh(self._h(x))
        self._last = (x.tobytes(), spectrum)
        c = self._top(spectrum[1])
        out = []
        for cell in (c, self.eye - c):
            t = self._traces(cell)
            out.append(t[0] * t[1] - t[2] * t[3])
        if self.constrained:
            out += [_PENALTY * (np.linalg.norm(c @ e - e @ c) / self.dim) for e in self.event_mats]
        return np.array(out)

    def jac(self, x: np.ndarray) -> np.ndarray:
        """scipy's ``jac``: the ``(m, n)`` Jacobian of ``fun`` at ``x``, from the
        eigendecomposition of the last ``fun`` call, which scipy makes at ``x``
        before asking for the Jacobian there."""
        if self._last[0] != x.tobytes():
            self.fun(x)
        vals, vecs = self._last[1]
        c = self._top(vecs)
        s0, s1, s2, s3 = self.sector_mats
        grads = []  # G per row, with d row = Re tr(dC G)
        for sign, cell in ((2.0, c), (-2.0, self.eye - c)):
            # d Tr(S D rho D) = 2 Re Tr(dD rho D S) for Hermitian dD = +-dC;
            # the product rule weighs each sector by its partner's trace
            t = self._traces(cell)
            grads.append(sign * (self.rho @ cell @ (t[1] * s0 + t[0] * s1 - t[3] * s2 - t[2] * s3)))
        if self.constrained:
            for e in self.event_mats:
                # d|D| = Re Tr(D^H dD) / |D| for D = C E - E C, and
                # Tr(D^H (dC E - E dC)) = Tr(dC (E D^H - D^H E))
                d = c @ e - e @ c
                norm = np.linalg.norm(d)
                dh = d.conj().T
                grads.append((e @ dh - dh @ e) * (_PENALTY / (self.dim * norm)) if norm
                             else np.zeros_like(d))
        gap = self.orient * (vals[:, None] - vals)
        k = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap != 0)
        vh = vecs.conj().T
        z = vecs @ (k * (vh @ np.array(grads) @ vecs)) @ vh
        # Tr(B_j Z) = sum_cd (B_j)_cd Z_dc
        return (z.swapaxes(1, 2).reshape(len(grads), -1) @ self.basis_flat.T).real

    def judge(self, c_mat: np.ndarray, restart: int, objective: float) -> Candidate | str:
        """The candidate for a restart's projection matrix ``c_mat``, or the
        reason it is rejected, checked in this order: ``"outside window"``
        (it leaves the window algebra), ``"not a projection"``,
        ``"residual"`` (one at or above ``tol``) or ``"noncommuting"`` (it
        breaks the commuting constraint)."""
        # expand the matrix in the window's Hermitian basis, which is
        # HS-orthonormal, and confirm it stays inside the window algebra
        # (eigenvalue ties can push it outside)
        dim = self.dim
        unit = np.trace(c_mat).real / dim
        x = (self.basis_flat.conj() @ c_mat.ravel()).real / dim
        if np.linalg.norm(unit * self.eye + self._h(x) - c_mat) > 1e-8:
            return "outside window"
        terms = [(unit, ())] + [(xj, word, phase) for xj, (word, phase) in zip(x, self.words)]
        # keep the terms above 1e-11, inserted in ``Operator.terms()`` order:
        # the float sums of the checks below depend on the insertion order
        kept = sorted((term for term in terms if abs(term[0]) > 1e-11),
                      key=lambda term: [to_double(s) for s in term[1]])
        c_op = Operator.from_terms(kept)
        if c_op.is_zero or not is_projection(c_op, 1e-8):
            return "not a projection"
        # a projection C and 1 - C are orthogonal projections summing to 1
        fstate, cfg = self.fstate, self.cfg
        report = noncommuting_ccs_residuals(fstate, (c_op, Operator.identity() - c_op), tol=cfg.tol)
        residuals = tuple(abs(c.residual.real) for c in report.cells)
        if max(residuals) >= cfg.tol:
            return "residual"
        comm = commutes(c_op, fstate.a, 1e-9) and commutes(c_op, fstate.b, 1e-9)
        if self.constrained and not comm:
            return "noncommuting"
        span = support_interval(c_op)
        if span is None:
            span = (from_double(self.sites[0]), from_double(self.sites[-1]))
        cone = DoubleCone(0, to_double(span[0]), to_double(span[1]))
        cell_trivial = tuple(c.trivial for c in report.cells)
        return Candidate(
            projection=c_op,
            residuals=residuals,
            objective=objective,
            commuting=comm,
            cell_trivial=cell_trivial,
            trivial=all(cell_trivial),
            support=span,
            localization={mode: pasts(self.a_loc, self.b_loc, mode).contains(cone)
                          for mode in PAST_MODES},
            restart=restart,
        )


def solve_noncommuting_cc(state: LambdaState, window, config: SolverConfig | None = None) -> list:
    """Search the algebra of a ``DoubleCone`` window at t = 0 for two-cell
    screening-off partitions.

    Returns the accepted candidates in restart order, each annotated with
    its symbolically re-verified residuals, commutation and triviality
    flags, and the location of its support relative to the weak, common and
    strong pasts of the two events.  An empty list means no candidate
    reached the tolerance; with ``commuting_constraint`` candidates must
    also commute with both events.  Each restart logs one DEBUG record on
    this module's logger: its verdict, scipy's ``nfev``, ``njev`` and
    ``status``, and the objective.
    """
    cfg = config or SolverConfig()
    obj = _Objective(state.to_float(), window, cfg)
    n = len(obj.basis_flat)
    candidates = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        result = least_squares(
            obj.fun,
            rng.normal(size=n),
            method="trf",
            jac=obj.jac,
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=cfg.max_iters * n,
        )
        objective = float(np.sum(result.fun ** 2))
        verdict = obj.judge(obj.projector(result.x), restart, objective)
        accepted = isinstance(verdict, Candidate)
        if accepted:
            candidates.append(verdict)
        _log.debug("restart %d: %s, nfev %d, njev %d, status %d, objective %.3e", restart,
                   "accepted" if accepted else verdict, result.nfev, result.njev,
                   result.status, objective)
    return candidates
