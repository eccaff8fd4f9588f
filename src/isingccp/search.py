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

The residual rows are driven to zero by :func:`least_squares`, a
Levenberg-Marquardt loop with Nielsen's damping.  It gets the Jacobian in
closed form, from the first-order perturbation of a spectral projection
(Daleckii-Krein; T. Kato, *Perturbation Theory for Linear Operators*, ch. II
sec. 2): with h = V diag(l) V^H,

    dC/dx_j = V (K o V^H B_j V) V^H,    K_ab = 1 / (l_a - l_b)

when exactly one of a, b is a kept eigenvalue, the kept one first, and
K_ab = 0 otherwise or where that gap is exactly 0.  Each point is evaluated
once: the Jacobian and each restart's candidate C reuse what the objective
computed there, so a restart makes one ``eigh`` per objective evaluation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .algebra import (
    Operator,
    commutes,
    is_projection,
    localization,
    qubit_range,
    terms_json,
    to_matrix,
    window_monomials,
)
from .causal import DEFAULT_BUDGET, noncommuting_ccs_residuals
from .errors import BudgetError, PreconditionError
from .geometry import PAST_MODES, DoubleCone, pasts
from .halfint import double_str, from_double, to_double
from .states import SECTORS, LambdaState

__all__ = ["SolverConfig", "Candidate", "solve_noncommuting_cc"]

# weight of the commutator norms against the residuals under the commuting constraint
_PENALTY = 3.0
# least_squares stops on a gradient entry, a relative step or a relative cost
# drop below this
_TOL = 1e-15

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SolverConfig:
    """Reproducible settings for the projection search.

    ``rank`` is the rank of the candidate within the search window's qubit
    representation (default: half the window dimension).  With
    ``commuting_constraint`` the commutators with both events join the
    residual vector and candidates that fail to commute are rejected.

    ``max_iters`` caps the solver's ``nfev`` at ``max_iters * n`` per
    restart, for the ``n = 2**s - 1`` basis monomials of a window of ``s``
    half-integer sites.  One restart makes at most ``max_iters * n``
    objective evaluations and at most as many Jacobians.  A search whose
    bound ``restarts * max_iters * n``, or whose basis of ``n`` dense
    ``dim x dim`` matrices, exceeds ``causal.DEFAULT_BUDGET`` is refused with
    :class:`~isingccp.errors.BudgetError` before any basis matrix is built.
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


class LeastSquaresResult(NamedTuple):
    """The last accepted point with the rows and ``aux`` ``fun`` gave there,
    the numbers of ``fun`` and ``jac`` calls, and the status it stopped with."""

    x: np.ndarray
    fun: np.ndarray
    aux: object
    nfev: int
    njev: int
    status: int


def least_squares(fun, x0: np.ndarray, jac, max_nfev: int) -> LeastSquaresResult:
    """Minimise ``|f(x)|**2`` for ``m`` residual rows in ``n >= m`` unknowns
    by Levenberg-Marquardt (K. Madsen, H. B. Nielsen, O. Tingleff, *Methods
    for Non-Linear Least Squares Problems*, 2004, sec. 3.2; J. J. Moré, 1978).

    ``fun(x)`` returns the rows ``f`` at ``x`` and an ``aux`` with whatever
    ``jac`` needs there; ``jac(x, aux)`` gives the ``(m, n)`` Jacobian ``J``
    and is asked only at the start and at accepted points, with that
    ``aux``, which the result also carries for its last accepted point.  A
    step solves one ``m x m`` system: ``y = (J J^T + lam I)^-1 f`` and
    ``step = -J^T y``.  ``lam`` starts at ``1e-3 max diag(J J^T)``; an
    accepted step, with gain ratio ``rho``, scales it by
    ``max(1/3, 1 - (2 rho - 1)**3)`` and resets ``nu`` to 2, and a rejected
    one scales it by ``nu`` and doubles ``nu``.

    ``status`` says why the loop stopped:

    - 0: ``max_nfev`` calls of ``fun`` were made;
    - 1: the gradient ``J^T f`` has no entry above ``1e-15`` in size;
    - 2: an accepted step lowered the cost by less than ``1e-15`` of it;
    - 3: a step was shorter than ``1e-15 (1e-15 + |x|)``;
    - 4: the cost is exactly 0;
    - 5: the damping ``lam`` left ``(0, inf)``.
    """
    x = x0
    f, aux = fun(x)
    jmat = jac(x, aux)
    nfev = njev = 1
    lam, nu = None, 2.0

    def result(status):
        return LeastSquaresResult(x, f, aux, nfev, njev, status)

    while True:
        cost = f @ f
        if cost == 0:
            return result(4)
        if np.max(np.abs(jmat.T @ f)) <= _TOL:
            return result(1)
        a = jmat @ jmat.T
        if lam is None:
            lam = 1e-3 * float(np.max(np.diag(a)))
        while True:  # damp harder until a step lowers the cost
            if nfev >= max_nfev:
                return result(0)
            if not 0 < lam < math.inf:
                return result(5)
            y = np.linalg.solve(a + lam * np.eye(len(f)), f)
            step = -(jmat.T @ y)
            if np.linalg.norm(step) <= _TOL * (_TOL + np.linalg.norm(x)):
                return result(3)
            x_new = x + step
            f_new, aux_new = fun(x_new)
            nfev += 1
            drop = cost - f_new @ f_new
            if drop > 0:
                break
            lam *= nu
            nu *= 2
        # the gain ratio against the linear model's drop |f|^2 - |f - J J^T y|^2;
        # a ratio of 1 or more (or a model drop lost to rounding) gives 1/3
        r = f - a @ y
        predicted = cost - r @ r
        rho = float(drop / predicted) if predicted > drop else 1.0
        lam *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
        nu = 2.0
        x, f, aux = x_new, f_new, aux_new
        jmat = jac(x, aux)
        njev += 1
        if drop < _TOL * cost:
            return result(2)


class _Objective:
    """One search window: its matrices, the residual rows at a point with
    their Jacobian, and the check of each restart's candidate.

    ``evaluate(x)`` gives the ``m`` residual rows at ``x``, ``m`` being 2, or
    4 under the commuting constraint, with everything it computed for them,
    which ``jac`` reads instead of computing it again.  Each row f is a
    function of C alone with df = Re tr(dC G) for a matrix G, so by the
    module docstring's formula df/dx_j = Re tr(B_j V (K o V^H G V) V^H): one
    transform per row and one product with the basis give the whole Jacobian.
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
        n = 2 ** len(sites) - 1  # the basis monomials, identity excluded
        evaluations = cfg.restarts * cfg.max_iters * n
        if evaluations > DEFAULT_BUDGET:
            raise BudgetError(
                f"the search may make {evaluations} objective evaluations ({cfg.restarts} restarts"
                f" x {cfg.max_iters} x {n}), over the budget of {DEFAULT_BUDGET}"
            )
        self.dim = dim = 2 ** n_full
        if n * dim * dim > DEFAULT_BUDGET:
            raise BudgetError(
                f"the search basis needs {n * dim * dim} matrix entries ({n} monomials"
                f" x {dim} x {dim}), over the budget of {DEFAULT_BUDGET}"
            )
        # the Hermitian basis of the window algebra (identity excluded): a
        # monomial, or i times it when its adjoint is minus itself
        self.words = [(word, "+1" if sign > 0 else "+i") for word, sign in window_monomials(sites)]
        win_dim = 2 ** len(qubit_range((sites[0], sites[-1])))
        rank = cfg.rank if cfg.rank is not None else win_dim // 2
        if not 0 < rank < win_dim:
            raise PreconditionError(f"rank must lie strictly between 0 and {win_dim}")
        self.rank_full = rank * (dim // win_dim)
        self.constrained = cfg.commuting_constraint

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

    def _h(self, x: np.ndarray) -> np.ndarray:
        # a (1, n) by (n, dim**2) product, as np.tensordot(x, basis, 1) rounds it
        n, dim = len(self.basis_flat), self.dim
        return np.dot(x.reshape(1, n), self.basis_flat).reshape(dim, dim)

    def _traces(self, cell: np.ndarray) -> list:
        """Tr(S cell rho cell) for the four sectors S."""
        rho_k = cell @ self.rho @ cell
        return [np.trace(s @ rho_k).real for s in self.sector_mats]

    def evaluate(self, x: np.ndarray) -> tuple:
        """The residual rows at ``x`` and the tuple ``(vals, vecs, cells,
        traces)`` they came from: the eigendecomposition of h(x), the cells C
        (its rank-``rank_full`` top spectral projection) and 1 - C, and each
        cell's four sector traces."""
        vals, vecs = np.linalg.eigh(self._h(x))
        top = vecs[:, self.dim - self.rank_full:]
        c = top @ top.conj().T
        cells = (c, self.eye - c)
        traces = tuple(self._traces(cell) for cell in cells)
        out = [t[0] * t[1] - t[2] * t[3] for t in traces]
        if self.constrained:
            out += [_PENALTY * (np.linalg.norm(c @ e - e @ c) / self.dim) for e in self.event_mats]
        return np.array(out), (vals, vecs, cells, traces)

    def jac(self, x: np.ndarray, point: tuple) -> np.ndarray:
        """The ``(m, n)`` Jacobian of the rows at ``x``, from the ``point``
        tuple that ``evaluate(x)`` returned, with no ``eigh`` or traces."""
        vals, vecs, cells, traces = point
        c = cells[0]
        s0, s1, s2, s3 = self.sector_mats
        grads = []  # G per row, with d row = Re tr(dC G)
        for sign, cell, t in zip((2.0, -2.0), cells, traces):
            # d Tr(S D rho D) = 2 Re Tr(dD rho D S) for Hermitian dD = +-dC;
            # the product rule weighs each sector by its partner's trace
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
        cone = localization(c_op)
        cell_trivial = tuple(c.trivial for c in report.cells)
        return Candidate(
            projection=c_op,
            residuals=residuals,
            objective=objective,
            commuting=comm,
            cell_trivial=cell_trivial,
            trivial=all(cell_trivial),
            support=(cone.i, cone.j),
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
    this module's logger: its verdict, the solver's ``nfev``, ``njev`` and
    ``status`` (see :func:`least_squares`), and the objective.
    """
    cfg = config or SolverConfig()
    obj = _Objective(state.to_float(), window, cfg)
    n = len(obj.basis_flat)
    candidates = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
        result = least_squares(obj.evaluate, rng.normal(size=n), obj.jac, cfg.max_iters * n)
        objective = float(np.sum(result.fun ** 2))
        verdict = obj.judge(result.aux[2][0], restart, objective)  # the point's C
        accepted = isinstance(verdict, Candidate)
        if accepted:
            candidates.append(verdict)
        _log.debug("restart %d: %s, nfev %d, njev %d, status %d, objective %.3e", restart,
                   "accepted" if accepted else verdict, result.nfev, result.njev,
                   result.status, objective)
    return candidates
