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

The objective is evaluated for a stack of points at once.  scipy's
``least_squares`` gets it at one point as ``fun`` and, as ``jac``, scipy's
2-point rule with the n perturbed points of an iteration in one batch; each
row equals the single-point evaluation bit for bit, so iterates, reports and
``nfev``/``njev`` are what ``jac="2-point"`` gives.  A batch holds at most
2**20 complex matrix entries (points x dim**2).
"""

from __future__ import annotations

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
from .halfint import from_double, to_double
from .states import SECTORS, LambdaState

__all__ = ["SolverConfig", "Candidate", "solve_noncommuting_cc"]

# weight of the commutator norms against the residuals under the commuting constraint
_PENALTY = 3.0
# complex matrix entries (points x dim**2) evaluated per batch: every workload
# window fits one chunk, and a 10-qubit matrix window takes one point at a time
_CHUNK_ENTRIES = 2 ** 20
# scipy's relative step for the 2-point rule on float64
_REL_STEP = np.finfo(np.float64).eps ** 0.5


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
    to ``max_iters * n * (n + 1)`` times.  Those ``n`` points per Jacobian
    are evaluated as one batch, which changes neither ``nfev`` nor ``njev``.
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
            "support": [str(self.support[0]), str(self.support[1])],
            "localization": self.localization,
            "projection": terms_json(self.projection),
        }


def least_squares(*args, **kwargs):
    """scipy's ``least_squares``, imported on first use: only the search loads scipy."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


class _Objective:
    """One search window: its matrices, its residual rows for many points at
    once, and the check of each restart's candidate.

    ``rows(xs)`` maps a ``(k, n)`` stack of coefficient vectors to their
    ``(k, m)`` residual rows, ``m`` being 2, or 4 under the commuting
    constraint.  Row ``i`` equals bit for bit what ``xs[i]`` gives on its
    own: each point gets its own ``np.dot`` for its self-adjoint matrix (the
    call ``np.tensordot(x, basis, 1)`` makes; one product over the whole
    stack rounds differently), ``eigh``, ``@`` and ``np.trace`` run the same
    LAPACK or BLAS routine on every slice of a stack, and each commutator
    norm is its own ``np.linalg.norm`` call.
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
        # monomial, or i times it when its adjoint is minus itself.  ``judge``
        # expands candidates in the monomials' own matrices; -1j times the
        # matrix of i U could differ from that of U in the sign of a zero
        basis, self.monomials = [], []
        for word, sign in window_monomials(sites):
            h = to_matrix(Operator.from_terms([(1.0 if sign > 0 else 1j, word)]), self.mat_win)
            mono = h if sign > 0 else to_matrix(Operator.from_terms([(1.0, word)]), self.mat_win)
            basis.append(h)
            self.monomials.append((word, sign, mono))
        self.basis_flat = np.array(basis).reshape(len(basis), dim * dim)
        self.sector_mats = [to_matrix(fstate.sectors[k].to_float(), self.mat_win) for k in SECTORS]
        self.rho = fstate.density_matrix(self.mat_win)
        self.a_mat = to_matrix(fstate.a, self.mat_win)
        self.b_mat = to_matrix(fstate.b, self.mat_win)
        self.eye = np.eye(dim)
        self._last = (None, None)  # (point bytes, rows) of the last ``fun`` call

    def projectors(self, xs: np.ndarray) -> np.ndarray:
        """The rank-``rank_full`` top spectral projection of h(x) for each point."""
        n, dim = len(self.basis_flat), self.dim
        h = np.array([np.dot(x.reshape(1, n), self.basis_flat) for x in xs])
        _, vecs = np.linalg.eigh(h.reshape(len(xs), dim, dim))
        top = vecs[:, :, dim - self.rank_full:]
        return top @ top.conj().swapaxes(1, 2)

    def rows(self, xs: np.ndarray) -> np.ndarray:
        step = max(1, _CHUNK_ENTRIES // self.dim ** 2)
        return np.concatenate([self._rows(xs[i:i + step]) for i in range(0, len(xs), step)])

    def _rows(self, xs: np.ndarray) -> np.ndarray:
        c = self.projectors(xs)
        out = np.empty((len(xs), 4 if self.constrained else 2))
        for j, cell in enumerate((c, self.eye - c)):
            rho_k = cell @ self.rho @ cell
            vals = [np.trace(s @ rho_k, axis1=1, axis2=2).real for s in self.sector_mats]
            out[:, j] = vals[0] * vals[1] - vals[2] * vals[3]
        if self.constrained:
            for j, e in ((2, self.a_mat), (3, self.b_mat)):
                norms = np.array([np.linalg.norm(d) for d in c @ e - e @ c])
                out[:, j] = _PENALTY * (norms / self.dim)
        return out

    def fun(self, x: np.ndarray) -> np.ndarray:
        """scipy's ``fun``: the rows at one point, kept for the next Jacobian."""
        f = self.rows(x.reshape(1, -1))[0]
        self._last = (x.tobytes(), f.copy())
        return f

    def jac(self, x: np.ndarray) -> np.ndarray:
        """scipy's 2-point Jacobian at ``x``, its n perturbed points in one batch.

        Steps, differences and quotients follow ``scipy.optimize._numdiff``
        operation for operation, and the base value is the last ``fun`` call,
        which scipy always makes at ``x`` before asking for the Jacobian.
        """
        key, f0 = self._last
        if key != x.tobytes():
            f0 = self.fun(x)
        stepped = x + _REL_STEP * ((x >= 0) * 2.0 - 1) * np.maximum(1.0, np.abs(x))
        xs = np.tile(x, (len(x), 1))
        np.fill_diagonal(xs, stepped)
        return ((self.rows(xs) - f0) / (stepped - x)[:, None]).T

    def judge(self, c_mat: np.ndarray, restart: int, objective: float) -> Candidate | None:
        """The candidate for a restart's projection matrix ``c_mat``, or None
        when it fails one of the checks, in this order: it leaves the window
        algebra, is not a projection, has a residual at or above ``tol``, or
        breaks the commuting constraint."""
        # expand the matrix in the window's monomial basis and confirm it stays
        # inside the window algebra (eigenvalue ties can push it outside)
        dim = self.dim
        unit = np.trace(c_mat).real / dim
        terms = [(unit, ())]
        recon = unit * np.eye(dim, dtype=complex)
        for word, sign, mono_mat in self.monomials:
            # monomial matrices are HS-orthonormal; the adjoint of one is its
            # reversal sign times itself
            c = sign * np.trace(mono_mat @ c_mat) / dim
            terms.append((complex(c), word))
            recon = recon + c * mono_mat
        if np.linalg.norm(recon - c_mat) > 1e-8:
            return None
        # keep the terms above 1e-11, inserted in ``Operator.terms()`` order:
        # the float sums of the checks below depend on the insertion order
        kept = sorted((term for term in terms if abs(term[0]) > 1e-11),
                      key=lambda term: [to_double(s) for s in term[1]])
        c_op = Operator.from_terms(kept)
        if c_op.is_zero or not is_projection(c_op, 1e-8):
            return None
        # a projection C and 1 - C are orthogonal projections summing to 1
        fstate, cfg = self.fstate, self.cfg
        report = noncommuting_ccs_residuals(fstate, (c_op, Operator.identity() - c_op), tol=cfg.tol)
        residuals = tuple(abs(c.residual.real) for c in report.cells)
        if max(residuals) >= cfg.tol:
            return None
        comm = commutes(c_op, fstate.a, 1e-9) and commutes(c_op, fstate.b, 1e-9)
        if self.constrained and not comm:
            return None
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
    also commute with both events.
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
        cand = obj.judge(obj.projectors(result.x[None])[0], restart,
                         float(np.sum(result.fun ** 2)))
        if cand is not None:
            candidates.append(cand)
    return candidates
