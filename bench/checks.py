"""Output checks whose references come from closed forms or the paper.

Nothing here imports the package under test.  Exact values are compared as
polynomials in pi with Fraction coefficients; solver candidates are
re-verified on dense matrices built from the qubit representation
U_k -> Z_k, U_{k+1/2} -> X_k X_{k+1}.  Each check returns a list of
failure messages; an empty list means the scenario's outputs are correct.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import reduce

import numpy as np

from workloads import SECTORS, Meta, sector_product_gap

_FLOAT_TOL = 1e-9
_MATRIX_TOL = 1e-6


# -- polynomials in pi ------------------------------------------------------------


def parse_pi_poly(token: str) -> dict:
    """{power: coefficient} of a real exact token such as '1/16-1/400*pi^2'."""
    out = {}
    for term in re.findall(r"[+-]?[^+-]+", token.replace(" ", "")):
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        power = 0
        if "pi" in body:
            head, _, tail = body.partition("pi")
            power = int(tail[1:]) if tail.startswith("^") else 1
            coeff = Fraction(head.rstrip("*")) if head else Fraction(1)
        else:
            coeff = Fraction(body)
        out[power] = out.get(power, Fraction(0)) + sign * coeff
    return {p: c for p, c in out.items() if c}


def _poly(coeffs) -> dict:
    return {p: c for p, c in enumerate(coeffs) if c}


def _poly_float(poly: dict) -> float:
    return sum(float(c) * math.pi ** p for p, c in poly.items())


def _weight_float(w) -> float:
    return float(w[0]) + float(w[1]) * math.pi


def _balanced(w: dict) -> bool:
    lhs = (w["AB"][0] + w["ApBp"][0], w["AB"][1] + w["ApBp"][1])
    rhs = (w["ABp"][0] + w["ApB"][0], w["ABp"][1] + w["ApB"][1])
    return lhs == rhs


# -- scenario checks ------------------------------------------------------------------


def _check_correlation(results: dict, meta: Meta) -> list:
    got = results["correlation"]
    if meta.exact:
        want = _poly(sector_product_gap(meta.weights))
        if parse_pi_poly(got["exact"]) != want:
            return [f"correlation {got['exact']} != w_AB w_A'B' - w_AB' w_A'B = {want}"]
        return []
    w = meta.weights
    want = w["AB"] * w["ApBp"] - w["ABp"] * w["ApB"]
    if abs(got["float"] - want) > _FLOAT_TOL:
        return [f"correlation {got['float']} differs from {want}"]
    return []


def _check_screening_weight(results: dict, meta: Meta) -> list:
    """(w_AB w_A'B' - w_AB' w_A'B) / w_A'B', and whether it lies in (0, w_AB)."""
    got = results["screening_weight"]
    w = meta.weights
    if meta.exact:
        den = w["ApBp"][0]
        want = {p: c / den for p, c in _poly(sector_product_gap(w)).items()}
        if parse_pi_poly(got["value"]["exact"]) != want:
            return [f"screening weight {got['value']['exact']} != {want}"]
        value, upper = _poly_float(want), _weight_float(w["AB"])
    else:
        value = (w["AB"] * w["ApBp"] - w["ABp"] * w["ApB"]) / w["ApBp"]
        upper = w["AB"]
        if abs(got["value"]["float"] - value) > _FLOAT_TOL:
            return [f"screening weight {got['value']['float']} differs from {value}"]
    if min(abs(value), abs(value - upper)) > _FLOAT_TOL and got["within_range"] != (0 < value < upper):
        return [f"screening weight within_range={got['within_range']} for value {value}"]
    return []


def _trivial_cell(r) -> bool:
    """A cell below A, A', B or B' in terms of its sector ranks."""
    return (r[1] == 0 and r[3] == 0) or (r[0] == 0 and r[2] == 0) \
        or (r[2] == 0 and r[1] == 0) or (r[0] == 0 and r[3] == 0)


def _check_enumeration(results: dict, meta: Meta) -> list:
    got = results["enumerate_commuting"]
    m, k = meta.sector_size, meta.k
    errors = []
    if got["sector_sizes"] != [m] * 4:
        errors.append(f"sector sizes {got['sector_sizes']} != {[m] * 4}")
    if got["checked"] != math.comb(m + k - 1, k - 1) ** 4:
        errors.append(f"checked {got['checked']} != C({m + k - 1},{k - 1})^4")
    if meta.pi_weighted and got["nontrivial"] != 0:
        errors.append(f"pi-weighted state has {got['nontrivial']} nontrivial profiles")
    listed = got["nontrivial_profiles"]
    if len(listed) != min(got["nontrivial"], 20) or got["satisfying"] < got["nontrivial"]:
        errors.append("profile counts disagree with the listed profiles")
    w = [meta.weights[s][0] for s in SECTORS] if not meta.pi_weighted else None
    for profile in listed:
        ranks_ok = len(profile) == k and all(
            sum(cell[p] for cell in profile) == m for p in range(4))
        holds = w is not None and all(
            w[0] * w[1] * cell[0] * cell[1] == w[2] * w[3] * cell[2] * cell[3] for cell in profile)
        if not (ranks_ok and holds and not all(_trivial_cell(c) for c in profile)):
            errors.append(f"listed profile {profile} fails the Fraction recheck")
    return errors


def _check_family(results: dict, meta: Meta) -> list:
    """The explicit family screens off iff w_AB + w_A'B' == w_AB' + w_A'B."""
    got = results["family_residuals"]
    if len(got) != len(meta.triples):
        return [f"{len(got)} family entries for {len(meta.triples)} triples"]
    if not meta.exact:
        bad = [e for e in got if len(e["residuals"]) != 2
               or not all(math.isfinite(r["float"]) for r in e["residuals"])]
        return [f"family entry without two finite residuals: {bad[0]}"] if bad else []
    want = _balanced(meta.weights)
    return [f"family {e['a']} satisfied={e['satisfied']}, balanced={want}"
            for e in got if e["satisfied"] != want]


def _check_geometry(results: dict, meta: Meta) -> list:
    """The family's support (0, [0, 1]) lies in the common past of (1,0), (1,1)."""
    common = results["geometry"][0]
    if meta.standard_pair and common.get("contains") is not True:
        return ["common past of the standard events misses the family support"]
    return []


# -- solver candidates on dense matrices ------------------------------------------

_Q0, _Q1 = -1, 2  # qubits covering the events at 0, 1 and every search window
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_DIM = 2 ** (_Q1 - _Q0 + 1)


def _generator(d: int) -> np.ndarray:
    """Matrix of U at doubled site d."""
    if d % 2 == 0:
        ops = {d // 2: _Z}
    else:
        ops = {(d - 1) // 2: _X, (d + 1) // 2: _X}
    return reduce(np.kron, [ops.get(q, np.eye(2)) for q in range(_Q0, _Q1 + 1)])


def _word(doubled_sites) -> np.ndarray:
    return reduce(np.matmul, [_generator(d) for d in doubled_sites], np.eye(_DIM, dtype=complex))


def _standard_events():
    """t=1, theta=0 images of (1 + U_0)/2 and (1 + U_1)/2: U_x -> U_{x-1/2} U_x U_{x+1/2}."""
    one = np.eye(_DIM)
    return (one + _word([-1, 0, 1])) / 2, (one + _word([1, 2, 3])) / 2


def _close(x: np.ndarray, y: np.ndarray) -> bool:
    return np.abs(x - y).max() < _MATRIX_TOL


def _check_candidates(results: dict, meta: Meta) -> list:
    got = results["solver"]
    cands = got["candidates"]
    restarts = [c["restart"] for c in cands]
    if restarts != sorted(set(restarts)) or got["found"] != bool(cands):
        return ["candidate list is not in restart order or 'found' disagrees"]
    a, b = _standard_events()
    one = np.eye(_DIM)
    sectors = [a @ b, (one - a) @ (one - b), a @ (one - b), (one - a) @ b]
    rho = sum(_weight_float(meta.weights[s]) * p / np.trace(p).real for s, p in zip(SECTORS, sectors))
    lo, hi = (2 * Fraction(v) for v in meta.window)
    errors = []
    for cand in cands:
        terms = [(complex(*t["coeff"]), [int(2 * Fraction(s)) for s in t["sites"]])
                 for t in cand["projection"]]
        if any(s < lo or s > hi for _, sites in terms for s in sites):
            errors.append(f"restart {cand['restart']}: support leaves the window")
            continue
        c = sum(coeff * _word(sites) for coeff, sites in terms)
        if not (_close(c @ c, c) and _close(c, c.conj().T)):
            errors.append(f"restart {cand['restart']}: not a projection")
            continue
        cells = (c, one - c)
        for cell in cells:
            v = [np.trace(p @ cell @ rho @ cell).real for p in sectors]
            if abs(v[0] * v[1] - v[2] * v[3]) >= meta.tol:
                errors.append(f"restart {cand['restart']}: residual {v[0] * v[1] - v[2] * v[3]:.3g}")
        if max(cand["residuals"]) >= meta.tol:
            errors.append(f"restart {cand['restart']}: reported residual over tol")
        if meta.constrained:
            commuting = _close(c @ a, a @ c) and _close(c @ b, b @ c)
            trivial = all(any(_close(cell @ x, cell) for x in (a, one - a, b, one - b))
                          for cell in cells)
            if not (commuting and trivial and cand["commuting"] and cand["trivial"]):
                errors.append(f"restart {cand['restart']}: constrained candidate is not a "
                              "commuting trivial partition")
    return errors


_CHECKS = {
    "correlation": _check_correlation,
    "screening_weight": _check_screening_weight,
    "enumerate_commuting": _check_enumeration,
    "family_residuals": _check_family,
    "geometry": _check_geometry,
    "solver": _check_candidates,
}


def check_report(report: dict, expected_sections, meta: Meta) -> list:
    """All failures of one report; a missing section is a failure too."""
    results = report.get("results", {})
    if results.get("no_correlation") is not False:
        return ["report claims no correlation"]
    errors = []
    for section in expected_sections:
        if section not in results:
            errors.append(f"missing result section {section!r}")
        else:
            errors.extend(_CHECKS[section](results, meta))
    return errors
