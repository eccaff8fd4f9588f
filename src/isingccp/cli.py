"""Command-line interface: scenario runner and per-module subcommands.

Exit codes: 0 success, 2 schema violation, 3 budget exceeded,
4 precondition violation.

Scenario files are JSON.  Half-integer coordinates in JSON may be written
as fraction strings ("3/2", "-1/2") or as doubled integers (3 means 3/2);
flag values on the command line are always plain fraction strings.
:func:`parse_scenario` reads and checks every section of a scenario in one
pass, before anything is computed, so a schema error is always reported
before a precondition error.  Reports are deterministic for a fixed
(scenario, seed) pair; wall-clock timings are only included when requested.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from fractions import Fraction
from importlib import resources
from typing import NamedTuple

from . import __version__
from .algebra import Operator, localization, terms_json
from .causal import (
    commuting_ccs_residuals,
    common_cause_candidate,
    enumerate_commuting_tuples,
    noncommuting_ccs_residuals,
    scalar_json,
    screening_weight,
)
from .dynamics import DynamicsParams, apply_beta, beta_generator_image, check_primitive_causality
from .errors import DEFAULT_BUDGET, BudgetError, ModeError, PreconditionError, SchemaError
from .exact import ExactScalar, is_zero, parse_exact
from .geometry import PAST_MODES, DoubleCone, pasts, spacelike_separated
from .halfint import double_str
from .search import SolverConfig, solve_noncommuting_cc
from .states import SECTORS, build_lambda_state, correlation, sector_correlation, PartitionOfUnity

__all__ = ["main"]

_EXIT_BROKEN_PIPE = 1
_EXIT_SCHEMA = 2
_EXIT_BUDGET = 3
_EXIT_PRECONDITION = 4


# -- literals -----------------------------------------------------------------


def _read(value, convert, what: str):
    """``convert(value)``, any failure raised as a SchemaError.  ExactnessError and
    ModeError are TypeErrors and PreconditionError is a ValueError, so a literal
    that a constructor rejects is a schema error too."""
    try:
        return convert(value)
    except SchemaError:
        raise
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise SchemaError(f"cannot read {what} {value!r}: {exc}") from exc


def _integer(value) -> int:
    """A JSON integer; a bool, a float or a string is rejected, not converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _natural(value, least: int = 0) -> int:
    """An integer of at least ``least``."""
    if _integer(value) < least:
        raise ValueError(f"{value} is below {least}")
    return value


def _tolerance(value) -> float:
    """A finite JSON number above 0; a bool or a string is rejected, not converted."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{value} is not a finite number above 0")
    return float(value)


def _boolean(value) -> bool:
    """A JSON boolean; any other value is rejected, not tested for truth."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} is not true or false")
    return value


def _known(obj: dict, keys, what: str) -> dict:
    """``obj``, refused if it has a key outside ``keys``: a misspelt key would read as absent."""
    if not set(obj) <= set(keys):
        raise SchemaError(f"unknown keys {sorted(set(obj) - set(keys), key=str)} in {what}")
    return obj


def _coord(value) -> Fraction:
    """Half-integer from JSON: strings are fractions, bare ints are doubled."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value, 2)
    raise TypeError("a half-integer is a fraction string or a doubled integer")


def _scalar(value, exact: bool):
    """A token string, or a JSON integer (exact mode) or number (float mode)."""
    if isinstance(value, str):
        return parse_exact(value) if exact else float(parse_exact(value))
    if isinstance(value, bool) or not isinstance(value, int if exact else (int, float)):
        raise TypeError("exact mode needs exact tokens" if exact else "not a scalar")
    return ExactScalar(value) if exact else float(value)


def _term(term, exact: bool):
    if not isinstance(term, dict) or not {"coeff", "sites"} <= set(term):
        raise TypeError('a term is {"coeff": ..., "sites": [...], "phase": ...}')
    _known(term, ("coeff", "sites", "phase"), "a term")
    if not isinstance(term["sites"], list):
        raise TypeError("term sites must be a list")
    return _scalar(term["coeff"], exact), [_coord(s) for s in term["sites"]], term.get("phase", "+1")


def operator_from_literal(terms, exact: bool) -> Operator:
    """Operator from a list of {"coeff": ..., "sites": [...], "phase": ...}."""
    if not isinstance(terms, list) or not terms:
        raise SchemaError("operator literal must be a non-empty list of terms")
    return _read(terms, lambda ts: Operator.from_terms([_term(t, exact) for t in ts], exact=exact),
                 "operator literal")


def region_from_literal(spec) -> DoubleCone:
    if not isinstance(spec, dict) or not {"t", "i", "j"} <= set(spec):
        raise SchemaError('region literal must be {"t": ..., "i": ..., "j": ...}')
    _known(spec, ("t", "i", "j"), "a region")
    return _read(spec, lambda s: DoubleCone.span(_integer(s["t"]), _coord(s["i"]), _coord(s["j"])),
                 "region")


def _cone(value):
    """A cone from a region object, or from a 't,x' / 't,i,j' string."""
    if isinstance(value, dict):
        return region_from_literal(value)
    if not isinstance(value, str):
        raise TypeError("a cone is a region object or a 't,x' / 't,i,j' string")
    parts = value.split(",")
    if len(parts) == 2:
        return DoubleCone.minimal(Fraction(parts[0]), Fraction(parts[1]))
    if len(parts) == 3:
        return DoubleCone.span(int(parts[0]), Fraction(parts[1]), Fraction(parts[2]))
    raise ValueError("a cone string is 't,x' or 't,i,j'")


_COMPACT_HELP = 'e.g. "U0", "U-1/2 U0 U1/2", "0.5 + 0.5 U(-1/2) U(0) U(1/2)"'


def operator_from_compact(text: str) -> Operator:
    """Float-mode operator from compact text: terms joined by '+', each an
    optional numeric coefficient followed by U tokens."""
    import re

    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise SchemaError(f"malformed operator text {text!r}")
        tokens = re.findall(r"U\(?(-?\d+(?:/\d+)?)\)?", chunk)
        head = re.split(r"U", chunk, maxsplit=1)[0].strip().rstrip("*").strip()
        if not tokens and not head:
            raise SchemaError(f"malformed operator term {chunk!r}")
        coeff = _read(head, lambda h: float(Fraction(h)), f"coefficient ({_COMPACT_HELP})") if head else 1.0
        terms.append((coeff, [Fraction(t) for t in tokens], "+1"))
    return Operator.from_terms(terms)


def _cone_json(cone: DoubleCone):
    return {"t": cone.t, "i": double_str(cone.i2), "j": double_str(cone.j2)}


# -- scenario loading -----------------------------------------------------------


_BUNDLED = {"common-cause-demo", "uncorrelated"}
_ANALYSES = {"correlation", "screening-weight", "enumerate-commuting", "family-residuals",
             "solve-noncommuting", "geometry"}
_PLOT_POINTS = {"family_grid": 16, "weight_sweep": 41}
# the keys each object section takes; a plot section's keys are plot names
_SECTION_KEYS = {"dynamics": [f.name for f in dataclasses.fields(DynamicsParams)],
                 "enumerate": ["k", "budget", "sector_size"], "family": ["coefficients"],
                 "solver": [f.name for f in dataclasses.fields(SolverConfig)], "plots": _PLOT_POINTS}
_SCENARIO_KEYS = ["mode", "seed", "events", "weights", "analyses", "window", "geometry",
                  "partition", "report", *_SECTION_KEYS]
_EXACT_FAMILY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                 ["3/5", "4/5", "0"], ["3/5", "0", "4/5"], ["0", "3/5", "4/5"]]


def load_scenario(path_or_name: str):
    """The parsed JSON of a bundled scenario or a scenario file."""
    if path_or_name in _BUNDLED:
        text = resources.files("isingccp").joinpath(f"scenarios/{path_or_name}.json").read_text()
    else:
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read scenario {path_or_name!r}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_interned)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc


def _interned(pairs) -> dict:
    # every report echoes its scenario; interned keys and string values are
    # stored once however many reports a caller keeps
    return {sys.intern(key): sys.intern(value) if isinstance(value, str) else value
            for key, value in pairs}


class Scenario(NamedTuple):
    """A scenario read and checked by :func:`parse_scenario`.

    ``events`` holds the surface operators of A and B with their times.
    ``enumeration`` is ``(k, budget, sector_size)``, ``geometry`` holds
    ``(a, b, mode, probe)`` pasts queries and ``plots`` maps each plot to
    ``(points, file name)``.  ``raw`` is kept only to echo it in the report.
    """

    mode: str
    seed: int
    params: DynamicsParams
    events: tuple
    weights: dict
    analyses: frozenset
    enumeration: tuple
    family: tuple
    window: DoubleCone
    solver: SolverConfig
    geometry: tuple
    plots: dict
    partition: tuple | None
    report: str | None
    raw: dict

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


def _section(raw: dict, name: str, default=None, kind=dict):
    value = raw.get(name, kind() if default is None else default)
    if not isinstance(value, kind):
        raise SchemaError(f"{name} must be {'an object' if kind is dict else 'a list'}")
    return _known(value, _SECTION_KEYS[name], name) if name in _SECTION_KEYS else value


def _dynamics(d) -> DynamicsParams:
    return DynamicsParams(d.get("theta1", "0"), d.get("theta2", "0"),
                          _integer(d.get("eta1", 1)), _integer(d.get("eta2", 1)))


def _event(spec, exact: bool) -> tuple:
    """(surface operator, time); a site event is (1 + U_site)/2."""
    if not isinstance(spec, dict) or not {"site", "terms"} & set(spec):
        raise SchemaError('an event is {"site": ..., "time": ...} or {"terms": [...], "time": ...}')
    _known(spec, ("site", "terms", "time"), "an event")
    t = _read(spec.get("time", 1 if "site" in spec else 0), _natural, "event time")
    terms = ([{"coeff": "1/2", "sites": []}, {"coeff": "1/2", "sites": [spec["site"]]}]
             if "site" in spec else spec["terms"])
    return operator_from_literal(terms, exact), t


def _enumeration(cfg: dict) -> tuple:
    size = cfg.get("sector_size")
    return (_natural(cfg.get("k", 2), 1),
            _natural(cfg.get("budget", DEFAULT_BUDGET)),
            None if size is None else _natural(size, 1))


def _family(cfg: dict, exact: bool, seed: int) -> tuple:
    coeffs = cfg.get("coefficients")
    if coeffs is None and exact:
        coeffs = _EXACT_FAMILY
    elif coeffs is None:
        import numpy as np

        vecs = np.random.default_rng(seed).normal(size=(6, 3))
        coeffs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).tolist()
    if not isinstance(coeffs, list) or not all(isinstance(e, list) and len(e) == 3 for e in coeffs):
        raise TypeError("family coefficients must be a list of triples")
    return tuple(tuple(_family_entry(v, exact) for v in entry) for entry in coeffs)


def _family_entry(value, exact: bool):
    """A fraction or decimal string, a JSON integer, or in float mode a JSON
    number; a bool, and a JSON float in exact mode, are rejected, not converted."""
    if isinstance(value, bool) or (exact and isinstance(value, float)):
        raise TypeError("a family coefficient is a fraction string or an integer "
                        f"(or a number in float mode), not {value!r}")
    if exact:
        return Fraction(value)
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def _solver(cfg: dict, seed: int) -> SolverConfig:
    default = SolverConfig(seed=seed)
    rank = cfg.get("rank", default.rank)
    return SolverConfig(
        seed=_natural(cfg.get("seed", default.seed)),
        restarts=_natural(cfg.get("restarts", default.restarts), 1),
        max_iters=_natural(cfg.get("max_iters", default.max_iters), 1),
        tol=_tolerance(cfg.get("tol", default.tol)),
        rank=None if rank is None else _integer(rank),
        commuting_constraint=_boolean(cfg.get("commuting_constraint", default.commuting_constraint)),
        max_window_qubits=_natural(cfg.get("max_window_qubits", default.max_window_qubits)),
    )


def _pasts_query(query) -> tuple:
    if not isinstance(query, dict) or query.get("op") != "pasts":
        raise SchemaError(f"unknown geometry query {query!r}")
    _known(query, ("op", "a", "b", "mode", "contains"), "a pasts query")
    if not {"a", "b"} <= set(query):
        raise SchemaError('a pasts query needs cones "a" and "b"')
    mode = query.get("mode", "common")
    if mode not in PAST_MODES:
        raise SchemaError(f"unknown past mode {mode!r}; use weak, common or strong")
    probe = _read(query["contains"], _cone, "cone") if "contains" in query else None
    return _read(query["a"], _cone, "cone"), _read(query["b"], _cone, "cone"), mode, probe


def _plot(name: str, cfg) -> tuple:
    if not isinstance(cfg, dict) or not isinstance(cfg.get("path", ""), str):
        raise ValueError('a plot is {"n": ..., "path": ...}')
    _known(cfg, ("n", "path"), f"plot {name}")
    return _natural(cfg.get("n", _PLOT_POINTS[name]), 1), cfg.get("path", f"{name}.csv")


def parse_scenario(raw) -> Scenario:
    """Read and check every section of a scenario, requested by an analysis or not.

    Raises SchemaError, and only SchemaError, for any malformed value.
    """
    if not isinstance(raw, dict):
        raise SchemaError("scenario must be a JSON object")
    _known(raw, _SCENARIO_KEYS, "the scenario")
    mode = raw.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise SchemaError('mode must be "exact" or "float"')
    exact = mode == "exact"
    seed = _read(raw.get("seed", 0), _natural, "seed")
    events = raw.get("events")
    if not isinstance(events, dict) or not {"A", "B"} <= set(events):
        raise SchemaError("scenario needs events A and B")
    _known(events, ("A", "B"), "events")
    weights = raw.get("weights")
    if not isinstance(weights, dict) or set(weights) != set(SECTORS):
        raise SchemaError(f"weights must carry exactly the sector keys {list(SECTORS)}")
    analyses = _section(raw, "analyses", ["correlation"], list)
    if not all(isinstance(name, str) for name in analyses) or not set(analyses) <= _ANALYSES:
        raise SchemaError(f"analyses must be a list of names from {sorted(_ANALYSES)}")
    partition = raw.get("partition")
    if partition is not None and not isinstance(partition, list):
        raise SchemaError("partition must be a list of operator literals")
    report = raw.get("report")
    if report is not None and not isinstance(report, str):
        raise SchemaError("report must be a path")
    return Scenario(
        mode=mode,
        seed=seed,
        params=_read(_section(raw, "dynamics"), _dynamics, "dynamics"),
        events=(_event(events["A"], exact), _event(events["B"], exact)),
        weights={k: _read(weights[k], lambda v: _scalar(v, exact), f"weight {k}") for k in SECTORS},
        analyses=frozenset(analyses),
        enumeration=_read(_section(raw, "enumerate"), _enumeration, "enumerate"),
        family=_read(_section(raw, "family"), lambda cfg: _family(cfg, exact, seed), "family"),
        window=_read(raw.get("window", {"t": 0, "i": "0", "j": "1"}), region_from_literal, "window"),
        solver=_read(_section(raw, "solver"), lambda cfg: _solver(cfg, seed), "solver"),
        geometry=tuple(_pasts_query(query) for query in _section(raw, "geometry", kind=list)),
        plots={name: _read(cfg, lambda c: _plot(name, c), f"plot {name}")
               for name, cfg in _section(raw, "plots").items()},
        partition=None if partition is None else tuple(
            operator_from_literal(cell, exact) for cell in partition),
        report=report,
        raw=raw,
    )


def build_state_from_scenario(scenario: Scenario):
    """Evolve the two events and build the sector-weighted state."""
    (a, t_a), (b, t_b) = scenario.events
    return build_lambda_state(apply_beta(scenario.params, a, t_a),
                              apply_beta(scenario.params, b, t_b), scenario.weights)


# -- analyses ---------------------------------------------------------------------


def _analysis_family(state, triples, exact):
    out = []
    for triple in triples:
        c = common_cause_candidate(*triple, exact=exact)
        report = noncommuting_ccs_residuals(state, (c, Operator.identity(exact) - c))
        out.append(
            {
                "a": [str(v) for v in triple] if exact else [float(v) for v in triple],
                "residuals": [scalar_json(cell.residual) for cell in report.cells],
                "satisfied": report.satisfied,
            }
        )
    return out


def _enumeration_json(result, shown: int) -> dict:
    """Counts of an enumeration and its first ``shown`` nontrivial profiles."""
    return {
        "checked": result.checked,
        "satisfying": result.n_satisfying,
        "nontrivial": result.n_nontrivial,
        "nontrivial_profiles": [list(map(list, p)) for p in result.nontrivial[:shown]],
    }


def _analysis_enumerate(state, k, budget, sector_size):
    if sector_size is not None:
        m = [sector_size] * 4
    else:
        sizes = state.sector_sizes()
        m = [sizes[k2] for k2 in SECTORS]
    result = enumerate_commuting_tuples(state.weights, m, k, budget=budget)
    return {
        "sector_sizes": m,
        "k": k,
        **_enumeration_json(result, 20),
        "verdict": (
            "no nontrivial commuting partition satisfies the screening-off equations"
            if result.n_nontrivial == 0
            else "nontrivial commuting partitions exist"
        ),
    }


def _analysis_solver(state, cone: DoubleCone, cfg: SolverConfig):
    candidates = solve_noncommuting_cc(state, cone, cfg)
    return {
        "window": _cone_json(cone),
        "config": {
            "seed": cfg.seed,
            "restarts": cfg.restarts,
            "tol": cfg.tol,
            "rank": cfg.rank,
            "commuting_constraint": cfg.commuting_constraint,
        },
        "found": bool(candidates),
        "candidates": [c.to_dict() for c in candidates],
    }


def _pasts_entry(a, b, mode: str, probe) -> dict:
    """The past of two cones, and whether it contains the probe cone if one is given."""
    region = pasts(a, b, mode)
    entry = {"mode": mode, "region": region.to_dict()}
    if probe is not None:
        entry["contains"] = region.contains(probe)
    return entry


def _write_plots(state, plots: dict, report_dir):
    import csv

    fstate = state.to_float()
    written = []
    if "family_grid" in plots:
        n, name = plots["family_grid"]
        path = os.path.join(report_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a1", "a2", "a3", "residual_C", "residual_Cperp"])
            for iu in range(n):
                theta = math.pi * (iu + 0.5) / n
                for iv in range(2 * n):
                    phi = math.pi * iv / n
                    a = (
                        math.sin(theta) * math.cos(phi),
                        math.sin(theta) * math.sin(phi),
                        math.cos(theta),
                    )
                    c = common_cause_candidate(*a)
                    rep = noncommuting_ccs_residuals(fstate, (c, Operator.identity() - c))
                    writer.writerow(
                        [f"{a[0]:.12g}", f"{a[1]:.12g}", f"{a[2]:.12g}"]
                        + [f"{cell.residual.real:.17g}" for cell in rep.cells]
                    )
        gp = path.rsplit(".", 1)[0] + ".gp"
        with open(gp, "w") as fh:
            fh.write(
                "set datafile separator ','\n"
                f"splot '{os.path.basename(path)}' using 1:2:4 with points palette\n"
            )
        written.extend([path, gp])
    if "weight_sweep" in plots:
        n, name = plots["weight_sweep"]
        path = os.path.join(report_dir, name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["shift", "correlation"])
            for k in range(n):
                s = 0.24 * k / max(n - 1, 1)
                w = {"AB": 0.25, "ApBp": 0.25, "ABp": 0.25 + s, "ApB": 0.25 - s}
                st = build_lambda_state(fstate.a, fstate.b, w)
                writer.writerow([f"{s:.12g}", f"{correlation(st).real:.17g}"])
        written.append(path)
    return written


def run_scenario(path_or_name: str, out_path=None, timings: bool = False) -> dict:
    """Execute a scenario and return (and optionally write) its report."""
    return _run(parse_scenario(load_scenario(path_or_name)), out_path, timings)


def _run(scenario: Scenario, out_path, timings: bool) -> dict:
    """The report of a parsed scenario, written when an output path is set."""
    t_start = time.perf_counter()
    state = build_state_from_scenario(scenario)
    exact, analyses = scenario.exact, scenario.analyses
    clocks = {}

    results = {}
    a_loc, b_loc = localization(state.a), localization(state.b)
    results["events"] = {
        "A": {"localization": _cone_json(a_loc), "projection": True},
        "B": {"localization": _cone_json(b_loc), "projection": True},
    }
    results["spacelike_separated"] = spacelike_separated(a_loc, b_loc)

    corr = correlation(state)
    results["correlation"] = scalar_json(corr)
    results["sector_correlation"] = scalar_json(sector_correlation(state))
    no_corr = is_zero(corr) if exact else abs(corr.real) < 1e-15
    results["no_correlation"] = bool(no_corr)

    if no_corr and ({"enumerate-commuting", "family-residuals", "solve-noncommuting"} & analyses):
        results["note"] = "no correlation to explain; common-cause analyses skipped"

    if "screening-weight" in analyses:
        t0 = time.perf_counter()
        w = state.weights
        value = screening_weight(w["AB"], w["ApBp"], w["ABp"], w["ApB"])
        results["screening_weight"] = {
            "value": scalar_json(value.value),
            "within_range": value.within_range,
        }
        clocks["screening_weight"] = time.perf_counter() - t0
    if "enumerate-commuting" in analyses and not no_corr:
        t0 = time.perf_counter()
        results["enumerate_commuting"] = _analysis_enumerate(state, *scenario.enumeration)
        clocks["enumerate_commuting"] = time.perf_counter() - t0
    if "family-residuals" in analyses and not no_corr:
        t0 = time.perf_counter()
        results["family_residuals"] = _analysis_family(state, scenario.family, exact)
        clocks["family_residuals"] = time.perf_counter() - t0
    if "solve-noncommuting" in analyses and not no_corr:
        t0 = time.perf_counter()
        results["solver"] = _analysis_solver(state, scenario.window, scenario.solver)
        clocks["solver"] = time.perf_counter() - t0
    if "geometry" in analyses:
        results["geometry"] = [_pasts_entry(*query) for query in scenario.geometry]

    report = {
        "tool": {"name": "isingccp", "version": __version__},
        "mode": scenario.mode,
        "seed": scenario.seed,
        "scenario": scenario.raw,
        "results": results,
    }
    if timings:
        clocks["total"] = time.perf_counter() - t_start
        report["timings"] = clocks

    out_path = out_path or scenario.report
    if out_path:
        report_dir = os.path.dirname(os.path.abspath(out_path))
        try:
            os.makedirs(report_dir, exist_ok=True)
            if scenario.plots:
                report["plots"] = _write_plots(state, scenario.plots, report_dir)
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
                fh.write("\n")
        except OSError as exc:
            raise SchemaError(f"cannot write the report {out_path!r} or its plots: {exc}") from exc
    return report


# -- subcommands ----------------------------------------------------------------


def _emit(obj) -> int:
    """Print a subcommand's JSON record to stdout and return its exit code, 0."""
    json.dump(obj, sys.stdout, indent=2, sort_keys=True, allow_nan=False)
    sys.stdout.write("\n")
    return 0


def _cmd_run(args) -> int:
    scenario = parse_scenario(load_scenario(args.scenario))
    report = _run(scenario, args.out, args.timings)
    out_path = args.out or scenario.report
    if out_path:
        print(f"report written to {out_path}")
        return 0
    return _emit(report)


def _cmd_geom_pasts(args) -> int:
    a, b = _read(args.a, _cone, "--a"), _read(args.b, _cone, "--b")
    probe = _read(args.contains, _cone, "--contains") if args.contains else None
    return _emit(_pasts_entry(a, b, args.mode, probe))


def _cmd_algebra_trace(args) -> int:
    if not args.op and not args.op_json:
        raise SchemaError("pass --op or --op-json")
    if args.op_json:
        op = operator_from_literal(_read(args.op_json, json.loads, "--op-json"), exact=args.exact)
    else:
        op = operator_from_compact(args.op)
    return _emit({"operator": str(op), "trace": scalar_json(op.trace())})


def _cmd_dynamics_beta(args) -> int:
    params = _read((args.theta1, args.theta2, args.eta1, args.eta2), lambda a: DynamicsParams(*a),
                   "--theta1/--theta2/--eta1/--eta2")
    site = _read(args.site, Fraction, "--site")
    img = beta_generator_image(params, site, exact=args.exact)
    if not args.json:
        print(str(img))
        return 0
    return _emit({
        "params": {"theta1": args.theta1, "theta2": args.theta2,
                   "eta1": args.eta1, "eta2": args.eta2},
        "site": str(site),
        "image": str(img),
        "terms": terms_json(img),
        "localization": _cone_json(localization(img)),
        "primitive_causality": check_primitive_causality(params, site, exact=args.exact),
    })


def _cmd_ccp_check(args) -> int:
    scenario = parse_scenario(load_scenario(args.scenario))
    if scenario.partition is None:
        raise SchemaError('this command needs a "partition" entry in the scenario')
    state = build_state_from_scenario(scenario)
    part = PartitionOfUnity(scenario.partition)
    check = noncommuting_ccs_residuals if args.noncommuting else commuting_ccs_residuals
    return _emit(check(state, part).to_dict())


def _cmd_ccp_enumerate(args) -> int:
    weights = [_read(tok, parse_exact, "--weights") for tok in args.weights.split(",")]
    if len(weights) != 4:
        raise SchemaError("--weights needs four comma-separated exact tokens")
    m = _read(args.m, lambda text: [_natural(int(v), 1) for v in text.split(",")], "--m")
    if len(m) == 1:
        m = m * 4
    elif len(m) != 4:
        raise SchemaError("--m needs one or four comma-separated sector sizes")
    k = _read(args.k, lambda v: _natural(v, 1), "--k")
    budget = _read(args.budget, _natural, "--budget")
    result = enumerate_commuting_tuples(weights, m, k, budget=budget)
    return _emit(_enumeration_json(result, 50))


def _cmd_ccp_solve(args) -> int:
    scenario = parse_scenario(load_scenario(args.scenario))
    flags = {}
    if args.restarts is not None:
        flags["restarts"] = _read(args.restarts, lambda v: _natural(v, 1), "--restarts")
    if args.commuting:
        flags["commuting_constraint"] = True
    if args.seed is not None:
        flags["seed"] = _read(args.seed, _natural, "--seed")
    state = build_state_from_scenario(scenario)
    cfg = dataclasses.replace(scenario.solver, **flags)
    return _emit(_analysis_solver(state, scenario.window, cfg))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingccp",
        description="Chain operator algebra on the discrete Minkowski net: "
        "correlating states, screening-off analysis, projection search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file and write its report")
    p_run.add_argument("scenario", help=f"path to a scenario JSON, or one of {sorted(_BUNDLED)}")
    p_run.add_argument("--out", help="report path (overrides the scenario's 'report' entry)")
    p_run.add_argument("--timings", action="store_true", help="include wall-clock timings")
    p_run.set_defaults(func=_cmd_run)

    p_geom = sub.add_parser("geom", help="causal geometry queries").add_subparsers(
        dest="subcommand", required=True
    )
    p_pasts = p_geom.add_parser("pasts", help="weak/common/strong past of two cones")
    p_pasts.add_argument("--mode", choices=PAST_MODES, default="common")
    p_pasts.add_argument("--a", required=True, help="cone 't,x' or 't,i,j'")
    p_pasts.add_argument("--b", required=True, help="cone 't,x' or 't,i,j'")
    p_pasts.add_argument("--contains", help="report whether this cone lies in the past")
    p_pasts.set_defaults(func=_cmd_geom_pasts)

    p_alg = sub.add_parser("algebra", help="operator arithmetic").add_subparsers(
        dest="subcommand", required=True
    )
    p_trace = p_alg.add_parser("trace", help="normalized trace of an operator")
    p_trace.add_argument("--op", help=f"compact operator text, {_COMPACT_HELP}")
    p_trace.add_argument("--op-json", help="operator literal as a JSON term list")
    p_trace.add_argument("--exact", action="store_true", help="parse the JSON literal exactly")
    p_trace.set_defaults(func=_cmd_algebra_trace)

    p_dyn = sub.add_parser("dynamics", help="causal time evolution").add_subparsers(
        dest="subcommand", required=True
    )
    p_beta = p_dyn.add_parser("beta", help="image of a generator under one time step")
    p_beta.add_argument("--theta1", default="0")
    p_beta.add_argument("--theta2", default="0")
    p_beta.add_argument("--eta1", type=int, default=1)
    p_beta.add_argument("--eta2", type=int, default=1)
    p_beta.add_argument("--site", required=True, help="half-integer site, e.g. 0 or 1/2")
    p_beta.add_argument("--exact", action="store_true")
    p_beta.add_argument("--json", action="store_true", help="emit the full JSON record")
    p_beta.set_defaults(func=_cmd_dynamics_beta)

    p_ccp = sub.add_parser("ccp", help="screening-off analysis").add_subparsers(
        dest="subcommand", required=True
    )
    p_check = p_ccp.add_parser("check-commuting", help="residuals of a scenario's partition")
    p_check.add_argument("scenario")
    p_check.add_argument("--noncommuting", action="store_true",
                         help="condition through the partition expectation instead")
    p_check.set_defaults(func=_cmd_ccp_check)
    p_enum = p_ccp.add_parser("enumerate", help="exact rank-profile enumeration")
    p_enum.add_argument("--weights", required=True,
                        help="four exact tokens, e.g. '1/4,1/4,1/4+pi/20,1/4-pi/20'")
    p_enum.add_argument("--m", required=True, help="sector sizes, e.g. '4,4,4,4' or '4'")
    p_enum.add_argument("--k", type=int, default=2, help="partition size")
    p_enum.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_enum.set_defaults(func=_cmd_ccp_enumerate)
    p_solve = p_ccp.add_parser("solve-nc", help="numerical search for noncommuting partitions")
    p_solve.add_argument("scenario")
    p_solve.add_argument("--restarts", type=int)
    p_solve.add_argument("--seed", type=int)
    p_solve.add_argument("--commuting", action="store_true",
                         help="restrict to candidates commuting with both events")
    p_solve.set_defaults(func=_cmd_ccp_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early shows here at the latest
        return code
    except BrokenPipeError:
        # the reader stopped early (`| head`): send the rest of the output,
        # the interpreter's final flush included, to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_BROKEN_PIPE
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return _EXIT_SCHEMA
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return _EXIT_BUDGET
    except (PreconditionError, ModeError, ZeroDivisionError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return _EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
