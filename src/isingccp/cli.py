"""Command-line interface: scenario runner and per-module subcommands.

Exit codes: 0 success, 2 schema violation, 3 budget exceeded,
4 precondition violation.

Scenario files are JSON.  Half-integer coordinates in JSON may be written
as fraction strings ("3/2", "-1/2") or as doubled integers (3 means 3/2);
flag values on the command line are always plain fraction strings.
Reports are deterministic for a fixed (scenario, seed) pair; wall-clock
timings are only included when requested.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from importlib import resources

from . import __version__
from .algebra import Operator, localization, normalized_trace
from .causal import (
    commuting_ccs_residuals,
    common_cause_candidate,
    enumerate_commuting_tuples,
    noncommuting_ccs_residuals,
    screening_weight,
)
from .dynamics import DynamicsParams, apply_beta, beta_generator_image, check_primitive_causality
from .errors import BudgetError, ExactnessError, ModeError, PreconditionError, SchemaError
from .exact import ExactScalar, parse_exact
from .geometry import DoubleCone, MinimalCone, pasts, spacelike_separated
from .halfint import double_str
from .search import SolverConfig, solve_noncommuting_cc
from .states import SECTORS, build_lambda_state, correlation, sector_correlation, PartitionOfUnity

__all__ = ["main"]

_EXIT_SCHEMA = 2
_EXIT_BUDGET = 3
_EXIT_PRECONDITION = 4


# -- literals -----------------------------------------------------------------


def _coord_from_json(value):
    """Half-integer from JSON: strings are fractions, bare ints are doubled."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value, 2)
    raise SchemaError(f"half-integer must be a fraction string or doubled integer, got {value!r}")


def _scalar_from_json(value, exact: bool):
    if exact:
        if isinstance(value, str):
            return parse_exact(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return ExactScalar(value)
        raise SchemaError(f"exact mode needs exact tokens, got {value!r}")
    if isinstance(value, str):
        try:
            return float(parse_exact(value))
        except ExactnessError as exc:
            raise SchemaError(f"cannot read weight {value!r}") from exc
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise SchemaError(f"cannot read scalar {value!r}")


def operator_from_literal(terms, exact: bool) -> Operator:
    """Operator from a list of {"coeff": ..., "sites": [...], "phase": ...}."""
    if not isinstance(terms, list) or not terms:
        raise SchemaError("operator literal must be a non-empty list of terms")
    parsed = []
    for term in terms:
        if not isinstance(term, dict) or "coeff" not in term or "sites" not in term:
            raise SchemaError(f"malformed operator term {term!r}")
        coeff = _scalar_from_json(term["coeff"], exact)
        sites = [_coord_from_json(s) for s in term["sites"]]
        parsed.append((coeff, sites, term.get("phase", "+1")))
    return Operator.from_terms(parsed, exact=exact)


def region_from_literal(spec) -> DoubleCone:
    if not isinstance(spec, dict) or not {"t", "i", "j"} <= set(spec):
        raise SchemaError('region literal must be {"t": ..., "i": ..., "j": ...}')
    if not isinstance(spec["t"], int):
        raise SchemaError("region t must be an integer translate label")
    return DoubleCone.span(spec["t"], _coord_from_json(spec["i"]), _coord_from_json(spec["j"]))


def _section(scenario: dict, name: str) -> dict:
    value = scenario.get(name, {})
    if not isinstance(value, dict):
        raise SchemaError(f"{name} must be an object")
    return value


def _number(cfg: dict, key: str, default, kind=int):
    value = cfg.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{key} must be a number, got {value!r}") from exc


def _parse_cone_flag(text: str):
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 2:
            return MinimalCone.at(Fraction(parts[0]), Fraction(parts[1]))
        if len(parts) == 3:
            return DoubleCone.span(int(parts[0]), Fraction(parts[1]), Fraction(parts[2]))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"cannot parse cone {text!r}") from exc
    raise SchemaError(f"cone flag needs 't,x' or 't,i,j', got {text!r}")


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
        if head:
            try:
                coeff = float(Fraction(head))
            except ValueError as exc:
                raise SchemaError(f"cannot parse coefficient {head!r}; {_COMPACT_HELP}") from exc
        else:
            coeff = 1.0
        if not tokens and not head:
            raise SchemaError(f"malformed operator term {chunk!r}")
        terms.append((coeff, [Fraction(t) for t in tokens], "+1"))
    return Operator.from_terms(terms)


def scalar_json(value):
    """Serialize a scalar as exact token plus float, or float alone."""
    if isinstance(value, ExactScalar):
        return {"exact": str(value), "float": float(complex(value).real)}
    if isinstance(value, complex):
        return {"float": value.real}
    if isinstance(value, Fraction):
        return {"exact": str(value), "float": float(value)}
    return {"float": float(value)}


def _operator_json(op: Operator):
    out = []
    for sites, coeff in op.terms():
        if op.exact:
            entry = {"coeff": str(coeff), "sites": [double_str(s) for s in sites]}
        else:
            entry = {
                "coeff": [coeff.real, coeff.imag],
                "sites": [double_str(s) for s in sites],
            }
        out.append(entry)
    return out


def _cone_json(cone: DoubleCone):
    return {"t": cone.t, "i": double_str(cone.i2), "j": double_str(cone.j2)}


# -- scenario loading -----------------------------------------------------------


_BUNDLED = {"common-cause-demo", "uncorrelated"}


def load_scenario(path_or_name: str) -> dict:
    if path_or_name in _BUNDLED:
        text = (
            resources.files("isingccp")
            .joinpath(f"scenarios/{path_or_name}.json")
            .read_text()
        )
    else:
        try:
            with open(path_or_name, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SchemaError(f"cannot read scenario {path_or_name!r}: {exc}") from exc
    try:
        scenario = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(scenario, dict):
        raise SchemaError("scenario must be a JSON object")
    return scenario


def _dynamics_from_scenario(scenario: dict) -> DynamicsParams:
    d = scenario.get("dynamics", {})
    if not isinstance(d, dict):
        raise SchemaError("dynamics must be an object")
    try:
        return DynamicsParams(
            d.get("theta1", "0"), d.get("theta2", "0"),
            int(d.get("eta1", 1)), int(d.get("eta2", 1)),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad dynamics parameters: {exc}") from exc


def _event_from_scenario(spec, params: DynamicsParams, exact: bool) -> Operator:
    if not isinstance(spec, dict):
        raise SchemaError("event must be an object")
    if "site" in spec:
        site = _coord_from_json(spec["site"])
        t = spec.get("time", 1)
        if not isinstance(t, int) or t < 0:
            raise SchemaError("event time must be a nonnegative integer")
        half = Fraction(1, 2)
        base = Operator.from_terms([(half, [], "+1"), (half, [site], "+1")], exact=exact)
        return apply_beta(params, base, t)
    if "terms" in spec:
        op = operator_from_literal(spec["terms"], exact)
        t = spec.get("time", 0)
        if t:
            op = apply_beta(params, op, int(t))
        return op
    raise SchemaError('event needs either {"site", "time"} or {"terms"}')


def build_state_from_scenario(scenario: dict):
    exact = scenario.get("mode", "exact") == "exact"
    if scenario.get("mode", "exact") not in ("exact", "float"):
        raise SchemaError('mode must be "exact" or "float"')
    params = _dynamics_from_scenario(scenario)
    events = scenario.get("events")
    if not isinstance(events, dict) or not {"A", "B"} <= set(events):
        raise SchemaError('scenario needs events A and B')
    a = _event_from_scenario(events["A"], params, exact)
    b = _event_from_scenario(events["B"], params, exact)
    weights = scenario.get("weights")
    if not isinstance(weights, dict) or set(weights) != set(SECTORS):
        raise SchemaError(f"weights must carry exactly the sector keys {list(SECTORS)}")
    w = {k: _scalar_from_json(weights[k], exact) for k in SECTORS}
    return build_lambda_state(a, b, w), params, exact


# -- analyses ---------------------------------------------------------------------


def _family_triples(scenario: dict, exact: bool):
    coeffs = _section(scenario, "family").get("coefficients")
    if coeffs is None:
        if exact:
            coeffs = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"],
                      ["3/5", "4/5", "0"], ["3/5", "0", "4/5"], ["0", "3/5", "4/5"]]
        else:
            import numpy as np

            rng = np.random.default_rng(int(scenario.get("seed", 0)))
            vecs = rng.normal(size=(6, 3))
            coeffs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).tolist()
    elif not isinstance(coeffs, list):
        raise SchemaError("family coefficients must be a list of triples")
    triples = []
    for entry in coeffs:
        if not isinstance(entry, list) or len(entry) != 3:
            raise SchemaError("family coefficients must be triples")
        try:
            if exact:
                triples.append(tuple(Fraction(v) for v in entry))
            else:
                triples.append(tuple(float(Fraction(v)) if isinstance(v, str) else float(v) for v in entry))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise SchemaError(f"cannot read family coefficients {entry!r}") from exc
    return triples


def _analysis_family(state, scenario, exact):
    out = []
    for triple in _family_triples(scenario, exact):
        c = common_cause_candidate(*triple, exact=exact)
        part = PartitionOfUnity([c, Operator.identity(exact) - c])
        report = noncommuting_ccs_residuals(state, part)
        out.append(
            {
                "a": [str(v) for v in triple] if exact else [float(v) for v in triple],
                "residuals": [scalar_json(cell.residual) for cell in report.cells],
                "satisfied": report.satisfied,
            }
        )
    return out


def _env_default(name: str, fallback: int) -> int:
    value = os.environ.get(name)
    if not value:
        return fallback
    try:
        return int(value)
    except ValueError as exc:
        raise SchemaError(f"{name} must be an integer, got {value!r}") from exc


def _analysis_enumerate(state, scenario):
    enum_cfg = _section(scenario, "enumerate")
    k = _number(enum_cfg, "k", 2)
    budget = _number(enum_cfg, "budget", _env_default("ISINGCCP_BUDGET", 5_000_000))
    if "sector_size" in enum_cfg:
        m = [_number(enum_cfg, "sector_size", None)] * 4
    else:
        sizes = state.sector_sizes()
        m = [sizes[k2] for k2 in SECTORS]
    result = enumerate_commuting_tuples(state.weights, m, k, budget=budget)
    return {
        "sector_sizes": m,
        "k": k,
        "checked": result.checked,
        "satisfying": result.n_satisfying,
        "nontrivial": result.n_nontrivial,
        "nontrivial_profiles": [list(map(list, p)) for p in result.nontrivial[:20]],
        "verdict": (
            "no nontrivial commuting partition satisfies the screening-off equations"
            if result.n_nontrivial == 0
            else "nontrivial commuting partitions exist"
        ),
    }


def _analysis_solver(state, scenario):
    cfg_in = _section(scenario, "solver")
    window = scenario.get("window", {"t": 0, "i": "0", "j": "1"})
    cone = region_from_literal(window)
    cfg = SolverConfig(
        seed=_number(cfg_in, "seed", scenario.get("seed", 0)),
        restarts=_number(cfg_in, "restarts", 20),
        max_iters=_number(cfg_in, "max_iters", 400),
        tol=_number(cfg_in, "tol", 1e-8, float),
        rank=None if cfg_in.get("rank") is None else _number(cfg_in, "rank", None),
        commuting_constraint=bool(cfg_in.get("commuting_constraint", False)),
        max_window_qubits=_number(
            cfg_in, "max_window_qubits", _env_default("ISINGCCP_MAX_QUBITS", 10)
        ),
    )
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


def _cone_from_json(value):
    if isinstance(value, dict):
        return region_from_literal(value)
    if isinstance(value, str):
        return _parse_cone_flag(value)
    raise SchemaError(f"cone must be a region object or a 't,x' / 't,i,j' string, got {value!r}")


def _analysis_geometry(scenario):
    queries = scenario.get("geometry", [])
    if not isinstance(queries, list):
        raise SchemaError("geometry must be a list of queries")
    out = []
    for query in queries:
        if not isinstance(query, dict) or query.get("op") != "pasts":
            raise SchemaError(f"unknown geometry query {query!r}")
        if not {"a", "b"} <= set(query):
            raise SchemaError('a pasts query needs cones "a" and "b"')
        a, b = _cone_from_json(query["a"]), _cone_from_json(query["b"])
        probe = _cone_from_json(query["contains"]) if "contains" in query else None
        out.append(_pasts_entry(a, b, query.get("mode", "common"), probe))
    return out


def _pasts_entry(a, b, mode: str, probe) -> dict:
    """The past of two cones, and whether it contains the probe cone if one is given."""
    region = pasts(a, b, mode)
    entry = {"mode": mode, "region": region.to_dict()}
    if isinstance(probe, MinimalCone):
        entry["contains"] = region.contains_cone(probe)
    elif probe is not None:
        entry["contains"] = region.contains_double_cone(probe)
    return entry


def _write_plots(state, scenario, exact, report_dir):
    import csv
    import math

    plots = scenario.get("plots", {})
    written = []
    if "family_grid" in plots:
        cfg = plots["family_grid"]
        n = int(cfg.get("n", 16))
        path = os.path.join(report_dir, cfg.get("path", "family_grid.csv"))
        fstate = state if not exact else None
        if fstate is None:
            from .search import _float_state

            fstate = _float_state(state)
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
                    part = PartitionOfUnity([c, Operator.identity() - c])
                    rep = noncommuting_ccs_residuals(fstate, part)
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
        cfg = plots["weight_sweep"]
        n = int(cfg.get("n", 41))
        path = os.path.join(report_dir, cfg.get("path", "weight_sweep.csv"))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["shift", "correlation"])
            for k in range(n):
                s = 0.24 * k / max(n - 1, 1)
                w = {"AB": 0.25, "ApBp": 0.25, "ABp": 0.25 + s, "ApB": 0.25 - s}
                st = build_lambda_state(state.a.to_float() if exact else state.a,
                                        state.b.to_float() if exact else state.b, w)
                writer.writerow([f"{s:.12g}", f"{correlation(st).real:.17g}"])
        written.append(path)
    return written


def run_scenario(path_or_name: str, out_path=None, timings: bool = False) -> dict:
    """Execute a scenario and return (and optionally write) its report."""
    scenario = load_scenario(path_or_name)
    t_start = time.perf_counter()
    state, params, exact = build_state_from_scenario(scenario)
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
    if exact:
        no_corr = corr == ExactScalar(0)
    else:
        no_corr = abs(corr.real if isinstance(corr, complex) else float(corr)) < 1e-15
    results["no_correlation"] = bool(no_corr)

    analyses = scenario.get("analyses", ["correlation"])
    if not isinstance(analyses, list):
        raise SchemaError("analyses must be a list")
    known = {"correlation", "screening-weight", "enumerate-commuting", "family-residuals",
             "solve-noncommuting", "geometry"}
    unknown = set(analyses) - known
    if unknown:
        raise SchemaError(f"unknown analyses: {sorted(unknown)}")

    if no_corr and ({"enumerate-commuting", "family-residuals", "solve-noncommuting"} & set(analyses)):
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
        results["enumerate_commuting"] = _analysis_enumerate(state, scenario)
        clocks["enumerate_commuting"] = time.perf_counter() - t0
    if "family-residuals" in analyses and not no_corr:
        t0 = time.perf_counter()
        results["family_residuals"] = _analysis_family(state, scenario, exact)
        clocks["family_residuals"] = time.perf_counter() - t0
    if "solve-noncommuting" in analyses and not no_corr:
        t0 = time.perf_counter()
        results["solver"] = _analysis_solver(state, scenario)
        clocks["solver"] = time.perf_counter() - t0
    if "geometry" in analyses:
        results["geometry"] = _analysis_geometry(scenario)

    report = {
        "tool": {"name": "isingccp", "version": __version__},
        "mode": "exact" if exact else "float",
        "seed": scenario.get("seed", 0),
        "scenario": scenario,
        "results": results,
    }
    if timings:
        clocks["total"] = time.perf_counter() - t_start
        report["timings"] = clocks

    out_path = out_path or scenario.get("report")
    if out_path:
        report_dir = os.path.dirname(os.path.abspath(out_path))
        os.makedirs(report_dir, exist_ok=True)
        if scenario.get("plots"):
            report["plots"] = _write_plots(state, scenario, exact, report_dir)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


# -- subcommands ----------------------------------------------------------------


def _cmd_run(args) -> int:
    report = run_scenario(args.scenario, args.out, args.timings)
    if not args.out and not report["scenario"].get("report"):
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"report written to {args.out or report['scenario'].get('report')}")
    return 0


def _cmd_geom_pasts(args) -> int:
    a, b = _parse_cone_flag(args.a), _parse_cone_flag(args.b)
    probe = _parse_cone_flag(args.contains) if args.contains else None
    json.dump(_pasts_entry(a, b, args.mode, probe), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_algebra_trace(args) -> int:
    if not args.op and not args.op_json:
        raise SchemaError("pass --op or --op-json")
    if args.op_json:
        try:
            literal = json.loads(args.op_json)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"--op-json is not valid JSON: {exc}") from exc
        op = operator_from_literal(literal, exact=args.exact)
    else:
        op = operator_from_compact(args.op)
    tr = normalized_trace(op)
    json.dump({"operator": str(op), "trace": scalar_json(tr)}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_dynamics_beta(args) -> int:
    params = DynamicsParams(args.theta1, args.theta2, args.eta1, args.eta2)
    site = Fraction(args.site)
    img = beta_generator_image(params, site, exact=args.exact)
    if args.json:
        out = {
            "params": {"theta1": args.theta1, "theta2": args.theta2,
                       "eta1": args.eta1, "eta2": args.eta2},
            "site": str(site),
            "image": str(img),
            "terms": _operator_json(img),
            "localization": _cone_json(localization(img)),
            "primitive_causality": check_primitive_causality(params, site, exact=args.exact),
        }
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(str(img))
    return 0


def _partition_from_scenario(scenario, state, exact):
    literal = scenario.get("partition")
    if literal is None:
        raise SchemaError('this command needs a "partition" entry in the scenario')
    cells = [operator_from_literal(cell, exact) for cell in literal]
    return PartitionOfUnity(cells)


def _cmd_ccp_check(args) -> int:
    scenario = load_scenario(args.scenario)
    state, _, exact = build_state_from_scenario(scenario)
    part = _partition_from_scenario(scenario, state, exact)
    if args.noncommuting:
        report = noncommuting_ccs_residuals(state, part)
    else:
        report = commuting_ccs_residuals(state, part)
    json.dump(report.to_dict(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_ccp_enumerate(args) -> int:
    weights = [parse_exact(tok) for tok in args.weights.split(",")]
    if len(weights) != 4:
        raise SchemaError("--weights needs four comma-separated exact tokens")
    try:
        m = [int(v) for v in args.m.split(",")]
    except ValueError as exc:
        raise SchemaError(f"--m needs comma-separated integers, got {args.m!r}") from exc
    if len(m) == 1:
        m = m * 4
    result = enumerate_commuting_tuples(weights, m, args.k, budget=args.budget)
    out = {
        "checked": result.checked,
        "satisfying": result.n_satisfying,
        "nontrivial": result.n_nontrivial,
        "nontrivial_profiles": [list(map(list, p)) for p in result.nontrivial[:50]],
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_ccp_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.restarts is not None:
        scenario.setdefault("solver", {})["restarts"] = args.restarts
    if args.commuting:
        scenario.setdefault("solver", {})["commuting_constraint"] = True
    if args.seed is not None:
        scenario.setdefault("solver", {})["seed"] = args.seed
    state, _, exact = build_state_from_scenario(scenario)
    result = _analysis_solver(state, scenario)
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


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
    p_pasts.add_argument("--mode", choices=["weak", "common", "strong"], default="common")
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
    p_enum.add_argument("--budget", type=int, default=5_000_000)
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
        return args.func(args)
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
