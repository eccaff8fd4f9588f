import ast
import copy
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isingccp.causal import DEFAULT_BUDGET
from isingccp.cli import (
    load_scenario,
    main,
    operator_from_compact,
    operator_from_literal,
    parse_scenario,
    region_from_literal,
    run_scenario,
)
import isingccp
from isingccp import SchemaError, SolverConfig, algebra, dynamics, search


def run_cli(*argv):
    return main(list(argv))


def test_geom_pasts_common(capsys):
    assert run_cli("geom", "pasts", "--mode", "common", "--a", "1,0", "--b", "1,1",
                   "--contains", "0,0,1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["contains"] is True
    assert out["region"]["apexes"] == [{"u": "1/2", "v": "3/2"}]


def test_algebra_trace_monomial(capsys):
    assert run_cli("algebra", "trace", "--op", "U0") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trace"]["float"] == 0.0


def test_algebra_trace_literal(capsys):
    literal = json.dumps([
        {"coeff": "1/2", "sites": [], "phase": "+1"},
        {"coeff": "1/2", "sites": ["-1/2", "0", "1/2"], "phase": "+1"},
    ])
    assert run_cli("algebra", "trace", "--op-json", literal, "--exact") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["trace"] == {"exact": "1/2", "float": 0.5}


def test_dynamics_beta_prints_the_image(capsys):
    assert run_cli("dynamics", "beta", "--theta1", "0", "--eta1", "1",
                   "--site", "0", "--exact") == 0
    text = capsys.readouterr().out
    assert "U(-1/2) U(0) U(1/2)" in text


@pytest.mark.parametrize("argv, terms, localization", [
    (["--site", "0", "--exact"], [{"coeff": "1", "sites": ["-1/2", "0", "1/2"]}],
     {"t": 1, "i": "0", "j": "0"}),
    (["--site", "1/2"], [{"coeff": [1.0, 0.0], "sites": ["-1/2", "0", "1/2", "1", "3/2"]}],
     {"t": 1, "i": "1/2", "j": "1/2"}),
])
def test_dynamics_beta_json(capsys, argv, terms, localization):
    assert run_cli("dynamics", "beta", *argv, "--json") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["terms"] == terms
    assert out["localization"] == localization
    assert out["primitive_causality"] is True
    assert out["params"] == {"theta1": "0", "theta2": "0", "eta1": 1, "eta2": 1}


def test_ccp_enumerate(capsys):
    assert run_cli("ccp", "enumerate", "--weights", "1/4,1/4,1/4+pi/20,1/4-pi/20",
                   "--m", "4", "--k", "2") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["checked"] == 625
    assert out["nontrivial"] == 0
    assert out["satisfying"] == 4


def test_enumerate_budget_exit_code(capsys):
    code = run_cli("ccp", "enumerate", "--weights", "1/4,1/4,1/4+pi/20,1/4-pi/20",
                   "--m", "64", "--k", "3", "--budget", "10")
    assert code == 3


def test_enumerate_budget_of_zero_is_well_formed_and_admits_nothing():
    code = run_cli("ccp", "enumerate", "--weights", "1/4,1/4,1/4+pi/20,1/4-pi/20",
                   "--m", "4", "--budget", "0")
    assert code == 3


def test_enumerate_malformed_sector_sizes_is_schema_error(capsys):
    code = run_cli("ccp", "enumerate", "--weights", "1/4,1/4,1/4,1/4", "--m", "x", "--k", "2")
    assert code == 2
    assert "--m" in capsys.readouterr().err


def _demo_scenario_with_partition():
    half_b = [{"coeff": "1/2", "sites": [], "phase": "+1"},
              {"coeff": "1/2", "sites": ["1/2", "1", "3/2"], "phase": "+1"}]
    half_b_perp = [{"coeff": "1/2", "sites": [], "phase": "+1"},
                   {"coeff": "-1/2", "sites": ["1/2", "1", "3/2"], "phase": "+1"}]
    return {
        "mode": "exact",
        "events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}},
        "weights": {"AB": "1/4", "ApBp": "1/4", "ABp": "1/4+pi/20", "ApB": "1/4-pi/20"},
        "partition": [half_b, half_b_perp],
    }


def test_ccp_check_commuting(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_demo_scenario_with_partition()))
    assert run_cli("ccp", "check-commuting", str(path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "commuting"
    assert out["satisfied"] is True
    assert out["trivial"] is True
    assert run_cli("ccp", "check-commuting", str(path), "--noncommuting") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mode"] == "noncommuting"
    assert out["satisfied"] is True


def test_solve_nc_over_the_search_budget_exits_3_before_any_restart(capsys):
    # 1,786 restarts x 400 iterations x 7 unknowns on the demo window [0, 1]
    # is over DEFAULT_BUDGET
    with patch.object(search, "least_squares", side_effect=AssertionError("a restart ran")):
        assert run_cli("ccp", "solve-nc", "common-cause-demo", "--restarts", "1786") == 3
    assert "5000800 objective evaluations" in capsys.readouterr().err


def test_search_basis_over_the_budget_exits_3_before_any_basis_matrix(tmp_path, capsys):
    # 1 restart x 1 iteration x 131,071 monomials passes the evaluation budget
    # and the 10 qubits pass max_window_qubits, but the basis would hold
    # 131,071 matrices of 1024 x 1024 entries
    scenario = load_scenario("common-cause-demo")
    scenario["window"] = {"t": 0, "i": "0", "j": "8"}
    scenario["solver"] = {"restarts": 1, "max_iters": 1}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    with patch.object(search, "to_matrix", side_effect=AssertionError("a basis matrix was built")):
        assert run_cli("run", str(path)) == 3
    assert "131071 monomials x 1024 x 1024" in capsys.readouterr().err


def test_solve_nc_finds_no_commuting_common_cause(capsys):
    assert run_cli("ccp", "solve-nc", "common-cause-demo", "--commuting") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["config"]["commuting_constraint"] is True
    assert out["found"] is False and out["candidates"] == []


def _run_file(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return run_cli("run", str(path), "--out", str(tmp_path / "report.json"))


_ADJACENT = {"events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}}}
_GENERIC = {
    "mode": "float",
    "dynamics": {"theta1": 0.7, "theta2": 0.4, "eta1": 1, "eta2": 1},
    "weights": {"AB": 0.2, "ApBp": 0.3, "ABp": 0.15, "ApB": 0.35},
    "analyses": ["correlation"],
}


def test_an_event_evolved_past_the_budget_exits_3(tmp_path, capsys):
    scenario = {**_GENERIC, "events": {"A": {"site": "0", "time": 4}, "B": {"site": "40", "time": 4}}}
    start = time.perf_counter()
    assert _run_file(tmp_path, scenario) == 3
    assert time.perf_counter() - start < 30  # about 0.5 s; unbounded, over 150 s
    assert "monomial pairs" in capsys.readouterr().err


def test_an_event_evolved_three_steps_stays_within_the_budget(tmp_path):
    scenario = {**_GENERIC, "events": {"A": {"site": "0", "time": 3}, "B": {"site": "10", "time": 1}}}
    assert _run_file(tmp_path, scenario) == 0


def test_a_pi_coefficient_in_an_exact_literal_is_schema_error(capsys):
    literal = json.dumps([{"coeff": "pi", "sites": []}, {"coeff": "1/2", "sites": ["0"]}])
    assert run_cli("algebra", "trace", "--exact", "--op-json", literal) == 2
    assert "Gaussian rationals" in capsys.readouterr().err


def test_enumeration_of_a_float_scenario_is_precondition_error(tmp_path, capsys):
    scenario = {**_FLOAT_EVENTS, **_ADJACENT, "analyses": ["correlation", "enumerate-commuting"]}
    assert _run_file(tmp_path, scenario) == 4
    assert "needs exact weights" in capsys.readouterr().err


def test_family_is_checked_once_by_the_candidate(tmp_path):
    # |a|^2 - 1 = 9e-10 passes the candidate's 1e-9, while C^2 - C = 2.25e-10
    # would fail a second projection check at 1e-10
    scenario = {**_FLOAT_EVENTS, **_ADJACENT, "family": {"coefficients": [[0.6, 0.8, 3e-5]]}}
    assert _run_file(tmp_path, scenario) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [entry["a"] for entry in report["results"]["family_residuals"]] == [[0.6, 0.8, 3e-5]]


def test_ccp_solve_nc(tmp_path, capsys):
    scenario = _demo_scenario_with_partition()
    del scenario["partition"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("ccp", "solve-nc", str(path), "--restarts", "2", "--seed", "5") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is True
    assert all(max(c["residuals"]) < 1e-8 for c in out["candidates"])


def test_missing_sections_take_the_library_defaults():
    scenario = parse_scenario({
        "seed": 7,
        "events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}},
        "weights": {"AB": "1/4", "ApBp": "1/4", "ABp": "1/4+pi/20", "ApB": "1/4-pi/20"},
    })
    assert scenario.solver == SolverConfig(seed=7)
    assert scenario.enumeration == (2, DEFAULT_BUDGET, None)


def test_malformed_half_integer_is_schema_error(tmp_path, capsys):
    scenario = {
        "mode": "exact",
        "events": {"A": {"site": "1/3", "time": 1}, "B": {"site": "1", "time": 1}},
        "weights": {"AB": "1/4", "ApBp": "1/4", "ABp": "1/4+pi/20", "ApB": "1/4-pi/20"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("run", str(path)) == 2


def test_missing_weights_is_schema_error(tmp_path):
    scenario = {
        "mode": "exact",
        "events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}},
        "weights": {"AB": "1/4"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("run", str(path)) == 2


@pytest.mark.parametrize("entry", [
    {"analyses": ["enumerate-commuting"], "enumerate": {"k": "x"}},
    {"analyses": ["enumerate-commuting"], "enumerate": ["k"]},
    {"analyses": ["solve-noncommuting"], "solver": {"restarts": "many"}},
    {"analyses": ["solve-noncommuting"], "solver": {"rank": "half"}},
    {"analyses": ["geometry"], "geometry": [{"op": "pasts"}]},
    {"analyses": ["geometry"], "geometry": ["pasts"]},
    {"analyses": ["family-residuals"], "family": {"coefficients": [["x", "0", "1"]]}},
    {"analyses": ["family-residuals"], "family": {"coefficients": [5]}},
    {"analyses": ["family-residuals"], "family": {"coefficients": 5}},
    {"analyses": ["family-residuals"], "family": {"coefficients": [[1e400, 0, 1]]}},
    {"mode": "float", "analyses": ["family-residuals"],
     "family": {"coefficients": [["1e400", "0", "1"]]}},
    {"events": {"A": {"site": "x", "time": 1}, "B": {"site": "1", "time": 1}}},
    {"events": {"A": {"site": "0", "time": 1},
                "B": {"terms": [{"coeff": "1/2", "sites": ["1"]}], "time": "x"}}},
    {"events": {"A": {"site": "0", "time": 1}, "B": {"terms": [{"coeff": "1/2", "sites": 3}]}}},
    {"plots": {"weight_sweep": {"n": "x"}}},
    {"analyses": [[1]]},
    {"analyses": ["solve-noncommuting"], "solver": {"seed": -1}},
    {"weights": {"AB": "1/4", "ApBp": "x", "ABp": "1/4+pi/20", "ApB": "1/4-pi/20"}},
    # no requested analysis reads the enumerate section
    {"analyses": ["correlation"], "enumerate": {"k": "x"}},
    # a tolerance that is not a finite number above 0 accepts every candidate
    # or none, and a search without restarts cannot find one
    *({"analyses": ["correlation"], "solver": {"tol": tol}}
      for tol in ("nan", "inf", float("nan"), float("inf"), 0, -1, True, "1e-8")),
    *({"analyses": ["correlation"], "solver": {"restarts": n}} for n in (0, -3)),
    # a partition has at least one cell
    *({"analyses": ["enumerate-commuting"], "enumerate": {"k": k}} for k in (0, -2)),
    {"analyses": ["correlation"], "enumerate": {"k": 0}},
    # sector sizes and plot sizes are at least 1, budgets at least 0
    *({"analyses": ["enumerate-commuting"], "enumerate": {"sector_size": m}} for m in (0, -4)),
    {"analyses": ["enumerate-commuting"], "enumerate": {"budget": -1}},
    {"analyses": ["solve-noncommuting"], "solver": {"max_window_qubits": -1}},
    *({"plots": {name: {"n": n}}} for name in ("weight_sweep", "family_grid") for n in (0, -2)),
    # a bool is not a number, and a JSON float is not exact
    *({"mode": mode, "dynamics": dyn} for mode in ("float", "exact")
      for dyn in ({"theta1": True}, {"theta2": False})),
    *({"mode": mode, "analyses": ["family-residuals"], "family": {"coefficients": [[True, 0, 0]]}}
      for mode in ("float", "exact")),
    *({"analyses": ["family-residuals"], "family": {"coefficients": [triple]}}
      for triple in ([0.6, 0.8, 0], [0.0, 1, 0])),
])
def test_malformed_analysis_config_is_schema_error(tmp_path, entry):
    scenario = {
        "mode": "exact",
        "events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}},
        "weights": {"AB": "1/4", "ApBp": "1/4", "ABp": "1/4+pi/20", "ApB": "1/4-pi/20"},
        **entry,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("run", str(path)) == 2


@pytest.mark.parametrize("argv", [
    ["ccp", "enumerate", "--weights", "1/4,x,1/4,1/4", "--m", "4"],
    ["dynamics", "beta", "--site", "x"],
    ["algebra", "trace", "--op-json", '[{"coeff":"1/2","sites":5}]'],
    ["ccp", "solve-nc", "common-cause-demo", "--restarts", "0"],
    ["ccp", "solve-nc", "common-cause-demo", "--restarts", "-3"],
    *(["ccp", "enumerate", "--weights", "1/4,1/4,1/4,1/4", "--m", m] for m in ("1,2", "4,4,4,4,4")),
    *(["ccp", "enumerate", "--weights", "1/4,1/4,1/4,1/4", "--m", "4", "--k", k] for k in ("0", "-1")),
    *(["ccp", "enumerate", "--weights", "1/4,1/4,1/4,1/4", "--m", m] for m in ("0", "4,0,4,4", "-1")),
    ["ccp", "enumerate", "--weights", "1/4,1/4,1/4,1/4", "--m", "4", "--budget", "-1"],
])
def test_malformed_flag_is_schema_error(argv):
    assert run_cli(*argv) == 2


_CHEAP_SCENARIO = {
    "mode": "exact",
    "seed": 1,
    "dynamics": {"theta1": "0", "theta2": "0", "eta1": 1, "eta2": 1},
    "events": {"A": {"site": "0", "time": 1},
               "B": {"terms": [{"coeff": "1/2", "sites": [], "phase": "+1"},
                               {"coeff": "1/2", "sites": ["1/2", "1", "3/2"], "phase": "+1"}],
                     "time": 0}},
    "weights": {"AB": "1/4", "ApBp": "1/4", "ABp": "1/4+pi/20", "ApB": "1/4-pi/20"},
    "analyses": ["correlation", "screening-weight", "enumerate-commuting", "family-residuals",
                 "solve-noncommuting", "geometry"],
    "enumerate": {"k": 2, "sector_size": 2},
    "family": {"coefficients": [["3/5", "4/5", "0"]]},
    "window": {"t": 0, "i": "0", "j": "1"},
    "solver": {"restarts": 1, "max_iters": 2, "seed": 0, "tol": 1e-8},
    "geometry": [{"op": "pasts", "mode": "common", "a": "1,0", "b": "1,1",
                  "contains": {"t": 0, "i": "0", "j": "1"}}],
    "plots": {"weight_sweep": {"n": 2}},
}


def _exit_code_with(tmp_path, path, value):
    """Exit code of ``run`` on the cheap scenario with the entry at key ``path`` set to ``value``."""
    scenario = copy.deepcopy(_CHEAP_SCENARIO)
    node = scenario
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    file = tmp_path / "scenario.json"
    file.write_text(json.dumps(scenario))
    return run_cli("run", str(file), "--out", str(tmp_path / "report.json"))


def _paths(node, prefix=()):
    """Every key or index path below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# small JSON values: drawn objects never carry a "report" or plot "path" key
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.sampled_from(["", "x", "0", "1", "-1/2", "3/2", "pi/2", "1/4+pi/20", "1,0", "0,0,1",
                       "float", "common"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["t", "i", "j", "n", "k", "op", "a", "b", "site", "time", "terms",
                         "coeff", "sites"]), inner, max_size=3),
    max_leaves=5,
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(_paths(_CHEAP_SCENARIO))), value=_JSON)
def test_any_json_value_ends_with_a_documented_exit_code(tmp_path, path, value):
    assert _exit_code_with(tmp_path, path, value) in (0, 2, 3, 4)


_INTEGER_SETTINGS = [("seed",), ("dynamics", "eta1"), ("dynamics", "eta2"), ("enumerate", "k"),
                     ("enumerate", "budget"), ("enumerate", "sector_size"), ("solver", "seed"),
                     ("solver", "restarts"), ("solver", "max_iters"), ("solver", "rank"),
                     ("solver", "max_window_qubits"), ("plots", "weight_sweep", "n")]


@pytest.mark.parametrize("path", _INTEGER_SETTINGS, ids="/".join)
@pytest.mark.parametrize("value", [True, 1.5, 2.0, "1"], ids=repr)
def test_integer_settings_take_json_integers_only(tmp_path, path, value):
    assert _exit_code_with(tmp_path, path, value) == 2


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []], ids=repr)
def test_commuting_constraint_takes_json_booleans_only(tmp_path, value):
    assert _exit_code_with(tmp_path, ("solver", "commuting_constraint"), value) == 2


def test_weight_violation_is_precondition_error(tmp_path):
    scenario = {
        "mode": "exact",
        "events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}},
        "weights": {"AB": "1/2", "ApBp": "1/2", "ABp": "1/4", "ApB": "1/4"},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("run", str(path)) == 4


def test_bundled_demo_scenario(tmp_path):
    out = tmp_path / "report.json"
    report = run_scenario("common-cause-demo", str(out))
    res = report["results"]
    assert res["correlation"]["exact"] == "1/400*pi^2"
    assert abs(res["correlation"]["float"] - 0.024674011002723397) < 1e-15
    assert res["enumerate_commuting"]["nontrivial"] == 0
    assert all(entry["satisfied"] for entry in res["family_residuals"])
    assert res["solver"]["found"]
    assert all(g["contains"] for g in res["geometry"])
    assert res["screening_weight"]["value"]["exact"] == "1/100*pi^2"
    assert res["screening_weight"]["within_range"] is True
    assert out.exists()


def test_reports_are_byte_identical(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_scenario("uncorrelated", str(p1))
    run_scenario("uncorrelated", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_uncorrelated_short_circuits(tmp_path):
    report = run_scenario("uncorrelated", str(tmp_path / "r.json"))
    res = report["results"]
    assert res["no_correlation"] is True
    assert "no correlation to explain" in res["note"]
    assert "solver" not in res


@pytest.mark.parametrize("analyses, timed", [
    (["correlation", "screening-weight", "enumerate-commuting", "family-residuals", "geometry"],
     {"screening_weight", "enumerate_commuting", "family_residuals"}),
    (["correlation", "geometry"], set()),
])
def test_timings_flag_times_each_analysis_that_ran(tmp_path, capsys, analyses, timed):
    scenario = {
        "mode": "exact",
        "events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}},
        "weights": {"AB": "1/4", "ApBp": "1/4", "ABp": "1/4+pi/20", "ApB": "1/4-pi/20"},
        "analyses": analyses,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("run", str(path), "--timings") == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    assert set(timings) == timed | {"total"}
    assert all(isinstance(s, float) and 0 <= s <= timings["total"] for s in timings.values())
    assert run_cli("run", str(path)) == 0
    assert "timings" not in json.loads(capsys.readouterr().out)


def test_timings_leave_out_skipped_analyses(capsys):
    # no correlation: the common-cause analyses are skipped and not timed
    assert run_cli("run", "uncorrelated", "--timings") == 0
    assert set(json.loads(capsys.readouterr().out)["timings"]) == {"total"}


def test_literal_parsers():
    op = operator_from_literal(
        [{"coeff": "1/2", "sites": [], "phase": "+1"},
         {"coeff": "1/2", "sites": ["1/2"], "phase": "+1"}],
        exact=True,
    )
    assert op.trace().as_fraction() == 0.5
    cone = region_from_literal({"t": 0, "i": "0", "j": "3/2"})
    assert (cone.t, cone.i2, cone.j2) == (0, 0, 3)
    # bare integers in region literals are doubled coordinates
    cone2 = region_from_literal({"t": 0, "i": 0, "j": 3})
    assert cone == cone2
    with pytest.raises(SchemaError):
        operator_from_literal([{"coeff": "1/2"}], exact=True)
    compact = operator_from_compact("0.5 + 0.5 U(-1/2) U(0) U(1/2)")
    assert len(compact) == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isingccp.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "isingccp" in proc.stdout


@pytest.mark.parametrize("argv", [
    [],
    ["ccp", "enumerate", "--weights", "1/4,1/4,1/4+pi/20,1/4-pi/20", "--m", "4"],
    ["ccp", "solve-nc", "common-cause-demo", "--restarts", "1"],
], ids=["import", "enumerate", "solve-nc"])
def test_no_command_loads_scipy(argv):
    program = (
        "import contextlib, io, sys\n"
        "import isingccp\n"
        "from isingccp.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r}) if {argv!r} else 0\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, timeout=120)
    assert proc.stdout.split() == ["0", "False"], proc.stderr


# the modules whose ``__all__`` the package republishes, in import order
_REPUBLISHED = ("algebra", "causal", "dynamics", "errors", "exact", "geometry", "search", "states")


def test_the_package_republishes_each_module_all():
    modules = [importlib.import_module(f"isingccp.{name}") for name in _REPUBLISHED]
    expected = ["__version__", *(name for module in modules for name in module.__all__)]
    assert isingccp.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(isingccp, name) is getattr(module, name), (module.__name__, name)
    # errors publishes the one budget; causal still resolves it
    assert isingccp.causal.DEFAULT_BUDGET == isingccp.DEFAULT_BUDGET == 5_000_000
    # no module reaches into another for a private name
    for path in Path(isingccp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "isingccp"
            ):
                private = [a.name for a in node.names
                           if a.name.startswith("_") and not a.name.startswith("__")]
                assert not private, (path.name, node.module, private)


def test_closed_stdout_exits_1_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "isingccp.cli", "algebra", "trace", "--op", "U0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader is gone before the report is written
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


def test_float_scenario_with_plots(tmp_path):
    scenario = {
        "mode": "float",
        "seed": 3,
        "events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}},
        "weights": {"AB": 0.25, "ApBp": 0.25, "ABp": 0.4, "ApB": 0.1},
        "analyses": ["correlation", "family-residuals"],
        "plots": {"family_grid": {"n": 3}, "weight_sweep": {"n": 5}},
        "report": str(tmp_path / "report.json"),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("run", str(path)) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["mode"] == "float"
    assert abs(report["results"]["correlation"]["float"] - (0.25 * 0.25 - 0.4 * 0.1)) < 1e-12
    grid = (tmp_path / "family_grid.csv").read_text().splitlines()
    assert grid[0] == "a1,a2,a3,residual_C,residual_Cperp"
    assert len(grid) == 1 + 3 * 6
    sweep = (tmp_path / "weight_sweep.csv").read_text().splitlines()
    assert sweep[0] == "shift,correlation"
    assert len(sweep) == 6
    assert (tmp_path / "family_grid.gp").exists()


@pytest.mark.parametrize("case", ["a directory", "below a file", "plot in no directory"])
def test_an_unwritable_report_or_plot_is_schema_error(tmp_path, capsys, case):
    argv = ["run", "uncorrelated", "--out"]
    if case == "a directory":
        argv.append(str(tmp_path))
    elif case == "below a file":
        (tmp_path / "file").write_text("")
        argv.append(str(tmp_path / "file" / "x.json"))
    else:
        scenario = load_scenario("uncorrelated")
        scenario["plots"] = {"weight_sweep": {"n": 2, "path": "nodir/x.csv"}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = ["run", str(path), "--out", str(tmp_path / "report.json")]
    assert run_cli(*argv) == 2
    assert "cannot write" in capsys.readouterr().err


def _shares_strings(a, b):
    """Equal dicts whose keys and string values, nested ones included, are one object each."""
    assert a == b and all(x is y for x, y in zip(a, b))
    for key, value in a.items():
        if isinstance(value, str):
            assert value is b[key], key
        elif isinstance(value, dict):
            _shares_strings(value, b[key])


def test_reports_share_their_scenario_keys(tmp_path):
    # reports echo their scenario and list their candidates' sites, so a
    # caller keeping many holds each key, string value and site string once
    first, second = run_scenario("uncorrelated"), run_scenario("uncorrelated")
    assert first == second
    _shares_strings(first["scenario"], second["scenario"])
    _shares_strings(load_scenario("common-cause-demo"), load_scenario("common-cause-demo"))
    assert load_scenario("common-cause-demo")["weights"]["ABp"] == "1/4+pi/20"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**load_scenario("common-cause-demo"),
                                "analyses": ["correlation", "solve-noncommuting"],
                                "solver": {"restarts": 1, "seed": 7, "max_iters": 15}}))
    reports = [run_scenario(str(path)) for _ in range(2)]
    _shares_strings(*(r["results"]["events"] for r in reports))
    sites = [[term["sites"] for cand in r["results"]["solver"]["candidates"]
              for term in cand["projection"]] for r in reports]
    assert sites[0] == sites[1] and ("0", "1/2") in sites[0]
    assert all(a is b for a, b in zip(*sites))


_FLOAT_EVENTS = {
    "mode": "float",
    "seed": 3,
    "dynamics": {"theta1": 0.3, "theta2": 0.7, "eta1": 1, "eta2": -1},
    "weights": {"AB": 0.2, "ApBp": 0.3, "ABp": 0.15, "ApB": 0.35},
    "analyses": ["correlation", "screening-weight", "family-residuals"],
    "family": {"coefficients": [[0.48, 0.6, 0.64], [0.6, -0.64, 0.48]]},
}


@pytest.mark.parametrize("entry", [
    {"events": {"A": {"site": "0", "time": 2}, "B": {"site": "1", "time": 2}}},
    {"events": {"A": {"site": "0", "time": 2}, "B": {"site": "2", "time": 2}}},
    {"events": {"A": {"site": "0", "time": 1}, "B": {"site": "1", "time": 1}},
     "analyses": ["correlation", "solve-noncommuting"],
     "window": {"t": 0, "i": "0", "j": "1"},
     "solver": {"restarts": 1, "seed": 7, "max_iters": 15}},
])
def test_float_reports_do_not_depend_on_the_product_kernel(tmp_path, monkeypatch, entry):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**_FLOAT_EVENTS, **entry}))
    reports = []
    for name in ("kernel.json", "loop.json"):
        # cached generator images would carry terms made by the other path
        dynamics._generator_image.cache_clear()
        assert run_cli("run", str(path), "--out", str(tmp_path / name)) == 0
        reports.append((tmp_path / name).read_bytes())
        # without arrays every float product, sum, negation, trace and
        # product trace takes the dict loops
        monkeypatch.setattr(algebra.Operator, "_arrays", lambda self: None)
    assert reports[0] == reports[1]
