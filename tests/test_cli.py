import copy
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isingccp.cli import (
    main,
    operator_from_compact,
    operator_from_literal,
    region_from_literal,
    run_scenario,
)
from isingccp import SchemaError


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


def test_enumerate_malformed_sector_sizes_is_schema_error(capsys):
    code = run_cli("ccp", "enumerate", "--weights", "1/4,1/4,1/4,1/4", "--m", "x", "--k", "2")
    assert code == 2
    assert "--m" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["ISINGCCP_BUDGET", "ISINGCCP_MAX_QUBITS"])
def test_malformed_budget_variable_is_schema_error(monkeypatch, capsys, name):
    monkeypatch.setenv(name, "abc")
    assert run_cli("run", "common-cause-demo") == 2
    assert name in capsys.readouterr().err


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


def test_ccp_solve_nc(tmp_path, capsys):
    scenario = _demo_scenario_with_partition()
    del scenario["partition"]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert run_cli("ccp", "solve-nc", str(path), "--restarts", "2", "--seed", "5") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["found"] is True
    assert all(max(c["residuals"]) < 1e-8 for c in out["candidates"])


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
