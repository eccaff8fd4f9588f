"""Exact outputs pinned byte for byte against JSON fixtures.

The fixtures under ``tests/fixtures`` hold what the package printed when
they were written, so a refactor that changes a report by one byte fails
here.  The solver's block is left out of the bundled report: its float
bits can vary with the BLAS build.
"""

import json
from pathlib import Path

import pytest

from isingccp.cli import main, run_scenario

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_common_cause_demo_report_without_the_solver():
    report = run_scenario("common-cause-demo")
    del report["results"]["solver"]
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert text == (FIXTURES / "common-cause-demo-without-solver.json").read_text()


@pytest.mark.parametrize("name", [
    # B at 3/2 (sector size 8) with unbalanced pi weights: pi^2 in the
    # correlation and a pi-polynomial quotient in the screening weight
    "exact-pi-unbalanced-m8",
    # rational weights with k = 3: the enumeration decides rational cell ratios
    "exact-rational-k3",
])
def test_exact_report(name):
    report = run_scenario(str(FIXTURES / f"{name}.scenario.json"))
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert text == (FIXTURES / f"{name}.json").read_text()


@pytest.mark.parametrize("fixture, weights, m, k", [
    # pi weights: only the trivial profiles satisfy the identity
    ("enumerate-pi-m8-k2.json", "1/4,1/4,1/4+pi/20,1/4-pi/20", "8", "2"),
    # rational weights: six nontrivial profiles in sector-major order, which
    # differs from the lexicographic order of their cells
    ("enumerate-rational-m2-k3.json", "1/12,1/6,1/12,2/3", "2", "3"),
])
def test_ccp_enumerate_output(capsys, fixture, weights, m, k):
    assert main(["ccp", "enumerate", "--weights", weights, "--m", m, "--k", k]) == 0
    assert capsys.readouterr().out == (FIXTURES / fixture).read_text()
