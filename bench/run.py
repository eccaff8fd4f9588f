"""Scenario benchmark for isingccp: one closed-loop client, one process.

Usage, from the repository root:

    python3 bench/run.py --workload exact-verdict --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The benchmark writes seeded scenario JSON files and hands each one to the
public ``isingccp.cli.run_scenario(path)``, starting the next scenario only
when the previous one has returned.  Scenarios are timed warm; set-up (a
fresh interpreter importing ``isingccp.cli`` and finishing one warm-up
call) is timed on its own.  Outputs are checked against closed forms after
the timed loop.  With ``--trace 1`` the layers are wrapped (see tracing.py)
and the run reports per-layer metrics instead of end-to-end ones; the last
line of standard output is always the JSON result.  ``--workload all``
runs every workload untraced and traced and prints every metric.
"""

import os

# Pin BLAS before numpy is imported anywhere in this process or its children,
# and keep the package's default budgets.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _var in ("ISINGCCP_BUDGET", "ISINGCCP_MAX_QUBITS"):
    os.environ.pop(_var, None)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("exact-verdict", "evolve-float", "search-window")
SETUP_REPEATS = 3
# A 30 s run leaves 8-10 samples beyond the 75th percentile on exact-verdict
# and 10-14 on the other workloads, and each cycle puts that percentile
# inside one scenario shape.  A fixed percentile keeps the tail comparable
# when a change alters the number of samples.
TAIL_PERCENTILE = 75
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from isingccp.cli import run_scenario; run_scenario(sys.argv[2])"
)
_SECTIONS = {
    "correlation": "correlation",
    "screening-weight": "screening_weight",
    "enumerate-commuting": "enumerate_commuting",
    "family-residuals": "family_residuals",
    "solve-noncommuting": "solver",
    "geometry": "geometry",
}


def _import_package():
    """Import isingccp from this checkout's sources, never from elsewhere."""
    init = SRC / "isingccp" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no package sources at {init}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import isingccp.cli

    if Path(isingccp.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported isingccp from {isingccp.__file__}, not from {SRC}")
    return isingccp.cli


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


def tail(samples: list) -> tuple:
    """(value, samples beyond it) at TAIL_PERCENTILE, by nearest rank."""
    ordered = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def measure_setup(warmup_path: Path) -> list:
    """Wall seconds for fresh interpreters to import the CLI and run the warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(warmup_path)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Run:
    """One workload run: generated scenarios, their timings and reports."""

    def __init__(self, workload: str, seed: int, seconds: float):
        from workloads import scenario_stream

        self.seconds = seconds
        self.stream = scenario_stream(workload, seed)
        self.dir = OUT / f"{workload}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.items = []  # (path, meta, report or None, seconds, error)

    def loop(self, call):
        """Closed loop of ``call(path, scenario id)`` for ``seconds``; returns its wall seconds."""
        start = time.perf_counter()
        deadline = start + self.seconds
        while True:
            scenario, meta = next(self.stream)
            path = self.dir / f"scenario-{len(self.items):05d}.json"
            path.write_text(json.dumps(scenario))
            self.items.append(self.timed(call, path, len(self.items), meta))
            if time.perf_counter() >= deadline:
                return time.perf_counter() - start

    @staticmethod
    def timed(call, path, i, meta):
        t0 = time.perf_counter()
        try:
            report = call(path, i)
            error = None
        except Exception as exc:  # a failing scenario is counted, not fatal
            report, error = None, f"{type(exc).__name__}: {exc}"
        return path, meta, report, time.perf_counter() - t0, error

    def check(self) -> list:
        """Failure messages per scenario, empty lists for correct ones."""
        from checks import check_report

        out = []
        for path, meta, report, _, error in self.items:
            if error is not None:
                out.append([error])
                continue
            scenario = json.loads(path.read_text())
            sections = [_SECTIONS[a] for a in scenario["analyses"]]
            out.append(check_report(report, sections, meta))
        return out


def end_to_end(run: Run, wall: float, setup: list) -> tuple:
    failures = run.check()
    ok = [item[3] for item, errs in zip(run.items, failures) if not errs]
    attempted, failed = len(run.items), sum(1 for errs in failures if errs)
    # with no correct scenario at all, time the failed ones (correct is false then)
    samples = ok or [item[3] for item in run.items]
    tail_value, beyond = tail(samples)
    metrics = {
        "scenario_s_p50": (statistics.median(samples), "s"),
        "scenario_s_tail": (tail_value, "s"),
        "scenarios_per_s": (len(ok) / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    extra = {"tail_percentile": TAIL_PERCENTILE, "samples": len(ok),
             "samples_beyond_tail": beyond, "setup_samples_s": setup,
             "failed_ratio": failed / attempted}
    return metrics, attempted, failed, failures, extra


def per_layer(run: Run, tracer, cache: list, wall: float, untraced: list) -> tuple:
    from tracing import LAYERS, ROOT as ROOT_SPAN

    failures = run.check()
    attempted, failed = len(run.items), sum(1 for errs in failures if errs)
    inc, own, calls = tracer.totals()
    c = tracer.counts
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    scenario_s = inc[ROOT_SPAN]
    lsq = tracer.per_scenario("search.least_squares")
    split = {True: [], False: []}
    for i, (_, meta, *_rest) in enumerate(run.items):
        if meta.window:
            split[meta.constrained].append(lsq.get(i, 0.0))
    hits, misses = cache
    traced = list(tracer.per_scenario(ROOT_SPAN).values())
    metrics = {
        "causal.enumerate_s": (inc["causal.enumerate"], "s"),
        "causal.profiles_checked": (tracer.enum_checked, "count"),
        "causal.profiles_per_s": (ratio(tracer.enum_checked, inc["causal.enumerate"]), "1/s"),
        "causal.cell_decisions": (c["causal.cell_decisions"], "count"),
        "causal.satisfying_ratio": (ratio(tracer.enum_satisfying, tracer.enum_checked), "ratio"),
        "exact.mul_calls": (c["exact.mul_calls"], "count"),
        "exact.add_calls": (c["exact.add_calls"], "count"),
        "exact.eq_calls": (c["exact.eq_calls"], "count"),
        "exact.cmp_calls": (c["exact.cmp_calls"], "count"),
        "algebra.op_mul_calls": (c["algebra.op_mul_calls"], "count"),
        "algebra.op_mul_s": (inc["algebra.op_mul"], "s"),
        "algebra.monomial_products": (c["algebra.monomial_products"], "count"),
        "algebra.peak_terms": (tracer.peak_terms, "count"),
        "algebra.product_trace_calls": (c["algebra.product_trace_calls"], "count"),
        "algebra.to_matrix_calls": (calls["algebra.to_matrix"], "count"),
        "algebra.to_matrix_s": (inc["algebra.to_matrix"], "s"),
        "algebra.to_matrix_terms": (c["algebra.to_matrix_terms"], "count"),
        "dynamics.apply_beta_calls": (calls["dynamics.apply_beta"], "count"),
        "dynamics.apply_beta_s": (inc["dynamics.apply_beta"], "s"),
        "dynamics.image_cache_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "states.build_lambda_state_s": (inc["states.build_lambda_state"], "s"),
        "states.evaluate_calls": (calls["states.evaluate"], "count"),
        "states.evaluate_s": (inc["states.evaluate"], "s"),
        "states.conditional_expectation_s": (inc["states.conditional_expectation"], "s"),
        "states.density_matrix_s": (inc["states.density_matrix"], "s"),
        "causal.noncommuting_residuals_calls": (calls["causal.noncommuting_residuals"], "count"),
        "causal.noncommuting_residuals_s": (inc["causal.noncommuting_residuals"], "s"),
        "search.solve_s": (inc["search.solve"], "s"),
        "search.solve_self_s": (own["search.solve"], "s"),
        "search.least_squares_s": (inc["search.least_squares"], "s"),
        "search.nfev": (tracer.nfev, "count"),
        "search.s_per_nfev": (ratio(inc["search.least_squares"], tracer.nfev), "s"),
        "search.restarts": (calls["search.least_squares"], "count"),
        "search.accepted": (tracer.accepted, "count"),
        "search.accept_ratio": (ratio(tracer.accepted, calls["search.least_squares"]), "ratio"),
        "search.least_squares_s_constrained_mean": (
            ratio(sum(split[True]), len(split[True])), "s"),
        "search.least_squares_s_free_mean": (ratio(sum(split[False]), len(split[False])), "s"),
        "cli.build_state_s": (inc["cli.build_state"], "s"),
        "geometry.pasts_s": (inc["geometry.pasts"], "s"),
    }
    for layer in LAYERS:
        layer_self = sum(v for k, v in own.items() if k.split(".")[0] == layer)
        metrics[f"self_share.{layer}"] = (ratio(layer_self, scenario_s), "ratio")
    metrics["trace.scenarios"] = (attempted, "count")
    metrics["trace.scenario_s_p50"] = (statistics.median(traced), "s")
    metrics["trace.overhead_ratio"] = (ratio(sum(traced[:len(untraced)]), sum(untraced)), "ratio")
    metrics["failed_ratio"] = (failed / attempted, "ratio")
    spans = {name: {"calls": calls[name], "inclusive_s": inc[name], "self_s": own[name]}
             for name in sorted(inc, key=lambda k: -own[k])}
    return metrics, attempted, failed, failures, {"spans": spans, "loop_wall_s": wall}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    cli = _import_package()
    from workloads import warmup_scenario

    OUT.mkdir(exist_ok=True)
    warmup = OUT / "warmup.json"
    warmup.write_text(json.dumps(warmup_scenario()))
    setup = [] if trace else measure_setup(warmup)
    cli.run_scenario(str(warmup))

    run = Run(workload, seed, seconds)
    if not trace:
        wall = run.loop(lambda path, i: cli.run_scenario(str(path)))
        metrics, attempted, failed, failures, extra = end_to_end(run, wall, setup)
    else:
        from tracing import Tracer
        import isingccp.dynamics as dynamics

        tracer = Tracer()
        plain, cache = [], [0, 0]

        def untraced(path):
            t0 = time.perf_counter()
            cli.run_scenario(str(path))
            plain.append(time.perf_counter() - t0)

        def traced(path, i):
            # each scenario also runs untraced, first on odd ids and second on
            # even ones, so the overhead ratio compares neighbouring runs
            if i % 2:
                untraced(path)
            before = dynamics._generator_image.cache_info()
            tracer.install()
            try:
                report = tracer.run_scenario(cli.run_scenario, str(path), i)
            finally:
                tracer.uninstall()
            after = dynamics._generator_image.cache_info()
            cache[0] += after.hits - before.hits
            cache[1] += after.misses - before.misses
            if not i % 2:
                untraced(path)
            return report

        wall = run.loop(traced)
        metrics, attempted, failed, failures, extra = per_layer(run, tracer, cache, wall, plain)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.csv")

    errors = [(str(item[0].name), errs) for item, errs in zip(run.items, failures) if errs]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "scenarios": [[item[1].shape, item[3]] for item in run.items],
        "errors": errors[:20], **extra,
    }
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    for name, errs in errors[:5]:
        print(f"FAILED {name}: {errs[:3]}", file=sys.stderr)
    return record


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each in its own process."""
    rows, status = {}, 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} trace={trace} exited with {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            print(proc.stdout.strip().splitlines()[-2])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status |= not result["correct"]
            for name, m in result["metrics"].items():
                rows.setdefault((trace, name, m["unit"]), {})[workload] = m["value"]
    print(f"\n{'metric':44} {'unit':6} " + " ".join(f"{w:>14}" for w in WORKLOAD_NAMES))
    for (trace, name, unit), values in rows.items():
        cells = " ".join(f"{values.get(w, float('nan')):>14.6g}" for w in WORKLOAD_NAMES)
        print(f"{name:44} {unit:6} {cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    extra = {k: record[k] for k in ("tail_percentile", "samples", "samples_beyond_tail")
             if k in record}
    print(f"# {args.workload} trace={args.trace} env={json.dumps(record['env'])} "
          f"{json.dumps(extra)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
