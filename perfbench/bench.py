"""Measurement loop, correctness checks and metrics of the planning benchmark.

See ``run.py`` for the command line.  Each plan writes its seeded scenario
to a JSON file, loads it the way ``manipplan plan`` does, and times
set-up (``load_scenario`` plus ``Scenario.load_chain`` and
``Scenario.build_sdf``) apart from planning (``run_scenario``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from manipplan import factor_graph, gp_prior, kinematics, scenario as mp_scenario

from perfbench.envinfo import environment
from perfbench.tracing import TARGETS, Tracer, span_figure
from perfbench.workloads import WORKLOADS, problem

# Set-up is timed back to back after the measured loop, at least this many
# times and for at least this long; setup_s is the median.  A set-up without
# obstacles takes a few ms, so a handful of samples spread by 40% between
# runs.  (Set-ups timed right after a plan read up to 50% slower than
# back-to-back ones, so those are reported per plan only.)
SETUP_SAMPLES = 7
SETUP_SECONDS = 1.0

# The measured loop runs for --seconds and at least this many plans, so a
# workload whose plans take about half of --seconds still gets a median of
# three.
MIN_PLANS = 3

# name -> unit of the metrics a run with --trace 0 reports.
END_TO_END_UNITS = {"plan_s": "s", "setup_s": "s", "lambda_mean": "m3", "peak_rss_mb": "MiB"}

# name -> unit of the traced-run figures that are not span totals.
DERIVED_UNITS = {
    "factor_graph.optimize.iterations": "count",
    "factor_graph.optimize.accepted_ratio": "ratio",
    "factor_graph.optimize.ms_per_iteration": "ms",
    "factor_graph.decision_dim": "count",
    "factor_graph.residual_dim": "count",
    "trace.overhead_s": "s",
    "trace.plans": "count",
}


def per_layer_units() -> dict[str, str]:
    """name -> unit of every metric a run with --trace 1 reports."""
    units = {
        f"{key}.{figure}": "count" if figure == "calls" else "s"
        for key, (_, _, figures) in TARGETS.items()
        for figure in figures
    }
    return units | DERIVED_UNITS


@dataclass(frozen=True)
class Fingerprint:
    """What a plan computed; equal inputs must give an equal fingerprint."""

    iterations: int
    accepted: int
    final_cost: float
    lambda_mean: float
    goal_error_m: float


@dataclass
class PlanRecord:
    index: int
    setup_s: float
    plan_s: float
    fingerprint: Fingerprint
    failures: list[str]


def check_plan(scenario, result, artifacts: Path) -> list[str]:
    """Reasons a plan fails ``manipplan plan``'s success conditions: not
    converged, goal missed by more than ``GOAL_TOLERANCE``, or in collision
    when obstacles exist.  The goal error is recomputed from the final
    support state rather than read from the result."""
    failures = []
    if result.report is None or not result.report.converged:
        failures.append("did not converge")
    chain = scenario.load_chain()
    final = result.trajectory.states[-1].position
    ee = kinematics.forward_kinematics(chain, final)[-1].position
    goal_error = math.dist(ee, scenario.goal_position)
    if not goal_error <= mp_scenario.GOAL_TOLERANCE:
        failures.append(f"goal error {goal_error!r} m above {mp_scenario.GOAL_TOLERANCE} m")
    if scenario.obstacles and not (result.collision_free and result.dense_profile.min_clearance >= 0.0):
        failures.append("not collision-free")
    if not (math.isfinite(result.stats.mean) and result.stats.mean > 0.0):
        failures.append(f"lambda mean {result.stats.mean!r}")
    exported = json.loads((artifacts / "report.json").read_text())
    if exported.get("success") is not True:
        failures.append("report.json does not record success")
    return failures


def repeat_mismatch(records: list[PlanRecord]) -> str | None:
    """Every plan of the same problem in a run must give the same fingerprint."""
    first: dict[int, Fingerprint] = {}
    for record in records:
        seen = first.setdefault(record.index, record.fingerprint)
        if record.fingerprint != seen:
            return f"problem {record.index} gave {seen} then {record.fingerprint}"
    return None


class Bench:
    """Plans the problems of one workload and seed and checks every result."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.artifacts = work_dir / "artifacts"

    def scenario_path(self, index: int) -> Path:
        path = self.work_dir / f"problem-{index}.json"
        if not path.is_file():
            data = problem(self.workload, self.seed, index)
            path.write_text(json.dumps(data, indent=1) + "\n")
        return path

    def setup(self, index: int):
        """Load and prepare problem ``index``; returns the scenario and seconds taken."""
        path = self.scenario_path(index)
        start = time.perf_counter()
        scenario = mp_scenario.load_scenario(path)
        scenario.load_chain()
        scenario.build_sdf()
        return scenario, time.perf_counter() - start

    def plan(self, index: int, tracer: Tracer | None = None) -> PlanRecord:
        with tracer or contextlib.nullcontext():
            scenario, setup_s = self.setup(index)
            start = time.perf_counter()
            result = mp_scenario.run_scenario(scenario, self.artifacts)
            plan_s = time.perf_counter() - start
        fingerprint = Fingerprint(
            iterations=result.report.iterations,
            accepted=len(result.report.cost_trace) - 1,
            final_cost=result.report.final_cost,
            lambda_mean=result.stats.mean,
            goal_error_m=result.goal_error,
        )
        return PlanRecord(index, setup_s, plan_s, fingerprint, check_plan(scenario, result, self.artifacts))

    def measure(self, seconds: float, tracer: Tracer | None = None) -> tuple[list[PlanRecord], list[PlanRecord]]:
        """Warm-up plans, then the closed loop over problems 0, 1, 2, ...
        until ``seconds`` have passed.

        The warm-up plans problem 0 once, and once more untraced as the
        reference for the tracing overhead when ``tracer`` is given.
        """
        warm = [self.plan(0)]
        if tracer is not None:
            warm.append(self.plan(0))
        plans: list[PlanRecord] = []
        start = time.perf_counter()
        while len(plans) < MIN_PLANS or time.perf_counter() - start < seconds:
            plans.append(self.plan(len(plans), tracer))
        return warm, plans

    def setup_times(self) -> list[float]:
        """Back-to-back set-up times, cycling over the planned problems."""
        times: list[float] = []
        while len(times) < SETUP_SAMPLES or sum(times) < SETUP_SECONDS:
            times.append(self.setup(len(times) % MIN_PLANS)[1])
        return times

    def dims(self, index: int) -> tuple[int, int]:
        """Decision and residual dimensions of problem ``index``'s factor graph."""
        scenario, _ = self.setup(index)
        init = gp_prior.init_trajectory(
            scenario.start_config, scenario.horizon, scenario.num_support, scenario.n_interp
        )
        graph = factor_graph.build_graph(scenario, init)
        return graph.num_states * graph.state_dim, graph.residual_dim

    def end_to_end_metrics(self, plans: list[PlanRecord], setups: list[float]) -> dict[str, float]:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "plan_s": statistics.median(p.plan_s for p in plans),
            "setup_s": statistics.median(setups),
            "lambda_mean": statistics.median(p.fingerprint.lambda_mean for p in plans),
            "peak_rss_mb": peak_kib / 1024.0,
        }

    def per_layer_metrics(self, tracer: Tracer, warm: list[PlanRecord], plans: list[PlanRecord]) -> dict[str, float]:
        """Span totals and solver figures per traced plan."""
        count = len(plans)
        out = {
            f"{key}.{figure}": span_figure(tracer.totals[key], figure) / count
            for key, (_, _, figures) in TARGETS.items()
            for figure in figures
        }
        iterations = sum(p.fingerprint.iterations for p in plans)
        optimize_s = tracer.totals["factor_graph.optimize"].seconds
        out["factor_graph.optimize.iterations"] = iterations / count
        out["factor_graph.optimize.accepted_ratio"] = sum(p.fingerprint.accepted for p in plans) / iterations
        out["factor_graph.optimize.ms_per_iteration"] = 1000.0 * optimize_s / iterations
        out["factor_graph.decision_dim"], out["factor_graph.residual_dim"] = self.dims(0)
        out["trace.overhead_s"] = plans[0].plan_s - warm[-1].plan_s
        out["trace.plans"] = count
        return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Closed-loop planning benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    work_dir = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir.mkdir(parents=True, exist_ok=True)
    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    bench = Bench(args.workload, args.seed, work_dir)
    tracer = Tracer() if args.trace else None
    warm, plans = bench.measure(args.seconds, tracer)
    records = [*warm, *plans]
    for record in records:
        status = "ok" if not record.failures else "FAILED: " + "; ".join(record.failures)
        print(f"plan {record.index} setup_s={record.setup_s!r} plan_s={record.plan_s!r} "
              f"{asdict(record.fingerprint)} {status}")

    attempted = len(records)
    failed = sum(1 for r in records if r.failures)
    mismatch = repeat_mismatch(records)
    if mismatch:
        print(f"perfbench: fingerprint not reproduced: {mismatch}", file=sys.stderr)
    correct = failed == 0 and mismatch is None

    setups = []
    if tracer is None:
        setups = bench.setup_times()
        values = bench.end_to_end_metrics(plans, setups)
        units = END_TO_END_UNITS
        print(f"plan_fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} plans)")
    else:
        values = bench.per_layer_metrics(tracer, warm, plans)
        units = per_layer_units()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "plans": [asdict(r) | {"warm_up": i < len(warm)} for i, r in enumerate(records)],
        "setup_samples_s": setups,
        "repeat_mismatch": mismatch,
        "metrics": metrics,
    }
    (work_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
