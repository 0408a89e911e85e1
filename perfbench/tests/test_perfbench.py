"""Tests of the benchmark's own code: inputs, metric names, checks, tracing.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import dataclasses
import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from manipplan import collision, factor_graph, kinematics, scenario
from manipplan.kinematics import load_chain
from manipplan.manipulability import SingularityCostParams

from perfbench import workloads
from perfbench.bench import END_TO_END_UNITS, Fingerprint, PlanRecord, per_layer_units, repeat_mismatch
from perfbench.tracing import TARGETS, Tracer

# The package re-exports a function under this module's name.
manipulability = importlib.import_module("manipplan.manipulability")

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_problem_is_a_function_of_workload_seed_and_index(workload):
    first = workloads.problem(workload, 7, 2)
    assert workloads.problem(workload, 7, 2) == first
    assert workloads.problem(workload, 8, 2) != first
    assert workloads.problem(workload, 7, 3) != first
    json.dumps(first)  # plain JSON, as a user would write it


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_problem_stays_within_the_jitter_of_its_template(workload):
    spec = workloads.WORKLOADS[workload]
    base = workloads.template(spec.template)
    for seed in range(20):
        data = workloads.problem(workload, seed, 0)
        start = np.array(data["start_config"])
        shoulder = start[:2] - base["start_config"][:2]
        assert np.all(np.abs(shoulder) <= workloads.SHOULDER_JITTER_RAD)
        low, high = workloads.WRIST_BAND_RAD
        assert np.all((start[2:] >= low) & (start[2:] <= high))
        goal = np.array(data["goal_position"]) - base["goal_position"]
        assert np.all(np.abs(goal) <= workloads.GOAL_JITTER_M)
        parsed = scenario.scenario_from_dict(data)
        assert parsed.start_config.shape == (6,)


def test_long_horizon_keeps_the_template_knot_spacing():
    base = scenario.scenario_from_dict(workloads.template("ur10_unconstrained"))
    long = scenario.scenario_from_dict(workloads.problem("long_horizon", 0, 0))
    assert (long.num_support, long.n_interp) == (41, 0)
    base_dt = base.horizon / (base.num_support - 1)
    assert long.horizon / (long.num_support - 1) == pytest.approx(base_dt, rel=1e-12)
    assert scenario.scenario_from_dict(workloads.problem("table", 0, 0)).obstacles
    assert not long.obstacles


def test_benchmark_json_matches_the_code():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()


def test_metric_names_and_units_are_valid():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def _record(index, **changes):
    fingerprint = Fingerprint(iterations=70, accepted=55, final_cost=370.5, lambda_mean=0.4, goal_error_m=2e-7)
    return PlanRecord(index, 0.5, 9.0, dataclasses.replace(fingerprint, **changes), [])


def test_repeat_check_accepts_identical_fingerprints():
    assert repeat_mismatch([_record(0), _record(0), _record(1, final_cost=1.0)]) is None


@pytest.mark.parametrize(
    "change",
    [
        {"iterations": 71},
        {"accepted": 54},
        {"final_cost": float(np.nextafter(370.5, np.inf))},
        {"lambda_mean": 0.4000000000000001},
        {"goal_error_m": 3e-7},
    ],
)
def test_repeat_check_rejects_any_changed_field(change):
    message = repeat_mismatch([_record(0), _record(1), _record(0, **change)])
    assert message is not None and message.startswith("problem 0")


def test_tracer_wraps_callers_namespaces_and_restores_them():
    holders = [
        (manipulability, "jacobian_partials"),
        (collision, "body_sphere_states"),
        (factor_graph, "point_jacobian"),
        (factor_graph, "singularity_cost"),
        (scenario, "geometric_jacobian"),
    ]
    before = [getattr(mod, name) for mod, name in holders]
    build_sdf = scenario.Scenario.__dict__["build_sdf"]
    chain = load_chain("ur10")
    params = SingularityCostParams(lambda_max=0.5, sigma_sbar=1e-4)
    q = np.array([0.8, 1.9, 0.3, 0.2, 0.4, 0.1])
    with Tracer() as tracer:
        assert all(getattr(mod, name) is not orig for (mod, name), orig in zip(holders, before))
        assert scenario.Scenario.__dict__["build_sdf"] is not build_sdf
        factor_graph.singularity_cost(chain, q, params, 3)
        kinematics.forward_kinematics(chain, q)
    assert [getattr(mod, name) for mod, name in holders] == before
    assert scenario.Scenario.__dict__["build_sdf"] is build_sdf
    cost = tracer.totals["manipulability.singularity_cost"]
    partials = tracer.totals["kinematics.jacobian_partials"]
    assert (cost.calls, partials.calls) == (1, 1)
    assert tracer.totals["kinematics.forward_kinematics"].calls == 1
    assert 0.0 < cost.self_seconds <= cost.seconds
    assert cost.child_seconds == pytest.approx(partials.seconds)
    assert set(tracer.totals) == set(TARGETS)


def test_run_fails_without_the_planner_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
