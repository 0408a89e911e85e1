"""Seeded planning problems for the benchmark workloads.

Each workload starts from a scenario template shipped with manipplan and
perturbs its start configuration and goal with draws from the seed.  The
planner only ever sees the resulting scenario dict, exactly as if a user
had written it to a JSON file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from manipplan.scenario import builtin_scenario_path

# Start perturbation: the shoulder joints move around the template, the
# wrist joints stay inside a near-singular band around the template's
# 0.001 rad so singularity factors carry real work on every problem.  Ten
# times wider draws (0.05 rad, [0, 0.02] rad, 3 cm) made LM take anywhere
# from 49 to 148 iterations on ``unconstrained`` depending on the seed, and
# left one ``table`` plan in collision; at this width the iteration count
# stays within about 10% of its median on every workload.
SHOULDER_JITTER_RAD = 0.005
WRIST_BAND_RAD = (0.0, 0.002)
GOAL_JITTER_M = 0.003


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    overrides: tuple[tuple[str, object], ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # 11 knots x 2 interpolated states, no obstacles: kinematics and
        # singularity factors carry the work.
        Workload(name="unconstrained", template="ur10_unconstrained"),
        # 16 knots x 2 interpolated states over a tabletop box: the only
        # workload that reaches the collision layer and the SDF build.
        Workload(name="table", template="ur10_table"),
        # 41 knots at the template's knot spacing (0.0025 s), no interpolated
        # states: a 492-dim normal solve and a long GP chain.  Not listed in
        # BENCHMARK.json: the run budget there allows two workloads at a run
        # length long enough to be steady on a small shared host, so this one
        # is for runs by hand, e.g. traced runs of solver changes.
        Workload(
            name="long_horizon",
            template="ur10_unconstrained",
            overrides=(("num_support", 41), ("horizon", 0.1), ("n_interp", 0)),
        ),
    )
}


def template(name: str) -> dict:
    """The shipped scenario template a workload starts from."""
    return json.loads(builtin_scenario_path(name).read_text())


def problem(workload: str, seed: int, index: int) -> dict:
    """Scenario dict of problem ``index`` of ``workload`` under ``seed``.

    The same ``(workload, seed, index)`` always gives the same dict; the
    draws come from a stream of their own per ``(seed, index)``.
    """
    spec = WORKLOADS[workload]
    data = template(spec.template)
    data.update(dict(spec.overrides))
    rng = np.random.default_rng([seed, index])
    start = np.asarray(data["start_config"], dtype=float)
    start[:2] += rng.uniform(-SHOULDER_JITTER_RAD, SHOULDER_JITTER_RAD, size=2)
    start[2:] = rng.uniform(*WRIST_BAND_RAD, size=start.shape[0] - 2)
    goal = np.asarray(data["goal_position"], dtype=float)
    goal += rng.uniform(-GOAL_JITTER_M, GOAL_JITTER_M, size=3)
    data["start_config"] = [float(v) for v in start]
    data["goal_position"] = [float(v) for v in goal]
    data["name"] = f"{workload}-s{seed}-p{index}"
    return data
