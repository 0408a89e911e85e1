import csv
import dataclasses
import importlib
import io
import json
import math
import pkgutil
import sys

import jsonschema
import numpy as np
import pytest
from jsonschema import ValidationError

import manipplan
from manipplan import cli
from manipplan import factor_graph as fg
from manipplan import gp_prior as gp
from manipplan import kinematics
from manipplan import scenario as sc
from manipplan.kinematics import forward_kinematics, geometric_jacobian, load_chain
from manipplan.manipulability import manipulability
from manipplan.scenario import (
    BoxObstacle,
    Scenario,
    builtin_scenario_path,
    load_scenario,
    run_comparison,
    run_interp_sweep,
    run_scenario,
    scenario_from_dict,
)

from .oracles import evaluate_profile_loop


def planar_scenario(**overrides):
    fields = dict(
        robot="planar2r",
        start_config=np.array([0.0, 0.3]),
        goal_position=np.array([1.0, 1.0, 0.0]),
        name="planar_test",
        horizon=1.0,
        num_support=6,
        n_interp=2,
        task_dim=2,
        lambda_max=1.0,
    )
    fields.update(overrides)
    return Scenario(**fields)


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return header, data


class TestScenarioLoading:
    @pytest.mark.parametrize("name", ["ur10_unconstrained", "ur10_table", "planar2r_analytic"])
    def test_shipped_scenarios_load_and_validate(self, name):
        scenario = load_scenario(name)
        chain = scenario.load_chain()
        assert chain.n == scenario.start_config.shape[0]
        assert builtin_scenario_path(name).is_file()

    def test_schema_rejects_unknown_fields(self):
        data = json.loads(builtin_scenario_path("planar2r_analytic").read_text())
        data["unknown_knob"] = 1.0
        with pytest.raises(ValidationError):
            scenario_from_dict(data)

    def test_schema_rejects_bad_task_dim(self):
        data = json.loads(builtin_scenario_path("planar2r_analytic").read_text())
        data["task_dim"] = 4
        with pytest.raises(ValidationError):
            scenario_from_dict(data)

    def test_task_dims_are_the_kinematics_ones(self):
        schema_path = builtin_scenario_path("planar2r_analytic").parent.parent / "scenario.schema.json"
        assert json.loads(schema_path.read_text())["properties"]["task_dim"]["enum"] == list(kinematics.TASK_DIMS)
        for task_dim in (1, 4):
            with pytest.raises(ValueError, match="task_dim"):
                planar_scenario(task_dim=task_dim)

    @pytest.mark.parametrize(
        "change, drop",
        [
            ({"unknown_knob": 1.0}, None),
            ({"task_dim": 4}, None),
            ({"horizon": -1.0, "num_support": "many", "solver": {"method": "newton"}}, None),
            ({}, "goal_position"),
        ],
    )
    def test_schema_errors_match_jsonschema_validate(self, change, drop):
        data = json.loads(builtin_scenario_path("ur10_table").read_text()) | change
        data.pop(drop, None)
        schema = json.loads((builtin_scenario_path("ur10_table").parent.parent / "scenario.schema.json").read_text())
        with pytest.raises(ValidationError) as ours:
            scenario_from_dict(data)
        with pytest.raises(ValidationError) as reference:
            jsonschema.validate(data, schema)
        assert str(ours.value) == str(reference.value)

    def test_schema_is_checked_once_per_process(self, monkeypatch):
        built = []

        def counted(schema, validator_for=sc.validator_for):
            built.append(schema)
            return validator_for(schema)

        sc._validator.cache_clear()
        monkeypatch.setattr(sc, "validator_for", counted)
        for name in ("ur10_table", "ur10_unconstrained", "planar2r_analytic"):
            load_scenario(name)
        assert len(built) == 1

    def test_negative_covariance_rejected(self):
        with pytest.raises(ValueError):
            planar_scenario(sigma_sbar=-1.0)
        # The collision cost's margin and covariance are checked here alone.
        with pytest.raises(ValueError, match="sigma_obs"):
            planar_scenario(sigma_obs=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            planar_scenario(epsilon=-0.1)
        # A singular GP prior, Qc = qc_scale * I with qc_scale = 0, is rejected here.
        with pytest.raises(ValueError, match="qc_scale"):
            planar_scenario(qc_scale=0.0)

    def test_obstacles_need_body_spheres(self):
        scenario = planar_scenario(obstacles=(BoxObstacle(center=[1.0, 1.0, 0.0], half_extents=[0.1, 0.1, 0.1]),))
        with pytest.raises(ValueError, match="body spheres"):
            scenario.load_chain()

    def test_goal_sanity_ball(self):
        scenario = planar_scenario(goal_position=np.array([5.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            scenario.load_chain()

    def test_start_length_must_match_robot(self):
        scenario = planar_scenario(start_config=np.array([0.0, 0.3, 0.1]))
        with pytest.raises(ValueError):
            scenario.load_chain()

    @pytest.mark.parametrize("robot", ["robot.json", "models/robot"])
    @pytest.mark.parametrize("model_dir", ["scenario_dir", "cwd"])
    def test_robot_path_resolved_relative_to_scenario_file(self, model_dir, robot, tmp_path, monkeypatch):
        # A model in the current directory alone used to be read from there,
        # and a path with no suffix was never resolved against the scenario's.
        model = json.loads(kinematics.builtin_model_path("planar2r").read_text())
        (tmp_path / model_dir / robot).parent.mkdir(parents=True)
        (tmp_path / model_dir / robot).write_text(json.dumps(model))
        data = json.loads(builtin_scenario_path("planar2r_analytic").read_text())
        data["robot"] = robot
        scenario_path = tmp_path / "scenario_dir" / "scenario.json"
        scenario_path.parent.mkdir(exist_ok=True)
        scenario_path.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path / "cwd" if model_dir == "cwd" else tmp_path)
        scenario = load_scenario(scenario_path)
        assert scenario.robot == str(scenario_path.parent / robot)
        if model_dir == "scenario_dir":
            assert scenario.load_chain().n == 2
        else:
            with pytest.raises(kinematics.ModelError) as error:
                scenario.load_chain()
            assert repr(scenario.robot) in str(error.value)

    def test_lambda_max_resolution_order(self):
        scenario = planar_scenario(lambda_max=None)
        assert scenario.resolve_lambda_max() == 1.0  # model-file cache for task_dim 2
        assert planar_scenario(lambda_max=0.5).resolve_lambda_max() == 0.5
        # The UR-10 model caches no task_dim 2 ceiling: a fresh estimate.
        ur10 = Scenario(robot="ur10", start_config=np.zeros(6), goal_position=[0.5, 0.5, 0.5], task_dim=2)
        assert ur10.resolve_lambda_max() == sc.estimate_lambda_max(load_chain("ur10"), task_dim=2)

    def test_model_lambda_max_is_read_for_the_task_dimension(self, tmp_path):
        # The UR-10 model used to cache only the task_dim 6 ceiling, which a
        # task_dim 3 scenario without a lambda_max of its own then read.
        data = json.loads(builtin_scenario_path("ur10_table").read_text())
        shipped = scenario_from_dict(data)
        del data["lambda_max"]
        keyed = scenario_from_dict(data)
        assert keyed.resolve_lambda_max() == shipped.resolve_lambda_max() == 0.46615604255863863
        run_scenario(shipped, tmp_path / "shipped")
        run_scenario(keyed, tmp_path / "keyed")
        for name in ("trajectory.csv", "lambda_profile.csv"):
            assert (tmp_path / "keyed" / name).read_bytes() == (tmp_path / "shipped" / name).read_bytes()

    def test_schema_defaults_match_dataclass_defaults(self):
        # A scenario file that leaves a key out gets the dataclass default,
        # so every "default" the schema documents must equal it.
        schema_path = builtin_scenario_path("planar2r_analytic").parent.parent / "scenario.schema.json"
        properties = json.loads(schema_path.read_text())["properties"]
        scenario_defaults = {f.name: f.default for f in dataclasses.fields(Scenario)}
        solver_defaults = {f.name: f.default for f in dataclasses.fields(fg.SolverSettings)}
        pinned = {}
        for key, spec in properties.items():
            if key == "solver":
                assert spec["default"] == {}
            elif "default" in spec:
                pinned[key] = (spec["default"], scenario_defaults[key])
        solver = dict(properties["solver"]["properties"])
        # The one solver may be named, and has no setting behind the name.
        assert solver.pop("method")["const"] == "levenberg_marquardt"
        assert solver.keys() == solver_defaults.keys()
        for key, spec in solver.items():
            pinned[f"solver.{key}"] = (spec["default"], solver_defaults[key])
        assert len(pinned) == 15
        for key, (documented, default) in pinned.items():
            if isinstance(default, tuple):
                default = list(default)
            assert documented == default, key


class TestRunScenario:
    def test_already_satisfied_problem_stays_at_start(self, tmp_path):
        chain = load_chain("planar2r")
        start = np.array([0.0, 0.3])
        goal = forward_kinematics(chain, start)[-1].position
        scenario = planar_scenario(
            enable_singularity_factors=False, goal_position=goal, name="noop"
        )
        result = run_scenario(scenario, tmp_path / "noop")
        assert result.report.final_cost == pytest.approx(0.0, abs=1e-9)
        assert result.goal_error < 1e-9
        for state in result.trajectory.states:
            np.testing.assert_allclose(state.position, start, atol=1e-9)

    def test_exported_lambda_recomputes_from_exported_q(self, tmp_path):
        scenario = planar_scenario()
        result = run_scenario(scenario, tmp_path / "run")
        header, data = read_csv(tmp_path / "run" / "trajectory.csv")
        chain = scenario.load_chain()
        n = chain.n
        assert header == ["time", "q1", "q2", "v1", "v2", "lambda"]
        for row in data:
            lam = manipulability(geometric_jacobian(chain, row[1 : 1 + n], scenario.task_dim))
            assert lam == pytest.approx(row[1 + 2 * n], abs=1e-9)

    @pytest.mark.parametrize("name", ["ur10_table", "ur10_unconstrained", "planar2r_analytic"])
    def test_exported_lambda_is_manipulability_of_the_exported_q_bit_for_bit(self, tmp_path, name):
        # The report takes its singular values as manipulability() does, without vectors.
        scenario = load_scenario(name)
        run_scenario(scenario, tmp_path)
        _, data = read_csv(tmp_path / "trajectory.csv")
        chain = scenario.load_chain()
        recomputed = [manipulability(geometric_jacobian(chain, row[1 : 1 + chain.n], scenario.task_dim)) for row in data]
        assert np.asarray(recomputed).tobytes() == data[:, -1].tobytes()

    def test_trajectory_rows_are_supports_plus_interpolated(self, tmp_path):
        scenario = planar_scenario(num_support=6, n_interp=3)
        result = run_scenario(scenario, tmp_path / "rows")
        _, data = read_csv(tmp_path / "rows" / "trajectory.csv")
        assert data.shape[0] == 6 + 5 * 3
        assert np.all(np.diff(data[:, 0]) > 0)
        _, profile = read_csv(tmp_path / "rows" / "lambda_profile.csv")
        assert profile.shape[0] == 6 + 5 * 10

    def test_goal_reached_on_converged_run(self, tmp_path):
        result = run_scenario(planar_scenario(), tmp_path / "goal")
        assert result.report.converged
        assert result.goal_error <= 1e-3
        assert result.success

    def test_report_json_interface(self, tmp_path):
        run_scenario(planar_scenario(), tmp_path / "report")
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        convergence = report["convergence"]
        for key in ("iterations", "converged", "cost_trace", "final_cost", "wall_time_s"):
            assert key in convergence
        assert report["goal_reached"] is True
        assert report["collision_free"] is None  # no obstacles in this scenario

    def test_determinism_byte_identical_csv(self, tmp_path):
        scenario = planar_scenario()
        run_scenario(scenario, tmp_path / "a")
        run_scenario(planar_scenario(), tmp_path / "b")
        for name in ("trajectory.csv", "lambda_profile.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestHeldStart:
    @pytest.mark.parametrize("name", ["planar2r_analytic", "ur10_unconstrained", "ur10_table"])
    def test_every_plan_starts_at_the_start_bit_for_bit(self, name):
        # The plan, the comparison's baseline and aware runs and each sweep
        # run: state 0 is the scenario's start with zero velocity, as given.
        scenario = load_scenario(name)
        start = np.concatenate([scenario.start_config, np.zeros(len(scenario.start_config))])
        comparison = run_comparison(scenario)
        runs = [run_scenario(scenario), comparison.baseline, comparison.aware]
        runs += run_interp_sweep(scenario, [0, 2, 4]).runs
        assert [run.trajectory.x[0].tobytes() for run in runs] == [start.tobytes()] * len(runs)


class TestCsvExport:
    @pytest.mark.parametrize("rows", [14, 0])
    def test_bytes_equal_the_csv_module(self, tmp_path, rows):
        special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]
        values = np.array(special + [0.1, 1.0 / 3.0, 1e16, 1e-5, 123456789.0])[:rows]
        columns = [values, np.column_stack([values[::-1], -values]), values.reshape(-1, 1)]
        header = ["time", "a", "b", "c_1"]
        sc._write_csv(tmp_path / "out.csv", header, columns)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(value) for value in row] for row in np.column_stack(columns).tolist())
        assert (tmp_path / "out.csv").read_bytes() == expected.getvalue().encode()
        # Every value reads back exactly, zeros with their signs (a NaN's sign is not written).
        parsed = np.array([[float(v) for v in row] for row in list(csv.reader(io.StringIO(expected.getvalue())))[1:]])
        stacked = np.column_stack(columns)
        assert np.array_equal(parsed.reshape(stacked.shape), stacked, equal_nan=True)
        assert np.array_equal(np.signbit(parsed.reshape(stacked.shape)), np.signbit(stacked) & ~np.isnan(stacked))


class TestComparison:
    def test_normalized_maximum_is_exactly_one(self, tmp_path):
        result = run_comparison(planar_scenario(), tmp_path)
        _, data = read_csv(tmp_path / "comparison.csv")
        norm_cols = data[:, 4:7]
        assert norm_cols.max() == 1.0

    def test_prior_profile_is_constant(self, tmp_path):
        result = run_comparison(planar_scenario(), tmp_path)
        lam = result.prior.dense_profile.lambdas
        assert np.ptp(lam) == pytest.approx(0.0, abs=1e-12)

    def test_aware_beats_baseline_on_planar(self, tmp_path):
        result = run_comparison(planar_scenario(), tmp_path)
        assert result.aware.stats.mean >= result.baseline.stats.mean
        assert result.aware.report.converged and result.baseline.report.converged

    def test_aligned_times_across_runs(self, tmp_path):
        result = run_comparison(planar_scenario(), tmp_path)
        np.testing.assert_array_equal(result.prior.dense_profile.times, result.aware.dense_profile.times)
        np.testing.assert_array_equal(result.prior.dense_profile.times, result.baseline.dense_profile.times)


class TestSweep:
    def test_count_zero_matches_plain_run_bit_for_bit(self, tmp_path):
        scenario = planar_scenario()
        run_scenario(dataclasses.replace(scenario, n_interp=0), tmp_path / "plain")
        run_interp_sweep(scenario, [0, 2], tmp_path / "sweep")
        plain = (tmp_path / "plain" / "trajectory.csv").read_bytes()
        swept = (tmp_path / "sweep" / "interp_0" / "trajectory.csv").read_bytes()
        assert plain == swept

    def test_sweep_csv_lists_all_counts(self, tmp_path):
        run_interp_sweep(planar_scenario(), [0, 1, 3], tmp_path / "s")
        header, data = read_csv(tmp_path / "s" / "sweep.csv")
        assert header[:3] == ["n_interp", "lambda_mean", "lambda_min"]
        np.testing.assert_array_equal(data[:, 0], [0, 1, 3])

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError):
            run_interp_sweep(planar_scenario(), [])

    @pytest.mark.parametrize("counts, error", [([1, 1], "more than once"), ([2, -1], "negative"), ([0, 2, 4, 2], "more than once")])
    def test_repeated_or_invalid_counts_rejected_before_any_solve(self, counts, error, tmp_path, monkeypatch):
        # A second plan of one count would overwrite the first's interp_<count>/
        # and repeat its sweep.csv row; an invalid count must not wait for the
        # plans before it.
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started on invalid counts")

        monkeypatch.setattr(sc, "_execute", no_solve)
        with pytest.raises(ValueError, match=error):
            run_interp_sweep(load_scenario("planar2r_analytic"), counts, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestObstacleScenario:
    def test_clearance_columns_exported(self, tmp_path):
        scenario = Scenario(
            robot="ur10",
            start_config=np.full(6, 0.4),
            goal_position=np.array([0.6, 0.4, 0.4]),
            name="obstacle_smoke",
            num_support=4,
            horizon=0.1,
            n_interp=0,
            task_dim=3,
            lambda_max=0.47,
            obstacles=(BoxObstacle(center=[0.0, -0.9, 0.0], half_extents=[0.2, 0.2, 0.2]),),
        )
        result = run_scenario(scenario, tmp_path / "obs")
        header, data = read_csv(tmp_path / "obs" / "lambda_profile.csv")
        clearance_cols = [c for c in header if c.startswith("clearance_")]
        assert len(clearance_cols) == len(scenario.load_chain().body_spheres)
        assert result.collision_free is not None


def wandering_trajectory(scenario, rng):
    """The scenario's support times with random positions around its start
    and random velocities, so every profile column varies."""
    trajectory = gp.init_trajectory(scenario.start_config, scenario.horizon, scenario.num_support)
    x = trajectory.x.ravel() + rng.uniform(-0.6, 0.6, trajectory.x.size)
    return trajectory.with_vector(x)


PROFILE_FIELDS = ("times", "positions", "velocities", "lambdas", "sigma_mins", "ee_positions", "clearances")


def forbid_calls(monkeypatch, fn):
    """Make every reference to ``fn`` in the manipplan modules raise."""
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} was called")
    for name, module in list(sys.modules.items()):
        if name == "manipplan" or name.startswith("manipplan."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, forbidden)


def test_a_plan_builds_no_trajectory_state(monkeypatch):
    # The solver works on the (N, 2n) state array; TrajectoryState objects
    # are views built only on request.
    built = []
    post_init = gp.TrajectoryState.__post_init__

    def counted(self):
        built.append(self.time)
        post_init(self)

    monkeypatch.setattr(gp.TrajectoryState, "__post_init__", counted)
    result = run_scenario(load_scenario("ur10_unconstrained"))
    assert result.report.iterations > 1
    assert built == []
    assert len(result.trajectory.states) == len(built) == result.trajectory.num_states


class TestStackedProfile:
    @pytest.mark.parametrize("name", ["ur10_table", "ur10_unconstrained", "planar2r_analytic"])
    @pytest.mark.parametrize("per_segment", [0, 3, 10])
    def test_equals_per_sample_loop_bit_for_bit(self, name, per_segment, rng):
        scenario = load_scenario(name)
        chain, sdf = scenario.load_chain(), scenario.build_sdf()
        trajectory = wandering_trajectory(scenario, rng)
        profile = sc._evaluate_states(
            chain, scenario.task_dim, *sc._sampled_states(trajectory, per_segment), sdf
        )
        expected = evaluate_profile_loop(chain, scenario.task_dim, trajectory, per_segment, sdf)
        assert profile.times.shape == ((scenario.num_support - 1) * (per_segment + 1) + 1,)
        for field, reference in zip(PROFILE_FIELDS, expected):
            if reference is None:
                assert getattr(profile, field) is None
            else:
                np.testing.assert_array_equal(getattr(profile, field), reference, err_msg=field)

    def test_finalize_run_works_on_the_stack_only(self, monkeypatch, tmp_path, rng):
        scenario = load_scenario("ur10_table")
        chain = scenario.load_chain()
        trajectory = wandering_trajectory(scenario, rng)
        for fn in (forward_kinematics, gp.interpolate):
            forbid_calls(monkeypatch, fn)
        passes, svds = [], []
        fk_matrices, svd = kinematics._fk_matrices, np.linalg.svd

        def counted(chain, q):
            passes.append(q.shape)
            return fk_matrices(chain, q)

        def counted_svd(a, *args, **kwargs):
            svds.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(kinematics, "_fk_matrices", counted)
        monkeypatch.setattr(sc, "_fk_matrices", counted)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for n_interp in (1, 6):
            passes.clear()
            svds.clear()
            run = sc._finalize_run(dataclasses.replace(scenario, n_interp=n_interp), trajectory, None, tmp_path)
            assert (tmp_path / "lambda_profile.csv").is_file()
            # One stacked pass per profile (Jacobian, end-effector, spheres)
            # and one stacked SVD, whatever the sample count.
            factor_rows, dense_rows = run.factor_profile.times.shape[0], run.dense_profile.times.shape[0]
            assert sorted(passes) == sorted([(factor_rows, chain.n), (dense_rows, chain.n)])
            jacobian_shape = (scenario.task_dim, chain.n)
            assert sorted(svds) == sorted([(factor_rows, *jacobian_shape), (dense_rows, *jacobian_shape)])

    def test_non_finite_state_rejected_once_on_the_stack(self):
        trajectory = gp.init_trajectory(np.zeros(2), 1.0, 3)
        x = trajectory.x.ravel().copy()
        x[5] = 1e308  # a finite velocity whose blends overflow
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            sc._sampled_states(trajectory.with_vector(x), 4)


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli.main(["validate", "planar2r_analytic"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"robot": "planar2r"}))
        assert cli.main(["validate", str(bad)]) == 2

    def test_validate_rejects_the_removed_sdf_settings(self, tmp_path, capsys):
        data = json.loads(builtin_scenario_path("ur10_table").read_text())
        data["sdf"] = {"cell_size": 0.02, "extent": 2.4}
        bad = tmp_path / "grid_sdf.json"
        bad.write_text(json.dumps(data))
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("INVALID: ") and "'sdf' was unexpected" in err

    @pytest.mark.parametrize(
        "solver, reason",
        [
            ({"method": "gauss_newton"}, "'levenberg_marquardt' was expected"),
            ({"lm_init_damping": 1e-4}, "'lm_init_damping' was unexpected"),
        ],
        ids=["gauss_newton", "lm_init_damping"],
    )
    def test_validate_rejects_the_removed_solver_settings(self, solver, reason, tmp_path, capsys):
        data = json.loads(builtin_scenario_path("ur10_table").read_text())
        data["solver"] |= solver
        bad = tmp_path / "removed_solver.json"
        bad.write_text(json.dumps(data))
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("INVALID: ") and reason in err

    @pytest.mark.parametrize("key", ["sigma_goal", "sigma_start"])
    def test_validate_rejects_the_removed_covariance_settings(self, key, tmp_path, capsys):
        # The start and goal covariances are the constants of build_graph.
        data = json.loads(builtin_scenario_path("ur10_table").read_text())
        data[key] = 1e-8
        bad = tmp_path / "removed_covariance.json"
        bad.write_text(json.dumps(data))
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("INVALID: ") and f"'{key}' was unexpected" in err

    @pytest.mark.parametrize("change, field", [(None, "'robot'"), ({"horizon": -1}, "$.horizon")], ids=["empty", "horizon"])
    def test_schema_error_is_one_stderr_line(self, change, field, tmp_path, capsys):
        # A jsonschema error's str() adds the schema and the instance: 176
        # lines for {}, 10 for a negative horizon.
        data = {} if change is None else json.loads(builtin_scenario_path("planar2r_analytic").read_text()) | change
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("INVALID: ") and field in err

    def test_builtin_names_are_not_shadowed_by_files_in_the_current_directory(self, tmp_path, capsys, monkeypatch):
        # A decoy file named like a built-in model or scenario used to be read instead of it.
        model = json.loads(kinematics.builtin_model_path("planar2r").read_text())
        (tmp_path / "planar2r").write_text(json.dumps(model | {"name": "from_cwd"}))
        data = json.loads(builtin_scenario_path("planar2r_analytic").read_text())
        (tmp_path / "ur10_table").write_text(json.dumps(data | {"name": "from_cwd"}))
        monkeypatch.chdir(tmp_path)
        assert cli.main(["validate", "planar2r_analytic"]) == 0
        assert "robot 'planar2r'" in capsys.readouterr().out
        assert cli.main(["validate", "ur10_table"]) == 0
        assert "scenario 'ur10_table'" in capsys.readouterr().out
        # A path with a directory still reads the file.
        assert load_chain("./planar2r").name == "from_cwd"
        assert load_scenario("./ur10_table").name == "from_cwd"

    def test_naming_the_solver_plans_bit_for_bit_like_leaving_it_out(self, tmp_path):
        data = json.loads(builtin_scenario_path("planar2r_analytic").read_text())
        assert "method" not in data["solver"]
        runs = []
        for label, extra in (("unnamed", {}), ("named", {"method": "levenberg_marquardt"})):
            path = tmp_path / f"{label}.json"
            path.write_text(json.dumps(data | {"solver": data["solver"] | extra}))
            out = tmp_path / label
            assert cli.main(["plan", str(path), "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            del report["convergence"]["wall_time_s"]
            runs.append([(out / name).read_bytes() for name in ("trajectory.csv", "lambda_profile.csv")] + [report])
        assert runs[0] == runs[1]

    def test_plan_writes_artifacts_and_exits_zero(self, tmp_path):
        out = tmp_path / "plan_out"
        code = cli.main(["plan", "planar2r_analytic", "--out", str(out)])
        assert code == 0
        for name in ("trajectory.csv", "lambda_profile.csv", "report.json"):
            assert (out / name).is_file()

    def test_compare_writes_comparison(self, tmp_path):
        out = tmp_path / "cmp_out"
        assert cli.main(["compare", "planar2r_analytic", "--out", str(out)]) == 0
        assert (out / "comparison.csv").is_file()
        assert (out / "prior" / "trajectory.csv").is_file()

    def test_sweep_parses_counts(self, tmp_path):
        out = tmp_path / "sweep_out"
        assert cli.main(["sweep", "planar2r_analytic", "--interp", "0,1", "--out", str(out)]) == 0
        assert (out / "sweep.csv").is_file()
        assert (out / "interp_1" / "report.json").is_file()

    @pytest.mark.parametrize("command", ["plan", "compare", "sweep", "validate"])
    @pytest.mark.parametrize("content", ['{"robot": "planar2r"}', "not json", None])
    def test_invalid_file_exits_2_before_any_solve(self, command, content, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        out = tmp_path / "out"
        argv = [command, str(bad)] + ([] if command == "validate" else ["--out", str(out)])
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("INVALID: ")
        assert not out.exists()

    @pytest.mark.parametrize("interp", ["-1", "0,-1", "1,x", ","])
    def test_sweep_rejects_bad_counts_before_any_solve(self, interp, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        out = tmp_path / "out"
        assert cli.main(["sweep", "planar2r_analytic", "--interp", interp, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("INVALID: ")
        assert not out.exists()

    @pytest.mark.parametrize("interp, repeated", [("1,1", 1), ("0,2,4,2,0", 2)])
    def test_sweep_rejects_a_repeated_count_before_any_solve(self, interp, repeated, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        out = tmp_path / "out"
        assert cli.main(["sweep", "planar2r_analytic", "--interp", interp, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"INVALID: the sweep lists n_interp {repeated} more than once\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plan", "validate"])
    @pytest.mark.parametrize("task_dim, lambda_max", [(3, None), (6, 1.0)])
    def test_task_dim_beyond_the_joint_count_exits_2(self, command, task_dim, lambda_max, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        data = json.loads(builtin_scenario_path("planar2r_analytic").read_text()) | {"task_dim": task_dim}
        if lambda_max is not None:
            data["lambda_max"] = lambda_max
        path = tmp_path / "planar_task_dim.json"
        path.write_text(json.dumps(data))
        assert cli.main([command, str(path)] + (["--out", str(tmp_path / "out")] if command == "plan" else [])) == 2
        assert capsys.readouterr().err == f"INVALID: task_dim {task_dim} exceeds the robot's 2 joints\n"

    @pytest.mark.parametrize("command", ["plan", "validate"])
    def test_obstacles_on_a_robot_without_body_spheres_exit_2(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        data = json.loads(builtin_scenario_path("planar2r_analytic").read_text())
        data["obstacles"] = [{"center": [1.0, 1.0, 0.0], "half_extents": [0.1, 0.1, 0.1]}]
        path = tmp_path / "planar_obstacle.json"
        path.write_text(json.dumps(data))
        assert cli.main([command, str(path)] + (["--out", str(tmp_path / "out")] if command == "plan" else [])) == 2
        assert "body spheres" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "index, half_extents",
        [(0, [0.5, 0.0, 0.05]), (1, [0.1, -0.1, 0.1]), (1, [0.1, 0.1, math.inf])],
        ids=["zero", "negative", "infinite"],
    )
    def test_bad_obstacle_named_by_index_before_any_solve(self, index, half_extents, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        data = json.loads(builtin_scenario_path("ur10_table").read_text())
        data["obstacles"].append({"center": [0.0, -0.9, 0.0], "half_extents": [0.2, 0.2, 0.2]})
        data["obstacles"][index]["half_extents"] = half_extents
        bad = tmp_path / "bad_box.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main(["plan", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"INVALID: obstacles[{index}]: ") and "half extents positive" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("center", [0.0, 1e200, 0.0]), ("half_extents", [2e150, 0.1, 0.1])])
    def test_a_box_whose_squared_offsets_overflow_is_named_by_index(self, field, value, tmp_path, capsys):
        data = json.loads(builtin_scenario_path("ur10_table").read_text())
        data["obstacles"].append({"center": [0.0, -0.9, 0.0], "half_extents": [0.2, 0.2, 0.2]})
        data["obstacles"][1][field] = value
        bad = tmp_path / "far_box.json"
        bad.write_text(json.dumps(data))
        assert cli.main(["validate", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("INVALID: obstacles[1]: ") and "at most 1e+150 m" in err

    @pytest.mark.parametrize("command", ["plan", "validate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "path",
        [
            ("horizon",),
            ("qc_scale",),
            ("sigma_sbar",),
            ("epsilon",),
            ("lambda_max",),
            ("goal_position", 1),
            ("obstacles", 0, "center", 2),
            ("solver", "rel_cost_tol"),
            ("solver", "abs_grad_tol"),
        ],
        ids=lambda path: ".".join(map(str, path)),
    )
    def test_non_finite_value_exits_2_before_any_solve(self, command, value, path, tmp_path, capsys, monkeypatch):
        # NaN passes every "value <= 0" check; the file used to validate and
        # then crash the solve.
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        data = json.loads(builtin_scenario_path("ur10_table").read_text())
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        bad = tmp_path / "non_finite.json"
        bad.write_text(json.dumps(data))
        out = tmp_path / "out"
        assert cli.main([command, str(bad)] + (["--out", str(out)] if command == "plan" else [])) == 2
        assert capsys.readouterr().err.startswith("INVALID: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("base_pose", "rpy", 0), math.nan),
            (("base_pose", "xyz", 2), math.nan),
            (("body_spheres", 0, "radius"), math.nan),
            (("body_spheres", 0, "radius"), math.inf),
            (("body_spheres", 0, "offset", 1), math.nan),
            (("lambda_max", "6"), 0.0),
            (("lambda_max", "6"), math.nan),
            (("lambda_max", "6"), math.inf),
        ],
        ids=lambda item: ".".join(map(str, item)) if isinstance(item, tuple) else str(item),
    )
    def test_invalid_robot_model_exits_2(self, path, value, tmp_path, capsys, monkeypatch):
        # These used to validate, and then crash the solve or drop a body
        # sphere from the collision cost (the hinge of NaN is 0).
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        model = json.loads(kinematics.builtin_model_path("ur10").read_text())
        parent = model
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        model_path = tmp_path / "bad_ur10.json"
        model_path.write_text(json.dumps(model))
        data = json.loads(builtin_scenario_path("ur10_table").read_text())
        data["robot"] = str(model_path)
        scenario_path = tmp_path / "bad_model.json"
        scenario_path.write_text(json.dumps(data))
        assert cli.main(["validate", str(scenario_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("INVALID: ") and "finite" in err

    @pytest.mark.parametrize("command", ["plan", "compare", "sweep"])
    @pytest.mark.parametrize("below_a_file", [False, True], ids=["file", "below_file"])
    def test_unusable_out_exits_2_before_any_solve(self, command, below_a_file, tmp_path, capsys, monkeypatch):
        # Such an --out used to fail only when the artifacts were written, after the solve.
        monkeypatch.setattr(sc, "_execute", self._no_solve)
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if below_a_file else taken
        assert cli.main([command, "planar2r_analytic", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("INVALID: ")
        assert taken.read_text() == ""

    @staticmethod
    def _no_solve(*args, **kwargs):
        raise AssertionError("a solve started on invalid input")

    def test_plan_exit_code_reflects_failure(self, tmp_path):
        # One iteration cannot reach the goal: constraint dissatisfaction
        # must surface in the exit status.
        data = json.loads(builtin_scenario_path("planar2r_analytic").read_text())
        data["solver"] = {"max_iterations": 1, "rel_cost_tol": 1e-30, "abs_grad_tol": 1e-30}
        scenario_path = tmp_path / "hopeless.json"
        scenario_path.write_text(json.dumps(data))
        code = cli.main(["plan", str(scenario_path), "--out", str(tmp_path / "out")])
        assert code == 1


def test_every_public_name_resolves():
    # Each module's __all__ lists only names it defines; cli has none.
    names = [info.name for info in pkgutil.iter_modules(manipplan.__path__)]
    assert len(names) == 7
    for name in names:
        module = importlib.import_module(f"manipplan.{name}")
        listed = getattr(module, "__all__", [])
        assert name == "cli" or listed, name
        assert [entry for entry in listed if not hasattr(module, entry)] == [], name
