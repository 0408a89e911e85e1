"""Command-line interface: plan, compare, sweep, and validate scenarios."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from jsonschema.exceptions import ValidationError

from .scenario import (
    GOAL_TOLERANCE,
    Scenario,
    load_scenario,
    run_comparison,
    run_interp_sweep,
    run_scenario,
    sweep_counts,
)


def _print_run(label: str, run) -> None:
    stats = run.stats
    conv = "prior (not optimized)" if run.report is None else (
        f"converged in {run.report.iterations} it" if run.report.converged else "DID NOT CONVERGE"
    )
    line = f"  {label:<18} {conv}; lambda mean {stats.mean:.4f} min {stats.minimum:.4f}"
    line += f"; goal error {run.goal_error:.2e} m"
    if run.collision_free is not None:
        line += f"; collision-free: {run.collision_free}"
    print(line)


def _cmd_plan(scenario: Scenario, out: Path, counts) -> int:
    result = run_scenario(scenario, out)
    print(f"scenario {scenario.name}: artifacts in {out}")
    _print_run("plan", result)
    return 0 if result.success else 1


def _cmd_compare(scenario: Scenario, out: Path, counts) -> int:
    result = run_comparison(scenario, out)
    print(f"scenario {scenario.name}: artifacts in {out}")
    _print_run("prior", result.prior)
    _print_run("baseline", result.baseline)
    _print_run("singularity-aware", result.aware)
    print(f"  normalization constant: {result.normalization:.6f}")
    return 0 if (result.baseline.converged and result.aware.converged) else 1


def _cmd_sweep(scenario: Scenario, out: Path, counts) -> int:
    result = run_interp_sweep(scenario, counts, out)
    print(f"scenario {scenario.name}: artifacts in {out}")
    _print_run("prior", result.prior)
    for count, run in zip(result.counts, result.runs):
        _print_run(f"n_interp={count}", run)
    return 0 if all(run.converged for run in result.runs) else 1


def _cmd_validate(scenario: Scenario, out: Path, counts) -> int:
    chain = scenario.load_chain()
    print(
        f"OK: scenario {scenario.name!r}, robot {chain.name!r} ({chain.n} joints), "
        f"{scenario.num_support} support states, n_interp {scenario.n_interp}, "
        f"{len(scenario.obstacles)} obstacle(s), goal tolerance {GOAL_TOLERANCE} m"
    )
    return 0


def _load(args) -> tuple[Scenario, Path, list[int]]:
    """The scenario, artifact directory and sweep counts of a command line,
    all checked before any solve starts."""
    scenario = load_scenario(args.scenario)
    scenario.load_chain()
    counts = []
    if args.command == "sweep":
        counts = sweep_counts(scenario, [v for v in args.interp.split(",") if v.strip() != ""])
    out = Path(getattr(args, "out", None) or Path("runs") / scenario.name / args.command)
    if args.command != "validate":
        out.mkdir(parents=True, exist_ok=True)  # raises on an --out that cannot be a directory
    return scenario, out, counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manipplan",
        description="Singularity-avoiding trajectory optimization for serial manipulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func in (
        ("plan", "optimize one scenario and export artifacts", _cmd_plan),
        ("compare", "run prior / baseline / singularity-aware and align profiles", _cmd_compare),
        ("sweep", "re-plan over several interpolated-state counts", _cmd_sweep),
        ("validate", "check a scenario file against the schema and model", _cmd_validate),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("scenario", help="scenario JSON path or built-in name")
        if name == "sweep":
            command.add_argument("--interp", default="0,2,4,8", help="comma-separated counts (default 0,2,4,8)")
        if name != "validate":
            command.add_argument("--out", help=f"artifact directory (default runs/<name>/{name})")
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        loaded = _load(args)
    except Exception as exc:  # schema, model and value errors, one line each
        # A schema error's str() appends the schema and the instance.
        message = f"{exc.json_path}: {exc.message}" if isinstance(exc, ValidationError) else exc
        print(f"INVALID: {message}", file=sys.stderr)
        return 2
    return args.func(*loaded)


if __name__ == "__main__":
    raise SystemExit(main())
