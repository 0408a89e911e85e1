"""Closed-loop planning benchmark: one client plans one seeded problem at a time.

Run from the repository root::

    python3 perfbench/run.py --workload unconstrained --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and listed in ``BENCHMARK.json``.
One untimed warm-up plan comes first; the measured loop then plans
problems 0, 1, 2, ... until ``--seconds`` have passed, so problem 0 is
planned twice and must reproduce its fingerprint (iterations, accepted
steps, final cost, mean manipulability, goal error) exactly.  Every plan
must pass the same success check as ``manipplan plan``.

``--trace 0`` reports the end-to-end metrics: median plan and set-up
time, median mean manipulability and the peak resident memory.
``--trace 1`` wraps the planner's public functions (``tracing.py``)
during the measured loop and reports per-layer figures averaged per
plan, plus the tracing overhead: traced minus untraced wall time of
problem 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every plan passed its checks, 2 when the planner cannot be
imported from this checkout's ``src``.  A full report with the
environment and every plan's fingerprint is written to
``.perfbench_out/<workload>-seed<seed>-trace<t>/report.json``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_bench():
    """Import the benchmark with manipplan taken from this checkout's
    ``src`` and nowhere else."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import manipplan

    origin = Path(manipplan.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"manipplan was imported from {origin}, not from {SRC}")
    from perfbench import bench

    return bench


if __name__ == "__main__":
    try:
        bench = _import_bench()
    except ImportError as exc:
        print(f"perfbench: cannot import the planner from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(bench.main(sys.argv[1:], ROOT))
