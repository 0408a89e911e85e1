"""Timing wrappers around manipplan's public functions, installed from outside.

Several layers import their callees by name (``from .kinematics import
jacobian_partials``), so wrapping only the defining module would miss
those calls.  :class:`Tracer` therefore replaces every module-level
reference to a target function across the loaded ``manipplan`` modules,
and puts every reference back when it is removed.

Each wrapped call is a span.  Spans are not kept one by one; each target
accumulates its call count, total time and the part of that time covered
by wrapped calls made inside it, which gives self time without storing
the span tree.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# Reported name -> (module, attribute, figures reported per plan).  An
# attribute "Class.method" wraps a method on its class.  Figures: "calls",
# "s" (total seconds) and "self_s" (seconds not covered by wrapped callees).
TARGETS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "scenario.load_scenario": ("scenario", "load_scenario", ("s",)),
    "scenario.scenario_from_dict": ("scenario", "scenario_from_dict", ("s",)),
    "scenario.load_chain": ("scenario", "Scenario.load_chain", ("s",)),
    "scenario.build_sdf": ("scenario", "Scenario.build_sdf", ("s",)),
    "scenario.run_scenario": ("scenario", "run_scenario", ("s", "self_s")),
    "factor_graph.build_graph": ("factor_graph", "build_graph", ("s",)),
    "factor_graph.optimize": ("factor_graph", "optimize", ("s", "self_s")),
    "factor_graph.linearize": ("factor_graph", "linearize", ("calls", "s", "self_s")),
    "factor_graph.total_cost": ("factor_graph", "total_cost", ("calls", "s")),
    "factor_graph.GpPriorFactor.evaluate": ("factor_graph", "GpPriorFactor.evaluate", ("calls", "s")),
    "kinematics.forward_kinematics": ("kinematics", "forward_kinematics", ("calls", "s")),
    "kinematics.geometric_jacobian": ("kinematics", "geometric_jacobian", ("calls", "s")),
    "kinematics.jacobian_partials": ("kinematics", "jacobian_partials", ("calls", "s")),
    "kinematics.point_jacobian": ("kinematics", "point_jacobian", ("calls", "s")),
    "kinematics.body_sphere_states": ("kinematics", "body_sphere_states", ("calls", "s")),
    "manipulability.singularity_cost": ("manipulability", "singularity_cost", ("calls", "s", "self_s")),
    "manipulability.singularity_cost_value": ("manipulability", "singularity_cost_value", ("calls", "s")),
    "collision.collision_residual": ("collision", "collision_residual", ("calls", "s", "self_s")),
    "collision.sphere_clearances": ("collision", "sphere_clearances", ("calls", "s")),
    "collision.sdf_query": ("collision", "sdf_query", ("calls",)),
    "gp_prior.gp_prior_error": ("gp_prior", "gp_prior_error", ("calls", "s")),
    "gp_prior.interpolate": ("gp_prior", "interpolate", ("calls", "s")),
}

PACKAGE = "manipplan"


@dataclass
class SpanTotals:
    calls: int = 0
    seconds: float = 0.0
    child_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child_seconds


class Tracer:
    """Installs timing wrappers on :data:`TARGETS`; use as a context manager."""

    def __init__(self):
        self.totals: dict[str, SpanTotals] = {key: SpanTotals() for key in TARGETS}
        self._open_children: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        open_children = self._open_children
        totals = self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = open_children.pop()
                span = totals[key]
                span.calls += 1
                span.seconds += elapsed
                span.child_seconds += child
                if open_children:
                    open_children[-1] += elapsed

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for key, (module_name, attr, _) in TARGETS.items():
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(key, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(key, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def remove(self) -> None:
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def span_figure(span: SpanTotals, figure: str) -> float:
    return {"calls": span.calls, "s": span.seconds, "self_s": span.self_seconds}[figure]
