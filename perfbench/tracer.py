"""Outside-in tracing of geodev: each public function is wrapped where its
caller looks it up, so the program itself is not changed.

A span is opened on entry to a wrapped name and closed on exit.  Its self
time is its duration minus the durations of its direct child spans (the run
is single-threaded, so children never overlap).  Spans down to one transport
solve are kept in memory and written when the run ends; the per-RHS-call
names (transport coefficients, connection coefficients and partials, and the
surface callables) are only counted and timed, because a run makes hundreds
of thousands of them.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import defaultdict

import geodev.cli
import geodev.equations
import geodev.kinematics
from geodev.geometry import ConnectionField
from geodev.transport import TransportLaw

SOLVES = ("transport.transport_components", "transport.transport_matrix")
DEVIATION = "kinematics.deviation_vector"
# Kinematics calls that transport one surface field back along gamma_s.
DELTAS = ("kinematics.delta_field", "kinematics.relative_velocity",
          "kinematics.relative_acceleration", "kinematics.relative_momentum",
          "kinematics.relative_force")
OUTPUTS = ("cli._write_outputs", "cli.dump_json")
SURFACE_CALLABLES = ("map", "d_s", "d_r", "d_ss", "d_sr", "d_rr")

LAYER_NAMES = {
    "transport": SOLVES + ("transport.law_coefficients",),
    "kinematics": (DEVIATION, "kinematics.relative_energy") + DELTAS,
    "equations": ("equations.convergence_study", "equations.residual"),
    "geometry": ("geometry.conn_coefficients", "geometry.conn_partials",
                 "geometry.curvature_at"),
    "scenarios.surface": tuple(f"scenarios.surface.{n}" for n in SURFACE_CALLABLES),
}

# Units of the metrics() entries that are not plain counts.
METRIC_UNITS = {
    "transport.self_s": "s", "kinematics.self_s": "s", "equations.self_s": "s",
    "geometry.self_s": "s", "scenarios.build_s": "s",
    "scenarios.surface_self_s": "s", "cli.config_s": "s", "cli.output_s": "s",
    "kinematics.delta_unique_ratio": "ratio",
}


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "rhs")

    def __init__(self, name, start, span_id):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id
        self.rhs = 0


class Tracer:
    """Installs the wrappers, aggregates counts and self times, and keeps the
    coarse spans of the current run."""

    def __init__(self):
        self.stack = []
        # name -> [calls, total seconds, self seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans = []
        self.request = None
        self.config_key = None
        self.solves = 0
        self.rhs_evals = 0
        self.deviation_solves = 0
        self.delta_keys = set()
        self._next_id = 0
        self._patches = []

    # ----------------------------------------------------------- wrapping
    def span(self, name, fn, record=True, on_enter=None):
        stack, stats, spans = self.stack, self.stats, self.spans
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            span_id = None
            if record:
                self._next_id += 1
                span_id = self._next_id
            frame = _Frame(name, clock(), span_id)
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent.child += duration
                entry = stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame.child
                if name in SOLVES and frame.rhs:
                    self.solves += 1
                    self.rhs_evals += frame.rhs
                    if parent is not None and parent.name == DEVIATION:
                        self.deviation_solves += 1
                if record:
                    spans.append((self.request, span_id,
                                  parent.span_id if parent is not None else None,
                                  name, frame.start, end))
        return wrapped

    def _patch(self, owner, attr, name, record=True, on_enter=None):
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, record, on_enter))

    def _count_rhs(self, _args):
        # a transport-coefficient call made directly by a solve is one RHS
        # evaluation of the transport ODE
        if self.stack and self.stack[-1].name in SOLVES:
            self.stack[-1].rhs += 1

    def _delta_key(self, name):
        def note(args):
            self.delta_keys.add((self.config_key, name, args[1], args[2]))
        return note

    def _traced_build(self, build):
        traced = self.span("scenarios.build", build)

        def build_and_wrap(spec):
            scenario = traced(spec)
            surf = scenario.surface
            callables = {key: self.span(f"scenarios.surface.{key}",
                                        getattr(surf, key), record=False)
                         for key in SURFACE_CALLABLES}
            return dataclasses.replace(
                scenario, surface=dataclasses.replace(surf, **callables))
        return build_and_wrap

    def install(self) -> None:
        cli, eqs, kin = geodev.cli, geodev.equations, geodev.kinematics
        self._patch(cli, "load_config", "cli.load_config")
        self._patch(cli, "_write_outputs", "cli._write_outputs")
        self._patch(cli, "dump_json", "cli.dump_json")
        self._patch(cli, "convergence_study", "equations.convergence_study")
        self._patch(cli, "transport_matrix", "transport.transport_matrix")
        original_build = cli.__dict__["build"]
        self._patches.append((cli, "build", original_build))
        cli.build = self._traced_build(original_build)
        self._patch(eqs, "residual", "equations.residual")
        self._patch(eqs, "deviation_vector", DEVIATION)
        self._patch(eqs, "relative_energy", "kinematics.relative_energy")
        for name in DELTAS:
            attr = name.split(".", 1)[1]
            self._patch(eqs, attr, name, on_enter=self._delta_key(name))
        self._patch(eqs, "curvature_at", "geometry.curvature_at")
        self._patch(kin, "transport_components", "transport.transport_components")
        self._patch(TransportLaw, "coefficients", "transport.law_coefficients",
                    record=False, on_enter=self._count_rhs)
        self._patch(ConnectionField, "coefficients", "geometry.conn_coefficients",
                    record=False)
        self._patch(ConnectionField, "partials", "geometry.conn_partials",
                    record=False)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results
    def _total(self, names, column):
        return sum(self.stats[n][column] for n in names if n in self.stats)

    def _top_level_output_s(self) -> float:
        # dump_json also runs inside _write_outputs; count each interval once
        outputs = {span_id: (parent, end - start)
                   for _, span_id, parent, name, start, end in self.spans
                   if name in OUTPUTS}
        return sum(duration for parent, duration in outputs.values()
                   if parent not in outputs)

    def metrics(self) -> dict:
        def calls(*names):
            return self._total(names, 0)

        delta_calls = calls(*DELTAS)
        deviation_calls = calls(DEVIATION)
        self_s = {layer: self._total(names, 2) for layer, names in LAYER_NAMES.items()}
        return {
            "transport.solves": self.solves,
            "transport.rhs_evals": self.rhs_evals,
            "transport.rhs_per_solve": self.rhs_evals / self.solves if self.solves else 0.0,
            "transport.self_s": self_s["transport"],
            "kinematics.deviation_calls": deviation_calls,
            "kinematics.solves_per_deviation":
                self.deviation_solves / deviation_calls if deviation_calls else 0.0,
            "kinematics.self_s": self_s["kinematics"],
            "kinematics.delta_calls": delta_calls,
            "kinematics.delta_unique_ratio":
                len(self.delta_keys) / delta_calls if delta_calls else 0.0,
            "equations.studies": calls("equations.convergence_study"),
            "equations.residuals": calls("equations.residual"),
            "equations.self_s": self_s["equations"],
            "geometry.conn_evals": calls("geometry.conn_coefficients",
                                         "geometry.conn_partials"),
            "geometry.curvature_calls": calls("geometry.curvature_at"),
            "geometry.self_s": self_s["geometry"],
            "scenarios.build_s": self._total(("scenarios.build",), 1),
            "scenarios.surface_evals": calls(*LAYER_NAMES["scenarios.surface"]),
            "scenarios.surface_self_s": self_s["scenarios.surface"],
            "cli.config_s": self._total(("cli.load_config",), 1),
            "cli.output_s": self._top_level_output_s(),
        }

    def write(self, path) -> None:
        """Write the kept spans (one JSON object per line) and the
        aggregated per-name statistics."""
        with open(path, "w") as fh:
            for req, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"request": req, "id": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            for name, (count, total, own) in sorted(self.stats.items()):
                fh.write(json.dumps({"name": name, "calls": count,
                                     "total_s": total, "self_s": own}) + "\n")
