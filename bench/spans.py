"""Span tracing of polyvol's layers, installed from outside the package.

``Tracer.installed()`` rebinds each wrapped function on its defining
module, and on every other ``polyvol`` module or class that bound the
same object (``from .volume import polyhedron_volume`` in ``flow`` and
``rectify``, the package namespace, and so on), then restores them.
Spans are kept in memory as (name, start, end, parent, op) rows; the
self time of a span is its duration minus that of its direct children.

``core`` is not wrapped: its functions run per point, thousands of times
per op, so a wrapper would mostly time itself.  Their cost shows in the
self time of the callers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: (layer, module, attribute) of every wrapped function; an attribute
#: "Class.method" wraps a method.  The layer is the module's short name.
WRAPPED = (
    ("graphs", "polyvol.graphs", "check_hyperideal_angles"),
    ("graphs", "polyvol.graphs", "dual_graph"),
    ("graphs", "polyvol.graphs", "PlanarGraph.is_polyhedral"),
    ("graphs", "polyvol.graphs", "edge_collapse"),
    ("graphs", "polyvol.graphs", "face_collapse"),
    ("polyhedron", "polyvol.polyhedron", "build_polyhedron"),
    ("polyhedron", "polyvol.polyhedron", "classify_vertices"),
    ("polyhedron", "polyvol.polyhedron", "truncate"),
    ("polyhedron", "polyvol.polyhedron", "dihedral_angles"),
    ("polyhedron", "polyvol.polyhedron", "edge_lengths"),
    ("volume", "polyvol.volume", "polyhedron_volume"),
    ("volume", "polyvol.volume", "integrate_klein_tets"),
    ("volume", "polyvol.volume", "ideal_tetrahedron_volume"),
    ("realize", "polyvol._realize", "solve_plane_system"),
    ("rectify", "polyvol.rectify", "solve_midsphere"),
    ("rectify", "polyvol.rectify", "rectification_volume"),
    ("flow", "polyvol.flow", "run_flow"),
    ("flow", "polyvol.flow", "realize_from_angles"),
    ("flow", "polyvol.flow", "escape_deformation"),
    ("flow", "polyvol.flow", "nudge_ideal_vertices"),
    ("shapes", "polyvol.shapes", "jittered_compact"),
    ("shapes", "polyvol.shapes", "random_hyperideal"),
)

FLOW_EVENT_KINDS = ("EdgeCollapsed", "FaceCollapsed", "VertexBecameIdeal",
                    "AlmostProperOnset", "BecameHyperidealOnly")
RECTIFY_FAILURES = ("SolverDiverged", "NotPolyhedral", "other")

COUNTS = (
    "graphs.admissible", "graphs.inadmissible",
    "volume.evals", "volume.budget_exceeded", "volume.ops.klein", "volume.ops.exact",
    "realize.iterations", "realize.not_ok",
    *(f"rectify.failed.{name}" for name in RECTIFY_FAILURES),
    "flow.steps_attempted", "flow.steps_rejected", "flow.samples",
    *(f"flow.events.{kind}" for kind in FLOW_EVENT_KINDS),
)


def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(layer, attr) for layer, _, attr in WRAPPED)


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent, op]
        self.counts = defaultdict(int)   # (op, counter name) -> count
        self._stack = []
        self.op = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        on_result = _ON_RESULT.get(name)
        on_error = _ON_ERROR.get(name)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            row = [name, time.perf_counter(), 0.0, parent, self.op]
            self.spans.append(row)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                row[2] = time.perf_counter()
                self._stack.pop()
                if on_error is not None:
                    on_error(self, exc)
                raise
            row[2] = time.perf_counter()
            self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.op, name)] += n

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapped function to its span-recording wrapper."""
        saved = []
        try:
            for layer, module_name, attr in WRAPPED:
                module = importlib.import_module(module_name)
                owner, leaf = module, attr
                if "." in attr:
                    cls_name, leaf = attr.split(".")
                    owner = getattr(module, cls_name)
                original = owner.__dict__[leaf]
                wrapper = self._wrap(span_name(layer, attr), original)
                for holder in _holders(owner):
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            saved.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(saved):
                setattr(holder, key, original)

    # -- aggregation -------------------------------------------------------

    def durations(self):
        """Duration and self time of every span, in span order."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        self_t = list(dur)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_t[parent] -= end - start
        return dur, self_t

    def layer_metrics(self, ops=None) -> dict:
        """calls/busy_s/self_s per wrapped function, and the counts, over ``ops``."""
        dur, self_t = self.durations()
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = 0
            out[f"{name}.busy_s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for i, (name, _, _, _, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += dur[i]
            out[f"{name}.self_s"] += self_t[i]
        for name in COUNTS:
            out[name] = 0
        for (op, name), n in self.counts.items():
            if ops is None or op in ops:
                out[name] += n
        return out

    def top_level(self, ops=None):
        """(op, name, duration, self time) of each op's outermost spans."""
        dur, self_t = self.durations()
        return [(op, name, dur[i], self_t[i])
                for i, (name, _, _, parent, op) in enumerate(self.spans)
                if parent < 0 and (ops is None or op in ops)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _holders(owner):
    """Where a wrapped object may be bound: its class, or every polyvol module."""
    if isinstance(owner, type):
        return [owner]
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "polyvol" or name.startswith("polyvol."))]


# -- counters hooked on results and errors ---------------------------------


def _on_admissibility(tracer, report):
    tracer.count("graphs.admissible" if report.admissible else "graphs.inadmissible")


def _on_volume(tracer, res):
    tracer.count("volume.evals", int(res.evaluations))
    tracer.count("volume.budget_exceeded", int(res.budget_exceeded))
    exact = str(res.method) == "IdealDecomposition"
    tracer.count("volume.ops.exact" if exact else "volume.ops.klein")


def _on_solve(tracer, result):
    report = result[2]
    tracer.count("realize.iterations", int(report.iterations))
    tracer.count("realize.not_ok", int(not report.ok))


def _on_rectify_error(tracer, exc):
    name = type(exc).__name__
    key = name if name in RECTIFY_FAILURES else "other"
    tracer.count(f"rectify.failed.{key}")


def _on_step(tracer, _result):
    if tracer.inside("flow.run_flow"):
        tracer.count("flow.steps_attempted")


def _on_step_error(tracer, _exc):
    if tracer.inside("flow.run_flow"):
        tracer.count("flow.steps_attempted")
        tracer.count("flow.steps_rejected")


def _on_flow(tracer, trace):
    tracer.count("flow.samples", len(trace.samples))
    for event in trace.events:
        tracer.count(f"flow.events.{event.kind}")


_ON_RESULT = {
    "graphs.check_hyperideal_angles": _on_admissibility,
    "volume.polyhedron_volume": _on_volume,
    "realize.solve_plane_system": _on_solve,
    "flow.realize_from_angles": _on_step,
    "flow.run_flow": _on_flow,
}
_ON_ERROR = {
    "rectify.rectification_volume": _on_rectify_error,
    "flow.realize_from_angles": _on_step_error,
}
