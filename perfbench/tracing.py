"""Spans around calls into anchorpose's public functions, recorded from outside.

A traced run swaps each traced function's module bindings for a wrapper that
records a span (name, start, end, parent span, scene id, pid) plus counters
read off the call's result. Spans stay in memory; ``Tracer.dump`` writes them
once at the end. Untraced runs install nothing, so they pay no cost.

Pool workers forked by ``anchorpose.cli`` inherit the wrappers. Spans recorded
in a worker ride back to the parent on the ``EvalRecord`` that
``cli.scene_eval_record`` returns and are collected when ``cli.evaluate_batch``
receives those records.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

from anchorpose import cli, codec, correspondence, mesh, metrics, solver, synth

_SPANS_ATTR = "_perfbench_spans"


def _maps_counters(maps, *args, **kwargs) -> dict:
    return {"fg_cells": float((maps.mask > 0.5).sum()),
            "region_bytes": float(maps.region_probs.nbytes)}


def _gn_counters(report, *args, **kwargs) -> dict:
    return {"gn_iters": float(report.iterations),
            "gn_steps_accepted": float(len(report.trace) - 1)}


# (span name, defining module, attribute, counters read off the result and
# the call's arguments).
# Every binding of the function in its defining module, in ``anchorpose.cli``
# and in the extra modules passed to ``install`` is wrapped, except the
# ``solver`` binding of ``solve_3d3d``: RANSAC calls it once per hypothesis,
# and the minimal-sample solves are RANSAC's own work.
TRACED = (
    ("mesh.diameter", mesh, "diameter", None),
    ("synth.make_benchmark", synth, "make_benchmark", None),
    ("synth.tight_roi", synth, "tight_roi", None),
    ("codec.build_anchor_set", codec, "build_anchor_set", None),
    ("correspondence.ground_truth_maps", correspondence, "ground_truth_maps", _maps_counters),
    ("correspondence.corrupt", correspondence, "corrupt", None),
    ("solver.extract_correspondences", solver, "extract_correspondences",
     lambda corr, *a, **k: {"corr_n": float(len(corr))}),
    ("solver.ransac", solver, "ransac",
     lambda rep, corr, *a, **k: {"inlier_ratio": rep.inlier_count / len(corr)}),
    ("solver.solve_fused", solver, "solve_fused", _gn_counters),
    ("solver.solve_2d3d", solver, "solve_2d3d", _gn_counters),
    ("solver.solve_3d3d", solver, "solve_3d3d", None),
    ("metrics.add_metric", metrics, "add_metric", None),
    ("metrics.adds_metric", metrics, "adds_metric", None),
)
_SKIP_DEFINING = {"solver.solve_3d3d"}


class NoTrace:
    """Stands in for the tracer in untraced loops."""

    scene = None

    @contextmanager
    def span(self, name):
        yield {}


class Tracer:
    """In-memory span recorder. ``scene`` tags the spans opened while it is set."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.scene = None
        self._stack: list[str] = []
        self._count = 0
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        """Record one span; the caller may add counters to the yielded dict."""
        self._count += 1
        rec = {"id": f"{os.getpid()}-{self._count}", "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "scene": self.scene, "pid": os.getpid(), "counters": {}}
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["counters"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def _wrap(self, name, fn, counters):
        def traced(*args, **kwargs):
            with self.span(name) as c:
                out = fn(*args, **kwargs)
                if counters is not None:
                    c.update(counters(out, *args, **kwargs))
                return out
        return traced

    def _scene_root(self, fn):
        # Wraps cli.scene_eval_record: in a pool worker, hand this scene's
        # spans back on the returned record.
        def traced(*args, **kwargs):
            first = len(self.spans)
            with self.span("cli.scene_eval_record"):
                rec = fn(*args, **kwargs)
            if os.getpid() != self.pid:
                setattr(rec, _SPANS_ATTR, self.spans[first:])
                del self.spans[first:]
            return rec
        return traced

    def _collect(self, fn):
        # Wraps cli.evaluate_batch: take back spans recorded in pool workers.
        def traced(records, *args, **kwargs):
            records = list(records)
            for r in records:
                self.spans.extend(r.__dict__.pop(_SPANS_ATTR, ()))
            with self.span("metrics.evaluate_batch"):
                return fn(records, *args, **kwargs)
        return traced

    def _set(self, module, attr, value):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self, *extra_modules) -> None:
        for name, module, attr, counters in TRACED:
            orig = getattr(module, attr)
            wrapped = self._wrap(name, orig, counters)
            targets = [cli, *extra_modules]
            if name not in _SKIP_DEFINING:
                targets.append(module)
            for m in targets:
                if getattr(m, attr, None) is orig:
                    self._set(m, attr, wrapped)
        self._set(cli, "scene_eval_record", self._scene_root(cli.scene_eval_record))
        batch = metrics.evaluate_batch
        collect = self._collect(batch)
        for m in (cli, metrics, *extra_modules):
            if getattr(m, "evaluate_batch", None) is batch:
                self._set(m, "evaluate_batch", collect)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
            f.write("\n")


def self_times(spans) -> dict:
    """Seconds of each span's duration not covered by its children."""
    children: dict[str, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_summary(spans) -> dict:
    """Per span name: calls, total and self seconds, and counter means."""
    selft = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                         "counters": {}})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selft[s["id"]]
        for k, v in s["counters"].items():
            row["counters"][k] = row["counters"].get(k, 0.0) + v
    for row in out.values():
        row["counters"] = {k: v / row["calls"] for k, v in row["counters"].items()}
    return out
