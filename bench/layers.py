"""Outside-in traced replica of one ``paracr verify`` call.

``traced_call`` rebuilds a report by calling the public layer functions
in the order ``runner.run`` uses them and times each from outside:

    spec_io.load_spec -> conditions.expand_checks -> runner.sample_points
    -> (replay: geometry.PointFrame per attempted draw) -> tensors
    -> runner.engine_self_tests -> runner.evaluate_checks per id
    -> conditions.classify -> runner.measure_targets

``expr`` and ``jets`` have no boundary the runner calls; their cost is
inside ``runner.sample_points_s`` and ``geometry.point_frame_s``.

A layer function that is missing, or whose signature no longer takes
the arguments given here, makes that layer's metrics (and those of the
layers that need its output) ``None`` with a reason; the rest of the
pass still runs.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time

import numpy as np

REJECTION_CLASSES = ("SingularFrame", "DegenerateMetric", "OutsidePatch",
                     "DomainError")

# Public derived tensors of PointFrame, forced before any check runs.
TENSORS = ("Gamma", "dGamma", "Riem", "Ric", "r", "r_star", "nabla_phi",
           "nabla_xi", "nabla_eta", "h", "dh", "nabla_h", "dEta", "Phi",
           "dPhi", "ddEta", "P", "dP", "Qplus", "dQplus")

# Metrics of one call; ``conditions.<id>_s`` are added per condition.
CALL_METRICS = (
    "spec_io.load_spec_s", "runner.sample_points_s", "runner.sample_attempts",
    "sample_accepted", "geometry.tensors_s", "runner.engine_self_tests_s",
    "runner.evaluate_checks_s", "runner.measure_targets_s",
) + tuple(f"runner.rejected.{name}" for name in REJECTION_CLASSES)


class Void(Exception):
    """A layer could not be measured; the message says why."""


def layer(path, *args, **kwargs):
    """Resolve ``module.function`` under ``paracr`` and bind the call
    arguments to its signature; return the call as a thunk, or raise
    Void."""
    module_name, _, attr = path.rpartition(".")
    try:
        fn = getattr(importlib.import_module(f"paracr.{module_name}"), attr)
    except (ImportError, AttributeError):
        raise Void(f"paracr.{path} is missing") from None
    try:
        inspect.signature(fn).bind(*args, **kwargs)
    except TypeError as exc:
        raise Void(f"paracr.{path} signature changed: {exc}") from None
    except ValueError:
        pass  # no introspectable signature; let the call decide
    return lambda: fn(*args, **kwargs)


def timed(thunk):
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


class CallTrace:
    """Metrics of one traced call: a value, or None with a reason."""

    def __init__(self):
        self.values = {}
        self.reasons = {}
        self.point_times = []
        self.rebuilt = {}
        self.cut = None  # why the pass stopped early, if it did

    def void(self, names, reason):
        for name in names:
            self.values[name] = None
            self.reasons.setdefault(name, reason)

    def get(self, name):
        """A metric's value; a condition this call did not evaluate
        took no time, unless the call was cut before its checks."""
        return self.values.get(name, None if self.cut else 0.0)

    def reason(self, name):
        return self.reasons.get(name, self.cut)


def _numeric(spec, seed, points, tolerance):
    numeric = dict(spec.numeric, seed=seed, points=points,
                   tolerance=tolerance)
    if numeric["separation"] <= tolerance:
        numeric["separation"] = 10.0 * tolerance
    return numeric


def _checks_request(checks):
    text = checks.strip()
    if text == "all":
        return "all"
    return [item.strip() for item in text.split(",") if item.strip()]


def _replay_sampling(structure, seed, count, trace, sampled=None):
    """Attempt count and rejections by class, recovered from outside.

    A fresh ``default_rng(seed)`` is advanced one ``random(dim)`` draw
    at a time; each draw is mapped into the box and tried with a fresh
    PointFrame, which is also how ``geometry.point_frame_s`` is timed.
    With ``sampled = (frames, rng)`` from ``runner.sample_points`` the
    replay runs until its state equals that rng's state and must accept
    the same points; without it, until ``count`` points are accepted.
    Returns the replay's (frames, rng), or None when it is void.
    """
    from paracr.errors import ParacrError
    names = ("runner.sample_attempts", "sample_accepted") + tuple(
        f"runner.rejected.{name}" for name in REJECTION_CLASSES)
    chart = structure.chart
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    rng = np.random.default_rng(seed)
    state_after = None if sampled is None else sampled[1].bit_generator.state
    rejected = dict.fromkeys(REJECTION_CLASSES, 0)
    frames = []
    attempts = 0
    while (len(frames) < count if state_after is None
           else rng.bit_generator.state != state_after):
        if attempts >= 10 * count:
            trace.void(names, "replayed random(dim) draws did not reproduce "
                              "the sample")
            return None
        attempts += 1
        point = tuple(float(v) for v in lo + (hi - lo) * rng.random(chart.dim))
        try:
            build = layer("geometry.PointFrame", structure, point)
        except Void as exc:
            trace.void(names, str(exc))
            return None
        start = time.perf_counter()
        try:
            pf = build()
            pf.ginv
        except ParacrError as exc:
            kind = type(exc).__name__
            rejected[kind] = rejected.get(kind, 0) + 1
            continue
        trace.point_times.append(time.perf_counter() - start)
        frames.append(pf)
    if sampled is not None and \
            [pf.point for pf in frames] != [pf.point for pf in sampled[0]]:
        trace.point_times = []
        trace.void(names, "replayed accepted points differ from the sample")
        return None
    trace.values["runner.sample_attempts"] = attempts
    trace.values["sample_accepted"] = len(frames)
    for kind in REJECTION_CLASSES:
        trace.values[f"runner.rejected.{kind}"] = rejected.pop(kind)
    if rejected:
        trace.reasons["other_rejections"] = repr(rejected)
    return frames, rng


def traced_call(spec_source, checks, points, seed, tolerance):
    """Replicate one verify call layer by layer.

    ``spec_source`` is a spec file path, or a spec dict (ad-hoc runs,
    loaded with ``spec_io.spec_from_dict``).  Returns a CallTrace whose
    ``rebuilt`` holds the parts of the report that could be rebuilt.
    When ``runner.sample_points`` cannot be called, the replayed sample
    stands in for it, so the later layers are still measured.
    """
    trace = CallTrace()
    loader = ("spec_io.load_spec" if isinstance(spec_source, str)
              else "spec_io.spec_from_dict")
    try:
        spec, dt = timed(layer(loader, spec_source))
        trace.values["spec_io.load_spec_s"] = dt
        numeric = _numeric(spec, seed, points, tolerance)
        check_ids = layer("conditions.expand_checks",
                          _checks_request(checks), spec.chart.dim)()
    except Void as exc:
        trace.void(CALL_METRICS, str(exc))
        trace.cut = str(exc)
        return trace

    rng = np.random.default_rng(numeric["seed"])
    try:
        frames, dt = timed(layer("runner.sample_points", spec.structure,
                                 rng, numeric["points"]))
        trace.values["runner.sample_points_s"] = dt
        sampled = (frames, rng)
    except Void as exc:
        trace.void(["runner.sample_points_s"], str(exc))
        sampled = None
    replayed = _replay_sampling(spec.structure, numeric["seed"],
                                numeric["points"], trace, sampled)
    if sampled is None:
        if replayed is None:
            trace.cut = trace.reason("runner.sample_attempts")
            trace.void(CALL_METRICS, trace.cut)
            return trace
        frames, rng = replayed
    probe_sets = [rng.uniform(-1.0, 1.0, (numeric["probes"], 4,
                                          spec.chart.dim))
                  for _ in frames]

    from paracr.errors import ParacrError
    start = time.perf_counter()
    try:
        for pf in frames:
            for name in TENSORS:
                getattr(pf, name)
        trace.values["geometry.tensors_s"] = time.perf_counter() - start
    except (AttributeError, ParacrError) as exc:
        trace.void(["geometry.tensors_s"],
                   f"PointFrame.{name}: {type(exc).__name__}: {exc}")

    try:
        engine, dt = timed(layer("runner.engine_self_tests", frames))
        trace.values["runner.engine_self_tests_s"] = dt
        trace.rebuilt["engine"] = engine
    except Void as exc:
        trace.void(["runner.engine_self_tests_s"], str(exc))

    rows, worst, total = [], {}, 0.0
    try:
        for cid in check_ids:
            (part_rows, part_worst), dt = timed(layer(
                "runner.evaluate_checks", [cid], frames, probe_sets,
                numeric["tolerance"], numeric["separation"]))
            trace.values[f"conditions.{cid}_s"] = dt
            rows += part_rows
            worst.update(part_worst)
            total += dt
        trace.values["runner.evaluate_checks_s"] = total
        trace.rebuilt["checks"] = rows
    except Void as exc:
        trace.void(["runner.evaluate_checks_s"]
                   + [f"conditions.{cid}_s" for cid in check_ids], str(exc))
    else:
        try:
            trace.rebuilt["classification"] = layer(
                "conditions.classify", worst, tol=numeric["tolerance"],
                separation=numeric["separation"])()
        except Void:
            pass  # classification is compared, not timed

    try:
        targets, dt = timed(layer("runner.measure_targets", spec.descriptor,
                                  frames, rng))
        trace.values["runner.measure_targets_s"] = dt
        trace.rebuilt["targets"] = targets
    except Void as exc:
        trace.void(["runner.measure_targets_s"], str(exc))
    return trace


def replica_mismatch(trace, report):
    """Names of the rebuilt report parts that differ from ``report``
    (the parsed JSON of the same call through ``paracr verify``)."""
    import json
    return [key for key, value in trace.rebuilt.items()
            if json.loads(json.dumps(value)) != report.get(key)]


def pass_metrics(traces, condition_ids):
    """Fold the traces of one pass's calls into per-layer metrics.

    Times and counts add up over the calls; ``geometry.point_frame_s``
    is the median over every accepted point of the pass.  Returns
    (values, reasons).
    """
    values, reasons = {}, {}
    names = list(CALL_METRICS) + [f"conditions.{cid}_s"
                                  for cid in condition_ids]
    for name in names:
        parts = [t.get(name) for t in traces]
        if None in parts:
            values[name] = None
            reasons[name] = traces[parts.index(None)].reason(name)
        else:
            values[name] = sum(parts)
    accepted = values.pop("sample_accepted")
    derived = ("runner.sample_accept_ratio", "geometry.point_frame_s")
    if accepted is None:
        for name in derived:
            values[name] = None
            reasons[name] = reasons["sample_accepted"]
    else:
        values["runner.sample_accept_ratio"] = \
            accepted / values["runner.sample_attempts"]
        values["geometry.point_frame_s"] = statistics.median(
            [dt for t in traces for dt in t.point_times])
    return values, reasons
