"""Seeded verification runs: point sampling, engine self-tests, condition
evaluation, and report assembly.

Determinism contract: a report body is a pure function of (spec, seed,
points, tolerance).  A single ``numpy.random.default_rng(seed)`` stream
drives every random choice, consumed in a fixed documented order:

1. point sampling — each attempt (accepted or rejected) draws one
   uniform vector in the chart box; attempts are drawn in waves of one
   ``(k, dim)`` block (k the number of points still needed, at most
   ``_CHUNK``), which is the same stream as k single draws;
2. probe directions — one ``(points, probes, 4, dim)`` block of
   uniform [-1, 1] draws, which is the same stream as one
   ``(probes, 4, dim)`` block per point in point order.

The preset targets draw nothing.  The directions of the directional
engine self-tests are not drawn from that stream either: they come
from a stream of their own with a fixed seed (``_DIRECTION_SEED``), one
``(chunk points, _DIRECTIONS, dim)`` block per chunk in point order,
the same stream as one block per sample, so they move neither of the
two draws.

Everything downstream of the draws is one walk over the chunks of the
sample, in which each chunk feeds the self-tests, the checks and the
targets, each an ordered deterministic reduction in point order.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .conditions import CONDITIONS, classify, evaluate_conditions, \
    expand_checks, trit, worse
from .errors import ParacrError, SamplingExhausted, ValidationError
from .geometry import FrameBatch, _amax, directional_residuals, \
    structure_arrays
from .spec_io import validate_numeric

SELF_TEST_NAMES = (
    "metric_symmetry", "inverse_identity", "gamma_symmetry", "nabla_g",
    "bianchi", "riemann_skew", "dd_eta", "mixed_partial",
)


# ---------------------------------------------------------------------------
# point sampling
# ---------------------------------------------------------------------------

def sample_points(structure, rng, count):
    """A FrameBatch of ``count`` uniform box points, resampling rejects.

    A draw is rejected when :func:`paracr.geometry.structure_jets`
    rejects it: the structure is singular or degenerate there (frame
    not invertible, point outside the patch, a domain error or
    non-finite value in the components, metric determinant too small).
    Draws come in waves of the points still missing, at most
    ``_CHUNK``, each evaluated as one batch (the jets of one wave are
    alive at a time), and the attempts and the RNG stream match a
    one-draw-at-a-time loop.  More than ten rejected-plus-accepted
    attempts per requested point raises SamplingExhausted, which counts
    the rejections by error class.  The accepted rows of all waves form
    the batch, whose base arrays grow with ``count`` (ROADMAP direction
    12).  An error in a constant subexpression would reject every draw
    alike, so its DomainError propagates from the first wave.
    """
    chart = structure.chart
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    waves = []
    rejections = Counter()
    accepted = attempts = 0
    budget = 10 * count
    while accepted < count:
        if attempts >= budget:
            causes = ", ".join(f"{error.__name__} {n}"
                               for error, n in rejections.most_common())
            raise SamplingExhausted(
                f"accepted {accepted}/{count} points after "
                f"{attempts} attempts in the box (rejected: {causes})")
        wave = min(count - accepted, budget - attempts, _CHUNK)
        attempts += wave
        points = lo + (hi - lo) * rng.random((wave, chart.dim))
        batch, rejected = structure_arrays(structure, points)
        rejections.update(rejected[np.not_equal(rejected, None)])
        waves.append(batch)
        accepted += len(batch)
    return FrameBatch.concat(waves)


# ---------------------------------------------------------------------------
# batches of the sample
# ---------------------------------------------------------------------------

# Points per evaluation chunk (and at most per sampling wave): the jets,
# derived tensors and check candidates of one chunk are alive at a time,
# and its batch feeds every stage of a run before it is dropped, so no
# tensor is built twice and they do not grow with the sample (the
# sample does: ROADMAP direction 12); a smaller sample is one chunk.
_CHUNK = 64


def _walk(sample, *folds):
    """The results of ``folds`` over the sample batch, in one pass over
    its chunks in point order.  A fold is a generator that is sent each
    chunk's batch in turn and yields its result when sent None."""
    for fold in folds:
        next(fold)
    for lo in range(0, len(sample), _CHUNK):
        batch = (sample if len(sample) <= _CHUNK
                 else sample.rows(slice(lo, lo + _CHUNK)))
        for fold in folds:
            fold.send(batch)
    return [fold.send(None) for fold in folds]


# ---------------------------------------------------------------------------
# engine self-tests
# ---------------------------------------------------------------------------

# The self-test direction stream's seed (see the module docstring) and
# the number of random unit directions per point.
_DIRECTION_SEED = 20120229
_DIRECTIONS = 2


class SelfTests(dict):
    """Self-test values by name, plus ``fd_excluded``: the number of
    points left out of ``jet_vs_fd`` because a stencil row of theirs was
    rejected."""

    fd_excluded = 0


def engine_self_tests(sample):
    """Worst self-test residuals over the sample batch (0.0 for none; a
    NaN residual is reported as NaN), as :class:`SelfTests`.

    The structural identities hold for any pseudo-Riemannian structure,
    so they exercise the engine rather than the example.
    ``mixed_partial`` and ``jet_vs_fd`` re-evaluate the structure along
    random unit directions (:func:`paracr.geometry.directional_residuals`)
    drawn as one (chunk points, ``_DIRECTIONS``, m) block per chunk from
    the ``_DIRECTION_SEED`` stream, so the values of a point do not
    depend on the chunking.  A point whose difference stencil is
    rejected is left out of ``jet_vs_fd`` and counted; when every point
    is left out, ``jet_vs_fd`` is NaN.
    """
    return _walk(sample, _self_tests())[0]


def _self_tests():
    """The fold of :func:`engine_self_tests`."""
    summary = SelfTests.fromkeys(SELF_TEST_NAMES + ("jet_vs_fd",), 0.0)
    rng = np.random.default_rng(_DIRECTION_SEED)
    points = 0
    while (batch := (yield)) is not None:
        for name in SELF_TEST_NAMES[:-1]:  # all but mixed_partial
            summary[name] = float(np.max(getattr(batch, name),
                                         initial=summary[name]))
        directions = rng.standard_normal((len(batch), _DIRECTIONS, batch.m))
        directions /= np.linalg.norm(directions, axis=2, keepdims=True)
        mixed, fd, excluded = directional_residuals(batch, directions)
        summary["mixed_partial"] = float(np.max(
            mixed, initial=summary["mixed_partial"]))
        summary["jet_vs_fd"] = float(np.max(
            fd[~excluded], initial=summary["jet_vs_fd"]))
        summary.fd_excluded += int(excluded.sum())
        points += len(batch)
    if points and summary.fd_excluded == points:
        summary["jet_vs_fd"] = math.nan
    yield summary


# ---------------------------------------------------------------------------
# check evaluation and classification
# ---------------------------------------------------------------------------

def _verdict(scaled, tolerance, separation):
    flag = trit(scaled, tolerance, separation)
    if flag is True:
        return "pass"
    if flag is False:
        return "fail"
    return "ambiguous"


def evaluate_checks(check_ids, sample, probe_sets, tolerance, separation):
    """Worst-case evaluation of every requested check over the sample
    batch, with ``probe_sets[p]`` the probe draws of its point p.

    Returns (rows, worst) where rows are report entries in request order
    and worst maps condition id to its worst scaled residual: the first
    strict maximum in point order, or the first NaN.  The sample is
    evaluated chunk by chunk, all checks of a chunk in one pass
    (:func:`paracr.conditions.evaluate_conditions`: shared kernel
    intermediates, one grouped reduction of every candidate), with the
    values of check-by-check evaluation.  When checks raise, the error
    raised is the one of the first such check in request order at its
    first raising point, as in a check-by-check, point-by-point loop.
    """
    return _walk(sample, _checks(check_ids, probe_sets, tolerance,
                                 separation))[0]


def _checks(check_ids, probe_sets, tolerance, separation):
    """The fold of :func:`evaluate_checks`."""
    probes = np.asarray(probe_sets, dtype=float)
    worst, errors = {}, {}
    lo = 0
    while (batch := (yield)) is not None:
        live = [cid for cid in check_ids if cid not in errors]
        values = evaluate_conditions(live, batch,
                                     probes[lo:lo + len(batch)])
        lo += len(batch)
        for cid, value in values.items():
            if isinstance(value, ParacrError):
                errors[cid] = value
            else:
                worst[cid] = worse(worst.get(cid), value)
    rows = []
    for cid in check_ids:
        if cid in errors:
            raise errors[cid]
        rows.append({
            "id": cid,
            "scope": CONDITIONS[cid].scope,
            "raw": worst[cid].raw,
            "scaled": worst[cid].scaled,
            "part": worst[cid].part,
            "verdict": _verdict(worst[cid].scaled, tolerance, separation),
        })
    yield rows, {cid: worst[cid].scaled for cid in check_ids}


# ---------------------------------------------------------------------------
# preset target measurement
# ---------------------------------------------------------------------------

def _sectional_deviations(K, batch):
    """Per-point deviation from constant sectional curvature ``K``, as the
    identity R(X,Y)Z = K (g(Y,Z) X - g(X,Z) Y) on every frame triple:
    max |Riem[k,a,b,j] - K (g_bj δ^k_a - g_aj δ^k_b)|, scaled by the
    largest of 1 and the terms it is built from (∂Γ, Γ·Γ and K g∧g)."""
    eye, g = np.eye(batch.m), batch.g
    kgg = K * (eye[None, :, :, None, None] * g[:, None, None]
               - eye[None, :, None, :, None] * g[:, None, :, None])
    scale = np.max([np.ones(len(batch)), _amax(batch.dGamma),
                    _amax(batch.gamma_gamma), _amax(kgg)], axis=0)
    return _amax(batch.Riem - kgg) / scale


def _target_deviations(name, expected, batch):
    """Per-point deviations of one target over a batch."""
    if name == "sectional":
        return _sectional_deviations(expected, batch)
    if name == "r":
        return np.abs(batch.r - expected)
    if name == "r_star":
        return np.abs(batch.r_star - expected)
    if name == "riemann_max":
        return np.max(np.abs(batch.Riem), axis=(1, 2, 3, 4)) - expected
    e_last = np.zeros(batch.m)
    e_last[-1] = 1.0
    if name == "h_on_dz":
        return np.max(np.abs((batch.h @ e_last) - expected * e_last), axis=1)
    if name == "h_squared_max":
        return np.max(np.abs(batch.h @ batch.h), axis=(1, 2)) - expected
    raise ValidationError(f"unknown target {name!r}")


def measure_targets(descriptor, sample, rng):
    """Deviation of measured invariants from the preset's known values
    over the sample batch (at least 0.0, NaN when any is NaN), chunk by
    chunk, every target from the one set of tensors of a chunk.

    No target draws: ``rng`` is unused, and is kept only so that the
    benchmark's replica of a run can call this as it always has."""
    return _walk(sample, _targets(descriptor))[0]


def _targets(descriptor):
    """The fold of :func:`measure_targets`."""
    targets = descriptor.targets if descriptor is not None else {}
    worst = dict.fromkeys(targets, 0.0)
    while (batch := (yield)) is not None:
        for name, expected in targets.items():
            worst[name] = float(np.max(_target_deviations(
                name, expected, batch), initial=worst[name]))
    yield {name: {"expected": expected, "max_abs_deviation": worst[name]}
           for name, expected in targets.items()} if targets else None


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_NON_FINITE = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _strict(value):
    """``value`` with every non-finite float written as the string
    "NaN", "Infinity" or "-Infinity"."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return _NON_FINITE.get(value, "NaN")
    return value


def _dumps(data):
    """Strict JSON (no bare NaN or Infinity tokens), indented, one
    trailing newline."""
    return json.dumps(_strict(data), indent=2, allow_nan=False) + "\n"


@dataclass
class Report:
    """One verification run; the body (everything except wall clock) is
    byte-reproducible for a given (spec, seed, points, tolerance)."""

    spec_digest: str
    seed: int
    points: int
    tolerance: float
    engine: dict
    checks: list
    classification: dict
    targets: object
    wall_clock_seconds: float

    def to_dict(self):
        return {key: getattr(self, key) for key in REPORT_KEY_ORDER}

    def json(self):
        return _dumps(self.to_dict())

    @property
    def all_passed(self):
        return all(row["verdict"] == "pass" for row in self.checks)

    def text(self):
        lines = [f"spec digest   {self.spec_digest}",
                 f"seed          {self.seed}",
                 f"points        {self.points}",
                 f"tolerance     {self.tolerance:g}",
                 "",
                 "engine self-tests (worst residual over the sample)"]
        for name, value in self.engine.items():
            lines.append(f"  {name:<18} {value:.3e}")
        excluded = getattr(self.engine, "fd_excluded", 0)
        if excluded:
            lines.append(f"  ({excluded} points left out of jet_vs_fd: "
                         f"a difference stencil row was rejected)")
        lines.append("")
        lines.append("checks (worst over the sample)")
        lines.append(f"  {'id':<14} {'scope':<13} {'raw':>10} "
                     f"{'scaled':>10}  verdict")
        for row in self.checks:
            part = f"  [{row['part']}]" if row["part"] else ""
            lines.append(
                f"  {row['id']:<14} {row['scope']:<13} "
                f"{row['raw']:>10.3e} {row['scaled']:>10.3e}  "
                f"{row['verdict']}{part}")
        lines.append("")
        lines.append("classification")
        for name, flag in self.classification.items():
            mark = {True: "yes", False: "no", None: "undetermined"}[flag]
            lines.append(f"  {name:<26} {mark}")
        if self.targets:
            lines.append("")
            lines.append("targets")
            for name, entry in self.targets.items():
                lines.append(
                    f"  {name:<16} expected {entry['expected']:g}, "
                    f"max deviation {entry['max_abs_deviation']:.3e}")
        lines.append("")
        status = "PASS" if self.all_passed else "FAIL"
        lines.append(f"result        {status}")
        lines.append(f"wall clock    {self.wall_clock_seconds:.2f} s")
        return "\n".join(lines) + "\n"


REPORT_KEY_ORDER = tuple(f.name for f in fields(Report))


# ---------------------------------------------------------------------------
# the run itself
# ---------------------------------------------------------------------------

def run(spec, checks=None, points=None, seed=None, tolerance=None):
    """Execute one verification run and return its Report.

    ``checks``, ``points``, ``seed``, and ``tolerance`` override the
    spec's own blocks when given (command-line flags), under the rules
    of those blocks (:func:`paracr.conditions.validate_checks`,
    :func:`paracr.spec_io.validate_numeric`); the RNG consumption order
    documented at module level makes the report body reproducible byte
    for byte.
    """
    numeric = validate_numeric(spec.numeric, points=points, seed=seed,
                               tolerance=tolerance)
    check_ids = expand_checks(spec.checks if checks is None else checks,
                              spec.chart.dim)

    start = time.perf_counter()
    rng = np.random.default_rng(numeric["seed"])
    sample = sample_points(spec.structure, rng, numeric["points"])
    probe_sets = rng.uniform(-1.0, 1.0, (len(sample), numeric["probes"], 4,
                                         spec.chart.dim))

    engine, (rows, worst_scaled), targets = _walk(
        sample, _self_tests(),
        _checks(check_ids, probe_sets, numeric["tolerance"],
                numeric["separation"]),
        _targets(spec.descriptor))
    classification = classify(worst_scaled, tol=numeric["tolerance"],
                              separation=numeric["separation"])
    wall = time.perf_counter() - start

    return Report(
        spec_digest=spec.digest,
        seed=numeric["seed"],
        points=numeric["points"],
        tolerance=numeric["tolerance"],
        engine=engine,
        checks=rows,
        classification=classification,
        targets=targets,
        wall_clock_seconds=wall,
    )
