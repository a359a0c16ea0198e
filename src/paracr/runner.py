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
   ``(probes, 4, dim)`` block per point in point order;
3. target measurement — plane-spanning vector pairs for the sectional
   curvature target, drawn per point as needed.

Everything downstream of the draws (check evaluation, aggregation,
serialization) is an ordered deterministic reduction.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .conditions import CONDITIONS, classify, evaluate_batch, \
    expand_checks, trit, worse
from .errors import (
    DegeneratePlane,
    DomainError,
    ParacrError,
    SamplingExhausted,
    ValidationError,
)
from .expr import Bin, Call, Const, Neg, Pow, Var, eval_expr
from .geometry import FrameBatch, degenerate_metric, structure_arrays
from .jets import _DIV_GUARD, Jet, coordinate_jets

_FD_STEP = 1e-5
_STENCIL = np.array([-_FD_STEP, 0.0, _FD_STEP])
# Acceptance bound for corpus expressions: with |f|, |f'|, |f''|, |f'''|
# all below this at the probe points, the central-difference truncation
# error (h^2/6 * f''') and the subtraction roundoff (eps * |f| / 2h) both
# stay below ~2e-7, two orders under the 1e-5 comparison tolerance.
_CORPUS_MAGNITUDE_CAP = 1e4

REPORT_KEY_ORDER = (
    "spec_digest", "seed", "points", "tolerance", "engine", "checks",
    "classification", "targets", "wall_clock_seconds",
)

SELF_TEST_NAMES = (
    "metric_symmetry", "inverse_identity", "gamma_symmetry", "nabla_g",
    "bianchi", "riemann_skew", "dd_eta", "mixed_partial",
)


# ---------------------------------------------------------------------------
# random expression corpus (shared by the jet/finite-difference self-test)
# ---------------------------------------------------------------------------

def _random_expression(rng, names, max_depth):
    """One random expression AST over the coordinates ``names``."""
    def leaf():
        if rng.random() < 0.7:
            index = int(rng.integers(len(names)))
            return Var(names[index], index)
        # a constant is rounded to three decimals; a negative one is the
        # negation of its magnitude, as the parser reads "-0.125"
        text = format(float(rng.uniform(-2.0, 2.0)), ".3f")
        if text.startswith("-"):
            return Neg(Const(float(text[1:])))
        return Const(float(text))

    # operands are drawn left to right, a power's base before its exponent
    def node(depth):
        if depth >= max_depth or rng.random() < 0.25:
            return leaf()
        roll = rng.random()
        if roll < 0.15:
            fn = ("sinh", "cosh", "tanh", "exp", "sqrt",
                  "ln")[int(rng.integers(6))]
            return Call(fn, node(depth + 1))
        if roll < 0.22:
            return Neg(node(depth + 1))
        if roll < 0.30:
            return Pow(node(depth + 1), int(rng.integers(2, 4)))
        op = ("+", "-", "*", "/")[int(rng.integers(4))]
        return Bin(op, node(depth + 1), node(depth + 1))

    return node(0)


class _Forest:
    """The jet-valued nodes of a set of ASTs: numbered, with their
    heights, the Var leaves, and the groups of nodes that share a
    height and a kind (operator and operand kinds)."""

    def __init__(self):
        self.height = []   # per node id
        self.leaves = []   # (node id, tree, coordinate index)
        self.groups = {}   # (height, kind...) -> (node, ids, operand columns)

    def add(self, t, e):
        """Node id of a jet-valued ``e`` of tree ``t`` (an int), or its
        folded value.  A tree that raises leaves nodes behind that
        nothing reads."""
        height = self.height
        if isinstance(e, Var):
            self.leaves.append((len(height), t, e.index))
            height.append(0)
            return len(height) - 1
        if isinstance(e, Const):
            return e.value
        children = (e.left, e.right) if isinstance(e, Bin) else \
            (e.base if isinstance(e, Pow) else e.arg,)
        args = [self.add(t, child) for child in children]
        jet = tuple(isinstance(a, int) for a in args)
        if not any(jet):
            return e.apply(*args)
        if isinstance(e, Bin) and e.op == "/" and not jet[1] \
                and abs(args[1]) <= _DIV_GUARD:
            raise DomainError("constant divisor inside the guard band")
        height.append(1 + max(height[a] for a, j in zip(args, jet) if j))
        key = (height[-1], type(e), getattr(e, "op", None),
               getattr(e, "fn", None), getattr(e, "exponent", None), jet)
        if key not in self.groups:
            self.groups[key] = (e, [], tuple([] for _ in args))
        _, ids, operands = self.groups[key]
        ids.append(len(height) - 1)
        for column, a in zip(operands, args):
            column.append(a)
        return ids[-1]


def _stencil_forest(trees, points, directions):
    """Order-3 jets of the ASTs ``trees`` at their central-difference
    stencils, evaluated as one forest.

    Tree t is a univariate jet along coordinate ``directions[t]`` at
    ``points[t]`` shifted by -h, 0 and +h along it.  Constant subtrees
    fold to floats with the nodes' own ``apply``; every other node joins
    the nodes of its height and kind (operator and operand kinds) across
    the forest, and each such group is one call of its ``apply`` on the
    concatenated stencil rows of its members, a constant operand as one
    value per row.  Jet operations act row by row, so every coefficient
    is the float operation sequence of evaluating the tree alone.

    Returns ``(c, bad, failed)``: ``c[t, row, slot]`` the root's
    coefficients (a constant root holds its value in slot 0), ``bad[t,
    row]`` its domain mask, and ``failed[t]`` true where evaluating the
    tree alone raises: an arithmetic or domain error in a constant
    subtree, or a constant divisor inside the guard band.
    """
    count = len(trees)
    failed = np.zeros(count, dtype=bool)
    roots = [None] * count
    forest = _Forest()
    for t, tree in enumerate(trees):
        try:
            roots[t] = forest.add(t, tree)
        except (DomainError, ArithmeticError, ValueError):
            failed[t] = True

    nodes = len(forest.height)
    store = np.zeros((nodes, 3, 4))
    bad = np.zeros((nodes, 3), dtype=bool)
    layout = None
    if forest.leaves:
        ids, tree_of, var = np.array(forest.leaves).T
        on = var == np.asarray(directions)[tree_of]
        centre = np.array([points[t][i] for t, i in zip(tree_of, var)])
        rows = centre[:, None] + np.where(on[:, None], _STENCIL, 0.0)
        xs = coordinate_jets(rows.reshape(-1, 1), 3,
                             np.repeat(on, 3).astype(float)[:, None, None])
        store[ids] = xs[0].c.reshape(len(ids), 3, 4)
        layout = xs[0].layout
    with np.errstate(all="ignore"):
        for key in sorted(forest.groups, key=lambda key: key[0]):
            node, ids, columns = forest.groups[key]
            operands = []
            for pos, (is_jet, column) in enumerate(zip(key[-1], columns)):
                if is_jet:
                    mask = bad[column].ravel()
                    operands.append(Jet(store[column].reshape(-1, 4),
                                        mask if mask.any() else None, layout))
                else:
                    const = np.repeat(column, 3)
                    # const / jet runs Jet.__rtruediv__, which divides the
                    # constant by the order-0 coefficients [rows, 1]
                    operands.append(const[:, None] if pos == 0 and
                                    key[2] == "/" else const)
            out = node.apply(*operands)
            store[ids] = out.c.reshape(len(ids), 3, 4)
            if out.bad is not None:
                bad[ids] = out.bad.reshape(len(ids), 3)

    c = np.zeros((count, 3, 4))
    root_bad = np.zeros((count, 3), dtype=bool)
    for t, root in enumerate(roots):
        if isinstance(root, int):
            c[t], root_bad[t] = store[root], bad[root]
        elif root is not None:
            c[t, :, 0] = root
    return c, root_bad, failed


def _fd_gap(c):
    """Relative gap between the jet's first derivative at the stencil
    centre and the central difference of its stencil values."""
    jet = float(c[1, 1])
    fd = float(c[2, 0] - c[0, 0]) / (2.0 * _FD_STEP)
    return abs(jet - fd) / max(1.0, abs(jet), abs(fd))


class _Corpus(list):
    """Corpus entries, plus ``gap``: the worst relative gap between the
    first-order jet and the central difference over the entries, read
    off the jets that selected them."""

    gap = 0.0


@lru_cache(maxsize=4)
def random_expression_corpus(seed, count, max_depth):
    """Deterministic corpus of ``(expr_fn, point, direction)`` triples.

    Each expression is a random AST over two to four variables;
    ``expr_fn`` (a ``functools.partial`` of ``eval_expr`` whose
    first argument is the AST) accepts a tuple of floats or of jets.
    Sampling rejects expressions whose value or first three directional
    derivatives are non-finite or large at the probe point and at the
    two finite-difference stencil points, so a central difference with
    step 1e-5 is trustworthy there; agreement with the jet itself is
    never part of the filter.

    Candidates come in waves, each as large as the number of entries
    still missing (within the budget), and a wave is evaluated as one
    jet forest (:func:`_stencil_forest`).  No draw depends on whether an
    earlier candidate was accepted, so the entries, their order and
    ``gap`` are those of trying one candidate at a time.
    """
    rng = np.random.default_rng(seed)
    corpus = _Corpus()
    attempts = 0
    budget = 200 * count
    while len(corpus) < count:
        if attempts >= budget:
            raise RuntimeError(
                f"expression corpus: accepted {len(corpus)}/{count} "
                f"after {attempts} attempts")
        wave = min(count - len(corpus), budget - attempts)
        attempts += wave
        trees, points, directions = [], [], []
        for _ in range(wave):
            nvars = int(rng.integers(2, 5))
            names = tuple(f"x{i}" for i in range(1, nvars + 1))
            trees.append(_random_expression(rng, names, max_depth))
            points.append(tuple(float(v)
                                for v in rng.uniform(0.3, 1.7, nvars)))
            directions.append(int(rng.integers(nvars)))
        c, bad, failed = _stencil_forest(trees, points, directions)
        tame = ~failed & ~bad.any(axis=1) & np.all(
            np.abs(c) <= _CORPUS_MAGNITUDE_CAP, axis=(1, 2))
        for t in np.flatnonzero(tame):
            corpus.append((partial(eval_expr, trees[t]), points[t],
                           directions[t]))
            corpus.gap = max(corpus.gap, _fd_gap(c[t]))
    return corpus


# ---------------------------------------------------------------------------
# point sampling
# ---------------------------------------------------------------------------

def sample_points(structure, rng, count):
    """A FrameBatch of ``count`` uniform box points, resampling rejects.

    A draw is rejected when the structure is singular or degenerate
    there (frame not invertible, metric determinant too small, point
    outside the patch, or a domain error or non-finite value in the
    components).  Draws come in waves, each as large as the number of
    points still missing but at most ``_CHUNK``, and each wave is
    evaluated as one batch, so memory stays bounded and the attempts
    and the RNG stream match a one-draw-at-a-time loop.  More
    than ten rejected-plus-accepted attempts per requested point raises
    SamplingExhausted.  The accepted rows of all waves form the batch.
    """
    chart = structure.chart
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    waves = []
    accepted = attempts = 0
    budget = 10 * count
    while accepted < count:
        if attempts >= budget:
            raise SamplingExhausted(
                f"accepted {accepted}/{count} points after "
                f"{attempts} attempts in the box")
        wave = min(count - accepted, budget - attempts, _CHUNK)
        attempts += wave
        points = lo + (hi - lo) * rng.random((wave, chart.dim))
        try:
            batch = structure_arrays(structure, points)
        except DomainError:
            continue
        keep = np.array([error is None for error in batch.rejected])
        keep[keep] = ~degenerate_metric(batch.g[keep])
        waves.append(batch.rows(keep))
        accepted += int(keep.sum())
    return FrameBatch.concat(waves)


# ---------------------------------------------------------------------------
# batches of the sample
# ---------------------------------------------------------------------------

# Points per evaluation chunk (and at most per sampling wave): the jets,
# derived tensors and check candidates of one chunk are alive at a time,
# so memory stays bounded for large samples; a smaller sample is one
# chunk, its batch itself.
_CHUNK = 64


def _chunks(sample):
    """(offset, FrameBatch) pieces of the sample batch, in point order;
    a sample of at most ``_CHUNK`` points is its own single piece."""
    for lo in range(0, len(sample), _CHUNK):
        yield lo, (sample if len(sample) <= _CHUNK
                   else sample.rows(slice(lo, lo + _CHUNK)))


# ---------------------------------------------------------------------------
# engine self-tests
# ---------------------------------------------------------------------------

def engine_self_tests(sample, corpus_seed=1234, corpus_count=200,
                      corpus_depth=6):
    """Worst structural-identity residuals over the sample batch (0.0
    for none), plus the jet-versus-finite-difference property on the
    shared expression corpus.  These identities hold for any
    pseudo-Riemannian structure, so they exercise the engine rather than
    the example; a NaN residual is reported as NaN."""
    summary = dict.fromkeys(SELF_TEST_NAMES, 0.0)
    for _, batch in _chunks(sample):
        for name in SELF_TEST_NAMES:
            summary[name] = float(np.max(getattr(batch, name),
                                         initial=summary[name]))
    summary["jet_vs_fd"] = random_expression_corpus(
        corpus_seed, corpus_count, corpus_depth).gap
    return summary


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
    evaluated chunk by chunk; when checks raise, the error raised is the
    one of the first such check in request order at its first raising
    point, as in a check-by-check, point-by-point loop.
    """
    probes = np.asarray(probe_sets, dtype=float)
    worst, errors = {}, {}
    for lo, batch in _chunks(sample):
        chunk_probes = probes[lo:lo + len(batch)]
        for cid in check_ids:
            if cid in errors:
                continue
            try:
                value = evaluate_batch(cid, batch, chunk_probes)
            except ParacrError as exc:
                errors[cid] = exc
                continue
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
    return rows, {cid: worst[cid].scaled for cid in check_ids}


# ---------------------------------------------------------------------------
# preset target measurement
# ---------------------------------------------------------------------------

def _random_plane(pf, rng, max_tries=100):
    for _ in range(max_tries):
        X = rng.uniform(-1.0, 1.0, pf.m)
        Y = rng.uniform(-1.0, 1.0, pf.m)
        try:
            return pf.sectional(X, Y)
        except DegeneratePlane:
            continue
    raise DegeneratePlane(
        f"no nondegenerate plane found in {max_tries} draws at {pf.point}")


def _target_deviations(name, expected, batch, rng, planes_per_point):
    """Per-point deviations of one target over a batch."""
    if name == "sectional":
        return [abs(_random_plane(pf, rng) - expected)
                for pf in batch for _ in range(planes_per_point)]
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


def measure_targets(descriptor, sample, rng, planes_per_point=4):
    """Deviation of measured invariants from the preset's known values
    over the sample batch (at least 0.0, NaN when any is NaN)."""
    if descriptor is None or not descriptor.targets:
        return None
    out = {}
    for name, expected in descriptor.targets.items():
        worst = 0.0
        for _, batch in _chunks(sample):
            worst = float(np.max(_target_deviations(
                name, expected, batch, rng, planes_per_point), initial=worst))
        out[name] = {"expected": expected, "max_abs_deviation": worst}
    return out


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

    def body(self):
        data = self.to_dict()
        del data["wall_clock_seconds"]
        return data

    def to_dict(self):
        return {key: getattr(self, key) for key in REPORT_KEY_ORDER}

    def json(self):
        return _dumps(self.to_dict())

    def body_json(self):
        return _dumps(self.body())

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


# ---------------------------------------------------------------------------
# the run itself
# ---------------------------------------------------------------------------

def _merge_numeric(spec, points, seed, tolerance):
    numeric = dict(spec.numeric)
    if points is not None:
        if points < 1:
            raise ValidationError("points must be >= 1")
        numeric["points"] = int(points)
    if seed is not None:
        if seed < 0:
            raise ValidationError("seed must be >= 0")
        numeric["seed"] = int(seed)
    if tolerance is not None:
        if not tolerance > 0:
            raise ValidationError("tolerance must be positive")
        numeric["tolerance"] = float(tolerance)
        # Keep the ambiguity band open when a loose tolerance is asked for.
        if numeric["separation"] <= numeric["tolerance"]:
            numeric["separation"] = 10.0 * numeric["tolerance"]
    return numeric


def run(spec, checks=None, points=None, seed=None, tolerance=None):
    """Execute one verification run and return its Report.

    ``checks``, ``points``, ``seed``, and ``tolerance`` override the
    spec's own blocks when given (command-line flags); the RNG
    consumption order documented at module level makes the report body
    reproducible byte for byte.
    """
    numeric = _merge_numeric(spec, points, seed, tolerance)
    requested = spec.checks if checks is None else checks
    try:
        check_ids = expand_checks(requested, spec.chart.dim)
    except KeyError as exc:
        raise ValidationError(f"checks: {exc.args[0]}") from exc

    start = time.perf_counter()
    rng = np.random.default_rng(numeric["seed"])
    sample = sample_points(spec.structure, rng, numeric["points"])
    probe_sets = rng.uniform(-1.0, 1.0, (len(sample), numeric["probes"], 4,
                                         spec.chart.dim))

    engine = engine_self_tests(sample)
    rows, worst_scaled = evaluate_checks(
        check_ids, sample, probe_sets,
        numeric["tolerance"], numeric["separation"])
    classification = classify(worst_scaled, tol=numeric["tolerance"],
                              separation=numeric["separation"])
    targets = measure_targets(spec.descriptor, sample, rng)
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
