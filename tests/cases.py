"""The structures and spec fixtures the suite samples, their seeded
samples, their expected verdicts, and the one-point helpers the test
modules share.

``CASES`` names every structure once: ``<preset>_n<n>`` for a preset of
dimension 2n + 1 at its default parameters (``flat3d`` has no n),
``p1_<variant>`` for a changed p1 frame, ``random<seed>`` for the seeded
dimension-3 generator, ``spec_<stem>`` for a spec file, and a plain
description for a hand-built rejecting structure.  A test module
parametrizes over a named subset of it.  A sample drawn without an
explicit seed is seeded by its case name (:func:`case_seed`, a crc32 and
not Python's per-process ``hash``), so it is the same in every
interpreter.
"""

import copy
import dataclasses
import functools
import json
import math
import pathlib
import zlib

import numpy as np

from dim3_structures import random_dim3_structure
from paracr.conditions import (
    CLASS_NAMES,
    CONDITION_IDS,
    evaluate_conditions,
    expand_checks,
    trit,
)
from paracr.errors import (
    DomainError,
    ParacrError,
    ParseError,
    SamplingExhausted,
    ValidationError,
    WrongDimension,
)
from paracr.expr import parse
from paracr.geometry import (
    MAX_DIM,
    Chart,
    CoordinateStructure,
    FrameStructure,
    PointFrame,
    structure_jets,
)
from paracr.presets import build_example, default_p1_f
from paracr.runner import sample_points
from paracr.spec_io import (
    MAX_POINTS,
    MAX_PROBES,
    load_spec,
    spec_from_dict,
)
from scalar_reference import Dual, depth_of, frame_matrix

SPECS = pathlib.Path(__file__).parents[1] / "bench" / "specs"

BOX3 = ((-1.0, 1.0),) * 3


# ---------------------------------------------------------------------------
# hand-built structures
# ---------------------------------------------------------------------------

def coordinate_structure(g, phi=None, xi=None, eta=None, box=None):
    """The coordinate structure whose components are the entry texts g
    (rows), phi, xi and eta (zero when omitted), over coordinates
    x, y, z (u, v in dimension 5) and the box (±1 by default)."""
    m = len(g)
    coords = ("x", "y", "z", "u", "v")[:m]

    def entries(rows):
        return [[parse(t, coords) for t in row] for row in rows]
    zero = ["0"] * m
    return CoordinateStructure(
        Chart(coords, box or ((-1.0, 1.0),) * m), entries(g),
        entries(phi or [zero] * m), *entries([xi or zero, eta or zero]))


def first_entry(text):
    """The rows of the 3 x 3 identity with entry (0, 0) replaced."""
    return [[text, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def singular_frame_structure(frame_00):
    """The frame structure E = diag(frame_00, 1, 1) over g_hat = phi_hat
    = I and xi = eta = the last basis vector."""
    coords = ("x", "y", "z")
    E = [[parse(t, coords) for t in row] for row in first_entry(frame_00)]
    eye = np.eye(3).tolist()
    return FrameStructure(Chart(coords, BOX3), E, eye, eye,
                          [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])


def skew_structure():
    """The p1 frame with e_1 replaced by d/dx1 + x2 d/dz.

    The extra z-component makes [e_1, e_2] = -d/dz up to terms inside the
    -1 eigendistribution, so eta of the bracket is order one: the
    distribution ker(eta) stops being "partially integrable" while the
    structure stays a genuine almost paracontact metric one (constant
    frame-basis tensors).  [DERIVED: direct bracket computation]
    """
    n = 2
    chart = build_example("p1", n=n).structure.chart
    f_text = default_p1_f(n)
    rows = [["0"] * 5 for _ in range(5)]
    for a in range(n):
        rows[a][a] = "1"
        rows[a][n + a] = f"-({f_text})"
        rows[n + a][n + a] = "1"
        rows[4][n + a] = f"-2*x{a + 1}"
    rows[4][4] = "1"
    rows[4][0] = "x2"
    g_hat = np.zeros((5, 5))
    g_hat[4, 4] = 1.0
    for a in range(n):
        g_hat[a, n + a] = g_hat[n + a, a] = 1.0
    last = [0.0, 0.0, 0.0, 0.0, 1.0]
    return FrameStructure(
        chart,
        [[parse(e, chart.coordinates) for e in row] for row in rows],
        g_hat.tolist(),
        np.diag([-1.0, -1.0, 1.0, 1.0, 0.0]).tolist(),
        last,
        last,
    )


# ---------------------------------------------------------------------------
# spec fixtures
# ---------------------------------------------------------------------------

P1_F = "(1.0 + x1^2 + x2^2)/z"

P1_FRAME_SPEC = {
    "chart": {
        "coordinates": ["x1", "x2", "y1", "y2", "z"],
        "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0],
                [0.5, 1.5]],
    },
    "structure": {"frame": {
        "E": [["1", "0", f"-({P1_F})", "0", "0"],
              ["0", "1", "0", f"-({P1_F})", "0"],
              ["0", "0", "1", "0", "0"],
              ["0", "0", "0", "1", "0"],
              ["0", "0", "-2*x1", "-2*x2", "1"]],
        "g_hat": [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 0],
                  [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]],
        "phi_hat": [[-1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 1, 0, 0],
                    [0, 0, 0, 1, 0], [0, 0, 0, 0, 0]],
        "xi_hat": [0, 0, 0, 0, 1],
        "eta_hat": [0, 0, 0, 0, 1],
    }},
    "checks": "all",
}

# The flat example of dimension 3 written out as a coordinate block.
FLAT3D_COORDINATE_SPEC = {
    "chart": {
        "coordinates": ["x", "y", "z"],
        "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    },
    "structure": {"coordinate": {
        "g": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi": [["0", "0", "cosh(2*z)"],
                ["0", "0", "-sinh(2*z)"],
                ["cosh(2*z)", "sinh(2*z)", "0"]],
        "xi": ["-sinh(2*z)", "cosh(2*z)", "0"],
        "eta": ["sinh(2*z)", "cosh(2*z)", "0"],
    }},
    "checks": ["para-cr", "pcm"],
}

_DROP = object()


def with_value(base, path, value):
    """``base`` copied, with the item at the key ``path`` set to
    ``value``, or deleted when ``value`` is _DROP."""
    spec = copy.deepcopy(base)
    *head, last = path
    target = spec
    for key in head:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    return spec


# `paracr verify --checks all` runs at seed 0, as family:points[:n]:
# two chunks (64 + 16) at 80 points, three (64 + 64 + 2) at 130, and a
# full chunk of the sparse frame and tangent algebra at n = 4 (m = 9);
# "frame" is P1_FRAME_SPEC.
SMOKE_RUNS = ["flat3d:8", "hyperboloid:8", "p1:8", "cosymplectic:8",
              "flat3d:80", "hyperboloid:80", "p1:130", "frame:8",
              "p1:64:4", "cosymplectic:64:4", "hyperboloid:64:4"]


# ---------------------------------------------------------------------------
# rejected inputs
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Rejected:
    """An input that paracr rejects, the class of the error and its whole
    message (``{dir}`` stands for the directory of the input's files).
    The input is ``spec`` (a dict, the bytes of a spec file, or None for
    no file) with the ``run()`` keywords ``overrides``, which ``paracr
    verify`` takes as ``flags``, or else the ``paracr example`` options
    ``example``: ``name`` and ``n`` go to ``build_example``,
    ``emit_spec`` names its file.  ``refused`` is the last line argparse
    prints where it refuses a flag's text before paracr reads it."""

    message: str
    spec: object = None
    error: type = ValidationError
    overrides: dict = dataclasses.field(default_factory=dict)
    flags: tuple = ()
    example: dict = None
    refused: str = None


_FLAT3D_SPEC = {"structure": {"preset": {"name": "flat3d"}}}
# run() keywords, their verify flags and the types the flags read
_FLAGS = {"points": ("--points", int), "seed": ("--seed", int),
          "tolerance": ("--tol", float), "checks": ("--checks", str)}


def _override(message, spec=_FLAT3D_SPEC, error=ValidationError,
              **overrides):
    """The row of ``run(spec, **overrides)`` and of the verify flags that
    spell it (--checks joins the names with commas); a value the flag's
    type does not read, such as 2.5 or True for --points, stops in
    argparse."""
    flags, refused = [], None
    for key, value in overrides.items():
        flag, kind = _FLAGS[key]
        if kind is str:
            value = ",".join(value)
        elif isinstance(value, bool) or not isinstance(value, (int, kind)):
            refused = (f"paracr verify: error: argument {flag}: invalid "
                       f"{kind.__name__} value: '{value}'")
        flags.append(f"{flag}={value}")
    return Rejected(message, spec, error, overrides, tuple(flags),
                    refused=refused)


def _rows(prefix, build, rows, error=ValidationError):
    """Rows by the first item of each of ``rows``: the input ``build``
    makes of the middle items, and ``prefix`` + the last item."""
    return {name: Rejected(prefix + cause, build(*args), error)
            for name, *args, cause in rows}


def _numeric(block):
    """The flat3d preset spec with the numeric block ``block``."""
    return {**_FLAT3D_SPEC, "numeric": block}


def _coordinate_spec(g, coordinates=("x", "y", "z")):
    """The spec with metric rows g and phi, xi, eta zero, over ±1."""
    m = len(coordinates)
    zero = ["0"] * m
    return {"chart": {"coordinates": list(coordinates),
                      "box": [[-1, 1]] * m},
            "structure": {"coordinate": {"g": g, "phi": [zero] * m,
                                         "xi": zero, "eta": zero}}}


def _frame(*path_value):
    return with_value(P1_FRAME_SPEC, *path_value)


def _coordinate(*path_value):
    return with_value(FLAT3D_COORDINATE_SPEC, *path_value)


_FRAME = ("structure", "frame")
_COORDINATE = ("structure", "coordinate")
# phi with the text "cosh(2*z" at (2, 0) and at (0, 2)
_TWICE_BAD_PHI = with_value(_coordinate(_COORDINATE + ("phi", 2, 0),
                                        "cosh(2*z"),
                            _COORDINATE + ("phi", 0, 2), "cosh(2*z")
_NOT_FOUND = "[Errno 2] No such file or directory: '{dir}/"
_TREE_DEPTH = ("expression tree is deeper than 100 levels (each operator "
               "of a chain counts one level; group a long chain in "
               "parentheses)")
_ONE_SOURCE = "must contain exactly one of preset, coordinate, frame"
_KNOWN = ("apcos, axioms, compat, contparacr, dacko, h-rel, inv-minus, "
          "inv-plus, jw3d, k1, k2, lemat, news00, news01, normal, "
          "normal-nabla, para-cr, paracrcos, pcm, s0, s1, sas, thm1, "
          "wlasn, wzor1, wzor2, wzorzamk")
_NOT_A_LIST = 'must be "all" or a list of check names'
_ANY_CHECK = "must request at least one check"

# The values the numeric block rejects for the settings that are also
# run() keywords, and the rule each breaks.
_BAD_SETTINGS = [(key, value, rule) for key, values, rule in (
    ("points", (2.5, True, math.inf, math.nan), "an integer"),
    ("points", (-1, 0), ">= 1"),
    ("points", (MAX_POINTS + 1,), f"<= {MAX_POINTS}"),
    ("seed", (2.5, True, math.inf, math.nan), "an integer"),
    ("seed", (-1,), ">= 0"),
    ("tolerance", (True, -1, 0, 0.0, -1e-6, math.nan), "a positive number"),
    ("tolerance", (math.inf,), "finite")) for value in values]

# Every input that paracr rejects, by name: the library raises the
# row's class with its message, and `paracr` exits 2 with the one line
# "error: <message>", or argparse's line where it refuses a flag.
REJECTED = {
    **_rows("spec file: ", lambda content: content, [
        ("absent-file", None, _NOT_FOUND + "spec.json'"),
        ("not-json", b"{not json", "invalid JSON: Expecting property name "
         "enclosed in double quotes: line 1 column 2 (char 1)"),
        ("not-utf8", b"\xff{}", "'utf-8' codec can't decode byte 0xff in "
         "position 0: invalid start byte"),
        ("deep-json", b"[" * 100000 + b"]" * 100000,
         "invalid JSON: nested too deeply")]),
    # JSON reads 1e400 as inf
    **{f"{key}-1e400-json": Rejected(
        f"numeric block: {key} must be finite",
        json.dumps(_numeric({key: 0.5})).replace("0.5", "1e400").encode())
       for key in ("separation", "tolerance")},
    **_rows("", lambda spec: spec, [
        ("unknown-block", _coordinate(("extras",), {}),
         "spec: unknown keys ['extras']"),
        ("no-structure-block", {"chart": FLAT3D_COORDINATE_SPEC["chart"]},
         "spec: missing structure block"),
        ("empty-structure-block", {"structure": {}},
         f"structure block: {_ONE_SOURCE}"),
        ("two-structure-sources", _coordinate(
            ("structure", "preset"), {"name": "flat3d"}),
         f"structure block: {_ONE_SOURCE}"),
        ("unknown-structure-source", _coordinate(("structure", "other"), {}),
         "structure block: unknown keys ['other']"),
        ("chart-of-another-preset", {**_FLAT3D_SPEC, "chart": {
            "coordinates": ["a", "b", "c"], "box": [[-1.0, 1.0]] * 3}},
         "chart block: does not match the chart of preset 'flat3d'")]),
    **_rows("structure.preset block: ",
            lambda block: {"structure": {"preset": block}}, [
        ("unknown-preset", {"name": "nope"}, "unknown preset 'nope'; "
         "available: flat3d, hyperboloid, p1, cosymplectic"),
        ("preset-without-name", {"n": 2}, "missing preset name"),
        ("flat3d-n", {"name": "flat3d", "n": 2},
         "preset 'flat3d' does not accept parameters ['n']"),
        ("hyperboloid-n0", {"name": "hyperboloid", "n": 0}, "n must be >= 1"),
        ("hyperboloid-n-1", {"name": "hyperboloid", "n": -1},
         "n must be >= 1"),
        ("n-string", {"name": "hyperboloid", "n": "x"},
         "parameter n must be an integer, not 'x'"),
        ("n-float", {"name": "p1", "n": 2.5},
         "parameter n must be an integer, not 2.5"),
        ("n-true", {"name": "cosymplectic", "n": True},
         "parameter n must be an integer, not True"),
        *((f"unknown-parameter-{value}", {"name": "p1", "c": value},
           "preset 'p1' does not accept parameters ['c']")
          for value in ("abc", True, math.inf)),
        ("f-number", {"name": "p1", "f": 3}, "parameter f must be a string"),
        ("H-number", {"name": "cosymplectic", "H": 5},
         "parameter H must be a string"),
        # H itself is 62 levels deep, its second partials 129
        ("H-deep-partials",
         {"name": "cosymplectic", "H": "x1*z/(1+" * 30 + "x1*z" + ")" * 30},
         "parameter H: its second partials nest deeper than 100 levels"),
        ("p1-n1", {"name": "p1", "n": 1}, "the p1 family needs n >= 2"),
        ("cosymplectic-n0", {"name": "cosymplectic", "n": 0},
         "the cosymplectic family needs n >= 1"),
        ("H-of-y1", {"name": "cosymplectic", "H": "y1*z"}, "parameter H: "
         "the potential may depend on ['x1', 'z'] only, found ['y1']"),
        # one size above the largest chart dimension, and far above it
        *((f"oversized-{name}", {"name": name, "n": (MAX_DIM + 1) // 2},
           f"chart dimension must be at most {MAX_DIM}, got {MAX_DIM + 2}")
          for name in ("hyperboloid", "p1", "cosymplectic")),
        ("oversized-dimension", {"name": "p1", "n": 30},
         f"chart dimension must be at most {MAX_DIM}, got 61"),
        # a parse error in f or H is located at its offset in the
        # parameter's own text
        ("bad-preset-parameter", {"name": "p1", "f": "x1 + q"},
         "parameter f: at offset 5: unknown variable 'q'; coordinates are "
         "x1, x2, y1, y2, z (expected coordinate name)"),
        ("unclosed-H", {"name": "cosymplectic", "H": "z*(x1^2"},
         "parameter H: at offset 7: got 'end of input' (expected ')')"),
        ("deep-parens-f", {"name": "p1", "f": "(" * 120 + "x1" + ")" * 120},
         "parameter f: at offset 100: expression nests deeper than 100 "
         "levels"),
        # -f is one level deeper than f
        ("deep-frame-f", {"name": "p1", "f": "-" * 99 + "x1"},
         "parameter f: its frame entries nest deeper than 100 levels")]),
    **_rows("chart block: ", _frame, [
        ("no-chart-block", ("chart",), _DROP,
         "required for frame structures"),
        ("unknown-chart-key", ("chart", "volume"), 1,
         "unknown keys ['volume']"),
        ("coordinates-string", ("chart", "coordinates"), "x1",
         "coordinates must be a non-empty list of names"),
        ("repeated-coordinate", ("chart", "coordinates", 0), "x2",
         "coordinate names must be distinct"),
        ("box-interval-of-one", ("chart", "box", 2), [-1.0],
         "box must be a list of [lo, hi] pairs"),
        ("box-too-short", ("chart", "box", 4), _DROP,
         "box must give one interval per coordinate"),
        ("empty-interval", ("chart", "box", 0), [1.0, -1.0],
         "empty box interval (1.0, -1.0)"),
        # numbers that are not finite floats (JSON reads NaN, Infinity
        # and -Infinity), or are booleans
        ("box-minus-inf", ("chart", "box", 0, 0), -math.inf,
         "box[0][0]: must be a finite number, not -Infinity"),
        ("box-true", ("chart", "box", 4, 1), True,
         "box[4][1]: must be a finite number, not true"),
        ("box-wider-than-floats", ("chart", "box", 1), [-1e308, 1e308],
         "box interval 1 (-1e+308, 1e+308) is wider than the float range")]),
    # the bound of every chart, not only the presets'
    **_rows("chart block: chart dimension must be ", lambda m: (
        _coordinate_spec([["0"] * m] * m, [f"u{i}" for i in range(m)])), [
            ("dimension-1", 1, "odd and >= 3, got 1"),
            ("dimension-4", 4, "odd and >= 3, got 4"),
            ("oversized-coordinate-chart", MAX_DIM + 2,
             f"at most {MAX_DIM}, got {MAX_DIM + 2}")]),
    **_rows("structure.frame", _frame, [
        ("frame-without-g_hat", _FRAME + ("g_hat",), _DROP,
         " block: missing fields ['g_hat']"),
        ("unknown-frame-key", _FRAME + ("extra",), 1,
         " block: unknown keys ['extra']"),
        ("short-xi_hat", _FRAME + ("xi_hat",), [0, 0, 1],
         ".xi_hat: must be a list of 5 entries"),
        ("g_hat-strings", _FRAME + ("g_hat",), [["a"] * 5] * 5,
         '.g_hat[0][0]: must be a finite number, not "a"'),
        ("g_hat-nan", _FRAME + ("g_hat", 1, 2), math.nan,
         ".g_hat[1][2]: must be a finite number, not NaN"),
        ("phi_hat-inf", _FRAME + ("phi_hat", 0, 0), math.inf,
         ".phi_hat[0][0]: must be a finite number, not Infinity"),
        ("xi_hat-true", _FRAME + ("xi_hat", 4), True,
         ".xi_hat[4]: must be a finite number, not true"),
        ("eta_hat-10^400", _FRAME + ("eta_hat", 3), 10 ** 400,
         f".eta_hat[3]: must be a finite number, not {10 ** 400}")]),
    **_rows("structure.coordinate", _coordinate, [
        ("coordinate-without-eta", _COORDINATE + ("eta",), _DROP,
         " block: missing fields ['eta']"),
        ("unknown-coordinate-key", _COORDINATE + ("h",), [],
         " block: unknown keys ['h']"),
        ("g-of-2x2", _COORDINATE + ("g",), [["1", "0"], ["0", "1"]],
         ".g: must be a 3 x 3 matrix")]),
    # a bad text that occurs twice is reported where it occurs first in
    # row-major order, and a non-string entry before it first of all
    "number-before-bad-text": Rejected(
        "structure.coordinate.g[1][1]: expression entries must be strings",
        with_value(_TWICE_BAD_PHI, _COORDINATE + ("g", 1, 1), 1.0)),
    **_rows("at offset ", lambda spec: spec, [
        ("unclosed-call", _coordinate(_COORDINATE + ("phi", 0, 2),
                                      "cosh(2*z"),
         "8: structure.coordinate.phi[0][2]: got 'end of input' "
         "(expected ')')"),
        ("repeated-bad-text", _TWICE_BAD_PHI, "8: structure.coordinate."
         "phi[0][2]: got 'end of input' (expected ')')"),
        ("unknown-variable", _coordinate(_COORDINATE + ("xi", 0),
                                         "sinh(2*w)"),
         "7: structure.coordinate.xi[0]: unknown variable 'w'; coordinates "
         "are x, y, z (expected coordinate name)"),
        ("deep-parens", _coordinate_spec(
            first_entry("(" * 10000 + "x" + ")" * 10000)),
         "100: structure.coordinate.g[0][0]: expression nests deeper than "
         "100 levels"),
        ("long-sum", _coordinate_spec(first_entry("+".join(["x"] * 10000))),
         f"199: structure.coordinate.g[0][0]: {_TREE_DEPTH}")], ParseError),
    # the checks block, and the checks of run() and of --checks
    **_rows("checks block: ", lambda checks: _coordinate(("checks",),
                                                         checks), [
        ("checks-unknown", ["nope"],
         f"unknown check 'nope'; known: {_KNOWN}"),
        ("checks-empty", [], _ANY_CHECK),
        ("checks-number", [3], _NOT_A_LIST),
        ("checks-object", {"id": "s0"}, _NOT_A_LIST)]),
    "unknown-check": _override(
        f"checks block: unknown check 'bogus'; known: {_KNOWN}",
        checks=["bogus"]),
    "no-check": _override(f"checks block: {_ANY_CHECK}", checks=[]),
    "only-commas": Rejected(f"checks block: {_ANY_CHECK}", _FLAT3D_SPEC,
                            overrides={"checks": []}, flags=("--checks=,",)),
    # the request alone decides it, before the first draw
    "jw3d-in-dimension-5": _override(
        "jw3d: this identity is specific to dimension 3, got 5",
        {"structure": {"preset": {"name": "p1"}}}, WrongDimension,
        checks=["jw3d"]),
    # the numeric block, and the numeric keywords of run() and their flags
    **{f"numeric-{key}-{value!r}": Rejected(
        f"numeric block: {key} must be {rule}", _numeric({key: value}))
       for key, value, rule in _BAD_SETTINGS},
    **{f"run-{key}-{value!r}": _override(
        f"numeric block: {key} must be {rule}", **{key: value})
       for key, value, rule in _BAD_SETTINGS},
    **_rows("numeric block: ", _numeric, [
        ("numeric-array", [3], "must be a JSON object"),
        ("numeric-unknown-key", {"budget": 3}, "unknown keys ['budget']"),
        ("separation-true", {"separation": True},
         "separation must be a positive number"),
        ("separation-inf", {"separation": math.inf},
         "separation must be finite"),
        ("separation-10^400", {"separation": 10 ** 400},
         "separation must be finite"),
        ("tolerance-above-separation", {"tolerance": 0.5},
         "tolerance must be below separation"),
        ("separation-below-tolerance", {"separation": 1e-9},
         "tolerance must be below separation"),
        ("probes-above-most", {"probes": MAX_PROBES + 1},
         f"probes must be <= {MAX_PROBES}"),
        # an error naming the field, not an allocation failure
        ("oversized-probes", {"probes": 10 ** 12},
         f"probes must be <= {MAX_PROBES}")]),
    # ten times a huge tolerance is an infinite separation
    "run-tolerance-1e308": _override(
        "numeric block: separation must be finite", tolerance=1e308),
    # every draw is rejected: g00 = 0, and g00 = (1e200 + x)^2 overflows
    **_rows("accepted 0/2 points after 20 attempts in the box (rejected: ",
            lambda g00: _coordinate_spec(first_entry(g00)), [
        ("all-rejected", "0", "DegenerateMetric 20)"),
        ("overflowing-product", "(1e200 + x) * (1e200 + x)",
         "DomainError 20)")], SamplingExhausted),
    # an error in a constant frame entry E[0][0] rejects every draw alike
    **_rows("", lambda spec: spec, [
        ("frame-constant-error", {
            "chart": {"coordinates": ["x", "y", "z"], "box": [[-1, 1]] * 3},
            "structure": {"frame": {
                "E": first_entry("1/0"),
                "g_hat": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "phi_hat": [[0] * 3] * 3, "xi_hat": [0] * 3,
                "eta_hat": [0] * 3}}},
         "DomainError in a component expression: division by 0.0 inside "
         "guard band"),
        *((f"p1-frame-{entry}", _frame(_FRAME + ("E", 0, 0), entry),
           f"{cause} in a component expression: {detail}")
          for entry, cause, detail in (
              ("1/0", "DomainError", "division by 0.0 inside guard band"),
              ("ln(0)", "DomainError", "ln of non-positive value 0.0"),
              ("exp(1000)", "OverflowError", "math range error")))],
        DomainError),
    # paracr example
    **{f"example-{name}": Rejected(message, None, error, example=example)
       for name, example, message, error in (
           ("flat3d-n", {"name": "flat3d", "n": 2},
            "preset 'flat3d' does not accept parameters ['n']",
            ValidationError),
           ("hyperboloid-n0", {"name": "hyperboloid", "n": 0},
            "n must be >= 1", ValidationError),
           ("hyperboloid-n-1", {"name": "hyperboloid", "n": -1},
            "n must be >= 1", ValidationError),
           # a spec file that cannot be written
           ("unwritable", {"name": "flat3d",
                           "emit_spec": "{dir}/absent/flat3d.json"},
            _NOT_FOUND + "absent/flat3d.json'", FileNotFoundError))},
}


def _preset(name, **params):
    return build_example(name, **params).structure


def _spec(path):
    return load_spec(str(path)).structure


def _p1_frame_spec():
    return spec_from_dict(P1_FRAME_SPEC).structure


def preset_spec(name, numeric=None, **params):
    """The loaded spec of the preset ``name`` with its parameters
    ``params``, and the numeric block ``numeric`` when given."""
    data = dict(build_example(name, **params).spec_dict)
    if numeric:
        data["numeric"] = numeric
    return spec_from_dict(data)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

CASES = {
    "flat3d": functools.partial(_preset, "flat3d"),
    **{f"{name}_n{n}": functools.partial(_preset, name, n=n)
       for name, ns in (("hyperboloid", (1, 2, 3, 4)), ("p1", (2, 3, 4)),
                        ("cosymplectic", (1, 2, 3, 4)))
       for n in ns},
    "p1_fx1": functools.partial(_preset, "p1", f="x1"),
    "p1_skew": skew_structure,
    **{f"random{s}": functools.partial(random_dim3_structure, s)
       for s in range(3)},
    **{f"spec_{path.stem}": functools.partial(_spec, path)
       for path in sorted(SPECS.glob("*.json"))},
    "spec_p1_frame": _p1_frame_spec,
    # |det E| = 1.9e-6 |x| falls below 1e-6 for |x| < 0.53
    "half_singular_frame": lambda: singular_frame_structure("0.0000019*x"),
    # |det g| = 2e-10 |x| falls below 1e-10 for |x| < 0.5
    "half_degenerate_metric": lambda: coordinate_structure(
        first_entry("0.0000000002*x")),
    # g_zz = 1 + sqrt(z) raises a domain error for z < 0
    "half_domain_metric": lambda: coordinate_structure(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1 + sqrt(z)"]],
        xi=["0", "0", "1"], eta=["0", "0", "1"]),
}


def structure(name):
    """A fresh structure of the case ``name``."""
    return CASES[name]()


def case_seed(name):
    """The seed of a case's sample: the crc32 of its name."""
    return zlib.crc32(name.encode("utf-8")) % 100000


@functools.lru_cache(maxsize=None)
def sampled(name, count=6, seed=None):
    """The case's structure, ``count`` points drawn by the runner's
    sampler (a FrameBatch) and a probe block [count, 4 draws, 4, m]
    drawn next from the same stream, seeded by the case name unless
    ``seed`` is given; cached by name, count and seed, so callers must
    not write to it."""
    st = structure(name)
    rng = np.random.default_rng(case_seed(name) if seed is None else seed)
    batch = sample_points(st, rng, count)
    return st, batch, rng.uniform(-1.0, 1.0, (count, 4, 4, st.dim))


@functools.lru_cache(maxsize=None)
def worst_values(name, count=6):
    """Worst scaled value of every applicable condition over the case's
    seeded sample, from one evaluation of the whole batch (a NaN point
    makes its condition's value NaN); raises what a kernel raised.
    Cached, so callers must not write to it."""
    st, batch, probes = sampled(name, count)
    values = evaluate_conditions(expand_checks("all", st.dim), batch, probes)
    for value in values.values():
        if isinstance(value, ParacrError):
            raise value
    return {cid: value.scaled for cid, value in values.items()}


def verdict(value):
    """The verdict on a worst value at the default bands (pass at most
    1e-6, fail from 1e-2); an ambiguous value fails the test."""
    flag = trit(value, 1e-6, 1e-2)
    assert flag is not None, f"ambiguous residual {value}"
    return flag


# ---------------------------------------------------------------------------
# expected verdicts: per condition, and per class of the classification
# ---------------------------------------------------------------------------

EXPECTED_PASS = {
    "flat3d": {"axioms", "compat", "pcm", "s0", "s1", "news00", "news01",
               "thm1", "jw3d", "h-rel", "lemat", "wzor1", "wzorzamk",
               "contparacr", "wzor2", "paracrcos", "inv-plus", "inv-minus",
               "k1", "k2"},
    "hyperboloid_n1": set(CONDITION_IDS) - {"apcos", "dacko"},
    "p1_n2": {"axioms", "compat", "pcm", "s0", "s1", "news00", "news01",
              "thm1", "h-rel", "lemat", "wzor1", "wzorzamk", "contparacr",
              "wzor2", "paracrcos", "inv-plus", "inv-minus", "k1", "k2"},
    "cosymplectic_n1": {"axioms", "compat", "apcos", "s0", "s1", "news00",
                        "news01", "thm1", "jw3d", "wzor1", "wzor2",
                        "paracrcos", "dacko", "inv-plus", "inv-minus"},
    "p1_fx1": {"axioms", "compat", "pcm", "s0", "news00", "news01",
               "inv-minus", "h-rel", "lemat", "wlasn"},
    "p1_skew": {"axioms", "compat", "inv-plus"},
}

EXPECTED_FAIL = {
    "flat3d": {"normal", "apcos", "normal-nabla", "wlasn", "sas", "dacko"},
    "hyperboloid_n1": {"apcos", "dacko"},
    "p1_n2": {"normal", "apcos", "normal-nabla", "wlasn", "sas", "dacko"},
    "cosymplectic_n1": {"normal", "pcm", "normal-nabla", "wlasn", "h-rel",
                        "lemat", "sas", "wzorzamk", "contparacr", "k1",
                        "k2"},
    "p1_fx1": {"normal", "apcos", "s1", "thm1", "normal-nabla", "sas",
               "wzor1", "wzorzamk", "contparacr", "dacko", "wzor2",
               "paracrcos", "inv-plus", "k1", "k2"},
    "p1_skew": {"pcm", "s0", "s1", "news00", "news01", "thm1", "inv-minus"},
}


def _fingerprint(*true_classes):
    """Every class False but ``true_classes``."""
    assert set(true_classes) <= set(CLASS_NAMES), true_classes
    return {name: name in true_classes for name in CLASS_NAMES}


_PARA_CR = ("almost_paracontact_metric", "paracontact_metric", "para_cr")

# The classification of each preset at its default parameters.
FINGERPRINTS = {
    "flat3d": _fingerprint(*_PARA_CR),
    "hyperboloid_n1": _fingerprint(*_PARA_CR, "normal", "para_sasakian"),
    "hyperboloid_n2": _fingerprint(*_PARA_CR, "normal", "para_sasakian"),
    "p1_n2": _fingerprint(*_PARA_CR),
    "cosymplectic_n1": _fingerprint("almost_paracontact_metric",
                                    "almost_para_cosymplectic", "para_cr",
                                    "para_kahler_leaves"),
}


# ---------------------------------------------------------------------------
# one point at a time
# ---------------------------------------------------------------------------

def box_points(chart, rng, count):
    """``count`` uniform points of the chart's box as tuples, one draw of
    ``chart.dim`` numbers each (no rejections)."""
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    return [tuple(float(v) for v in lo + (hi - lo) * rng.random(len(lo)))
            for _ in range(count)]


def box_frames(st, rng, count):
    """PointFrames of the structure ``st`` at ``count`` points of
    :func:`box_points`, all drawn before any frame is built."""
    return [PointFrame(st, pt) for pt in box_points(st.chart, rng, count)]


def point_batch(pf):
    """The point of a PointFrame alone as a one-row batch, keeping the
    arrays its batch has computed so far."""
    if len(pf.batch) == 1:
        return pf.batch
    return pf.batch.rows(slice(pf.index, pf.index + 1))


def components(st, point):
    """Values of (g, phi, xi, eta) of the structure ``st`` at one point;
    raises the point's rejection."""
    parts, rejected = structure_jets(st, [point], order=0)
    if rejected[0] is not None:
        raise rejected[0]
    return tuple(part.v[0] for part in parts)


def evaluate_condition(cond_id, pf, probes=()):
    """Worst value of one condition at the point of a PointFrame (probes
    [draws, 4, m]); raises what its kernel raised."""
    probes = np.asarray(probes, dtype=float).reshape(1, -1, 4, pf.m)
    value = evaluate_conditions([cond_id], point_batch(pf), probes)[cond_id]
    if isinstance(value, ParacrError):
        raise value
    return value


def _tangent(v):
    return v.t if depth_of(v) == 1 else 0.0


def field_jacobian(fn, point):
    """jac[a][k] = d(component k)/d(coordinate a) of a vector field given
    as a callable point -> components, via one jet level."""
    m = len(point)
    jac = np.zeros((m, m))
    for a in range(m):
        ys = [Dual(x, 1.0 if i == a else 0.0) for i, x in enumerate(point)]
        jac[a] = [_tangent(c) for c in fn(ys)]
    return jac


def frame_column(st, col):
    """Frame field number ``col`` of the frame structure ``st`` as a
    callable point -> components."""
    return lambda xs: [row[col] for row in frame_matrix(st, xs)]


def field_pair(st, col, point):
    """Frame field number ``col`` as a (values, jacobian) pair at point."""
    fn = frame_column(st, col)
    vals = np.array([float(v) for v in fn(list(point))])
    return vals, field_jacobian(fn, list(point))


def h_zero_reduction_gap(pf):
    """[DERIVED] With h = 0 the first curvature identity reduces to
      (R(W,X)phi)Y = g(X,Y) phi W - g(W,Y) phi X
                     - g(phi W, Y) X + g(phi X, Y) W;
    the largest gap between the two sides at the point of ``pf``."""
    lhs = (np.einsum('kwxa,ay->kwxy', pf.Riem, pf.phi)
           - np.einsum('ka,awxy->kwxy', pf.phi, pf.Riem))
    phig = pf.phi.T @ pf.g
    eye = np.eye(pf.m)
    rhs = (np.einsum('xy,kw->kwxy', pf.g, pf.phi)
           - np.einsum('wy,kx->kwxy', pf.g, pf.phi)
           - np.einsum('wy,kx->kwxy', phig, eye)
           + np.einsum('xy,kw->kwxy', phig, eye))
    return np.max(np.abs(lhs - rhs))


def scaled_diff(got, want):
    """max |got - want| over max(1, max |want|); 0 for empty arrays."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    return float(np.max(np.abs(got - want))) / scale if got.size else 0.0
