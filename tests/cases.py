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
import functools
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
from paracr.errors import ParacrError
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
from paracr.spec_io import load_spec, spec_from_dict
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

# Preset blocks with a bad parameter, and what the error says.
BAD_PRESETS = [
    ({"name": "hyperboloid", "n": 0}, "n must be >= 1"),
    ({"name": "hyperboloid", "n": -1}, "n must be >= 1"),
    ({"name": "hyperboloid", "n": "x"}, "parameter n must be an integer"),
    ({"name": "p1", "n": 2.5}, "parameter n must be an integer"),
    ({"name": "cosymplectic", "n": True}, "parameter n must be an integer"),
    ({"name": "p1", "c": "abc"}, "does not accept parameters ['c']"),
    ({"name": "p1", "c": True}, "does not accept parameters ['c']"),
    ({"name": "p1", "c": math.inf}, "does not accept parameters ['c']"),
    ({"name": "p1", "f": 3}, "parameter f must be a string"),
    ({"name": "cosymplectic", "H": 5}, "parameter H must be a string"),
    # H itself is 62 levels deep, its second partials 129
    ({"name": "cosymplectic", "H": "x1*z/(1+" * 30 + "x1*z" + ")" * 30},
     "parameter H: its second partials nest deeper than 100 levels"),
    ({"name": "p1", "n": 1}, "the p1 family needs n >= 2"),
    ({"name": "cosymplectic", "n": 0}, "the cosymplectic family needs n >= 1"),
    ({"name": "cosymplectic", "H": "y1*z"},
     "parameter H: the potential may depend on ['x1', 'z'] only, found "
     "['y1']"),
    # one size above the largest chart dimension
    *(({"name": name, "n": (MAX_DIM + 1) // 2},
       f"chart dimension must be at most {MAX_DIM}, got {MAX_DIM + 2}")
      for name in ("hyperboloid", "p1", "cosymplectic")),
    ({"n": 2}, "missing preset name"),
    # a parse error in f or H is located at its offset in the
    # parameter's own text
    ({"name": "p1", "f": "x1 + q"},
     "parameter f: at offset 5: unknown variable 'q'"),
    ({"name": "cosymplectic", "H": "z*(x1^2"},
     "parameter H: at offset 7: got 'end of input' (expected ')')"),
    ({"name": "p1", "f": "(" * 120 + "x1" + ")" * 120},
     "parameter f: at offset 100: expression nests deeper than 100 levels"),
    # -f is one level deeper than f
    ({"name": "p1", "f": "-" * 99 + "x1"},
     "parameter f: its frame entries nest deeper than 100 levels"),
]

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

def with_value(base, path, value):
    """``base`` copied, with the item at the key ``path`` set to ``value``."""
    spec = copy.deepcopy(base)
    *head, last = path
    target = spec
    for key in head:
        target = target[key]
    target[last] = value
    return spec


# Numbers of P1_FRAME_SPEC replaced by values that are not finite floats
# (JSON reads NaN, Infinity and -Infinity), and the start of the error.
BAD_NUMBERS = [
    (("chart", "box", 0, 0), -math.inf,
     "chart block: box[0][0]: must be a finite number, not -Infinity"),
    (("chart", "box", 4, 1), True,
     "chart block: box[4][1]: must be a finite number, not true"),
    (("chart", "box", 1), [-1e308, 1e308],
     "chart block: box interval 1 (-1e+308, 1e+308) is wider than the "
     "float range"),
    (("structure", "frame", "g_hat", 1, 2), math.nan,
     "structure.frame.g_hat[1][2]: must be a finite number, not NaN"),
    (("structure", "frame", "phi_hat", 0, 0), math.inf,
     "structure.frame.phi_hat[0][0]: must be a finite number, not "
     "Infinity"),
    (("structure", "frame", "xi_hat", 4), True,
     "structure.frame.xi_hat[4]: must be a finite number, not true"),
    (("structure", "frame", "eta_hat", 3), 10 ** 400,
     "structure.frame.eta_hat[3]: must be a finite number, not 1000"),
]


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
