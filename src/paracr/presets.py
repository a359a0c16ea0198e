"""Built-in example structures.

Four families, each a classical testbed exercising a different corner of
the theory:

- ``flat3d``: a flat 3-dimensional paracontact metric structure whose
  h-operator is nonzero — para-CR but not para-Sasakian.
- ``hyperboloid``: the structure induced on the unit pseudosphere of
  flat para-Kahler space — para-Sasakian with constant sectional
  curvature -1.
- ``p1``: a frame-defined paracontact metric family on R^(2n+1)
  parametrized by a function f; para-CR exactly when f solves a first
  -order PDE system, with the default f a closed-form solution.
- ``cosymplectic``: an almost para-cosymplectic family built from a
  potential H through its Hessian (symbolic second partials of H);
  para-CR with para-Kahler leaves, yet not normal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conditions import CLASS_NAMES as ALL_CLASSES
from .errors import ValidationError
from .expr import Const, EntryParser, Neg, diff, parse, variables
from .geometry import (
    Chart,
    CoordinateStructure,
    FrameStructure,
    HyperboloidStructure,
)

PRESET_NAMES = ("flat3d", "hyperboloid", "p1", "cosymplectic")


@dataclass
class ExampleDescriptor:
    """A built-in structure plus its expected classification and targets.

    ``fingerprint`` maps every class name to the expected verdict (None
    when the verdict is not known upfront, e.g. for user-supplied
    parameters).  ``targets`` records closed-form numeric facts tests
    compare against.  ``spec_dict`` is the JSON-ready manifold spec that
    reproduces the structure through the loader.
    """

    name: str
    structure: object
    fingerprint: dict | None
    targets: dict = field(default_factory=dict)
    spec_dict: dict = field(default_factory=dict)


def _fingerprint(**kwargs):
    fp = {name: False for name in ALL_CLASSES}
    fp.update(kwargs)
    unknown = set(kwargs) - set(ALL_CLASSES)
    if unknown:
        raise ValueError(f"unknown class names {sorted(unknown)}")
    return fp


def _box_json(chart):
    return [[float(lo), float(hi)] for lo, hi in chart.box]


def _preset_spec(chart, name, **params):
    return {
        "chart": {"coordinates": list(chart.coordinates),
                  "box": _box_json(chart)},
        "structure": {"preset": {"name": name, **params}},
        "checks": "all",
    }


# ---------------------------------------------------------------------------
# flat3d
# ---------------------------------------------------------------------------

def flat3d():
    """Flat 3-dimensional paracontact metric structure with h != 0."""
    coords = ("x", "y", "z")
    chart = Chart(coords, ((-1.0, 1.0),) * 3)
    g = [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    phi = [["0", "0", "cosh(2*z)"],
           ["0", "0", "-sinh(2*z)"],
           ["cosh(2*z)", "sinh(2*z)", "0"]]
    xi = ["-sinh(2*z)", "cosh(2*z)", "0"]
    eta = ["sinh(2*z)", "cosh(2*z)", "0"]
    parser = EntryParser(coords)
    structure = CoordinateStructure(
        chart,
        parser.matrix(g, "g"),
        parser.matrix(phi, "phi"),
        parser.vector(xi, "xi"),
        parser.vector(eta, "eta"),
    )
    return ExampleDescriptor(
        name="flat3d",
        structure=structure,
        fingerprint=_fingerprint(
            almost_paracontact_metric=True,
            paracontact_metric=True,
            para_cr=True,
        ),
        targets={"riemann_max": 0.0, "h_on_dz": -1.0},
        spec_dict=_preset_spec(chart, "flat3d"),
    )


# ---------------------------------------------------------------------------
# hyperboloid
# ---------------------------------------------------------------------------

def hyperboloid(n=1):
    """Unit pseudosphere of para-Kahler flat space: para-Sasakian,
    constant sectional curvature -1."""
    structure = HyperboloidStructure(n)
    chart = structure.chart
    return ExampleDescriptor(
        name="hyperboloid",
        structure=structure,
        fingerprint=_fingerprint(
            almost_paracontact_metric=True,
            paracontact_metric=True,
            normal=True,
            para_sasakian=True,
            para_cr=True,
        ),
        targets={
            "sectional": -1.0,
            "r": float(-2 * n * (2 * n + 1)),
            "r_star": float(2 * n),
        },
        spec_dict=_preset_spec(chart, "hyperboloid", n=n),
    )


# ---------------------------------------------------------------------------
# p1
# ---------------------------------------------------------------------------

def _p1_chart(n):
    coords = tuple([f"x{a}" for a in range(1, n + 1)]
                   + [f"y{a}" for a in range(1, n + 1)] + ["z"])
    box = tuple([(-1.0, 1.0)] * (2 * n) + [(0.5, 1.5)])
    return Chart(coords, box)


def _null_pair_g_hat(n):
    m = 2 * n + 1
    g_hat = [[0.0] * m for _ in range(m)]
    for a in range(n):
        g_hat[a][n + a] = 1.0
        g_hat[n + a][a] = 1.0
    g_hat[m - 1][m - 1] = 1.0
    return g_hat


def _split_sign_phi_hat(n):
    m = 2 * n + 1
    phi_hat = [[0.0] * m for _ in range(m)]
    for a in range(n):
        phi_hat[a][a] = -1.0
        phi_hat[n + a][n + a] = 1.0
    return phi_hat


def _last_basis_vector(m):
    v = [0.0] * m
    v[m - 1] = 1.0
    return v


def default_p1_f(n):
    terms = ["1.0"] + [f"x{a}^2" for a in range(1, n + 1)]
    return "(" + " + ".join(terms) + ")/z"


def p1(n=2, f=None):
    """Frame family on R^(2n+1): paracontact metric for every f; para-CR
    exactly when f solves  f*df/dx_a - df/dy_a + 2 x_a df/dz = 0."""
    if n < 2:
        raise ValidationError("the p1 family needs n >= 2")
    chart = _p1_chart(n)
    coords = chart.coordinates
    m = chart.dim
    default = f is None
    f_text = default_p1_f(n) if default else f
    parse(f_text, coords)  # validate early with a located error

    rows = [["0"] * m for _ in range(m)]
    for a in range(n):
        rows[a][a] = "1"
        rows[a][n + a] = f"-({f_text})"
        rows[n + a][n + a] = "1"
        rows[m - 1][n + a] = f"-2*x{a + 1}"
    rows[m - 1][m - 1] = "1"

    structure = FrameStructure(
        chart,
        EntryParser(coords).matrix(rows, "E"),
        _null_pair_g_hat(n),
        _split_sign_phi_hat(n),
        _last_basis_vector(m),
        _last_basis_vector(m),
    )
    fingerprint = None
    if default:
        fingerprint = _fingerprint(
            almost_paracontact_metric=True,
            paracontact_metric=True,
            para_cr=True,
        )
    return ExampleDescriptor(
        name="p1",
        structure=structure,
        fingerprint=fingerprint,
        targets={"h_squared_max": 0.0},
        spec_dict=_preset_spec(chart, "p1", n=n, f=f_text),
    )


# ---------------------------------------------------------------------------
# cosymplectic
# ---------------------------------------------------------------------------

def default_cosymplectic_H(n):
    return "z*(" + " + ".join(f"x{a}^2" for a in range(1, n + 1)) + ")"


def cosymplectic(n=1, H=None):
    """Almost para-cosymplectic family from a potential H(x..., z): the
    frame couples ∂/∂x_a to the y-directions through the x-Hessian of H,
    built as expressions by symbolic differentiation."""
    if n < 1:
        raise ValidationError("the cosymplectic family needs n >= 1")
    coords = tuple([f"x{a}" for a in range(1, n + 1)]
                   + [f"y{a}" for a in range(1, n + 1)] + ["z"])
    chart = Chart(coords, ((-1.0, 1.0),) * (2 * n + 1))
    m = chart.dim
    default = H is None
    H_text = default_cosymplectic_H(n) if default else H
    H_node = parse(H_text, coords)
    allowed = {f"x{a}" for a in range(1, n + 1)} | {"z"}
    used = variables(H_node)
    if not used <= allowed:
        raise ValidationError(
            f"potential may depend on {sorted(allowed)} only, "
            f"found {sorted(used - allowed)}")

    one, zero = Const(1.0), Const(0.0)
    entries = [[zero] * m for _ in range(m)]
    for a in range(n):
        entries[a][a] = one
        entries[n + a][n + a] = one
        for w in range(n):
            entries[n + w][a] = Neg(diff(diff(H_node, a), w))
    entries[m - 1][m - 1] = one

    structure = FrameStructure(
        chart,
        entries,
        _null_pair_g_hat(n),
        _split_sign_phi_hat(n),
        _last_basis_vector(m),
        _last_basis_vector(m),
    )
    fingerprint = None
    if default:
        fingerprint = _fingerprint(
            almost_paracontact_metric=True,
            almost_para_cosymplectic=True,
            para_cr=True,
            para_kahler_leaves=True,
        )
    return ExampleDescriptor(
        name="cosymplectic",
        structure=structure,
        fingerprint=fingerprint,
        targets={},
        spec_dict=_preset_spec(chart, "cosymplectic", n=n, H=H_text),
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def build_example(name, **params):
    """Instantiate a preset by name with keyword parameters: ``n`` an
    integer, ``f`` and ``H`` expression strings."""
    if name == "flat3d":
        _check_params(name, params, ())
        return flat3d()
    if name == "hyperboloid":
        _check_params(name, params, ("n",))
        return hyperboloid(int(params.get("n", 1)))
    if name == "p1":
        _check_params(name, params, ("n", "f"))
        return p1(int(params.get("n", 2)), params.get("f"))
    if name == "cosymplectic":
        _check_params(name, params, ("n", "H"))
        return cosymplectic(int(params.get("n", 1)), params.get("H"))
    raise ValidationError(
        f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


def _check_params(name, params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise ValidationError(
            f"preset {name!r} does not accept parameters {sorted(extra)}")
    n = params.get("n", 0)
    if type(n) is not int:  # not a bool, a float or a string
        raise ValidationError(f"parameter n must be an integer, not {n!r}")
    for key in ("f", "H"):
        if not isinstance(params.get(key, ""), str):
            raise ValidationError(f"parameter {key} must be a string")
