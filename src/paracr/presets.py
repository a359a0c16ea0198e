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

from .errors import ParseError, ValidationError
from .expr import _MAX_DEPTH, Const, EntryParser, Neg, diff, parse, \
    tree_depth, variables
from .geometry import (
    Chart,
    CoordinateStructure,
    FrameStructure,
    HyperboloidStructure,
    check_dimension,
)


@dataclass
class ExampleDescriptor:
    """A built-in structure plus its closed-form targets.

    ``targets`` records closed-form numeric facts a run measures the
    structure against.  ``spec_dict`` is the JSON-ready manifold spec
    that reproduces the structure through the loader.
    """

    name: str
    structure: object
    targets: dict = field(default_factory=dict)
    spec_dict: dict = field(default_factory=dict)


def _preset_spec(name, **params):
    """The spec of a preset; the loader derives its chart."""
    return {"structure": {"preset": {"name": name, **params}},
            "checks": "all"}


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
        targets={"riemann_max": 0.0, "h_on_dz": -1.0},
        spec_dict=_preset_spec("flat3d"),
    )


# ---------------------------------------------------------------------------
# hyperboloid
# ---------------------------------------------------------------------------

def hyperboloid(n=1):
    """Unit pseudosphere of para-Kahler flat space: para-Sasakian,
    constant sectional curvature -1."""
    structure = HyperboloidStructure(n)
    return ExampleDescriptor(
        name="hyperboloid",
        structure=structure,
        targets={
            "sectional": -1.0,
            "r": float(-2 * n * (2 * n + 1)),
            "r_star": float(2 * n),
        },
        spec_dict=_preset_spec("hyperboloid", n=n),
    )


# ---------------------------------------------------------------------------
# the frame families p1 and cosymplectic
# ---------------------------------------------------------------------------

def _family_chart(n, z_box):
    """Coordinates x1..xn, y1..yn, z; x and y range over [-1, 1]."""
    check_dimension(2 * n + 1)
    coords = tuple([f"x{a}" for a in range(1, n + 1)]
                   + [f"y{a}" for a in range(1, n + 1)] + ["z"])
    return Chart(coords, tuple([(-1.0, 1.0)] * (2 * n) + [z_box]))


def _parameter(name, text, coordinates):
    """The AST of the expression parameter ``name``; a parse error names
    it, at its offset in ``text``."""
    try:
        return parse(text, coordinates)
    except ParseError as exc:
        raise ValidationError(f"parameter {name}: {exc}") from exc


def _frame_family(chart, coupling, parameter, derived):
    """The frame structure whose frame E is the identity with the entries
    of ``coupling`` ((row, column) -> AST) set, under the null-pair
    metric (e_a paired with e_(n+a)), split-sign phi (-1 on e_1..e_n,
    +1 on e_(n+1)..e_2n) and xi = eta = the last basis vector.  The
    coupling entries, the ``derived`` of the expression parameter
    ``parameter``, may nest at most ``_MAX_DEPTH`` levels."""
    m, n = chart.dim, chart.n
    memo = {}
    if max(tree_depth(e, memo) for e in coupling.values()) > _MAX_DEPTH:
        raise ValidationError(f"parameter {parameter}: its {derived} nest "
                              f"deeper than {_MAX_DEPTH} levels")
    one, zero = Const(1.0), Const(0.0)
    frame = [[one if i == j else zero for j in range(m)] for i in range(m)]
    g_hat = [[0.0] * m for _ in range(m)]
    phi_hat = [[0.0] * m for _ in range(m)]
    for (i, j), entry in coupling.items():
        frame[i][j] = entry
    for a in range(n):
        g_hat[a][n + a] = g_hat[n + a][a] = 1.0
        phi_hat[a][a], phi_hat[n + a][n + a] = -1.0, 1.0
    g_hat[m - 1][m - 1] = 1.0
    last = [0.0] * (m - 1) + [1.0]
    return FrameStructure(chart, frame, g_hat, phi_hat, last, last)


def default_p1_f(n):
    terms = ["1.0"] + [f"x{a}^2" for a in range(1, n + 1)]
    return "(" + " + ".join(terms) + ")/z"


def p1(n=2, f=None):
    """Frame family on R^(2n+1): paracontact metric for every f; para-CR
    exactly when f solves  f*df/dx_a - df/dy_a + 2 x_a df/dz = 0."""
    if n < 2:
        raise ValidationError("the p1 family needs n >= 2")
    chart = _family_chart(n, (0.5, 1.5))
    f_text = default_p1_f(n) if f is None else f
    minus_f = Neg(_parameter("f", f_text, chart.coordinates))
    coupling = {}
    for a in range(n):
        coupling[a, n + a] = minus_f
        coupling[2 * n, n + a] = parse(f"-2*x{a + 1}", chart.coordinates)
    structure = _frame_family(chart, coupling, "f", "frame entries")
    return ExampleDescriptor(
        name="p1",
        structure=structure,
        targets={"h_squared_max": 0.0},
        spec_dict=_preset_spec("p1", n=n, f=f_text),
    )


def default_cosymplectic_H(n):
    return "z*(" + " + ".join(f"x{a}^2" for a in range(1, n + 1)) + ")"


def cosymplectic(n=1, H=None):
    """Almost para-cosymplectic family from a potential H(x..., z): the
    frame couples ∂/∂x_a to the y-directions through the x-Hessian of H,
    built as expressions by symbolic differentiation."""
    if n < 1:
        raise ValidationError("the cosymplectic family needs n >= 1")
    chart = _family_chart(n, (-1.0, 1.0))
    H_text = default_cosymplectic_H(n) if H is None else H
    H_node = _parameter("H", H_text, chart.coordinates)
    allowed = {f"x{a}" for a in range(1, n + 1)} | {"z"}
    used = variables(H_node)
    if not used <= allowed:
        raise ValidationError(
            f"parameter H: the potential may depend on {sorted(allowed)} "
            f"only, found {sorted(used - allowed)}")
    coupling = {(n + w, a): Neg(diff(diff(H_node, a), w))
                for a in range(n) for w in range(n)}
    structure = _frame_family(chart, coupling, "H", "second partials")
    return ExampleDescriptor(
        name="cosymplectic",
        structure=structure,
        targets={},
        spec_dict=_preset_spec("cosymplectic", n=n, H=H_text),
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# Each preset's family and the keyword parameters it accepts.
_FAMILIES = {
    "flat3d": (flat3d, ()),
    "hyperboloid": (hyperboloid, ("n",)),
    "p1": (p1, ("n", "f")),
    "cosymplectic": (cosymplectic, ("n", "H")),
}
PRESET_NAMES = tuple(_FAMILIES)


def build_example(name, **params):
    """Instantiate a preset by name with keyword parameters: ``n`` an
    integer, ``f`` and ``H`` expression strings."""
    if name not in _FAMILIES:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    family, allowed = _FAMILIES[name]
    _check_params(name, params, allowed)
    return family(**params)


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
