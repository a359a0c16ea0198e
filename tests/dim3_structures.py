"""Seeded random 3-dimensional frame structures.

The constant frame-basis tensors make the structure axioms hold by
construction, so every structure of the generator is almost paracontact
metric; the tests use them for the dimension-3 universality property
(every such structure is para-CR) and as curved fixtures with
nonconstant curvature.
"""

import numpy as np

from paracr.expr import EntryParser
from paracr.geometry import Chart, FrameStructure
from paracr.jets import coordinate_jets, tensor

_G_HAT = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
_PHI_HAT = [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
_REEB = [0.0, 0.0, 1.0]

_QUAD_MONOMIALS = ("x*x", "y*y", "z*z", "x*y", "x*z", "y*z")
_CURVED_TERMS = ("sinh(x)", "sinh(y)", "sinh(z)",
                 "cosh(x)", "cosh(y)", "cosh(z)")


def _frame_det_floor(structure, nodes=9):
    """Smallest |det E| over a nodes^3 grid spanning the box [-1, 1]^3."""
    axis = np.linspace(-1.0, 1.0, nodes)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1)
    xs = coordinate_jets(grid.reshape(-1, 3), 0)
    E = tensor(structure.frame_matrix(xs), xs[0])
    return float(np.min(np.abs(np.linalg.det(E.v))))


def random_dim3_structure(seed, max_attempts=200):
    """Deterministic random 3-dimensional frame structure.

    Frame entries are 2·δ_ij plus a degree-<=2 polynomial plus one
    hyperbolic term, all coefficients uniform in [-1, 1] from
    ``numpy.random.default_rng(seed)``.  Candidates whose frame
    determinant drops below 0.25 anywhere on a 9^3 grid over the box are
    rejected and redrawn (still deterministically); the dense grid plus
    the margin over the nominal 0.1 floor keeps the frame invertible --
    and the induced metric well conditioned -- everywhere in the box,
    not just at the probed nodes.
    """
    rng = np.random.default_rng(seed)
    coords = ("x", "y", "z")
    chart = Chart(coords, ((-1.0, 1.0),) * 3)
    for _ in range(max_attempts):
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                quad = _QUAD_MONOMIALS[rng.integers(len(_QUAD_MONOMIALS))]
                curved = _CURVED_TERMS[rng.integers(len(_CURVED_TERMS))]
                c = rng.uniform(-1.0, 1.0, size=6)
                parts = ["2"] if i == j else []
                parts += [f"({c[0]:.6f})",
                          f"({c[1]:.6f})*x",
                          f"({c[2]:.6f})*y",
                          f"({c[3]:.6f})*z",
                          f"({c[4]:.6f})*{quad}",
                          f"({c[5]:.6f})*{curved}"]
                row.append(" + ".join(parts))
            rows.append(row)
        frame = EntryParser(coords).matrix(rows, "E")
        structure = FrameStructure(chart, frame, _G_HAT, _PHI_HAT, _REEB,
                                   _REEB)
        if _frame_det_floor(structure) >= 0.25:
            return structure
    raise RuntimeError(
        f"no acceptable random frame found in {max_attempts} attempts "
        f"for seed {seed}")
