"""Batched pseudo-Riemannian machinery.

A *structure* object carries a chart and produces the quadruplet
(g, phi, xi, eta) — metric, (1,1)-endomorphism, Reeb vector, contact
1-form — as batched Taylor jets (:mod:`paracr.jets`): one pass over a
batch of chart points yields the values and the partial derivatives of
every component at all of them.  Three realizations exist:

- :class:`CoordinateStructure`: components given directly in the
  coordinate basis as parsed expressions; the expressions of g, phi,
  xi and eta are evaluated in one walk per batch
  (:class:`paracr.expr.SharedTrees`: equal subtrees once).
- :class:`FrameStructure`: a moving frame E with constant frame-basis
  tensors; the entries of E are evaluated in one walk per batch, and
  the coordinate components come from Gauss-Jordan elimination
  of E on the jets of a whole batch, which carries the partials
  ∂(E⁻¹) = −E⁻¹(∂E)E⁻¹ and their higher analogues through, and from
  products with a jet on the left; both skip the entries that the
  structure makes zero.
- :class:`HyperboloidStructure`: the structure induced on the unit
  pseudosphere of a flat para-Kahler ambient space, pulled back through
  an explicit graph parametrization with a closed-form tangent basis;
  the ambient inner products are sparse products of that basis, which
  skip its structural zeros, and phi and xi solve one linear system.

:func:`structure_jets` evaluates a structure at a batch of points and
decides, as one array of error classes, which points are rejected and
why; :func:`structure_arrays` keeps the accepted points.  A
:class:`FrameBatch` holds them and derives, for all of them at once, the
Levi-Civita connection, curvature tensors, covariant derivatives of the
structure tensors, the h-operator, differential forms, and projectors —
everything downstream residual checks consume.  A batch is a sequence
of its rows: ``batch[i]`` is the :class:`PointFrame` of point i, and
iterating a batch yields them in point order.

Index conventions (fixed throughout the package; a batch array puts
the point axis in front, ``Gamma[p, k, i, j]``):
  g[i,j]        metric g(e_i, e_j) for coordinate fields e_i
  dg[a,i,j]     ∂_a g_ij;   d2g[a,b,i,j] = ∂_a ∂_b g_ij
  phi[i,j]      the (1,1) tensor component phi^i_j  (phi(e_j) = phi^i_j e_i)
  xi[i]         vector components; eta[j] covector components
  Gamma[k,i,j]  Christoffel symbols of the second kind
  Riem[k,a,b,j] curvature R(e_a, e_b)e_j = Riem[k,a,b,j] e_k
  Ric[y,z]      trace of X -> R(X, e_y)e_z
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMetric,
    DomainError,
    OutsidePatch,
    SingularFrame,
    ValidationError,
)
from .expr import SharedTrees
from .jets import _DIV_GUARD, Jet, coordinate_jets, sqrt, tensor

_MIN_METRIC_DET = 1e-10
_MIN_FRAME_DET = 1e-6
_MIN_PATCH_MARGIN = 1e-6

# Largest chart dimension, so that a larger one is an input error and
# not an allocation failure.  A 64-point run of every check, in a fresh
# process, peaks at 307-316 MB of resident memory at m = 15 (the three
# families with n) and at 482-500 MB at m = 17 (with this bound raised;
# Python 3.11, NumPy 2.4).
MAX_DIM = 15


def check_dimension(m):
    """ValidationError unless ``m`` is odd, at least 3 and at most
    ``MAX_DIM``: the rule of every chart, which a preset applies to its
    size before it names the coordinates."""
    if m < 3 or m % 2 == 0:
        raise ValidationError(f"chart dimension must be odd and >= 3, got {m}")
    if m > MAX_DIM:
        raise ValidationError(
            f"chart dimension must be at most {MAX_DIM}, got {m}")


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: dimension, coordinate names, and sampling box."""

    coordinates: tuple
    box: tuple  # per-coordinate (lo, hi) closed intervals

    def __post_init__(self):
        m = len(self.coordinates)
        check_dimension(m)
        if len(self.box) != m:
            raise ValidationError("box must give one interval per coordinate")
        for i, (lo, hi) in enumerate(self.box):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValidationError(
                    f"box interval {i} ({lo}, {hi}) is not finite")
            if not lo < hi:
                raise ValidationError(f"empty box interval ({lo}, {hi})")
            if not math.isfinite(hi - lo):
                raise ValidationError(f"box interval {i} ({lo}, {hi}) is "
                                      f"wider than the float range")

    @property
    def dim(self):
        return len(self.coordinates)

    @property
    def n(self):
        return (self.dim - 1) // 2


def _flags(jet):
    """Per-point mask of the points where ``jet`` is not a number: some
    coefficient is not finite."""
    return ~np.isfinite(jet.c).reshape(len(jet.c), -1).all(axis=1)


# ---------------------------------------------------------------------------
# Linear algebra on tensor jets
#
# Sums run left to right over the inner index and the elimination pivots
# on the values exactly like the scalar loops these replace, so every
# batch entry carries the rounding of a point-by-point evaluation.
#
# A frame's algebra, and the hyperboloid's tangent products, also carry
# a liveness pattern: one boolean per matrix entry, false where the
# entry is zero in every coefficient at every point.  The pattern comes
# from the structure (a frame entry without variables whose value is ±0
# is dead; the hyperboloid's tangent frame is the identity and one
# column), never from a batch's values, so a point gets the same
# arithmetic in any batch; each structure plans its products and its
# elimination (the hyperboloid's all live) once, when it is built.
# Products and eliminations skip every term with a dead operand.  Such
# a term is x ± 0·y, so a result can differ from the full computation
# only in the sign of an exact zero, and where y is not finite: the 0·y
# would have spread a NaN (a frame entry that is not finite rejects its
# point anyway).
# ---------------------------------------------------------------------------

class _MatMulPlan:
    """The plan of A @ B (m x k times k x r) for a jet A and a factor B
    of fixed patterns.  ``a`` is the pattern of A (booleans); ``b`` is
    the pattern of a jet B, or a constant B itself (live where
    nonzero); ``live`` is the pattern of the product, the boolean
    product of the two.

    Entry (i, j) adds the terms A[i, e] B[e, j] whose two factors are
    live, left to right in e, to an exact zero.  ``steps`` holds one
    step per inner index e: the live rows of A[:, e] by the live
    columns of B[e, :] (see :func:`_span`), as (index in A, index in B,
    block of C), each step adding its products to its block of C.
    """

    def __init__(self, a, b):
        live_b = b != 0
        self.live = (a[:, :, None] & live_b[None]).any(axis=1)
        self.steps = []
        for e, (rows, cols) in enumerate(zip(a.T, live_b)):
            rows, cols = _span(np.flatnonzero(rows)), _span(np.flatnonzero(cols))
            if rows is not None and cols is not None:
                self.steps.append(((rows, e, None), (None, e, cols),
                                   _block(rows, cols)))


def _mat_mul(A, B, plan):
    """A @ B for a tensor jet A and a tensor jet or constant array B
    (m x k times k x r), one block per step of a :class:`_MatMulPlan`
    of their patterns; off its ``live`` pattern C is exact zeros."""
    c = np.zeros((len(A.c), *plan.live.shape, A.c.shape[-1]))
    for a, b, out in plan.steps:
        c[out] += (A[a] * B[b]).c
    return Jet(c, A.layout)


def _span(ix):
    """The ascending index array ``ix`` as a slice when its entries are
    consecutive (basic indexing is the faster), else as it is; None when
    it is empty."""
    if not ix.size:
        return None
    if ix[-1] - ix[0] == ix.size - 1:
        return slice(ix[0], ix[-1] + 1)
    return ix


def _block(rows, cols):
    """The index of the block ``rows`` x ``cols`` of a batch matrix."""
    if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray):
        rows = rows[:, None]
    return slice(None), rows, cols


def _transpose(A):
    return Jet(A.c.swapaxes(1, 2), A.layout)


def sparse_elimination(live):
    """The plan of a Gauss-Jordan elimination of W = [A | B] that skips
    the entries the pattern ``live`` (m x (m + r) booleans) marks dead
    (all live: the full elimination).

    Returns ``(steps, solved)``, ``solved`` the pattern of W after the
    elimination (X's is ``solved[:, m:]``).  ``steps[col]`` is
    ``(search, rows, updates)``: false where no row but the pivot row
    can pivot (the others are exact zeros); the other rows live in the
    pivot column (see :func:`_span`); and the blocks of those rows and
    the columns right of the pivot live in the pivot row, as (index in
    W, slice of ``rows``, columns).  A block beyond (m - 1) max(m, r)
    entries, the bound on product temporaries, is split at the pivot
    row (the rows on one side are often consecutive: a view, updated in
    place), then at the A|B boundary.  Before each column the rows that
    may pivot there share the union of their patterns, so that no swap
    moves a live entry to a dead place; the entries a step updates
    become live (fill-in).
    """
    live = np.array(live, dtype=bool)
    m, width = live.shape
    bound = (m - 1) * max(m, width - m)
    steps = []
    for col in range(m):
        pivots = live[col:, col].copy()
        pivots[0] = True
        live[col:][pivots] = live[col:][pivots].any(axis=0)
        rows = np.flatnonzero(live[:, col])
        rows = rows[rows != col]
        right = col + 1 + np.flatnonzero(live[col, col + 1:])
        live[rows[:, None], right] = True
        above = np.searchsorted(rows, col)
        updates = []
        for part in ([slice(None)] if rows.size * right.size <= bound
                     else [slice(0, above), slice(above, None)]):
            for b in ([right] if rows[part].size * right.size <= bound
                      else [right[right < m], right[right >= m]]):
                if rows[part].size and b.size:
                    updates.append((_block(_span(rows[part]), _span(b)),
                                    part, _span(b)))
        steps.append((bool(pivots[1:].any()), _span(rows), updates))
    return steps, live


def gauss_jordan(A, B, plan):
    """Solve A X = B at every point of a batch by Gauss-Jordan elimination
    with partial pivoting on the values.

    ``A`` is an m x m and ``B`` an m x r tensor jet.  Returns X and the
    per-point determinant estimate (product of the pivots with swap
    sign), NaN where a pivot is numerically zero (``|pivot| <=
    _DIV_GUARD``, or NaN); the caller applies its own threshold.

    It runs by ``plan``, from :func:`sparse_elimination`: per column a
    pivot search where the plan allows a swap, one quotient of the live
    rows of the pivot column by the pivot and the plan's block updates
    of W = [A | B]; then one division over the live entries of X, whose
    other entries are exact zeros.
    """
    W = np.concatenate([A.c, B.c], axis=2)
    count, m = A.c.shape[:2]
    steps, solved = plan
    points = np.arange(count)
    det = np.ones(count)
    for col, (search, rows, updates) in enumerate(steps):
        if search:
            piv = col + np.argmax(np.abs(W[:, col:, col, 0]), axis=1)
            W[points, col], W[points, piv] = W[points, piv], W[points, col]
            det = np.where(piv != col, -det, det)
        pval = W[:, col, col, 0]
        det = np.where(np.abs(pval) > _DIV_GUARD, det * pval, np.nan)
        if updates:
            factor = (Jet(W[:, rows, col, None], A.layout)
                      / Jet(W[:, None, None, col, col], A.layout))
            for block, part, right in updates:
                W[block] -= (factor[part] * Jet(
                    W[:, None, col, right], A.layout)).c
    rows, cols = np.nonzero(solved[:, m:])
    c = np.zeros((count, m, W.shape[2] - m, W.shape[3]))
    c[:, rows, cols] = (Jet(W[:, rows, m + cols], A.layout)
                        / Jet(W[:, rows, rows], A.layout)).c
    return Jet(c, A.layout), det


# ---------------------------------------------------------------------------
# Structure realizations
# ---------------------------------------------------------------------------

class _Structure:
    """Chart accessors shared by the realizations.

    A realization's ``component_jets(xs)`` maps the coordinate jets of a
    batch to ``((g, phi, xi, eta), checks)``: the components as tensor
    jets, and its own rejection tests as ``(mask, error class)`` pairs
    in priority order, which :func:`structure_jets` applies.
    """

    @property
    def dim(self):
        return self.chart.dim

    @property
    def n(self):
        return self.chart.n


class CoordinateStructure(_Structure):
    """Structure whose coordinate-basis components are given directly.

    ``g_entries``/``phi_entries`` are m x m nested sequences and
    ``xi_entries``/``eta_entries`` length-m sequences of expression
    nodes over the chart coordinates.
    """

    def __init__(self, chart, g_entries, phi_entries, xi_entries, eta_entries):
        self.chart = chart
        m = chart.dim
        if len(g_entries) != m or len(phi_entries) != m:
            raise ValueError("component matrices must be m x m")
        self._trees = SharedTrees(
            (g_entries, phi_entries, xi_entries, eta_entries))
        self._entries = self._trees.entries

    def component_jets(self, xs):
        return tuple(tensor(part, xs[0])
                     for part in self._trees.evaluate(xs)), []


class FrameStructure(_Structure):
    """Structure given by a moving frame with constant frame-basis tensors.

    ``frame`` is an m x m matrix of expression nodes; column ``a`` holds
    the coordinate components of the frame field e_a.  The frame-basis
    metric ``g_hat``, endomorphism ``phi_hat``, vector ``xi_hat`` and
    covector ``eta_hat`` are constant.  At each point the coordinate
    components are
        phi = E phi_hat E^-1,  xi = E xi_hat,
        eta = eta_hat E^-1,    g = E^-T g_hat E^-1,
    with the inverse and every product carried out on jets so
    derivatives flow through (eta as the vector E^-T eta_hat, so that
    every product has a jet on its left).

    A frame entry without variables whose value is ±0 is zero at every
    point.  The inverse (:func:`sparse_elimination`, with the identity
    live on its diagonal) and the six products (:class:`_MatMulPlan`,
    one block per live inner index, constant tensor or jet) skip such
    entries, the zero entries of the constant tensors and every term
    with one of them as a factor; all are planned at construction.
    """

    def __init__(self, chart, frame, g_hat, phi_hat, xi_hat, eta_hat):
        self.chart = chart
        m = chart.dim
        self._trees = SharedTrees(frame)
        self._frame = self._trees.entries
        self.g_hat = np.array(g_hat, dtype=float)
        self.phi_hat = np.array(phi_hat, dtype=float)
        self.xi_hat = np.array(xi_hat, dtype=float)
        self.eta_hat = np.array(eta_hat, dtype=float)
        if len(self._frame) != m:
            raise ValueError("frame matrix must be m x m")
        live = self._live_entries()
        self._plan = sparse_elimination(
            np.concatenate([live, np.eye(m, dtype=bool)], axis=1))
        live_inv = self._plan[1][:, m:]
        E_phi = _MatMulPlan(live, self.phi_hat)
        inv_g = _MatMulPlan(live_inv.T, self.g_hat)
        self._products = (E_phi, _MatMulPlan(E_phi.live, live_inv),
                          _MatMulPlan(live, self.xi_hat[:, None]),
                          _MatMulPlan(live_inv.T, self.eta_hat[:, None]),
                          inv_g, _MatMulPlan(inv_g.live, live_inv))

    def _live_entries(self):
        """The pattern of E: false at the entries without variables whose
        value is ±0, read off one walk at a single point.  A walk that
        raises (an error in a constant subexpression, which every batch
        evaluation reports) leaves every entry live."""
        try:
            with np.errstate(all="ignore"):
                entries = self.frame_matrix(
                    coordinate_jets(np.zeros((1, self.dim)), 0))
        except (ArithmeticError, DomainError):
            return np.ones((self.dim, self.dim), dtype=bool)
        return np.array([[isinstance(e, Jet) or e != 0.0 for e in row]
                         for row in entries])

    def frame_matrix(self, xs):
        """The frame entries evaluated at coordinate scalars, in one
        walk of all of them."""
        return self._trees.evaluate(xs)

    def component_jets(self, xs):
        E = tensor(self.frame_matrix(xs), xs[0])
        identity = tensor(np.eye(self.dim).tolist(), xs[0])
        Einv, det = gauss_jordan(E, identity, self._plan)
        E_phi, phi, xi, eta, inv_g, g = self._products  # the plans
        phi = _mat_mul(_mat_mul(E, self.phi_hat, E_phi), Einv, phi)
        xi = _mat_mul(E, self.xi_hat[:, None], xi)[:, 0]
        Einv_T = _transpose(Einv)
        eta = _mat_mul(Einv_T, self.eta_hat[:, None], eta)[:, 0]
        g = _mat_mul(_mat_mul(Einv_T, self.g_hat, inv_g), Einv, g)
        return (g, phi, xi, eta), [(_flags(E), DomainError),
                                   (~(np.abs(det) >= _MIN_FRAME_DET),
                                    SingularFrame)]


class HyperboloidStructure(_Structure):
    """Structure induced on the unit pseudosphere of para-Kahler flat space.

    The ambient space is R^(2n+2) with metric G = diag(+1 x (n+1),
    -1 x (n+1)) and the product map J swapping the first and last n+1
    coordinates.  The hypersurface is the quadric
        sum_{A<=n+1} x_A^2 - sum_{A>n+1} x_A^2 = -1,
    parametrized on the patch x_{2n+2} > 0 as a graph over the first
    2n+1 ambient coordinates, x_{2n+2} = s = sqrt(arg).  With position
    field N (G(N,N) = -1) the induced structure is
        xi = -J N,   J X = phi X - eta(X) N,   g = G restricted,
    realized on jets: the tangent vectors are the rows of the m x (m+1)
    frame T, T_i = e_i + (σ_i u_i / s) e_last (σ_i the sign of u_i^2 in
    arg, the m quotients taken as one); with Σ = diag(G),
        g = (T Σ) Tᵀ,   B = (T Σ) (T J)ᵀ,   eta = (T Σ) xi,
    sparse products (:class:`_MatMulPlan`) of the pattern of T, the
    identity and the last column; phi and xi solve g · [phi | xi] =
    [B | eta] by the full elimination, planned like the products once
    per structure.  The determinant of g is ±1/arg, so inside the box
    no metric is degenerate where the patch test passes.
    """

    def __init__(self, n):
        if n < 1:
            raise ValidationError("n must be >= 1")
        m = 2 * n + 1
        check_dimension(m)
        coords = tuple(f"u{i}" for i in range(1, m + 1))
        self.chart = Chart(coords, tuple((-0.8, 0.8) for _ in range(m)))
        self.ambient_dim = 2 * n + 2
        half = n + 1
        self._signs = np.array([1.0] * half + [-1.0] * half)
        self._J = [(A + half) % self.ambient_dim
                   for A in range(self.ambient_dim)]
        live_T = np.eye(m, m + 1, dtype=bool)
        live_T[:, m] = True
        self._products = (
            _MatMulPlan(live_T, live_T.T),
            _MatMulPlan(live_T, np.concatenate(
                [live_T[:, self._J].T, np.ones((m + 1, 1), bool)], axis=1)))
        self._plan = sparse_elimination(np.ones((m, 2 * m + 1), dtype=bool))

    def _graph_arg(self, xs):
        arg = 1.0
        for i, x in enumerate(xs):
            if i < self.n + 1:
                arg = arg + x * x
            else:
                arg = arg - x * x
        return arg

    def _tangent_products(self, xs, s):
        """g = (T Σ) Tᵀ and [B | eta] = (T Σ) [(T J)ᵀ | xi]."""
        m = self.dim
        T = np.zeros((len(s.c), m, m + 1, s.c.shape[-1]))
        T[:, range(m), range(m), 0] = 1.0
        T[:, :, m] = (tensor(list(xs), s) * self._signs[:m]
                      / s._new(s.c[:, None])).c
        T = Jet(T, s.layout)
        T_sigma = T * self._signs
        xi = -tensor(list(xs) + [s], s)[self._J]
        right = np.concatenate([T.c[:, :, self._J].swapaxes(1, 2),
                                xi.c[:, :, None]], axis=2)
        g, rhs = self._products  # the plans
        return (_mat_mul(T_sigma, _transpose(T), g),
                _mat_mul(T_sigma, Jet(right, s.layout), rhs))

    def component_jets(self, xs):
        m = self.dim
        arg = self._graph_arg(xs)
        outside = ~(arg.v >= _MIN_PATCH_MARGIN)
        g, rhs = self._tangent_products(xs, sqrt(arg))
        sol = gauss_jordan(g, rhs, self._plan)[0]
        return (g, sol[:, :m], sol[:, m], rhs[:, m]), [(outside, OutsidePatch)]


# ---------------------------------------------------------------------------
# Batched evaluation and per-point rejection
# ---------------------------------------------------------------------------

def structure_jets(structure, points, order=2, directions=None):
    """(g, phi, xi, eta) as jets at a batch of points, and the rejections.

    ``directions`` seeds other derivative directions than the coordinate
    axes (see :func:`paracr.jets.coordinate_jets`).  This is where every
    rejection is decided: ``rejected`` is an object array, None for an
    accepted point and otherwise the error class that rejects it, the
    first that applies of the structure's own tests, DomainError for a
    non-finite coefficient anywhere in the components (a domain
    violation leaves one), and DegenerateMetric where |det g| is below
    ``_MIN_METRIC_DET``.  Arithmetic and domain errors in constant
    subexpressions hit every point alike and raise DomainError naming
    the cause.
    """
    points = np.asarray(points, dtype=float)
    xs = coordinate_jets(points, order, directions)
    try:
        with np.errstate(all="ignore"):
            parts, checks = structure.component_jets(xs)
    except (ArithmeticError, DomainError) as exc:
        raise DomainError(
            f"{type(exc).__name__} in a component expression: {exc}") from exc
    broken = np.any([_flags(part) for part in parts], axis=0)
    with np.errstate(all="ignore"):
        degenerate = np.abs(np.linalg.det(parts[0].v)) < _MIN_METRIC_DET
    masks, errors = zip(*checks, (broken, DomainError),
                        (degenerate, DegenerateMetric))
    return parts, np.select(masks, errors, None)


def _partials(jet, order):
    """Order-``order`` partials with the derivative axes moved right
    after the point axis."""
    block = jet._block(order)
    last = block.ndim
    return np.ascontiguousarray(
        np.moveaxis(block, range(last - order, last), range(1, 1 + order)))


def structure_arrays(structure, points):
    """Evaluate the structure and its partials to second order at a batch
    of points (P x m), one walk of every expression for the whole batch,
    and keep the points that :func:`structure_jets` accepts.

    Returns ``(batch, rejected)``: the FrameBatch of the accepted points
    in their order, and the rejections of :func:`structure_jets`.
    """
    points = np.asarray(points, dtype=float)
    parts, rejected = structure_jets(structure, points)
    keep = np.equal(rejected, None)
    fields = {}
    for name, jet in zip(("g", "phi", "xi", "eta"), parts):
        jet = jet._new(jet.c[keep])
        fields[name] = _partials(jet, 0)
        fields["d" + name] = _partials(jet, 1)
        fields["d2" + name] = _partials(jet, 2)
    return FrameBatch(structure, points[keep], fields), rejected


def _amax(x):
    """max |x| over every axis but the leading point axis."""
    return np.max(np.abs(x), axis=tuple(range(1, np.ndim(x))))


def _mv(A, v):
    """A @ v over leading batch axes: one gemv per point, as for 2-D A."""
    return (A @ v[..., None])[..., 0]


def _dot(u, v):
    """u · v over leading batch axes: one dot per point, as for 1-D u."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


# Step of the central differences in :func:`directional_residuals`: with
# their h^2 terms taken out, the truncation error is O(h^4), and the
# subtraction roundoff (eps |f| / 2h) stays near 1e-11 of the jets' scale.
_FD_STEP = 1e-5


def directional_residuals(batch, directions):
    """Per-point cross-checks of a :class:`FrameBatch`'s jets along
    ``directions[p, j]`` (P x k x m unit vectors).

    The structure is re-evaluated, in one :func:`structure_jets` call,
    with univariate order-2 jets along u = directions[p, j] at x - h u,
    x and x + h u (x the point, h = ``_FD_STEP``).  Returns ``(mixed,
    fd, excluded)``, each of length P:

    - ``mixed``: the worst of the gap between D²_u at x and uᵀ(d2)u, and
      of the asymmetry |d2 - d2ᵀ|, over d2g, d2phi, d2xi and d2eta, each
      scaled by max(1, max |d2|); NaN where a centre row is rejected;
    - ``fd``: the worst central-difference gap of the values at x ± h u
      against D_u at x, and of D_u at x ± h u against D²_u at x, each
      scaled by max(1, max |jet|); the differences' h² error terms are
      taken out with the D²_u of the three rows (h/12 (D²_u(x + h u) -
      D²_u(x - h u)) and (D²_u(x + h u) + D²_u(x - h u) - 2 D²_u(x)) / 6),
      which leaves an O(h⁴) error;
    - ``excluded``: true where any stencil row is rejected, so that
      ``fd`` there means nothing.
    """
    count, k, m = directions.shape
    u = directions.reshape(-1, m)
    rows = (np.repeat(batch.points, k, axis=0)[:, None]
            + np.array([-_FD_STEP, 0.0, _FD_STEP])[:, None] * u[:, None])
    parts, rejected = structure_jets(batch.structure, rows.reshape(-1, m), 2,
                                     np.repeat(u, 3, axis=0)[:, :, None])
    failed = np.not_equal(rejected, None).reshape(count, k, 3)
    mixed, fd = [], []
    with np.errstate(all="ignore"):
        for name, jet in zip(("d2g", "d2phi", "d2xi", "d2eta"), parts):
            # c[p, j, row, entry, slot]: value, D_u and D²_u at each row
            c = jet.c.reshape(count, k, 3, -1, 3)
            arr = getattr(batch, name).reshape(count, m, m, -1)
            scale = np.maximum(1.0, _amax(arr))
            quad = np.sum((directions @ arr.reshape(count, m, -1)).reshape(
                count, k, m, -1) * directions[..., None], axis=2)
            mixed.append(np.maximum(_amax(quad - c[:, :, 1, :, 2]),
                                    _amax(arr - arr.swapaxes(1, 2))) / scale)
            d2 = c[:, :, :, :, 2]
            h2_terms = (_FD_STEP / 12.0 * (d2[:, :, 2] - d2[:, :, 0]),
                        (d2[:, :, 2] + d2[:, :, 0] - 2.0 * d2[:, :, 1]) / 6.0)
            for low in (0, 1):
                jet_d = c[:, :, 1, :, low + 1]
                diff = (c[:, :, 2, :, low] - c[:, :, 0, :, low]) / (
                    2.0 * _FD_STEP) - h2_terms[low]
                fd.append(_amax(diff - jet_d)
                          / np.maximum(1.0, _amax(jet_d)))
    mixed = np.where(failed[:, :, 1].any(axis=1), np.nan,
                     np.max(mixed, axis=0))
    return mixed, np.max(fd, axis=0), failed.any(axis=(1, 2))


# ---------------------------------------------------------------------------
# Field helpers (values + jacobians; leading axes are batch axes)
# ---------------------------------------------------------------------------

def lie_bracket(X_vals, X_jac, Y_vals, Y_jac):
    """[X,Y]^k = X^a ∂_a Y^k − Y^a ∂_a X^k  (jac[a,k] = ∂_a field^k)."""
    return (np.einsum('...a,...ak->...k', X_vals, Y_jac)
            - np.einsum('...a,...ak->...k', Y_vals, X_jac))


def d_one_form(jac):
    """Exterior derivative of a 1-form: dω[i,j] = ½(∂_i ω_j − ∂_j ω_i)."""
    return 0.5 * (jac - np.swapaxes(jac, -1, -2))


def d_two_form(jac):
    """Exterior derivative of an antisymmetric 2-form over coordinate fields:
    dΩ[i,j,k] = ⅓(∂_i Ω_jk + ∂_j Ω_ki + ∂_k Ω_ij)."""
    return (jac + np.einsum('...jki->...ijk', jac)
            + np.einsum('...kij->...ijk', jac)) / 3.0


def projected_field(proj, dproj, u):
    """Field q ↦ proj(q)·u for constant u: values and jacobian."""
    return _mv(proj, u), np.einsum('...akb,...b->...ak', dproj, u)


def phi_applied_field(phi, dphi, vals, jac):
    """Values and jacobian of q ↦ phi(q)·X(q) given those of X."""
    return (_mv(phi, vals),
            np.einsum('...akb,...b->...ak', dphi, vals)
            + np.einsum('...kb,...ab->...ak', phi, jac))


# ---------------------------------------------------------------------------
# FrameBatch: one structure at a batch of points
# ---------------------------------------------------------------------------

ARRAY_NAMES = ("g", "dg", "d2g", "phi", "dphi", "d2phi",
               "xi", "dxi", "d2xi", "eta", "deta", "d2eta")


class FrameBatch:
    """All tensor data of a structure at a batch of points.

    Holds the base arrays -- values and first/second partials of g, phi,
    xi, eta, with the point axis first and the derivative axes next
    (``dg[p, a, i, j]`` = ∂_a g_ij at point p) -- and derives the
    Levi-Civita connection, curvature tensors, covariant derivatives of
    the structure tensors, the h-operator, differential forms,
    projectors and the engine self-test residuals for the whole batch
    at once, as cached properties with the point axis first.  Every
    point gets the arithmetic of a one-point batch; nothing is
    symmetrized by fiat.  The points are accepted ones (see
    :func:`structure_arrays`), so every metric is invertible.
    """

    def __init__(self, structure, points, arrays):
        self.structure = structure
        self.m = structure.dim
        self.points = np.asarray(points, dtype=float).reshape(-1, self.m)
        for name in ARRAY_NAMES:
            setattr(self, name, arrays[name])

    @classmethod
    def concat(cls, batches):
        """One batch over the points of ``batches`` (of one structure)."""
        structure = batches[0].structure
        if any(b.structure is not structure for b in batches):
            raise ValueError("batches of different structures")
        return cls(structure, np.concatenate([b.points for b in batches]),
                   {name: np.concatenate([getattr(b, name) for b in batches])
                    for name in ARRAY_NAMES})

    def __len__(self):
        return len(self.points)

    def __getitem__(self, index):
        """Row ``index`` as a PointFrame; iterating a batch yields its
        rows in point order."""
        index = range(len(self))[index]
        return PointFrame(self.structure, self.points[index], self, index)

    def rows(self, index):
        """The batch restricted to ``index`` (a slice or an index array),
        keeping the arrays computed so far."""
        sub = object.__new__(FrameBatch)
        sub.structure, sub.m = self.structure, self.m
        for key, value in vars(self).items():
            if isinstance(value, np.ndarray):
                vars(sub)[key] = value[index]
        return sub

    # -- metric inverses and their derivatives ------------------------------

    @cached_property
    def ginv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def dginv(self):
        return -np.einsum('pij,pajk,pkl->pail', self.ginv, self.dg, self.ginv)

    # -- Levi-Civita connection ---------------------------------------------

    @cached_property
    def _dg_comb(self):
        # A[i,j,l] = ∂_i g_jl + ∂_j g_il − ∂_l g_ij
        dg = self.dg
        return dg + dg.transpose(0, 2, 1, 3) - dg.transpose(0, 2, 3, 1)

    @cached_property
    def _ddg_comb(self):
        d2g = self.d2g
        return (d2g + d2g.transpose(0, 1, 3, 2, 4)
                - d2g.transpose(0, 1, 3, 4, 2))

    @cached_property
    def Gamma(self):
        return 0.5 * np.einsum('pkl,pijl->pkij', self.ginv, self._dg_comb)

    @cached_property
    def dGamma(self):
        return 0.5 * (
            np.einsum('pakl,pijl->pakij', self.dginv, self._dg_comb)
            + np.einsum('pkl,paijl->pakij', self.ginv, self._ddg_comb))

    # -- curvature ----------------------------------------------------------

    @cached_property
    def gamma_gamma(self):
        """(Γ·Γ)[k,a,b,j] = Γ^k_ae Γ^e_bj."""
        return np.einsum('pkae,pebj->pkabj', self.Gamma, self.Gamma)

    @cached_property
    def Riem(self):
        return (np.einsum('pakbj->pkabj', self.dGamma)
                - np.einsum('pbkaj->pkabj', self.dGamma)
                + self.gamma_gamma
                - self.gamma_gamma.transpose(0, 1, 3, 2, 4))

    @cached_property
    def Ric(self):
        return np.einsum('paayz->pyz', self.Riem)

    @cached_property
    def r(self):
        return np.einsum('pyz,pyz->p', self.ginv, self.Ric)

    @cached_property
    def Ric_star(self):
        return -np.einsum('pak,pkayc,pcz->pyz', self.phi, self.Riem, self.phi)

    @cached_property
    def r_star(self):
        return np.einsum('pzy,pyz->p', self.ginv, self.Ric_star)

    # -- covariant derivatives ----------------------------------------------

    def covariant_11(self, vals, jac):
        """∇T[i,k,j] = ∂_i T^k_j + Γ^k_ie T^e_j − Γ^e_ij T^k_e."""
        return (jac + np.einsum('pkie,pej->pikj', self.Gamma, vals)
                - np.einsum('peij,pke->pikj', self.Gamma, vals))

    @cached_property
    def nabla_eta(self):
        """∇η[i,j] = ∂_i η_j − Γ^k_ij η_k."""
        return self.deta - np.einsum('pkij,pk->pij', self.Gamma, self.eta)

    @cached_property
    def nabla_xi(self):
        """∇ξ[i,k] = ∂_i ξ^k + Γ^k_ie ξ^e."""
        return self.dxi + np.einsum('pkie,pe->pik', self.Gamma, self.xi)

    @cached_property
    def nabla_phi(self):
        return self.covariant_11(self.phi, self.dphi)

    # -- the h-operator and its covariant derivative ------------------------

    @cached_property
    def h(self):
        """h = ½ (Lie derivative of phi along xi)."""
        return 0.5 * (np.einsum('pa,pakj->pkj', self.xi, self.dphi)
                      - np.einsum('paj,pak->pkj', self.phi, self.dxi)
                      + np.einsum('pka,pja->pkj', self.phi, self.dxi))

    @cached_property
    def dh(self):
        return 0.5 * (np.einsum('pia,pakj->pikj', self.dxi, self.dphi)
                      + np.einsum('pa,piakj->pikj', self.xi, self.d2phi)
                      - np.einsum('piaj,pak->pikj', self.dphi, self.dxi)
                      - np.einsum('paj,piak->pikj', self.phi, self.d2xi)
                      + np.einsum('pika,pja->pikj', self.dphi, self.dxi)
                      + np.einsum('pka,pija->pikj', self.phi, self.d2xi))

    @cached_property
    def nabla_h(self):
        return self.covariant_11(self.h, self.dh)

    # -- differential forms --------------------------------------------------

    @cached_property
    def dEta(self):
        """The 2-form dη with the convention dη(X,Y) = ½(Xη(Y) − Yη(X))."""
        return d_one_form(self.deta)

    @cached_property
    def Phi(self):
        """Fundamental 2-form Φ[i,j] = g(e_i, phi e_j)."""
        return np.einsum('pik,pkj->pij', self.g, self.phi)

    @cached_property
    def dPhi_partial(self):
        return (np.einsum('paik,pkj->paij', self.dg, self.phi)
                + np.einsum('pik,pakj->paij', self.g, self.dphi))

    @cached_property
    def dPhi(self):
        return d_two_form(self.dPhi_partial)

    @cached_property
    def ddEta(self):
        """d(dη): must vanish — an engine self-test with real teeth, since
        every partial is computed independently."""
        return d_two_form(d_one_form(self.d2eta))

    # -- projectors onto the contact distribution ----------------------------

    @cached_property
    def P(self):
        """Projector onto D = ker η along ξ: P = I − ξ⊗η."""
        return np.eye(self.m) - self.xi[:, :, None] * self.eta[:, None, :]

    @cached_property
    def dP(self):
        return -(np.einsum('pak,pj->pakj', self.dxi, self.eta)
                 + np.einsum('pk,paj->pakj', self.xi, self.deta))

    @cached_property
    def Qplus(self):
        """Projector field onto the +1 eigendistribution of phi on D."""
        return 0.5 * (self.P + self.phi)

    @cached_property
    def dQplus(self):
        return 0.5 * (self.dP + self.dphi)

    @cached_property
    def Qminus(self):
        return 0.5 * (self.P - self.phi)

    @cached_property
    def dQminus(self):
        return 0.5 * (self.dP - self.dphi)

    # -- engine self-test residuals ([P] each) -------------------------------

    @cached_property
    def metric_symmetry(self):
        return _amax(self.g - self.g.transpose(0, 2, 1))

    @cached_property
    def inverse_identity(self):
        return _amax(self.g @ self.ginv - np.eye(self.m))

    @cached_property
    def gamma_symmetry(self):
        return _amax(self.Gamma - self.Gamma.transpose(0, 1, 3, 2))

    @cached_property
    def nabla_g(self):
        return _amax(self.dg
                     - np.einsum('peai,pej->paij', self.Gamma, self.g)
                     - np.einsum('peaj,pie->paij', self.Gamma, self.g))

    @cached_property
    def bianchi(self):
        """First Bianchi identity, scaled by the curvature magnitude."""
        R = self.Riem
        cyc = R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3)
        return _amax(cyc) / np.maximum(1.0, _amax(R))

    @cached_property
    def riemann_skew(self):
        """g(R(A,B)C, D) + g(R(A,B)D, C), scaled."""
        low = np.einsum('pck,pkabj->pcabj', self.g, self.Riem)
        return (_amax(low + low.transpose(0, 4, 2, 3, 1))
                / np.maximum(1.0, _amax(low)))

    @cached_property
    def dd_eta(self):
        return _amax(self.ddEta) / np.maximum(1.0, _amax(self.d2eta))


# ---------------------------------------------------------------------------
# PointFrame: one point of a batch
# ---------------------------------------------------------------------------

class PointFrame:
    """One structure at one chart point: a row of a :class:`FrameBatch`.

    Every array of the batch reads as this point's row (``pf.Riem`` is
    ``pf.batch.Riem[pf.index]``, and a 0-d row such as the self-test
    residual ``pf.bianchi`` as a float), so each formula exists once,
    for the batch.  Without a batch the frame builds a one-point batch
    of its own with :func:`structure_arrays`, and a rejected point
    raises an instance of its error class there, naming the point.
    """

    def __init__(self, structure, point, batch=None, index=0):
        self.point = tuple(float(x) for x in point)
        if batch is None:
            batch, (rejected,) = structure_arrays(structure, [point])
            if rejected is not None:
                raise rejected(f"the structure is rejected at {self.point}")
        self.structure = structure
        self.m = structure.dim
        self.batch = batch
        self.index = index

    def __getattr__(self, name):
        if name.startswith("_") or name == "batch":
            raise AttributeError(name)
        value = getattr(self.batch, name)
        if not isinstance(value, np.ndarray):
            raise AttributeError(name)
        row = value[self.index]
        row = float(row) if row.ndim == 0 else row
        vars(self)[name] = row
        return row
