"""Pointwise pseudo-Riemannian machinery.

A *structure* object carries a chart and produces the quadruplet
(g, phi, xi, eta) — metric, (1,1)-endomorphism, Reeb vector, contact
1-form — as batched Taylor jets (:mod:`paracr.jets`): one pass over a
batch of chart points yields the values and the partial derivatives of
every component at all of them.  Three realizations exist:

- :class:`CoordinateStructure`: components given directly in the
  coordinate basis as parsed expressions.
- :class:`FrameStructure`: a moving frame E with constant frame-basis
  tensors; coordinate components come from Gauss-Jordan elimination
  of E on the jets of a whole batch, which carries the partials
  ∂(E⁻¹) = −E⁻¹(∂E)E⁻¹ and their higher analogues through.
- :class:`HyperboloidStructure`: the structure induced on the unit
  pseudosphere of a flat para-Kahler ambient space, pulled back through
  an explicit graph parametrization with a closed-form tangent basis.

:func:`structure_arrays` evaluates a structure at a batch of points and
decides for each point whether it is rejected.  A :class:`PointFrame`
freezes one point of such a batch and derives the Levi-Civita
connection, curvature tensors, covariant derivatives of the structure
tensors, the h-operator, differential forms, and projectors —
everything downstream residual checks consume.

Index conventions (fixed throughout the package):
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
    DegeneratePlane,
    DomainError,
    OutsidePatch,
    SingularFrame,
    ValidationError,
    WrongDimension,
)
from .expr import eval_expr
from .jets import Jet, coordinate_jets, sqrt, tensor

_MIN_METRIC_DET = 1e-10
_MIN_FRAME_DET = 1e-6
_MIN_PATCH_MARGIN = 1e-6
_MIN_PLANE_GRAM = 1e-6


@dataclass(frozen=True)
class Chart:
    """A coordinate chart: dimension, coordinate names, and sampling box."""

    coordinates: tuple
    box: tuple  # per-coordinate (lo, hi) closed intervals

    def __post_init__(self):
        m = len(self.coordinates)
        if m < 3 or m % 2 == 0:
            raise ValidationError(
                f"chart dimension must be odd and >= 3, got {m}")
        if len(self.box) != m:
            raise ValidationError("box must give one interval per coordinate")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValidationError(f"empty box interval ({lo}, {hi})")

    @property
    def dim(self):
        return len(self.coordinates)

    @property
    def n(self):
        return (self.dim - 1) // 2


def _evaluate(entries, xs):
    """Evaluate a nested list of expression nodes at coordinate scalars."""
    if isinstance(entries, (list, tuple)):
        return [_evaluate(e, xs) for e in entries]
    return eval_expr(entries, xs)


def _flags(jet):
    """Per-point mask of the points where ``jet`` is not a number: a
    domain violation on the way, or a non-finite coefficient."""
    count = jet.c.shape[0]
    broken = ~np.isfinite(jet.c).reshape(count, -1).all(axis=1)
    return broken if jet.bad is None else broken | jet.bad


# ---------------------------------------------------------------------------
# Linear algebra on tensor jets
#
# Sums run left to right over the inner index and the elimination pivots
# on the values exactly like the scalar loops these replace, so every
# batch entry carries the rounding of a point-by-point evaluation.
# ---------------------------------------------------------------------------

def _sum(terms):
    total = None
    for term in terms:
        total = term if total is None else total + term
    return total


def _mat_mul(A, B):
    """A @ B for tensor jets or constant arrays (m x k times k x r)."""
    inner = A.c.shape[2] if isinstance(A, Jet) else A.shape[1]
    return _sum(A[:, e, None] * B[None, e, :] for e in range(inner))


def _mat_vec(A, v):
    """A @ v for a tensor jet A and a constant vector v."""
    return _sum(A[:, j] * v[j] for j in range(len(v)))


def _vec_mat(v, A):
    """v @ A for a constant vector v and a tensor jet A."""
    return _sum(v[i] * A[i] for i in range(len(v)))


def _transpose(A):
    return Jet(A.c.swapaxes(1, 2), A.bad, A.layout)


def gauss_jordan(A, B, min_det):
    """Solve A X = B at every point of a batch by Gauss-Jordan elimination
    with partial pivoting on the values.

    ``A`` is an m x m and ``B`` an m x r tensor jet.  Returns X and the
    per-point failure mask (a numerically zero pivot, or |det A| below
    ``min_det``) together with the determinant estimate (product of the
    pivots with swap sign).
    """
    M, X = A.c.copy(), B.c.copy()
    count, m = M.shape[:2]
    points = np.arange(count)
    det = np.ones(count)
    failed = np.zeros(count, dtype=bool)

    def jet(c):
        return Jet(c, A.bad, A.layout)

    for col in range(m):
        piv = col + np.argmax(np.abs(M[:, col:, col, 0]), axis=1)
        for arr in (M, X):
            arr[points, col], arr[points, piv] = arr[points, piv], \
                arr[points, col]
        det = np.where(piv != col, -det, det)
        pval = M[:, col, col, 0]
        failed |= ~(np.abs(pval) > 1e-300)
        det = det * pval
        others = [r for r in range(m) if r != col]
        factor = jet(M[:, others, col]) / jet(M[:, None, col, col])
        M[:, others, col:] = (jet(M[:, others, col:]) - factor[:, None]
                              * jet(M[:, None, col, col:])).c
        X[:, others] = (jet(X[:, others]) - factor[:, None]
                        * jet(X[:, None, col])).c
    diag = np.arange(m)
    X = jet(X) / jet(M[:, diag, diag])[:, None]
    failed |= ~(np.abs(det) >= min_det)
    return X, failed, det


# ---------------------------------------------------------------------------
# Structure realizations
# ---------------------------------------------------------------------------

class _Structure:
    """Chart accessors shared by the realizations.

    A realization's ``component_jets(xs)`` maps the coordinate jets of a
    batch to ``((g, phi, xi, eta), checks)``: the components as tensor
    jets, and its own rejection tests as ``(mask, error class,
    message(i))`` in priority order.
    """

    @property
    def dim(self):
        return self.chart.dim

    @property
    def n(self):
        return self.chart.n

    def components(self, point):
        """Values of (g, phi, xi, eta) at one point; raises the point's
        rejection."""
        parts, rejected = structure_jets(self, [point], order=0)
        if rejected[0] is not None:
            raise rejected[0]
        return tuple(part.v[0] for part in parts)


class CoordinateStructure(_Structure):
    """Structure whose coordinate-basis components are given directly.

    ``g_entries``/``phi_entries`` are m x m nested sequences and
    ``xi_entries``/``eta_entries`` length-m sequences of expression
    nodes over the chart coordinates.
    """

    def __init__(self, chart, g_entries, phi_entries, xi_entries, eta_entries):
        self.chart = chart
        m = chart.dim
        self._entries = (g_entries, phi_entries, xi_entries, eta_entries)
        if len(g_entries) != m or len(phi_entries) != m:
            raise ValueError("component matrices must be m x m")

    def component_jets(self, xs):
        return tuple(tensor(_evaluate(e, xs), xs[0])
                     for e in self._entries), []


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
    derivatives flow through.
    """

    def __init__(self, chart, frame, g_hat, phi_hat, xi_hat, eta_hat):
        self.chart = chart
        m = chart.dim
        self._frame = frame
        self.g_hat = np.array(g_hat, dtype=float)
        self.phi_hat = np.array(phi_hat, dtype=float)
        self.xi_hat = np.array(xi_hat, dtype=float)
        self.eta_hat = np.array(eta_hat, dtype=float)
        if len(self._frame) != m:
            raise ValueError("frame matrix must be m x m")

    def frame_matrix(self, xs):
        """The frame entries evaluated at coordinate scalars."""
        return _evaluate(self._frame, xs)

    def component_jets(self, xs):
        E = tensor(self.frame_matrix(xs), xs[0])
        identity = tensor(np.eye(self.dim).tolist(), xs[0])
        Einv, singular, det = gauss_jordan(E, identity, _MIN_FRAME_DET)
        phi = _mat_mul(_mat_mul(E, self.phi_hat), Einv)
        xi = _mat_vec(E, self.xi_hat)
        eta = _vec_mat(self.eta_hat, Einv)
        g = _mat_mul(_mat_mul(_transpose(Einv), self.g_hat), Einv)
        checks = [
            (_flags(E), DomainError,
             lambda i: "frame entries are not finite numbers here"),
            (singular, SingularFrame,
             lambda i: f"frame determinant {det[i]:.3e} below threshold "
                       f"{_MIN_FRAME_DET:.1e}"),
        ]
        return (g, phi, xi, eta), checks


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
    realized on jets: the tangent vectors are T_i = e_i + (σ_i u_i / s)
    e_last (σ_i the sign of u_i^2 in arg); g_ij = G(T_i, T_j);
    eta_i = G(T_i, xi); phi and xi solve an (m x m) linear system with
    the metric as coefficient matrix.
    """

    def __init__(self, n):
        if n < 1:
            raise ValueError("n must be >= 1")
        m = 2 * n + 1
        coords = tuple(f"u{i}" for i in range(1, m + 1))
        self.chart = Chart(coords, tuple((-0.8, 0.8) for _ in range(m)))
        self.ambient_dim = 2 * n + 2
        half = n + 1
        self._signs = [1.0] * half + [-1.0] * half
        self._J = [(A + half) % self.ambient_dim
                   for A in range(self.ambient_dim)]

    def _graph_arg(self, xs):
        arg = 1.0
        for i, x in enumerate(xs):
            if i < self.n + 1:
                arg = arg + x * x
            else:
                arg = arg - x * x
        return arg

    def _inner(self, U, V):
        """G(U, V) summed over the ambient index (the last tensor axis)."""
        return _sum(self._signs[A] * U[..., A] * V[..., A]
                    for A in range(self.ambient_dim))

    def embed(self, point):
        """Ambient coordinates of the chart point (last one by the graph)."""
        arg = self._graph_arg(point)
        if arg < _MIN_PATCH_MARGIN:
            raise OutsidePatch(
                f"graph-patch argument {arg:.3e} below "
                f"{_MIN_PATCH_MARGIN:.1e}")
        return list(point) + [math.sqrt(arg)]

    def component_jets(self, xs):
        m = self.dim
        arg = self._graph_arg(xs)
        outside = ~(arg.v >= _MIN_PATCH_MARGIN)
        s = sqrt(arg)
        T = tensor([[1.0 if A == i else 0.0 for A in range(m)]
                    + [self._signs[i] * xs[i] / s] for i in range(m)], s)
        xi_amb = -tensor(list(xs) + [s], s)[self._J]
        g = self._inner(T[:, None], T[None, :])
        eta = self._inner(T, xi_amb[None, :])
        B = self._inner(T[:, None], T[None, :, self._J])
        rhs = Jet(np.concatenate([B.c, eta.c[:, :, None]], axis=2), g.bad,
                  g.layout)
        sol, degenerate, det = gauss_jordan(g, rhs, _MIN_METRIC_DET)
        checks = [
            (outside, OutsidePatch,
             lambda i: f"graph-patch argument {arg.v[i]:.3e} below "
                       f"{_MIN_PATCH_MARGIN:.1e}"),
            (degenerate, DegenerateMetric,
             lambda i: f"metric determinant {det[i]:.3e} below threshold "
                       f"{_MIN_METRIC_DET:.1e}"),
        ]
        return (g, sol[:, :m], sol[:, m], eta), checks

    def quadric_residual(self, point):
        """|G(x,x) + 1| at the embedded point.  Since the position field is
        also the unit normal, this single number witnesses both that the
        point lies on the quadric and that G(N,N) = -1."""
        pos = self.embed(point)
        return abs(sum(s * x * x for s, x in zip(self._signs, pos)) + 1.0)


# ---------------------------------------------------------------------------
# Batched evaluation and per-point rejection
# ---------------------------------------------------------------------------

def structure_jets(structure, points, order=2, directions=None):
    """(g, phi, xi, eta) as jets at a batch of points, and the rejections.

    ``directions`` seeds other derivative directions than the coordinate
    axes (see :func:`paracr.jets.coordinate_jets`).  ``rejected[i]`` is
    None for an accepted point, else the error that rejects point i: the
    structure's own tests first, then DomainError for a domain violation
    or a non-finite coefficient anywhere in the components.  Arithmetic
    errors in constant subexpressions hit every point alike and raise
    DomainError.
    """
    points = np.asarray(points, dtype=float)
    xs = coordinate_jets(points, order, directions)
    try:
        with np.errstate(all="ignore"):
            parts, checks = structure.component_jets(xs)
    except ArithmeticError as exc:
        raise DomainError(
            f"{type(exc).__name__} in a component expression: {exc}") from exc
    broken = np.any([_flags(part) for part in parts], axis=0)
    checks.append((broken, DomainError,
                   lambda i: "domain error or non-finite value in the "
                             "structure components"))
    rejected = [None] * len(points)
    for mask, error, message in checks:
        for i in np.flatnonzero(mask):
            if rejected[i] is None:
                rejected[i] = error(message(i))
    return parts, rejected


@dataclass
class StructureArrays:
    """Values and first/second partials of (g, phi, xi, eta) at a batch
    of points.

    Every array has the point axis first and the derivative axes next
    (``dg[p, a, i, j]`` = ∂_a g_ij at point p).  ``rejected[p]`` is None
    for an accepted point and otherwise the error that rejects it.
    """

    g: np.ndarray
    dg: np.ndarray
    d2g: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    d2phi: np.ndarray
    xi: np.ndarray
    dxi: np.ndarray
    d2xi: np.ndarray
    eta: np.ndarray
    deta: np.ndarray
    d2eta: np.ndarray
    rejected: list


def _partials(jet, order):
    """Order-``order`` partials with the derivative axes moved right
    after the point axis."""
    block = getattr(jet, ("v", "d", "dd", "ddd")[order])
    last = block.ndim
    return np.ascontiguousarray(
        np.moveaxis(block, range(last - order, last), range(1, 1 + order)))


def structure_arrays(structure, points):
    """Evaluate the structure and its partials to second order at a batch
    of points (P x m), one walk of every expression for the whole batch."""
    parts, rejected = structure_jets(structure, points)
    fields = {}
    for name, jet in zip(("g", "phi", "xi", "eta"), parts):
        fields[name] = _partials(jet, 0)
        fields["d" + name] = _partials(jet, 1)
        fields["d2" + name] = _partials(jet, 2)
    return StructureArrays(rejected=rejected, **fields)


def third_metric_derivatives(structure, point):
    """d3g[a,b,c,i,j] = ∂_a ∂_b ∂_c g_ij from one order-3 evaluation."""
    parts, rejected = structure_jets(structure, [point], order=3)
    if rejected[0] is not None:
        raise rejected[0]
    return _partials(parts[0], 3)[0]


# Direction rows per polarization batch: the batch's memory grows with
# its rows, so frames of one structure are cross-checked a few at a time.
_POLAR_ROWS = 64


def mixed_partial_residuals(frames):
    """Second partials of every frame against an independent polarization
    cross-check, as worst scaled gaps.

    The structure is re-evaluated at each frame's point with univariate
    order-2 jets along e_a and e_a + e_b, whose second derivatives give
    ∂_a∂_b = ½(D²_{a+b} − D²_a − D²_b) without any multivariate mixed
    term.  The gap is taken against d2g, d2phi, d2xi and d2eta, scaled
    by max(1, max |array|); a frame whose re-evaluation is rejected
    gets NaN.
    """
    gaps = [[] for _ in frames]
    groups = {}
    for i, pf in enumerate(frames):
        groups.setdefault(id(pf.structure), []).append(i)
    for group in groups.values():
        structure = frames[group[0]].structure
        m = structure.dim
        ia, ib = np.triu_indices(m, 1)
        eye = np.eye(m)
        directions = np.concatenate([eye, eye[ia] + eye[ib]])
        rows = len(directions)
        step = max(1, _POLAR_ROWS // rows)
        for start in range(0, len(group), step):
            members = group[start:start + step]
            points = np.repeat([frames[i].point for i in members], rows,
                               axis=0)
            parts, rejected = structure_jets(
                structure, points, 2,
                np.tile(directions, (len(members), 1))[:, :, None])
            for name, jet in zip(("d2g", "d2phi", "d2xi", "d2eta"), parts):
                second = jet.dd[..., 0, 0].reshape(
                    (len(members), rows) + jet.v.shape[1:])
                diag = second[:, :m]
                polar = np.empty((len(members), m, m) + diag.shape[2:])
                polar[:, np.arange(m), np.arange(m)] = diag
                polar[:, ia, ib] = polar[:, ib, ia] = 0.5 * (
                    second[:, m:] - diag[:, ia] - diag[:, ib])
                for j, i in enumerate(members):
                    arr = getattr(frames[i], name)
                    scale = max(1.0, float(np.max(np.abs(arr))))
                    gaps[i].append(
                        float(np.max(np.abs(arr - polar[j]))) / scale)
            for j, i in enumerate(members):
                if any(rejected[j * rows:(j + 1) * rows]):
                    gaps[i].append(float("nan"))
    return [float(np.max(g)) for g in gaps]


# ---------------------------------------------------------------------------
# Field helpers (values + jacobians as numpy arrays)
# ---------------------------------------------------------------------------

def lie_bracket(X_vals, X_jac, Y_vals, Y_jac):
    """[X,Y]^k = X^a ∂_a Y^k − Y^a ∂_a X^k  (jac[a,k] = ∂_a field^k)."""
    return np.einsum('a,ak->k', X_vals, Y_jac) - np.einsum(
        'a,ak->k', Y_vals, X_jac)


def lie_derivative_11(V_vals, V_jac, T_vals, T_jac):
    """(L_V T)^k_j = V^a ∂_a T^k_j − T^a_j ∂_a V^k + T^k_a ∂_j V^a."""
    return (np.einsum('a,akj->kj', V_vals, T_jac)
            - np.einsum('aj,ak->kj', T_vals, V_jac)
            + np.einsum('ka,ja->kj', T_vals, V_jac))


def d_one_form(jac):
    """Exterior derivative of a 1-form: dω[i,j] = ½(∂_i ω_j − ∂_j ω_i)."""
    return 0.5 * (jac - jac.T)


def d_two_form(jac):
    """Exterior derivative of an antisymmetric 2-form over coordinate fields:
    dΩ[i,j,k] = ⅓(∂_i Ω_jk + ∂_j Ω_ki + ∂_k Ω_ij)."""
    return (jac + np.einsum('jki->ijk', jac) + np.einsum('kij->ijk', jac)) / 3.0


# ---------------------------------------------------------------------------
# PointFrame: one structure frozen at one point
# ---------------------------------------------------------------------------

class PointFrame:
    """All pointwise tensor data of a structure at a single chart point.

    Built from point ``index`` of a :class:`StructureArrays` batch, or,
    without one, from a batch holding just this point; a rejected point
    raises its rejection.  Derived quantities are cached properties
    computed on demand; nothing is symmetrized by fiat — residual checks
    see the honestly computed components.
    """

    def __init__(self, structure, point, batch=None, index=0):
        self.structure = structure
        self.point = tuple(float(x) for x in point)
        self.m = structure.dim
        if batch is None:
            batch, index = structure_arrays(structure, [self.point]), 0
        if batch.rejected[index] is not None:
            raise batch.rejected[index]
        self.g = batch.g[index]
        self.dg = batch.dg[index]
        self.d2g = batch.d2g[index]
        self.phi = batch.phi[index]
        self.dphi = batch.dphi[index]
        self.d2phi = batch.d2phi[index]
        self.xi = batch.xi[index]
        self.dxi = batch.dxi[index]
        self.d2xi = batch.d2xi[index]
        self.eta = batch.eta[index]
        self.deta = batch.deta[index]
        self.d2eta = batch.d2eta[index]

    # -- metric inverses and their derivatives ------------------------------

    @cached_property
    def ginv(self):
        det = np.linalg.det(self.g)
        if abs(det) < _MIN_METRIC_DET:
            raise DegenerateMetric(
                f"|det g| = {abs(det):.3e} below {_MIN_METRIC_DET:.1e} "
                f"at point {self.point}")
        return np.linalg.inv(self.g)

    @cached_property
    def dginv(self):
        return -np.einsum('ij,ajk,kl->ail', self.ginv, self.dg, self.ginv)

    @cached_property
    def d2ginv(self):
        # ∂_a of dginv[b]
        return -(np.einsum('aij,bjk,kl->abil', self.dginv, self.dg, self.ginv)
                 + np.einsum('ij,abjk,kl->abil', self.ginv, self.d2g, self.ginv)
                 + np.einsum('ij,bjk,akl->abil', self.ginv, self.dg, self.dginv))

    # -- Levi-Civita connection ---------------------------------------------

    @cached_property
    def _dg_comb(self):
        # A[i,j,l] = ∂_i g_jl + ∂_j g_il − ∂_l g_ij
        dg = self.dg
        return dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)

    @cached_property
    def _ddg_comb(self):
        d2g = self.d2g
        return d2g + d2g.transpose(0, 2, 1, 3) - d2g.transpose(0, 2, 3, 1)

    @cached_property
    def Gamma(self):
        return 0.5 * np.einsum('kl,ijl->kij', self.ginv, self._dg_comb)

    @cached_property
    def dGamma(self):
        return 0.5 * (np.einsum('akl,ijl->akij', self.dginv, self._dg_comb)
                      + np.einsum('kl,aijl->akij', self.ginv, self._ddg_comb))

    @cached_property
    def d3g(self):
        return third_metric_derivatives(self.structure, self.point)

    @cached_property
    def d2Gamma(self):
        d3 = self.d3g
        d3_comb = d3 + d3.transpose(0, 1, 3, 2, 4) - d3.transpose(0, 1, 3, 4, 2)
        return 0.5 * (
            np.einsum('abkl,ijl->abkij', self.d2ginv, self._dg_comb)
            + np.einsum('bkl,aijl->abkij', self.dginv, self._ddg_comb)
            + np.einsum('akl,bijl->abkij', self.dginv, self._ddg_comb)
            + np.einsum('kl,abijl->abkij', self.ginv, d3_comb))

    # -- curvature ----------------------------------------------------------

    @cached_property
    def Riem(self):
        G = self.Gamma
        return (np.einsum('akbj->kabj', self.dGamma)
                - np.einsum('bkaj->kabj', self.dGamma)
                + np.einsum('kae,ebj->kabj', G, G)
                - np.einsum('kbe,eaj->kabj', G, G))

    @cached_property
    def dRiem(self):
        G, dG = self.Gamma, self.dGamma
        return (np.einsum('cakbj->ckabj', self.d2Gamma)
                - np.einsum('cbkaj->ckabj', self.d2Gamma)
                + np.einsum('ckae,ebj->ckabj', dG, G)
                + np.einsum('kae,cebj->ckabj', G, dG)
                - np.einsum('ckbe,eaj->ckabj', dG, G)
                - np.einsum('kbe,ceaj->ckabj', G, dG))

    @cached_property
    def Ric(self):
        return np.einsum('aayz->yz', self.Riem)

    @cached_property
    def dRic(self):
        return np.einsum('caayz->cyz', self.dRiem)

    @cached_property
    def r(self):
        return float(np.einsum('yz,yz->', self.ginv, self.Ric))

    @cached_property
    def dr(self):
        return (np.einsum('cyz,yz->c', self.dginv, self.Ric)
                + np.einsum('yz,cyz->c', self.ginv, self.dRic))

    @cached_property
    def Ric_star(self):
        return -np.einsum('ak,kayc,cz->yz', self.phi, self.Riem, self.phi)

    @cached_property
    def r_star(self):
        return float(np.einsum('zy,yz->', self.ginv, self.Ric_star))

    # -- covariant derivatives ----------------------------------------------

    def covariant_vector(self, vals, jac):
        """∇V[i,k] = ∂_i V^k + Γ^k_ie V^e."""
        return jac + np.einsum('kie,e->ik', self.Gamma, vals)

    def covariant_covector(self, vals, jac):
        """∇ω[i,j] = ∂_i ω_j − Γ^k_ij ω_k."""
        return jac - np.einsum('kij,k->ij', self.Gamma, vals)

    def covariant_11(self, vals, jac):
        """∇T[i,k,j] = ∂_i T^k_j + Γ^k_ie T^e_j − Γ^e_ij T^k_e."""
        return (jac + np.einsum('kie,ej->ikj', self.Gamma, vals)
                - np.einsum('eij,ke->ikj', self.Gamma, vals))

    def covariant_02(self, vals, jac):
        """∇T[a,y,z] = ∂_a T_yz − Γ^e_ay T_ez − Γ^e_az T_ye."""
        return (jac - np.einsum('eay,ez->ayz', self.Gamma, vals)
                - np.einsum('eaz,ye->ayz', self.Gamma, vals))

    @cached_property
    def nabla_eta(self):
        return self.covariant_covector(self.eta, self.deta)

    @cached_property
    def nabla_xi(self):
        return self.covariant_vector(self.xi, self.dxi)

    @cached_property
    def nabla_phi(self):
        return self.covariant_11(self.phi, self.dphi)

    # -- the h-operator and its covariant derivative ------------------------

    @cached_property
    def h(self):
        """h = ½ (Lie derivative of phi along xi)."""
        return 0.5 * (np.einsum('a,akj->kj', self.xi, self.dphi)
                      - np.einsum('aj,ak->kj', self.phi, self.dxi)
                      + np.einsum('ka,ja->kj', self.phi, self.dxi))

    @cached_property
    def dh(self):
        return 0.5 * (np.einsum('ia,akj->ikj', self.dxi, self.dphi)
                      + np.einsum('a,iakj->ikj', self.xi, self.d2phi)
                      - np.einsum('iaj,ak->ikj', self.dphi, self.dxi)
                      - np.einsum('aj,iak->ikj', self.phi, self.d2xi)
                      + np.einsum('ika,ja->ikj', self.dphi, self.dxi)
                      + np.einsum('ka,ija->ikj', self.phi, self.d2xi))

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
        return np.einsum('ik,kj->ij', self.g, self.phi)

    @cached_property
    def dPhi_partial(self):
        return (np.einsum('aik,kj->aij', self.dg, self.phi)
                + np.einsum('ik,akj->aij', self.g, self.dphi))

    @cached_property
    def dPhi(self):
        return d_two_form(self.dPhi_partial)

    @cached_property
    def ddEta(self):
        """d(dη): must vanish — an engine self-test with real teeth, since
        every partial is computed independently."""
        jac = 0.5 * (self.d2eta - self.d2eta.transpose(0, 2, 1))
        return d_two_form(jac)

    # -- projectors onto the contact distribution ----------------------------

    @cached_property
    def P(self):
        """Projector onto D = ker η along ξ: P = I − ξ⊗η."""
        return np.eye(self.m) - np.outer(self.xi, self.eta)

    @cached_property
    def dP(self):
        return -(np.einsum('ak,j->akj', self.dxi, self.eta)
                 + np.einsum('k,aj->akj', self.xi, self.deta))

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

    def projected_field(self, proj, dproj, u):
        """Field q ↦ proj(q)·u for constant u: values and jacobian at p."""
        vals = proj @ u
        jac = np.einsum('akb,b->ak', dproj, u)
        return vals, jac

    def phi_applied_field(self, vals, jac):
        """Values and jacobian of q ↦ phi(q)·X(q) given those of X."""
        out_vals = self.phi @ vals
        out_jac = (np.einsum('akb,b->ak', self.dphi, vals)
                   + np.einsum('kb,ab->ak', self.phi, jac))
        return out_vals, out_jac

    # -- curvature scalars ---------------------------------------------------

    def sectional(self, X, Y):
        """Sectional curvature of span(X, Y); the plane must be
        nondegenerate for the pseudo-Riemannian Gram determinant."""
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        nx, ny = np.linalg.norm(X), np.linalg.norm(Y)
        if nx == 0.0 or ny == 0.0:
            raise DegeneratePlane("zero probe vector")
        X, Y = X / nx, Y / ny
        gXX = X @ self.g @ X
        gYY = Y @ self.g @ Y
        gXY = X @ self.g @ Y
        denom = gXX * gYY - gXY * gXY
        if abs(denom) < _MIN_PLANE_GRAM:
            raise DegeneratePlane(
                f"plane Gram determinant {denom:.3e} below "
                f"{_MIN_PLANE_GRAM:.1e}")
        RXYY = np.einsum('kabj,a,b,j->k', self.Riem, X, Y, Y)
        return float((RXYY @ self.g @ X) / denom)

    def weyl_residual(self):
        """Max-abs component of the Weyl-type obstruction (dim >= 5)."""
        m = self.m
        if m < 5:
            raise WrongDimension("Weyl obstruction needs dimension >= 5")
        n2 = m - 1  # 2n
        ric_op = np.einsum('ke,ex->kx', self.ginv, self.Ric)
        eye = np.eye(m)
        schouten = (np.einsum('yz,kx->kxyz', self.g, ric_op)
                    + np.einsum('yz,kx->kxyz', self.Ric, eye)
                    - np.einsum('xz,ky->kxyz', self.g, ric_op)
                    - np.einsum('xz,ky->kxyz', self.Ric, eye))
        volume = (np.einsum('yz,kx->kxyz', self.g, eye)
                  - np.einsum('xz,ky->kxyz', self.g, eye))
        expected = schouten / (n2 - 1) - (self.r / (n2 * (n2 - 1))) * volume
        return float(np.max(np.abs(self.Riem - expected)))

    def cotton_residual(self):
        """Max-abs component of the third-order conformal-flatness
        obstruction in dimension 3 (needs third metric derivatives)."""
        if self.m != 3:
            raise WrongDimension(
                "the divergence-type obstruction applies in dimension 3 only")
        nabla_ric = self.covariant_02(self.Ric, self.dRic)
        cotton = (nabla_ric - nabla_ric.transpose(2, 1, 0)
                  - 0.25 * (np.einsum('i,jk->ijk', self.dr, self.g)
                            - np.einsum('k,ji->ijk', self.dr, self.g)))
        return float(np.max(np.abs(cotton)))

    def conformal_flatness(self):
        if self.m == 3:
            return self.cotton_residual()
        return self.weyl_residual()

    # -- engine self-test residuals -----------------------------------------

    def metric_symmetry_residual(self):
        return float(np.max(np.abs(self.g - self.g.T)))

    def inverse_identity_residual(self):
        return float(np.max(np.abs(self.g @ self.ginv - np.eye(self.m))))

    def gamma_symmetry_residual(self):
        return float(np.max(np.abs(self.Gamma - self.Gamma.transpose(0, 2, 1))))

    def nabla_g_residual(self):
        nabla_g = (self.dg
                   - np.einsum('eai,ej->aij', self.Gamma, self.g)
                   - np.einsum('eaj,ie->aij', self.Gamma, self.g))
        return float(np.max(np.abs(nabla_g)))

    def bianchi_residual(self):
        """First Bianchi identity, scaled by the curvature magnitude."""
        R = self.Riem
        cyc = R + R.transpose(0, 2, 3, 1) + R.transpose(0, 3, 1, 2)
        scale = max(1.0, float(np.max(np.abs(R))))
        return float(np.max(np.abs(cyc))) / scale

    def riemann_skew_residual(self):
        """g(R(A,B)C, D) + g(R(A,B)D, C), scaled."""
        low = np.einsum('ck,kabj->cabj', self.g, self.Riem)
        scale = max(1.0, float(np.max(np.abs(low))))
        return float(np.max(np.abs(low + low.transpose(3, 1, 2, 0)))) / scale

    def dd_eta_residual(self):
        scale = max(1.0, float(np.max(np.abs(self.d2eta))))
        return float(np.max(np.abs(self.ddEta))) / scale

    def mixed_partial_residual(self):
        """Second partials against the polarization cross-check."""
        return mixed_partial_residuals([self])[0]
