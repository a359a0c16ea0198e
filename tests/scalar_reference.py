"""Point-by-point scalar reference for the batched jet engine.

Evaluates a structure's components over nested scalar duals
(``paracr.jets.Dual``), one point and one choice of derivative
directions at a time: one plain run for the values, m order-1 runs for
the first partials and m^2 order-2 runs for the second partials, with
scalar Gauss-Jordan elimination for frames and an extra jet level for
the tangent basis of the hyperboloid.  This is how the engine worked
before it was batched; tests hold the batched engine to it.
"""

import numpy as np

from paracr.errors import (
    DegenerateMetric,
    DomainError,
    OutsidePatch,
    SingularFrame,
)
from paracr.expr import eval_expr
from paracr.geometry import (
    CoordinateStructure,
    FrameStructure,
    HyperboloidStructure,
)
from paracr.jets import Dual, depth_of, nth_tangent, seed_multi, sqrt, value_of

REJECTIONS = (SingularFrame, DegenerateMetric, OutsidePatch, DomainError)


def mat_mul(A, B):
    m, inner, k = len(A), len(B), len(B[0])
    return [[sum(A[i][e] * B[e][j] for e in range(inner)) for j in range(k)]
            for i in range(m)]


def gauss_jordan(A, B, min_det, exc):
    """Solve A X = B with partial pivoting on the values; raise ``exc``
    on a zero pivot or |det| below ``min_det``."""
    m = len(A)
    M = [list(row) for row in A]
    X = [list(row) for row in B]
    det = 1.0
    for col in range(m):
        piv = max(range(col, m), key=lambda r: abs(value_of(M[r][col])))
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            X[col], X[piv] = X[piv], X[col]
            det = -det
        pivot = M[col][col]
        pval = value_of(pivot)
        if abs(pval) <= 1e-300:
            raise exc(f"zero pivot in column {col}")
        det *= pval
        for r in range(m):
            if r == col:
                continue
            factor = M[r][col] / pivot
            for c in range(col, m):
                M[r][c] = M[r][c] - factor * M[col][c]
            for c in range(len(X[r])):
                X[r][c] = X[r][c] - factor * X[col][c]
    for r in range(m):
        pivot = M[r][r]
        X[r] = [x / pivot for x in X[r]]
    if abs(det) < min_det:
        raise exc(f"determinant {det:.3e} below threshold {min_det:.1e}")
    return X


def _evaluate(entries, xs):
    if isinstance(entries, (list, tuple)):
        return [_evaluate(e, xs) for e in entries]
    return eval_expr(entries, xs)


def _frame_components(st, xs):
    E = st.frame_matrix(xs)
    m = len(E)
    eye = [[1.0 if i == j else 0.0 for j in range(m)] for i in range(m)]
    Einv = gauss_jordan(E, eye, 1e-6, SingularFrame)
    phi = mat_mul(mat_mul(E, st.phi_hat.tolist()), Einv)
    xi = [sum(E[i][j] * st.xi_hat[j] for j in range(m)) for i in range(m)]
    eta = [sum(st.eta_hat[i] * Einv[i][j] for i in range(m))
           for j in range(m)]
    EinvT = [list(col) for col in zip(*Einv)]
    g = mat_mul(mat_mul(EinvT, st.g_hat.tolist()), Einv)
    return g, phi, xi, eta


def _hyperboloid_components(st, xs):
    n, m = st.n, st.dim
    half = n + 1
    sign = [1.0 if A < half else -1.0 for A in range(m + 1)]

    def inner(u, v):
        return sum(sign[A] * u[A] * v[A] for A in range(m + 1))

    def J(v):
        return [v[A + half] for A in range(half)] + [v[A] for A in range(half)]

    def embed(ys):
        arg = 1.0
        for i, y in enumerate(ys):
            arg = arg + y * y if i < half else arg - y * y
        if value_of(arg) < 1e-6:
            raise OutsidePatch("outside the graph patch")
        return list(ys) + [sqrt(arg)]

    pos = embed(xs)
    level = max((depth_of(x) for x in xs), default=0) + 1
    T = []
    for i in range(m):
        F = embed([Dual(x, 1.0 if j == i else 0.0) for j, x in enumerate(xs)])
        T.append([f.t if depth_of(f) == level else 0.0 for f in F])
    xi_amb = [-c for c in J(pos)]
    g = [[inner(T[i], T[j]) for j in range(m)] for i in range(m)]
    eta = [inner(T[j], xi_amb) for j in range(m)]
    B = [[inner(T[i], J(T[j])) for j in range(m)] for i in range(m)]
    sol = gauss_jordan(g, [B[i] + [eta[i]] for i in range(m)], 1e-10,
                       DegenerateMetric)
    return g, [row[:m] for row in sol], [row[m] for row in sol], eta


def components(structure, xs):
    """(g, phi, xi, eta) over scalar floats or nested duals."""
    if isinstance(structure, CoordinateStructure):
        return tuple(_evaluate(e, xs) for e in structure._entries)
    if isinstance(structure, FrameStructure):
        return _frame_components(structure, xs)
    if isinstance(structure, HyperboloidStructure):
        return _hyperboloid_components(structure, xs)
    raise TypeError(f"no scalar reference for {type(structure).__name__}")


def _tangents(parts, order):
    return [np.array(nth_tangent_all(p, order), dtype=float) for p in parts]


def nth_tangent_all(entries, order):
    if isinstance(entries, (list, tuple)):
        return [nth_tangent_all(e, order) for e in entries]
    return nth_tangent(entries, order)


def arrays(structure, point):
    """The component arrays of ``PointFrame`` at one point, as a dict,
    raising the point's rejection (metric degeneracy included)."""
    m = len(point)
    out = dict(zip(("g", "phi", "xi", "eta"),
                   _tangents(components(structure, tuple(point)), 0)))
    names = ("g", "phi", "xi", "eta")
    for name in names:
        shape = out[name].shape
        out["d" + name] = np.empty((m,) + shape)
        out["d2" + name] = np.empty((m, m) + shape)
    for a in range(m):
        parts = _tangents(components(structure, seed_multi(point, [a])), 1)
        for name, part in zip(names, parts):
            out["d" + name][a] = part
        for b in range(m):
            parts = _tangents(
                components(structure, seed_multi(point, [b, a])), 2)
            for name, part in zip(names, parts):
                out["d2" + name][a, b] = part
    if abs(np.linalg.det(out["g"])) < 1e-10:
        raise DegenerateMetric("metric determinant below threshold")
    return out


def third_metric_derivatives(structure, point):
    m = len(point)
    d3g = np.empty((m,) * 5)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                g = components(structure, seed_multi(point, [c, b, a]))[0]
                d3g[a, b, c] = nth_tangent_all(g, 3)
    return d3g


def sample(structure, rng, count):
    """The one-draw-at-a-time sampler: accepted points, attempts, and the
    rejections by error class name."""
    lo = np.array([b[0] for b in structure.chart.box])
    hi = np.array([b[1] for b in structure.chart.box])
    points, attempts, rejected = [], 0, {}
    while len(points) < count:
        attempts += 1
        point = tuple(float(v) for v in lo + (hi - lo) * rng.random(len(lo)))
        try:
            arrays(structure, point)
        except REJECTIONS as exc:
            name = type(exc).__name__
            rejected[name] = rejected.get(name, 0) + 1
            continue
        points.append(point)
    return points, attempts, rejected
