"""Point-by-point scalar reference for the batched jet engine.

:class:`Dual` realizes a jet of order k along a direction as k nested
first-order dual numbers, one point at a time; order 0 is a plain
``float``.  :func:`eval_dual` walks an expression AST over them, and
the elementary functions below extend ``paracr.jets``' float versions
to duals.

On top of that, a structure's components are evaluated one point and
one choice of derivative directions at a time: one plain run for the
values, m order-1 runs for the first partials and m^2 order-2 runs for
the second partials, with scalar Gauss-Jordan elimination for frames
and an extra jet level for the tangent basis of the hyperboloid.  This
is how the engine worked before it was batched; tests hold the batched
engine to it.
"""

import numpy as np

from paracr import jets
from paracr.errors import (
    DegenerateMetric,
    DomainError,
    OutsidePatch,
    SingularFrame,
)
from paracr.expr import Bin, Call, Const, Neg, Pow, Var
from paracr.geometry import (
    CoordinateStructure,
    FrameStructure,
    HyperboloidStructure,
)
from paracr.jets import powi

REJECTIONS = (SingularFrame, DegenerateMetric, OutsidePatch, DomainError)

_DIV_GUARD = 1e-300


# ---------------------------------------------------------------------------
# scalar nested duals
# ---------------------------------------------------------------------------

def depth_of(x):
    """Nesting depth of a scalar: 0 for a plain float, k for k nested duals."""
    return x.d if isinstance(x, Dual) else 0


def value_of(x):
    """Collapse a (possibly nested) dual to its underlying value slot."""
    while isinstance(x, Dual):
        x = x.p
    return x


class Dual(object):
    """First-order dual number a + eps*b where eps**2 = 0.

    Slots p (primal) and t (tangent) may themselves hold Dual values; the
    cached depth d orders levels so that arithmetic between operands of
    unequal depth treats the shallower one as a constant.  Seeding always
    adds levels outermost, so depths inside one evaluation are consecutive
    and this rule is exact.
    """

    __slots__ = ("p", "t", "d")

    def __init__(self, p, t):
        self.p = p
        self.t = t
        self.d = depth_of(p) + 1

    def __repr__(self):
        return f"Dual({self.p!r}, {self.t!r})"

    # -- ring operations -------------------------------------------------

    def __add__(self, o):
        od = depth_of(o)
        if od < self.d:
            return Dual(self.p + o, self.t)
        if od > self.d:
            return Dual(self + o.p, o.t)
        return Dual(self.p + o.p, self.t + o.t)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.p, -self.t)

    def __sub__(self, o):
        od = depth_of(o)
        if od < self.d:
            return Dual(self.p - o, self.t)
        if od > self.d:
            return Dual(self - o.p, -o.t)
        return Dual(self.p - o.p, self.t - o.t)

    def __rsub__(self, o):
        # o has depth < self.d here (otherwise o.__sub__ would have run).
        return Dual(o - self.p, -self.t)

    def __mul__(self, o):
        od = depth_of(o)
        if od < self.d:
            return Dual(self.p * o, self.t * o)
        if od > self.d:
            return Dual(self * o.p, self * o.t)
        return Dual(self.p * o.p, self.p * o.t + self.t * o.p)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if abs(value_of(o)) <= _DIV_GUARD:
            raise DomainError(f"division by {value_of(o)!r} inside guard band")
        od = depth_of(o)
        if od < self.d:
            return Dual(self.p / o, self.t / o)
        if od > self.d:
            q = self / o.p
            return Dual(q, -(q * o.t) / o.p)
        q = self.p / o.p
        return Dual(q, (self.t - q * o.t) / o.p)

    def __rtruediv__(self, o):
        if abs(value_of(self)) <= _DIV_GUARD:
            raise DomainError(f"division by {value_of(self)!r} inside guard band")
        q = o / self.p
        return Dual(q, -(q * self.t) / self.p)

    def __pow__(self, k):
        return powi(self, k)


def seed_multi(point, directions):
    """Lift a coordinate tuple through one dual level per direction.

    ``directions`` lists coordinate indices, innermost level first; the last
    entry becomes the outermost (top) level.  Evaluating a function on the
    result and peeling k tangent slots from the top yields the mixed
    derivative along the last k directions.
    """
    m = len(point)
    for d_idx in directions:
        if not 0 <= d_idx < m:
            raise IndexError(
                f"direction index {d_idx} out of range for dimension {m}"
            )
    xs = [float(c) for c in point]
    for d_idx in directions:
        xs = [Dual(x, 1.0 if i == d_idx else 0.0) for i, x in enumerate(xs)]
    return tuple(xs)


def seed(point, index, order):
    """Seed all coordinates at ``point`` along one direction to ``order``.

    Returns one scalar per coordinate: plain floats at order 0, nested duals
    with a unit tangent on the seeded coordinate otherwise.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"order must be in 0..3, got {order}")
    if order == 0:
        m = len(point)
        if not 0 <= index < m:
            raise IndexError(f"direction index {index} out of range for dimension {m}")
        return tuple(float(c) for c in point)
    return seed_multi(point, [index] * order)


def nth_tangent(x, k):
    """Peel k tangent slots from the top, then collapse to the value slot.

    With a full seeding of depth k this is the k-th directional (or mixed)
    derivative; a shallower constant contributes zero.
    """
    for _ in range(k):
        if isinstance(x, Dual):
            x = x.t
        else:
            return 0.0
    return value_of(x)


def coefficients(x, order):
    """Value and derivative coefficients [f, f', .., f^(order)] of a jet."""
    return [nth_tangent(x, k) for k in range(order + 1)]


def sinh(x):
    if isinstance(x, Dual):
        return Dual(sinh(x.p), cosh(x.p) * x.t)
    return jets.sinh(x)


def cosh(x):
    if isinstance(x, Dual):
        return Dual(cosh(x.p), sinh(x.p) * x.t)
    return jets.cosh(x)


def tanh(x):
    if isinstance(x, Dual):
        tp = tanh(x.p)
        return Dual(tp, (1.0 - tp * tp) * x.t)
    return jets.tanh(x)


def exp(x):
    if isinstance(x, Dual):
        ep = exp(x.p)
        return Dual(ep, ep * x.t)
    return jets.exp(x)


def ln(x):
    if isinstance(x, Dual):
        if value_of(x) <= 0.0:
            raise DomainError(f"ln of non-positive value {value_of(x)!r}")
        return Dual(ln(x.p), x.t / x.p)
    return jets.ln(x)


def sqrt(x):
    if isinstance(x, Dual):
        if value_of(x) <= 0.0:
            raise DomainError(
                f"sqrt of {value_of(x)!r} with derivatives requested")
        s = sqrt(x.p)
        return Dual(s, x.t / (2.0 * s))
    return jets.sqrt(x)


def div(a, b):
    if abs(value_of(b)) <= _DIV_GUARD:
        raise DomainError(f"division by {value_of(b)!r} inside guard band")
    return a / b


FUNCTIONS = {"sinh": sinh, "cosh": cosh, "tanh": tanh, "exp": exp,
             "ln": ln, "sqrt": sqrt}

_BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": div}


def eval_dual(e, xs):
    """Evaluate an expression AST at a tuple of floats or nested duals."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Neg):
        return -eval_dual(e.arg, xs)
    if isinstance(e, Call):
        return FUNCTIONS[e.fn](eval_dual(e.arg, xs))
    if isinstance(e, Pow):
        return powi(eval_dual(e.base, xs), e.exponent)
    if isinstance(e, Bin):
        return _BINARY[e.op](eval_dual(e.left, xs), eval_dual(e.right, xs))
    raise TypeError(f"not an expression node: {e!r}")


def frame_matrix(structure, xs):
    """A FrameStructure's frame entries at floats or nested duals."""
    return _evaluate(structure._frame, xs)


# ---------------------------------------------------------------------------
# structures, one point at a time
# ---------------------------------------------------------------------------


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
    return eval_dual(entries, xs)


def _frame_components(st, xs):
    E = frame_matrix(st, xs)
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
