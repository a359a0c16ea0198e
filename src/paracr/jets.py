"""Forward-mode automatic differentiation.

Batched Taylor arrays (the engine)
----------------------------------
A :class:`Jet` carries a truncated multivariate Taylor expansion at a
whole batch of points at once.  All coefficients live in one array
``c[P, *shape, slot]`` with the point axis first and one trailing slot
axis: slot 0 holds the value, the next k slots the first partials
along the k seeded directions, then k^2 second and (only when order 3
is asked for) k^3 third partials, each block in row-major index order.
The views ``v``, ``d`` and ``dd`` expose the first three blocks as
``v[P]``, ``d[P, k]`` and ``dd[P, k, k]`` (with the tensor shape between
the point and direction axes).

Every rule is Taylor-mode forward differentiation (Griewank & Walther,
*Evaluating Derivatives*, ch. 13).  The ring operations are ``Jet``
operators; each elementary function is a module function
(:func:`sinh_cosh`, with :func:`sinh` and :func:`cosh` taking their
half of it, :func:`tanh`, :func:`exp`, :func:`ln`, :func:`sqrt`) that
holds its order-by-order rule for a jet and is the ``math`` function
for a float.  The rules are arranged so that each coefficient is
the very same sequence of floating-point operations that k nested dual
numbers perform for one point and one choice of directions (the scalar
reference the tests hold the engine to): a product, a quotient and a
function are extended one order at a time,
u·w = u_low·w_low + ε·(u_low·∂w + ∂u·w_low) and
f(u) = f(u_low) + ε·f'(u_low)·∂u.  Products and quotients up to order 2
are that recursion written out in one pass (for a quotient
q_k = (a_k − Σ q_j b_{k−j}) / b_0 slot by slot): the same operations in
the same order.  Values of sinh, cosh, tanh, exp and ln come from the
``math`` module.  A batch is therefore bit-for-bit what a
point-by-point evaluation gives.

Domain violations (division inside the guard band, ln or sqrt of a
non-positive value) do not raise: they leave a coefficient that is not
a finite number, and IEEE arithmetic carries it to every result that
depends on it.  Two rules write the NaN that IEEE arithmetic would
not: a quotient whose divisor lies in the guard band, and ``x^0`` of
an x with a non-finite coefficient.  Every NaN coefficient of a
product or a quotient is the one quiet NaN ``np.nan``: which operand's
NaN an IEEE operation keeps depends on how NumPy loops over it, and the
one-pass and the order-by-order rules loop differently.  Operations on
plain floats (constant subexpressions) still raise
:class:`DomainError`.
Every operation acts on each point of the batch alone, so a batch may
hold the points of unrelated evaluations side by side.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "Jet",
    "coordinate_jets",
    "tensor",
    "sinh",
    "cosh",
    "sinh_cosh",
    "tanh",
    "exp",
    "ln",
    "sqrt",
    "powi",
    "div",
]

_DIV_GUARD = 1e-300


# ---------------------------------------------------------------------------
# Batched Taylor arrays
# ---------------------------------------------------------------------------

class _Layout:
    """Slot layout of k directions up to an order.

    Slot tuples list directions outermost first.  ``shift[t, s]`` is the
    slot of (t,) + (slot s one order lower): ``Jet._top`` gathers by it
    the partials ∂_t that extend a function one order at a time, and a
    product or a quotient above order 2 (up to order 2 each is one pass).
    """

    def __init__(self, k, order):
        self.k = k
        self.order = order
        slots = [t for n in range(order + 1)
                 for t in itertools.product(range(k), repeat=n)]
        index = {t: s for s, t in enumerate(slots)}
        self.offsets = [sum(k ** i for i in range(n)) for n in range(order + 2)]
        self.size = len(slots)
        self.lower = _layout(k, order - 1) if order else None
        if order:
            lower = self.offsets[order]
            self.shift = np.array([[index[(t,) + low] for low in slots[:lower]]
                                   for t in range(k)])


@lru_cache(maxsize=None)
def _layout(k, order):
    return _Layout(k, order)


def _libm(fn, x):
    """``fn`` from the math module at every coefficient of the jet x;
    NaN where it raises."""
    flat = x.c.ravel().tolist()
    try:
        out = [fn(v) for v in flat]
    except (OverflowError, ValueError):
        out = []
        for v in flat:
            try:
                out.append(fn(v))
            except (OverflowError, ValueError):
                out.append(math.nan)
    return x._new(np.array(out, dtype=float).reshape(x.c.shape))


def _canonical(c):
    """``c`` with every NaN written as ``np.nan``, in place."""
    np.copyto(c, np.nan, where=np.isnan(c))
    return c


def _guarded(quotient, divisor):
    """An order-0 quotient with NaN where the divisor lies in the guard
    band, every NaN written as ``np.nan``."""
    return _canonical(np.where(np.abs(divisor) <= _DIV_GUARD, np.nan,
                               quotient))


def _product(a, b, layout):
    """The product of order-0 to order-2 coefficient arrays in one pass:
    c_0 = a_0 b_0, c_t = a_0 b_t + a_t b_0 and
    c_ts = (a_0 b_ts + a_s b_t) + (a_t b_s + a_ts b_0) (t the outer
    direction), the very operations of the rule of ``Jet.__mul__`` one
    order at a time; every NaN is ``np.nan``."""
    k = layout.k
    a0, b0 = a[..., :1], b[..., :1]
    at, bt = a[..., 1:1 + k], b[..., 1:1 + k]
    blocks = [a0 * b0, a0 * bt + at * b0]
    if layout.order == 2:
        ats = a[..., 1 + k:].reshape(a.shape[:-1] + (k, k))
        bts = b[..., 1 + k:].reshape(b.shape[:-1] + (k, k))
        cross = at[..., :, None] * bt[..., None, :]  # a_t b_s; a_s b_t is .T
        cts = ((a0[..., None] * bts + cross.swapaxes(-1, -2))
               + (cross + ats * b0[..., None]))
        blocks.append(cts.reshape(cts.shape[:-2] + (k * k,)))
    return _canonical(np.concatenate(blocks, axis=-1))


def _quotient2(a, b, k):
    """The order-2 quotient of coefficient arrays in one pass:
    q_0 = a_0 / b_0 (guarded), q_t = (a_t − q_0 b_t) / b_0 and
    q_ts = ((a_ts − (q_0 b_ts + q_s b_t)) − q_t b_s) / b_0 (t the outer
    direction), the very operations of ``Jet._over`` one order at a
    time."""
    a0, b0 = a[..., :1], b[..., :1]
    at, bt = a[..., 1:1 + k], b[..., 1:1 + k]
    ats = a[..., 1 + k:].reshape(a.shape[:-1] + (k, k))
    bts = b[..., 1 + k:].reshape(b.shape[:-1] + (k, k))
    q = np.empty(np.broadcast_shapes(a.shape, b.shape))
    q0, qt = q[..., :1], q[..., 1:1 + k]
    q0[...] = _guarded(a0 / b0, b0)
    qt[...] = (at - q0 * bt) / b0
    qts = ((ats - (q0[..., None] * bts + qt[..., None, :] * bt[..., :, None]))
           - qt[..., :, None] * bt[..., None, :]) / b0[..., None]
    q[..., 1 + k:] = qts.reshape(q.shape[:-1] + (k * k,))
    return _canonical(q)


class Jet:
    """Truncated Taylor coefficients of a scalar or tensor at P points;
    a point is not a number where one of its coefficients is not
    finite."""

    __slots__ = ("c", "layout")
    __array_ufunc__ = None  # numpy operands defer to the jet's operators

    def __init__(self, c, layout):
        self.c = c
        self.layout = layout

    def _block(self, n):
        lay = self.layout
        if n > lay.order:
            raise ValueError(f"order-{n} coefficients requested from an "
                             f"order-{lay.order} jet")
        block = self.c[..., lay.offsets[n]:lay.offsets[n + 1]]
        return block.reshape(self.c.shape[:-1] + (lay.k,) * n)

    @property
    def v(self):
        return self.c[..., 0]

    def __getitem__(self, key):
        """Index the tensor axes (the point and slot axes are kept)."""
        key = key if isinstance(key, tuple) else (key,)
        return self._new(self.c[(slice(None),) + key + (slice(None),)])

    def _new(self, c):
        return Jet(c, self.layout)

    @staticmethod
    def _const(o):
        """A constant operand broadcast against the slot axis."""
        return o[..., None] if isinstance(o, np.ndarray) else o

    # -- one order lower, and back ---------------------------------------

    def _low(self):
        """The same jet truncated to one order less."""
        lay = self.layout.lower
        return Jet(self.c[..., :lay.size], lay)

    def _top(self):
        """The jet of the partials ∂_t (one order less), with the
        direction t as an extra last tensor axis; None at order 0."""
        lay = self.layout
        if not lay.order:
            return None
        return Jet(self.c.take(lay.shift, axis=-1), lay.lower)

    def _spread(self):
        """Broadcastable against a ``_top()`` jet."""
        return self._new(self.c[..., None, :])

    def _raise(self, top):
        """This jet extended by one order, the new slots taken from the
        top-order slots of ``top`` (as returned by a ``_top()`` rule)."""
        lay = _layout(self.layout.k, self.layout.order + 1)
        block = top.c[..., self.layout.offsets[-2]:]
        block = block.reshape(block.shape[:-2] + (-1,))
        return Jet(np.concatenate([self.c, block], axis=-1), lay)

    def _over(self, den, known):
        """self / den when the quotient's lower slots are ``known`` (the
        order-(n-1) jet they form): only the new top slots are divided
        out, as q = q_low + ε·(∂self − q_low·∂den) / den_low."""
        if self.layout.order == 0:
            return self._new(_canonical(self.c / den.c))
        top = (self._top() - known._spread() * den._top())._over(
            den._low()._spread(), known._top())
        return known._raise(top)

    # -- ring operations -------------------------------------------------

    def __add__(self, o):
        if isinstance(o, Jet):
            return self._new(self.c + o.c)
        c = self.c.copy()
        c[..., 0] += o
        return self._new(c)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.c)

    def __sub__(self, o):
        if isinstance(o, Jet):
            return self._new(self.c - o.c)
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return self._new(self.c * self._const(o))
        if self.layout.order <= 2:
            return self._new(_product(self.c, o.c, self.layout))
        a, b = self._low(), o._low()
        top = a._spread() * o._top() + self._top() * b._spread()
        return self._new(_canonical((a * b)._raise(top).c))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            if np.any(np.abs(o) <= _DIV_GUARD):
                raise DomainError(f"division by {o!r} inside guard band")
            return self._new(self.c / self._const(o))
        if self.layout.order == 0:
            return self._new(_guarded(self.c / o.c, o.c))
        if self.layout.order == 2:
            return self._new(_quotient2(self.c, o.c, self.layout.k))
        return self._over(o, self._low() / o._low())

    def __rtruediv__(self, o):
        if self.layout.order == 0:
            return self._new(_guarded(o / self.c, self.c))
        low = self._low()
        q = o / low
        return q._raise((-(q._spread() * self._top()))._over(
            low._spread(), q._top()))


def coordinate_jets(points, order, directions=None):
    """One scalar jet per chart coordinate at a batch of points.

    ``points`` is P x m.  ``directions`` is m x k (shared) or P x m x k
    (one set per point); the default is the identity, so the partials
    are the coordinate partials ∂_1 .. ∂_m.
    """
    points = np.asarray(points, dtype=float)
    count, m = points.shape
    if directions is None:
        directions = np.eye(m)
    directions = np.broadcast_to(directions, (count, m) + directions.shape[-1:])
    layout = _layout(directions.shape[-1], order)
    c = np.zeros((m, count, layout.size))
    c[:, :, 0] = points.T
    if order:
        c[:, :, 1:1 + layout.k] = directions.transpose(1, 0, 2)
    return [Jet(c[i], layout) for i in range(m)]


def tensor(entries, like):
    """One jet of tensor shape from a nested list of scalar jets and floats
    at the points of ``like``; float entries become exact constants."""
    shape = []
    probe = entries
    while isinstance(probe, (list, tuple)):
        shape.append(len(probe))
        probe = probe[0]
    flat = list(entries)
    for _ in shape[1:]:
        flat = [e for row in flat for e in row]
    count, size = like.c.shape[0], like.layout.size
    c = np.zeros((count, len(flat), size))
    for i, e in enumerate(flat):
        if isinstance(e, Jet):
            c[:, i] = e.c
        else:
            c[:, i, 0] = e
    return Jet(c.reshape((count, *shape, size)), like.layout)


# ---------------------------------------------------------------------------
# Elementary functions on floats and batched jets
# ---------------------------------------------------------------------------

def div(a, b):
    """Guarded division for floats and jets alike."""
    if isinstance(a, Jet) or isinstance(b, Jet):
        return a / b
    if abs(b) <= _DIV_GUARD:
        raise DomainError(f"division by {b!r} inside guard band")
    return a / b


def powi(x, k):
    """x**k for integer k and a float or jet x, by binary
    exponentiation.  Exponent 0 yields 1.0 exactly, except that a jet
    entry with a non-finite coefficient stays not a number."""
    if not isinstance(k, int):
        raise TypeError(f"integer exponent required, got {type(k).__name__}")
    if k < 0:
        return 1.0 / powi(x, -k)
    if k == 0:
        if not isinstance(x, Jet):
            return 1.0
        c = np.zeros_like(x.c)
        c[..., 0] = np.where(np.isfinite(x.c).all(axis=-1), 1.0, np.nan)
        return x._new(c)
    out = None
    base = x
    while k:
        if k & 1:
            out = base if out is None else out * base
        k >>= 1
        if k:
            base = base * base
    return out


def sinh_cosh(x):
    """(sinh x, cosh x); a jet takes both from one pass of its rule."""
    if not isinstance(x, Jet):
        return math.sinh(x), math.cosh(x)
    if x.layout.order == 0:
        return _libm(math.sinh, x), _libm(math.cosh, x)
    s, c = sinh_cosh(x._low())
    du = x._top()
    return s._raise(c._spread() * du), c._raise(s._spread() * du)


def sinh(x):
    return sinh_cosh(x)[0] if isinstance(x, Jet) else math.sinh(x)


def cosh(x):
    return sinh_cosh(x)[1] if isinstance(x, Jet) else math.cosh(x)


def tanh(x):
    if not isinstance(x, Jet):
        return math.tanh(x)
    if x.layout.order == 0:
        return _libm(math.tanh, x)
    t = tanh(x._low())
    h = t._spread()
    return t._raise((1.0 - h * h) * x._top())


def exp(x):
    if not isinstance(x, Jet):
        return math.exp(x)
    if x.layout.order == 0:
        return _libm(math.exp, x)
    e = exp(x._low())
    return e._raise(e._spread() * x._top())


def ln(x):
    if not isinstance(x, Jet):
        if x <= 0.0:
            raise DomainError(f"ln of non-positive value {x!r}")
        return math.log(x)
    # log of v <= 0 is NaN (see _libm)
    if x.layout.order == 0:
        return _libm(math.log, x)
    low = x._low()
    f = ln(low)
    return f._raise(x._top()._over(low._spread(), f._top()))


def sqrt(x):
    if not isinstance(x, Jet):
        if x < 0.0:
            raise DomainError(f"sqrt of negative value {x!r}")
        return math.sqrt(x)
    # sqrt of v < 0 is NaN; at v = 0 the derivatives are ±inf or NaN
    if x.layout.order == 0:
        return x._new(np.sqrt(x.c))
    f = sqrt(x._low())
    return f._raise(x._top()._over(2.0 * f._spread(), f._top()))
