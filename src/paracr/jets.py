"""Forward-mode automatic differentiation.

Batched Taylor arrays (the engine)
----------------------------------
A :class:`Jet` carries a truncated multivariate Taylor expansion at a
whole batch of points at once.  All coefficients live in one array
``c[P, *shape, slot]`` with the point axis first and one trailing slot
axis: slot 0 holds the value, the next k slots the first partials
along the k seeded directions, then k^2 second and (only when order 3
is asked for) k^3 third partials, each block in row-major index order.
The views ``v``, ``d``, ``dd`` and ``ddd`` expose those blocks as
``v[P]``, ``d[P, k]``, ``dd[P, k, k]`` and ``ddd[P, k, k, k]`` (with the
tensor shape between the point and direction axes).

Every rule is Taylor-mode forward differentiation (Griewank & Walther,
*Evaluating Derivatives*, ch. 13), arranged so that each coefficient is
the very same sequence of floating-point operations that k nested dual
numbers perform for one point and one choice of directions (the scalar
reference the tests hold the engine to): a product sums the Leibniz
terms ∂_U u · ∂_{T∖U} w of slot T pairwise in nested order, and a
function or quotient is extended one order at a time,
f(u) = f(u_low) + ε·f'(u_low)·∂u.  Values of sinh,
cosh, tanh, exp and ln come from the ``math`` module.  A batch is
therefore bit-for-bit what a point-by-point evaluation gives.

Domain violations (division inside the guard band, ln or sqrt of a
non-positive value) do not raise: each jet carries a per-point mask
``bad`` that every operation propagates, so a point is rejected even
when its NaN is later hidden (``x^0`` of a NaN is 1).  Operations on
plain floats (constant subexpressions) still raise :class:`DomainError`.
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
    """Slot layout of k directions up to an order, and its product table.

    Slot tuples list directions outermost first.  Slot T of order n has
    the 2^n Leibniz pairs ``(left, right)`` in nested order (subset U of
    T for the left factor, its outermost member as the most significant
    bit), padded with zero terms to ``width`` = 2^order so that repeated
    pairwise halving sums every slot in the nested-dual order.
    ``shift[t, s]`` is the slot of (t,) + (slot s one order lower).
    """

    def __init__(self, k, order):
        self.k = k
        self.order = order
        slots = [t for n in range(order + 1)
                 for t in itertools.product(range(k), repeat=n)]
        index = {t: s for s, t in enumerate(slots)}
        self.offsets = [sum(k ** i for i in range(n)) for n in range(order + 2)]
        self.size = len(slots)
        self.width = 1 << order
        left = np.zeros((self.size, self.width), dtype=int)
        right = np.zeros((self.size, self.width), dtype=int)
        real = np.zeros((self.size, self.width))
        for s, t in enumerate(slots):
            n = len(t)
            for u in range(1 << n):
                inside = [u >> (n - 1 - i) & 1 for i in range(n)]
                left[s, u] = index[tuple(a for a, x in zip(t, inside) if x)]
                right[s, u] = index[tuple(a for a, x in zip(t, inside)
                                          if not x)]
                real[s, u] = 1.0
        self.left = left.ravel()
        self.right = right.ravel()
        self.pad = None if real.all() else real.ravel()
        self.lower = _layout(k, order - 1) if order else None
        self._higher = None
        if order:
            lower = self.offsets[order]
            self.shift = np.array([[index[(t,) + low] for low in slots[:lower]]
                                   for t in range(k)])

    @property
    def higher(self):
        if self._higher is None:
            self._higher = _layout(self.k, self.order + 1)
        return self._higher


@lru_cache(maxsize=None)
def _layout(k, order):
    return _Layout(k, order)


def _either(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a | b


def _flag(mask):
    """Per-point mask (any flagged entry of a point), or None when no
    point is flagged."""
    mask = mask.reshape(len(mask), -1).any(axis=1)
    return mask if mask.any() else None


def _libm(fn, values):
    """``fn`` from the math module at every entry; NaN where it raises."""
    flat = values.ravel().tolist()
    try:
        out = [fn(x) for x in flat]
    except (OverflowError, ValueError):
        out = []
        for x in flat:
            try:
                out.append(fn(x))
            except (OverflowError, ValueError):
                out.append(math.nan)
    return np.array(out, dtype=float).reshape(values.shape)


def _product(a, b, layout):
    """Leibniz product of coefficient arrays, summed in nested order."""
    if layout.order == 0:
        return a * b
    terms = a.take(layout.left, axis=-1)
    right = b.take(layout.right, axis=-1)
    if terms.shape == right.shape:
        terms *= right
    else:
        terms = terms * right
    del right
    if layout.pad is not None:
        terms *= layout.pad
    terms = terms.reshape(terms.shape[:-1] + (layout.size, layout.width))
    for _ in range(layout.order):
        terms = terms[..., 0::2] + terms[..., 1::2]
    return terms[..., 0]


class Jet:
    """Truncated Taylor coefficients of a scalar or tensor at P points."""

    __slots__ = ("c", "bad", "layout")
    __array_ufunc__ = None  # numpy operands defer to the jet's operators

    def __init__(self, c, bad, layout):
        self.c = c
        self.bad = bad
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

    @property
    def d(self):
        return self._block(1)

    @property
    def dd(self):
        return self._block(2)

    @property
    def ddd(self):
        return self._block(3)

    def __getitem__(self, key):
        """Index the tensor axes (the point and slot axes are kept)."""
        key = key if isinstance(key, tuple) else (key,)
        return Jet(self.c[(slice(None),) + key + (slice(None),)], self.bad,
                   self.layout)

    def _new(self, c, bad=None):
        return Jet(c, _either(self.bad, bad), self.layout)

    @staticmethod
    def _const(o):
        """A constant operand broadcast against the slot axis."""
        return o[..., None] if isinstance(o, np.ndarray) else o

    # -- one order lower, and back ---------------------------------------

    def _low(self):
        """The same jet truncated to one order less."""
        lay = self.layout.lower
        return Jet(self.c[..., :lay.size], self.bad, lay)

    def _top(self):
        """The jet of the partials ∂_t (one order less), with the
        direction t as an extra last tensor axis; None at order 0."""
        lay = self.layout
        if not lay.order:
            return None
        return Jet(self.c.take(lay.shift, axis=-1), self.bad, lay.lower)

    def _spread(self):
        """Broadcastable against a ``_top()`` jet."""
        return Jet(self.c[..., None, :], self.bad, self.layout)

    def _raise(self, top):
        """This jet extended by one order, the new slots taken from the
        top-order slots of ``top`` (as returned by a ``_top()`` rule)."""
        lay = self.layout.higher
        block = top.c[..., self.layout.offsets[-2]:]
        block = block.reshape(block.shape[:-2] + (-1,))
        low = self.c
        if low.shape[:-1] != block.shape[:-1]:
            low = np.broadcast_to(low, block.shape[:-1] + low.shape[-1:])
        return Jet(np.concatenate([low, block], axis=-1),
                   _either(self.bad, top.bad), lay)

    def _over(self, den, known):
        """self / den when the quotient's lower slots are ``known`` (the
        order-(n-1) jet they form): only the new top slots are divided
        out, as q = q_low + ε·(∂self − q_low·∂den) / den_low."""
        if self.layout.order == 0:
            return self._new(self.c / den.c, den.bad)
        top = (self._top() - known._spread() * den._top())._over(
            den._low()._spread(), known._top())
        return known._raise(top)

    # -- ring operations -------------------------------------------------

    def __add__(self, o):
        if isinstance(o, Jet):
            return self._new(self.c + o.c, o.bad)
        c = self.c.copy()
        c[..., 0] += o
        return self._new(c)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.c)

    def __sub__(self, o):
        if isinstance(o, Jet):
            return self._new(self.c - o.c, o.bad)
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Jet):
            return self._new(_product(self.c, o.c, self.layout), o.bad)
        return self._new(self.c * self._const(o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            if np.any(np.abs(o) <= _DIV_GUARD):
                raise DomainError(f"division by {o!r} inside guard band")
            return self._new(self.c / self._const(o))
        if self.layout.order == 0:
            return self._new(self.c / o.c, _either(
                o.bad, _flag(np.abs(o.v) <= _DIV_GUARD)))
        low = o._low()
        q = self._low() / low
        return q._raise((self._top() - q._spread() * o._top())._over(
            low._spread(), q._top()))

    def __rtruediv__(self, o):
        if self.layout.order == 0:
            return self._new(o / self.c, _flag(np.abs(self.v) <= _DIV_GUARD))
        low = self._low()
        q = o / low
        return q._raise((-(q._spread() * self._top()))._over(
            low._spread(), q._top()))

    def __pow__(self, k):
        return powi(self, k)

    # -- elementary functions --------------------------------------------

    def _apply(self, fn, bad=None):
        return self._new(_libm(fn, self.c), bad)

    def _sinh_cosh(self):
        if self.layout.order == 0:
            return self._apply(math.sinh), self._apply(math.cosh)
        s, c = self._low()._sinh_cosh()
        du = self._top()
        return s._raise(c._spread() * du), c._raise(s._spread() * du)

    def sinh(self):
        return self._sinh_cosh()[0]

    def cosh(self):
        return self._sinh_cosh()[1]

    def tanh(self):
        if self.layout.order == 0:
            return self._apply(math.tanh)
        t = self._low().tanh()
        h = t._spread()
        return t._raise((1.0 - h * h) * self._top())

    def exp(self):
        if self.layout.order == 0:
            return self._apply(math.exp)
        e = self._low().exp()
        return e._raise(e._spread() * self._top())

    def ln(self):
        bad = _flag(self.v <= 0.0)
        if self.layout.order == 0:
            return self._apply(math.log, bad)
        low = self._low()
        f = low.ln()
        return f._raise(self._top()._over(low._spread(), f._top()))._masked(bad)

    def sqrt(self):
        if self.layout.order == 0:
            return self._new(np.sqrt(self.c), _flag(self.v < 0.0))
        f = self._low().sqrt()
        return f._raise(self._top()._over(2.0 * f._spread(), f._top())) \
            ._masked(_flag(self.v <= 0.0))

    def _masked(self, bad):
        return Jet(self.c, _either(self.bad, bad), self.layout)

    def powi(self, k):
        if k < 0:
            return 1.0 / self.powi(-k)
        if k == 0:
            # x^0 is 1 only where x itself is a number
            c = np.zeros_like(self.c)
            c[..., 0] = 1.0
            finite = np.isfinite(self.c).reshape(len(c), -1).all(axis=1)
            return self._new(c, _flag(~finite))
        out = None
        base = self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return out


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
    return [Jet(c[i], None, layout) for i in range(m)]


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
    bad = None
    for i, e in enumerate(flat):
        if isinstance(e, Jet):
            c[:, i] = e.c
            bad = _either(bad, e.bad)
        else:
            c[:, i, 0] = e
    return Jet(c.reshape((count, *shape, size)), bad, like.layout)


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
    """x**k for integer k; exponent 0 yields 1.0 exactly."""
    if not isinstance(k, int):
        raise TypeError(f"integer exponent required, got {type(k).__name__}")
    if isinstance(x, Jet):
        return x.powi(k)
    if k < 0:
        return 1.0 / powi(x, -k)
    out = 1.0
    base = x
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def sinh(x):
    return x.sinh() if isinstance(x, Jet) else math.sinh(x)


def cosh(x):
    return x.cosh() if isinstance(x, Jet) else math.cosh(x)


def sinh_cosh(x):
    """(sinh x, cosh x); a jet takes both from one pass of its rule."""
    if isinstance(x, Jet):
        return x._sinh_cosh()
    return math.sinh(x), math.cosh(x)


def tanh(x):
    return x.tanh() if isinstance(x, Jet) else math.tanh(x)


def exp(x):
    return x.exp() if isinstance(x, Jet) else math.exp(x)


def ln(x):
    if isinstance(x, Jet):
        return x.ln()
    if x <= 0.0:
        raise DomainError(f"ln of non-positive value {x!r}")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        return x.sqrt()
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)
