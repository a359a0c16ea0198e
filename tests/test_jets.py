"""Tests for the nested-dual scalar reference (``scalar_reference``), the
oracle the batched jet engine is held to, the float guards it shares
with ``paracr.jets``, and the engine's one-pass order-2 product and
quotient.

Oracles used here:
  * hand-evaluated calculus facts (polynomials, hyperbolic functions),
  * central finite differences with step 1e-5,
  * the chain rule applied to independently evaluated inner/outer jets,
  * the order-by-order product rule (the nested-dual rule down to plain
    multiplication) and quotient rule (``Jet._over``) for the one-pass
    order-2 product and quotient, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from accessors import second_partials
from expression_corpus import random_expression_corpus
from paracr.errors import DomainError
from paracr.jets import (
    Jet,
    _DIV_GUARD,
    _canonical,
    _layout,
    coordinate_jets,
    powi,
)
from scalar_reference import (
    Dual,
    coefficients,
    cosh,
    eval_dual,
    exp,
    ln,
    nth_tangent,
    seed,
    seed_multi,
    sinh,
    sqrt,
    tanh,
    value_of,
)


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestSingleDirection:
    def test_sinh_2x_at_zero_order1(self):
        (x,) = seed((0.0,), 0, 1)
        r = sinh(2.0 * x)
        assert value_of(r) == 0.0
        assert nth_tangent(r, 1) == pytest.approx(2.0, abs=1e-15)

    def test_square_at_three_order2(self):
        (x,) = seed((3.0,), 0, 2)
        r = x * x
        assert coefficients(r, 2) == pytest.approx([9.0, 6.0, 2.0], abs=1e-15)

    def test_cosh_2z_matches_central_difference(self):
        z0 = 0.3
        (z,) = seed((z0,), 0, 1)
        r = cosh(2.0 * z)
        fd = central_diff(lambda t: math.cosh(2.0 * t), z0)
        assert nth_tangent(r, 1) == pytest.approx(fd, rel=1e-8)

    def test_cubic_third_order(self):
        (z,) = seed((1.0,), 0, 3)
        r = z * z * z
        assert coefficients(r, 3) == pytest.approx([1.0, 3.0, 6.0, 6.0], abs=1e-12)

    def test_order0_is_bitwise_plain_arithmetic(self):
        xs = seed((0.7, -1.3), 0, 0)
        assert xs == (0.7, -1.3)
        r = sinh(2.0 * xs[0]) / cosh(xs[1] * xs[1])
        assert r == math.sinh(2.0 * 0.7) / math.cosh((-1.3) * (-1.3))


class TestSeeding:
    def test_seed_basic(self):
        xs = seed((1.0, 2.0), 0, 1)
        assert [value_of(x) for x in xs] == [1.0, 2.0]
        assert [nth_tangent(x, 1) for x in xs] == [1.0, 0.0]

    def test_mixed_product(self):
        x, y = seed_multi((2.0, 5.0), [0, 1])
        r = x * y
        assert nth_tangent(r, 2) == pytest.approx(1.0, abs=1e-15)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            seed((1.0, 2.0), 2, 1)
        with pytest.raises(IndexError):
            seed_multi((1.0,), [1])

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            seed((1.0,), 0, 4)


class TestMixedPartialsCommute:
    def test_commutation_on_random_expressions(self):
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            a, b, c = rng.uniform(-1.0, 1.0, 3)

            def f(x, y):
                return sinh(a * x * y) + cosh(b * x) * tanh(c * y) + x * x * y

            p = (0.4 + rng.uniform(0, 0.5), -0.3 + rng.uniform(0, 0.5))
            x1, y1 = seed_multi(p, [0, 1])
            x2, y2 = seed_multi(p, [1, 0])
            d_ab = nth_tangent(f(x1, y1), 2)
            d_ba = nth_tangent(f(x2, y2), 2)
            scale = max(1.0, abs(d_ab))
            assert abs(d_ab - d_ba) / scale <= 1e-12


class TestGuards:
    def test_division_guard(self):
        (x,) = seed((0.0,), 0, 1)
        with pytest.raises(DomainError):
            1.0 / x
        with pytest.raises(DomainError):
            x / 0.0

    def test_ln_guard(self):
        with pytest.raises(DomainError):
            ln(-1.0)
        (x,) = seed((0.0,), 0, 1)
        with pytest.raises(DomainError):
            ln(x)

    def test_sqrt_guard(self):
        with pytest.raises(DomainError):
            sqrt(-1.0)
        assert sqrt(0.0) == 0.0
        (x,) = seed((0.0,), 0, 1)
        with pytest.raises(DomainError):
            sqrt(x)

    def test_second_derivatives_of_an_order_1_jet(self):
        x, _ = coordinate_jets([[0.5, 1.0]], 1)
        with pytest.raises(ValueError, match="order-2 coefficients "
                           "requested from an order-1 jet"):
            second_partials(x)

    def test_integer_exponent_required(self):
        with pytest.raises(TypeError):
            powi(2.0, 1.5)

    def test_negative_exponent(self):
        (x,) = seed((2.0,), 0, 1)
        r = powi(x, -2)
        assert value_of(r) == pytest.approx(0.25, rel=1e-15)
        assert nth_tangent(r, 1) == pytest.approx(-2.0 / 8.0, rel=1e-14)


class TestDepthAlignment:
    def test_lower_depth_operand_is_constant_for_top_level(self):
        # d/dx (x * g) where g carries an unrelated inner level.
        inner = Dual(3.0, 1.0)  # depth 1
        (x,) = seed_multi((2.0,), [0])  # depth 1 as well -> same level!
        # Realize distinct levels the way pipelines do: seed on top of inner.
        x2 = Dual(inner, 1.0)  # depth 2, tracks a new direction
        r = x2 * x2
        assert value_of(r) == 9.0
        assert value_of(r.t) == 6.0  # d/d(top) x^2 = 2x
        assert nth_tangent(r, 2) == 2.0  # mixed with the inner level: d2/dxdx
        del x

    def test_constant_tangent_slots_mix_with_duals(self):
        a = Dual(Dual(1.5, 1.0), 1.0)
        b = Dual(Dual(0.5, 0.0), 0.0)
        r = a * b + b
        assert value_of(r) == 1.5 * 0.5 + 0.5


def _poly_chain_pairs(rng):
    """Pairs (f, g) of scalar maps with hand-differentiable structure."""
    a, b, c = rng.uniform(-1.0, 1.0, 3)

    def g(x):
        return a * x * x + b * x + 0.3

    def dg(x):
        return 2.0 * a * x + b

    def f(u):
        return sinh(c * u) + u * u

    def df(u):
        return c * cosh(c * u) + 2.0 * u

    return f, df, g, dg


class TestChainRule:
    def test_composition_equals_chained_jets(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f, df, g, dg = _poly_chain_pairs(rng)
            x0 = rng.uniform(-1.0, 1.0)
            (x,) = seed((x0,), 0, 1)
            composite = nth_tangent(f(g(x)), 1)
            chained = df(g(x0)) * dg(x0)
            scale = max(1.0, abs(chained))
            assert abs(composite - chained) / scale <= 1e-12


class TestFiniteDifferenceProperty:
    def test_200_random_expressions_first_order(self):
        corpus = random_expression_corpus(seed=1234, count=200, max_depth=6)
        assert len(corpus) == 200
        for expr_fn, point, direction in corpus:
            xs = seed_multi(point, [direction])
            jet = nth_tangent(eval_dual(expr_fn.args[0], xs), 1)

            def univariate(t):
                shifted = list(point)
                shifted[direction] = t
                return value_of(expr_fn(tuple(float(v) for v in shifted)))

            fd = central_diff(univariate, point[direction])
            scale = max(1.0, abs(jet), abs(fd))
            assert abs(jet - fd) / scale <= 1e-5


# Coefficients that are not ordinary numbers, and divisor values inside
# the guard band (|b_0| <= 1e-300), on its edge and next to it.
SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
GUARD_VALUES = [0.0, -0.0, _DIV_GUARD, -_DIV_GUARD, 5e-301, -1e-310,
                math.nextafter(_DIV_GUARD, 1.0),
                -math.nextafter(_DIV_GUARD, 1.0), 2e-300, -1e-299]


@st.composite
def quotient_operands(draw):
    """k and order-2 coefficient arrays a (P, r, 1) and b (P, 1, 1) over
    k directions, as Gauss-Jordan divides a pivot column by its pivot:
    ordinary numbers with a few specials written in, and some divisor
    values in or next to the guard band."""
    k = draw(st.integers(1, 9))
    size = _layout(k, 2).size
    count, rows = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    numbers = st.floats(-4.0, 4.0)
    a = draw(hnp.arrays(float, (count, rows, 1, size), elements=numbers))
    b = draw(hnp.arrays(float, (count, 1, 1, size), elements=numbers))
    for array in (a, b):
        for _ in range(draw(st.integers(0, 3))):
            index = draw(st.tuples(*(st.integers(0, n - 1)
                                     for n in array.shape)))
            array[index] = draw(st.sampled_from(SPECIALS))
    for p in range(count):
        if draw(st.booleans()):
            b[p, 0, 0, 0] = draw(st.sampled_from(GUARD_VALUES))
    return k, a, b


def _ordinary_operands(k, seed):
    rng = np.random.default_rng(seed)
    size = _layout(k, 2).size
    return (k, rng.uniform(-2.0, 2.0, (2, 3, 1, size)),
            rng.uniform(0.5, 2.0, (2, 1, 1, size)))


def _negative_nan_divisor(k, slot):
    """a = 0 over b = 0 but for -NaN in ``slot``: the one-pass
    quotient's broadcast product keeps another operand's NaN than the
    recursion's, so the NaN bits agree only when written canonically."""
    size = _layout(k, 2).size
    b = np.zeros((1, 1, 1, size))
    b[..., slot] = -math.nan
    return k, np.zeros((1, 1, 1, size)), b


class TestOrder2Quotient:
    @settings(max_examples=300, deadline=None)
    @given(quotient_operands())
    @example(_ordinary_operands(3, 31))
    @example(_ordinary_operands(9, 32))
    @example(_negative_nan_divisor(3, 3))
    def test_one_pass_is_the_order_by_order_quotient_bit_for_bit(
            self, operands):
        # a / b at order 2 divides in one pass; the recursion one order
        # at a time (Jet._over from the order-1 quotient) does the same
        # floating-point operations, so every coefficient, NaN and the
        # sign of zero included, is the same.
        k, a, b = operands
        a, b = Jet(a, _layout(k, 2)), Jet(b, _layout(k, 2))
        with np.errstate(all="ignore"):
            got = (a / b).c
            want = a._over(b, a._low() / b._low()).c
        assert got.shape == want.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


@st.composite
def product_operands(draw):
    """k, an order and coefficient arrays a (P, r, 1) and b (P, 1, c)
    over k directions, as a jet mat-mul multiplies a column by a row:
    ordinary numbers with a few specials written in."""
    k, order = draw(st.integers(1, 9)), draw(st.integers(0, 2))
    size = _layout(k, order).size
    count = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    numbers = st.floats(-4.0, 4.0)
    a = draw(hnp.arrays(float, (count, rows, 1, size), elements=numbers))
    b = draw(hnp.arrays(float, (count, 1, cols, size), elements=numbers))
    for array in (a, b):
        for _ in range(draw(st.integers(0, 3))):
            index = draw(st.tuples(*(st.integers(0, n - 1)
                                     for n in array.shape)))
            array[index] = draw(st.sampled_from(SPECIALS))
    return k, order, a, b


def _infinite_value_times_ones(k):
    """a with value +inf and every partial 1, b a jet of ones: every
    coefficient of a * b is +inf (inf * 1 + 1 * 1), no NaN."""
    size = _layout(k, 2).size
    a = np.ones((1, 1, 1, size))
    a[..., 0] = math.inf
    return k, 2, a, np.ones((1, 1, 1, size))


def nested_product(a, b):
    """a * b by the nested-dual rule one order at a time, down to plain
    multiplication: u w = u_low w_low + ε (u_low ∂w + ∂u w_low)."""
    if not a.layout.order:
        return a._new(a.c * b.c)
    low_a, low_b = a._low(), b._low()
    top = (nested_product(low_a._spread(), b._top())
           + nested_product(a._top(), low_b._spread()))
    return nested_product(low_a, low_b)._raise(top)


class TestOrder2Product:
    @settings(max_examples=300, deadline=None)
    @given(product_operands())
    @example(_infinite_value_times_ones(2))
    def test_one_pass_is_the_order_by_order_product_bit_for_bit(
            self, operands):
        # a * b up to order 2 multiplies in one pass; the nested-dual
        # rule one order at a time does the same floating-point
        # operations, so every coefficient, the sign of zero included,
        # is the same, and every NaN is np.nan
        k, order, a, b = operands
        a, b = Jet(a, _layout(k, order)), Jet(b, _layout(k, order))
        with np.errstate(all="ignore"):
            got = (a * b).c
            want = _canonical(nested_product(a, b).c)
        assert got.shape == want.shape
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
