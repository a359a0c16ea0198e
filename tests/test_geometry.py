"""Oracle tests for the pointwise geometry engine.

Oracle provenance markers used in comments below:
- [TRIVIAL]: forced by definitions (constant fields, identity frames).
- [DERIVED]: hand-derived closed forms (classical metrics with known
  Christoffel symbols and curvatures, dual coframes computed by hand,
  finite-difference cross-checks against an independent discretization).

Finite-difference comparisons use central differences with step 1e-6 and
scaled relative tolerance 1e-5; structural identities are held to
1e-9 .. 1e-12.
"""

import itertools
import math

import numpy as np
import pytest

import condition_reference as ref
from dim3_structures import random_dim3_structure
from geometry_reference import (
    cotton,
    d2Gamma,
    d3g,
    dRiem,
    lie_derivative_11,
    weyl,
)
from paracr import geometry
from paracr.errors import (
    DegenerateMetric,
    OutsidePatch,
    SingularFrame,
    ValidationError,
    WrongDimension,
)
from paracr.expr import parse
from paracr.geometry import (
    Chart,
    CoordinateStructure,
    FrameStructure,
    HyperboloidStructure,
    PointFrame,
    d_one_form,
    d_two_form,
    gauss_jordan,
    lie_bracket,
)
from paracr.jets import Jet, coordinate_jets, sqrt, tensor
from paracr.presets import cosymplectic, flat3d, hyperboloid, p1
from paracr.runner import engine_self_tests
from point_helpers import components
import scalar_reference
from scalar_reference import Dual, depth_of, frame_matrix


def sample_points(chart, rng, count):
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    return [tuple(float(v) for v in lo + (hi - lo) * rng.random(len(lo)))
            for _ in range(count)]


def sectional(pf, X, Y):
    """The reference sectional curvature of span(X, Y) at ``pf`` as
    (k, ok), with ok False (and k NaN) for a degenerate plane."""
    try:
        return ref.sectional(pf, X, Y), True
    except ref.DegeneratePlane:
        return math.nan, False


def _tangent(v):
    return v.t if depth_of(v) == 1 else 0.0


def field_jacobian(fn, point):
    """jac[a][k] = d(component k)/d(coordinate a) of a vector field given
    as a callable point -> components, via one jet level."""
    m = len(point)
    jac = np.zeros((m, m))
    for a in range(m):
        ys = [Dual(x, 1.0 if i == a else 0.0) for i, x in enumerate(point)]
        out = fn(ys)
        jac[a] = [_tangent(c) for c in out]
    return jac


def frame_column(structure, col):
    return lambda xs: [row[col] for row in frame_matrix(structure, xs)]


def scaled_diff(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    return float(np.max(np.abs(got - want))) / scale if got.size else 0.0


def zeros_structure(chart, g_rows):
    """Coordinate structure with the given metric and zero phi/xi/eta
    (only the metric side of the engine is exercised)."""
    coords = chart.coordinates
    m = chart.dim
    zero = parse("0", coords)
    g = [[parse(t, coords) for t in row] for row in g_rows]
    return CoordinateStructure(chart, g, [[zero] * m for _ in range(m)],
                               [zero] * m, [zero] * m)


BOX3 = ((-1.0, 1.0),) * 3


# Order-2 jets in two directions.
LAYOUT2 = coordinate_jets(np.zeros((1, 2)), 2)[0].layout


def batch_solve(A, B=None, xs=None):
    """Batched Gauss-Jordan solve of A X = B (identity by default) at
    the points of ``xs`` (one constant point when omitted)."""
    xs = xs or coordinate_jets([[0.0]], 0)
    A = tensor(A, xs[0])
    B = tensor(B or np.eye(len(A.c[0])).tolist(), xs[0])
    return gauss_jordan(A, B, 1e-10)


PLANNED_FAMILIES = {"p1": p1, "cosymplectic": cosymplectic,
                    "hyperboloid": hyperboloid}
PLANNED = ([("p1", n) for n in range(2, 5)]
           + [(family, n) for family in ("cosymplectic", "hyperboloid")
              for n in range(1, 5)])


def planned_system(structure, count=64):
    """A and B of the elimination a frame or hyperboloid structure runs
    by its plan, as order-2 jets at ``count`` sampled points (some of
    the hyperboloid's beyond its patch, where the jets are NaN)."""
    points = sample_points(structure.chart, np.random.default_rng(17), count)
    xs = coordinate_jets(np.array(points), 2)
    if isinstance(structure, HyperboloidStructure):
        with np.errstate(invalid="ignore"):
            return structure._tangent_products(
                xs, sqrt(structure._graph_arg(xs)))
    return (tensor(structure.frame_matrix(xs), xs[0]),
            tensor(np.eye(structure.dim).tolist(), xs[0]))


def second_candidates(A):
    """Per column of the values A (P x m x m), whether a row below the
    pivot row is nonzero there at some point when a values-only
    Gauss-Jordan elimination with partial pivoting reaches it.  Exact
    zeros stay exact: 0 - f·0 and 0 - 0·x are zeros."""
    W = A.copy()
    points = np.arange(len(W))
    found = []
    for col in range(W.shape[1]):
        found.append(bool((W[:, col + 1:, col] != 0).any()))
        piv = col + np.argmax(np.abs(W[:, col:, col]), axis=1)
        W[points, col], W[points, piv] = W[points, piv], W[points, col]
        with np.errstate(all="ignore"):
            factor = W[:, :, col] / W[:, col, col, None]
        factor[:, col] = 0.0
        W -= factor[:, :, None] * W[:, None, col]
    return found


def indices(ix, size):
    """A plan's index (a slice, an index array or None) as an array."""
    return np.arange(size)[ix] if ix is not None else np.arange(0)


class TestGaussJordan:
    def test_float_inverse(self):
        # [TRIVIAL] A @ inv(A) == I for a well-conditioned matrix.
        A = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
        inv, failed, det = batch_solve(A)
        prod = np.array(A) @ inv.v[0]
        assert np.max(np.abs(prod - np.eye(3))) < 1e-12
        assert abs(det[0] - np.linalg.det(np.array(A))) < 1e-12
        assert not failed[0]

    def test_singular_raises(self):
        # a singular point is flagged in the failure mask, and a frame
        # structure raises SingularFrame for it
        A = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            _, failed, _ = batch_solve(A)
        assert failed[0]

    def test_pivoting(self):
        # [TRIVIAL] zero leading pivot forces a row swap.
        A = [[0.0, 1.0], [1.0, 0.0]]
        inv, failed, _ = batch_solve(A)
        assert np.max(np.abs(inv.v[0] - np.array(A))) < 1e-15
        assert not failed[0]

    def test_dual_inverse_matches_closed_form(self):
        # [DERIVED] A(x) = [[2+x, 1], [1, 2]], det = 3 + 2x,
        # inv = (1/det) [[2, -1], [-1, 2+x]]; value and x-derivative
        # (the rule d(A^-1) = -A^-1 (dA) A^-1) from the closed form, at
        # x = 0.2 and, in the same batch, at x = -0.7.
        xs = coordinate_jets([[0.2], [-0.7]], 1)
        inv, failed, _ = batch_solve([[xs[0] + 2.0, 1.0], [1.0, 2.0]], xs=xs)
        for p, x in enumerate((0.2, -0.7)):
            det = 3.0 + 2.0 * x
            ddet = 2.0
            closed = [[2.0 / det, -1.0 / det], [-1.0 / det, (2.0 + x) / det]]
            dclosed = [[-2.0 * ddet / det ** 2, ddet / det ** 2],
                       [ddet / det ** 2, (det - (2.0 + x) * ddet) / det ** 2]]
            assert np.max(np.abs(inv.v[p] - closed)) < 1e-14
            assert np.max(np.abs(inv.d[p, :, :, 0] - dclosed)) < 1e-14
            assert not failed[p]

    def test_joint_solve(self):
        # [TRIVIAL] solving A X = B for two right-hand columns at once.
        A = [[3.0, 1.0], [1.0, 2.0]]
        B = [[1.0, 0.0], [0.0, 1.0]]
        X, _, _ = batch_solve(A, B)
        prod = np.array(A) @ X.v[0]
        assert np.max(np.abs(prod - np.eye(2))) < 1e-14

    def test_batch_rows_are_their_own_solves_bit_for_bit(self):
        # One call over six points of random order-2 jets in two
        # directions: points 0 and 2 pivot in column 0 and points 1
        # and 4 do not, point 3 has a zero first column of values and
        # point 5 a NaN value.
        rng = np.random.default_rng(11)
        A = rng.uniform(-1.0, 1.0, (6, 3, 3, LAYOUT2.size))
        B = rng.uniform(-1.0, 1.0, (6, 3, 2, LAYOUT2.size))
        A[[0, 2], 1, 0, 0] = 3.0
        A[[1, 4], 0, 0, 0] = 3.0
        A[3, :, 0, 0] = 0.0
        A[5, 2, 1, 0] = np.nan
        assert_rows_are_their_own_solves(A, B, failing=(3, 5))

    def test_sparse_rows_are_their_own_solves_bit_for_bit(self):
        # E = I + couplings (6 x 6) against the identity, as a frame is
        # inverted, with the dead entries exact zeros (some -0.0).  The
        # couplings of modulus 3 make points 0 and 2 pivot on row 2 in
        # column 0 and points 1 and 4 on row 3 in column 1, where the
        # other points keep the diagonal, so the pivot rows must share
        # their patterns.  Updates fill in (entry (0, 4)); row 5 of the
        # inverse keeps dead entries.  Point 3 has a NaN value.
        # Dropping the two entries of column 2 on and below the
        # diagonal leaves it structurally singular: every point fails.
        rng = np.random.default_rng(12)
        live = np.eye(6, dtype=bool)
        live[[0, 1, 2, 3, 4, 0], [3, 4, 0, 1, 2, 5]] = True
        A = np.where(live[..., None],
                     rng.uniform(-1.0, 1.0, (6, 6, 6, LAYOUT2.size)), 0.0)
        A[:, [1, 3], [0, 2]] = -0.0
        A[:, range(6), range(6), 0] += 2.0
        A[:, 2, 0, 0] = A[:, 3, 1, 0] = 0.5
        A[[0, 2], 2, 0, 0] = 3.0
        A[[1, 4], 3, 1, 0] = -3.0
        A[3, 4, 2, 0] = np.nan
        B = np.zeros((6, 6, 6, LAYOUT2.size))
        B[:, range(6), range(6), 0] = 1.0
        identity = np.eye(6, dtype=bool)
        plan = geometry.sparse_elimination(
            np.concatenate([live, identity], axis=1))
        assert plan[1][0, 4] and not plan[1][5, 6:11].any()
        assert_rows_are_their_own_solves(A, B, failing=(3,), plan=plan)

        live[[2, 4], 2] = False
        A[:, [2, 4], 2] = 0.0
        assert_rows_are_their_own_solves(
            A, B, failing=range(6), plan=geometry.sparse_elimination(
                np.concatenate([live, identity], axis=1)))

    @pytest.mark.parametrize("family, n", PLANNED)
    def test_search_where_a_second_row_can_pivot(self, family, n):
        # A values-only elimination of the structure's system at 64
        # points finds a nonzero below the pivot exactly in the columns
        # the plan searches: p1's x- and z-columns, cosymplectic's y-
        # and z-columns and the hyperboloid's last column have none.
        structure = PLANNED_FAMILIES[family](n).structure
        A, _ = planned_system(structure)
        search = [s for s, _, _ in structure._plan[0]]
        assert search == second_candidates(A.v)
        coords = structure.chart.coordinates
        unsearched = {"p1": [c for c in coords if c[0] in "xz"],
                      "cosymplectic": [c for c in coords if c[0] in "yz"],
                      "hyperboloid": [coords[-1]]}[family]
        assert [c for c, s in zip(coords, search) if not s] == unsearched

    @pytest.mark.parametrize("family, n", PLANNED)
    def test_unsearched_columns_are_bit_for_bit(self, family, n):
        # Against a copy of the plan that searches every column: the
        # same X, failure mask and determinant, as uint64.  A copy that
        # searches none differs, so pivots move at these points.
        structure = PLANNED_FAMILIES[family](n).structure
        A, B = planned_system(structure)
        steps, solved = structure._plan

        def solve(search):
            plan = ([(search, rows, blocks) for _, rows, blocks in steps],
                    solved)
            with np.errstate(all="ignore"):
                return gauss_jordan(A, B, 1e-10, plan)

        with np.errstate(all="ignore"):
            X, failed, det = gauss_jordan(A, B, 1e-10, structure._plan)
        X_all, failed_all, det_all = solve(True)
        assert X.c.view(np.uint64).tolist() == \
            X_all.c.view(np.uint64).tolist()
        assert failed.tolist() == failed_all.tolist()
        assert det.view(np.uint64).tolist() == det_all.view(np.uint64).tolist()
        assert (solve(False)[2].view(np.uint64) != det.view(np.uint64)).any()

    def test_full_plan_blocks_stay_within_the_product_bound(self):
        # The full elimination of m x (m + r): searched but in the last
        # column, its blocks cover every other row and every column
        # right of the pivot once, in one block unless that exceeds
        # (m - 1) max(m, r) entries; a larger one is split at the pivot
        # row and, where still beyond the bound, at the A|B boundary.
        for m in range(1, 16):
            for r in range(1, m + 2):
                steps, solved = geometry.sparse_elimination(
                    np.ones((m, m + r), dtype=bool))
                bound = (m - 1) * max(m, r)
                assert solved.all() and len(steps) == m
                for col, (search, rows, blocks) in enumerate(steps):
                    assert search == (col < m - 1)
                    rows = indices(rows, m)
                    assert rows.tolist() == [i for i in range(m) if i != col]
                    width = m + r - col - 1  # the columns right of the pivot
                    covered = np.zeros((1, m, m + r), dtype=int)
                    for block, part, right in blocks:
                        covered[block] += 1
                        block_rows = np.arange(m)[block[1]].ravel()
                        block_cols = np.arange(m + r)[block[2]]
                        assert block_rows.tolist() == rows[part].tolist()
                        assert block_cols.tolist() == \
                            indices(right, m + r).tolist()
                        assert block_rows.size * block_cols.size <= bound
                        if rows.size * width > bound:
                            assert block_rows.max() < col \
                                or block_rows.min() > col
                        if block_cols.size < width:
                            assert block_rows.size * width > bound
                    assert covered[0].tolist() == (
                        (np.arange(m)[:, None] != col)
                        & (np.arange(m + r) > col)).astype(int).tolist()
                    if rows.size * width <= bound:
                        assert len(blocks) == int(rows.size * width > 0)


def assert_rows_are_their_own_solves(A, B, failing, plan=None):
    """One gauss_jordan call over every point of the order-2 jets A and B
    (coefficients in two directions) fails at the points ``failing``.
    Every row is, bit for bit, the solve of that row alone, failure
    flag and determinant included (so -0.0 against +0.0 and NaN
    payloads count), and each regular row is the nested-dual
    elimination for every direction pair, which with a sparse ``plan``
    may differ in the sign of an exact zero only."""
    def solve(rows):
        with np.errstate(divide="ignore", invalid="ignore"):
            return gauss_jordan(Jet(A[rows], LAYOUT2),
                                Jet(B[rows], LAYOUT2), 1e-10, plan)

    X, failed, det = solve(slice(None))
    assert np.flatnonzero(failed).tolist() == list(failing)
    for p in range(len(A)):
        Xp, failed_p, det_p = solve(slice(p, p + 1))
        assert X.c[p].view(np.uint64).tolist() == \
            Xp.c[0].view(np.uint64).tolist(), p
        assert failed[p] == failed_p[0]
        assert det[p:p + 1].view(np.uint64) == det_p.view(np.uint64)

    def nested(c, a, b):
        # value, ∂_b and ∂_a, ∂_a∂_b as a dual over b inside a
        return Dual(Dual(c[0], c[1 + b]), Dual(c[1 + a], c[3 + 2 * a + b]))

    regular = [p for p in range(len(A)) if p not in failing]
    for p, (a, b) in itertools.product(regular, itertools.product(
            range(2), repeat=2)):
        want = scalar_reference.gauss_jordan(
            [[nested(c, a, b) for c in row] for row in A[p]],
            [[nested(c, a, b) for c in row] for row in B[p]],
            1e-10, SingularFrame)
        want = np.array([[(x.p.p, x.p.t, x.t.p, x.t.t) for x in row]
                         for row in want])
        got = np.stack([X.v[p], X.d[p, ..., b], X.d[p, ..., a],
                        X.dd[p, ..., a, b]], axis=-1)
        if plan is not None:  # -0.0 + 0.0 is +0.0; other bits stay
            got, want = got + 0.0, want + 0.0
        assert got.view(np.uint64).tolist() == \
            want.view(np.uint64).tolist(), (p, a, b)


def dense_mat_mul(A, B):
    """A @ B as the sum of the outer products A[:, e] B[e, :], left to
    right in e, every term taken: the product without patterns."""
    inner = A.c.shape[2] if isinstance(A, Jet) else A.shape[1]
    total = None
    for e in range(inner):
        term = A[:, e, None] * B[None, e, :]
        total = term if total is None else total + term
    return total


def dense_inner(signs, U, V):
    """G(U, V) = Σ_A σ_A U_A V_A over the last tensor axis, every term
    taken, left to right in A: the ambient sum without patterns."""
    total = None
    for A, sign in enumerate(signs):
        term = float(sign) * U[..., A] * V[..., A]
        total = term if total is None else total + term
    return total


class DenseHyperboloid:
    """A hyperboloid structure whose g, B and eta are dense ambient sums
    of its tangent vectors, each quotient σ_i u_i / s taken alone: the
    realization without patterns, with the same rejections."""

    def __init__(self, structure):
        self.structure = structure
        self.chart = structure.chart

    def component_jets(self, xs):
        st = self.structure
        m, signs = st.dim, st._signs
        arg = st._graph_arg(xs)
        s = sqrt(arg)
        T = tensor([[1.0 if A == i else 0.0 for A in range(m)]
                    + [float(signs[i]) * xs[i] / s] for i in range(m)], s)
        xi_amb = -tensor(list(xs) + [s], s)[st._J]
        g = dense_inner(signs, T[:, None], T[None, :])
        eta = dense_inner(signs, T, xi_amb[None, :])
        B = dense_inner(signs, T[:, None], T[None, :, st._J])
        rhs = Jet(np.concatenate([B.c, eta.c[:, :, None]], axis=2), g.layout)
        sol = gauss_jordan(g, rhs, geometry._MIN_METRIC_DET)[0]
        outside = ~(arg.v >= geometry._MIN_PATCH_MARGIN)
        return ((g, sol[:, :m], sol[:, m], eta),
                [(outside, OutsidePatch, lambda i: "outside the patch")])


class TestSparseMatMul:
    # A (4 x 3) has a dead row and a dead column; B (3 x 5) meets that
    # column only in its column 3, so the product has a dead row and a
    # dead column.  The constants C and D are zero where B and A are dead.
    LIVE_A = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 0]], bool)
    LIVE_B = np.array([[1, 0, 1, 0, 1], [1, 1, 1, 0, 1], [1, 1, 1, 1, 1]],
                      bool)

    def operands(self):
        rng = np.random.default_rng(13)
        A = np.where(self.LIVE_A[..., None],
                     rng.uniform(-1.0, 1.0, (3, 4, 3, LAYOUT2.size)), -0.0)
        B = np.where(self.LIVE_B[..., None],
                     rng.uniform(-1.0, 1.0, (3, 3, 5, LAYOUT2.size)), 0.0)
        C = np.where(self.LIVE_B, rng.uniform(-1.0, 1.0, (3, 5)), 0.0)
        D = np.where(self.LIVE_A, rng.uniform(-1.0, 1.0, (4, 3)), -0.0)
        return Jet(A, LAYOUT2), Jet(B, LAYOUT2), C, D

    @pytest.mark.parametrize("kind", ["jet x jet", "jet x constant",
                                      "transposed"])
    def test_against_the_dense_sum(self, kind):
        # On the product's pattern the values and NaN positions are the
        # dense sum's; off it the product is exactly zero.  The NaN (at
        # point 1) sits in A[0, 1], or in B[1, 0] for the transposed
        # product Bᵀ Dᵀ (the dense sum D B, transposed), whose partners
        # are live wherever the product row (column) is: the dense sum
        # also spreads it into the dead entries, through terms 0·NaN
        # that the product skips.
        # The plan is built from the patterns, a constant factor standing
        # for its own: one step per inner index with live rows and
        # columns for two jets, one per term rank with a constant.
        A, B, C, D = self.operands()
        A.c[1, 0, 1, 0] = B.c[1, 1, 0, 0] = np.nan
        left, right, pattern_a, pattern_b = {
            "jet x jet": (A, B, self.LIVE_A, self.LIVE_B),
            "jet x constant": (A, C, self.LIVE_A, C),
            "transposed": (geometry._transpose(B), D.T, self.LIVE_B.T, D.T),
        }[kind]
        plan = geometry._MatMulPlan(pattern_a, pattern_b)
        terms = (pattern_a != 0)[:, :, None] & (pattern_b != 0)[None]
        if kind == "jet x jet":
            assert [a[1] for a, _, _ in plan.steps] == [
                e for e in range(terms.shape[1]) if terms[:, e].any()]
        else:
            assert len(plan.steps) == terms.sum(axis=1).max()
            assert sum(len(out[1]) for *_, out in plan.steps) == terms.sum()
        with np.errstate(invalid="ignore"):
            got = geometry._mat_mul(left, right, plan)
            if kind == "transposed":
                got, want = geometry._transpose(got), dense_mat_mul(D, B)
            else:
                want = dense_mat_mul(left, right)
        live = plan.live.T if kind == "transposed" else plan.live
        assert live.tolist() == (self.LIVE_A.astype(int)
                                 @ self.LIVE_B.astype(int) > 0).tolist()
        assert not live[1].any() and not live[:, 3].any()
        np.testing.assert_array_equal(got.c[:, live], want.c[:, live])
        assert not got.c[:, ~live].any()
        assert np.isnan(want.c[:, ~live]).any()
        assert np.isnan(got.c).any()


class TestChartValidation:
    def test_even_dimension_rejected(self):
        with pytest.raises(ValidationError):
            Chart(("x", "y"), ((-1.0, 1.0), (-1.0, 1.0)))

    def test_dimension_one_rejected(self):
        with pytest.raises(ValidationError):
            Chart(("x",), ((-1.0, 1.0),))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValidationError):
            Chart(("x", "y", "z"), ((-1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)))

    def test_chart_shape(self):
        chart = Chart(("x", "y", "z"), BOX3)
        assert chart.dim == 3 and chart.n == 1


class TestFrameConversion:
    def test_identity_frame_recovers_hat_tensors(self):
        # [TRIVIAL] with E = I the coordinate tensors equal the
        # frame-basis constants.
        coords = ("x", "y", "z")
        chart = Chart(coords, BOX3)
        one, zero = parse("1", coords), parse("0", coords)
        E = [[one if i == j else zero for j in range(3)] for i in range(3)]
        g_hat = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        phi_hat = [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        s = FrameStructure(chart, E, g_hat, phi_hat,
                           [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        g, phi, xi, eta = components(s, (0.3, -0.1, 0.7))
        assert np.max(np.abs(np.array(g) - np.array(g_hat))) < 1e-15
        assert np.max(np.abs(np.array(phi) - np.array(phi_hat))) < 1e-15
        assert np.max(np.abs(np.array(xi) - [0, 0, 1])) < 1e-15
        assert np.max(np.abs(np.array(eta) - [0, 0, 1])) < 1e-15

    def test_constant_frame_against_numpy(self):
        # [DERIVED] numpy linear algebra as the independent oracle for a
        # constant non-orthogonal frame: g = inv(E)^T g_hat inv(E),
        # phi = E phi_hat inv(E).
        coords = ("x", "y", "z")
        chart = Chart(coords, BOX3)
        texts = [["1", "1", "0"], ["0", "1", "0"], ["0", "1", "1"]]
        E = [[parse(t, coords) for t in row] for row in texts]
        g_hat = [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        phi_hat = [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
        s = FrameStructure(chart, E, g_hat, phi_hat,
                           [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        g, phi, xi, eta = components(s, (0.0, 0.0, 0.0))
        En = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        Einv = np.linalg.inv(En)
        assert np.max(np.abs(np.array(g) - Einv.T @ np.array(g_hat) @ Einv)) < 1e-13
        assert np.max(np.abs(np.array(phi) - En @ np.array(phi_hat) @ Einv)) < 1e-13
        assert np.max(np.abs(np.array(xi) - En @ [0.0, 0.0, 1.0])) < 1e-13
        assert np.max(np.abs(np.array(eta) - np.array([0.0, 0.0, 1.0]) @ Einv)) < 1e-13

    def test_p1_eta_coordinate_components(self):
        # [DERIVED] dual coframe by hand: the last frame covector must
        # kill the frame columns containing -2 x_a d/dz, which forces
        # eta = dz + 2 x_1 dy_1 + ... + 2 x_n dy_n.
        d = p1(2)
        rng = np.random.default_rng(7)
        for pt in sample_points(d.structure.chart, rng, 5):
            _, _, _, eta = components(d.structure, pt)
            want = [0.0, 0.0, 2 * pt[0], 2 * pt[1], 1.0]
            assert np.max(np.abs(np.array(eta) - want)) < 1e-12

    def test_singular_frame_raises(self):
        coords = ("x", "y", "z")
        chart = Chart(coords, BOX3)
        texts = [["x", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        E = [[parse(t, coords) for t in row] for row in texts]
        s = FrameStructure(chart, E, [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]],
                           [[0.0] * 3] * 3, [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
        with pytest.raises(SingularFrame):
            components(s, (0.0, 0.5, 0.5))


ALL_PRESETS = [flat3d(), hyperboloid(1), p1(2), cosymplectic(1)]


class TestDerivativeArrays:
    @pytest.mark.parametrize("desc", ALL_PRESETS, ids=lambda d: d.name)
    def test_first_derivatives_against_fd(self, desc):
        # [DERIVED] central finite differences of the components as an
        # independent discretization of the jet-computed arrays.
        rng = np.random.default_rng(11)
        s = desc.structure
        m = s.chart.dim
        h = 1e-6
        for pt in sample_points(s.chart, rng, 2):
            arrays = PointFrame(s, pt)
            for a in range(m):
                up = list(pt)
                dn = list(pt)
                up[a] += h
                dn[a] -= h
                pu = components(s, tuple(up))
                pd = components(s, tuple(dn))
                for got, hi, lo in (
                    (arrays.dg[a], pu[0], pd[0]),
                    (arrays.dphi[a], pu[1], pd[1]),
                    (arrays.dxi[a], pu[2], pd[2]),
                    (arrays.deta[a], pu[3], pd[3]),
                ):
                    fd = (np.array(hi, float) - np.array(lo, float)) / (2 * h)
                    assert scaled_diff(got, fd) < 1e-5

    @pytest.mark.parametrize("desc", ALL_PRESETS, ids=lambda d: d.name)
    def test_second_derivatives_against_fd(self, desc):
        rng = np.random.default_rng(13)
        s = desc.structure
        m = s.chart.dim
        h = 1e-6
        pt = sample_points(s.chart, rng, 1)[0]
        arrays = PointFrame(s, pt)
        for a in range(m):
            up = list(pt)
            dn = list(pt)
            up[a] += h
            dn[a] -= h
            au = PointFrame(s, tuple(up))
            ad = PointFrame(s, tuple(dn))
            fd = (au.dg - ad.dg) / (2 * h)
            assert scaled_diff(arrays.d2g[a], fd) < 1e-5
            fd = (au.dphi - ad.dphi) / (2 * h)
            assert scaled_diff(arrays.d2phi[a], fd) < 1e-5
            fd = (au.dxi - ad.dxi) / (2 * h)
            assert scaled_diff(arrays.d2xi[a], fd) < 1e-5
            fd = (au.deta - ad.deta) / (2 * h)
            assert scaled_diff(arrays.d2eta[a], fd) < 1e-5

    def test_third_metric_derivatives_against_fd(self):
        s = flat3d().structure
        pt = (0.21, -0.4, 0.33)
        third = d3g(PointFrame(s, pt).single)[0]
        h = 1e-5
        for a in range(3):
            up = list(pt)
            dn = list(pt)
            up[a] += h
            dn[a] -= h
            au = PointFrame(s, tuple(up))
            ad = PointFrame(s, tuple(dn))
            fd = (au.d2g - ad.d2g) / (2 * h)
            assert scaled_diff(third[a], fd) < 1e-5

    @pytest.mark.parametrize("desc", ALL_PRESETS, ids=lambda d: d.name)
    def test_mixed_partials_commute(self, desc):
        # The second partials are symmetric and agree with univariate
        # jets along random directions u, an independent route to the
        # quadratic form uᵀ(d2)u.
        rng = np.random.default_rng(17)
        pt = sample_points(desc.structure.chart, rng, 1)[0]
        pf = PointFrame(desc.structure, pt)
        assert engine_self_tests(pf.single)["mixed_partial"] < 1e-12


class TestChristoffel:
    def test_constant_metric_is_flat(self):
        # [TRIVIAL] constant coefficients: all Christoffel symbols and
        # the whole curvature tensor vanish.
        chart = Chart(("x", "y", "z"), BOX3)
        s = zeros_structure(chart, [["2", "1", "0"],
                                    ["1", "3", "0"],
                                    ["0", "0", "1"]])
        pf = PointFrame(s, (0.3, 0.1, -0.5))
        assert np.max(np.abs(pf.Gamma)) < 1e-12
        assert np.max(np.abs(pf.Riem)) < 1e-12

    def test_polar_style_metric(self):
        # [DERIVED] g = diag(1, x^2, 1) away from x = 0:
        # Gamma^x_yy = -x, Gamma^y_xy = Gamma^y_yx = 1/x, all others 0;
        # the metric is flat (polar coordinates on a plane, times a line).
        chart = Chart(("x", "y", "z"),
                      ((0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)))
        s = zeros_structure(chart, [["1", "0", "0"],
                                    ["0", "x^2", "0"],
                                    ["0", "0", "1"]])
        x = 0.8
        pf = PointFrame(s, (x, 0.2, -0.3))
        want = np.zeros((3, 3, 3))
        want[0, 1, 1] = -x
        want[1, 0, 1] = want[1, 1, 0] = 1.0 / x
        assert np.max(np.abs(pf.Gamma - want)) < 1e-12
        assert np.max(np.abs(pf.Riem)) < 1e-10

    def test_hyperbolic_plane_product(self):
        # [DERIVED] g = diag(1, sinh(x)^2, 1), the hyperbolic plane of
        # curvature -1 times a flat line: Gamma^x_yy = -sinh x cosh x,
        # Gamma^y_xy = cosh x / sinh x, sectional(d/dx, d/dy) = -1,
        # scalar curvature 2 * (-1) = -2.
        chart = Chart(("x", "y", "z"),
                      ((0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)))
        s = zeros_structure(chart, [["1", "0", "0"],
                                    ["0", "sinh(x)^2", "0"],
                                    ["0", "0", "1"]])
        x = 1.1
        pf = PointFrame(s, (x, 0.4, 0.2))
        want = np.zeros((3, 3, 3))
        want[0, 1, 1] = -math.sinh(x) * math.cosh(x)
        want[1, 0, 1] = want[1, 1, 0] = math.cosh(x) / math.sinh(x)
        assert np.max(np.abs(pf.Gamma - want)) < 1e-12
        k, ok = sectional(pf, [1.0, 0, 0], [0, 1.0, 0])
        assert ok and abs(k + 1.0) < 1e-9
        assert abs(pf.r + 2.0) < 1e-9

    @pytest.mark.parametrize("desc", ALL_PRESETS, ids=lambda d: d.name)
    def test_metric_compatibility_and_symmetry(self, desc):
        rng = np.random.default_rng(19)
        for pt in sample_points(desc.structure.chart, rng, 3):
            pf = PointFrame(desc.structure, pt)
            assert pf.nabla_g < 1e-9
            assert pf.gamma_symmetry < 1e-12
            assert pf.metric_symmetry < 1e-12
            assert pf.inverse_identity < 1e-12

    def test_gamma_derivative_against_fd(self):
        # [DERIVED] dGamma and d2Gamma against finite differences of
        # exactly computed lower orders.
        d = p1(2)
        pt = (0.3, -0.2, 0.1, 0.4, 1.0)
        pf = PointFrame(d.structure, pt)
        h = 1e-6
        m = 5
        for a in range(m):
            up = list(pt)
            dn = list(pt)
            up[a] += h
            dn[a] -= h
            fd = (PointFrame(d.structure, tuple(up)).Gamma
                  - PointFrame(d.structure, tuple(dn)).Gamma) / (2 * h)
            assert scaled_diff(pf.dGamma[a], fd) < 1e-5

    def test_gamma_second_derivative_against_fd(self):
        s = flat3d().structure
        pt = (0.2, -0.1, 0.35)
        second = d2Gamma(PointFrame(s, pt).single)[0]
        h = 1e-5
        for a in range(3):
            up = list(pt)
            dn = list(pt)
            up[a] += h
            dn[a] -= h
            fd = (PointFrame(s, tuple(up)).dGamma
                  - PointFrame(s, tuple(dn)).dGamma) / (2 * h)
            assert scaled_diff(second[a], fd) < 1e-5


class TestCurvature:
    def test_flat3d_curvature_vanishes(self):
        rng = np.random.default_rng(23)
        d = flat3d()
        for pt in sample_points(d.structure.chart, rng, 5):
            pf = PointFrame(d.structure, pt)
            assert np.max(np.abs(pf.Riem)) < 1e-8
            assert np.max(np.abs(pf.Ric)) < 1e-9
            assert abs(pf.r) < 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_hyperboloid_constant_curvature(self, n):
        # [DERIVED] the induced metric has constant sectional curvature
        # -1: R(X,Y)Z = -(g(Y,Z) X - g(X,Z) Y), hence
        # Ric = -2n g, r = -2n(2n+1).
        rng = np.random.default_rng(29)
        d = hyperboloid(n)
        m = 2 * n + 1
        for pt in sample_points(d.structure.chart, rng, 3):
            pf = PointFrame(d.structure, pt)
            expect = -(np.einsum('by,kw->kwby', pf.g, np.eye(m))
                       - np.einsum('wy,kb->kwby', pf.g, np.eye(m)))
            assert np.max(np.abs(pf.Riem - expect)) < 1e-6
            assert np.max(np.abs(pf.Ric + 2 * n * pf.g)) < 1e-6
            assert abs(pf.r - d.targets["r"]) < 1e-6

    @pytest.mark.parametrize("n", [1, 2])
    def test_hyperboloid_star_contractions(self, n):
        # [DERIVED] for constant curvature -1 with the compatibility
        # identity, Ric*(Y,Z) = g(Y,Z) - eta(Y) eta(Z) and r* = 2n.
        rng = np.random.default_rng(31)
        d = hyperboloid(n)
        for pt in sample_points(d.structure.chart, rng, 2):
            pf = PointFrame(d.structure, pt)
            want = pf.g - np.outer(pf.eta, pf.eta)
            assert np.max(np.abs(pf.Ric_star - want)) < 1e-6
            assert abs(pf.r_star - d.targets["r_star"]) < 1e-6

    def test_riemann_derivative_against_fd(self):
        # [DERIVED] dRiem against finite differences on a structure with
        # genuinely nonconstant curvature.
        s = random_dim3_structure(1)
        pt = (0.25, -0.4, 0.15)
        first = dRiem(PointFrame(s, pt).single)[0]
        h = 1e-6
        for a in range(3):
            up = list(pt)
            dn = list(pt)
            up[a] += h
            dn[a] -= h
            fd = (PointFrame(s, tuple(up)).Riem
                  - PointFrame(s, tuple(dn)).Riem) / (2 * h)
            assert scaled_diff(first[a], fd) < 1e-4

    def test_curvature_identities(self):
        rng = np.random.default_rng(37)
        for s in (random_dim3_structure(2), p1(2).structure,
                  hyperboloid(1).structure):
            for pt in sample_points(s.chart, rng, 2):
                pf = PointFrame(s, pt)
                assert pf.bianchi < 1e-7
                assert pf.riemann_skew < 1e-9


class TestFieldCalculus:
    def test_bracket_of_constant_fields_vanishes(self):
        # [TRIVIAL]
        X = np.array([1.0, 2.0, -1.0])
        Y = np.array([0.5, 0.0, 3.0])
        Z = np.zeros((3, 3))
        assert np.max(np.abs(lie_bracket(X, Z, Y, Z))) < 1e-15

    def test_coordinate_bracket_oracle(self):
        # [DERIVED] [x d/dy, d/dx] = -d/dy.
        X = np.array([0.0, 0.3, 0.0])   # at the point x = 0.3
        Xjac = np.zeros((3, 3))
        Xjac[0, 1] = 1.0                # d(X^y)/dx = 1
        Y = np.array([1.0, 0.0, 0.0])
        Yjac = np.zeros((3, 3))
        got = lie_bracket(X, Xjac, Y, Yjac)
        assert np.max(np.abs(got - [0.0, -1.0, 0.0])) < 1e-15

    def test_p1_frame_bracket_with_reeb(self):
        # [DERIVED] the frame field carrying -f d/dx_a has
        # [e_{n+a}, d/dz] = (df/dz) e_a; for the default
        # f = (1 + x_1^2 + x_2^2)/z this is -(1 + x_1^2 + x_2^2)/z^2 e_a.
        d = p1(2)
        s = d.structure
        rng = np.random.default_rng(41)
        for pt in sample_points(s.chart, rng, 3):
            E = np.array(s.frame_matrix(pt), float)
            fz = -(1.0 + pt[0] ** 2 + pt[1] ** 2) / pt[4] ** 2
            for a in range(2):
                fn = frame_column(s, 2 + a)
                vals = np.array(fn(pt), float)
                jac = field_jacobian(fn, pt)
                xi = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
                got = lie_bracket(vals, jac, xi, np.zeros((5, 5)))
                want = fz * E[:, a]
                assert np.max(np.abs(got - want)) < 1e-8

    def test_cosymplectic_frame_brackets(self):
        # [DERIVED] for the default potential H = z (x_1^2 + ...):
        # [e_a, e_b] = 0 (symmetric third partials), [e_{n+a}, e_{n+b}] = 0,
        # and [e_a, d/dz] = 2 e_{n+a}.
        d = cosymplectic(2)
        s = d.structure
        pt = (0.3, -0.2, 0.4, 0.1, -0.5)
        E = np.array(s.frame_matrix(pt), float)
        cols = {}
        for c in range(5):
            fn = frame_column(s, c)
            cols[c] = (np.array(fn(pt), float), field_jacobian(fn, pt))
        for a in range(2):
            for b in range(2):
                got = lie_bracket(*cols[a], *cols[b])
                assert np.max(np.abs(got)) < 1e-10
                got = lie_bracket(*cols[2 + a], *cols[2 + b])
                assert np.max(np.abs(got)) < 1e-15
        for a in range(2):
            got = lie_bracket(*cols[a], *cols[4])
            assert np.max(np.abs(got - 2.0 * E[:, 2 + a])) < 1e-10

    def test_lie_derivative_of_tensor_constant_direction(self):
        # [DERIVED] for constant V = d/dz the Lie derivative of a (1,1)
        # tensor is the plain directional derivative of its components.
        d = flat3d()
        pt = (0.1, 0.5, 0.35)
        arrays = PointFrame(d.structure, pt)
        V = np.array([0.0, 0.0, 1.0])
        got = lie_derivative_11(V, np.zeros((3, 3)), arrays.phi, arrays.dphi)
        assert np.max(np.abs(got - arrays.dphi[2])) < 1e-12

    def test_half_lie_derivative_equals_h(self):
        # Consistency: the cached h equals (1/2) L_xi phi evaluated
        # through the generic field-calculus path, and h(d/dz) = -d/dz.
        d = flat3d()
        pt = (0.4, -0.3, 0.25)
        pf = PointFrame(d.structure, pt)
        arrays = PointFrame(d.structure, pt)
        L = lie_derivative_11(arrays.xi, arrays.dxi, arrays.phi, arrays.dphi)
        assert np.max(np.abs(0.5 * L - pf.h)) < 1e-12
        assert np.max(np.abs(pf.h @ [0.0, 0.0, 1.0] - [0.0, 0.0, -1.0])) < 1e-8


class TestExteriorDerivatives:
    def test_one_form_oracle(self):
        # [DERIVED] omega = x^2 dy has d(omega) = 2x dx ^ dy, which in the
        # halved antisymmetrization convention reads (d omega)[x][y] = x.
        jac = np.zeros((3, 3))
        jac[0, 1] = 2 * 0.7
        got = d_one_form(jac)
        want = np.zeros((3, 3))
        want[0, 1] = 0.7
        want[1, 0] = -0.7
        assert np.max(np.abs(got - want)) < 1e-15

    def test_two_form_oracle(self):
        # [DERIVED] T = x dy ^ dz (T[y][z] = x = -T[z][y]) has
        # dT = dx ^ dy ^ dz, i.e. (dT)[x][y][z] = 1/3 in the cyclic-mean
        # convention.
        jac = np.zeros((3, 3, 3))
        jac[0, 1, 2] = 1.0
        jac[0, 2, 1] = -1.0
        got = d_two_form(jac)
        assert abs(got[0, 1, 2] - 1.0 / 3.0) < 1e-15
        assert abs(got[1, 2, 0] - 1.0 / 3.0) < 1e-15
        assert abs(got[1, 0, 2] + 1.0 / 3.0) < 1e-15

    def test_flat3d_deta_closed_form(self):
        # [DERIVED] eta = sinh(2z) dx + cosh(2z) dy gives
        # d(eta)(d/dz, d/dx) = cosh(2z), d(eta)(d/dz, d/dy) = sinh(2z).
        d = flat3d()
        z = 0.45
        pf = PointFrame(d.structure, (0.2, -0.6, z))
        assert abs(pf.dEta[2, 0] - math.cosh(2 * z)) < 1e-12
        assert abs(pf.dEta[2, 1] - math.sinh(2 * z)) < 1e-12
        assert abs(pf.dEta[0, 1]) < 1e-12

    @pytest.mark.parametrize("desc", [flat3d(), hyperboloid(1), p1(2)],
                             ids=lambda d: d.name)
    def test_contact_identity(self, desc):
        # d(eta) coincides with the fundamental 2-form on these examples.
        rng = np.random.default_rng(43)
        for pt in sample_points(desc.structure.chart, rng, 3):
            pf = PointFrame(desc.structure, pt)
            assert np.max(np.abs(pf.dEta - pf.Phi)) < 1e-7

    def test_cosymplectic_both_forms_closed(self):
        rng = np.random.default_rng(47)
        d = cosymplectic(1)
        for pt in sample_points(d.structure.chart, rng, 3):
            pf = PointFrame(d.structure, pt)
            assert np.max(np.abs(pf.dEta)) < 1e-8
            assert np.max(np.abs(pf.dPhi)) < 1e-8
            # positive control: the fundamental form itself is not small.
            assert np.max(np.abs(pf.Phi)) > 0.5

    @pytest.mark.parametrize("desc", ALL_PRESETS, ids=lambda d: d.name)
    def test_dd_eta_vanishes(self, desc):
        rng = np.random.default_rng(53)
        for pt in sample_points(desc.structure.chart, rng, 2):
            pf = PointFrame(desc.structure, pt)
            assert pf.dd_eta < 1e-8


class TestSectionalAndConformal:
    def test_flat_sectional_zero(self):
        d = flat3d()
        pf = PointFrame(d.structure, (0.3, 0.3, -0.2))
        rng = np.random.default_rng(59)
        done = 0
        while done < 10:
            X, Y = rng.standard_normal((2, 3))
            k, ok = sectional(pf, X, Y)
            if not ok:
                continue
            assert abs(k) < 1e-9
            done += 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_hyperboloid_sectional(self, n):
        rng = np.random.default_rng(61)
        d = hyperboloid(n)
        m = 2 * n + 1
        pts = sample_points(d.structure.chart, rng, 4)
        for pt in pts:
            pf = PointFrame(d.structure, pt)
            done = 0
            while done < 5:
                X, Y = rng.standard_normal((2, m))
                k, ok = sectional(pf, X, Y)
                if not ok:
                    continue
                assert abs(k + 1.0) < 1e-6
                done += 1

    def test_degenerate_plane_raises(self):
        pf = PointFrame(flat3d().structure, (0.0, 0.0, 0.0))
        for X, Y in (([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]),
                     ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])):
            with pytest.raises(ref.DegeneratePlane):
                ref.sectional(pf, X, Y)

    def test_hyperboloid_conformally_flat(self):
        # [DERIVED] constant-curvature spaces are conformally flat:
        # the dimension-appropriate obstruction tensor vanishes.
        batch = PointFrame(hyperboloid(2).structure,
                           (0.1, -0.2, 0.3, 0.0, 0.2)).single
        assert weyl(batch)[0] < 1e-5
        assert (cotton(batch) if batch.m == 3 else weyl(batch))[0] < 1e-5
        batch = PointFrame(hyperboloid(1).structure, (0.2, -0.1, 0.3)).single
        assert cotton(batch)[0] < 1e-5
        batch = PointFrame(flat3d().structure, (0.3, 0.1, -0.4)).single
        assert cotton(batch)[0] < 1e-10

    def test_nil_metric_not_conformally_flat(self):
        # [DERIVED] the nil metric dx^2 + (1+x^2) dy^2 - 2x dy dz + dz^2
        # (that is, dx^2 + dy^2 + (dz - x dy)^2) is a classical example
        # of a 3-metric that is NOT locally conformally flat; its
        # obstruction tensor must be far from zero.
        chart = Chart(("x", "y", "z"), BOX3)
        s = zeros_structure(chart, [["1", "0", "0"],
                                    ["0", "1 + x^2", "-x"],
                                    ["0", "-x", "1"]])
        pf = PointFrame(s, (0.3, 0.1, -0.2))
        assert cotton(pf.single)[0] > 1e-3

    def test_curved_product_not_conformally_flat(self):
        # [DERIVED] hyperbolic plane times flat 3-space is not
        # conformally flat (the factors' curvatures are not opposite),
        # so the 5-dimensional obstruction must be far from zero.
        chart = Chart(("x", "y", "z", "u", "v"),
                      ((0.5, 1.5),) + ((-1.0, 1.0),) * 4)
        zero = parse("0", chart.coordinates)
        rows = [["1", "0", "0", "0", "0"],
                ["0", "sinh(x)^2", "0", "0", "0"],
                ["0", "0", "1", "0", "0"],
                ["0", "0", "0", "1", "0"],
                ["0", "0", "0", "0", "1"]]
        g = [[parse(t, chart.coordinates) for t in row] for row in rows]
        s = CoordinateStructure(chart, g, [[zero] * 5 for _ in range(5)],
                                [zero] * 5, [zero] * 5)
        pf = PointFrame(s, (1.0, 0.2, 0.1, -0.3, 0.4))
        assert weyl(pf.single)[0] > 1e-2

    def test_wrong_dimension_raises(self):
        pf3 = PointFrame(flat3d().structure, (0.0, 0.0, 0.0))
        with pytest.raises(WrongDimension):
            weyl(pf3.single)
        pf5 = PointFrame(hyperboloid(2).structure, (0.1, 0.0, 0.0, 0.0, 0.1))
        with pytest.raises(WrongDimension):
            cotton(pf5.single)


def quadric_residual(s, point):
    """|G(x,x) + 1| at the ambient point of a hyperboloid chart point,
    its last coordinate given by the graph.  Since the position field is
    also the unit normal, this single number witnesses both that the
    point lies on the quadric and that G(N,N) = -1."""
    pos = list(point) + [math.sqrt(s._graph_arg(point))]
    return abs(sum(g * x * x for g, x in zip(s._signs, pos)) + 1.0)


class TestHyperboloid:
    @pytest.mark.parametrize("directional", [False, True],
                             ids=["sampled", "directional"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sparse_products_are_the_dense_sums_bit_for_bit(
            self, n, directional):
        # g, B and eta as sparse products of the tangent frame T skip
        # only the terms with a structurally zero factor, and the m
        # quotients σ_i u_i / s are one stacked quotient, so
        # structure_jets equals the dense ambient sums in every
        # coefficient of an accepted point (the sign of zero included)
        # and rejects the same points: 64 points of a box widened to
        # ±1.3, where the graph patch ends.  Rows 0-2 lie beyond it
        # (arg < 0) and row 3 just inside the margin (arg ≈ 1e-7).
        st = HyperboloidStructure(n)
        rng = np.random.default_rng(40 + n)
        points = rng.uniform(-1.3, 1.3, (64, st.dim))
        points[:3, :n + 1], points[:3, n + 1:] = 0.1, 1.25
        points[3] = 0.0
        points[3, -1] = math.sqrt(1.0 - 1e-7)
        directions = None
        if directional:
            u = rng.normal(size=(64, st.dim, 1))
            directions = u / np.linalg.norm(u, axis=1, keepdims=True)
        with np.errstate(all="ignore"):
            parts, rejected = geometry.structure_jets(st, points, 2,
                                                      directions)
            dense, rejected_dense = geometry.structure_jets(
                DenseHyperboloid(st), points, 2, directions)
        kinds = [type(r) for r in rejected]
        assert kinds == [type(r) for r in rejected_dense]
        accepted = [kind is type(None) for kind in kinds]
        assert OutsidePatch in kinds and sum(accepted) >= 8
        for part, want in zip(parts, dense):
            assert part.c[accepted].view(np.uint64).tolist() == \
                want.c[accepted].view(np.uint64).tolist()

    @pytest.mark.parametrize("n", [1, 2])
    def test_quadric_residual(self, n):
        rng = np.random.default_rng(67)
        s = HyperboloidStructure(n)
        for pt in sample_points(s.chart, rng, 50):
            assert quadric_residual(s, pt) < 1e-10

    def test_outside_patch_raises(self):
        s = HyperboloidStructure(1)
        with pytest.raises(OutsidePatch):
            PointFrame(s, (0.0, 0.0, 1.2))

    @pytest.mark.parametrize("n", [1, 2])
    def test_structure_axioms(self, n):
        rng = np.random.default_rng(71)
        s = HyperboloidStructure(n)
        m = 2 * n + 1
        for pt in sample_points(s.chart, rng, 3):
            pf = PointFrame(s, pt)
            phi2 = pf.phi @ pf.phi
            assert np.max(np.abs(phi2 - np.eye(m)
                                 + np.outer(pf.xi, pf.eta))) < 1e-9
            assert abs(float(pf.eta @ pf.xi) - 1.0) < 1e-9
            compat = (np.einsum('ai,ab,bj->ij', pf.phi, pf.g, pf.phi)
                      + pf.g - np.outer(pf.eta, pf.eta))
            assert np.max(np.abs(compat)) < 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_reeb_covariant_derivative(self, n):
        # [DERIVED] with vanishing h the covariant derivative of the
        # Reeb field reduces to -phi.
        rng = np.random.default_rng(73)
        s = HyperboloidStructure(n)
        for pt in sample_points(s.chart, rng, 3):
            pf = PointFrame(s, pt)
            assert np.max(np.abs(pf.nabla_xi.T + pf.phi)) < 1e-7
            assert np.max(np.abs(pf.h)) < 1e-9


class TestDegeneracies:
    def test_degenerate_metric_raises(self):
        chart = Chart(("x", "y", "z"), BOX3)
        s = zeros_structure(chart, [["1", "0", "0"],
                                    ["0", "1", "0"],
                                    ["0", "0", "0"]])
        with pytest.raises(DegenerateMetric):
            PointFrame(s, (0.1, 0.1, 0.1))
