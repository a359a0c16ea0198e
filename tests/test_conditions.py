"""Tests for the condition-residual suite, eigendistribution machinery,
field-level integrability checks, and the classification logic.

Oracle values marked [DERIVED] were computed from closed-form identities
independent of the code under test (frame definitions, constant-curvature
reductions, explicit obstruction functions) and frozen here.
"""

import numpy as np
import pytest

from condition_reference import (
    h_property_residuals,
    levi_form,
    levi_symmetry_residual,
    nijenhuis_field,
    normality_field_residual,
)
from dim3_structures import random_dim3_structure
from paracr import conditions
from paracr.conditions import (
    BUNDLES,
    CONDITION_IDS,
    CONDITIONS,
    ConditionValue,
    classify,
    expand_checks,
    trit,
)
from paracr.errors import (
    InconsistentVerdict,
    RankDefect,
    ValidationError,
    WrongDimension,
)
from paracr.expr import parse
from paracr.geometry import (
    Chart,
    CoordinateStructure,
    FrameStructure,
    PointFrame,
)
from paracr.presets import (
    cosymplectic,
    default_p1_f,
    flat3d,
    hyperboloid,
    p1,
)
from point_helpers import evaluate_condition
from scalar_reference import Dual, depth_of, frame_matrix

PASS = 1e-7
FAIL = 1e-2


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def sample_points(chart, rng, count):
    lo = np.array([b[0] for b in chart.box])
    hi = np.array([b[1] for b in chart.box])
    return [tuple(float(v) for v in lo + (hi - lo) * rng.random(len(lo)))
            for _ in range(count)]


def _tangent(v):
    return v.t if depth_of(v) == 1 else 0.0


def eigendistribution_bases(pf):
    """The +1 and -1 eigendistribution bases of phi inside ker(eta) at one
    point: the batched builder on the point's row."""
    n = (pf.m - 1) // 2
    return (conditions._distribution_bases(pf.Qplus[None], n, "+1")[0],
            conditions._distribution_bases(pf.Qminus[None], n, "-1")[0])


def field_jacobian(fn, point):
    m = len(point)
    jac = np.zeros((m, m))
    for a in range(m):
        ys = [Dual(x, 1.0 if i == a else 0.0) for i, x in enumerate(point)]
        jac[a] = [_tangent(c) for c in fn(ys)]
    return jac


def frame_column(structure, col):
    return lambda xs: [row[col] for row in frame_matrix(structure, xs)]


def field_pair(structure, col, point):
    """Frame field number ``col`` as a (values, jacobian) pair at point."""
    fn = frame_column(structure, col)
    vals = np.array([float(v) for v in fn(list(point))])
    return vals, field_jacobian(fn, list(point))


def scaled_diff(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 0.0)
    return float(np.max(np.abs(got - want))) / scale if got.size else 0.0


def skew_structure():
    """The p1 frame with e_1 replaced by d/dx1 + x2 d/dz.

    The extra z-component makes [e_1, e_2] = -d/dz up to terms inside the
    -1 eigendistribution, so eta of the bracket is order one: the
    distribution ker(eta) stops being "partially integrable" while the
    structure stays a genuine almost paracontact metric one (constant
    frame-basis tensors).  [DERIVED: direct bracket computation]
    """
    n = 2
    chart = p1(2).structure.chart
    f_text = default_p1_f(n)
    rows = [["0"] * 5 for _ in range(5)]
    for a in range(n):
        rows[a][a] = "1"
        rows[a][n + a] = f"-({f_text})"
        rows[n + a][n + a] = "1"
        rows[4][n + a] = f"-2*x{a + 1}"
    rows[4][4] = "1"
    rows[4][0] = "x2"
    g_hat = np.zeros((5, 5))
    g_hat[4, 4] = 1.0
    for a in range(n):
        g_hat[a, n + a] = g_hat[n + a, a] = 1.0
    last = [0.0, 0.0, 0.0, 0.0, 1.0]
    return FrameStructure(
        chart,
        [[parse(e, chart.coordinates) for e in row] for row in rows],
        g_hat.tolist(),
        np.diag([-1.0, -1.0, 1.0, 1.0, 0.0]).tolist(),
        last,
        last,
    )


def zero_phi_structure():
    chart = Chart(("x", "y", "z"), ((-1.0, 1.0),) * 3)
    coords = chart.coordinates
    eye = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    zero_m = [["0"] * 3 for _ in range(3)]
    zero_v = ["0", "0", "0"]
    parse_m = lambda rows: [[parse(e, coords) for e in row] for row in rows]
    parse_v = lambda vec: [parse(e, coords) for e in vec]
    return CoordinateStructure(chart, parse_m(eye), parse_m(zero_m),
                               parse_v(zero_v), parse_v(zero_v))


_CASES = {
    "flat3d": lambda: flat3d().structure,
    "hyperboloid": lambda: hyperboloid(1).structure,
    "p1": lambda: p1(2).structure,
    "cosymplectic": lambda: cosymplectic(1).structure,
    "fx1": lambda: p1(2, f="x1").structure,
    "skew": skew_structure,
    "rand3-0": lambda: random_dim3_structure(0),
    "rand3-1": lambda: random_dim3_structure(1),
    "rand3-2": lambda: random_dim3_structure(2),
}

_WORST = {}


def worst_values(case, points=6, probes_per_point=4):
    """Worst scaled residual of every applicable condition over a seeded
    point sample; cached per case."""
    if case in _WORST:
        return _WORST[case]
    st = _CASES[case]()
    chart = st.chart
    rng = np.random.default_rng(abs(hash(case)) % 100000)
    vals = {}
    for pt in sample_points(chart, rng, points):
        pf = PointFrame(st, pt)
        probes = rng.uniform(-1.0, 1.0,
                             size=(probes_per_point, 4, chart.dim))
        for cid in expand_checks("all", chart.dim):
            cv = evaluate_condition(cid, pf, probes)
            vals[cid] = max(vals.get(cid, 0.0), cv.scaled)
    _WORST[case] = vals
    return vals


# ---------------------------------------------------------------------------
# registry and evaluation plumbing
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_condition_id_inventory(self):
        assert CONDITION_IDS == (
            "axioms", "compat", "normal", "pcm", "apcos", "s0", "s1",
            "news00", "news01", "thm1", "jw3d", "normal-nabla", "wlasn",
            "h-rel", "lemat", "sas", "wzor1", "wzorzamk", "contparacr",
            "dacko", "wzor2", "paracrcos", "inv-plus", "inv-minus",
            "k1", "k2")
        assert len(CONDITION_IDS) == 26

    def test_scopes(self):
        scopes = {c.scope for c in CONDITIONS.values()}
        assert scopes == {"tensor", "distribution", "field", "basis", "dim3"}
        assert CONDITIONS["jw3d"].scope == "dim3"
        assert CONDITIONS["s0"].scope == "field"
        assert CONDITIONS["s1"].scope == "field"
        assert CONDITIONS["inv-plus"].scope == "basis"
        assert CONDITIONS["inv-minus"].scope == "basis"

    def test_summaries_describe_behavior(self):
        for cond in CONDITIONS.values():
            assert cond.summary.strip(), cond.id
            low = cond.summary.lower()
            for banned in ("lemma", "theorem", "corollary", "eq.", "§",
                           "paper", "spec"):
                assert banned not in low, (cond.id, banned)

    def test_para_cr_bundle(self):
        assert BUNDLES["para-cr"] == (
            "s0", "s1", "inv-plus", "inv-minus", "news00", "news01", "thm1")

    def test_expand_all_is_dimension_aware(self):
        ids3 = expand_checks("all", 3)
        ids5 = expand_checks("all", 5)
        assert "jw3d" in ids3
        assert "jw3d" not in ids5
        assert set(ids5) | {"jw3d"} == set(CONDITION_IDS)

    def test_expand_deduplicates_preserving_order(self):
        out = expand_checks(["s0", "para-cr", "s0"], 5)
        assert out == ["s0", "s1", "inv-plus", "inv-minus", "news00",
                       "news01", "thm1"]

    def test_expand_unknown_rejected(self):
        # the checks block's rule and message: a padded name is not
        # stripped into a known one, and the error lists the known names
        for request in (["no-such-check"], [" s0"], ["bogus"]):
            with pytest.raises(ValidationError) as info:
                expand_checks(request, 3)
            message = str(info.value)
            assert message.startswith(
                f"checks block: unknown check {request[0]!r}; known: ")
            for name in list(CONDITION_IDS) + list(BUNDLES):
                assert name in message

    def test_explicit_bundle_then_all(self):
        out = expand_checks(["para-cr", "all"], 3)
        assert out[:7] == list(BUNDLES["para-cr"])
        assert set(out) == set(expand_checks("all", 3))


class TestEvaluationPlumbing:
    def test_condition_value_scaling(self):
        cv = ConditionValue(raw=3.0, scale=6.0, part="x")
        assert cv.scaled == 0.5

    def test_unknown_condition_id(self):
        pf = PointFrame(flat3d().structure, (0.1, 0.2, 0.3))
        with pytest.raises(KeyError):
            evaluate_condition("not-a-check", pf)

    def test_dim3_condition_rejects_dim5(self):
        pf = PointFrame(p1(2).structure, (0.1, 0.2, 0.3, 0.4, 1.0))
        with pytest.raises(WrongDimension):
            evaluate_condition("jw3d", pf)

    def test_probes_only_sharpen(self):
        pf = PointFrame(flat3d().structure, (0.4, -0.2, 0.3))
        rng = np.random.default_rng(0)
        probes = rng.uniform(-1.0, 1.0, size=(8, 4, 3))
        bare = evaluate_condition("normal", pf).scaled
        probed = evaluate_condition("normal", pf, probes).scaled
        assert probed >= bare - 1e-15


# ---------------------------------------------------------------------------
# eigendistributions
# ---------------------------------------------------------------------------

class TestEigendistributions:
    def test_p1_frame_columns_are_eigenvectors(self):
        # [DERIVED] e_alpha = d/dx^alpha lies in the -1 eigendistribution,
        # e_{n+alpha} in the +1 one, for the p1 frame family.
        st = p1(2).structure
        pt = (0.8, 0.3, 0.1, -0.4, 1.0)
        pf = PointFrame(st, pt)
        n = (pf.m - 1) // 2
        for a in range(n):
            u, _ = field_pair(st, a, pt)
            assert np.max(np.abs(pf.phi @ u + u)) <= 1e-9
            assert np.max(np.abs(pf.Qplus @ u)) <= 1e-9
            assert abs(float(pf.eta @ u)) <= 1e-12
            v, _ = field_pair(st, n + a, pt)
            assert np.max(np.abs(pf.phi @ v - v)) <= 1e-9
            assert np.max(np.abs(pf.Qminus @ v)) <= 1e-9
            assert abs(float(pf.eta @ v)) <= 1e-12

    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid", "p1",
                                      "cosymplectic"])
    def test_bases_rank_and_membership(self, case):
        st = _CASES[case]()
        rng = np.random.default_rng(4)
        for pt in sample_points(st.chart, rng, 4):
            pf = PointFrame(st, pt)
            n = (pf.m - 1) // 2
            plus, minus = eigendistribution_bases(pf)
            assert len(plus) == n and len(minus) == n
            for b in plus:
                assert np.max(np.abs(pf.phi @ b - b)) <= 1e-8
                assert abs(float(pf.eta @ b)) <= 1e-8
                assert np.max(np.abs(pf.Qminus @ b)) <= 1e-8
            for b in minus:
                assert np.max(np.abs(pf.phi @ b + b)) <= 1e-8
                assert abs(float(pf.eta @ b)) <= 1e-8
                assert np.max(np.abs(pf.Qplus @ b)) <= 1e-8

    def test_degenerate_distribution_detected(self):
        pf = PointFrame(zero_phi_structure(), (0.1, 0.2, 0.3))
        with pytest.raises(RankDefect):
            eigendistribution_bases(pf)


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------

class TestInvolutivity:
    @pytest.mark.parametrize("case", ["p1", "cosymplectic"])
    def test_integrable_families(self, case):
        st = _CASES[case]()
        rng = np.random.default_rng(5)
        for pt in sample_points(st.chart, rng, 6):
            pf = PointFrame(st, pt)
            assert evaluate_condition("inv-plus", pf).scaled <= PASS
            assert evaluate_condition("inv-minus", pf).scaled <= PASS

    def test_fx1_breaks_plus_distribution_only(self):
        # [DERIVED] for f = x1 the integrability obstruction
        # f*f_x - f_y + 2x1*f_z = x1 is nonzero, and it obstructs only
        # the +1 eigendistribution; the -1 one stays involutive.
        st = p1(2, f="x1").structure
        pf = PointFrame(st, (0.8, 0.3, 0.1, -0.4, 1.0))
        assert evaluate_condition("inv-plus", pf).scaled >= 0.1
        assert evaluate_condition("inv-minus", pf).scaled <= 1e-9
        rng = np.random.default_rng(6)
        worst_plus = 0.0
        for pt in sample_points(st.chart, rng, 6):
            pf = PointFrame(st, pt)
            worst_plus = max(worst_plus,
                             evaluate_condition("inv-plus", pf).scaled)
            assert evaluate_condition("inv-minus", pf).scaled <= 1e-9
        assert worst_plus >= 0.1

    def test_skew_breaks_minus_distribution_only(self):
        st = skew_structure()
        rng = np.random.default_rng(7)
        worst_minus = 0.0
        for pt in sample_points(st.chart, rng, 6):
            pf = PointFrame(st, pt)
            assert evaluate_condition("inv-plus", pf).scaled <= PASS
            worst_minus = max(worst_minus,
                              evaluate_condition("inv-minus", pf).scaled)
        assert worst_minus >= FAIL


# ---------------------------------------------------------------------------
# torsion and normality on explicit fields
# ---------------------------------------------------------------------------

class TestNormalityFields:
    def test_residual_definition_consistency(self):
        # nijenhuis minus normality-residual must equal the Reeb term
        # 2 d(eta)(X,Y) xi exactly, by construction.
        st = flat3d().structure
        pt = (0.4, -0.1, 0.2)
        pf = PointFrame(st, pt)
        rng = np.random.default_rng(8)
        for _ in range(4):
            X = (rng.uniform(-1, 1, 3), np.zeros((3, 3)))
            Y = (rng.uniform(-1, 1, 3), np.zeros((3, 3)))
            full = nijenhuis_field(pf, X, Y)
            res = normality_field_residual(pf, X, Y)
            reeb = 2.0 * float(X[0] @ pf.dEta @ Y[0]) * pf.xi
            assert np.max(np.abs(full - res - reeb)) <= 1e-12

    def test_hyperboloid_is_normal(self):
        st = hyperboloid(1).structure
        rng = np.random.default_rng(9)
        for pt in sample_points(st.chart, rng, 5):
            pf = PointFrame(st, pt)
            for _ in range(3):
                X = (rng.uniform(-1, 1, 3), np.zeros((3, 3)))
                Y = (rng.uniform(-1, 1, 3), np.zeros((3, 3)))
                assert np.max(np.abs(
                    normality_field_residual(pf, X, Y))) <= PASS

    def test_p1_normality_defect_oracle(self):
        # [DERIVED] for the p1 frame the only nonvanishing normality
        # residual against the Reeb field is along the +1 frame fields:
        #   N1(e_{n+a}, xi) = 2 (df/dz) e_a,    N1(e_a, xi) = 0.
        desc = p1(2)
        st = desc.structure
        rng = np.random.default_rng(10)
        c = 1.0
        for pt in sample_points(st.chart, rng, 5):
            pf = PointFrame(st, pt)
            f_z = -(c + pt[0] ** 2 + pt[1] ** 2) / pt[4] ** 2
            xi_f = field_pair(st, 4, pt)
            for a in range(2):
                e_a = field_pair(st, a, pt)
                e_na = field_pair(st, 2 + a, pt)
                got_zero = normality_field_residual(pf, e_a, xi_f)
                assert np.max(np.abs(got_zero)) <= 1e-8
                got = normality_field_residual(pf, e_na, xi_f)
                want = 2.0 * f_z * e_a[0]
                assert scaled_diff(got, want) <= 1e-8

    def test_cosymplectic_normality_defect_oracle(self):
        # [DERIVED] with the default potential z*(x1^2), the second
        # derivative d2H/dx1 dz = 2 x1 gives frame entries whose only
        # normality defect against the Reeb field is
        #   N1(e_1, xi) = 2 * d3H/dx1dx1dz * e_2 = 4 e_2.
        st = cosymplectic(1).structure
        rng = np.random.default_rng(12)
        for pt in sample_points(st.chart, rng, 5):
            pf = PointFrame(st, pt)
            xi_f = field_pair(st, 2, pt)
            e0 = field_pair(st, 0, pt)
            e1 = field_pair(st, 1, pt)
            got = normality_field_residual(pf, e0, xi_f)
            assert scaled_diff(got, 4.0 * e1[0]) <= 1e-8
            assert np.max(np.abs(
                normality_field_residual(pf, e1, xi_f))) <= 1e-8
            assert np.max(np.abs(
                normality_field_residual(pf, e0, e1))) <= 1e-8


# ---------------------------------------------------------------------------
# the shape operator h
# ---------------------------------------------------------------------------

class TestHOperator:
    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid", "p1"])
    def test_structural_identities(self, case):
        st = _CASES[case]()
        rng = np.random.default_rng(13)
        for pt in sample_points(st.chart, rng, 4):
            pf = PointFrame(st, pt)
            for name, value in h_property_residuals(pf).items():
                assert value <= 1e-9, (case, name, value)

    def test_flat3d_h_action(self):
        desc = flat3d()
        pf = PointFrame(desc.structure, (0.3, -0.2, 0.4))
        dz = np.array([0.0, 0.0, 1.0])
        got = pf.h @ dz
        assert scaled_diff(got, desc.targets["h_on_dz"] * dz) <= 1e-9

    def test_hyperboloid_h_vanishes(self):
        pf = PointFrame(hyperboloid(1).structure, (0.2, -0.1, 0.3))
        assert np.max(np.abs(pf.h)) <= 1e-9

    def test_p1_h_is_nilpotent(self):
        desc = p1(2)
        st = desc.structure
        rng = np.random.default_rng(14)
        c = 1.0
        for pt in sample_points(st.chart, rng, 4):
            pf = PointFrame(st, pt)
            f_z = -(c + pt[0] ** 2 + pt[1] ** 2) / pt[4] ** 2
            assert np.max(np.abs(pf.h @ pf.h)) <= \
                desc.targets["h_squared_max"] + 1e-9
            for a in range(2):
                e_a, _ = field_pair(st, a, pt)
                e_na, _ = field_pair(st, 2 + a, pt)
                assert np.max(np.abs(pf.h @ e_a)) <= 1e-9
                assert scaled_diff(pf.h @ e_na, -f_z * e_a) <= 1e-9

    def test_fx1_h_vanishes_without_normality(self):
        # f = x1 has df/dz = 0, hence h = 0, while the structure is not
        # normal: h = 0 alone does not imply the stronger classes.
        st = p1(2, f="x1").structure
        pf = PointFrame(st, (0.5, 0.2, -0.3, 0.1, 1.0))
        assert np.max(np.abs(pf.h)) <= 1e-12
        assert evaluate_condition("normal", pf).scaled >= FAIL


# ---------------------------------------------------------------------------
# Levi form
# ---------------------------------------------------------------------------

class TestLeviForm:
    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid", "p1", "fx1"])
    def test_equals_minus_metric_on_paracontact_cases(self, case):
        # [DERIVED] when the fundamental two-form equals d(eta), then
        # -d(eta)(X, phi Y) = -g(X, Y) for X, Y in ker(eta), so the Levi
        # form is minus the restricted metric -- and symmetric.
        st = _CASES[case]()
        rng = np.random.default_rng(15)
        for pt in sample_points(st.chart, rng, 4):
            pf = PointFrame(st, pt)
            L = levi_form(pf)
            want = -(pf.P.T @ pf.g @ pf.P)
            assert np.max(np.abs(L - want)) <= 1e-9
            assert levi_symmetry_residual(pf) <= 1e-9

    def test_symmetric_when_eta_closed(self):
        st = cosymplectic(1).structure
        pf = PointFrame(st, (0.4, -0.3, 0.7))
        assert np.max(np.abs(levi_form(pf))) <= 1e-12
        assert levi_symmetry_residual(pf) <= 1e-12

    def test_skew_structure_has_asymmetric_levi_form(self):
        st = skew_structure()
        rng = np.random.default_rng(16)
        worst = 0.0
        for pt in sample_points(st.chart, rng, 5):
            worst = max(worst, levi_symmetry_residual(PointFrame(st, pt)))
        assert worst >= FAIL


# ---------------------------------------------------------------------------
# residual suite: per-family pass/fail fingerprints
# ---------------------------------------------------------------------------

_ALL_DIM3 = set(CONDITION_IDS)
_ALL_DIM5 = set(CONDITION_IDS) - {"jw3d"}

_EXPECTED_PASS = {
    "flat3d": {"axioms", "compat", "pcm", "s0", "s1", "news00", "news01",
               "thm1", "jw3d", "h-rel", "lemat", "wzor1", "wzorzamk",
               "contparacr", "wzor2", "paracrcos", "inv-plus", "inv-minus",
               "k1", "k2"},
    "hyperboloid": _ALL_DIM3 - {"apcos", "dacko"},
    "p1": {"axioms", "compat", "pcm", "s0", "s1", "news00", "news01",
           "thm1", "h-rel", "lemat", "wzor1", "wzorzamk", "contparacr",
           "wzor2", "paracrcos", "inv-plus", "inv-minus", "k1", "k2"},
    "cosymplectic": {"axioms", "compat", "apcos", "s0", "s1", "news00",
                     "news01", "thm1", "jw3d", "wzor1", "wzor2",
                     "paracrcos", "dacko", "inv-plus", "inv-minus"},
    "fx1": {"axioms", "compat", "pcm", "s0", "news00", "news01",
            "inv-minus", "h-rel", "lemat", "wlasn"},
    "skew": {"axioms", "compat", "inv-plus"},
}

_EXPECTED_FAIL = {
    "flat3d": {"normal", "apcos", "normal-nabla", "wlasn", "sas", "dacko"},
    "hyperboloid": {"apcos", "dacko"},
    "p1": {"normal", "apcos", "normal-nabla", "wlasn", "sas", "dacko"},
    "cosymplectic": {"normal", "pcm", "normal-nabla", "wlasn", "h-rel",
                     "lemat", "sas", "wzorzamk", "contparacr", "k1", "k2"},
    "fx1": {"normal", "apcos", "s1", "thm1", "normal-nabla", "sas",
            "wzor1", "wzorzamk", "contparacr", "dacko", "wzor2",
            "paracrcos", "inv-plus", "k1", "k2"},
    "skew": {"pcm", "s0", "s1", "news00", "news01", "thm1", "inv-minus"},
}


class TestResidualSuite:
    @pytest.mark.parametrize("case", sorted(_EXPECTED_PASS))
    def test_fingerprints(self, case):
        vals = worst_values(case)
        for cid in _EXPECTED_PASS[case]:
            assert vals[cid] <= PASS, (case, cid, vals[cid])
        for cid in _EXPECTED_FAIL[case]:
            assert vals[cid] >= FAIL, (case, cid, vals[cid])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dimension_three_structures(self, seed):
        # Every 3-dimensional almost paracontact metric structure carries
        # an integrable para-CR structure, so the whole bundle passes --
        # and so do the covariant forms of the same identity.
        vals = worst_values(f"rand3-{seed}")
        for cid in BUNDLES["para-cr"] + ("jw3d", "wzor1", "wzor2",
                                         "paracrcos", "axioms", "compat"):
            assert vals[cid] <= 1e-6, (seed, cid, vals[cid])
        for cid in ("normal", "pcm", "apcos"):
            assert vals[cid] >= FAIL, (seed, cid, vals[cid])


# ---------------------------------------------------------------------------
# criterion equivalence: the integrability tests agree
# ---------------------------------------------------------------------------

def _verdict(value):
    out = trit(value, 1e-6, 1e-2)
    assert out is not None, f"ambiguous residual {value}"
    return out


class TestCriterionEquivalence:
    CASES = ("flat3d", "hyperboloid", "p1", "cosymplectic", "fx1", "skew")

    def test_full_criteria_agree_everywhere(self):
        # The three complete integrability criteria -- (s0 and s1), the
        # involutivity of both eigendistributions, and the covariant
        # characterization -- give identical verdicts on every family,
        # including both non-integrable controls.
        for case in self.CASES:
            vals = worst_values(case)
            v1 = _verdict(max(vals["s0"], vals["s1"]))
            v2 = _verdict(max(vals["inv-plus"], vals["inv-minus"]))
            v3 = _verdict(vals["thm1"])
            assert v1 == v2 == v3, (case, v1, v2, v3)

    def test_partial_integrability_forms_agree_everywhere(self):
        # news00 and news01 are reformulations of s0 alone; all three
        # verdicts coincide on every family, in both directions (they
        # hold on fx1, where s1 fails, and fail jointly on skew).
        for case in self.CASES:
            vals = worst_values(case)
            v = {cid: _verdict(vals[cid])
                 for cid in ("s0", "news00", "news01")}
            assert len(set(v.values())) == 1, (case, v)
        assert _verdict(worst_values("fx1")["s0"]) is True
        assert _verdict(worst_values("skew")["s0"]) is False

    def test_five_integrability_tests_agree_as_full_criteria(self):
        # Read as tests for the full integrable structure (the partial
        # forms supply s0 and are paired with s1), all five named
        # criteria produce identical verdicts on every family.
        for case in self.CASES:
            vals = worst_values(case)
            verdicts = [
                _verdict(max(vals["s0"], vals["s1"])),
                _verdict(max(vals["inv-plus"], vals["inv-minus"])),
                _verdict(max(vals["news00"], vals["s1"])),
                _verdict(max(vals["news01"], vals["s1"])),
                _verdict(vals["thm1"]),
            ]
            assert len(set(verdicts)) == 1, (case, verdicts)

    def test_partial_integrability_is_automatic_with_contact_coupling(self):
        # Whenever the fundamental two-form equals d(eta), s0 and its
        # reformulations hold identically -- even on fx1, which fails the
        # full criteria.
        for case in ("flat3d", "hyperboloid", "p1", "fx1"):
            vals = worst_values(case)
            assert vals["pcm"] <= PASS
            for cid in ("s0", "news00", "news01"):
                assert vals[cid] <= PASS, (case, cid, vals[cid])

    def test_covariant_forms_match_para_cr_on_paracontact_cases(self):
        # On structures with the contact coupling, the two covariant
        # derivative formulas characterize the integrable case exactly.
        for case in ("flat3d", "hyperboloid", "p1", "fx1"):
            vals = worst_values(case)
            para_cr = _verdict(max(vals["s0"], vals["s1"]))
            assert _verdict(vals["wzor1"]) == para_cr, case
            assert _verdict(vals["wzorzamk"]) == para_cr, case

    def test_sasakian_iff_h_vanishes_among_integrable_cases(self):
        # Among integrable paracontact metric cases, the para-Sasakian
        # condition holds exactly when h vanishes.
        for case, h_zero in (("flat3d", False), ("hyperboloid", True),
                             ("p1", False)):
            st = _CASES[case]()
            rng = np.random.default_rng(17)
            h_max = max(
                float(np.max(np.abs(PointFrame(st, pt).h)))
                for pt in sample_points(st.chart, rng, 4))
            assert (h_max <= 1e-6) is h_zero, (case, h_max)
            vals = worst_values(case)
            assert _verdict(vals["sas"]) is h_zero, (case, vals["sas"])


# ---------------------------------------------------------------------------
# curvature identities
# ---------------------------------------------------------------------------

class TestCurvatureIdentities:
    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid", "p1"])
    def test_hold_on_integrable_paracontact_cases(self, case):
        vals = worst_values(case)
        assert vals["k1"] <= PASS
        assert vals["k2"] <= PASS

    def test_hold_in_higher_dimension(self):
        st = hyperboloid(2).structure
        rng = np.random.default_rng(18)
        for pt in sample_points(st.chart, rng, 3):
            pf = PointFrame(st, pt)
            probes = rng.uniform(-1.0, 1.0, size=(4, 4, 5))
            assert evaluate_condition("k1", pf, probes).scaled <= PASS
            assert evaluate_condition("k2", pf, probes).scaled <= PASS

    @pytest.mark.parametrize("case", ["cosymplectic", "fx1"])
    def test_specific_to_integrable_paracontact_hypotheses(self, case):
        # The identities hold exactly for integrable paracontact metric
        # structures; both controls outside that class break them.
        vals = worst_values(case)
        assert vals["k1"] >= FAIL
        assert vals["k2"] >= FAIL

    def test_hyperboloid_constant_curvature_reduction(self):
        # [DERIVED] with h = 0 the first identity reduces to
        #   (R(W,X)phi)Y = g(X,Y) phi W - g(W,Y) phi X
        #                  - g(phi W, Y) X + g(phi X, Y) W.
        st = hyperboloid(2).structure
        rng = np.random.default_rng(19)
        for pt in sample_points(st.chart, rng, 3):
            pf = PointFrame(st, pt)
            lhs = (np.einsum('kwxa,ay->kwxy', pf.Riem, pf.phi)
                   - np.einsum('ka,awxy->kwxy', pf.phi, pf.Riem))
            phig = pf.phi.T @ pf.g
            eye = np.eye(pf.m)
            rhs = (np.einsum('xy,kw->kwxy', pf.g, pf.phi)
                   - np.einsum('wy,kx->kwxy', pf.g, pf.phi)
                   - np.einsum('wy,kx->kwxy', phig, eye)
                   + np.einsum('xy,kw->kwxy', phig, eye))
            assert np.max(np.abs(lhs - rhs)) <= 1e-9


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class TestTrit:
    def test_bands(self):
        assert trit(1e-8, 1e-6, 1e-2) is True
        assert trit(1e-6, 1e-6, 1e-2) is True
        assert trit(5e-4, 1e-6, 1e-2) is None
        assert trit(1e-2, 1e-6, 1e-2) is False
        assert trit(3.0, 1e-6, 1e-2) is False
        assert trit(None, 1e-6, 1e-2) is None


class TestClassify:
    @pytest.mark.parametrize(
        "case,builder",
        [("flat3d", flat3d), ("hyperboloid", lambda: hyperboloid(1)),
         ("p1", lambda: p1(2)), ("cosymplectic", lambda: cosymplectic(1))])
    def test_matches_descriptor_fingerprints(self, case, builder):
        got = classify(worst_values(case))
        assert got == builder().fingerprint

    def test_fx1_is_paracontact_but_not_integrable(self):
        got = classify(worst_values("fx1"))
        assert got["paracontact_metric"] is True
        assert got["para_cr"] is False
        assert got["normal"] is False
        assert got["para_sasakian"] is False

    def test_skew_control(self):
        got = classify(worst_values("skew"))
        assert got["almost_paracontact_metric"] is True
        assert got["paracontact_metric"] is False
        assert got["para_cr"] is False

    def test_missing_values_stay_unknown(self):
        got = classify({})
        assert all(v is None for v in got.values())

    def test_partial_forms_must_agree(self):
        values = {cid: 1.0 for cid in CONDITION_IDS}
        values.update({"axioms": 0.0, "compat": 0.0, "s0": 0.0,
                       "news00": 1.0, "news01": 0.0})
        with pytest.raises(InconsistentVerdict):
            classify(values)

    def test_full_criteria_must_agree(self):
        values = {cid: 0.0 for cid in CONDITION_IDS}
        values["s1"] = 1.0  # breaks (s0 and s1) while thm1 still passes
        with pytest.raises(InconsistentVerdict):
            classify(values)

    def test_ambiguous_reading_leaves_the_class_undetermined(self):
        # The formulations are merged as a conjunction: one that reads
        # ambiguous while the others pass leaves the property unknown,
        # and one that fails outright beside an ambiguous one fails it.
        values = {cid: 0.0 for cid in CONDITION_IDS}
        values["s1"] = 1e-4  # between tol and separation: unknown
        got = classify(values)
        assert got["para_cr"] is None
        values["thm1"] = 1.0
        values["inv-plus"] = 1e-4
        assert classify(values)["para_cr"] is False

    def test_tolerances_are_parameters(self):
        values = {cid: 1e-5 for cid in CONDITION_IDS}
        strict = classify(values, tol=1e-6, separation=1e-2)
        loose = classify(values, tol=1e-4, separation=1e-2)
        assert strict["almost_paracontact_metric"] is None
        assert loose["almost_paracontact_metric"] is True
