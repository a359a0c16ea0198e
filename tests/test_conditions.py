"""Tests for the condition-residual suite, eigendistribution machinery,
field-level integrability checks, and the classification logic.

Oracle values marked [DERIVED] were computed from closed-form identities
independent of the code under test (frame definitions, the Levi form of
a paracontact metric structure) and frozen here.  The headline oracles
-- the normality defects and shape operators of the frame families, the
agreement of the para-CR criteria and the curvature identities -- are
the acceptance criteria of tests/test_acceptance.py.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cases import (
    EXPECTED_FAIL,
    EXPECTED_PASS,
    FINGERPRINTS,
    box_points,
    coordinate_structure,
    evaluate_condition,
    field_pair,
    first_entry,
    structure,
    worst_values,
)
from condition_reference import (
    h_property_residuals,
    levi_form,
    levi_symmetry_residual,
    nijenhuis_field,
    normality_field_residual,
)
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
from paracr.geometry import PointFrame

PASS = 1e-7
FAIL = 1e-2


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def eigendistribution_bases(pf):
    """The +1 and -1 eigendistribution bases of phi inside ker(eta) at one
    point: the batched builder on the point's row."""
    n = (pf.m - 1) // 2
    return (conditions._distribution_bases(pf.Qplus[None], n, "+1")[0],
            conditions._distribution_bases(pf.Qminus[None], n, "-1")[0])


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
        # named, it is refused where it does not apply
        assert expand_checks(["jw3d"], 3) == ["jw3d"]
        with pytest.raises(WrongDimension, match="^jw3d: this identity is "
                           "specific to dimension 3, got 5$"):
            expand_checks(["s0", "jw3d"], 5)

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
        pf = PointFrame(structure("flat3d"), (0.1, 0.2, 0.3))
        with pytest.raises(KeyError):
            evaluate_condition("not-a-check", pf)

    def test_dim3_condition_rejects_dim5(self):
        pf = PointFrame(structure("p1_n2"), (0.1, 0.2, 0.3, 0.4, 1.0))
        with pytest.raises(WrongDimension):
            evaluate_condition("jw3d", pf)

    def test_probes_only_sharpen(self):
        pf = PointFrame(structure("flat3d"), (0.4, -0.2, 0.3))
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
        st = structure("p1_n2")
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

    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid_n1", "p1_n2",
                                      "cosymplectic_n1"])
    def test_bases_rank_and_membership(self, case):
        st = structure(case)
        rng = np.random.default_rng(4)
        for pt in box_points(st.chart, rng, 4):
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
        zero_phi = coordinate_structure(first_entry("1"))
        pf = PointFrame(zero_phi, (0.1, 0.2, 0.3))
        with pytest.raises(RankDefect):
            eigendistribution_bases(pf)


# ---------------------------------------------------------------------------
# involutivity
# ---------------------------------------------------------------------------

class TestInvolutivity:
    @pytest.mark.parametrize("case", ["p1_n2", "cosymplectic_n1"])
    def test_integrable_families(self, case):
        st = structure(case)
        rng = np.random.default_rng(5)
        for pt in box_points(st.chart, rng, 6):
            pf = PointFrame(st, pt)
            assert evaluate_condition("inv-plus", pf).scaled <= PASS
            assert evaluate_condition("inv-minus", pf).scaled <= PASS

    def test_skew_breaks_minus_distribution_only(self):
        st = structure("p1_skew")
        rng = np.random.default_rng(7)
        worst_minus = 0.0
        for pt in box_points(st.chart, rng, 6):
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
        st = structure("flat3d")
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
        st = structure("hyperboloid_n1")
        rng = np.random.default_rng(9)
        for pt in box_points(st.chart, rng, 5):
            pf = PointFrame(st, pt)
            for _ in range(3):
                X = (rng.uniform(-1, 1, 3), np.zeros((3, 3)))
                Y = (rng.uniform(-1, 1, 3), np.zeros((3, 3)))
                assert np.max(np.abs(
                    normality_field_residual(pf, X, Y))) <= PASS


# ---------------------------------------------------------------------------
# the shape operator h
# ---------------------------------------------------------------------------

class TestHOperator:
    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid_n1", "p1_n2"])
    def test_structural_identities(self, case):
        st = structure(case)
        rng = np.random.default_rng(13)
        for pt in box_points(st.chart, rng, 4):
            pf = PointFrame(st, pt)
            for name, value in h_property_residuals(pf).items():
                assert value <= 1e-9, (case, name, value)

    def test_hyperboloid_h_vanishes(self):
        pf = PointFrame(structure("hyperboloid_n1"), (0.2, -0.1, 0.3))
        assert np.max(np.abs(pf.h)) <= 1e-9

    def test_fx1_h_vanishes_without_normality(self):
        # f = x1 has df/dz = 0, hence h = 0, while the structure is not
        # normal: h = 0 alone does not imply the stronger classes.
        st = structure("p1_fx1")
        pf = PointFrame(st, (0.5, 0.2, -0.3, 0.1, 1.0))
        assert np.max(np.abs(pf.h)) <= 1e-12
        assert evaluate_condition("normal", pf).scaled >= FAIL


# ---------------------------------------------------------------------------
# Levi form
# ---------------------------------------------------------------------------

class TestLeviForm:
    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid_n1", "p1_n2",
                                      "p1_fx1"])
    def test_equals_minus_metric_on_paracontact_cases(self, case):
        # [DERIVED] when the fundamental two-form equals d(eta), then
        # -d(eta)(X, phi Y) = -g(X, Y) for X, Y in ker(eta), so the Levi
        # form is minus the restricted metric -- and symmetric.
        st = structure(case)
        rng = np.random.default_rng(15)
        for pt in box_points(st.chart, rng, 4):
            pf = PointFrame(st, pt)
            L = levi_form(pf)
            want = -(pf.P.T @ pf.g @ pf.P)
            assert np.max(np.abs(L - want)) <= 1e-9
            assert levi_symmetry_residual(pf) <= 1e-9

    def test_symmetric_when_eta_closed(self):
        st = structure("cosymplectic_n1")
        pf = PointFrame(st, (0.4, -0.3, 0.7))
        assert np.max(np.abs(levi_form(pf))) <= 1e-12
        assert levi_symmetry_residual(pf) <= 1e-12

    def test_skew_structure_has_asymmetric_levi_form(self):
        st = structure("p1_skew")
        rng = np.random.default_rng(16)
        worst = 0.0
        for pt in box_points(st.chart, rng, 5):
            worst = max(worst, levi_symmetry_residual(PointFrame(st, pt)))
        assert worst >= FAIL


# ---------------------------------------------------------------------------
# residual suite: per-family pass/fail fingerprints
# ---------------------------------------------------------------------------

class TestResidualSuite:
    @pytest.mark.parametrize("case", sorted(EXPECTED_PASS))
    def test_fingerprints(self, case):
        vals = worst_values(case)
        for cid in EXPECTED_PASS[case]:
            assert vals[cid] <= PASS, (case, cid, vals[cid])
        for cid in EXPECTED_FAIL[case]:
            assert vals[cid] >= FAIL, (case, cid, vals[cid])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dimension_three_structures(self, seed):
        # Every 3-dimensional almost paracontact metric structure carries
        # an integrable para-CR structure, so the whole bundle passes --
        # and so do the covariant forms of the same identity.
        vals = worst_values(f"random{seed}")
        for cid in BUNDLES["para-cr"] + ("jw3d", "wzor1", "wzor2",
                                         "paracrcos", "axioms", "compat"):
            assert vals[cid] <= 1e-6, (seed, cid, vals[cid])
        for cid in ("normal", "pcm", "apcos"):
            assert vals[cid] >= FAIL, (seed, cid, vals[cid])

    def test_samples_do_not_depend_on_the_hash_seed(self):
        # a case's sample is seeded by its name through crc32, not by the
        # str hash each interpreter salts with PYTHONHASHSEED: two
        # interpreters draw the same points
        tests = pathlib.Path(__file__).parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        script = ("import sys, cases; print([cases.sampled(name)[1].points"
                  ".tolist() for name in sys.argv[1:]])")
        runs = [subprocess.Popen(
            [sys.executable, "-c", script, "flat3d", "p1_fx1"],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            stdout=subprocess.PIPE, text=True) for seed in ("1", "2")]
        out = [run.communicate(timeout=120)[0] for run in runs]
        assert [run.returncode for run in runs] == [0, 0]
        assert out[0] == out[1] and out[0].startswith("[[[")


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
    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid_n1", "p1_n2",
                                      "cosymplectic_n1"])
    def test_matches_the_expected_fingerprints(self, case):
        got = classify(worst_values(case))
        assert got == FINGERPRINTS[case]

    def test_fx1_is_paracontact_but_not_integrable(self):
        got = classify(worst_values("p1_fx1"))
        assert got["paracontact_metric"] is True
        assert got["para_cr"] is False
        assert got["normal"] is False
        assert got["para_sasakian"] is False

    def test_skew_control(self):
        got = classify(worst_values("p1_skew"))
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
