"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion, with one test id
per case of it (a family, a structure, a seed or a preset), and each id
prints a single ``ACCEPTANCE CRITERION n: PASS/FAIL`` line.  The
criteria pin the package's headline behaviors: the curvature facts of
the built-in families, the equivalence of the para-CR integrability
criteria, the universal dimension-3 property, the curvature identities,
the engine self-tests, and byte-level report determinism.  Each
criterion is the one test of the oracles its summary names: every case,
point and band of them is asserted here and nowhere else in the suite,
and a criterion may assert more than its summary names.

Oracle provenance markers:
- [TRIVIAL]: forced by definitions or documented contracts.
- [DERIVED]: independently hand-derived closed forms (constant
  curvature values, normality defects, the action of h, the h = 0
  curvature reduction).
"""

import functools
import json
import pathlib

import numpy as np
import pytest

from accessors import report_body_json
from cases import (
    FINGERPRINTS,
    box_frames,
    case_seed,
    evaluate_condition,
    field_pair,
    h_zero_reduction_gap,
    preset_spec,
    sampled,
    scaled_diff,
    structure,
    verdict,
    worst_values,
)
from condition_reference import DegeneratePlane, normality_field_residual, \
    sectional
from expression_corpus import jet_fd_worst, random_expression_corpus
from dim3_structures import random_dim3_structure
from geometry_reference import cotton, weyl
from paracr.conditions import classify, evaluate_conditions, expand_checks
from paracr.geometry import PointFrame
from paracr.presets import PRESET_NAMES
from paracr.runner import run, sample_points

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

PASS_TOL = 1e-6
SEPARATION = 1e-2


def criterion(n, summary):
    """Print the one-line verdict for a numbered acceptance criterion."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE CRITERION {n}: FAIL — {summary}")
                raise
            print(f"\nACCEPTANCE CRITERION {n}: PASS — {summary}")
        return wrapper
    return deco


def para_cr_bundle_worst(vals):
    return max(vals[cid] for cid in
               ("s0", "s1", "inv-plus", "inv-minus", "news00", "news01",
                "thm1"))


def sectionals(frame_of, draw, count):
    """Sectional curvatures of ``count`` nondegenerate planes: plane k
    at the frame ``frame_of(k)``, spanned by (X, Y) = ``draw()``, drawn
    again while the plane is degenerate."""
    out = []
    while len(out) < count:
        X, Y = draw()
        try:
            out.append(sectional(frame_of(len(out)), X, Y))
        except DegeneratePlane:
            continue
    return out


# ---------------------------------------------------------------------------
# criterion 1 — hyperboloid curvature and fingerprint
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", (1, 2))
@criterion(1, "hyperboloid family: constant sectional curvature -1 over "
              "200 random planes (n=1 and n=2) and the para-Sasakian "
              "para-CR fingerprint")
def test_criterion_01_hyperboloid_curvature_and_fingerprint(n):
    case = f"hyperboloid_n{n}"
    st, frames, _ = sampled(case)
    # [DERIVED] 200 random nondegenerate planes over the sample, then 5
    # at each of 4 box points
    rng = np.random.default_rng(100 + n)
    ks = sectionals(lambda k: frames[k % len(frames)],
                    lambda: rng.uniform(-1, 1, (2, st.dim)), 200)
    rng = np.random.default_rng(61)
    for pf in box_frames(st, rng, 4):
        ks += sectionals(lambda k: pf,
                         lambda: rng.standard_normal((2, st.dim)), 5)
    for k in ks:
        assert abs(k + 1.0) < 1e-6, (case, k)
    # classification fingerprint
    got = classify(worst_values(case))
    assert got == FINGERPRINTS[case], (case, got)
    for name in ("paracontact_metric", "normal", "para_sasakian",
                 "para_cr"):
        assert got[name] is True


# ---------------------------------------------------------------------------
# criterion 2 — hyperboloid n=2 scalar curvature facts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", (2, 1))
@criterion(2, "hyperboloid n=2: r = -20, r* = 4, r + r* + 16 = 0, "
              "R(X,Y)xi = eta(X)Y - eta(Y)X, and Ric xi = -4 xi")
def test_criterion_02_hyperboloid_scalar_curvature(n):
    # [DERIVED] constant curvature -1 in dimension m = 2n + 1:
    # R(X,Y)Z = -(g(Y,Z) X - g(X,Z) Y), hence Ric = -2n g,
    # r = -2n(2n+1), R(X,Y)xi = eta(X)Y - eta(Y)X, and with the
    # compatibility identity Ric*(Y,Z) = g(Y,Z) - eta(Y) eta(Z), r* = 2n
    # and r + r* = -4n^2.  At n = 2: r = -20, r* = 4, Ric xi = -4 xi.
    rng = np.random.default_rng(2)
    st, frames, _ = sampled(f"hyperboloid_n{n}")
    eye = np.eye(st.dim)
    pool = [*frames, *box_frames(st, np.random.default_rng(29), 3),
            *box_frames(st, np.random.default_rng(31), 2)]
    for pf in pool:
        expect = -(np.einsum('by,kw->kwby', pf.g, eye)
                   - np.einsum('wy,kb->kwby', pf.g, eye))
        assert np.max(np.abs(pf.Riem - expect)) < 1e-6
        assert np.max(np.abs(pf.Ric + 2 * n * pf.g)) < 1e-6
        assert abs(pf.r + 2 * n * (2 * n + 1)) < 1e-6
        want = pf.g - np.outer(pf.eta, pf.eta)
        assert np.max(np.abs(pf.Ric_star - want)) < 1e-6
        assert abs(pf.r_star - 2 * n) < 1e-6
        assert abs(pf.r + pf.r_star + 4 * n * n) < 1e-6
        for _ in range(4):
            X = rng.uniform(-1, 1, pf.m)
            Y = rng.uniform(-1, 1, pf.m)
            got = np.einsum('kwxj,w,x,j->k', pf.Riem, X, Y, pf.xi)
            want = (pf.eta @ X) * Y - (pf.eta @ Y) * X
            assert np.max(np.abs(got - want)) <= 1e-6
        ric_op = pf.ginv @ pf.Ric
        assert np.max(np.abs(ric_op @ pf.xi + 2 * n * pf.xi)) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 3 — the flat 3-dimensional family
# ---------------------------------------------------------------------------

@criterion(3, "flat 3D family: vanishing curvature, the full para-CR "
              "bundle, h acting as -1 on the z-direction, and failure "
              "of the para-Sasakian equation")
def test_criterion_03_flat3d():
    st, frames, _ = sampled("flat3d")
    e_z = np.array([0.0, 0.0, 1.0])
    pool = [*frames, *box_frames(st, np.random.default_rng(23), 5),
            PointFrame(st, (0.3, -0.2, 0.4))]
    for pf in pool:
        # [DERIVED] the structure is flat and h(dz) = -dz.
        assert np.max(np.abs(pf.Riem)) < 1e-8
        assert np.max(np.abs(pf.Ric)) < 1e-9
        assert abs(pf.r) < 1e-9
        assert np.max(np.abs(pf.h @ e_z + e_z)) <= 1e-9
    vals = worst_values("flat3d")
    for cid in ("pcm", "s0", "s1", "thm1", "news00", "news01",
                "inv-plus", "inv-minus"):
        assert vals[cid] <= 1e-7, (cid, vals[cid])
    # not para-Sasakian, with a wide margin
    assert vals["sas"] >= 1e-2


# ---------------------------------------------------------------------------
# criterion 4 — the graph-frame family on R^5
# ---------------------------------------------------------------------------

criterion_04 = criterion(
    4, "graph-frame family (default f): paracontact metric, para-CR, "
       "h^2 = 0, normality defect 2|df/dz| along the +1 frame fields; "
       "the f = x1 variant breaks D+ involutivity")


@criterion_04
def test_criterion_04_p1_family():
    st, frames, _ = sampled("p1_n2")
    vals = worst_values("p1_n2")
    assert vals["pcm"] <= 1e-7
    assert para_cr_bundle_worst(vals) <= 1e-7
    # [DERIVED] with f = (1 + x1^2 + x2^2)/z the frame fields e_a lie in
    # the kernel of h and h e_{n+a} = -(df/dz) e_a, so h^2 = 0; the only
    # normality defect against the Reeb field is
    # N(e_{n+a}, xi) = 2 (df/dz) e_a, with N(e_a, xi) = 0.
    pool = list(frames)
    for seed, count in ((case_seed("p1_n2") + 1, 20), (10, 5), (14, 4)):
        pool += box_frames(st, np.random.default_rng(seed), count)
    for pf in pool:
        pt = pf.point
        f_z = -(1.0 + pt[0] ** 2 + pt[1] ** 2) / pt[4] ** 2
        xi_f = field_pair(st, 4, pt)
        assert np.max(np.abs(pf.h @ pf.h)) <= 1e-9
        for a in range(2):
            e_a = field_pair(st, a, pt)
            e_na = field_pair(st, 2 + a, pt)
            assert np.max(np.abs(pf.h @ e_a[0])) <= 1e-9
            assert scaled_diff(pf.h @ e_na[0], -f_z * e_a[0]) <= 1e-9
            assert np.max(np.abs(
                normality_field_residual(pf, e_a, xi_f))) <= 1e-8
            got = normality_field_residual(pf, e_na, xi_f)
            assert scaled_diff(got, 2.0 * f_z * e_a[0]) <= 1e-8


@criterion_04
def test_criterion_04_p1_fx1_variant():
    # [DERIVED] for f = x1 the integrability obstruction
    # f*f_x - f_y + 2x1*f_z = x1 is nonzero, and it obstructs only the
    # +1 eigendistribution; the -1 one stays involutive.
    assert worst_values("p1_fx1")["inv-plus"] >= 0.1
    assert worst_values("p1_fx1")["inv-minus"] <= 1e-9
    fx1 = structure("p1_fx1")
    fixed = PointFrame(fx1, (0.8, 0.3, 0.1, -0.4, 1.0))
    assert evaluate_condition("inv-plus", fixed).scaled >= 0.1
    box = box_frames(fx1, np.random.default_rng(6), 6)
    assert max(evaluate_condition("inv-plus", pf).scaled
               for pf in box) >= 0.1
    for pf in [fixed, *box]:
        assert evaluate_condition("inv-minus", pf).scaled <= 1e-9


# ---------------------------------------------------------------------------
# criterion 5 — the closed-forms family
# ---------------------------------------------------------------------------

@criterion(5, "closed-forms family (default potential): d(eta) = 0, "
              "d(Phi) = 0, para-CR with its covariant test, and the "
              "derived constant normality defect along the first frame "
              "field")
def test_criterion_05_cosymplectic_family():
    st, frames, _ = sampled("cosymplectic_n1")
    vals = worst_values("cosymplectic_n1")
    assert para_cr_bundle_worst(vals) <= PASS_TOL
    assert vals["wzor2"] <= PASS_TOL
    # [DERIVED] with the default potential z * x1^2 the only normality
    # defect against the Reeb field is N(e_0, xi) = 4 e_1, the doubled
    # third mixed derivative of the potential along e_1.
    pool = list(frames)
    for seed, count in ((case_seed("cosymplectic_n1") + 1, 10), (12, 5),
                        (47, 3)):
        pool += box_frames(st, np.random.default_rng(seed), count)
    for pf in pool:
        assert np.max(np.abs(pf.dEta)) < 1e-8
        assert np.max(np.abs(pf.dPhi)) < 1e-8
        # positive control: the fundamental form itself is not small.
        assert np.max(np.abs(pf.Phi)) > 0.5
        xi_f = field_pair(st, 2, pf.point)
        e0 = field_pair(st, 0, pf.point)
        e1 = field_pair(st, 1, pf.point)
        got = normality_field_residual(pf, e0, xi_f)
        assert scaled_diff(got, 4.0 * e1[0]) <= 1e-8
        assert np.max(np.abs(
            normality_field_residual(pf, e1, xi_f))) <= 1e-8
        assert np.max(np.abs(
            normality_field_residual(pf, e0, e1))) <= 1e-8


# ---------------------------------------------------------------------------
# criterion 6 — equivalence of the para-CR criteria
# ---------------------------------------------------------------------------

PARTIAL_VERDICT = {"p1_fx1": True, "p1_skew": False}
H_VANISHES = {"flat3d": False, "hyperboloid_n1": True, "p1_n2": False}


@pytest.mark.parametrize("case", ("flat3d", "hyperboloid_n1", "p1_n2",
                                  "cosymplectic_n1", "p1_fx1", "p1_skew"))
@criterion(6, "criterion-equivalence suite: the para-CR tests agree on "
              "every family and the covariant and shape-operator "
              "characterizations match them on paracontact metric "
              "structures")
def test_criterion_06_equivalence_suite(case):
    vals = worst_values(case)
    # the three complete criteria -- (s0 and s1), the involutivity of
    # both eigendistributions and the covariant characterization --
    # agree ...
    full = [
        verdict(max(vals["s0"], vals["s1"])),
        verdict(max(vals["inv-plus"], vals["inv-minus"])),
        verdict(vals["thm1"]),
    ]
    # ... and the partial forms, read as full criteria by pairing them
    # with s1, agree with them as well.
    five = full + [
        verdict(max(vals["news00"], vals["s1"])),
        verdict(max(vals["news01"], vals["s1"])),
    ]
    assert len(set(five)) == 1, (case, five)
    # the partial forms agree among themselves in both directions
    partial = {verdict(vals[cid]) for cid in ("s0", "news00", "news01")}
    assert len(partial) == 1, case
    # they hold on fx1, where s1 fails, and fail jointly on skew
    if case in PARTIAL_VERDICT:
        assert verdict(vals["s0"]) is PARTIAL_VERDICT[case]

    # on paracontact metric structures the partial forms hold
    # identically, and the covariant characterizations match para-CR
    if case in ("flat3d", "hyperboloid_n1", "p1_n2", "p1_fx1"):
        for cid in ("pcm", "s0", "news00", "news01"):
            assert vals[cid] <= 1e-7, (case, cid, vals[cid])
        para_cr = verdict(max(vals["s0"], vals["s1"]))
        assert verdict(vals["wzor1"]) == para_cr, case
        assert verdict(vals["wzorzamk"]) == para_cr, case

    # among integrable paracontact metric cases, the para-Sasakian
    # equation holds exactly when h vanishes
    if case in H_VANISHES:
        st, frames, _ = sampled(case)
        pool = [*frames, *box_frames(st, np.random.default_rng(17), 4)]
        h_max = max(float(np.max(np.abs(pf.h))) for pf in pool)
        assert (h_max <= PASS_TOL) is H_VANISHES[case], (case, h_max)
        assert verdict(vals["sas"]) is H_VANISHES[case], case


# ---------------------------------------------------------------------------
# criterion 7 — every random dimension-3 structure is para-CR
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
@criterion(7, "30 random dimension-3 frame structures (seeded "
              "generator) pass every para-CR criterion at 1e-6")
def test_criterion_07_random_dim3_structures(seed):
    bundle = expand_checks(["para-cr"], 3)
    st = random_dim3_structure(seed)
    rng = np.random.default_rng(1000 + seed)
    frames = sample_points(st, rng, 16)
    probes = rng.uniform(-1.0, 1.0, (16, 4, 4, 3))
    worst = 0.0
    for cid, value in evaluate_conditions(bundle, frames, probes).items():
        worst = max(worst, value.scaled)
        assert value.scaled <= 1e-6, (seed, cid, value.scaled)
    # the property holds with a wide numerical margin
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# criterion 8 — curvature identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ("flat3d", "hyperboloid_n1",
                                  "hyperboloid_n2", "p1_n2",
                                  "cosymplectic_n1", "p1_fx1"))
@criterion(8, "curvature identities: both residuals vanish on the "
              "hyperboloid (with the h = 0 reduction) and on the flat "
              "3D family at 64 points")
def test_criterion_08_curvature_identities(case):
    vals = worst_values(case)
    # both controls outside the class of integrable paracontact metric
    # structures break the identities
    if case in ("cosymplectic_n1", "p1_fx1"):
        assert vals["k1"] >= 1e-2 and vals["k2"] >= 1e-2, case
        return
    # the identities hold on the integrable paracontact metric cases
    assert vals["k1"] <= 1e-7 and vals["k2"] <= 1e-7, case
    if case == "flat3d":
        # flat 3D family at 64 points
        _, frames, probes = sampled("flat3d", 64, seed=8)
        for value in evaluate_conditions(["k1", "k2"], frames,
                                         probes).values():
            assert value.scaled <= 1e-7
    if case.startswith("hyperboloid"):
        pool = list(sampled(case)[1])
        if case == "hyperboloid_n2":
            # 3 box points, 4 probe draws each
            st = structure(case)
            rng = np.random.default_rng(18)
            for pf in box_frames(st, rng, 3):
                probes = rng.uniform(-1.0, 1.0, size=(4, 4, 5))
                assert evaluate_condition("k1", pf, probes).scaled <= 1e-7
                assert evaluate_condition("k2", pf, probes).scaled <= 1e-7
            pool += box_frames(st, np.random.default_rng(19), 3)
        # [DERIVED] h = 0 reduces the first identity
        # (h_zero_reduction_gap)
        for pf in pool:
            assert h_zero_reduction_gap(pf) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 9 — engine self-tests
# ---------------------------------------------------------------------------

criterion_09 = criterion(
    9, "engine self-tests: connection and curvature identities, "
       "exterior-derivative nilpotency, jets against finite differences, "
       "and conformal-flatness obstructions")

# [DERIVED] constant-curvature spaces, and flat ones, are conformally
# flat: the dimension-appropriate obstruction vanishes over the sample
# and at one more point.
CONFORMALLY_FLAT = {
    "hyperboloid_n2": (weyl, (0.1, -0.2, 0.3, 0.0, 0.2), 1e-5),
    "hyperboloid_n1": (cotton, (0.2, -0.1, 0.3), 1e-5),
    "flat3d": (cotton, (0.3, 0.1, -0.4), 1e-10),
}


@pytest.mark.parametrize("case", ("flat3d", "hyperboloid_n1",
                                  "hyperboloid_n2", "p1_n2",
                                  "cosymplectic_n1", "random0"))
@criterion_09
def test_criterion_09_engine_self_tests(case):
    if case == "random0":
        st, frames, _ = sampled(case, 4, seed=9)
    else:
        st, frames, _ = sampled(case)
    pool = list(frames)
    if case in ("flat3d", "hyperboloid_n1", "p1_n2", "cosymplectic_n1"):
        pool += box_frames(st, np.random.default_rng(19), 3)
        pool += box_frames(st, np.random.default_rng(53), 2)
    for pf in pool:
        assert pf.nabla_g < 1e-9
        assert pf.gamma_symmetry < 1e-12
        assert pf.metric_symmetry < 1e-12
        assert pf.inverse_identity < 1e-12
        assert pf.bianchi <= 1e-7
        assert pf.dd_eta < 1e-8
    if case in CONFORMALLY_FLAT:
        obstruction, point, band = CONFORMALLY_FLAT[case]
        values = np.concatenate([obstruction(frames),
                                 obstruction(PointFrame(st, point).batch)])
        assert np.max(values) < band, (case, np.max(values))


@criterion_09
def test_criterion_09_jets_against_finite_differences():
    # jets against central differences over 200 random expressions: the
    # gap of this corpus, pinned
    corpus = random_expression_corpus(seed=1234, count=200, max_depth=6)
    assert len(corpus) == 200
    assert jet_fd_worst(corpus) == 6.074975717954007e-09


# ---------------------------------------------------------------------------
# criterion 10 — report determinism and golden files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PRESET_NAMES)
@criterion(10, "verification reports: byte-identical bodies across "
               "repeat runs and exact agreement with the stored golden "
               "files for all four example families")
def test_criterion_10_report_determinism(name):
    spec = preset_spec(name)
    golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    assert report_body_json(run(spec)) == golden, name
    rows = json.loads(golden)["checks"]
    if name in ("flat3d", "hyperboloid"):
        a = run(spec, checks=["para-cr"], points=8)
        b = run(spec, checks=["para-cr"], points=8)
        assert report_body_json(a) == report_body_json(b), name
        assert a.json() != "" and b.json() != ""
    if name == "flat3d":
        rows += run(spec, points=8).checks
    # stored residuals reproduce the stored verdicts
    for row in rows:
        expected = ("pass" if row["scaled"] <= PASS_TOL else
                    "fail" if row["scaled"] >= SEPARATION else
                    "ambiguous")
        assert row["verdict"] == expected, row["id"]
        assert row["raw"] >= 0.0 and row["scaled"] >= 0.0
