"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
``ACCEPTANCE CRITERION n: PASS/FAIL`` line.  The criteria pin the
package's headline behaviors: the curvature facts of the built-in
families, the equivalence of the para-CR integrability criteria, the
universal dimension-3 property, the curvature identities, the engine
self-tests, and byte-level report determinism.

Oracle provenance markers:
- [TRIVIAL]: forced by definitions or documented contracts.
- [DERIVED]: independently hand-derived closed forms (constant
  curvature values, normality defects, the h = 0 curvature reduction),
  frozen in tests/test_conditions.py and re-asserted here end to end.
"""

import functools
import json
import pathlib
import zlib

import numpy as np
import pytest

from condition_reference import DegeneratePlane, normality_field_residual, \
    sectional
from expression_corpus import jet_fd_worst, random_expression_corpus
from dim3_structures import random_dim3_structure
from geometry_reference import cotton, weyl
from paracr.conditions import classify, expand_checks, trit
from paracr.geometry import PointFrame
from paracr.presets import build_example
from paracr.runner import run, sample_points
from paracr.spec_io import spec_from_dict
from point_helpers import evaluate_condition
from scalar_reference import Dual, depth_of, frame_matrix

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


# ---------------------------------------------------------------------------
# shared, lazily built fixtures (deterministic per-case seeds)
# ---------------------------------------------------------------------------

_CASES = {
    "flat3d": lambda: build_example("flat3d").structure,
    "hyperboloid": lambda: build_example("hyperboloid").structure,
    "hyperboloid2": lambda: build_example("hyperboloid", n=2).structure,
    "p1": lambda: build_example("p1").structure,
    "cosymplectic": lambda: build_example("cosymplectic").structure,
    "fx1": lambda: build_example("p1", f="x1").structure,
}

_FRAMES = {}
_WORST = {}


def case_seed(case):
    return zlib.crc32(case.encode("utf-8")) % 100000


def frames_of(case, count=6):
    """Cached seeded PointFrame sample with probe blocks per frame."""
    key = (case, count)
    if key not in _FRAMES:
        st = _CASES[case]()
        rng = np.random.default_rng(case_seed(case))
        frames = sample_points(st, rng, count)
        probes = [rng.uniform(-1.0, 1.0, (4, 4, st.chart.dim))
                  for _ in frames]
        _FRAMES[key] = (st, frames, probes)
    return _FRAMES[key]


def worst_values(case, count=6):
    """Worst scaled residual of every applicable condition per case."""
    key = (case, count)
    if key not in _WORST:
        st, frames, probes = frames_of(case, count)
        vals = {}
        for pf, pr in zip(frames, probes):
            for cid in expand_checks("all", st.chart.dim):
                cv = evaluate_condition(cid, pf, pr)
                vals[cid] = max(vals.get(cid, 0.0), cv.scaled)
        _WORST[key] = vals
    return _WORST[key]


def verdict(value):
    flag = trit(value, PASS_TOL, SEPARATION)
    assert flag is not None, f"ambiguous residual {value}"
    return flag


def _tangent(v):
    return v.t if depth_of(v) == 1 else 0.0


def field_pair(structure, col, point):
    """Frame field number ``col`` as a (values, jacobian) pair."""
    def fn(xs):
        return [row[col] for row in frame_matrix(structure, xs)]
    vals = np.array([float(v) for v in fn(list(point))])
    m = len(point)
    jac = np.zeros((m, m))
    for a in range(m):
        ys = [Dual(x, 1.0 if i == a else 0.0) for i, x in enumerate(point)]
        jac[a] = [_tangent(c) for c in fn(ys)]
    return vals, jac


def para_cr_bundle_worst(vals):
    return max(vals[cid] for cid in
               ("s0", "s1", "inv-plus", "inv-minus", "news00", "news01",
                "thm1"))


# ---------------------------------------------------------------------------
# criterion 1 — hyperboloid curvature and fingerprint
# ---------------------------------------------------------------------------

@criterion(1, "hyperboloid family: constant sectional curvature -1 over "
              "200 random planes (n=1 and n=2) and the para-Sasakian "
              "para-CR fingerprint")
def test_criterion_01_hyperboloid_curvature_and_fingerprint():
    for case, n in (("hyperboloid", 1), ("hyperboloid2", 2)):
        st, frames, _ = frames_of(case)
        # [DERIVED] 200 random nondegenerate planes per family size.
        rng = np.random.default_rng(100 + n)
        done = 0
        while done < 200:
            X, Y = rng.uniform(-1, 1, (2, st.dim))
            try:
                k = sectional(frames[done % len(frames)], X, Y)
            except DegeneratePlane:
                continue
            assert abs(k + 1.0) <= 1e-6, (case, k)
            done += 1
        # classification fingerprint
        fingerprint = build_example("hyperboloid", n=n).fingerprint
        got = classify(worst_values(case))
        assert got == fingerprint, (case, got)
        for name in ("paracontact_metric", "normal", "para_sasakian",
                     "para_cr"):
            assert got[name] is True


# ---------------------------------------------------------------------------
# criterion 2 — hyperboloid n=2 scalar curvature facts
# ---------------------------------------------------------------------------

@criterion(2, "hyperboloid n=2: r = -20, r* = 4, r + r* + 16 = 0, "
              "R(X,Y)xi = eta(X)Y - eta(Y)X, and Ric xi = -4 xi")
def test_criterion_02_hyperboloid_scalar_curvature():
    _, frames, _ = frames_of("hyperboloid2")
    rng = np.random.default_rng(2)
    for pf in frames:
        # [DERIVED] constant-curvature values for dimension five.
        assert abs(pf.r + 20.0) <= 1e-5
        assert abs(pf.r_star - 4.0) <= 1e-5
        assert abs(pf.r + pf.r_star + 16.0) <= 1e-5
        for _ in range(4):
            X = rng.uniform(-1, 1, pf.m)
            Y = rng.uniform(-1, 1, pf.m)
            got = np.einsum('kwxj,w,x,j->k', pf.Riem, X, Y, pf.xi)
            want = (pf.eta @ X) * Y - (pf.eta @ Y) * X
            assert np.max(np.abs(got - want)) <= 1e-6
        ric_op = pf.ginv @ pf.Ric
        assert np.max(np.abs(ric_op @ pf.xi + 4.0 * pf.xi)) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 3 — the flat 3-dimensional family
# ---------------------------------------------------------------------------

@criterion(3, "flat 3D family: vanishing curvature, the full para-CR "
              "bundle, h acting as -1 on the z-direction, and failure "
              "of the para-Sasakian equation")
def test_criterion_03_flat3d():
    _, frames, _ = frames_of("flat3d")
    e_z = np.array([0.0, 0.0, 1.0])
    for pf in frames:
        # [DERIVED] the structure is flat and h(dz) = -dz.
        assert np.max(np.abs(pf.Riem)) <= 1e-8
        assert np.max(np.abs(pf.h @ e_z + e_z)) <= 1e-8
    vals = worst_values("flat3d")
    for cid in ("pcm", "s0", "s1", "thm1", "news00", "news01",
                "inv-plus", "inv-minus"):
        assert vals[cid] <= 1e-7, (cid, vals[cid])
    # not para-Sasakian, with a wide margin
    assert vals["sas"] >= 1e-2


# ---------------------------------------------------------------------------
# criterion 4 — the graph-frame family on R^5
# ---------------------------------------------------------------------------

@criterion(4, "graph-frame family (default f): paracontact metric, "
              "para-CR, h^2 = 0, normality defect 2|df/dz| along the "
              "+1 frame fields; the f = x1 variant breaks D+ "
              "involutivity")
def test_criterion_04_p1_family():
    st, frames, _ = frames_of("p1")
    vals = worst_values("p1")
    assert vals["pcm"] <= 1e-7
    assert para_cr_bundle_worst(vals) <= 1e-7
    for pf in frames:
        assert np.max(np.abs(pf.h @ pf.h)) <= 1e-7
    # [DERIVED] the only normality defect against the Reeb field is
    # N(e_{n+a}, xi) = 2 (df/dz) e_a with f = (1 + x1^2 + x2^2)/z.
    rng = np.random.default_rng(case_seed("p1") + 1)
    lo = np.array([b[0] for b in st.chart.box])
    hi = np.array([b[1] for b in st.chart.box])
    for _ in range(20):
        pt = tuple(float(v) for v in lo + (hi - lo) * rng.random(5))
        pf = PointFrame(st, pt)
        f_z = -(1.0 + pt[0] ** 2 + pt[1] ** 2) / pt[4] ** 2
        xi_f = field_pair(st, 4, pt)
        for a in range(2):
            got = normality_field_residual(pf, field_pair(st, 2 + a, pt),
                                           xi_f)
            want = np.zeros(5)
            want[a] = 2.0 * f_z
            assert np.max(np.abs(got - want)) <= 1e-6
            zero = normality_field_residual(pf, field_pair(st, a, pt),
                                            xi_f)
            assert np.max(np.abs(zero)) <= 1e-6
    # the non-integrable variant fails D+ involutivity
    assert worst_values("fx1")["inv-plus"] >= 0.1


# ---------------------------------------------------------------------------
# criterion 5 — the closed-forms family
# ---------------------------------------------------------------------------

@criterion(5, "closed-forms family (default potential): d(eta) = 0, "
              "d(Phi) = 0, para-CR with its covariant test, and the "
              "derived constant normality defect along the first frame "
              "field")
def test_criterion_05_cosymplectic_family():
    st, frames, _ = frames_of("cosymplectic")
    for pf in frames:
        assert np.max(np.abs(pf.dEta)) <= 1e-8
        assert np.max(np.abs(pf.dPhi)) <= 1e-8
    vals = worst_values("cosymplectic")
    assert para_cr_bundle_worst(vals) <= PASS_TOL
    assert vals["wzor2"] <= PASS_TOL
    # [DERIVED] with the default potential z * x1^2 the only normality
    # defect against the Reeb field is N(e_0, xi) = 4 e_1, the doubled
    # third mixed derivative of the potential along e_1.
    rng = np.random.default_rng(case_seed("cosymplectic") + 1)
    lo = np.array([b[0] for b in st.chart.box])
    hi = np.array([b[1] for b in st.chart.box])
    for _ in range(10):
        pt = tuple(float(v) for v in lo + (hi - lo) * rng.random(3))
        pf = PointFrame(st, pt)
        xi_f = field_pair(st, 2, pt)
        e0 = field_pair(st, 0, pt)
        e1 = field_pair(st, 1, pt)
        got = normality_field_residual(pf, e0, xi_f)
        assert np.max(np.abs(got - 4.0 * e1[0])) <= 1e-6
        assert np.max(np.abs(
            normality_field_residual(pf, e1, xi_f))) <= 1e-6
        assert np.max(np.abs(
            normality_field_residual(pf, e0, e1))) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 6 — equivalence of the para-CR criteria
# ---------------------------------------------------------------------------

@criterion(6, "criterion-equivalence suite: the para-CR tests agree on "
              "every family and the covariant and shape-operator "
              "characterizations match them on paracontact metric "
              "structures")
def test_criterion_06_equivalence_suite():
    cases = ("flat3d", "hyperboloid", "p1", "cosymplectic", "fx1")
    for case in cases:
        vals = worst_values(case)
        # the three complete criteria agree ...
        full = [
            verdict(max(vals["s0"], vals["s1"])),
            verdict(max(vals["inv-plus"], vals["inv-minus"])),
            verdict(vals["thm1"]),
        ]
        # ... and the partial forms, read as full criteria by pairing
        # them with s1, agree with them as well.
        five = full + [
            verdict(max(vals["news00"], vals["s1"])),
            verdict(max(vals["news01"], vals["s1"])),
        ]
        assert len(set(five)) == 1, (case, five)
        # the partial forms agree among themselves in both directions
        partial = {verdict(vals[cid])
                   for cid in ("s0", "news00", "news01")}
        assert len(partial) == 1, case
    assert verdict(worst_values("fx1")["s0"]) is True

    # covariant characterizations on paracontact metric structures
    for case in ("flat3d", "hyperboloid", "p1", "fx1"):
        vals = worst_values(case)
        assert vals["pcm"] <= PASS_TOL
        para_cr = verdict(max(vals["s0"], vals["s1"]))
        assert verdict(vals["wzor1"]) == para_cr, case
        assert verdict(vals["wzorzamk"]) == para_cr, case

    # among integrable paracontact metric cases, the para-Sasakian
    # equation holds exactly when h vanishes
    for case, h_zero in (("flat3d", False), ("hyperboloid", True),
                         ("p1", False)):
        _, frames, _ = frames_of(case)
        h_max = max(float(np.max(np.abs(pf.h))) for pf in frames)
        assert (h_max <= PASS_TOL) is h_zero, (case, h_max)
        assert verdict(worst_values(case)["sas"]) is h_zero, case


# ---------------------------------------------------------------------------
# criterion 7 — every random dimension-3 structure is para-CR
# ---------------------------------------------------------------------------

@criterion(7, "30 random dimension-3 frame structures (seeded "
              "generator) pass every para-CR criterion at 1e-6")
def test_criterion_07_random_dim3_structures():
    bundle = expand_checks(["para-cr"], 3)
    worst_overall = 0.0
    for seed in range(30):
        st = random_dim3_structure(seed)
        rng = np.random.default_rng(1000 + seed)
        frames = sample_points(st, rng, 16)
        probes = [rng.uniform(-1.0, 1.0, (4, 4, 3)) for _ in frames]
        for pf, pr in zip(frames, probes):
            for cid in bundle:
                scaled = evaluate_condition(cid, pf, pr).scaled
                worst_overall = max(worst_overall, scaled)
                assert scaled <= 1e-6, (seed, cid, scaled)
    # the property holds with a wide numerical margin
    assert worst_overall <= 1e-9


# ---------------------------------------------------------------------------
# criterion 8 — curvature identities
# ---------------------------------------------------------------------------

@criterion(8, "curvature identities: both residuals vanish on the "
              "hyperboloid (with the h = 0 reduction) and on the flat "
              "3D family at 64 points")
def test_criterion_08_curvature_identities():
    # flat 3D family at 64 points
    st = _CASES["flat3d"]()
    rng = np.random.default_rng(8)
    frames = sample_points(st, rng, 64)
    probes = [rng.uniform(-1.0, 1.0, (4, 4, 3)) for _ in frames]
    for pf, pr in zip(frames, probes):
        assert evaluate_condition("k1", pf, pr).scaled <= 1e-6
        assert evaluate_condition("k2", pf, pr).scaled <= 1e-6

    for case in ("hyperboloid", "hyperboloid2"):
        _, frames, probes = frames_of(case)
        for pf, pr in zip(frames, probes):
            assert evaluate_condition("k1", pf, pr).scaled <= 1e-6
            assert evaluate_condition("k2", pf, pr).scaled <= 1e-6
            # [DERIVED] with h = 0 the first identity reduces to
            #   (R(W,X)phi)Y = g(X,Y) phi W - g(W,Y) phi X
            #                  - g(phi W, Y) X + g(phi X, Y) W.
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
# criterion 9 — engine self-tests
# ---------------------------------------------------------------------------

@criterion(9, "engine self-tests: connection and curvature identities, "
              "exterior-derivative nilpotency, jets against finite "
              "differences, and conformal-flatness obstructions")
def test_criterion_09_engine_self_tests():
    pool = [pf for case in ("flat3d", "hyperboloid", "hyperboloid2",
                            "p1", "cosymplectic")
            for pf in frames_of(case)[1]]
    pool += sample_points(random_dim3_structure(0),
                          np.random.default_rng(9), 4)
    for pf in pool:
        assert pf.nabla_g <= 1e-9
        assert pf.gamma_symmetry <= 1e-12
        assert pf.bianchi <= 1e-7
        assert pf.dd_eta <= 1e-8
    # jets against central differences over 200 random expressions
    corpus = random_expression_corpus(seed=1234, count=200, max_depth=6)
    assert len(corpus) == 200
    assert jet_fd_worst(corpus) <= 1e-5
    # [DERIVED] constant-curvature spaces are conformally flat: the
    # dimension-appropriate obstruction vanishes.
    for value in weyl(frames_of("hyperboloid2")[1]):
        assert value <= 1e-5
    for value in cotton(frames_of("hyperboloid")[1]):
        assert value <= 1e-5


# ---------------------------------------------------------------------------
# criterion 10 — report determinism and golden files
# ---------------------------------------------------------------------------

@criterion(10, "verification reports: byte-identical bodies across "
               "repeat runs and exact agreement with the stored golden "
               "files for all four example families")
def test_criterion_10_report_determinism():
    spec = spec_from_dict(build_example("flat3d").spec_dict)
    a = run(spec, checks=["para-cr"], points=8)
    b = run(spec, checks=["para-cr"], points=8)
    assert a.body_json() == b.body_json()
    for name in ("flat3d", "hyperboloid", "p1", "cosymplectic"):
        spec = spec_from_dict(build_example(name).spec_dict)
        report = run(spec)
        golden = (GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert report.body_json() == golden, name
        # stored residuals reproduce the stored verdicts
        for row in json.loads(golden)["checks"]:
            expected = ("pass" if row["scaled"] <= PASS_TOL else
                        "fail" if row["scaled"] >= SEPARATION else
                        "ambiguous")
            assert row["verdict"] == expected
