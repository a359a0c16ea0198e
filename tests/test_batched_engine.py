"""The batched Taylor-array engine against its point-by-point reference,
and the failure surface of batched evaluation.

Oracle provenance markers:
- [REFERENCE]: ``scalar_reference`` evaluates every point and every
  choice of derivative directions separately over nested scalar duals;
  the batched engine performs the same floating-point operations, so the
  arrays must agree exactly (which keeps tie-broken worst parts of
  failing checks where they were).
- [TRIVIAL]: forced by the documented rejection and reporting contracts.
"""

import json
import math
import pathlib

import numpy as np
import pytest

import paracr
import scalar_reference
from corpus_reference import jet_fd_worst
from dim3_structures import random_dim3_structure
from expression_corpus import random_expression_corpus
from geometry_reference import d3g
from paracr import cli, geometry, jets
from paracr.errors import DomainError, OutsidePatch, SamplingExhausted
from paracr.expr import eval_expr, parse
from paracr.geometry import (
    Chart,
    CoordinateStructure,
    FrameStructure,
    PointFrame,
    structure_arrays,
)
from paracr.jets import coordinate_jets
from paracr.presets import build_example
from paracr.runner import SELF_TEST_NAMES, engine_self_tests, sample_points
from paracr.spec_io import load_spec

SQRT_SPEC = (pathlib.Path(__file__).parents[1] / "bench" / "specs"
             / "flat3d_sqrt.json")

ARRAY_NAMES = ("g", "dg", "d2g", "phi", "dphi", "d2phi",
               "xi", "dxi", "d2xi", "eta", "deta", "d2eta")

STRUCTURES = {
    "flat3d": lambda: build_example("flat3d").structure,
    "hyperboloid1": lambda: build_example("hyperboloid", n=1).structure,
    "hyperboloid2": lambda: build_example("hyperboloid", n=2).structure,
    "hyperboloid3": lambda: build_example("hyperboloid", n=3).structure,
    "p1_2": lambda: build_example("p1", n=2).structure,
    "p1_3": lambda: build_example("p1", n=3).structure,
    "cosymplectic1": lambda: build_example("cosymplectic", n=1).structure,
    "cosymplectic2": lambda: build_example("cosymplectic", n=2).structure,
    "cosymplectic3": lambda: build_example("cosymplectic", n=3).structure,
    "random0": lambda: random_dim3_structure(0),
    "random1": lambda: random_dim3_structure(1),
    "random2": lambda: random_dim3_structure(2),
    "flat3d_sqrt": lambda: load_spec(str(SQRT_SPEC)).structure,
}


def _structure_with(frame_00="1", metric_00="1"):
    """Frame structure E = diag(frame_00, 1, 1) over a metric whose first
    entry is metric_00 (a coordinate structure when the frame is trivial)."""
    coords = ("x", "y", "z")
    chart = Chart(coords, ((-1.0, 1.0),) * 3)

    def matrix(first):
        rows = [[first, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        return [[parse(t, coords) for t in row] for row in rows]

    zero = parse("0", coords)
    if frame_00 != "1":
        eye = np.eye(3).tolist()
        return FrameStructure(chart, matrix(frame_00), eye, eye,
                              [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    return CoordinateStructure(chart, matrix(metric_00),
                               [[zero] * 3 for _ in range(3)],
                               [zero] * 3, [zero] * 3)


REJECTING = {
    "flat3d_sqrt": STRUCTURES["flat3d_sqrt"],
    # |det E| = 1.9e-6 |x| falls below 1e-6 for |x| < 0.53
    "half_singular_frame": lambda: _structure_with(frame_00="0.0000019*x"),
    # |det g| = 2e-10 |x| falls below 1e-10 for |x| < 0.5
    "half_degenerate_metric": lambda: _structure_with(
        metric_00="0.0000000002*x"),
}


def scaled_gap(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(got - want))) / scale


class TestAgainstScalarReference:
    @pytest.mark.parametrize("case", sorted(STRUCTURES))
    def test_arrays_match(self, case):
        # [REFERENCE] every component array at sampled points.
        st = STRUCTURES[case]()
        count = 1 if st.dim >= 7 else 2
        for pf in sample_points(st, np.random.default_rng(3), count):
            want = scalar_reference.arrays(st, pf.point)
            for name in ARRAY_NAMES:
                got = getattr(pf, name)
                assert scaled_gap(got, want[name]) <= 1e-12, (case, name)
                np.testing.assert_array_equal(got, want[name])

    @pytest.mark.parametrize("case", ["flat3d", "random1", "hyperboloid1"])
    def test_third_metric_derivatives_match(self, case):
        st = STRUCTURES[case]()
        point = sample_points(st, np.random.default_rng(5), 1)[0].point
        np.testing.assert_array_equal(
            d3g(PointFrame(st, point).single)[0],
            scalar_reference.third_metric_derivatives(st, point))

    @pytest.mark.parametrize("case", ["flat3d_sqrt", "half_singular_frame",
                                      "half_degenerate_metric"])
    def test_sampling_decisions_match(self, case):
        # [REFERENCE] waves of batched draws accept the same points after
        # the same number of attempts (hence the same RNG state) as the
        # one-draw-at-a-time sampler, for seeds 0-15, and a draw is
        # rejected for the same reason; about half of the draws of these
        # structures are rejected (DomainError, SingularFrame,
        # DegenerateMetric).
        st = REJECTING[case]()
        lo = np.array([b[0] for b in st.chart.box])
        hi = np.array([b[1] for b in st.chart.box])
        total = {}
        for seed in range(16):
            rng = np.random.default_rng(seed)
            frames = sample_points(st, rng, 8)
            ref_rng = np.random.default_rng(seed)
            points, attempts, rejected = scalar_reference.sample(
                st, ref_rng, 8)
            assert [pf.point for pf in frames] == points
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            replay = np.random.default_rng(seed)
            classes = {}
            for _ in range(attempts):
                point = lo + (hi - lo) * replay.random(st.dim)
                try:
                    PointFrame(st, point).ginv
                except paracr.ParacrError as exc:
                    name = type(exc).__name__
                    classes[name] = classes.get(name, 0) + 1
            assert classes == rejected
            for name, count in rejected.items():
                total[name] = total.get(name, 0) + count
        assert sum(total.values()) >= 16, total

    def test_batch_slices_equal_single_points(self):
        st = STRUCTURES["p1_2"]()
        points = np.random.default_rng(8).uniform(0.5, 1.0, (5, st.dim))
        batch = structure_arrays(st, points)
        for i, point in enumerate(points):
            single = PointFrame(st, point)
            for name in ARRAY_NAMES:
                np.testing.assert_array_equal(getattr(batch, name)[i],
                                              getattr(single, name))

    def test_corpus_gap_is_read_off_the_selecting_jets(self):
        # the corpus gap comes from the order-3 jets that built the
        # corpus; order-1 jets give the same gap bit for bit
        corpus = random_expression_corpus(1234, 200, 6)
        assert corpus.gap == jet_fd_worst(corpus)

    def test_product_modules_do_not_use_scalar_duals(self):
        # the scalar duals are the tests' reference, not product code
        for module in (jets, paracr.expr, paracr.geometry, paracr.presets,
                       paracr.runner, paracr.conditions, paracr.spec_io,
                       paracr.cli):
            names = vars(module)
            assert not {"Dual", "seed", "seed_multi", "nth_tangent",
                        "coefficients", "depth_of", "value_of"} \
                & set(names), module.__name__


# ---------------------------------------------------------------------------
# failure surface
# ---------------------------------------------------------------------------

def coordinate_structure(g00):
    coords = ("x", "y", "z")
    chart = Chart(coords, ((-1.0, 1.0),) * 3)
    rows = [[g00, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    g = [[parse(t, coords) for t in row] for row in rows]
    zero = parse("0", coords)
    return CoordinateStructure(chart, g, [[zero] * 3 for _ in range(3)],
                               [zero] * 3, [zero] * 3)


class TestFailureSurface:
    def test_power_zero_keeps_the_domain_mask(self):
        # x^0 is 1 only where x is a number: of a NaN it stays NaN, and
        # the point is rejected.
        xs = coordinate_jets([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]], 2)
        with np.errstate(invalid="ignore"):
            y = eval_expr(parse("sqrt(x)^0", ("x", "y", "z")), xs)
        assert math.isnan(y.v[0]) and y.v[1] == 1.0
        st = coordinate_structure("1 + 0*sqrt(x)^0")
        with pytest.raises(DomainError):
            PointFrame(st, (-0.5, 0.1, 0.1))
        PointFrame(st, (0.5, 0.1, 0.1)).ginv

    def test_non_finite_components_are_rejected(self):
        # an overflow inside a float product gives inf, and 0 * inf a NaN
        # metric entry; such draws are rejected, never sampled.  A
        # divisor inside the guard band gives a NaN quotient although
        # IEEE division is finite there (2e300 at x = 0.5), also under ^0.
        for text in ("1 + 0*(x*1e200*1e200)", "1 + 0*(1/(x*1e-300))",
                     "1 + 0*(1/(x*1e-300))^0"):
            st = coordinate_structure(text)
            with pytest.raises(DomainError):
                PointFrame(st, (0.5, 0.1, 0.1))
            with pytest.raises(SamplingExhausted):
                sample_points(st, np.random.default_rng(0), 2)

    @pytest.mark.parametrize("text,cause", [
        ("1/0", "DomainError in a component expression: division by 0.0"),
        ("ln(0)", "DomainError in a component expression: ln of "
                  "non-positive value 0.0"),
        ("exp(1000)", "OverflowError in a component expression: math "
                      "range error")])
    def test_constant_error_stops_the_run(self, tmp_path, capsys, text,
                                          cause):
        # an error in a constant subexpression is the same at every draw:
        # the first wave raises it, and the run ends in exit 2 naming it
        rng, one_wave = (np.random.default_rng(0) for _ in range(2))
        with pytest.raises(DomainError) as info:
            sample_points(coordinate_structure(f"-1 + 0*{text}"), rng, 5)
        assert str(info.value).startswith(cause)
        one_wave.random((5, 3))
        assert rng.bit_generator.state == one_wave.bit_generator.state
        data = json.loads(SQRT_SPEC.read_text(encoding="utf-8"))
        data["structure"]["coordinate"]["g"][0][0] = text
        path = tmp_path / "constant.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cli.main(["verify", "--spec", str(path), "--points",
                         "4"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cause}")

    @pytest.mark.parametrize("inner,status", [("x+3", 2), ("x+2", 1)])
    def test_overflow_is_a_rejection_not_a_crash(self, tmp_path, capsys,
                                                 inner, status):
        # exp(exp(exp(x+3))) overflows at every draw: sampling is exhausted
        # (exit 2 with an error line); with x+2 only draws with
        # x > -0.118 overflow and the rest verify as the flat spec does.
        data = json.loads(SQRT_SPEC.read_text(encoding="utf-8"))
        data["structure"]["coordinate"]["g"][0][0] = \
            f"-1 + 0*exp(exp(exp({inner})))"
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert cli.main(["verify", "--spec", str(path), "--points", "4",
                         "--checks", "pcm"]) == status
        err = capsys.readouterr().err
        assert err.startswith("error: ") if status == 2 else err == ""

    def test_self_tests_report_nan(self):
        frames = sample_points(build_example("flat3d").structure,
                               np.random.default_rng(2), 2)
        # a frame's arrays are views of its row in the sample's batch
        frames[0].d2eta[0, 1, 2] = math.nan
        summary = engine_self_tests(frames)
        assert math.isnan(summary["dd_eta"])
        assert math.isnan(summary["mixed_partial"])
        assert summary["nabla_g"] <= 1e-9

    def test_outside_patch_wins_over_the_domain_mask(self):
        # sqrt of the negative graph argument also flags the domain; the
        # reported rejection is the patch, as for a single point.
        st = STRUCTURES["hyperboloid2"]()
        with pytest.raises(OutsidePatch):
            PointFrame(st, (0.0, 0.0, 0.0, 0.8, 0.8))


# ---------------------------------------------------------------------------
# the mixed-partial self-test keeps its teeth
# ---------------------------------------------------------------------------

def broken_layout(k, order):
    """The jet layout with the mixed product term ∂_b u ∂_a w of every
    second-order slot (a, b) replaced by ∂_a u ∂_b w."""
    lay = jets._Layout(k, order)
    if order >= 2:
        left = lay.left.reshape(lay.size, lay.width).copy()
        right = lay.right.reshape(lay.size, lay.width).copy()
        for s in range(lay.offsets[2], lay.offsets[3]):
            a, b = divmod(s - lay.offsets[2], k)
            left[s, 1], right[s, 1] = 1 + a, 1 + b
        lay.left, lay.right = left.ravel(), right.ravel()
    return lay


class TestMixedPartialTeeth:
    def test_roundoff_on_every_preset(self):
        for name, n in (("flat3d", None), ("hyperboloid", 2), ("p1", 3),
                        ("cosymplectic", 2)):
            params = {} if n is None else {"n": n}
            st = build_example(name, **params).structure
            frames = sample_points(st, np.random.default_rng(1), 3)
            assert engine_self_tests(frames)["mixed_partial"] <= 1e-9

    def test_broken_product_rule_is_order_one(self, monkeypatch):
        # the broken rule leaves univariate jets alone, so the quadratic
        # forms still agree; the asymmetry of d2 catches it
        st = build_example("p1", n=2).structure
        point = (0.3, -0.2, 0.1, 0.4, 1.0)
        assert engine_self_tests(
            PointFrame(st, point).single)["mixed_partial"] <= 1e-12
        monkeypatch.setattr(jets, "_layout", broken_layout)
        broken = PointFrame(st, point)
        assert engine_self_tests(broken.single)["mixed_partial"] >= 0.1

    def test_wrong_first_order_slot_is_order_one(self, monkeypatch):
        # D_u scaled by 1 + 1e-3 in the directional jets: the central
        # differences see it, the second-order cross-check does not
        sample = sample_points(build_example("hyperboloid", n=2).structure,
                               np.random.default_rng(3), 8)
        assert engine_self_tests(sample)["jet_vs_fd"] <= 1e-6
        original = geometry.structure_jets

        def skewed(*args, **kwargs):
            parts, rejected = original(*args, **kwargs)
            for part in parts:
                part.c[..., 1:1 + part.layout.k] *= 1 + 1e-3
            return parts, rejected

        monkeypatch.setattr(geometry, "structure_jets", skewed)
        summary = engine_self_tests(sample)
        assert summary["jet_vs_fd"] > 1e-4
        assert summary["mixed_partial"] <= 1e-12


class TestDirectionalStencils:
    def test_rejected_stencil_is_excluded_and_counted(self):
        # sqrt(x) at x = 1e-9 is accepted, but a step of 1e-5 along any
        # direction with |u_x| > 1e-4 leaves its domain on one side
        st = coordinate_structure("2 + sqrt(x)")
        inner, edge = (0.5, 0.1, 0.2), (1e-9, 0.1, 0.2)
        both = structure_arrays(st, [inner, edge])
        assert both.rejected == [None, None]
        summary = engine_self_tests(both)
        assert summary.fd_excluded == 1
        # the inner point alone: the same directions, the same value
        assert summary["jet_vs_fd"] == \
            engine_self_tests(both.rows(slice(0, 1)))["jet_vs_fd"]
        assert 0.0 < summary["jet_vs_fd"] <= 1e-6
        assert summary["mixed_partial"] <= 1e-12

    def test_gap_is_fourth_order_near_a_singularity(self):
        # sqrt(z + 0.5) in the bench's flat3d_sqrt spec: seed 1 samples
        # points near z = -0.5, where a plain central difference is off
        # by 5.6e-6 of the jets' scale (h^2/6 times a large third
        # derivative); with the h^2 terms taken out it reads 1.3e-10
        sample = sample_points(load_spec(str(SQRT_SPEC)).structure,
                               np.random.default_rng(1), 64)
        assert engine_self_tests(sample)["jet_vs_fd"] <= 1e-8

    def test_every_stencil_rejected_is_nan(self):
        st = coordinate_structure("2 + sqrt(x)")
        summary = engine_self_tests(structure_arrays(st, [(1e-9, 0.1, 0.2)]))
        assert summary.fd_excluded == 1
        assert math.isnan(summary["jet_vs_fd"])
        assert summary["mixed_partial"] <= 1e-12

    def test_empty_sample(self):
        summary = engine_self_tests([])
        assert tuple(summary) == SELF_TEST_NAMES + ("jet_vs_fd",)
        assert set(summary.values()) == {0.0} and summary.fd_excluded == 0
