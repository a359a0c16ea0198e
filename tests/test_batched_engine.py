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

import numpy as np
import pytest

import paracr
import scalar_reference
from cases import (
    SPECS,
    box_points,
    coordinate_structure,
    first_entry,
    scaled_diff,
    structure,
)
from expression_corpus import eval_expr
from geometry_reference import d3g
from paracr import cli, geometry, jets
from paracr.errors import (
    DegenerateMetric,
    DomainError,
    OutsidePatch,
    SamplingExhausted,
)
from paracr.expr import parse
from paracr.geometry import FrameBatch, PointFrame, structure_arrays
from paracr.jets import coordinate_jets
from paracr.presets import build_example
from paracr.runner import SELF_TEST_NAMES, engine_self_tests, sample_points
from paracr.spec_io import load_spec

SQRT_SPEC = SPECS / "flat3d_sqrt.json"

ARRAY_NAMES = ("g", "dg", "d2g", "phi", "dphi", "d2phi",
               "xi", "dxi", "d2xi", "eta", "deta", "d2eta")

# every preset at n = 1, 2, 3 (p1 at 2, 3), the random dimension-3
# frames and the bench's spec whose sqrt rejects draws
STRUCTURES = ["cosymplectic_n1", "cosymplectic_n2", "cosymplectic_n3",
              "flat3d", "hyperboloid_n1", "hyperboloid_n2", "hyperboloid_n3",
              "p1_n2", "p1_n3", "random0", "random1", "random2",
              "spec_flat3d_sqrt"]

# The frames whose algebra skips dead entries (E = I + couplings), the
# hyperboloid, whose tangent frame T is the identity and one column, the
# coordinate structures flat3d and spec_flat3d_sqrt (whose sqrt rejects
# draws), and the random dimension-3 frames, whose frame entries are all
# live.
ROW_STRUCTURES = ["cosymplectic_n1", "cosymplectic_n2", "cosymplectic_n3",
                  "cosymplectic_n4", "flat3d", "hyperboloid_n1",
                  "hyperboloid_n2", "hyperboloid_n3", "hyperboloid_n4",
                  "p1_n2", "p1_n3", "p1_n4", "random0", "random1", "random2",
                  "spec_flat3d_sqrt", "spec_p1_frame"]

class TestAgainstScalarReference:
    @pytest.mark.parametrize("case", STRUCTURES)
    def test_arrays_match(self, case):
        # [REFERENCE] every component array at sampled points.
        st = structure(case)
        count = 1 if st.dim >= 7 else 2
        for pf in sample_points(st, np.random.default_rng(3), count):
            want = scalar_reference.arrays(st, pf.point)
            for name in ARRAY_NAMES:
                got = getattr(pf, name)
                assert scaled_diff(got, want[name]) <= 1e-12, (case, name)
                np.testing.assert_array_equal(got, want[name])

    @pytest.mark.parametrize("case", ["flat3d", "random1", "hyperboloid_n1"])
    def test_third_metric_derivatives_match(self, case):
        st = structure(case)
        point = sample_points(st, np.random.default_rng(5), 1)[0].point
        np.testing.assert_array_equal(
            d3g(PointFrame(st, point).batch)[0],
            scalar_reference.third_metric_derivatives(st, point))

    @pytest.mark.parametrize("case", ["spec_flat3d_sqrt",
                                      "half_singular_frame",
                                      "half_degenerate_metric"])
    def test_sampling_decisions_match(self, case):
        # [REFERENCE] waves of batched draws accept the same points after
        # the same number of attempts (hence the same RNG state) as the
        # one-draw-at-a-time sampler, for seeds 0-15, and a draw is
        # rejected for the same reason; about half of the draws of these
        # structures are rejected (DomainError, SingularFrame,
        # DegenerateMetric).
        st = structure(case)
        total = {}
        for seed in range(16):
            rng = np.random.default_rng(seed)
            frames = sample_points(st, rng, 8)
            ref_rng = np.random.default_rng(seed)
            points, attempts, rejected = scalar_reference.sample(
                st, ref_rng, 8)
            assert [pf.point for pf in frames] == points
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            classes = {}
            for point in box_points(st.chart, np.random.default_rng(seed),
                                    attempts):
                try:
                    PointFrame(st, point)
                except paracr.ParacrError as exc:
                    name = type(exc).__name__
                    classes[name] = classes.get(name, 0) + 1
            assert classes == rejected
            for name, count in rejected.items():
                total[name] = total.get(name, 0) + count
        assert sum(total.values()) >= 16, total

    def test_batch_slices_equal_single_points(self):
        # the batch holds exactly the accepted points, in order, each
        # with the arrays of its own PointFrame; a rejected point's error
        # is the one its PointFrame raises.  Three of the five draws of
        # half_degenerate_metric have |x| < 0.5 (DegenerateMetric).
        for st, low, count in ((structure("p1_n2"), 0.5, 5),
                               (structure("half_degenerate_metric"), -1.0,
                                2)):
            points = np.random.default_rng(8).uniform(low, 1.0, (5, st.dim))
            batch, rejected = structure_arrays(st, points)
            accepted = [i for i, error in enumerate(rejected)
                        if error is None]
            assert len(accepted) == count
            np.testing.assert_array_equal(batch.points, points[accepted])
            for row, i in enumerate(accepted):
                single = PointFrame(st, points[i])
                for name in ARRAY_NAMES:
                    np.testing.assert_array_equal(getattr(batch, name)[row],
                                                  getattr(single, name))
            for point, error in zip(points, rejected):
                if error is not None:
                    with pytest.raises(paracr.ParacrError) as raised:
                        PointFrame(st, point)
                    assert type(raised.value) is error

    def test_structure_jets_decides_the_metric_rule(self):
        # [TRIVIAL] structure_jets is where every rejection is decided,
        # the metric determinant included: half_degenerate_metric has
        # |det g| = 2e-10 |x|, below 1e-10 exactly where |x| < 0.5
        st = structure("half_degenerate_metric")
        points = np.random.default_rng(8).uniform(-1.0, 1.0, (16, 3))
        rejected = geometry.structure_jets(st, points)[1]
        want = [DegenerateMetric if abs(x) < 0.5 else None
                for x in points[:, 0]]
        assert list(rejected) == want
        assert 0 < want.count(None) < len(want)

    @pytest.mark.parametrize("directional", [False, True],
                             ids=["sampled", "directional"])
    @pytest.mark.parametrize("case", ROW_STRUCTURES)
    def test_rows_are_their_own_evaluations_bit_for_bit(
            self, case, directional):
        # Every jet operation acts on each point alone, and the frame
        # algebra and the hyperboloid's tangent products skip the
        # entries their patterns mark dead, patterns that come from the
        # structure; so each of 32 points gets the arithmetic of its own
        # one-point call: the same bits in every coefficient, the same
        # rejection.  Sampled layout (the coordinate partials) and
        # directional layout (one unit direction per point, as the
        # directional self-test seeds it).
        st = structure(case)
        rng = np.random.default_rng(21)
        lo, hi = np.array(st.chart.box).T
        points = lo + (hi - lo) * rng.random((32, st.dim))
        directions = [None] * 32
        if directional:
            u = rng.normal(size=(32, st.dim, 1))
            directions = u / np.linalg.norm(u, axis=1, keepdims=True)
        parts, rejected = geometry.structure_jets(
            st, points, 2, None if directions[0] is None else directions)
        for p, u in enumerate(directions):
            parts_p, (rejected_p,) = geometry.structure_jets(
                st, points[p:p + 1], 2, None if u is None else u[None])
            for part, part_p in zip(parts, parts_p):
                assert np.array_equal(part.c[p].view(np.uint64),
                                      part_p.c[0].view(np.uint64)), p
            assert rejected[p] is rejected_p, p

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

class TestFailureSurface:
    def test_power_zero_keeps_the_domain_mask(self):
        # x^0 is 1 only where x is a number: of a NaN it stays NaN, and
        # the point is rejected.
        xs = coordinate_jets([[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]], 2)
        with np.errstate(invalid="ignore"):
            y = eval_expr(parse("sqrt(x)^0", ("x", "y", "z")), xs)
        assert math.isnan(y.v[0]) and y.v[1] == 1.0
        st = coordinate_structure(first_entry("1 + 0*sqrt(x)^0"))
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
            st = coordinate_structure(first_entry(text))
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
            sample_points(coordinate_structure(first_entry(f"-1 + 0*{text}")),
                          rng, 5)
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
        st = structure("hyperboloid_n2")
        with pytest.raises(OutsidePatch):
            PointFrame(st, (0.0, 0.0, 0.0, 0.8, 0.8))


class TestLibraryGuards:
    # [TRIVIAL] the guards of the batch types for library callers
    def test_concat_needs_one_structure(self):
        a, b = (PointFrame(build_example("flat3d").structure,
                           (0.1, 0.2, 0.3)).batch for _ in range(2))
        assert len(FrameBatch.concat([a, a])) == 2
        with pytest.raises(ValueError, match="different structures"):
            FrameBatch.concat([a, b])

    def test_point_frame_reads_only_batch_arrays(self):
        pf = PointFrame(build_example("flat3d").structure, (0.1, 0.2, 0.3))
        assert pf.g.shape == (3, 3)
        for name in ("_plan", "_g", "rows"):
            with pytest.raises(AttributeError, match=name):
                getattr(pf, name)
        assert not hasattr(pf, "rows")


# ---------------------------------------------------------------------------
# the mixed-partial self-test keeps its teeth
# ---------------------------------------------------------------------------

def broken_product(a, b, layout):
    """``jets._product`` with the mixed term a_s b_t of every
    second-order slot (t, s) replaced by a_t b_s."""
    k = layout.k
    a0, b0 = a[..., :1], b[..., :1]
    at, bt = a[..., 1:1 + k], b[..., 1:1 + k]
    blocks = [a0 * b0, a0 * bt + at * b0]
    if layout.order == 2:
        ats = a[..., 1 + k:].reshape(a.shape[:-1] + (k, k))
        bts = b[..., 1 + k:].reshape(b.shape[:-1] + (k, k))
        cts = ((a0[..., None] * bts + at[..., :, None] * bt[..., None, :])
               + (at[..., :, None] * bt[..., None, :] + ats * b0[..., None]))
        blocks.append(cts.reshape(cts.shape[:-2] + (k * k,)))
    return np.concatenate(blocks, axis=-1)


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
            PointFrame(st, point).batch)["mixed_partial"] <= 1e-12
        monkeypatch.setattr(jets, "_product", broken_product)
        broken = PointFrame(st, point)
        assert engine_self_tests(broken.batch)["mixed_partial"] >= 0.1

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
        st = coordinate_structure(first_entry("2 + sqrt(x)"))
        inner, edge = (0.5, 0.1, 0.2), (1e-9, 0.1, 0.2)
        both, rejected = structure_arrays(st, [inner, edge])
        assert rejected.tolist() == [None, None]
        summary = engine_self_tests(both)
        assert summary.fd_excluded == 1
        # the inner point alone: the same directions, the same value
        assert summary["jet_vs_fd"] == \
            engine_self_tests(both.rows(slice(0, 1)))["jet_vs_fd"]
        assert 0.0 < summary["jet_vs_fd"] <= 1e-6
        assert summary["mixed_partial"] <= 1e-12

    def test_degenerate_stencil_is_excluded_and_counted(self):
        # |det g| = 2e-10 x is just above 1e-10 at x = 0.5 + 1e-9, but a
        # step of 1e-5 along any direction with |u_x| > 1e-4 reaches the
        # degenerate half on one side: the metric rule rejects that row
        st = coordinate_structure(first_entry("0.0000000002*x"))
        batch, rejected = structure_arrays(st, [(0.5 + 1e-9, 0.1, 0.2)])
        assert list(rejected) == [None]
        summary = engine_self_tests(batch)
        assert summary.fd_excluded == 1
        assert math.isnan(summary["jet_vs_fd"])

    def test_gap_is_fourth_order_near_a_singularity(self):
        # sqrt(z + 0.5) in the bench's flat3d_sqrt spec: seed 1 samples
        # points near z = -0.5, where a plain central difference is off
        # by 5.6e-6 of the jets' scale (h^2/6 times a large third
        # derivative); with the h^2 terms taken out it reads 1.3e-10
        sample = sample_points(load_spec(str(SQRT_SPEC)).structure,
                               np.random.default_rng(1), 64)
        assert engine_self_tests(sample)["jet_vs_fd"] <= 1e-8

    def test_every_stencil_rejected_is_nan(self):
        st = coordinate_structure(first_entry("2 + sqrt(x)"))
        summary = engine_self_tests(
            structure_arrays(st, [(1e-9, 0.1, 0.2)])[0])
        assert summary.fd_excluded == 1
        assert math.isnan(summary["jet_vs_fd"])
        assert summary["mixed_partial"] <= 1e-12

    def test_empty_sample(self):
        summary = engine_self_tests([])
        assert tuple(summary) == SELF_TEST_NAMES + ("jet_vs_fd",)
        assert set(summary.values()) == {0.0} and summary.fd_excluded == 0
