"""The batched conditions against their point-by-point reference, the
NaN-honest reduction, and chunked evaluation.

Oracle provenance markers:
- [REFERENCE]: ``condition_reference`` evaluates every derived tensor
  and every condition one point at a time with the per-point formulas,
  ``tensordot`` probe contractions and a ``>`` running maximum.  The
  batched kernels perform the same floating-point operations per point
  (batched ``matmul`` gives one gemv or gemm per point, as ``tensordot``
  does), so raw, scale, part and verdict must agree exactly.
- [TRIVIAL]: forced by the documented reduction and reporting contracts.
"""

import json
import math
import pathlib
import zlib
from dataclasses import replace

import numpy as np
import pytest

import condition_reference as ref
from dim3_structures import random_dim3_structure
from paracr import conditions, runner
from paracr.conditions import (
    CONDITIONS,
    classify,
    evaluate_conditions,
    expand_checks,
    trit,
)
from paracr.errors import ParacrError, RankDefect
from paracr.expr import parse
from paracr.geometry import (
    ARRAY_NAMES,
    Chart,
    CoordinateStructure,
    FrameBatch,
    PointFrame,
)
from paracr.presets import build_example
from paracr.runner import evaluate_checks, run, sample_points
from paracr.spec_io import load_spec, spec_from_dict
from point_helpers import evaluate_condition

SPECS = pathlib.Path(__file__).parents[1] / "bench" / "specs"
TOL, SEP = 1e-6, 1e-2

CASES = {
    "flat3d": lambda: build_example("flat3d").structure,
    **{f"{name}_n{n}": (lambda name=name, n=n:
                      build_example(name, n=n).structure)
       for name, ns in (("hyperboloid", (1, 2, 3)), ("p1", (2, 3)),
                        ("cosymplectic", (1, 2, 3)))
       for n in ns},
    **{f"random{s}": (lambda s=s: random_dim3_structure(s))
       for s in range(3)},
    **{f"spec_{path.stem}": (lambda path=path:
                             load_spec(str(path)).structure)
       for path in sorted(SPECS.glob("*.json"))},
}

REFERENCE_TENSORS = ("ginv", "dginv", "Gamma", "dGamma", "Riem",
                     "nabla_eta", "nabla_xi", "nabla_phi", "h", "dh",
                     "nabla_h", "dEta", "Phi", "dPhi_partial", "dPhi", "P",
                     "dP", "Qplus", "dQplus", "Qminus", "dQminus")


def sample(case, seed, count=5):
    st = CASES[case]()
    rng = np.random.default_rng(seed)
    frames = sample_points(st, rng, count)
    probes = rng.uniform(-1.0, 1.0, (len(frames), 4, 4, st.dim))
    return st, frames, probes


def outcome(fn):
    """A call's result, or the class and message of its ParacrError."""
    try:
        return fn()
    except ParacrError as exc:
        return type(exc).__name__, str(exc)


def assert_row_is(row, want):
    """A report row carries the reference ConditionValue ``want``."""
    assert (row["raw"], row["scaled"], row["part"]) == \
        (want.raw, want.scaled, want.part), (row, want)
    assert row["verdict"] == runner._verdict(want.scaled, TOL, SEP)


class TestReferenceEquivalence:
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_the_per_point_reference(self, case, seed):
        # [REFERENCE] every row, one check per call and every check in
        # one call (shared intermediates, one grouped reduction), and
        # every (point, check) value
        st, frames, probes = sample(case, seed)
        refs = [ref.ReferenceFrame(pf) for pf in frames]
        ids = expand_checks("all", st.dim)
        together = outcome(lambda: evaluate_checks(ids, frames, probes, TOL,
                                                   SEP))
        raised = None
        for k, cid in enumerate(ids):
            got = outcome(lambda: evaluate_checks(
                [cid], frames, probes, TOL, SEP)[0][0])
            want = outcome(lambda: ref.worst_over_points(cid, refs, probes))
            if isinstance(want, tuple):
                assert got == want, cid
                raised = raised or want
                continue
            assert_row_is(got, want)
            if raised is None:
                assert_row_is(together[0][k], want)
                assert together[1][cid] == want.scaled
            for pf, rf, pr in zip(frames, refs, probes):
                assert evaluate_condition(cid, pf, pr) == \
                    ref.evaluate(cid, rf, pr), (cid, pf.point)
        assert raised is None or together == raised

    @pytest.mark.parametrize("case", ["p1_n3", "spec_flat3d_sqrt"])
    def test_one_call_over_two_chunks_equals_the_reference(self, case):
        # [REFERENCE] every check in one call on 70 points: two chunks,
        # each with its own memo and grouped reduction
        st, frames, probes = sample(case, 0, 70)
        refs = [ref.ReferenceFrame(pf) for pf in frames]
        ids = expand_checks("all", st.dim)
        rows, worst = evaluate_checks(ids, frames, probes, TOL, SEP)
        assert [row["id"] for row in rows] == ids
        for row in rows:
            want = ref.worst_over_points(row["id"], refs, probes)
            assert_row_is(row, want)
            assert worst[row["id"]] == want.scaled

    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid_n2", "p1_n3",
                                      "cosymplectic_n3", "random1",
                                      "spec_flat3d_sqrt"])
    def test_batch_tensors_equal_the_per_point_reference(self, case):
        # [REFERENCE]
        _, frames, _ = sample(case, 0)
        for pf in frames:
            rf = ref.ReferenceFrame(pf)
            for name in REFERENCE_TENSORS:
                np.testing.assert_array_equal(getattr(pf, name),
                                              getattr(rf, name), name)

    def test_probeless_points_and_extra_draws(self):
        # [REFERENCE] no probes, and more draws than a run uses
        st, frames, _ = sample("p1_n2", 1, 3)
        extra = np.random.default_rng(4).uniform(-1.0, 1.0, (8, 4, st.dim))
        for cid in expand_checks("all", st.dim):
            for pf in frames:
                rf = ref.ReferenceFrame(pf)
                for probes in ((), extra):
                    assert evaluate_condition(cid, pf, probes) == \
                        ref.evaluate(cid, rf, probes), cid

    def test_shared_kernel_keeps_ids_parts_and_guard(self):
        # [TRIVIAL] jw3d, wzor1 and wzor2 are one formula
        st, frames, probes = sample("flat3d", 2)
        values = {cid: evaluate_condition(cid, frames[0], probes[0])
                  for cid in ("jw3d", "wzor1", "wzor2")}
        assert values["wzor1"] == values["wzor2"]
        assert values["jw3d"].scaled == values["wzor1"].scaled
        assert values["jw3d"].part.startswith("dim3_nabla_phi")
        assert values["wzor1"].part.startswith("nabla_phi_from_reeb_gradient")
        assert CONDITIONS["jw3d"].scope == "dim3"


    def test_rank_defect_after_good_points(self):
        # [REFERENCE] the batched bases raise at the first point whose
        # eigendistribution has the wrong rank, with the reference's
        # message: phi = -P at point 2 (+1 rank 0, -1 rank 2n) and phi = 0
        # at point 4 (both rank 2n)
        st, frames, probes = sample("p1_n2", 0)
        arrays = {name: getattr(frames, name).copy() for name in ARRAY_NAMES}
        arrays["phi"][2] = -frames.P[2]
        arrays["phi"][4] = 0.0
        broken = FrameBatch(st, frames.points, arrays)
        refs = [ref.ReferenceFrame(pf) for pf in broken]
        for cid, label, rank in (("inv-plus", "+1", 0),
                                 ("inv-minus", "-1", 4)):
            want = outcome(lambda: ref.worst_over_points(cid, refs, probes))
            assert want == ("RankDefect", f"{label} eigendistribution has "
                            f"pointwise rank {rank}, expected 2")
            got = evaluate_conditions([cid], broken, probes)[cid]
            assert isinstance(got, RankDefect) and str(got) == want[1]
            assert outcome(lambda: evaluate_checks(
                [cid], broken, probes, TOL, SEP)) == want


class TestSectionalTarget:
    # The target checks R(X,Y)Z = K (g(Y,Z) X - g(X,Z) Y) on every frame
    # triple, scaled by the terms R is built from.

    @pytest.mark.parametrize("n, seed", [(3, 18), (3, 29), (4, 9), (4, 18),
                                         (4, 24), (4, 30), (4, 36)])
    def test_roundoff_near_the_patch_margin(self, n, seed):
        # [DERIVED] the hyperboloid has K = -1 exactly; at these seeds the
        # graph chart is ill-conditioned at some of the 64 points (terms
        # of 1e5 cancel to a curvature of 1e2), and the deviation stays
        # at roundoff
        spec = spec_from_dict(build_example("hyperboloid", n=n).spec_dict)
        report = run(spec, checks=["axioms"], points=64, seed=seed)
        assert report.targets["sectional"]["max_abs_deviation"] <= 1e-9

    @pytest.mark.parametrize("name, n, expected, floor", [
        ("hyperboloid", 1, -1.0 + 1e-6, 5e-7),
        ("hyperboloid", 2, -1.0 + 1e-6, 5e-7),
        ("hyperboloid", 4, -1.0 + 1e-6, 5e-7),
        ("flat3d", None, -1.0, 0.5),
    ])
    def test_a_wrong_curvature_reads_large(self, name, n, expected, floor):
        # [DERIVED] a curvature off by 1e-6 reads about 1e-6 over the
        # batch (the scale is of order one on the hyperboloid), and flat
        # space read against K = -1 reads order one
        desc = build_example(name, **({} if n is None else {"n": n}))
        batch = sample_points(desc.structure, np.random.default_rng(0), 8)
        deviation = runner._target_deviations("sectional", expected, batch)
        assert np.max(deviation) >= floor, deviation


# ---------------------------------------------------------------------------
# NaN honesty
# ---------------------------------------------------------------------------

def overflow_structure(lo):
    """g = 10 I and phi^0_1 = exp(x + 708): every component and partial is
    finite, but 10 * ∂phi overflows in dΦ once x > -0.5 (about), so the
    second part of apcos (dform_closed) is inf / inf = NaN there while
    its first part (deta_closed, eta constant) is exactly 0."""
    coords = ("x", "y", "z")
    chart = Chart(coords, ((lo, 1.0), (-1.0, 1.0), (-1.0, 1.0)))

    def entries(texts):
        return [[parse(t, coords) for t in row] for row in texts]
    g = entries([["10", "0", "0"], ["0", "10", "0"], ["0", "0", "10"]])
    phi = entries([["0", "exp(x + 708)", "0"], ["0", "0", "0"],
                   ["0", "0", "0"]])
    vec = entries([["0", "0", "1"]])[0]
    return CoordinateStructure(chart, g, phi, vec, vec)


class TestNaNHonesty:
    def test_nan_part_after_a_finite_part_is_reported(self):
        # [TRIVIAL] the per-point reduction keeps the NaN
        pf = PointFrame(overflow_structure(0.0), (0.5, 0.1, 0.2))
        probes = np.random.default_rng(0).uniform(-1.0, 1.0, (4, 4, 3))
        for draws in ((), probes):
            value = evaluate_condition("apcos", pf, draws)
            assert math.isnan(value.scaled), value
            assert value.part == "dform_closed"

    def test_nan_point_after_a_finite_point_is_reported(self):
        # [TRIVIAL] the cross-point reduction keeps the NaN too
        st = overflow_structure(-1.0)
        finite = PointFrame(st, (-0.9, 0.1, 0.2))
        broken = PointFrame(st, (0.5, 0.1, 0.2))
        assert evaluate_condition("apcos", finite).scaled >= SEP
        probes = np.zeros((2, 0, 4, 3))
        sample = FrameBatch.concat([finite.single, broken.single])
        rows, worst = evaluate_checks(["apcos"], sample, probes, TOL, SEP)
        assert math.isnan(worst["apcos"])
        assert rows[0]["verdict"] == "fail"

    def test_nan_fails_and_classifies_false(self):
        # [TRIVIAL] never pass, never ambiguous
        nan = float("nan")
        assert trit(nan, TOL, SEP) is False
        values = {"axioms": 0.0, "compat": 0.0, "apcos": nan}
        assert classify(values)["almost_para_cosymplectic"] is False
        assert runner._verdict(nan, TOL, SEP) == "fail"

    def test_run_reports_the_nan_row_as_a_failure(self):
        coords = ["x", "y", "z"]
        spec = spec_from_dict({
            "chart": {"coordinates": coords,
                      "box": [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]},
            "structure": {"coordinate": {
                "g": [["10", "0", "0"], ["0", "10", "0"], ["0", "0", "10"]],
                "phi": [["0", "exp(x + 708)", "0"], ["0", "0", "0"],
                        ["0", "0", "0"]],
                "xi": ["0", "0", "1"], "eta": ["0", "0", "1"]}},
            "checks": ["apcos"]})
        row = run(spec, points=3).checks[0]
        assert math.isnan(row["scaled"]) and row["verdict"] == "fail"


# ---------------------------------------------------------------------------
# chunked evaluation
# ---------------------------------------------------------------------------

class TestChunking:
    @pytest.mark.parametrize("name,params", [
        ("hyperboloid", {"n": 1}), ("p1", {"n": 2}), ("flat3d", {})])
    def test_report_body_is_independent_of_the_chunk_size(
            self, monkeypatch, name, params):
        # [TRIVIAL] chunks only bound memory; targets draw their planes
        # in point order across chunks
        # (sampling waves included)
        spec = spec_from_dict(build_example(name, **params).spec_dict)
        bodies = []
        for chunk in (1, 3, runner._CHUNK, 10 ** 6):
            monkeypatch.setattr(runner, "_CHUNK", chunk)
            bodies.append(run(spec, checks="all", points=7).body_json())
        assert bodies[0] == bodies[1] == bodies[2] == bodies[3]

    def test_chunked_sample_with_rejections(self, monkeypatch):
        spec = load_spec(str(SPECS / "flat3d_sqrt.json"))
        bodies = []
        for chunk in (1, 3, runner._CHUNK, 10 ** 6):
            monkeypatch.setattr(runner, "_CHUNK", chunk)
            bodies.append(run(spec, checks="all", points=9,
                              seed=3).body_json())
        assert bodies[0] == bodies[1] == bodies[2] == bodies[3]
        assert json.loads(bodies[0])["checks"]

    @pytest.mark.parametrize("chunk", [3, None])
    def test_sampling_waves_hold_at_most_one_chunk(self, monkeypatch, chunk):
        # [TRIVIAL] no structure_arrays call sees more than _CHUNK draws,
        # and the capped waves accept the same points from the same RNG
        # stream as uncapped ones
        st = load_spec(str(SPECS / "flat3d_sqrt.json")).structure
        monkeypatch.setattr(runner, "_CHUNK", 10 ** 6)
        rng_whole = np.random.default_rng(3)
        whole = sample_points(st, rng_whole, 150)
        if chunk is not None:
            monkeypatch.setattr(runner, "_CHUNK", chunk)
        else:
            monkeypatch.undo()
        sizes = []

        def counted(structure, points):
            sizes.append(len(points))
            return original(structure, points)

        original = runner.structure_arrays
        monkeypatch.setattr(runner, "structure_arrays", counted)
        rng = np.random.default_rng(3)
        frames = sample_points(st, rng, 150)
        assert max(sizes) == runner._CHUNK and len(sizes) > 150 // max(sizes)
        assert [pf.point for pf in frames] == [pf.point for pf in whole]
        assert rng.bit_generator.state == rng_whole.bit_generator.state

    def test_first_failing_check_in_request_order_raises(self, monkeypatch):
        # [TRIVIAL] a check that raises at a later chunk still raises
        # before a later check that raises at an earlier chunk
        st = build_example("p1", n=2).structure
        frames = sample_points(st, np.random.default_rng(0), 4)
        probes = np.zeros((4, 0, 4, st.dim))

        def late(batch, shared):
            if batch.points[0][0] == frames[3].point[0]:
                raise RankDefect("late")
            return axioms.fn(batch, shared)

        def early(batch, shared):
            raise RankDefect("early")

        axioms = CONDITIONS["axioms"]
        monkeypatch.setitem(CONDITIONS, "axioms", replace(axioms, fn=late))
        monkeypatch.setitem(CONDITIONS, "compat",
                            replace(CONDITIONS["compat"], fn=early))
        monkeypatch.setattr(runner, "_CHUNK", 1)
        with pytest.raises(RankDefect, match="late"):
            evaluate_checks(["axioms", "compat"], frames, probes, TOL, SEP)


# ---------------------------------------------------------------------------
# one pass over the checks of a chunk
# ---------------------------------------------------------------------------

def refilled(a, rng):
    """An array of a's shape and memory layout (its strides, for a
    transposed view) holding dense random values of order 10."""
    out = np.empty_like(a)
    out[...] = 10.0 * rng.standard_normal(a.shape)
    return out


class TestOnePass:
    # checks whose parts have transposed-view summands (M^T, dPhi's
    # transposed thirds, (nabla xi)^T, Phi^T)
    TRANSPOSED = ["news00", "news01", "apcos", "axioms", "h-rel"]

    @pytest.mark.parametrize("case", ["flat3d", "hyperboloid_n2", "p1_n3",
                                      "random1", "spec_flat3d_sqrt"])
    @pytest.mark.parametrize("dense", [False, True])
    def test_shared_stacks_keep_the_bits_of_transposed_summands(
            self, monkeypatch, case, dense):
        # [TRIVIAL] evaluated together, these checks share probe stacks;
        # a stack that changed a member's strides would move its gemvs
        # to another BLAS path and its last bits.  Sparse real residuals
        # often hide that, so the dense variant refills every array with
        # random values in its own layout.
        st, frames, probes = sample(case, 0, 16)
        layouts = []
        for cid in self.TRANSPOSED if dense else ():
            def kernel(fb, shared, fn=CONDITIONS[cid].fn, cid=cid):
                rng = np.random.default_rng(zlib.crc32(cid.encode()))
                parts = [(name, refilled(res, rng),
                          tuple(refilled(t, rng) for t in terms), slots)
                         for name, res, terms, slots in fn(fb, shared)]
                layouts.extend(t.flags.c_contiguous
                               for _, _, terms, slots in parts if slots
                               for t in terms)
                return parts
            monkeypatch.setitem(CONDITIONS, cid,
                                replace(CONDITIONS[cid], fn=kernel))
        together = evaluate_conditions(self.TRANSPOSED, frames, probes)
        for cid in self.TRANSPOSED:
            assert together[cid] == \
                evaluate_conditions([cid], frames, probes)[cid], cid
        assert not dense or not all(layouts)

    def test_probe_arrays_have_trailing_slots_and_keep_their_strides(
            self, monkeypatch):
        # [TRIVIAL] the reduction contracts a part's last axis first and
        # a group of arrays as one stack, so every array registered for a
        # probe contraction must list its slots as its trailing axes and
        # keep its strides when stacked; over every kernel
        registered = []
        columns = conditions._Reduction._columns

        def recorded(self, a, slots):
            registered.append((a, slots))
            return columns(self, a, slots)

        monkeypatch.setattr(conditions._Reduction, "_columns", recorded)
        seen = set()
        for case in ("flat3d", "hyperboloid_n2", "p1_n2", "random0"):
            st, frames, probes = sample(case, 0, 8)
            for cid in expand_checks("all", st.dim):
                registered.clear()
                value = evaluate_conditions([cid], frames, probes)[cid]
                assert not isinstance(value, ParacrError), (case, cid)
                contracted = [(a, slots) for a, slots in registered if slots]
                seen.add(cid)
                for a, slots in contracted:
                    axes = a.ndim - 1
                    assert slots == tuple(range(axes - len(slots), axes)), \
                        (case, cid, slots, a.shape)
                    assert conditions._stack([a, a]).strides[1:] == \
                        a.strides, (case, cid, a.shape, a.strides)
        assert seen == set(CONDITIONS)

    @pytest.mark.parametrize("cid,term", [("compat", None), ("normal", 0)])
    def test_a_nan_stays_in_its_own_row(self, monkeypatch, cid, term):
        # [TRIVIAL] a NaN in one condition's residual or summand fails
        # that row; every other row, including those whose arrays share
        # its stacks, is byte-identical to its solo evaluation
        st, frames, probes = sample("hyperboloid_n2", 1, 8)
        ids = expand_checks("all", st.dim)
        solo = [runner._dumps(evaluate_checks([i], frames, probes, TOL,
                                              SEP)[0][0]) for i in ids]
        cond = CONDITIONS[cid]

        def poisoned(fb, shared):
            (name, res, terms, slots), = cond.fn(fb, shared)
            terms = list(terms)
            if term is None:
                res = res.copy()
                res[3, 1, 2] = np.nan
            else:
                terms[term] = terms[term].copy()
                terms[term][3, 1, 2, 0] = np.nan
            return [(name, res, tuple(terms), slots)]

        monkeypatch.setitem(CONDITIONS, cid, replace(cond, fn=poisoned))
        rows, worst = evaluate_checks(ids, frames, probes, TOL, SEP)
        assert math.isnan(worst[cid])
        for row, alone in zip(rows, solo):
            if row["id"] == cid:
                assert row["verdict"] == "fail"
            else:
                assert runner._dumps(row) == alone, row["id"]

    @pytest.mark.parametrize("name,params", [("p1", {"n": 2}),
                                             ("flat3d", {})])
    def test_the_memo_does_not_outlive_its_chunk(self, monkeypatch, name,
                                                 params):
        # [TRIVIAL] the probe-dependent intermediates (the field brackets
        # of s0 and s1) are formed per chunk: three chunks of a 130-point
        # sample give the body of one
        spec = spec_from_dict(build_example(name, **params).spec_dict)
        bodies = []
        for chunk in (64, 10 ** 6):
            monkeypatch.setattr(runner, "_CHUNK", chunk)
            bodies.append(run(spec, checks="all", points=130).body_json())
        assert bodies[0] == bodies[1]


# ---------------------------------------------------------------------------
# chunked directional self-tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,params", [("p1", {"n": 2}),
                                         ("hyperboloid", {"n": 2}),
                                         ("cosymplectic", {"n": 1})])
def test_self_test_chunks_do_not_change_values(monkeypatch, name, params):
    # [TRIVIAL] every value is per point and elementwise, and a point's
    # directions are its rows of the one block drawn per call: the three
    # chunks of a 130-point sample give each point the values of one
    # chunk or of a chunk of its own
    sample = sample_points(build_example(name, **params).structure,
                           np.random.default_rng(5), 130)
    original = runner.directional_residuals
    summaries, per_point = [], []
    for chunk in (runner._CHUNK, 10 ** 6, 1):
        calls = []

        def recorded(batch, directions):
            calls.append(original(batch, directions))
            return calls[-1]

        monkeypatch.setattr(runner, "directional_residuals", recorded)
        monkeypatch.setattr(runner, "_CHUNK", chunk)
        summaries.append(runner.engine_self_tests(sample))
        assert len(calls) == -(-130 // chunk)
        per_point.append([np.concatenate(parts) for parts in zip(*calls)])
    for summary, values in zip(summaries[1:], per_point[1:]):
        assert summary == summaries[0]
        for got, want in zip(values, per_point[0]):
            np.testing.assert_array_equal(got, want)
    mixed, fd, excluded = per_point[0]
    assert np.all(mixed <= 1e-12) and np.all(fd <= 1e-6)
    assert not excluded.any()
