"""Tests for the verification runner and the command-line interface.

Oracle provenance markers:
- [TRIVIAL]: forced by the documented contracts (determinism, exit
  codes, key order, rejection budgets).
- [DERIVED]: sampler domain constraints checked against the structure
  that provokes them.

Report determinism and the golden report bodies are acceptance
criterion 10 (tests/test_acceptance.py).
"""

import json
import math

import numpy as np
import pytest

from accessors import report_body, report_body_json
from cases import (
    BAD_NUMBERS,
    BAD_PRESETS,
    P1_FRAME_SPEC,
    preset_spec,
    singular_frame_structure,
    structure,
    with_value,
)
from paracr import cli
from paracr.conditions import CONDITIONS, expand_checks
from paracr.errors import SamplingExhausted, ValidationError
from paracr.geometry import MAX_DIM, FrameBatch
from paracr.presets import build_example
from paracr.runner import (
    Report,
    REPORT_KEY_ORDER,
    SELF_TEST_NAMES,
    SelfTests,
    engine_self_tests,
    run,
    sample_points,
)
from paracr.spec_io import MAX_POINTS, MAX_PROBES, spec_from_dict
from scalar_reference import sample


# ---------------------------------------------------------------------------
# point sampling
# ---------------------------------------------------------------------------

class TestSamplePoints:
    def test_returns_requested_count_deterministically(self):
        st = build_example("flat3d").structure
        a = sample_points(st, np.random.default_rng(4), 10)
        b = sample_points(st, np.random.default_rng(4), 10)
        assert len(a) == 10
        assert [pf.point for pf in a] == [pf.point for pf in b]
        for pf in a:
            assert all(-1.0 <= v <= 1.0 for v in pf.point)

    def test_rejection_respects_domain(self):
        # [DERIVED] half the box raises a domain error; every accepted
        # point must sit in the valid half.
        frames = sample_points(structure("half_domain_metric"),
                               np.random.default_rng(0), 20)
        assert len(frames) == 20
        assert all(pf.point[2] >= 0.0 for pf in frames)

    @pytest.mark.parametrize("count", [1, 5, 70])
    def test_sample_is_one_batch_of_its_rows(self, count):
        # [DERIVED] a FrameBatch of exactly ``count`` rows, whose
        # iteration yields the points the one-draw-at-a-time sampler
        # accepts, in order, with the same RNG state after; half the
        # draws are rejected, so 70 points take several waves
        st = structure("half_domain_metric")
        rng = np.random.default_rng(3)
        batch = sample_points(st, rng, count)
        ref_rng = np.random.default_rng(3)
        points, _, _ = sample(st, ref_rng, count)
        assert isinstance(batch, FrameBatch) and len(batch) == count
        rows = list(batch)
        assert [pf.point for pf in rows] == points
        assert [(pf.batch, pf.index) for pf in rows] == \
            [(batch, i) for i in range(count)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert batch[-1].point == points[-1]
        with pytest.raises(IndexError):
            batch[count]

    @pytest.mark.parametrize("points,probes,dim",
                             [(1, 4, 3), (6, 0, 3), (5, 4, 5), (3, 7, 7),
                              (70, 2, 9)])
    def test_probe_block_equals_per_point_draws(self, points, probes, dim):
        # [TRIVIAL] run() draws all probes as one block; that is the
        # stream of one (probes, 4, dim) block per point, in point order
        for seed in range(4):
            block_rng = np.random.default_rng(seed)
            point_rng = np.random.default_rng(seed)
            block = block_rng.uniform(-1.0, 1.0, (points, probes, 4, dim))
            per_point = [point_rng.uniform(-1.0, 1.0, (probes, 4, dim))
                         for _ in range(points)]
            np.testing.assert_array_equal(block, np.array(per_point))
            assert block_rng.bit_generator.state == \
                point_rng.bit_generator.state

    def test_sampling_exhausted_on_singular_structure(self):
        with pytest.raises(SamplingExhausted) as err:
            sample_points(singular_frame_structure("0"),
                          np.random.default_rng(0), 5)
        assert "0/5" in str(err.value)
        assert "50" in str(err.value)
        # the error says why: every one of the 50 draws had a singular
        # frame
        assert str(err.value).endswith("(rejected: SingularFrame 50)")


# ---------------------------------------------------------------------------
# engine self-tests
# ---------------------------------------------------------------------------

class TestEngineSelfTests:
    def test_summary_keys_and_magnitudes(self):
        frames = sample_points(build_example("flat3d").structure,
                               np.random.default_rng(1), 6)
        summary = engine_self_tests(frames)
        assert tuple(summary) == SELF_TEST_NAMES + ("jet_vs_fd",)
        for name in SELF_TEST_NAMES:
            assert summary[name] <= 1e-9, name
        assert summary["jet_vs_fd"] <= 1e-5


# ---------------------------------------------------------------------------
# run() and Report
# ---------------------------------------------------------------------------

class TestRun:
    def test_flags_change_the_body(self):
        spec = preset_spec("flat3d")
        base = run(spec, checks=["axioms"], points=6)
        base = report_body_json(base)
        assert report_body_json(run(spec, checks=["axioms"], points=6,
                                    seed=9)) != base
        assert report_body_json(run(spec, checks=["axioms"],
                                    points=7)) != base
        assert report_body_json(run(spec, checks=["axioms"], points=6,
                                    tolerance=1e-9)) != base

    def test_report_key_order_and_body(self):
        spec = preset_spec("flat3d")
        report = run(spec, checks=["axioms", "pcm"], points=4)
        assert tuple(report.to_dict()) == REPORT_KEY_ORDER
        body = report_body(report)
        assert "wall_clock_seconds" not in body
        assert tuple(body) == REPORT_KEY_ORDER[:-1]
        parsed = json.loads(report.json())
        assert parsed["spec_digest"] == spec.digest
        assert parsed["points"] == 4

    def test_check_rows_follow_request_order(self):
        spec = preset_spec("flat3d")
        report = run(spec, checks=["para-cr", "k1"], points=4)
        assert [r["id"] for r in report.checks] == \
            expand_checks(["para-cr", "k1"], 3)

    def test_all_passed_logic(self):
        spec = preset_spec("hyperboloid")
        good = run(spec, checks=["para-cr"], points=6)
        assert good.all_passed
        mixed = run(spec, checks=["para-cr", "apcos"], points=6)
        assert not mixed.all_passed

    def test_unknown_check_is_a_validation_error(self):
        with pytest.raises(ValidationError):
            run(preset_spec("flat3d"), checks=["nope"])

    def test_override_validation(self):
        spec = preset_spec("flat3d")
        with pytest.raises(ValidationError):
            run(spec, points=0)
        with pytest.raises(ValidationError):
            run(spec, seed=-1)
        with pytest.raises(ValidationError):
            run(spec, tolerance=0.0)

    @pytest.mark.parametrize("key", ["points", "seed", "tolerance"])
    def test_overrides_obey_the_numeric_block_rules(self, key):
        # [TRIVIAL] a value the numeric block rejects is rejected as an
        # override too, naming the field, not truncated or read as 1; a
        # separation of 1e5 leaves each value to the field's own rule
        spec = preset_spec("flat3d")
        rejected = []
        for value in (2.5, True, -1, 0, math.inf, math.nan, MAX_POINTS + 1):
            try:
                preset_spec("flat3d", {key: value, "separation": 1e5})
            except ValidationError:
                rejected.append(value)
                with pytest.raises(ValidationError, match=f"{key} must"):
                    run(spec, checks=["axioms"], **{key: value})
        expected = {"points": [2.5, True, -1, 0, math.inf, math.nan,
                               MAX_POINTS + 1],
                    "seed": [2.5, True, -1, math.inf, math.nan],
                    "tolerance": [True, -1, 0, math.inf, math.nan]}[key]
        assert [repr(v) for v in rejected] == [repr(v) for v in expected]

    @pytest.mark.parametrize("tolerance,cause", [
        (math.inf, "tolerance must be finite"),
        (1e308, "separation must be finite")])
    def test_non_finite_thresholds_are_rejected(self, tolerance, cause):
        # an infinite tolerance would pass every check, and ten times a
        # huge one is an infinite separation
        with pytest.raises(ValidationError, match=cause):
            run(preset_spec("flat3d"), tolerance=tolerance)

    def test_an_empty_check_request_is_rejected(self):
        with pytest.raises(ValidationError, match="at least one check"):
            run(preset_spec("flat3d"), checks=[])

    def test_loose_tolerance_keeps_the_ambiguity_band_open(self):
        # overriding tolerance above the stored separation widens the
        # separation instead of inverting the band
        spec = preset_spec("flat3d")
        report = run(spec, checks=["axioms"], points=4, tolerance=0.5)
        assert report.tolerance == 0.5
        assert report.checks[0]["verdict"] == "pass"

    def test_targets_reported_for_presets(self):
        report = run(preset_spec("hyperboloid"), checks=["axioms"],
                     points=6)
        assert set(report.targets) == {"sectional", "r", "r_star"}
        for entry in report.targets.values():
            assert entry["max_abs_deviation"] <= 1e-9

    def test_classification_marks_unevaluated_classes_undetermined(self):
        report = run(preset_spec("hyperboloid"), checks=["para-cr"],
                     points=6)
        assert report.classification["para_cr"] is True
        assert report.classification["normal"] is None

    def test_text_rendering_mentions_the_essentials(self):
        report = run(preset_spec("hyperboloid"), checks=["para-cr"],
                     points=6)
        text = report.text()
        assert report.spec_digest in text
        assert "result        PASS" in text
        for row in report.checks:
            assert row["id"] in text


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------

class TestCli:
    def test_list_checks_covers_every_condition(self, capsys):
        assert cli.main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for cid in CONDITIONS:
            assert cid in out
        assert "bundle para-cr" in out

    def test_example_stdout_and_emit(self, tmp_path, capsys):
        assert cli.main(["example", "--name", "hyperboloid"]) == 0
        printed = capsys.readouterr().out
        data = json.loads(printed)
        assert data["structure"]["preset"]["name"] == "hyperboloid"
        path = tmp_path / "hyp.json"
        assert cli.main(["example", "--name", "hyperboloid",
                         "--emit-spec", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == printed

    def test_example_rejects_bad_parameters(self, tmp_path, capsys):
        assert cli.main(["example", "--name", "flat3d", "--n", "2"]) == 2
        assert "error:" in capsys.readouterr().err
        # a spec file that cannot be written: exit 2, not a traceback
        assert cli.main(["example", "--name", "flat3d", "--emit-spec",
                         str(tmp_path / "absent" / "flat3d.json")]) == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2]")

    def test_verify_rejects_a_chart_above_the_dimension_bound(
            self, tmp_path, capsys):
        # [TRIVIAL] the bound of every chart, not only the presets'
        m = MAX_DIM + 2
        names = [f"u{i}" for i in range(m)]
        zero = [["0"] * m for _ in range(m)]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "chart": {"coordinates": names, "box": [[-1, 1]] * m},
            "structure": {"coordinate": {"g": zero, "phi": zero,
                                         "xi": ["0"] * m,
                                         "eta": ["0"] * m}}}))
        assert cli.main(["verify", "--spec", str(path), "--points", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: chart block: chart dimension must be at most "
            f"{MAX_DIM}, got {m}\n")

    @pytest.mark.parametrize("entry,first_line", [
        ("1/0", "error: DomainError in a component expression: division "
                "by 0.0 inside guard band"),
        ("ln(0)", "error: DomainError in a component expression: ln of "
                  "non-positive value 0.0"),
        ("exp(1000)", "error: OverflowError in a component expression: "
                      "math range error"),
    ], ids=["1/0", "ln(0)", "exp(1000)"])
    def test_verify_rejects_a_frame_entry_that_always_raises(
            self, tmp_path, capsys, entry, first_line):
        # [TRIVIAL] an error in a constant frame entry: the spec loads,
        # its pattern leaves every entry of E live, and verify exits 2
        data = with_value(P1_FRAME_SPEC, ("structure", "frame", "E", 0, 0),
                          entry)
        assert spec_from_dict(data).structure._live_entries().all()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        assert cli.main(["verify", "--spec", str(path), "--points", "2"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == first_line and "Traceback" not in err

    def test_verify_reports_an_ambiguous_row(self, tmp_path, capsys):
        # p1 with f off a para-CR solution by 1e-6 x1: s1 reads about
        # 5.7e-6, between the tolerance and the separation
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"structure": {"preset": {
            "name": "p1", "f": "(1 + x1^2 + x2^2)/z + 1e-6*x1"}}}))
        assert cli.main(["verify", "--spec", str(path), "--checks", "s1",
                         "--points", "32", "--format", "json"]) == 1
        [row] = json.loads(capsys.readouterr().out)["checks"]
        assert row["verdict"] == "ambiguous"
        assert 1e-6 < row["scaled"] < 1e-2

    def test_verify_exit_codes(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        cli.main(["example", "--name", "hyperboloid",
                  "--emit-spec", str(path)])
        # 0: every requested check passes
        code = cli.main(["verify", "--spec", str(path),
                         "--checks", "para-cr", "--points", "8"])
        assert code == 0
        capsys.readouterr()
        # 1: a requested check fails (this family is not cosymplectic)
        code = cli.main(["verify", "--spec", str(path),
                         "--checks", "apcos", "--points", "8"])
        assert code == 1
        capsys.readouterr()
        # 2: spec errors
        assert cli.main(["verify", "--spec",
                         str(tmp_path / "absent.json")]) == 2
        assert cli.main(["verify", "--spec", str(path),
                         "--checks", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        # 2, not a vacuous pass: no check requested, or an infinite
        # tolerance that every residual would pass
        for flags, cause in ((["--checks", ""], "at least one check"),
                             (["--checks", ","], "at least one check"),
                             (["--tol", "inf"], "tolerance must be finite")):
            assert cli.main(["verify", "--spec", str(path), "--points", "2"]
                            + flags) == 2
            assert cause in capsys.readouterr().err
        # 2, not a traceback or a silent coercion: bad preset parameters
        for n in ("0", "-1"):
            assert cli.main(["example", "--name", "hyperboloid",
                             "--n", n]) == 2
            assert "error: n must be >= 1" in capsys.readouterr().err
        for preset, cause in BAD_PRESETS:
            path.write_text(json.dumps({"structure": {"preset": preset}}),
                            encoding="utf-8")
            assert cli.main(["verify", "--spec", str(path),
                             "--points", "2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and cause in err, preset
        # 2, naming the field: a number in the spec that is not finite,
        # or a JSON boolean where a number belongs
        for where, value, cause in BAD_NUMBERS:
            path.write_text(json.dumps(with_value(P1_FRAME_SPEC, where,
                                                  value)), encoding="utf-8")
            assert cli.main(["verify", "--spec", str(path),
                             "--points", "4"]) == 2
            assert capsys.readouterr().err.startswith(f"error: {cause}")
        # 2, naming the field, not an allocation failure: a probe count
        # or a --points override above its maximum
        path.write_text(json.dumps({
            "structure": {"preset": {"name": "flat3d"}},
            "numeric": {"probes": 10 ** 12}}), encoding="utf-8")
        assert cli.main(["verify", "--spec", str(path), "--points", "2"]) == 2
        assert capsys.readouterr().err == \
            f"error: numeric block: probes must be <= {MAX_PROBES}\n"
        cli.main(["example", "--name", "flat3d", "--emit-spec", str(path)])
        assert cli.main(["verify", "--spec", str(path), "--points",
                         str(MAX_POINTS + 1)]) == 2
        assert capsys.readouterr().err == \
            f"error: numeric block: points must be <= {MAX_POINTS}\n"

    def test_verify_unknown_check_lists_the_known_checks(self, tmp_path,
                                                         capsys):
        # [TRIVIAL] --checks obeys the checks block's rule and message
        path = tmp_path / "flat3d.json"
        cli.main(["example", "--name", "flat3d", "--emit-spec", str(path)])
        assert cli.main(["verify", "--spec", str(path), "--checks", "bogus",
                         "--points", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: checks block: unknown check 'bogus'; "
                              "known: ")
        for name in list(CONDITIONS) + ["para-cr"]:
            assert name in err

    def test_verify_rejects_off_dimension_check(self, tmp_path, capsys):
        path = tmp_path / "p1.json"
        cli.main(["example", "--name", "p1", "--emit-spec", str(path)])
        code = cli.main(["verify", "--spec", str(path),
                         "--checks", "jw3d", "--points", "2"])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[0] == (
            "error: jw3d: this identity is specific to dimension 3, got 5")

    def test_verify_json_format(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        cli.main(["example", "--name", "flat3d", "--emit-spec", str(path)])
        capsys.readouterr()
        code = cli.main(["verify", "--spec", str(path), "--checks",
                         "para-cr", "--points", "8", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert tuple(data) == REPORT_KEY_ORDER
        assert [r["id"] for r in data["checks"]] == \
            expand_checks(["para-cr"], 3)

    def test_verify_json_is_strict_for_non_finite_residuals(self, tmp_path,
                                                            capsys):
        # phi^0_1 = exp(x + 708) overflows the apcos and axioms residuals
        # to inf and NaN; strict JSON has no NaN or Infinity token, so
        # they are written as strings
        spec = {"chart": {"coordinates": ["x", "y", "z"],
                          "box": [[-1.0, 1.0]] * 3},
                "structure": {"coordinate": {
                    "g": [["10", "0", "0"], ["0", "10", "0"],
                          ["0", "0", "10"]],
                    "phi": [["0", "exp(x + 708)", "0"], ["0", "0", "0"],
                            ["0", "0", "0"]],
                    "xi": ["0", "0", "0"], "eta": ["0", "0", "0"]}}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = cli.main(["verify", "--spec", str(path), "--checks",
                         "axioms,apcos", "--points", "4", "--format", "json"])
        assert code == 1

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        data = json.loads(capsys.readouterr().out, parse_constant=reject)
        rows = {row["id"]: row for row in data["checks"]}
        assert rows["apcos"]["raw"] == "Infinity"
        assert rows["apcos"]["scaled"] == "NaN"
        assert rows["apcos"]["verdict"] == "fail"

    def test_report_json_writes_every_non_finite_float_as_a_string(self):
        report = Report(spec_digest="d", seed=0, points=1, tolerance=1e-6,
                        engine={"a": float("nan"), "b": 1.5},
                        checks=[{"raw": float("inf"),
                                 "scaled": -float("inf")}],
                        classification={"x": None}, targets=None,
                        wall_clock_seconds=0.25)
        data = json.loads(report.json())
        assert data["engine"] == {"a": "NaN", "b": 1.5}
        assert data["checks"] == [{"raw": "Infinity", "scaled": "-Infinity"}]
        assert json.loads(report_body_json(report)) == {
            key: value for key, value in data.items()
            if key != "wall_clock_seconds"}

    def test_text_counts_the_points_left_out_of_jet_vs_fd(self):
        engine = SelfTests.fromkeys(SELF_TEST_NAMES + ("jet_vs_fd",), 0.0)
        engine.fd_excluded = 3
        report = Report(spec_digest="d", seed=0, points=4, tolerance=1e-6,
                        engine=engine, checks=[], classification={},
                        targets=None, wall_clock_seconds=0.25)
        assert "\n  (3 points left out of jet_vs_fd: a difference stencil " \
            "row was rejected)\n" in report.text()

    def test_verify_is_deterministic_through_the_cli(self, tmp_path,
                                                     capsys):
        path = tmp_path / "spec.json"
        cli.main(["example", "--name", "cosymplectic",
                  "--emit-spec", str(path)])
        capsys.readouterr()
        bodies = []
        for _ in range(2):
            cli.main(["verify", "--spec", str(path), "--checks", "para-cr",
                      "--points", "8", "--format", "json"])
            data = json.loads(capsys.readouterr().out)
            del data["wall_clock_seconds"]
            bodies.append(json.dumps(data))
        assert bodies[0] == bodies[1]
