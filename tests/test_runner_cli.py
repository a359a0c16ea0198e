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
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from accessors import report_body, report_body_json
from cases import (
    P1_FRAME_SPEC,
    REJECTED,
    SMOKE_RUNS,
    preset_spec,
    singular_frame_structure,
    structure,
)
from paracr import cli, runner
from paracr.conditions import CONDITIONS, expand_checks
from paracr.errors import SamplingExhausted
from paracr.geometry import FrameBatch
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
from paracr.spec_io import (
    MAX_POINTS,
    emit_spec,
    load_spec,
    spec_from_dict,
)
from scalar_reference import sample


def _reject_token(token):
    """``parse_constant`` of strict JSON, which has no NaN or Infinity."""
    raise ValueError(f"non-standard JSON token {token}")


def _write_spec(directory, content):
    """The path of the spec file ``content`` (a dict written as JSON,
    bytes, or None for no file) in ``directory``."""
    path = directory / "spec.json"
    if content is not None:
        path.write_bytes(content if isinstance(content, bytes)
                         else json.dumps(content).encode())
    return path


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

    def test_the_numeric_rules_accept_what_they_do_not_reject(self):
        # [TRIVIAL] of the values whose numeric-<key>-<value> and
        # run-<key>-<value> rows REJECTED holds, these pass the field's
        # rule; a separation of 1e5 leaves the tolerance to its own
        for key, value in (("seed", 0), ("seed", MAX_POINTS + 1),
                           ("tolerance", 2.5),
                           ("tolerance", MAX_POINTS + 1)):
            spec = preset_spec("flat3d", {key: value, "separation": 1e5})
            assert spec.numeric[key] == value

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

    @pytest.mark.parametrize("run_id", SMOKE_RUNS)
    def test_verify_all_checks_smoke(self, tmp_path, capsys, run_id):
        # [TRIVIAL] every family and the frame transcription of p1, with
        # every check: exit 0 or 1, strict JSON, and the self-tests and
        # targets within their bounds
        family, points, *n = run_id.split(":")
        path = tmp_path / "spec.json"
        if family == "frame":
            path.write_text(json.dumps(P1_FRAME_SPEC))
        else:
            assert cli.main(["example", "--name", family,
                             *(["--n", *n] if n else []),
                             "--emit-spec", str(path)]) == 0
        assert cli.main(["verify", "--spec", str(path), "--points", points,
                         "--checks", "all", "--format", "json"]) in (0, 1)
        report = json.loads(capsys.readouterr().out,
                            parse_constant=_reject_token)
        for name, value in report["engine"].items():
            bound = 1e-5 if name == "jet_vs_fd" else 1e-9
            assert isinstance(value, (int, float)) and value <= bound, name
        for name, entry in (report["targets"] or {}).items():
            value = entry["max_abs_deviation"]
            assert isinstance(value, (int, float)) and value <= 1e-9, name

    def test_the_module_exits_with_the_status_of_main(self, tmp_path,
                                                      capsys):
        # [TRIVIAL] `python -m paracr.cli` exits with main's status and
        # prints what main prints
        argv = ["verify", "--spec", str(_write_spec(
            tmp_path, REJECTED["not-utf8"].spec)), "--points", "2"]
        done = subprocess.run([sys.executable, "-m", "paracr.cli", *argv],
                              capture_output=True, text=True,
                              cwd=pathlib.Path(cli.__file__).parents[1])
        assert cli.main(argv) == done.returncode == 2
        assert done.stderr == capsys.readouterr().err

    @pytest.mark.parametrize("name", [name for name in REJECTED
                                      if name.startswith("p1-frame-")])
    def test_a_raising_frame_entry_leaves_every_entry_live(self, name):
        # [TRIVIAL] an error in a constant frame entry: the spec loads and
        # its pattern leaves every entry of E live, so run() raises at
        # the first batch (TestRejectedInputs)
        assert spec_from_dict(REJECTED[name].spec).structure \
            ._live_entries().all()

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
        # (2, a rejected input: TestRejectedInputs)

    def test_verify_rejects_off_dimension_check(self, tmp_path, capsys,
                                                monkeypatch):
        # [TRIVIAL] the request alone decides it, before the first draw
        path = tmp_path / "p1.json"
        cli.main(["example", "--name", "p1", "--emit-spec", str(path)])
        monkeypatch.setattr(runner, "sample_points", lambda *args:
                            pytest.fail("sample_points called"))
        code = cli.main(["verify", "--spec", str(path),
                         "--checks", "jw3d", "--points", "2"])
        assert code == 2  # its message: REJECTED["jw3d-in-dimension-5"]

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
        data = json.loads(capsys.readouterr().out,
                          parse_constant=_reject_token)
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


# ---------------------------------------------------------------------------
# rejected inputs
# ---------------------------------------------------------------------------

def _library_call(row, directory):
    """What the library does with the input of a REJECTED row: build the
    example and write its spec, or load the spec and run it at 2 points
    with the row's overrides."""
    if row.example is not None:
        params = dict(row.example)
        path = params.pop("emit_spec", None)
        descriptor = build_example(**params)
        if path is not None:
            emit_spec(descriptor.spec_dict, path.replace("{dir}",
                                                         str(directory)))
        return
    if isinstance(row.spec, dict):
        spec = spec_from_dict(row.spec)
    else:
        spec = load_spec(_write_spec(directory, row.spec))
    run(spec, **{"points": 2, **row.overrides})


def _argv(row, directory):
    """The paracr command line of the input of a REJECTED row."""
    if row.example is not None:
        return ["example"] + [
            item for key, value in row.example.items()
            for item in (f"--{key.replace('_', '-')}",
                         str(value).replace("{dir}", str(directory)))]
    return ["verify", "--spec", str(_write_spec(directory, row.spec)),
            "--points", "2", *row.flags]


class TestRejectedInputs:
    @pytest.mark.parametrize("name", REJECTED)
    def test_the_library_raises_the_class_and_message(self, tmp_path, name):
        # [TRIVIAL] the error class itself, not a base class, and the
        # whole message
        row = REJECTED[name]
        with pytest.raises(row.error) as info:
            _library_call(row, tmp_path)
        assert type(info.value) is row.error
        assert str(info.value) == row.message.replace("{dir}",
                                                      str(tmp_path))

    @pytest.mark.parametrize("name", REJECTED)
    def test_paracr_exits_2_with_one_error_line(self, tmp_path, capsys,
                                                name):
        # [TRIVIAL] exit 2, nothing on stdout and the one line "error:
        # <message>", never a traceback or an allocation failure; a flag
        # argparse refuses exits 2 with its usage and error lines
        row = REJECTED[name]
        try:
            code = cli.main(_argv(row, tmp_path))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and "Traceback" not in err
        if row.refused is not None:
            assert err.splitlines()[-1] == row.refused
        else:
            assert err == "error: " + row.message.replace(
                "{dir}", str(tmp_path)) + "\n"
