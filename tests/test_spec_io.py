"""Tests for manifold spec loading, validation, digests, and emission.

Oracle provenance markers:
- [TRIVIAL]: forced by the documented file format.
- [DERIVED]: preset-versus-transcription equivalence — a spec written
  out by hand in the frame or coordinate block must reproduce the
  tensors of the preset it transcribes to machine precision.
"""

import copy
import json
import math
import re

import numpy as np
import pytest

from accessors import report_body
from cases import (
    BAD_NUMBERS,
    BAD_PRESETS,
    P1_F,
    P1_FRAME_SPEC,
    preset_spec,
    with_value,
)
from paracr import expr
from paracr.errors import ParseError, ValidationError
from paracr.geometry import MAX_DIM, Chart, PointFrame
from paracr.presets import PRESET_NAMES, build_example
from paracr.runner import run
from paracr.spec_io import (
    DEFAULT_NUMERIC,
    MAX_POINTS,
    MAX_PROBES,
    load_spec,
    spec_from_dict,
    spec_text,
    emit_spec,
)

FLAT3D_COORDINATE_SPEC = {
    "chart": {
        "coordinates": ["x", "y", "z"],
        "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    },
    "structure": {"coordinate": {
        "g": [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "phi": [["0", "0", "cosh(2*z)"],
                ["0", "0", "-sinh(2*z)"],
                ["cosh(2*z)", "sinh(2*z)", "0"]],
        "xi": ["-sinh(2*z)", "cosh(2*z)", "0"],
        "eta": ["sinh(2*z)", "cosh(2*z)", "0"],
    }},
    "checks": ["para-cr", "pcm"],
}


def mutated(base, mutate):
    bad = copy.deepcopy(base)
    mutate(bad)
    return bad


# ---------------------------------------------------------------------------
# preset specs
# ---------------------------------------------------------------------------

class TestPresetSpecs:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_spec_loads(self, name):
        # [TRIVIAL] the emitted spec of each family round-trips.
        desc = build_example(name)
        spec = spec_from_dict(desc.spec_dict)
        assert spec.source == "preset"
        assert spec.descriptor is not None
        assert spec.chart.dim == desc.structure.chart.dim
        assert spec.checks == "all"
        assert spec.numeric == DEFAULT_NUMERIC

    def test_hyperboloid_with_size_parameter(self):
        # [TRIVIAL] named preset with parameters resolves.
        spec = spec_from_dict({
            "structure": {"preset": {"name": "hyperboloid", "n": 1}},
            "checks": "all",
        })
        assert spec.chart.dim == 3
        spec2 = spec_from_dict({
            "structure": {"preset": {"name": "hyperboloid", "n": 2}},
        })
        assert spec2.chart.dim == 5
        assert spec.digest != spec2.digest

    def test_chart_block_must_match_preset(self):
        base = build_example("flat3d").spec_dict
        spec = spec_from_dict(base)
        # identical chart accepted, digest unchanged
        explicit = dict(base)
        explicit["chart"] = spec.normalized["chart"]
        assert spec_from_dict(explicit).digest == spec.digest
        # different chart rejected
        wrong = copy.deepcopy(explicit)
        wrong["chart"]["coordinates"] = ["a", "b", "c"]
        with pytest.raises(ValidationError):
            spec_from_dict(wrong)

    def test_unknown_preset_and_parameters(self):
        with pytest.raises(ValidationError):
            spec_from_dict({"structure": {"preset": {"name": "nope"}}})
        with pytest.raises(ValidationError):
            spec_from_dict({"structure": {"preset": {"name": "flat3d",
                                                     "n": 2}}})

    @pytest.mark.parametrize("name", ["hyperboloid", "p1", "cosymplectic"])
    def test_largest_allowed_size_builds(self, name):
        # [TRIVIAL] construction only: one size more is in BAD_PRESETS
        spec = spec_from_dict({"structure": {"preset": {
            "name": name, "n": (MAX_DIM - 1) // 2}}})
        assert spec.chart.dim == spec.structure.dim == MAX_DIM

    def test_nested_quotient_potential_builds(self):
        # H is 40 levels deep and its second partials 85: the quotient
        # rule keeps the derivative of a denominator near the root
        H = "x1*z/(1+" * 19 + "x1*z" + ")" * 19
        spec = spec_from_dict({"structure": {"preset": {
            "name": "cosymplectic", "H": H}}})
        assert spec.chart.dim == 3

    @pytest.mark.parametrize("preset,cause", BAD_PRESETS)
    def test_bad_preset_parameter(self, preset, cause):
        # [TRIVIAL] a ValidationError naming the parameter, not a
        # ValueError or TypeError, and no silent coercion
        with pytest.raises(ValidationError) as info:
            spec_from_dict({"structure": {"preset": preset}})
        assert str(info.value).startswith("structure.preset block: ")
        assert cause in str(info.value)


# ---------------------------------------------------------------------------
# hand-written structure blocks against the presets
# ---------------------------------------------------------------------------

class TestFrameTranscription:
    def test_p1_frame_spec_matches_preset(self):
        # [DERIVED] a frame block transcribing the default p1 family
        # reproduces every cached tensor of the preset within 1e-9.
        spec = spec_from_dict(P1_FRAME_SPEC)
        assert spec.source == "frame"
        preset = build_example("p1").structure
        rng = np.random.default_rng(5)
        for _ in range(5):
            pt = tuple(rng.uniform(-0.8, 0.8, 4)) + (
                float(rng.uniform(0.6, 1.4)),)
            a = PointFrame(spec.structure, pt)
            b = PointFrame(preset, pt)
            for name in ("g", "phi", "xi", "eta", "Gamma", "Riem", "h",
                         "dEta"):
                assert np.max(np.abs(
                    getattr(a, name) - getattr(b, name))) <= 1e-9, name

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_p1_frame_spec_runs_like_the_preset(self, seed):
        # [DERIVED] the frame block and the preset build the same frame
        # expressions, so their runs agree byte for byte in all but the
        # spec digest and the preset's targets
        frame = run(spec_from_dict(P1_FRAME_SPEC), points=24, seed=seed)
        preset = run(preset_spec("p1"), points=24, seed=seed)
        for key in ("engine", "checks", "classification"):
            assert json.dumps(report_body(frame)[key]) == \
                json.dumps(report_body(preset)[key]), key

    def test_frame_block_field_validation(self):
        for mutate in (
            lambda s: s["structure"]["frame"].pop("g_hat"),
            lambda s: s["structure"]["frame"].update({"extra": 1}),
            lambda s: s["structure"]["frame"].update({"xi_hat": [0, 0, 1]}),
            lambda s: s["structure"]["frame"].update(
                {"g_hat": [["a"] * 5] * 5}),
        ):
            with pytest.raises(ValidationError):
                spec_from_dict(mutated(P1_FRAME_SPEC, mutate))


class TestCoordinateBlock:
    def test_flat3d_coordinate_spec_matches_preset(self):
        # [DERIVED] coordinate-block transcription of the flat example.
        spec = spec_from_dict(FLAT3D_COORDINATE_SPEC)
        assert spec.source == "coordinate"
        preset = build_example("flat3d").structure
        for pt in ((0.0, 0.0, 0.0), (0.3, -0.5, 0.7), (-0.9, 0.2, -0.4)):
            a = PointFrame(spec.structure, pt)
            b = PointFrame(preset, pt)
            for name in ("g", "phi", "xi", "eta", "Riem", "h"):
                assert np.max(np.abs(
                    getattr(a, name) - getattr(b, name))) <= 1e-12, name

    def test_bad_expression_is_a_located_parse_error(self):
        bad = mutated(FLAT3D_COORDINATE_SPEC,
                      lambda s: s["structure"]["coordinate"]["phi"][0]
                      .__setitem__(2, "cosh(2*z"))
        with pytest.raises(ParseError) as err:
            spec_from_dict(bad)
        assert err.value.offset >= 0
        assert "phi" in str(err.value)

    def test_each_distinct_text_is_parsed_once(self, monkeypatch):
        # [TRIVIAL] one parse per distinct text over all four fields
        parsed = []
        parse = expr.parse
        monkeypatch.setattr(expr, "parse", lambda text, coords: (
            parsed.append(text) or parse(text, coords)))
        spec_from_dict(FLAT3D_COORDINATE_SPEC)
        block = FLAT3D_COORDINATE_SPEC["structure"]["coordinate"]
        texts = ([t for row in block["g"] + block["phi"] for t in row]
                 + block["xi"] + block["eta"])
        assert sorted(parsed) == sorted(set(texts))

    def test_first_bad_entry_in_row_major_order_is_reported(self):
        # [TRIVIAL] a bad text that occurs twice is reported where it
        # occurs first, and a non-string entry before it first of all
        def put(spec, field, i, j, value):
            spec["structure"]["coordinate"][field][i][j] = value

        def bad_phi(spec):
            put(spec, "phi", 2, 0, "cosh(2*z")
            put(spec, "phi", 0, 2, "cosh(2*z")

        def bad_g_and_phi(spec):
            bad_phi(spec)
            put(spec, "g", 1, 1, 1.0)
        with pytest.raises(ParseError,
                           match=re.escape("structure.coordinate.phi[0][2]:")):
            spec_from_dict(mutated(FLAT3D_COORDINATE_SPEC, bad_phi))
        with pytest.raises(ValidationError, match=re.escape(
                "structure.coordinate.g[1][1]: expression entries must be "
                "strings")):
            spec_from_dict(mutated(FLAT3D_COORDINATE_SPEC, bad_g_and_phi))

    def test_unknown_variable_is_a_parse_error(self):
        bad = mutated(FLAT3D_COORDINATE_SPEC,
                      lambda s: s["structure"]["coordinate"]["xi"]
                      .__setitem__(0, "sinh(2*w)"))
        with pytest.raises(ParseError):
            spec_from_dict(bad)

    def test_missing_and_extra_fields(self):
        for mutate in (
            lambda s: s["structure"]["coordinate"].pop("eta"),
            lambda s: s["structure"]["coordinate"].update({"h": []}),
            lambda s: s["structure"]["coordinate"].update(
                {"g": [["1", "0"], ["0", "1"]]}),
        ):
            with pytest.raises(ValidationError):
                spec_from_dict(mutated(FLAT3D_COORDINATE_SPEC, mutate))


# ---------------------------------------------------------------------------
# validation of the surrounding blocks
# ---------------------------------------------------------------------------

class TestValidation:
    def test_even_dimension_rejected(self):
        # [TRIVIAL] an almost paracontact structure needs odd dimension.
        bad = mutated(P1_FRAME_SPEC, lambda s: (
            s["chart"]["coordinates"].pop(),
            s["chart"]["box"].pop()))
        bad["structure"]["frame"] = {
            "E": [["1", "0", "0", "0"]] * 4,
            "g_hat": [[1, 0, 0, 0]] * 4,
            "phi_hat": [[0, 0, 0, 0]] * 4,
            "xi_hat": [0, 0, 0, 1],
            "eta_hat": [0, 0, 0, 1],
        }
        with pytest.raises(ValidationError):
            spec_from_dict(bad)

    def test_chart_shape_errors(self):
        for mutate in (
            lambda s: s["chart"]["box"].pop(),            # length mismatch
            lambda s: s["chart"]["box"].__setitem__(0, [1.0, -1.0]),
            lambda s: s["chart"]["coordinates"].__setitem__(0, "x2"),
            lambda s: s["chart"].update({"volume": 1}),
            lambda s: s.pop("chart"),                     # frame needs one
            lambda s: s["chart"].update({"coordinates": "x1"}),
            lambda s: s["chart"]["box"].__setitem__(2, [-1.0]),
        ):
            with pytest.raises(ValidationError):
                spec_from_dict(mutated(P1_FRAME_SPEC, mutate))

    def test_exactly_one_structure_source(self):
        both = mutated(FLAT3D_COORDINATE_SPEC, lambda s: s["structure"]
                       .update({"preset": {"name": "flat3d"}}))
        with pytest.raises(ValidationError):
            spec_from_dict(both)
        with pytest.raises(ValidationError):
            spec_from_dict({"structure": {}})
        with pytest.raises(ValidationError):
            spec_from_dict({"chart": FLAT3D_COORDINATE_SPEC["chart"]})
        with pytest.raises(ValidationError):
            spec_from_dict(mutated(FLAT3D_COORDINATE_SPEC,
                                   lambda s: s["structure"]
                                   .update({"other": {}})))

    def test_unknown_top_level_block(self):
        with pytest.raises(ValidationError):
            spec_from_dict(mutated(FLAT3D_COORDINATE_SPEC,
                                   lambda s: s.update({"extras": {}})))

    def test_checks_validation(self):
        ok = spec_from_dict(mutated(
            FLAT3D_COORDINATE_SPEC,
            lambda s: s.update({"checks": ["para-cr", "k1", "axioms"]})))
        assert ok.checks == ["para-cr", "k1", "axioms"]
        single = spec_from_dict(mutated(FLAT3D_COORDINATE_SPEC,
                                        lambda s: s.update({"checks": "s0"})))
        assert single.checks == ["s0"]
        omitted = spec_from_dict(mutated(FLAT3D_COORDINATE_SPEC,
                                         lambda s: s.pop("checks")))
        assert omitted.checks == "all"
        for bad_checks in (["nope"], [], [3], {"id": "s0"}):
            with pytest.raises(ValidationError):
                spec_from_dict(mutated(
                    FLAT3D_COORDINATE_SPEC,
                    lambda s, b=bad_checks: s.update({"checks": b})))

    def test_numeric_validation(self):
        ok = spec_from_dict(mutated(
            FLAT3D_COORDINATE_SPEC,
            lambda s: s.update({"numeric": {"points": 8, "seed": 3}})))
        assert ok.numeric["points"] == 8
        assert ok.numeric["seed"] == 3
        assert ok.numeric["tolerance"] == DEFAULT_NUMERIC["tolerance"]
        for bad_numeric in (
            {"points": 0},
            {"points": 2.5},
            {"points": True},
            {"seed": -1},
            {"tolerance": 0.0},
            {"tolerance": -1e-6},
            {"separation": True},        # a JSON boolean is not a number
            {"tolerance": 0.5},          # above the default separation
            {"separation": 1e-9},        # below the default tolerance
            {"budget": 3},
            [3],
        ):
            with pytest.raises(ValidationError):
                spec_from_dict(mutated(
                    FLAT3D_COORDINATE_SPEC,
                    lambda s, b=bad_numeric: s.update({"numeric": b})))
        # above the named maxima: an error naming the field, not an
        # allocation failure when the probe block is drawn
        for key, value, most in (("points", MAX_POINTS + 1, MAX_POINTS),
                                 ("probes", MAX_PROBES + 1, MAX_PROBES),
                                 ("probes", 10 ** 12, MAX_PROBES)):
            with pytest.raises(ValidationError, match=re.escape(
                    f"numeric block: {key} must be <= {most}")):
                spec_from_dict(mutated(
                    FLAT3D_COORDINATE_SPEC,
                    lambda s: s.update({"numeric": {key: value}})))
        at_most = spec_from_dict(mutated(
            FLAT3D_COORDINATE_SPEC, lambda s: s.update(
                {"numeric": {"points": MAX_POINTS, "probes": MAX_PROBES}})))
        assert at_most.numeric["points"] == MAX_POINTS
        assert at_most.numeric["probes"] == MAX_PROBES

    @pytest.mark.parametrize("path,value,cause", BAD_NUMBERS, ids=[
        ".".join(map(str, path)) for path, _, _ in BAD_NUMBERS])
    def test_numbers_must_be_finite_and_not_boolean(self, path, value,
                                                    cause):
        # [TRIVIAL] an error naming the field, not a run sampled at NaN
        # points, a sampler that accepts nothing, or true read as 1.0
        with pytest.raises(ValidationError) as info:
            spec_from_dict(with_value(P1_FRAME_SPEC, path, value))
        assert str(info.value).startswith(cause)

    def test_chart_box_must_be_finite(self):
        # [TRIVIAL] the chart itself, built without a spec
        coords = ("x", "y", "z")
        for interval, cause in (
                ((math.nan, 1.0), "box interval 2 (nan, 1.0) is not finite"),
                ((-1e308, 1e308), "box interval 2 (-1e+308, 1e+308) is "
                                  "wider than the float range")):
            with pytest.raises(ValidationError, match=re.escape(cause)):
                Chart(coords, ((-1.0, 1.0),) * 2 + (interval,))

    @pytest.mark.parametrize("key,value", [
        ("separation", math.inf), ("separation", 10 ** 400),
        ("tolerance", math.inf)])
    def test_non_finite_thresholds_are_rejected(self, key, value):
        # an infinite separation would make every failure ambiguous, an
        # infinite tolerance pass every check; JSON 1e400 reads as inf
        with pytest.raises(ValidationError, match=f"{key} must be finite"):
            spec_from_dict(mutated(
                FLAT3D_COORDINATE_SPEC,
                lambda s: s.update({"numeric": {key: value}})))
        text = json.dumps(mutated(
            FLAT3D_COORDINATE_SPEC,
            lambda s: s.update({"numeric": {key: 1.0}}))).replace(
                f'"{key}": 1.0', f'"{key}": 1e400')
        with pytest.raises(ValidationError, match=f"{key} must be finite"):
            spec_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# digests, files, and emission
# ---------------------------------------------------------------------------

class TestDigest:
    def test_digest_is_stable_and_format_insensitive(self):
        base = build_example("cosymplectic").spec_dict
        d = spec_from_dict(base).digest
        assert len(d) == 64 and set(d) <= set("0123456789abcdef")
        assert spec_from_dict(base).digest == d
        # spelling out the defaults does not change the digest
        explicit = dict(base)
        explicit["numeric"] = dict(DEFAULT_NUMERIC)
        assert spec_from_dict(explicit).digest == d
        # a real change does
        changed = dict(base)
        changed["numeric"] = {"points": 32}
        assert spec_from_dict(changed).digest != d
        assert spec_from_dict(dict(base, checks=["s0"])).digest != d

    def test_preset_defaults_spelled_out_or_omitted(self):
        # [TRIVIAL] a preset block normalizes to every parameter spelled
        # out, so omitting a default moves neither digest nor text
        for name, params in (("p1", [{"n": 2}, {"n": 2, "f": P1_F}]),
                             ("hyperboloid", [{"n": 1}]),
                             ("cosymplectic", [{"n": 1}, {"H": "z*(x1^2)"}])):
            specs = [{"structure": {"preset": {"name": name, **extra}}}
                     for extra in [{}] + params]
            assert len({spec_from_dict(s).digest for s in specs}) == 1, name
            assert len({spec_text(s) for s in specs}) == 1, name

    def test_distinct_structures_distinct_digests(self):
        digests = {preset_spec(n).digest for n in PRESET_NAMES}
        assert len(digests) == len(PRESET_NAMES)


class TestFilesAndEmission:
    def test_load_spec_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(FLAT3D_COORDINATE_SPEC), encoding="utf-8")
        spec = load_spec(path)
        assert spec.digest == spec_from_dict(FLAT3D_COORDINATE_SPEC).digest

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ValidationError):
            load_spec(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        # not JSON, not UTF-8, nested deeper than the JSON decoder goes
        for content in (b"{not json", b"\xff{}",
                        b"[" * 100000 + b"]" * 100000):
            bad.write_bytes(content)
            with pytest.raises(ValidationError, match="^spec file: "):
                load_spec(bad)

    def test_spec_text_block_order_and_reload(self, tmp_path):
        text = spec_text(P1_FRAME_SPEC)
        data = json.loads(text)
        assert list(data) == ["chart", "structure", "checks", "numeric"]
        assert text.endswith("\n")
        path = tmp_path / "emitted.json"
        emitted = emit_spec(P1_FRAME_SPEC, path)
        assert emitted == text
        assert path.read_text(encoding="utf-8") == text
        reloaded = load_spec(path)
        assert reloaded.digest == spec_from_dict(P1_FRAME_SPEC).digest
