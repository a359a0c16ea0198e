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

from paracr import expr
from paracr.errors import ParseError, ValidationError
from paracr.geometry import Chart, PointFrame
from paracr.presets import PRESET_NAMES, build_example
from paracr.runner import run
from paracr.spec_io import (
    DEFAULT_NUMERIC,
    load_spec,
    spec_from_dict,
    spec_text,
    emit_spec,
)

P1_F = "(1.0 + x1^2 + x2^2)/z"

# Preset blocks with a bad parameter, and what the error says.
BAD_PRESETS = [
    ({"name": "hyperboloid", "n": 0}, "n must be >= 1"),
    ({"name": "hyperboloid", "n": -1}, "n must be >= 1"),
    ({"name": "hyperboloid", "n": "x"}, "parameter n must be an integer"),
    ({"name": "p1", "n": 2.5}, "parameter n must be an integer"),
    ({"name": "cosymplectic", "n": True}, "parameter n must be an integer"),
    ({"name": "p1", "c": "abc"}, "does not accept parameters ['c']"),
    ({"name": "p1", "c": True}, "does not accept parameters ['c']"),
    ({"name": "p1", "c": math.inf}, "does not accept parameters ['c']"),
    ({"name": "p1", "f": 3}, "parameter f must be a string"),
    ({"name": "cosymplectic", "H": 5}, "parameter H must be a string"),
]

P1_FRAME_SPEC = {
    "chart": {
        "coordinates": ["x1", "x2", "y1", "y2", "z"],
        "box": [[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0],
                [0.5, 1.5]],
    },
    "structure": {"frame": {
        "E": [["1", "0", f"-({P1_F})", "0", "0"],
              ["0", "1", "0", f"-({P1_F})", "0"],
              ["0", "0", "1", "0", "0"],
              ["0", "0", "0", "1", "0"],
              ["0", "0", "-2*x1", "-2*x2", "1"]],
        "g_hat": [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [1, 0, 0, 0, 0],
                  [0, 1, 0, 0, 0], [0, 0, 0, 0, 1]],
        "phi_hat": [[-1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 1, 0, 0],
                    [0, 0, 0, 1, 0], [0, 0, 0, 0, 0]],
        "xi_hat": [0, 0, 0, 0, 1],
        "eta_hat": [0, 0, 0, 0, 1],
    }},
    "checks": "all",
}

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


def with_value(base, path, value):
    """``base`` copied, with the item at the key ``path`` set to ``value``."""
    spec = copy.deepcopy(base)
    *head, last = path
    target = spec
    for key in head:
        target = target[key]
    target[last] = value
    return spec


# Numbers of P1_FRAME_SPEC replaced by values that are not finite floats
# (JSON reads NaN, Infinity and -Infinity), and the start of the error.
BAD_NUMBERS = [
    (("chart", "box", 0, 0), -math.inf,
     "chart block: box[0][0]: must be a finite number, not -Infinity"),
    (("chart", "box", 4, 1), True,
     "chart block: box[4][1]: must be a finite number, not true"),
    (("chart", "box", 1), [-1e308, 1e308],
     "chart block: box interval 1 (-1e+308, 1e+308) is wider than the "
     "float range"),
    (("structure", "frame", "g_hat", 1, 2), math.nan,
     "structure.frame.g_hat[1][2]: must be a finite number, not NaN"),
    (("structure", "frame", "phi_hat", 0, 0), math.inf,
     "structure.frame.phi_hat[0][0]: must be a finite number, not "
     "Infinity"),
    (("structure", "frame", "xi_hat", 4), True,
     "structure.frame.xi_hat[4]: must be a finite number, not true"),
    (("structure", "frame", "eta_hat", 3), 10 ** 400,
     "structure.frame.eta_hat[3]: must be a finite number, not 1000"),
]


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
        preset = run(spec_from_dict(build_example("p1").spec_dict),
                     points=24, seed=seed)
        for key in ("engine", "checks", "classification"):
            assert json.dumps(frame.body()[key]) == \
                json.dumps(preset.body()[key]), key

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

    def test_distinct_structures_distinct_digests(self):
        digests = {spec_from_dict(build_example(n).spec_dict).digest
                   for n in PRESET_NAMES}
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
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError):
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
