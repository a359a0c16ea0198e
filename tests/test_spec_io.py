"""Tests for manifold spec loading, validation, digests, and emission.
The inputs the loader rejects are rows of ``cases.REJECTED``, asserted
in tests/test_runner_cli.py::TestRejectedInputs.

Oracle provenance markers:
- [TRIVIAL]: forced by the documented file format.
- [DERIVED]: preset-versus-transcription equivalence — a spec written
  out by hand in the frame or coordinate block must reproduce the
  tensors of the preset it transcribes to machine precision.
"""

import json
import math
import re

import numpy as np
import pytest

from accessors import report_body
from cases import FLAT3D_COORDINATE_SPEC, P1_F, P1_FRAME_SPEC, preset_spec
from paracr import expr
from paracr.errors import ValidationError
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
        # identical chart accepted, digest unchanged (a different one:
        # REJECTED["chart-of-another-preset"])
        base = build_example("flat3d").spec_dict
        spec = spec_from_dict(base)
        explicit = dict(base)
        explicit["chart"] = spec.normalized["chart"]
        assert spec_from_dict(explicit).digest == spec.digest

    @pytest.mark.parametrize("name", ["hyperboloid", "p1", "cosymplectic"])
    def test_largest_allowed_size_builds(self, name):
        # [TRIVIAL] construction only: one size more is in REJECTED
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


# ---------------------------------------------------------------------------
# validation of the surrounding blocks
# ---------------------------------------------------------------------------

class TestValidation:
    def test_checks_validation(self):
        ok = spec_from_dict(dict(FLAT3D_COORDINATE_SPEC,
                                 checks=["para-cr", "k1", "axioms"]))
        assert ok.checks == ["para-cr", "k1", "axioms"]
        single = spec_from_dict(dict(FLAT3D_COORDINATE_SPEC, checks="s0"))
        assert single.checks == ["s0"]
        omitted = dict(FLAT3D_COORDINATE_SPEC)
        del omitted["checks"]
        assert spec_from_dict(omitted).checks == "all"

    def test_numeric_validation(self):
        ok = spec_from_dict(dict(FLAT3D_COORDINATE_SPEC,
                                 numeric={"points": 8, "seed": 3}))
        assert ok.numeric["points"] == 8
        assert ok.numeric["seed"] == 3
        assert ok.numeric["tolerance"] == DEFAULT_NUMERIC["tolerance"]
        at_most = spec_from_dict(dict(
            FLAT3D_COORDINATE_SPEC,
            numeric={"points": MAX_POINTS, "probes": MAX_PROBES}))
        assert at_most.numeric["points"] == MAX_POINTS
        assert at_most.numeric["probes"] == MAX_PROBES

    def test_chart_box_must_be_finite(self):
        # [TRIVIAL] the chart itself, built without a spec
        coords = ("x", "y", "z")
        for interval, cause in (
                ((math.nan, 1.0), "box interval 2 (nan, 1.0) is not finite"),
                ((-1e308, 1e308), "box interval 2 (-1e+308, 1e+308) is "
                                  "wider than the float range")):
            with pytest.raises(ValidationError, match=re.escape(cause)):
                Chart(coords, ((-1.0, 1.0),) * 2 + (interval,))


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
