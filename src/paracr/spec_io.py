"""Manifold spec files: validation, loading, digests, and emission.

A spec is a JSON object with the blocks

- ``chart``: ``{"coordinates": [names...], "box": [[lo, hi], ...]}``;
  required for ``coordinate`` and ``frame`` structures, optional for
  presets (must match the preset's own chart when given).
- ``structure``: exactly one of
    * ``{"preset": {"name": ..., <parameters>}}``,
    * ``{"coordinate": {"g": [[expr]], "phi": [[expr]], "xi": [expr],
      "eta": [expr]}}`` with expression strings over the chart
      coordinates,
    * ``{"frame": {"E": [[expr]], "g_hat": [[num]], "phi_hat": [[num]],
      "xi_hat": [num], "eta_hat": [num]}}`` where column a of E holds
      the coordinate components of the frame field e_a.
- ``checks``: ``"all"``, or a list of condition ids and bundle names.
- ``numeric`` (optional): overrides of the sampling defaults
  ``points``, ``seed``, ``tolerance``, ``separation``, ``probes``.

Serialization is UTF-8 JSON, two-space indentation, blocks in the fixed
order chart, structure, checks, numeric.  The digest is the SHA-256 of
the canonical (sorted-key, compact) serialization of the normalized
spec, so it is independent of formatting and of omitted defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass

from .conditions import BUNDLES, CONDITIONS
from .errors import ValidationError
from .expr import EntryParser
from .geometry import Chart, CoordinateStructure, FrameStructure
from .presets import build_example

DEFAULT_NUMERIC = {
    "points": 64,
    "seed": 0,
    "tolerance": 1e-6,
    "separation": 1e-2,
    "probes": 4,
}

_BLOCK_ORDER = ("chart", "structure", "checks", "numeric")
_STRUCTURE_SOURCES = ("preset", "coordinate", "frame")


@dataclass
class ManifoldSpec:
    """A fully validated spec: built structure plus normalized metadata."""

    chart: Chart
    structure: object
    source: str                # "preset" | "coordinate" | "frame"
    checks: object             # "all" or list of ids / bundle names
    numeric: dict              # defaults merged in
    normalized: dict           # canonical JSON-ready form
    digest: str                # sha256 of the canonical serialization
    descriptor: object = None  # ExampleDescriptor for preset specs


def _fail(block, message):
    raise ValidationError(f"{block}: {message}")


def _require_object(value, block):
    if not isinstance(value, dict):
        _fail(block, "must be a JSON object")
    return value


def _chart_from_block(block):
    data = _require_object(block, "chart block")
    extra = set(data) - {"coordinates", "box"}
    if extra:
        _fail("chart block", f"unknown keys {sorted(extra)}")
    coords = data.get("coordinates")
    if (not isinstance(coords, list) or not coords
            or not all(isinstance(c, str) and c for c in coords)):
        _fail("chart block", "coordinates must be a non-empty list of names")
    if len(set(coords)) != len(coords):
        _fail("chart block", "coordinate names must be distinct")
    box = data.get("box")
    if not isinstance(box, list) or not all(
            isinstance(iv, list) and len(iv) == 2 for iv in box):
        _fail("chart block", "box must be a list of [lo, hi] pairs")
    box = tuple(tuple(_number(v, f"chart block: box[{i}][{j}]")
                      for j, v in enumerate(iv)) for i, iv in enumerate(box))
    try:
        return Chart(tuple(coords), box)
    except ValidationError as exc:
        _fail("chart block", str(exc))


def _chart_json(chart):
    return {
        "coordinates": list(chart.coordinates),
        "box": [[float(lo), float(hi)] for lo, hi in chart.box],
    }


def _number(value, where):
    """A JSON number as a finite float; a boolean, a NaN, an infinity or
    an integer beyond the float range is rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    _fail(where, f"must be a finite number, not {json.dumps(value)}")


def _number_matrix(rows, m, where):
    if (not isinstance(rows, list) or len(rows) != m
            or not all(isinstance(r, list) and len(r) == m for r in rows)):
        _fail(where, f"must be a numeric {m} x {m} matrix")
    return [[_number(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(rows)]


def _number_vector(entries, m, where):
    if not isinstance(entries, list) or len(entries) != m:
        _fail(where, f"must be a numeric list of {m} entries")
    return [_number(v, f"{where}[{j}]") for j, v in enumerate(entries)]


def _validate_checks(checks):
    if checks == "all":
        return "all"
    if isinstance(checks, str):
        checks = [checks]
    if not isinstance(checks, list) or not all(
            isinstance(c, str) for c in checks):
        _fail("checks block", 'must be "all" or a list of check names')
    if not checks:
        _fail("checks block", "must request at least one check")
    for item in checks:
        if item != "all" and item not in CONDITIONS and item not in BUNDLES:
            known = ", ".join(sorted(set(CONDITIONS) | set(BUNDLES)))
            _fail("checks block", f"unknown check {item!r}; known: {known}")
    return list(checks)


def _validate_numeric(block):
    if block is None:
        return dict(DEFAULT_NUMERIC)
    data = _require_object(block, "numeric block")
    extra = set(data) - set(DEFAULT_NUMERIC)
    if extra:
        _fail("numeric block", f"unknown keys {sorted(extra)}")
    merged = dict(DEFAULT_NUMERIC)
    merged.update(data)
    for key in ("points", "seed", "probes"):
        value = merged[key]
        if not isinstance(value, int) or isinstance(value, bool):
            _fail("numeric block", f"{key} must be an integer")
    if merged["points"] < 1:
        _fail("numeric block", "points must be >= 1")
    if merged["seed"] < 0:
        _fail("numeric block", "seed must be >= 0")
    if merged["probes"] < 0:
        _fail("numeric block", "probes must be >= 0")
    for key in ("tolerance", "separation"):
        value = merged[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not value > 0:
            _fail("numeric block", f"{key} must be a positive number")
        if not value <= sys.float_info.max:
            _fail("numeric block", f"{key} must be finite")
        merged[key] = float(value)
    if not merged["tolerance"] < merged["separation"]:
        _fail("numeric block", "tolerance must be below separation")
    return merged


def _build_preset(block, chart_block):
    data = _require_object(block, "structure.preset block")
    name = data.get("name")
    if not isinstance(name, str):
        _fail("structure.preset block", "missing preset name")
    params = {k: v for k, v in data.items() if k != "name"}
    try:
        descriptor = build_example(name, **params)
    except ValidationError as exc:
        _fail("structure.preset block", str(exc))
    chart = descriptor.structure.chart
    if chart_block is not None:
        declared = _chart_from_block(chart_block)
        if (list(declared.coordinates) != list(chart.coordinates)
                or [list(iv) for iv in declared.box]
                != [list(iv) for iv in chart.box]):
            _fail("chart block",
                  f"does not match the chart of preset {name!r}")
    normalized = {"preset": {"name": name, **params}}
    return descriptor.structure, chart, normalized, descriptor


def _build_coordinate(block, chart):
    data = _require_object(block, "structure.coordinate block")
    extra = set(data) - {"g", "phi", "xi", "eta"}
    if extra:
        _fail("structure.coordinate block", f"unknown keys {sorted(extra)}")
    missing = {"g", "phi", "xi", "eta"} - set(data)
    if missing:
        _fail("structure.coordinate block",
              f"missing fields {sorted(missing)}")
    parser = EntryParser(chart.coordinates)
    structure = CoordinateStructure(
        chart,
        parser.matrix(data["g"], "structure.coordinate.g"),
        parser.matrix(data["phi"], "structure.coordinate.phi"),
        parser.vector(data["xi"], "structure.coordinate.xi"),
        parser.vector(data["eta"], "structure.coordinate.eta"),
    )
    normalized = {"coordinate": {k: data[k] for k in ("g", "phi", "xi",
                                                      "eta")}}
    return structure, normalized


def _build_frame(block, chart):
    data = _require_object(block, "structure.frame block")
    fields = {"E", "g_hat", "phi_hat", "xi_hat", "eta_hat"}
    extra = set(data) - fields
    if extra:
        _fail("structure.frame block", f"unknown keys {sorted(extra)}")
    missing = fields - set(data)
    if missing:
        _fail("structure.frame block", f"missing fields {sorted(missing)}")
    m = chart.dim
    structure = FrameStructure(
        chart,
        EntryParser(chart.coordinates).matrix(data["E"], "structure.frame.E"),
        _number_matrix(data["g_hat"], m, "structure.frame.g_hat"),
        _number_matrix(data["phi_hat"], m, "structure.frame.phi_hat"),
        _number_vector(data["xi_hat"], m, "structure.frame.xi_hat"),
        _number_vector(data["eta_hat"], m, "structure.frame.eta_hat"),
    )
    normalized = {"frame": {k: data[k] for k in ("E", "g_hat", "phi_hat",
                                                 "xi_hat", "eta_hat")}}
    return structure, normalized


def spec_from_dict(data):
    """Validate a spec dictionary and build the structure it describes."""
    data = _require_object(data, "spec")
    extra = set(data) - set(_BLOCK_ORDER)
    if extra:
        _fail("spec", f"unknown blocks {sorted(extra)}")
    if "structure" not in data:
        _fail("spec", "missing structure block")
    structure_block = _require_object(data["structure"], "structure block")
    sources = [k for k in _STRUCTURE_SOURCES if k in structure_block]
    unknown = set(structure_block) - set(_STRUCTURE_SOURCES)
    if unknown:
        _fail("structure block", f"unknown keys {sorted(unknown)}")
    if len(sources) != 1:
        _fail("structure block",
              "must contain exactly one of preset, coordinate, frame")
    source = sources[0]

    descriptor = None
    if source == "preset":
        structure, chart, normalized_structure, descriptor = _build_preset(
            structure_block["preset"], data.get("chart"))
    else:
        if "chart" not in data:
            _fail("chart block",
                  f"required for {source} structures")
        chart = _chart_from_block(data["chart"])
        if source == "coordinate":
            structure, normalized_structure = _build_coordinate(
                structure_block["coordinate"], chart)
        else:
            structure, normalized_structure = _build_frame(
                structure_block["frame"], chart)

    checks = _validate_checks(data.get("checks", "all"))
    numeric = _validate_numeric(data.get("numeric"))

    normalized = {
        "chart": _chart_json(chart),
        "structure": normalized_structure,
        "checks": checks,
        "numeric": {k: numeric[k] for k in sorted(DEFAULT_NUMERIC)},
    }
    digest = spec_digest(normalized)
    return ManifoldSpec(chart=chart, structure=structure, source=source,
                        checks=checks, numeric=numeric,
                        normalized=normalized, digest=digest,
                        descriptor=descriptor)


def load_spec(path):
    """Load and validate a manifold spec from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"spec file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"spec file: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("spec file: invalid JSON: nested too deeply"
                              ) from exc
    return spec_from_dict(data)


def spec_digest(normalized):
    """SHA-256 of the canonical serialization of a normalized spec."""
    canonical = json.dumps(normalized, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def spec_text(data):
    """Serialize a spec dictionary with the documented block order."""
    spec = spec_from_dict(data)
    ordered = {key: spec.normalized[key] for key in _BLOCK_ORDER
               if key in spec.normalized}
    return json.dumps(ordered, indent=2) + "\n"


def emit_spec(data, path):
    """Validate, normalize, and write a spec dictionary to a file."""
    text = spec_text(data)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
