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
  ``points`` (at most ``MAX_POINTS``), ``seed``, ``tolerance``,
  ``separation``, ``probes`` (at most ``MAX_PROBES``).

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

from .conditions import validate_checks
from .errors import ValidationError
from .expr import EntryParser, read_block
from .geometry import Chart, CoordinateStructure, FrameStructure
from .presets import build_example

DEFAULT_NUMERIC = {
    "points": 64,
    "seed": 0,
    "tolerance": 1e-6,
    "separation": 1e-2,
    "probes": 4,
}

# Upper bounds of the sample size and of the probe draws per point.  A
# run holds its whole sample, and its probe block holds points x probes
# x 4 x m floats, so a larger request is an input error rather than an
# allocation failure.
MAX_POINTS = 10_000
MAX_PROBES = 100
_INTEGER_RANGES = {"points": (1, MAX_POINTS), "seed": (0, None),
                   "probes": (0, MAX_PROBES)}

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


def _object(value, block, keys, required=True):
    """``value`` as a JSON object with no keys but ``keys`` (and all of
    them when ``required``), its items in the order of ``keys``."""
    data = _require_object(value, block)
    extra = set(data) - set(keys)
    if extra:
        _fail(block, f"unknown keys {sorted(extra)}")
    missing = set(keys) - set(data)
    if required and missing:
        _fail(block, f"missing fields {sorted(missing)}")
    return {key: data[key] for key in keys if key in data}


def _chart_from_block(block):
    data = _object(block, "chart block", ("coordinates", "box"))
    coords = data["coordinates"]
    if (not isinstance(coords, list) or not coords
            or not all(isinstance(c, str) and c for c in coords)):
        _fail("chart block", "coordinates must be a non-empty list of names")
    if len(set(coords)) != len(coords):
        _fail("chart block", "coordinate names must be distinct")
    box = data["box"]
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


def _numeric_field(key, value):
    """``value`` of the numeric setting ``key`` by its rule: ``points``,
    ``seed`` and ``probes`` are integers in ``_INTEGER_RANGES`` (points
    1 to ``MAX_POINTS``, seed at least 0, probes 0 to ``MAX_PROBES``),
    ``tolerance`` and ``separation`` positive finite numbers, returned
    as floats."""
    if key in ("tolerance", "separation"):
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not value > 0:
            _fail("numeric block", f"{key} must be a positive number")
        if not value <= sys.float_info.max:
            _fail("numeric block", f"{key} must be finite")
        return float(value)
    if not isinstance(value, int) or isinstance(value, bool):
        _fail("numeric block", f"{key} must be an integer")
    least, most = _INTEGER_RANGES[key]
    if value < least:
        _fail("numeric block", f"{key} must be >= {least}")
    if most is not None and value > most:
        _fail("numeric block", f"{key} must be <= {most}")
    return value


def validate_numeric(block, **overrides):
    """The numeric block (None when there is none) over the defaults,
    then the ``overrides`` that are not None (the ``points``, ``seed``
    and ``tolerance`` of :func:`paracr.runner.run`), every field checked
    by :func:`_numeric_field` and the tolerance below the separation.
    An overriding tolerance at or above the separation widens the
    separation to ten times the tolerance, keeping the ambiguity band
    open."""
    data = {} if block is None else _object(block, "numeric block",
                                            DEFAULT_NUMERIC, required=False)
    given = {key: value for key, value in overrides.items()
             if value is not None}
    merged = {**DEFAULT_NUMERIC, **data, **given}
    numeric = {key: _numeric_field(key, merged[key])
               for key in DEFAULT_NUMERIC}
    if "tolerance" in given and numeric["separation"] <= numeric["tolerance"]:
        numeric["separation"] = _numeric_field(
            "separation", 10.0 * numeric["tolerance"])
    if not numeric["tolerance"] < numeric["separation"]:
        _fail("numeric block", "tolerance must be below separation")
    return numeric


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
    if chart_block is not None and \
            _chart_json(_chart_from_block(chart_block)) != _chart_json(chart):
        _fail("chart block", f"does not match the chart of preset {name!r}")
    return (descriptor.structure, chart, descriptor.spec_dict["structure"],
            descriptor)


def _build_coordinate(block, chart):
    data = _object(block, "structure.coordinate block",
                   ("g", "phi", "xi", "eta"))
    parser = EntryParser(chart.coordinates)
    structure = CoordinateStructure(
        chart,
        parser.matrix(data["g"], "structure.coordinate.g"),
        parser.matrix(data["phi"], "structure.coordinate.phi"),
        parser.vector(data["xi"], "structure.coordinate.xi"),
        parser.vector(data["eta"], "structure.coordinate.eta"),
    )
    return structure, {"coordinate": data}


def _build_frame(block, chart):
    data = _object(block, "structure.frame block",
                   ("E", "g_hat", "phi_hat", "xi_hat", "eta_hat"))
    m = chart.dim
    structure = FrameStructure(
        chart,
        EntryParser(chart.coordinates).matrix(data["E"], "structure.frame.E"),
        read_block(data["g_hat"], m, "structure.frame.g_hat", _number,
                   matrix=True),
        read_block(data["phi_hat"], m, "structure.frame.phi_hat", _number,
                   matrix=True),
        read_block(data["xi_hat"], m, "structure.frame.xi_hat", _number),
        read_block(data["eta_hat"], m, "structure.frame.eta_hat", _number),
    )
    return structure, {"frame": data}


def spec_from_dict(data):
    """Validate a spec dictionary and build the structure it describes."""
    data = _object(data, "spec", _BLOCK_ORDER, required=False)
    if "structure" not in data:
        _fail("spec", "missing structure block")
    structure_block = _object(data["structure"], "structure block",
                              _STRUCTURE_SOURCES, required=False)
    if len(structure_block) != 1:
        _fail("structure block",
              "must contain exactly one of preset, coordinate, frame")
    [(source, block)] = structure_block.items()

    descriptor = None
    if source == "preset":
        structure, chart, normalized_structure, descriptor = _build_preset(
            block, data.get("chart"))
    else:
        if "chart" not in data:
            _fail("chart block",
                  f"required for {source} structures")
        chart = _chart_from_block(data["chart"])
        if source == "coordinate":
            structure, normalized_structure = _build_coordinate(block, chart)
        else:
            structure, normalized_structure = _build_frame(block, chart)

    checks = validate_checks(data.get("checks", "all"))
    numeric = validate_numeric(data.get("numeric"))

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
